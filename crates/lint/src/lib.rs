//! Token-aware static analysis for the HeteroPrio workspace.
//!
//! This crate is the workspace's determinism and panic-freedom gate. It
//! replaces the regex-era scanner that lived in `crates/audit`: sources
//! are now lexed by a real (hand-rolled, dependency-free) Rust tokenizer
//! ([`token`]), so string literals, comments and `#[cfg(test)]` item
//! scopes are recognized structurally instead of by line heuristics.
//!
//! The pipeline per file:
//!
//! 1. [`token::tokenize`] lexes the source (infallible — broken input
//!    degrades to oversized tokens, never a panic).
//! 2. [`source::SourceFile`] builds the masked code-only line view, the
//!    `#[cfg(test)]` scope map, and the `lint: allow(rule): reason`
//!    directive table.
//! 3. [`rules::lint_source`] applies the rule registry ([`rules::RULES`])
//!    — see the `rules` module docs for the full rule list.
//! 4. [`baseline::apply`] matches violations against the committed
//!    `lint-baseline.json` (strict in both directions) and
//!    [`report::LintReport`] renders text, JSON, or SARIF 2.1.0.
//!
//! The `audit-lint` binary (kept under its historical name for CI
//! compatibility) drives the whole pipeline.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod report;
pub mod rules;
pub mod source;
pub mod token;

pub use report::LintReport;
pub use rules::{lint_source, lint_workspace, rule_meta, Family, RuleMeta, RULES};

use std::fmt;

/// One lint finding: where, which rule, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    pub file: String,
    /// 1-based line; 0 for whole-file findings (`forbid-unsafe`).
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The `--help` text for the `audit-lint` binary. Lives here so the
/// self-consistency test can pin it against [`RULES`] and the module docs.
pub fn help_text() -> String {
    let mut out = String::from(
        "audit-lint: token-aware static analysis for the HeteroPrio workspace\n\
         \n\
         usage: audit-lint [WORKSPACE_ROOT] [options]\n\
         \n\
         options:\n\
         \x20 --rules              list the rule registry and exit\n\
         \x20 --format FORMAT      report format: text (default), json, sarif\n\
         \x20 --out FILE           write the report to FILE instead of stdout/stderr\n\
         \x20 --report-dir DIR     also write lint-report.json and lint-report.sarif to DIR\n\
         \x20 --baseline FILE      baseline file (default: WORKSPACE_ROOT/lint-baseline.json)\n\
         \x20 --no-baseline        ignore the baseline; report every violation as new\n\
         \x20 --help, -h           show this help\n\
         \n\
         Violations are suppressed per line with `lint: allow(rule): reason` in a\n\
         plain comment (the reason is mandatory), or grandfathered via the\n\
         committed lint-baseline.json, which must shrink as sites are fixed.\n\
         \n\
         rules:\n",
    );
    for m in RULES {
        out.push_str(&format!("  {:<22} [{}] {}\n", m.name, m.family.as_str(), m.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_matches_the_historical_format() {
        let v = LintViolation {
            file: "crates/core/src/kernel.rs".into(),
            line: 12,
            rule: "unwrap",
            message: "bare unwrap".into(),
        };
        assert_eq!(v.to_string(), "crates/core/src/kernel.rs:12: [unwrap] bare unwrap");
    }

    #[test]
    fn help_text_lists_every_rule() {
        let help = help_text();
        for m in RULES {
            assert!(help.contains(m.name), "help text missing rule {}", m.name);
        }
    }
}
