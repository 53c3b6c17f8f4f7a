//! The committed-baseline gate: `lint-baseline.json` at the workspace root
//! grandfathers known violations so new rules can land strict.
//!
//! The gate is strict in both directions. Each entry pins an exact
//! violation tally for one `(file, rule)` pair, with a mandatory note
//! stating the burn-down plan. More violations than the entry allows →
//! the overflow is reported as new. Fewer → the entry is *stale* and the
//! gate fails too, forcing the baseline to shrink as sites are fixed: a
//! baseline can only ever burn down, never silently rot.

use crate::report::LintReport;
use crate::LintViolation;
use heteroprio_trace::json::{self, Value};
use std::path::Path;

/// One grandfathered `(file, rule)` pair.
#[derive(Clone, Debug)]
pub struct BaselineEntry {
    pub file: String,
    pub rule: String,
    /// Exact number of violations this entry covers.
    pub allowed: usize,
    /// The burn-down note: why these exist and what retires them.
    pub note: String,
}

/// Load a baseline file. A missing file is an empty baseline.
pub fn load(path: &Path) -> Result<Vec<BaselineEntry>, String> {
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse the baseline document: `{"entries": [{file, rule, allowed, note}]}`.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = json::parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("baseline must be an object with an \"entries\" array")?;
    let mut out = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("entry {i}: missing string field {k:?}"))
        };
        let file = field("file")?;
        let rule = field("rule")?;
        let note = field("note")?;
        let allowed = e
            .get("allowed")
            .and_then(Value::as_i64)
            .filter(|n| *n > 0)
            .ok_or(format!("entry {i}: \"allowed\" must be a positive integer"))?
            as usize;
        if crate::rules::rule_meta(&rule).is_none() {
            return Err(format!("entry {i}: unknown rule {rule:?}"));
        }
        if note.trim().is_empty() {
            return Err(format!("entry {i}: empty burn-down note"));
        }
        out.push(BaselineEntry { file, rule, allowed, note });
    }
    Ok(out)
}

/// Split raw violations into the report buckets by matching them against
/// the baseline. Matching is per `(file, rule)`: the first `allowed`
/// violations are baselined, any overflow is new, and an entry that finds
/// fewer violations than it allows is stale.
pub fn apply(violations: Vec<LintViolation>, baseline: &[BaselineEntry]) -> LintReport {
    let mut report = LintReport::default();
    let mut matched: Vec<Vec<LintViolation>> = vec![Vec::new(); baseline.len()];
    for v in violations {
        let slot = baseline
            .iter()
            .position(|e| e.file == v.file && e.rule == v.rule)
            .filter(|&i| matched[i].len() < baseline[i].allowed);
        match slot {
            Some(i) => matched[i].push(v),
            None => report.new.push(v),
        }
    }
    for (entry, vs) in baseline.iter().zip(matched) {
        if vs.len() < entry.allowed {
            report.stale.push(format!(
                "stale baseline entry: {}: [{}] allows {} but found {} — shrink lint-baseline.json \
                 (note: {})",
                entry.file,
                entry.rule,
                entry.allowed,
                vs.len(),
                entry.note
            ));
        }
        for v in vs {
            report.baselined.push((v, entry.note.clone()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(file: &str, line: usize, rule: &'static str) -> LintViolation {
        LintViolation { file: file.into(), line, rule, message: "m".into() }
    }

    fn entry(file: &str, rule: &str, allowed: usize) -> BaselineEntry {
        BaselineEntry {
            file: file.into(),
            rule: rule.into(),
            allowed,
            note: "burn down with .get()".into(),
        }
    }

    #[test]
    fn parses_and_validates_entries() {
        let text = r#"{"entries": [
            {"file": "crates/core/src/x.rs", "rule": "slice-index", "allowed": 2,
             "note": "burn down with .get()"}
        ]}"#;
        let got = parse(text).expect("valid baseline");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].allowed, 2);
        assert!(parse(
            r#"{"entries": [{"file": "f", "rule": "nope", "allowed": 1, "note": "n"}]}"#
        )
        .is_err());
        assert!(parse(
            r#"{"entries": [{"file": "f", "rule": "unwrap", "allowed": 0, "note": "n"}]}"#
        )
        .is_err());
        assert!(parse(
            r#"{"entries": [{"file": "f", "rule": "unwrap", "allowed": 1, "note": " "}]}"#
        )
        .is_err());
    }

    #[test]
    fn apply_is_strict_in_both_directions() {
        let baseline = vec![entry("a.rs", "slice-index", 2)];
        // Exact match: everything baselined, nothing new or stale.
        let r = apply(vec![v("a.rs", 1, "slice-index"), v("a.rs", 5, "slice-index")], &baseline);
        assert!(r.new.is_empty() && r.stale.is_empty());
        assert_eq!(r.baselined.len(), 2);
        // Overflow: the third violation is new.
        let r = apply(
            vec![
                v("a.rs", 1, "slice-index"),
                v("a.rs", 5, "slice-index"),
                v("a.rs", 9, "slice-index"),
            ],
            &baseline,
        );
        assert_eq!(r.new.len(), 1);
        assert_eq!(r.new[0].line, 9);
        // Under-count: the entry is stale and the gate fails.
        let r = apply(vec![v("a.rs", 1, "slice-index")], &baseline);
        assert_eq!(r.stale.len(), 1);
        assert!(r.stale[0].contains("allows 2 but found 1"));
        // Other files/rules never match the entry.
        let r = apply(vec![v("b.rs", 1, "slice-index"), v("a.rs", 1, "unwrap")], &baseline);
        assert_eq!(r.new.len(), 2);
    }
}
