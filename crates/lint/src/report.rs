//! Report rendering: compiler-style text, a JSON document for tooling,
//! and SARIF 2.1.0 for code-scanning UIs. All three are views over the
//! same [`LintReport`].

use crate::rules::RULES;
use crate::LintViolation;
use heteroprio_trace::json::Value;

/// The outcome of a lint run after the baseline is applied.
#[derive(Default)]
pub struct LintReport {
    /// Violations not covered by the baseline — these fail the gate.
    pub new: Vec<LintViolation>,
    /// Violations matched by a baseline entry, with its burn-down note.
    pub baselined: Vec<(LintViolation, String)>,
    /// Baseline entries allowing more than was found — these fail the
    /// gate too (the baseline must shrink as sites are fixed).
    pub stale: Vec<String>,
}

impl LintReport {
    /// Number of findings that fail the gate.
    pub fn gate_failures(&self) -> usize {
        self.new.len().saturating_add(self.stale.len())
    }

    /// The one-line summary used by the binary and the CI step summary.
    pub fn summary_line(&self) -> String {
        if self.gate_failures() == 0 {
            format!("audit-lint: clean ({} baselined)", self.baselined.len())
        } else {
            format!(
                "audit-lint: {} new violation(s), {} stale baseline entr{}",
                self.new.len(),
                self.stale.len(),
                if self.stale.len() == 1 { "y" } else { "ies" }
            )
        }
    }

    /// Compiler-style text: one `file:line: [rule] message` per finding.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for v in &self.new {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for s in &self.stale {
            out.push_str(s);
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// The JSON report: full registry, findings by bucket, and tallies.
    pub fn json(&self) -> String {
        let violation = |v: &LintViolation| {
            Value::Obj(vec![
                ("file".into(), Value::Str(v.file.clone())),
                ("line".into(), Value::Num(v.line as f64)),
                ("rule".into(), Value::Str(v.rule.into())),
                ("message".into(), Value::Str(v.message.clone())),
            ])
        };
        let rules = RULES
            .iter()
            .map(|m| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(m.name.into())),
                    ("family".into(), Value::Str(m.family.as_str().into())),
                    ("summary".into(), Value::Str(m.summary.into())),
                    ("protects".into(), Value::Str(m.protects.into())),
                ])
            })
            .collect();
        let baselined = self
            .baselined
            .iter()
            .map(|(v, note)| {
                let Value::Obj(mut pairs) = violation(v) else { unreachable!() };
                pairs.push(("note".into(), Value::Str(note.clone())));
                Value::Obj(pairs)
            })
            .collect();
        Value::Obj(vec![
            ("tool".into(), Value::Str("audit-lint".into())),
            ("rules".into(), Value::Arr(rules)),
            ("new".into(), Value::Arr(self.new.iter().map(violation).collect())),
            ("baselined".into(), Value::Arr(baselined)),
            (
                "stale".into(),
                Value::Arr(self.stale.iter().map(|s| Value::Str(s.clone())).collect()),
            ),
            (
                "summary".into(),
                Value::Obj(vec![
                    ("new".into(), Value::Num(self.new.len() as f64)),
                    ("baselined".into(), Value::Num(self.baselined.len() as f64)),
                    ("stale".into(), Value::Num(self.stale.len() as f64)),
                ]),
            ),
        ])
        .pretty()
    }

    /// SARIF 2.1.0: one run, the full rule table on the driver, new
    /// findings as `error` results and baselined ones as suppressed
    /// `note` results carrying the burn-down note as justification.
    pub fn sarif(&self) -> String {
        let result = |v: &LintViolation, level: &str, note: Option<&str>| {
            let mut pairs = vec![
                ("ruleId".into(), Value::Str(v.rule.into())),
                ("level".into(), Value::Str(level.into())),
                (
                    "message".into(),
                    Value::Obj(vec![("text".into(), Value::Str(v.message.clone()))]),
                ),
                (
                    "locations".into(),
                    Value::Arr(vec![Value::Obj(vec![(
                        "physicalLocation".into(),
                        Value::Obj(vec![
                            (
                                "artifactLocation".into(),
                                Value::Obj(vec![("uri".into(), Value::Str(v.file.clone()))]),
                            ),
                            (
                                "region".into(),
                                Value::Obj(vec![(
                                    "startLine".into(),
                                    Value::Num(v.line.max(1) as f64),
                                )]),
                            ),
                        ]),
                    )])]),
                ),
            ];
            if let Some(note) = note {
                pairs.push((
                    "suppressions".into(),
                    Value::Arr(vec![Value::Obj(vec![
                        ("kind".into(), Value::Str("external".into())),
                        ("justification".into(), Value::Str(note.into())),
                    ])]),
                ));
            }
            Value::Obj(pairs)
        };
        let rules = RULES
            .iter()
            .map(|m| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(m.name.into())),
                    (
                        "shortDescription".into(),
                        Value::Obj(vec![("text".into(), Value::Str(m.summary.into()))]),
                    ),
                    (
                        "properties".into(),
                        Value::Obj(vec![
                            ("family".into(), Value::Str(m.family.as_str().into())),
                            ("protects".into(), Value::Str(m.protects.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut results: Vec<Value> = self.new.iter().map(|v| result(v, "error", None)).collect();
        results.extend(self.baselined.iter().map(|(v, note)| result(v, "note", Some(note))));
        let driver = Value::Obj(vec![
            ("name".into(), Value::Str("audit-lint".into())),
            (
                "informationUri".into(),
                Value::Str("https://github.com/heteroprio/heteroprio".into()),
            ),
            ("rules".into(), Value::Arr(rules)),
        ]);
        Value::Obj(vec![
            (
                "$schema".into(),
                Value::Str(
                    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                        .into(),
                ),
            ),
            ("version".into(), Value::Str("2.1.0".into())),
            (
                "runs".into(),
                Value::Arr(vec![Value::Obj(vec![
                    ("tool".into(), Value::Obj(vec![("driver".into(), driver)])),
                    ("results".into(), Value::Arr(results)),
                ])]),
            ),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_trace::json;

    fn sample() -> LintReport {
        LintReport {
            new: vec![LintViolation {
                file: "crates/core/src/kernel.rs".into(),
                line: 7,
                rule: "slice-index",
                message: "bare indexing".into(),
            }],
            baselined: vec![(
                LintViolation {
                    file: "crates/core/src/queue.rs".into(),
                    line: 3,
                    rule: "slice-index",
                    message: "bare indexing".into(),
                },
                "burn down with .get()".into(),
            )],
            stale: vec!["stale baseline entry: x".into()],
        }
    }

    #[test]
    fn text_report_keeps_the_compiler_style_lines() {
        let text = sample().text();
        assert!(text.contains("crates/core/src/kernel.rs:7: [slice-index] bare indexing"));
        assert!(text.contains("stale baseline entry"));
        assert!(text.contains("1 new violation(s), 1 stale baseline entry"));
    }

    #[test]
    fn json_report_parses_and_tallies() {
        let doc = json::parse(&sample().json()).expect("valid json");
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("new").and_then(Value::as_i64), Some(1));
        assert_eq!(summary.get("baselined").and_then(Value::as_i64), Some(1));
        assert_eq!(summary.get("stale").and_then(Value::as_i64), Some(1));
        let rules = doc.get("rules").and_then(Value::as_arr).expect("rules");
        assert_eq!(rules.len(), RULES.len());
    }

    #[test]
    fn sarif_report_has_the_2_1_0_shape() {
        let doc = json::parse(&sample().sarif()).expect("valid json");
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
        assert_eq!(runs.len(), 1);
        let results = runs[0].get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("level").and_then(Value::as_str), Some("error"));
        assert!(results[0].get("suppressions").is_none());
        assert_eq!(results[1].get("level").and_then(Value::as_str), Some("note"));
        assert!(results[1].get("suppressions").is_some());
    }
}
