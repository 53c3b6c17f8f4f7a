//! The plain-text instance format of the CLI.
//!
//! One task per non-empty line: one execution time per resource class
//! followed by an optional priority, whitespace-separated; `#` starts a
//! comment. Times must be positive. The classic two-class form is
//! `<cpu_time> <gpu_time> [priority]`; under `--platform` with `k`
//! classes a line carries `k` times in class order.
//!
//! ```text
//! # four tasks
//! 28.8 1.0      # a GEMM-like task
//! 8.72 1.0 5
//! 1.72 1.0
//! 1.0  3.0
//! ```

use heteroprio_core::{Instance, Task};
use std::fmt::Write as _;

/// A parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The column label used in error messages for class `c` of `k`.
fn time_label(c: usize, k: usize) -> String {
    if k == 2 {
        [String::from("cpu time"), String::from("gpu time")][c].clone()
    } else {
        format!("class {c} time")
    }
}

/// Parse an instance in the classic two-class format.
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    parse_instance_k(text, 2)
}

/// Parse an instance whose lines carry `k` per-class times (plus an
/// optional trailing priority) — the `--platform` form of the format.
pub fn parse_instance_k(text: &str, k: usize) -> Result<Instance, ParseError> {
    assert!(k >= 2, "instances need at least two resource classes");
    let mut instance = Instance::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        if fields.len() < k || fields.len() > k + 1 {
            let shape = if k == 2 {
                "cpu gpu [priority]".to_string()
            } else {
                format!("{k} times [priority]")
            };
            return Err(ParseError {
                line,
                message: format!("expected `{shape}`, found {} field(s)", fields.len()),
            });
        }
        let parse = |s: &str, what: &str| -> Result<f64, ParseError> {
            s.parse::<f64>()
                .map_err(|e| ParseError { line, message: format!("bad {what} `{s}`: {e}") })
        };
        let mut times = Vec::with_capacity(k);
        for (c, field) in fields.iter().take(k).enumerate() {
            let t = parse(field, &time_label(c, k))?;
            if !(t > 0.0 && t.is_finite()) {
                return Err(ParseError {
                    line,
                    message: "times must be positive and finite".to_string(),
                });
            }
            times.push(t);
        }
        // Each time is valid alone, but their ratio may still overflow
        // (`5e-324 1`): the model rejects such a row with a typed error.
        let mut task = Task::try_from_times(&times)
            .map_err(|e| ParseError { line, message: e.to_string() })?;
        if let Some(p) = fields.get(k) {
            task = task
                .try_with_priority(parse(p, "priority")?)
                .map_err(|e| ParseError { line, message: e.to_string() })?;
        }
        instance.push(task);
    }
    Ok(instance)
}

/// Serialize an instance back to the text format (`k` times per line).
pub fn serialize_instance(instance: &Instance) -> String {
    let mut out = if instance.k() == 2 {
        String::from("# cpu_time gpu_time [priority]\n")
    } else {
        format!("# {} per-class times [priority]\n", instance.k())
    };
    for t in instance.tasks() {
        for (c, time) in t.times().iter().enumerate() {
            if c > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{time}");
        }
        // lint: allow(float-eq): exact sentinel — 0.0 is the "no explicit priority" default,
        // set literally and round-tripped exactly through the text format.
        if t.priority != 0.0 {
            let _ = write!(out, " {}", t.priority);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::TaskId;

    #[test]
    fn parses_basic_file() {
        let inst = parse_instance("1.0 2.0\n3.0 4.0 7.5\n").unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.task(TaskId(1)).priority, 7.5);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let inst = parse_instance("# header\n\n1 1 # trailing\n   \n2 2\n").unwrap();
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = parse_instance("1.0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("field"));
    }

    #[test]
    fn rejects_non_numeric() {
        let err = parse_instance("1.0 abc\n").unwrap_err();
        assert!(err.message.contains("gpu time"));
    }

    #[test]
    fn rejects_non_positive_times() {
        assert!(parse_instance("0 1\n").is_err());
        assert!(parse_instance("1 -2\n").is_err());
    }

    #[test]
    fn rejects_an_overflowing_time_ratio_with_its_line() {
        for row in ["5e-324 1", "1 1e-320", "1 1 1e-320"] {
            let k = row.split_whitespace().count();
            let first = vec!["2"; k].join(" ");
            let err = parse_instance_k(&format!("{first}\n{row}\n"), k).unwrap_err();
            assert_eq!(err.line, 2, "{row}");
            assert!(err.message.contains("positive and finite"), "{row}: {}", err.message);
        }
    }

    #[test]
    fn rejects_a_non_finite_priority_with_its_line() {
        for row in ["1 2 nan", "2 1 inf", "2 1 -inf", "1 1 1 NaN"] {
            let k = row.split_whitespace().count() - 1;
            let first = vec!["2"; k].join(" ");
            let err = parse_instance_k(&format!("{first}\n{row}\n"), k).unwrap_err();
            assert_eq!(err.line, 2, "{row}");
            assert!(err.message.contains("priority must be finite"), "{row}: {}", err.message);
        }
    }

    #[test]
    fn roundtrips() {
        let text = "1.5 2.5\n3 4 9\n";
        let inst = parse_instance(text).unwrap();
        let back = serialize_instance(&inst);
        let again = parse_instance(&back).unwrap();
        assert_eq!(inst, again);
    }

    #[test]
    fn three_class_lines_parse_and_roundtrip() {
        let inst = parse_instance_k("9 3 1\n4 4 4 2.5\n", 3).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.k(), 3);
        assert_eq!(inst.task(TaskId(0)).times(), &[9.0, 3.0, 1.0]);
        assert_eq!(inst.task(TaskId(1)).priority, 2.5);
        let back = serialize_instance(&inst);
        assert_eq!(parse_instance_k(&back, 3).unwrap(), inst);
    }

    #[test]
    fn three_class_errors_name_the_class_column() {
        let err = parse_instance_k("1 2 oops\n", 3).unwrap_err();
        assert!(err.message.contains("class 2 time"), "{}", err.message);
        let err = parse_instance_k("1 2\n", 3).unwrap_err();
        assert!(err.message.contains("3 times"), "{}", err.message);
    }

    #[test]
    fn reports_correct_line_numbers() {
        let err = parse_instance("1 1\n# ok\nbroken\n").unwrap_err();
        assert_eq!(err.line, 3);
    }
}
