//! JSONL exporter: one JSON object per line, one line per event.
//!
//! The flat shape is meant for ad-hoc tooling (`jq`, pandas, grep); every
//! line carries a `"type"` tag matching [`SchedEvent::kind`].

use crate::json::{self, Value};
use crate::{Decision, QueueEnd, SchedEvent};

/// Render an event stream as line-delimited JSON.
pub fn jsonl(events: &[SchedEvent]) -> String {
    let mut out = Vec::new();
    for e in events {
        encode_into(e, &mut out);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("encode_into writes UTF-8")
}

/// Render a single event as its JSONL line (no trailing newline): the
/// bytes of [`encode_into`] as a `String`.
pub fn event_line(e: &SchedEvent) -> String {
    let mut out = Vec::with_capacity(96);
    encode_into(e, &mut out);
    String::from_utf8(out).expect("encode_into writes UTF-8")
}

/// Parse one JSONL line back into an event.
pub fn parse_event_line(text: &str) -> Result<SchedEvent, String> {
    let v = json::parse(text)?;
    parse_event(&v)
}

/// Append an event's JSONL line (no trailing newline) to `out`. This is
/// the export view (`--trace FILE.jsonl`, `heteroprio-cli export`) and
/// the payload of HPJL1 journals, and [`parse_event_line`] inverts it.
/// Floats print as `Display` does (shortest round-trip form, never an
/// exponent); ids and the fixed text are written directly, which keeps
/// the formatter off everything else.
pub fn encode_into(e: &SchedEvent, out: &mut Vec<u8>) {
    let mut line = Line::open(out, e.kind(), e.time());
    match *e {
        SchedEvent::TaskReady { task, .. } => line.id("task", task),
        SchedEvent::TaskStart { task, worker, expected_end, .. } => {
            line.id("task", task);
            line.id("worker", worker);
            line.num("expected_end", expected_end);
        }
        SchedEvent::TaskComplete { task, worker, .. } => {
            line.id("task", task);
            line.id("worker", worker);
        }
        SchedEvent::Spoliation { task, victim, thief, wasted_work, .. } => {
            line.id("task", task);
            line.id("victim", victim);
            line.id("thief", thief);
            line.num("wasted_work", wasted_work);
        }
        SchedEvent::WorkerIdleBegin { worker, .. }
        | SchedEvent::WorkerIdleEnd { worker, .. }
        | SchedEvent::WorkerUp { worker, .. } => line.id("worker", worker),
        SchedEvent::QueuePop { task, worker, end, .. } => {
            line.id("task", task);
            line.id("worker", worker);
            line.text(
                "end",
                match end {
                    QueueEnd::Front => "front",
                    QueueEnd::Back => "back",
                },
            );
        }
        SchedEvent::PolicyDecision { worker, decision, .. } => {
            line.id("worker", worker);
            let (verdict, target) = match decision {
                Decision::Pick(t) => ("pick", Some(t)),
                Decision::Spoliate(v) => ("spoliate", Some(v)),
                Decision::Idle => ("idle", None),
            };
            line.text("decision", verdict);
            if let Some(t) = target {
                line.id("target", t);
            }
        }
        SchedEvent::WorkerDown { worker, lost_task, permanent, .. } => {
            line.id("worker", worker);
            if let Some(t) = lost_task {
                line.id("lost_task", t);
            }
            line.key("permanent");
            line.0.extend_from_slice(if permanent { b"true" } else { b"false" });
        }
        SchedEvent::TaskFailed { task, worker, lost_work, attempt, .. } => {
            line.id("task", task);
            line.id("worker", worker);
            line.num("lost_work", lost_work);
            line.id("attempt", attempt);
        }
        SchedEvent::TaskRetry { task, attempt, delay, .. } => {
            line.id("task", task);
            line.id("attempt", attempt);
            line.num("delay", delay);
        }
    }
    line.0.push(b'}');
}

/// One JSONL object being appended to a byte buffer, field by field.
struct Line<'a>(&'a mut Vec<u8>);

impl<'a> Line<'a> {
    /// `{"type":"<kind>","time":<time>`
    fn open(out: &'a mut Vec<u8>, kind: &str, time: f64) -> Self {
        out.extend_from_slice(b"{\"type\":\"");
        out.extend_from_slice(kind.as_bytes());
        out.push(b'"');
        let mut line = Line(out);
        line.num("time", time);
        line
    }

    /// `,"<name>":`
    fn key(&mut self, name: &str) {
        self.0.extend_from_slice(b",\"");
        self.0.extend_from_slice(name.as_bytes());
        self.0.extend_from_slice(b"\":");
    }

    fn num(&mut self, name: &str, value: f64) {
        use std::fmt::Write;
        self.key(name);
        write!(self, "{value}").expect("writing to a Vec cannot fail");
    }

    fn id(&mut self, name: &str, value: u32) {
        self.key(name);
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut rest = value;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[at..]);
    }

    fn text(&mut self, name: &str, value: &str) {
        self.key(name);
        self.0.push(b'"');
        self.0.extend_from_slice(value.as_bytes());
        self.0.push(b'"');
    }
}

impl std::fmt::Write for Line<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A malformed line in a JSONL trace. Carries everything salvaged before
/// the damage: a crashed writer typically leaves a truncated final line, and
/// callers that can tolerate that (journal recovery, post-mortem tooling)
/// take [`parsed`](JsonlError::parsed) instead of rejecting the whole file.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonlError {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// Byte offset of the start of that line within the input.
    pub byte_offset: usize,
    /// What was wrong with it.
    pub message: String,
    /// Every event successfully parsed before the malformed line.
    pub parsed: Vec<SchedEvent>,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {} (byte {}): {} ({} events parsed before the damage)",
            self.line,
            self.byte_offset,
            self.message,
            self.parsed.len()
        )
    }
}

impl std::error::Error for JsonlError {}

impl From<JsonlError> for String {
    fn from(e: JsonlError) -> String {
        e.to_string()
    }
}

/// Parse a JSONL trace produced by [`jsonl`] back into typed events.
///
/// Blank lines are skipped; the first malformed line aborts with a
/// [`JsonlError`] naming the 1-based line number and byte offset — and
/// carrying the prefix parsed so far, so a trace with only a truncated
/// final line (common after a crash) is still recoverable. This is the
/// ingestion path for `audit --trace`.
pub fn parse_jsonl(text: &str) -> Result<Vec<SchedEvent>, JsonlError> {
    let mut events = Vec::new();
    let mut offset = 0;
    for (idx, line) in text.lines().enumerate() {
        let line_start = offset;
        // `lines()` strips "\n" and "\r\n"; track offsets from the source.
        offset += line.len();
        if text[offset..].starts_with("\r\n") {
            offset += 2;
        } else if text[offset..].starts_with('\n') {
            offset += 1;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String, parsed: Vec<SchedEvent>| JsonlError {
            line: idx + 1,
            byte_offset: line_start,
            message,
            parsed,
        };
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return Err(fail(e, events)),
        };
        match parse_event(&v) {
            Ok(e) => events.push(e),
            Err(e) => return Err(fail(e, events)),
        }
    }
    Ok(events)
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing number field {key:?}"))
}

fn field_id(v: &Value, key: &str) -> Result<u32, String> {
    let x = field_f64(v, key)?;
    // lint: allow(float-eq): fract() is exactly 0.0 for integral values, no rounding involved.
    if x.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&x) {
        return Err(format!("field {key:?} is not a valid id: {x}"));
    }
    // lint: allow(cast-trunc): fract()==0 and range-checked above, exact conversion.
    Ok(x as u32)
}

fn parse_event(v: &Value) -> Result<SchedEvent, String> {
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"type\"".to_string())?;
    let time = field_f64(v, "time")?;
    if !time.is_finite() {
        return Err(format!("non-finite time {time}"));
    }
    Ok(match kind {
        "task_ready" => SchedEvent::TaskReady { time, task: field_id(v, "task")? },
        "task_start" => SchedEvent::TaskStart {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            expected_end: field_f64(v, "expected_end")?,
        },
        "task_complete" => SchedEvent::TaskComplete {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
        },
        "spoliation" => SchedEvent::Spoliation {
            time,
            task: field_id(v, "task")?,
            victim: field_id(v, "victim")?,
            thief: field_id(v, "thief")?,
            wasted_work: field_f64(v, "wasted_work")?,
        },
        "worker_idle_begin" => SchedEvent::WorkerIdleBegin { time, worker: field_id(v, "worker")? },
        "worker_idle_end" => SchedEvent::WorkerIdleEnd { time, worker: field_id(v, "worker")? },
        "queue_pop" => SchedEvent::QueuePop {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            end: match v.get("end").and_then(Value::as_str) {
                Some("front") => QueueEnd::Front,
                Some("back") => QueueEnd::Back,
                other => return Err(format!("bad queue end {other:?}")),
            },
        },
        "policy_decision" => SchedEvent::PolicyDecision {
            time,
            worker: field_id(v, "worker")?,
            decision: match v.get("decision").and_then(Value::as_str) {
                Some("pick") => Decision::Pick(field_id(v, "target")?),
                Some("spoliate") => Decision::Spoliate(field_id(v, "target")?),
                Some("idle") => Decision::Idle,
                other => return Err(format!("bad decision {other:?}")),
            },
        },
        "worker_down" => SchedEvent::WorkerDown {
            time,
            worker: field_id(v, "worker")?,
            lost_task: match v.get("lost_task") {
                Some(_) => Some(field_id(v, "lost_task")?),
                None => None,
            },
            permanent: v
                .get("permanent")
                .and_then(Value::as_bool)
                .ok_or("missing bool field \"permanent\"")?,
        },
        "worker_up" => SchedEvent::WorkerUp { time, worker: field_id(v, "worker")? },
        "task_failed" => SchedEvent::TaskFailed {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            lost_work: field_f64(v, "lost_work")?,
            attempt: field_id(v, "attempt")?,
        },
        "task_retry" => SchedEvent::TaskRetry {
            time,
            task: field_id(v, "task")?,
            attempt: field_id(v, "attempt")?,
            delay: field_f64(v, "delay")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::every_shape;
    use crate::json;

    #[test]
    fn every_line_parses_and_is_tagged() {
        let events = [
            SchedEvent::TaskReady { time: 0.0, task: 3 },
            SchedEvent::QueuePop { time: 0.0, task: 3, worker: 2, end: QueueEnd::Front },
            SchedEvent::PolicyDecision { time: 0.0, worker: 2, decision: Decision::Pick(3) },
            SchedEvent::TaskStart { time: 0.0, task: 3, worker: 2, expected_end: 1.5 },
            SchedEvent::PolicyDecision { time: 0.5, worker: 0, decision: Decision::Idle },
            SchedEvent::WorkerIdleBegin { time: 0.5, worker: 0 },
            SchedEvent::Spoliation { time: 1.0, task: 3, victim: 2, thief: 0, wasted_work: 1.0 },
            SchedEvent::WorkerIdleEnd { time: 1.0, worker: 0 },
            SchedEvent::TaskComplete { time: 1.25, task: 3, worker: 0 },
            SchedEvent::TaskFailed { time: 1.5, task: 4, worker: 2, lost_work: 0.5, attempt: 1 },
            SchedEvent::TaskRetry { time: 1.5, task: 4, attempt: 1, delay: 0.25 },
            SchedEvent::WorkerDown { time: 2.0, worker: 2, lost_task: None, permanent: true },
            SchedEvent::WorkerDown { time: 2.0, worker: 1, lost_task: Some(5), permanent: false },
            SchedEvent::WorkerUp { time: 3.0, worker: 1 },
        ];
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let v = json::parse(line).expect("line parses");
            assert_eq!(v.get("type").unwrap().as_str(), Some(event.kind()));
            assert_eq!(v.get("time").unwrap().as_f64(), Some(event.time()));
        }
        // And the parser inverts the exporter exactly.
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"type\":\"task_ready\",\"time\":0.0}")
            .unwrap_err()
            .to_string()
            .contains("task"));
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"type\":\"nope\",\"time\":0.0}")
            .unwrap_err()
            .to_string()
            .contains("nope"));
        assert!(parse_jsonl("{\"type\":\"task_ready\",\"time\":0.0,\"task\":1.5}").is_err());
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn truncated_final_line_salvages_the_prefix() {
        let events = [
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 2.0 },
            SchedEvent::TaskComplete { time: 2.0, task: 0, worker: 1 },
        ];
        let full = jsonl(&events);
        // Simulate a crash mid-write: chop the last line in half.
        let cut = full.len() - 14;
        let damaged = &full[..cut];
        let err = parse_jsonl(damaged).unwrap_err();
        assert_eq!(err.parsed, events[..2].to_vec());
        assert_eq!(err.line, 3);
        let line3_start = full.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        assert_eq!(err.byte_offset, line3_start);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    /// Reference encoder: one `format!` per variant, the wire format as it
    /// was first defined. `encode_into` must write the same bytes.
    fn format_line(e: &SchedEvent) -> String {
        let kind = e.kind();
        match *e {
            SchedEvent::TaskReady { time, task } => {
                format!(r#"{{"type":"{kind}","time":{time},"task":{task}}}"#)
            }
            SchedEvent::TaskStart { time, task, worker, expected_end } => format!(
                r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"expected_end":{expected_end}}}"#
            ),
            SchedEvent::TaskComplete { time, task, worker } => {
                format!(r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker}}}"#)
            }
            SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => format!(
                r#"{{"type":"{kind}","time":{time},"task":{task},"victim":{victim},"thief":{thief},"wasted_work":{wasted_work}}}"#
            ),
            SchedEvent::WorkerIdleBegin { time, worker }
            | SchedEvent::WorkerIdleEnd { time, worker } => {
                format!(r#"{{"type":"{kind}","time":{time},"worker":{worker}}}"#)
            }
            SchedEvent::QueuePop { time, task, worker, end } => {
                let end = match end {
                    QueueEnd::Front => "front",
                    QueueEnd::Back => "back",
                };
                format!(
                    r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"end":"{end}"}}"#
                )
            }
            SchedEvent::PolicyDecision { time, worker, decision } => {
                let (verdict, target) = match decision {
                    Decision::Pick(t) => ("pick", Some(t)),
                    Decision::Spoliate(v) => ("spoliate", Some(v)),
                    Decision::Idle => ("idle", None),
                };
                match target {
                    Some(t) => format!(
                        r#"{{"type":"{kind}","time":{time},"worker":{worker},"decision":"{verdict}","target":{t}}}"#
                    ),
                    None => format!(
                        r#"{{"type":"{kind}","time":{time},"worker":{worker},"decision":"{verdict}"}}"#
                    ),
                }
            }
            SchedEvent::WorkerDown { time, worker, lost_task, permanent } => match lost_task {
                Some(t) => format!(
                    r#"{{"type":"{kind}","time":{time},"worker":{worker},"lost_task":{t},"permanent":{permanent}}}"#
                ),
                None => format!(
                    r#"{{"type":"{kind}","time":{time},"worker":{worker},"permanent":{permanent}}}"#
                ),
            },
            SchedEvent::WorkerUp { time, worker } => {
                format!(r#"{{"type":"{kind}","time":{time},"worker":{worker}}}"#)
            }
            SchedEvent::TaskFailed { time, task, worker, lost_work, attempt } => format!(
                r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"lost_work":{lost_work},"attempt":{attempt}}}"#
            ),
            SchedEvent::TaskRetry { time, task, attempt, delay } => format!(
                r#"{{"type":"{kind}","time":{time},"task":{task},"attempt":{attempt},"delay":{delay}}}"#
            ),
        }
    }

    #[test]
    fn encode_into_writes_the_format_bytes() {
        let floats = [0.0, -0.0, 5e-324, 0.1 + 0.2, 1e21, 1e300, 1.5, -2.75, 123456.789];
        let ids = [0, 7, 10, 99_999, u32::MAX];
        let mut buf = b"prefix ".to_vec();
        for x in floats {
            for id in ids {
                for e in every_shape(x, x, id) {
                    let want = format_line(&e);
                    assert_eq!(event_line(&e), want);
                    // Appends after what the buffer already holds.
                    buf.truncate(7);
                    encode_into(&e, &mut buf);
                    assert_eq!(&buf[7..], want.as_bytes());
                    assert_eq!(&buf[..7], b"prefix ");
                }
            }
        }
        // Mixed values within one line, as real events carry them.
        let e = SchedEvent::TaskStart {
            time: 0.1 + 0.2,
            task: 3,
            worker: u32::MAX,
            expected_end: -0.0,
        };
        assert_eq!(event_line(&e), format_line(&e));
    }

    #[test]
    fn single_event_line_round_trips() {
        let e =
            SchedEvent::Spoliation { time: 1.5, task: 7, victim: 0, thief: 3, wasted_work: 0.5 };
        assert_eq!(parse_event_line(&event_line(&e)).unwrap(), e);
        assert!(parse_event_line("{\"type\":").is_err());
    }
}
