//! Chrome `trace_event` exporter.
//!
//! Produces the JSON object format understood by Perfetto
//! (<https://ui.perfetto.dev>) and chrome://tracing: one track (`tid`) per
//! worker, one complete (`"ph":"X"`) slice per task run — category
//! `"aborted"` for the spoliated portion of a run, `"failed"` and `"lost"`
//! for attempts cut short by a task failure or a worker death (runs are
//! paired by [`OpenRuns`]) — and one instant (`"ph":"i"`) marker per
//! spoliation, failure and worker transition.
//!
//! Simulated time is unitless; the exporter maps 1 simulated time unit to
//! 1 ms (Chrome `ts`/`dur` are in µs), which puts the paper's Table-1
//! millisecond kernel timings on a natural scale.

use crate::json::escape;
use crate::{OpenRuns, RunOutcome, SchedEvent};

/// Naming for tracks and slices. Ids beyond the provided names fall back
/// to `worker N` / `TN`.
#[derive(Clone, Debug, Default)]
pub struct ChromeTraceOptions {
    /// Track name per worker id (e.g. `CPU 0`, `GPU 1`).
    pub worker_names: Vec<String>,
    /// Slice name per task id (e.g. DAG node labels like `potrf[2]`).
    pub task_names: Vec<String>,
}

impl ChromeTraceOptions {
    fn worker_name(&self, w: u32) -> String {
        self.worker_names.get(w as usize).cloned().unwrap_or_else(|| format!("worker {w}"))
    }

    fn task_name(&self, t: u32) -> String {
        self.task_names.get(t as usize).cloned().unwrap_or_else(|| format!("T{t}"))
    }
}

const US_PER_UNIT: f64 = 1000.0; // 1 simulated unit = 1 ms = 1000 µs

/// Render an event stream as a Chrome trace JSON document.
pub fn chrome_trace(events: &[SchedEvent], opts: &ChromeTraceOptions) -> String {
    let mut workers: Vec<u32> = events
        .iter()
        .filter_map(|e| match *e {
            SchedEvent::TaskStart { worker, .. }
            | SchedEvent::TaskComplete { worker, .. }
            | SchedEvent::WorkerIdleBegin { worker, .. }
            | SchedEvent::WorkerIdleEnd { worker, .. }
            | SchedEvent::WorkerDown { worker, .. }
            | SchedEvent::WorkerUp { worker, .. }
            | SchedEvent::TaskFailed { worker, .. } => Some(worker),
            SchedEvent::Spoliation { victim, .. } => Some(victim),
            _ => None,
        })
        .collect();
    workers.extend(0..opts.worker_names.len() as u32);
    workers.sort_unstable();
    workers.dedup();

    let mut entries: Vec<String> = Vec::new();
    for &w in &workers {
        entries.push(format!(
            r#"{{"ph":"M","pid":1,"tid":{w},"name":"thread_name","args":{{"name":"{}"}}}}"#,
            escape(&opts.worker_name(w))
        ));
        entries.push(format!(
            r#"{{"ph":"M","pid":1,"tid":{w},"name":"thread_sort_index","args":{{"sort_index":{w}}}}}"#
        ));
    }

    let mut open = OpenRuns::new();
    for e in events {
        if let Some(run) = open.step(e) {
            let (suffix, cat) = match run.outcome {
                RunOutcome::Completed => ("", "task"),
                RunOutcome::Spoliated => (" (aborted)", "aborted"),
                RunOutcome::Failed => (" (failed)", "failed"),
                RunOutcome::Lost => (" (lost)", "lost"),
            };
            entries.push(complete_slice(
                &format!("{}{suffix}", opts.task_name(run.task)),
                run.worker,
                run.start,
                run.end,
                cat,
                run.task,
            ));
        }
        match *e {
            SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => {
                entries.push(format!(
                    concat!(
                        r#"{{"ph":"i","pid":1,"tid":{victim},"ts":{ts},"s":"t","#,
                        r#""name":"spoliation {task}","cat":"spoliation","#,
                        r#""args":{{"task":{id},"victim":{victim},"thief":{thief},"wasted_work":{waste}}}}}"#
                    ),
                    victim = victim,
                    ts = time * US_PER_UNIT,
                    task = escape(&opts.task_name(task)),
                    id = task,
                    thief = thief,
                    waste = wasted_work,
                ));
            }
            SchedEvent::TaskFailed { time, task, worker, lost_work, attempt } => {
                entries.push(format!(
                    concat!(
                        r#"{{"ph":"i","pid":1,"tid":{worker},"ts":{ts},"s":"t","#,
                        r#""name":"failure {task}","cat":"task_failed","#,
                        r#""args":{{"task":{id},"lost_work":{lost},"attempt":{attempt}}}}}"#
                    ),
                    worker = worker,
                    ts = time * US_PER_UNIT,
                    task = escape(&opts.task_name(task)),
                    id = task,
                    lost = lost_work,
                    attempt = attempt,
                ));
            }
            SchedEvent::WorkerDown { time, worker, permanent, .. } => {
                entries.push(format!(
                    concat!(
                        r#"{{"ph":"i","pid":1,"tid":{worker},"ts":{ts},"s":"t","#,
                        r#""name":"worker down","cat":"worker_down","#,
                        r#""args":{{"permanent":{permanent}}}}}"#
                    ),
                    worker = worker,
                    ts = time * US_PER_UNIT,
                    permanent = permanent,
                ));
            }
            SchedEvent::WorkerUp { time, worker } => {
                entries.push(format!(
                    concat!(
                        r#"{{"ph":"i","pid":1,"tid":{worker},"ts":{ts},"s":"t","#,
                        r#""name":"worker up","cat":"worker_up","args":{{}}}}"#
                    ),
                    worker = worker,
                    ts = time * US_PER_UNIT,
                ));
            }
            _ => {}
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn complete_slice(name: &str, worker: u32, start: f64, end: f64, cat: &str, task: u32) -> String {
    format!(
        concat!(
            r#"{{"ph":"X","pid":1,"tid":{tid},"ts":{ts},"dur":{dur},"#,
            r#""name":"{name}","cat":"{cat}","args":{{"task":{task}}}}}"#
        ),
        tid = worker,
        ts = start * US_PER_UNIT,
        dur = (end - start) * US_PER_UNIT,
        name = escape(name),
        cat = cat,
        task = task,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn exports_valid_json_with_expected_shapes() {
        let events = [
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 0, expected_end: 2.0 },
            SchedEvent::Spoliation { time: 1.0, task: 0, victim: 0, thief: 1, wasted_work: 1.0 },
            SchedEvent::TaskStart { time: 1.0, task: 0, worker: 1, expected_end: 1.5 },
            SchedEvent::TaskComplete { time: 1.5, task: 0, worker: 1 },
        ];
        let opts = ChromeTraceOptions {
            worker_names: vec!["CPU 0".into(), "GPU \"zero\"".into()],
            task_names: vec!["potrf[0]".into()],
        };
        let doc = chrome_trace(&events, &opts);
        let v = json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |tag: &str| {
            evs.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(tag)).count()
        };
        assert_eq!(ph("X"), 2, "one aborted + one completed slice");
        assert_eq!(ph("i"), 1, "one spoliation instant");
        assert_eq!(ph("M"), 4, "name + sort_index per worker");
        // The completed slice carries the task label and correct µs times.
        let complete = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("cat").and_then(|c| c.as_str()) == Some("task")
            })
            .unwrap();
        assert_eq!(complete.get("name").unwrap().as_str(), Some("potrf[0]"));
        assert_eq!(complete.get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(complete.get("dur").unwrap().as_f64(), Some(500.0));
    }
}
