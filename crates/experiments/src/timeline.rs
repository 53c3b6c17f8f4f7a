//! Time-resolved schedule analysis: worker-utilization and ready-queue
//! profiles, and compact ASCII sparklines for the harness binaries. This
//! makes the Figure 9 story visible *over time*: DualHP's CPUs idle at the
//! start of the schedule, HeteroPrio's don't.
//!
//! Profiles come in two flavours: the `*_from_events` functions consume the
//! scheduler's live [`SchedEvent`] stream (the preferred path — the
//! ready-queue depth there is the scheduler's actual queue, not a
//! reconstruction), while the schedule-based functions remain for plain
//! [`Schedule`] values with no trace attached.

use heteroprio_core::time::F64Ord;
use heteroprio_core::{Platform, ResourceKind, Schedule, WorkerId};
use heteroprio_taskgraph::TaskGraph;
use heteroprio_trace::{SchedEvent, TraceSummary};

/// Piecewise-constant profile sampled at `samples` uniform points over
/// `[0, makespan]`.
#[derive(Clone, Debug)]
pub struct Profile {
    pub times: Vec<f64>,
    pub values: Vec<f64>,
}

impl Profile {
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Render as a one-line unicode sparkline.
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.max().max(1e-12);
        self.values
            .iter()
            .map(|&v| {
                // lint: allow(cast-trunc): sparkline bucket index — quantization is the point,
                // and the result is clamped to the bar range below.
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            })
            .collect()
    }
}

/// Fraction of a class's workers busy (with completed *or* aborted work) at
/// each sample instant.
pub fn utilization_profile(
    schedule: &Schedule,
    platform: &Platform,
    kind: ResourceKind,
    samples: usize,
) -> Profile {
    assert!(samples >= 1);
    let horizon = schedule.makespan().max(1e-12);
    let count = platform.count(kind) as f64;
    let times: Vec<f64> =
        (0..samples).map(|i| horizon * (i as f64 + 0.5) / samples as f64).collect();
    let values = times
        .iter()
        .map(|&t| {
            let busy = schedule
                .runs
                .iter()
                .chain(&schedule.aborted)
                .filter(|r| platform.kind_of(r.worker) == kind && r.start <= t && t < r.end)
                .count();
            busy as f64 / count
        })
        .collect();
    Profile { times, values }
}

/// Number of *ready* tasks (all predecessors complete, not yet started) at
/// each sample instant, reconstructed from the schedule and the graph.
pub fn ready_profile(schedule: &Schedule, graph: &TaskGraph, samples: usize) -> Profile {
    assert!(samples >= 1);
    let horizon = schedule.makespan().max(1e-12);
    let mut start_of = vec![f64::INFINITY; graph.len()];
    let mut end_of = vec![f64::INFINITY; graph.len()];
    // A spoliated task becomes "started" at its first (aborted) attempt.
    for r in schedule.runs.iter().chain(&schedule.aborted) {
        let i = r.task.index();
        start_of[i] = start_of[i].min(r.start);
    }
    for r in &schedule.runs {
        end_of[r.task.index()] = r.end;
    }
    let ready_at = |i: usize| -> f64 {
        graph
            .predecessors(heteroprio_core::TaskId(i as u32))
            .iter()
            .map(|p| end_of[p.index()])
            .fold(0.0, f64::max)
    };
    let intervals: Vec<(f64, f64)> = (0..graph.len()).map(|i| (ready_at(i), start_of[i])).collect();
    let times: Vec<f64> =
        (0..samples).map(|i| horizon * (i as f64 + 0.5) / samples as f64).collect();
    let values = times
        .iter()
        .map(|&t| intervals.iter().filter(|&&(r, s)| r <= t && t < s).count() as f64)
        .collect();
    Profile { times, values }
}

/// [`utilization_profile`] computed from an event stream: a worker counts
/// as busy between `TaskStart` and the matching `TaskComplete` or
/// `Spoliation` (aborted work is still occupied time).
pub fn utilization_profile_from_events(
    events: &[SchedEvent],
    platform: &Platform,
    kind: ResourceKind,
    samples: usize,
) -> Profile {
    assert!(samples >= 1);
    let mut open: Vec<Option<f64>> = vec![None; platform.workers()];
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    let mut horizon = 0.0f64;
    for e in events {
        horizon = horizon.max(e.time());
        let (worker, time, is_start) = match *e {
            SchedEvent::TaskStart { time, worker, .. } => (worker, time, true),
            SchedEvent::TaskComplete { time, worker, .. } => (worker, time, false),
            SchedEvent::Spoliation { time, victim, .. } => (victim, time, false),
            _ => continue,
        };
        let w = worker as usize;
        if is_start {
            open[w] = Some(time);
        } else if let Some(start) = open[w].take() {
            if platform.kind_of(WorkerId(worker)) == kind {
                intervals.push((start, time));
            }
        }
    }
    let horizon = horizon.max(1e-12);
    let count = platform.count(kind) as f64;
    let times: Vec<f64> =
        (0..samples).map(|i| horizon * (i as f64 + 0.5) / samples as f64).collect();
    let values = times
        .iter()
        .map(|&t| intervals.iter().filter(|&&(s, e)| s <= t && t < e).count() as f64 / count)
        .collect();
    Profile { times, values }
}

/// Ready-queue depth over time from an event stream — the scheduler's own
/// queue, not a reconstruction (cf. [`ready_profile`]).
pub fn ready_profile_from_events(events: &[SchedEvent], samples: usize) -> Profile {
    assert!(samples >= 1);
    let summary = TraceSummary::from_events(0, events);
    let horizon = summary.makespan().max(1e-12);
    let steps = &summary.ready_depth;
    let times: Vec<f64> =
        (0..samples).map(|i| horizon * (i as f64 + 0.5) / samples as f64).collect();
    let values = times
        .iter()
        .map(|&t| match steps.partition_point(|&(st, _)| st <= t) {
            0 => 0.0,
            i => steps[i - 1].1 as f64,
        })
        .collect();
    Profile { times, values }
}

/// The instant by which a class first reaches a sustained utilization of at
/// least `threshold` (the "ramp-up time"); `None` if it never does.
pub fn ramp_up_time(
    schedule: &Schedule,
    platform: &Platform,
    kind: ResourceKind,
    threshold: f64,
) -> Option<f64> {
    let mut events: Vec<(F64Ord, i64)> = Vec::new();
    for r in schedule.runs.iter().chain(&schedule.aborted) {
        if platform.kind_of(r.worker) == kind {
            events.push((F64Ord::new(r.start), 1));
            events.push((F64Ord::new(r.end), -1));
        }
    }
    events.sort();
    // lint: allow(cast-trunc): worker-count threshold — ceil() of a value bounded by the
    // (small, integral) worker count, so the cast is exact.
    let needed = (threshold * platform.count(kind) as f64).ceil() as i64;
    let mut busy = 0i64;
    for (F64Ord(t), delta) in events {
        busy += delta;
        if busy >= needed {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::{Instance, TaskId, TaskRun, WorkerId};

    fn two_phase_schedule() -> (Schedule, Platform) {
        // CPU idle for the first half, busy the second; GPU busy throughout.
        let plat = Platform::new(1, 1);
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 0.0, end: 10.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 5.0, end: 10.0 },
            ],
            aborted: vec![],
        };
        (sched, plat)
    }

    #[test]
    fn utilization_profile_matches_structure() {
        let (sched, plat) = two_phase_schedule();
        let cpu = utilization_profile(&sched, &plat, ResourceKind::Cpu, 10);
        let gpu = utilization_profile(&sched, &plat, ResourceKind::Gpu, 10);
        assert_eq!(cpu.values[0], 0.0);
        assert_eq!(cpu.values[9], 1.0);
        assert!(gpu.values.iter().all(|&v| v == 1.0));
        assert!((cpu.mean() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ramp_up_detects_the_late_start() {
        let (sched, plat) = two_phase_schedule();
        assert_eq!(ramp_up_time(&sched, &plat, ResourceKind::Cpu, 1.0), Some(5.0));
        assert_eq!(ramp_up_time(&sched, &plat, ResourceKind::Gpu, 1.0), Some(0.0));
    }

    #[test]
    fn sparkline_has_one_char_per_sample() {
        let (sched, plat) = two_phase_schedule();
        let cpu = utilization_profile(&sched, &plat, ResourceKind::Cpu, 24);
        let line = cpu.sparkline();
        assert_eq!(line.chars().count(), 24);
    }

    #[test]
    fn event_profile_matches_schedule_profile() {
        use crate::{trace_dag, Scheduler};
        use heteroprio_taskgraph::WeightScheme;
        use heteroprio_taskgraph::{cholesky, ConstTiming};
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        let mut sink = heteroprio_trace::VecSink::new();
        let sched = trace_dag(Scheduler::HeteroPrio(WeightScheme::Min), &g, &plat, &mut sink);
        let events = sink.into_events();
        for kind in ResourceKind::BOTH {
            let from_sched = utilization_profile(&sched, &plat, kind, 16);
            let from_events = utilization_profile_from_events(&events, &plat, kind, 16);
            for (a, b) in from_sched.values.iter().zip(&from_events.values) {
                assert!((a - b).abs() < 1e-9, "{kind}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ready_profile_from_events_sees_the_queue() {
        use heteroprio_trace::SchedEvent as E;
        // Two tasks ready at 0; one starts at 0, the other at 2; horizon 4.
        let events = [
            E::TaskReady { time: 0.0, task: 0 },
            E::TaskReady { time: 0.0, task: 1 },
            E::TaskStart { time: 0.0, task: 0, worker: 0, expected_end: 4.0 },
            E::TaskStart { time: 2.0, task: 1, worker: 1, expected_end: 4.0 },
            E::TaskComplete { time: 4.0, task: 0, worker: 0 },
            E::TaskComplete { time: 4.0, task: 1, worker: 1 },
        ];
        let p = ready_profile_from_events(&events, 4);
        // Depth 1 on [0,2), 0 afterwards.
        assert_eq!(p.values, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn ready_profile_counts_waiting_tasks() {
        use heteroprio_taskgraph::DagBuilder;
        // a → b, but b starts late on purpose: it is "ready" in between.
        let mut builder = DagBuilder::new();
        let a = builder.add_task(heteroprio_core::Task::new(2.0, 2.0), "a");
        let b = builder.add_task(heteroprio_core::Task::new(2.0, 2.0), "b");
        builder.add_edge(a, b);
        let g = builder.build().unwrap();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: a, worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: b, worker: WorkerId(0), start: 6.0, end: 8.0 },
            ],
            aborted: vec![],
        };
        let profile = ready_profile(&sched, &g, 8);
        // b is ready-but-unstarted on [2, 6) — half the horizon.
        let waiting: f64 = profile.values.iter().sum::<f64>() / 8.0;
        assert!((waiting - 0.5).abs() < 0.1, "{waiting}");
        let _ = Instance::new();
    }
}
