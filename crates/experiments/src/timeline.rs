//! Time-resolved schedule analysis: worker-utilization and ready-queue
//! profiles, and compact ASCII sparklines for the harness binaries. This
//! makes the Figure 9 story visible *over time*: DualHP's CPUs idle at the
//! start of the schedule, HeteroPrio's don't.
//!
//! Utilization and ramp-up read a [`Schedule`]; for a recorded stream, pass
//! the schedule `heteroprio_core::schedule_from_events` rebuilds from it.
//! The ready-queue depth exists only in the [`SchedEvent`] stream, so
//! [`ready_profile_from_events`] reads that.

use heteroprio_core::time::F64Ord;
use heteroprio_core::{Platform, ResourceKind, Schedule};
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

/// Ready-queue depth over time from an event stream — the scheduler's own
/// queue, which a finished schedule alone cannot show.
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
    use heteroprio_core::{TaskId, TaskRun, WorkerId};

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
}
