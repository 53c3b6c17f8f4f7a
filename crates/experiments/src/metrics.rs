//! Schedule-quality metrics of Figures 8 and 9.

use heteroprio_bounds::class_usage;
use heteroprio_core::time::approx_le;
use heteroprio_core::{Instance, Platform, ResourceKind, Schedule};

/// Allocation metrics of one schedule.
#[derive(Clone, Copy, Debug)]
pub struct AllocStats {
    /// §6.2 "equivalent acceleration factor" of the tasks completed on each
    /// class (`Σp/Σq`); `None` when a class received no task. A good
    /// schedule has a *high* GPU value and a *low* CPU value.
    pub accel_cpu: Option<f64>,
    pub accel_gpu: Option<f64>,
    /// Figure 9's normalized idle time: idle time over `[0, makespan]`
    /// divided by the amount of the resource used by the area-bound
    /// solution. Aborted (spoliated) work counts as idle, so all algorithms
    /// are charged for the same useful work. `None` when the lower bound
    /// uses none of that resource, or the instance has no area bound.
    pub idle_cpu: Option<f64>,
    pub idle_gpu: Option<f64>,
}

/// Compute the Figure 8/9 metrics for a schedule.
pub fn alloc_stats(instance: &Instance, platform: &Platform, schedule: &Schedule) -> AllocStats {
    let horizon = schedule.makespan();
    let norm_idle = |kind: ResourceKind| {
        let usage = class_usage(instance, platform, kind).ok()?;
        if approx_le(usage, 0.0) {
            None
        } else {
            Some(schedule.idle_time(platform, kind, horizon) / usage)
        }
    };
    AllocStats {
        accel_cpu: schedule.equivalent_accel_factor(instance, platform, ResourceKind::Cpu),
        accel_gpu: schedule.equivalent_accel_factor(instance, platform, ResourceKind::Gpu),
        idle_cpu: norm_idle(ResourceKind::Cpu),
        idle_gpu: norm_idle(ResourceKind::Gpu),
    }
}

/// Render an optional metric for a table cell.
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::{TaskId, TaskRun, WorkerId};

    #[test]
    fn stats_match_hand_computation() {
        // 2 tasks: one (10,1) on GPU, one (1,10) on CPU, platform (1,1).
        let inst = Instance::from_times(&[(10.0, 1.0), (1.0, 10.0)]);
        let plat = Platform::new(1, 1);
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 0.0, end: 1.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 0.0, end: 1.0 },
            ],
            aborted: vec![],
        };
        let stats = alloc_stats(&inst, &plat, &sched);
        assert_eq!(stats.accel_gpu, Some(10.0));
        assert_eq!(stats.accel_cpu, Some(0.1));
        // Perfect schedule: no idle time at all.
        assert_eq!(stats.idle_cpu, Some(0.0));
        assert_eq!(stats.idle_gpu, Some(0.0));
    }

    #[test]
    fn idle_counts_aborted_work() {
        let inst = Instance::from_times(&[(2.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let sched = Schedule {
            runs: vec![TaskRun { task: TaskId(0), worker: WorkerId(1), start: 1.0, end: 2.0 }],
            aborted: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 1.0 }],
        };
        let stats = alloc_stats(&inst, &plat, &sched);
        // CPU did only aborted work over [0,2] → idle 2.0; GPU busy 1 of 2.
        // Normalization is by area-bound usage, positive on both classes.
        assert!(stats.idle_cpu.unwrap() > 0.0);
        assert!(stats.idle_gpu.unwrap() > 0.0);
        assert_eq!(stats.accel_cpu, None); // no completed CPU task
    }

    #[test]
    fn fmt_opt_renders_dash() {
        assert_eq!(fmt_opt(None), "-");
        assert_eq!(fmt_opt(Some(1.5)), "1.500");
    }
}
