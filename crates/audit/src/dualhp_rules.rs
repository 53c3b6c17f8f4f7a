//! DualHP-specific audit rules (§6, Bleuse et al. \[15\]), opt-in via
//! [`AuditOptions::dualhp`]: DualHP never spoliates, and its independent-task
//! output must have the dual-approximation partition structure — for the
//! smallest feasible makespan guess λ, tasks longer than λ on one resource
//! class run on the other, and each class finishes within 2λ.
//!
//! The λ feasibility probe is deliberately reimplemented here rather than
//! imported: the audit crate depends only on `core`, `trace` and `bounds`
//! (the schedulers call *into* it), and an independent reimplementation is
//! what makes the check a cross-check rather than a tautology.

use crate::auditor::AuditOptions;
use crate::report::{AuditReport, Rule, Violation};
use heteroprio_core::time::strictly_less;
use heteroprio_core::{Instance, Platform, ResourceKind, Schedule};

/// Run the schedule-level halves of both DualHP rules. Called from
/// [`crate::StreamAuditor::finish`] when
/// [`AuditOptions::dualhp`] is set; never records skips when it is not, so
/// the rules stay invisible to non-DualHP audits.
pub(crate) fn check_dualhp(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    report: &mut AuditReport,
) {
    check_spoliation_free(schedule, opts, report);
    check_partition(instance, platform, schedule, opts, report);
}

/// DualHP commits every placement: it has no spoliation mechanism, so
/// (fault-free) any aborted run in the schedule is outside its rules. The
/// other half of the rule, that no `Spoliation` event (a cross-class
/// steal) appears, is checked per event by [`crate::StreamAuditor`].
fn check_spoliation_free(schedule: &Schedule, opts: &AuditOptions, report: &mut AuditReport) {
    report.checks += 1;
    // Under a fault plan aborts legitimately come from failures and crashes;
    // fault-free, DualHP aborts nothing.
    if !opts.faulty && !schedule.aborted.is_empty() {
        report.violations.push(Violation {
            rule: Rule::DualHpSpoliationFree,
            event_index: None,
            time: None,
            worker: None,
            message: format!(
                "DualHP schedule records {} aborted run(s); DualHP never aborts work",
                schedule.aborted.len()
            ),
        });
    }
}

/// Partition structure after (re)packing: recompute the smallest feasible λ
/// and check the forced-assignment rule and the per-class 2λ horizon.
fn check_partition(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    report: &mut AuditReport,
) {
    if opts.dag {
        report.skipped.push((
            Rule::DualHpPartitionConsistency,
            "DAG run repartitions per ready set; no global partition to check".into(),
        ));
        return;
    }
    if opts.faulty {
        report.skipped.push((
            Rule::DualHpPartitionConsistency,
            "stochastic execution times invalidate the λ computation".into(),
        ));
        return;
    }
    if instance.is_empty() {
        report.skipped.push((Rule::DualHpPartitionConsistency, "empty instance".into()));
        return;
    }
    if platform.k() != 2 {
        report.skipped.push((
            Rule::DualHpPartitionConsistency,
            "partition replay certifies the two-class λ packing only".into(),
        ));
        return;
    }
    if platform.count(ResourceKind::Cpu) == 0 || platform.count(ResourceKind::Gpu) == 0 {
        report.skipped.push((
            Rule::DualHpPartitionConsistency,
            "single-class platform: the partition is trivial".into(),
        ));
        return;
    }
    report.checks += 2;
    let lambda = smallest_feasible_lambda(instance, platform);
    // Bisection resolves λ to a relative 1e-9; widen by a hair so boundary
    // tasks never false-positive.
    let lam = lambda * (1.0 + 1e-6);
    let horizon = 2.0 * lam;
    let mut fail = |message: String| {
        report.violations.push(Violation {
            rule: Rule::DualHpPartitionConsistency,
            event_index: None,
            time: None,
            worker: None,
            message,
        });
    };
    for run in &schedule.runs {
        let task = instance.task(run.task);
        let kind = platform.kind_of(run.worker);
        let time_here = task.time_on(kind);
        if strictly_less(lam, time_here) {
            fail(format!(
                "task {} runs {time_here} on {kind}, above λ = {lambda}: the forced-assignment \
                 rule puts it on the other class",
                run.task
            ));
        }
        if strictly_less(horizon, run.end) {
            fail(format!(
                "task {} finishes at {} beyond the 2λ horizon {horizon}",
                run.task, run.end
            ));
        }
    }
}

/// Binary-search the smallest λ for which the §6 greedy packing fits both
/// classes within 2λ (independent reimplementation of the DualHP probe).
fn smallest_feasible_lambda(instance: &Instance, platform: &Platform) -> f64 {
    let mut by_rho_desc: Vec<u32> = instance.ids().map(|t| t.0).collect();
    by_rho_desc.sort_by(|&a, &b| {
        let ra = instance.task(heteroprio_core::TaskId(a)).accel_factor();
        let rb = instance.task(heteroprio_core::TaskId(b)).accel_factor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut hi = instance.ids().map(|t| instance.task(t).min_time()).fold(0.0, f64::max).max(1e-9);
    while !feasible(instance, platform, &by_rho_desc, hi) {
        hi *= 2.0;
        assert!(hi.is_finite(), "DualHP audit λ search diverged");
    }
    let mut lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        // lint: allow(float-ord): deliberate bisection convergence threshold, not a time comparison.
        if mid <= lo || mid >= hi || (hi - lo) < 1e-9 * hi {
            break;
        }
        if feasible(instance, platform, &by_rho_desc, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// One λ probe: GPUs take tasks by decreasing ρ onto the least-loaded unit
/// while the 2λ horizon holds; forced and spilled tasks go to the CPUs,
/// longest-first, under the same horizon.
fn feasible(instance: &Instance, platform: &Platform, by_rho_desc: &[u32], lambda: f64) -> bool {
    let limit = 2.0 * lambda + 1e-12;
    let mut gpu_loads = vec![0.0f64; platform.count(ResourceKind::Gpu)];
    let mut cpu_tasks: Vec<f64> = Vec::new();
    let mut spilling = false;
    for &t in by_rho_desc {
        let task = instance.task(heteroprio_core::TaskId(t));
        let cpu_over = task.cpu_time() > lambda;
        let gpu_over = task.gpu_time() > lambda;
        match (cpu_over, gpu_over) {
            (true, true) => return false,
            (false, true) => cpu_tasks.push(task.cpu_time()),
            (true, false) => {
                let m = min_index(&gpu_loads);
                if gpu_loads[m] + task.gpu_time() > limit {
                    return false;
                }
                gpu_loads[m] += task.gpu_time();
            }
            (false, false) => {
                if spilling {
                    cpu_tasks.push(task.cpu_time());
                    continue;
                }
                let m = min_index(&gpu_loads);
                if gpu_loads[m] + task.gpu_time() <= limit {
                    gpu_loads[m] += task.gpu_time();
                } else {
                    spilling = true;
                    cpu_tasks.push(task.cpu_time());
                }
            }
        }
    }
    cpu_tasks.sort_by(|a, b| b.total_cmp(a));
    let mut cpu_loads = vec![0.0f64; platform.count(ResourceKind::Cpu)];
    for p in cpu_tasks {
        let m = min_index(&cpu_loads);
        if cpu_loads[m] + p > limit {
            return false;
        }
        cpu_loads[m] += p;
    }
    true
}

#[inline]
fn min_index(loads: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..loads.len() {
        if loads[i] < loads[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use heteroprio_core::{TaskId, TaskRun, WorkerId};
    use heteroprio_trace::SchedEvent;

    fn split_instance() -> Instance {
        Instance::from_times(&[(10.0, 1.0), (1.0, 10.0), (3.0, 3.0), (6.0, 2.0)])
    }

    /// Longest-first per-class list schedule of a fixed task → class map.
    fn pack(instance: &Instance, platform: &Platform, gpu: &[u32], cpu: &[u32]) -> Schedule {
        let mut runs = Vec::new();
        for (ids, kind) in [(gpu, ResourceKind::Gpu), (cpu, ResourceKind::Cpu)] {
            let workers: Vec<WorkerId> = platform.workers_of(kind).collect();
            let mut loads = vec![0.0f64; workers.len()];
            let mut sorted = ids.to_vec();
            sorted.sort_by(|&a, &b| {
                instance
                    .task(TaskId(b))
                    .time_on(kind)
                    .total_cmp(&instance.task(TaskId(a)).time_on(kind))
            });
            for t in sorted {
                let m = min_index(&loads);
                let start = loads[m];
                let end = start + instance.task(TaskId(t)).time_on(kind);
                loads[m] = end;
                runs.push(TaskRun { task: TaskId(t), worker: workers[m], start, end });
            }
        }
        Schedule { runs, aborted: Vec::new() }
    }

    #[test]
    fn sane_dualhp_partition_audits_clean() {
        let inst = split_instance();
        let plat = Platform::new(2, 1);
        // ρ-desc: task 0 (10) and 3 (3) on the GPU, the rest on CPUs — what
        // DualHP itself produces for this instance.
        let schedule = pack(&inst, &plat, &[0, 3], &[1, 2]);
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::dualhp());
        let dualhp_viols: Vec<_> = report
            .violations
            .iter()
            .filter(|v| {
                matches!(v.rule, Rule::DualHpSpoliationFree | Rule::DualHpPartitionConsistency)
            })
            .collect();
        assert!(dualhp_viols.is_empty(), "{dualhp_viols:?}");
    }

    #[test]
    fn forced_task_on_wrong_class_fires_partition_rule() {
        let inst = split_instance();
        let plat = Platform::new(2, 1);
        // Task 0 runs 10 on a CPU: far above any feasible λ for this
        // instance, so the forced-assignment rule must fire.
        let schedule = pack(&inst, &plat, &[3], &[0, 1, 2]);
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::dualhp());
        assert!(
            report.violations.iter().any(|v| v.rule == Rule::DualHpPartitionConsistency),
            "{}",
            report.render()
        );
    }

    #[test]
    fn spoliation_event_fires_dualhp_steal_rule() {
        let inst = split_instance();
        let plat = Platform::new(2, 1);
        let schedule = pack(&inst, &plat, &[0, 3], &[1, 2]);
        let events = vec![SchedEvent::Spoliation {
            time: 1.0,
            task: 0,
            victim: 1,
            thief: 0,
            wasted_work: 1.0,
        }];
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::dualhp());
        let v = report
            .violations
            .iter()
            .find(|v| v.rule == Rule::DualHpSpoliationFree)
            .expect("steal rule fires");
        assert_eq!(v.event_index, Some(0));
    }

    #[test]
    fn aborted_runs_fire_spoliation_free_rule_fault_free_only() {
        let inst = split_instance();
        let plat = Platform::new(2, 1);
        let mut schedule = pack(&inst, &plat, &[0, 3], &[1, 2]);
        schedule.aborted.push(TaskRun {
            task: TaskId(0),
            worker: WorkerId(0),
            start: 0.0,
            end: 1.0,
        });
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::dualhp());
        assert!(report.violations.iter().any(|v| v.rule == Rule::DualHpSpoliationFree));
        let faulty = audit(
            &inst,
            &plat,
            &schedule,
            &[],
            &AuditOptions { faulty: true, ..AuditOptions::dualhp() },
        );
        assert!(!faulty.violations.iter().any(|v| v.rule == Rule::DualHpSpoliationFree));
    }

    #[test]
    fn non_dualhp_audits_do_not_mention_dualhp_rules() {
        let inst = split_instance();
        let plat = Platform::new(2, 1);
        let schedule = pack(&inst, &plat, &[3], &[0, 1, 2]);
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::generic());
        assert!(!report.violations.iter().any(|v| {
            matches!(v.rule, Rule::DualHpSpoliationFree | Rule::DualHpPartitionConsistency)
        }));
        assert!(!report.skipped.iter().any(|(r, _)| {
            matches!(r, Rule::DualHpSpoliationFree | Rule::DualHpPartitionConsistency)
        }));
    }
}
