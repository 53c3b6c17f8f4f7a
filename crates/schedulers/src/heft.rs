//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. \[11\]).
//!
//! The classic static list scheduler: tasks are ranked by upward rank
//! (bottom level) under a weight scheme (`avg` or `min`, §6.2), then placed
//! one by one on the worker minimizing their Earliest Finish Time. The
//! insertion-based variant may slot a task into an idle gap between already
//! scheduled tasks; the non-insertion variant only appends after a worker's
//! last task (faster, and what dynamic runtimes can do online).
//!
//! The paper's model ignores communication costs (StarPU prefetches and the
//! evaluation machine shares memory), so EST depends only on predecessor
//! completion times and worker availability.

use heteroprio_core::time::{approx_le, F64Ord};
use heteroprio_core::{Platform, Schedule, TaskRun, WorkerId};
use heteroprio_taskgraph::rank::{rank_order, WeightScheme};
use heteroprio_taskgraph::TaskGraph;

/// Whether tasks may be inserted into idle gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HeftVariant {
    #[default]
    Insertion,
    NoInsertion,
}

/// Static HEFT schedule of a task graph.
pub fn heft(
    graph: &TaskGraph,
    platform: &Platform,
    scheme: WeightScheme,
    variant: HeftVariant,
) -> Schedule {
    let order = rank_order(graph, scheme);
    let instance = graph.instance();
    // Per-worker busy intervals, kept sorted by start time.
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); platform.workers()];
    let mut end_of = vec![0.0_f64; graph.len()];
    let mut runs = Vec::with_capacity(graph.len());
    for task in order {
        let ready = graph
            .predecessors(task)
            .iter()
            .map(|p| *end_of.get(p.index()).expect("end_of sized to graph.len()"))
            .fold(0.0, f64::max);
        let mut best: Option<(F64Ord, WorkerId, f64)> = None;
        for w in platform.all_workers() {
            let dur = instance.task(task).time_on(platform.class_of(w));
            let start = match variant {
                HeftVariant::Insertion => earliest_gap(busy_of(&busy, w), ready, dur),
                HeftVariant::NoInsertion => {
                    ready.max(busy_of(&busy, w).last().map_or(0.0, |&(_, e)| e))
                }
            };
            let eft = F64Ord::new(start + dur);
            if best.is_none_or(|(b, _, _)| eft < b) {
                best = Some((eft, w, start));
            }
        }
        let (F64Ord(eft), w, start) = best.expect("platform has workers");
        insert_interval(
            busy.get_mut(w.index()).expect("busy sized to platform.workers()"),
            (start, eft),
        );
        *end_of.get_mut(task.index()).expect("end_of sized to graph.len()") = eft;
        runs.push(TaskRun { task, worker: w, start, end: eft });
    }
    Schedule { runs, aborted: Vec::new() }
}

/// Earliest start ≥ `ready` on a worker with the given busy intervals where
/// a task of length `dur` fits.
/// Checked per-worker busy-list accessor; `busy` is sized to the platform.
fn busy_of(busy: &[Vec<(f64, f64)>], w: WorkerId) -> &[(f64, f64)] {
    busy.get(w.index()).expect("busy sized to platform.workers()")
}

fn earliest_gap(busy: &[(f64, f64)], ready: f64, dur: f64) -> f64 {
    let mut candidate = ready;
    for &(s, e) in busy {
        if approx_le(candidate + dur, s) {
            return candidate;
        }
        candidate = candidate.max(e);
    }
    candidate
}

fn insert_interval(busy: &mut Vec<(f64, f64)>, interval: (f64, f64)) {
    let pos = busy.partition_point(|&(s, _)| s < interval.0);
    busy.insert(pos, interval);
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::Instance;
    use heteroprio_taskgraph::{chain, check_precedence, cholesky, ConstTiming, TaskGraph};

    fn check(graph: &TaskGraph, platform: &Platform, scheme: WeightScheme, v: HeftVariant) -> f64 {
        let sched = heft(graph, platform, scheme, v);
        sched.validate(graph.instance(), platform).expect("valid");
        check_precedence(graph, &sched).expect("precedence");
        sched.makespan()
    }

    #[test]
    fn chain_runs_at_fastest_pace() {
        let g = chain(6, 4.0, 1.0);
        let plat = Platform::new(2, 1);
        // Every task prefers the GPU: 6 × 1.
        let ms = check(&g, &plat, WeightScheme::Avg, HeftVariant::Insertion);
        assert!(approx_eq(ms, 6.0), "{ms}");
    }

    #[test]
    fn independent_tasks_use_both_classes() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0); 6]));
        let plat = Platform::new(2, 1);
        let ms = check(&g, &plat, WeightScheme::Avg, HeftVariant::Insertion);
        // 6 unit tasks over 3 equal workers.
        assert!(approx_eq(ms, 2.0), "{ms}");
    }

    #[test]
    fn insertion_exploits_gaps() {
        // A graph where non-insertion leaves a gap that insertion can fill:
        // ranks force order [a (long), b (short, independent)]; with one
        // worker the orders coincide, so use a structure with a gap:
        // a → c (both long), plus short independent b that fits before c.
        use heteroprio_core::Task;
        use heteroprio_taskgraph::DagBuilder;
        let mut bld = DagBuilder::new();
        let a = bld.add_task(Task::new(2.0, 2.0), "a");
        let c = bld.add_task(Task::new(10.0, 10.0), "c");
        let b = bld.add_task(Task::new(1.0, 5.0), "b");
        bld.add_edge(a, c);
        let g = bld.build().unwrap();
        let plat = Platform::new(1, 1);
        let ins = check(&g, &plat, WeightScheme::Avg, HeftVariant::Insertion);
        let no_ins = check(&g, &plat, WeightScheme::Avg, HeftVariant::NoInsertion);
        assert!(ins <= no_ins + 1e-12, "insertion {ins} vs {no_ins}");
        let _ = b;
    }

    #[test]
    fn heft_ignores_affinity_by_design() {
        // The §6.1 observation: HEFT assigns by EFT, not acceleration
        // factor. With one CPU-friendly and one GPU-friendly task (equal avg
        // weights) and a single free GPU first in EFT order, HEFT can put a
        // task on its slow resource. We only assert validity and that the
        // makespan can exceed the affinity-aware optimum.
        let inst = Instance::from_times(&[(4.0, 2.0), (2.0, 4.0)]);
        let g = TaskGraph::independent(inst);
        let plat = Platform::new(1, 1);
        let ms = check(&g, &plat, WeightScheme::Avg, HeftVariant::Insertion);
        // Optimum: 2.0 (each on its fast resource). HEFT also achieves it
        // here; the adversarial gap appears at scale (exercised in the
        // experiment harness).
        assert!(ms >= 2.0 - 1e-12);
    }

    #[test]
    fn cholesky_all_schemes_and_variants_are_valid() {
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        for scheme in [WeightScheme::Avg, WeightScheme::Min] {
            for v in [HeftVariant::Insertion, HeftVariant::NoInsertion] {
                let ms = check(&g, &plat, scheme, v);
                assert!(ms > 0.0);
            }
        }
    }

    #[test]
    fn earliest_gap_finds_holes() {
        let busy = vec![(0.0, 2.0), (5.0, 7.0), (9.0, 10.0)];
        assert_eq!(earliest_gap(&busy, 0.0, 3.0), 2.0); // hole [2,5]
        assert_eq!(earliest_gap(&busy, 0.0, 2.0), 2.0);
        assert_eq!(earliest_gap(&busy, 6.0, 1.0), 7.0); // hole [7,9]
        assert_eq!(earliest_gap(&busy, 0.0, 10.0), 10.0); // only after the end
        assert_eq!(earliest_gap(&[], 3.0, 1.0), 3.0);
    }
}
