//! Data series behind Figures 6–9.

use crate::algorithms::{run_dag, run_indep, IndepAlgo, DAG_PAPER};
use crate::metrics::{alloc_stats, AllocStats};
use crate::sweep::parallel_map;
use heteroprio_bounds::{combined_lower_bound, dag_lower_bound};
use heteroprio_core::Platform;
use heteroprio_taskgraph::{Factorization, KernelTiming};
use heteroprio_workloads::independent_instance;

/// The tile counts swept by default. The paper sweeps 4..64; we sample that
/// range (the interesting regime is N between 10 and 40).
pub const DEFAULT_NS: [usize; 11] = [4, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64];

/// Smaller sweep for tests and smoke runs.
pub const SMOKE_NS: [usize; 4] = [4, 6, 8, 10];

/// One algorithm's outcome on one instance.
#[derive(Clone, Debug)]
pub struct AlgoOutcome {
    pub algo_name: &'static str,
    pub makespan: f64,
    /// Ratio to the experiment's lower bound.
    pub ratio: f64,
    pub stats: AllocStats,
    pub spoliations: usize,
}

/// One sweep point (one tile count of one factorization).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    pub factorization: Factorization,
    pub n: usize,
    pub tasks: usize,
    pub lower_bound: f64,
    pub outcomes: Vec<AlgoOutcome>,
}

/// Figure 6: independent-task instances, ratio to the area bound.
pub fn fig6_series<T: KernelTiming + Sync>(
    f: Factorization,
    ns: &[usize],
    platform: &Platform,
    timing: &T,
) -> Vec<SweepPoint> {
    parallel_map(ns.to_vec(), |n| {
        let instance = independent_instance(f, n, timing);
        let lb = combined_lower_bound(&instance, platform);
        let outcomes = IndepAlgo::PAPER
            .iter()
            .map(|algo| {
                let sched = run_indep(*algo, &instance, platform);
                debug_assert!(sched.validate(&instance, platform).is_ok());
                let makespan = sched.makespan();
                AlgoOutcome {
                    algo_name: algo.label(),
                    makespan,
                    ratio: makespan / lb,
                    stats: alloc_stats(&instance, platform, &sched),
                    spoliations: sched.spoliation_count(),
                }
            })
            .collect();
        SweepPoint { factorization: f, n, tasks: instance.len(), lower_bound: lb, outcomes }
    })
}

/// Figures 7/8/9: DAG instances, ratio to the dependency-aware lower bound,
/// plus the allocation metrics.
pub fn fig7_series<T: KernelTiming + Sync>(
    f: Factorization,
    ns: &[usize],
    platform: &Platform,
    timing: &T,
) -> Vec<SweepPoint> {
    parallel_map(ns.to_vec(), |n| {
        let graph = f.generate(n, timing);
        let lb = dag_lower_bound(&graph, platform);
        let outcomes = DAG_PAPER
            .iter()
            .map(|&(name, algo)| {
                let sched = run_dag(algo, &graph, platform);
                debug_assert!(sched.validate(graph.instance(), platform).is_ok());
                let makespan = sched.makespan();
                AlgoOutcome {
                    algo_name: name,
                    makespan,
                    ratio: makespan / lb,
                    stats: alloc_stats(graph.instance(), platform, &sched),
                    spoliations: sched.spoliation_count(),
                }
            })
            .collect();
        SweepPoint { factorization: f, n, tasks: graph.len(), lower_bound: lb, outcomes }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_workloads::{paper_platform, ChameleonTiming};

    #[test]
    fn fig6_ratios_are_at_least_one() {
        let pts =
            fig6_series(Factorization::Cholesky, &[4, 8], &paper_platform(), &ChameleonTiming);
        assert_eq!(pts.len(), 2);
        for pt in &pts {
            assert_eq!(pt.outcomes.len(), 3);
            for o in &pt.outcomes {
                assert!(o.ratio >= 1.0 - 1e-9, "{} ratio {}", o.algo_name, o.ratio);
            }
        }
    }

    #[test]
    fn fig7_runs_all_seven_algorithms() {
        let pts = fig7_series(Factorization::Lu, &[4, 6], &paper_platform(), &ChameleonTiming);
        for pt in &pts {
            assert_eq!(pt.outcomes.len(), 7);
            for o in &pt.outcomes {
                assert!(o.ratio >= 1.0 - 1e-9, "{} ratio {}", o.algo_name, o.ratio);
                assert!(o.makespan > 0.0);
            }
        }
    }

    #[test]
    fn heteroprio_beats_heft_on_medium_independent_cholesky() {
        // The paper's headline Figure 6 shape: HeteroPrio close to the area
        // bound, HEFT visibly worse (it ignores acceleration factors).
        let pts = fig6_series(Factorization::Cholesky, &[12], &paper_platform(), &ChameleonTiming);
        let get = |name: &str| pts[0].outcomes.iter().find(|o| o.algo_name == name).unwrap().ratio;
        let hp = get("HeteroPrio");
        let heft = get("HEFT");
        assert!(hp <= heft + 1e-9, "HeteroPrio {hp} vs HEFT {heft}");
    }
}
