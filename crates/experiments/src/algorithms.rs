//! The paper's algorithm lists over the scheduler tables of
//! `heteroprio-schedulers`, with the experiments' HEFT insertion choice.

use heteroprio_core::kernel::Run;
use heteroprio_core::{Instance, Platform, Schedule};
use heteroprio_metrics::NullRegistry;
use heteroprio_schedulers::{DualHpRank, HeftVariant};
pub use heteroprio_schedulers::{IndepAlgo, Scheduler};
use heteroprio_simulator::TransferModel;
use heteroprio_taskgraph::{TaskGraph, WeightScheme};
use heteroprio_trace::{NullSink, TraceSink};

/// Above this size, HEFT switches to its no-insertion variant: the
/// insertion scan is quadratic per worker and dominates on the largest
/// Figure 7 graphs without changing the picture.
pub const HEFT_INSERTION_LIMIT: usize = 20_000;

/// HEFT's variant for `tasks` tasks: insertion up to
/// [`HEFT_INSERTION_LIMIT`].
fn heft_variant(tasks: usize) -> HeftVariant {
    if tasks <= HEFT_INSERTION_LIMIT {
        HeftVariant::Insertion
    } else {
        HeftVariant::NoInsertion
    }
}

/// The seven DAG algorithms of Figure 7, under the names the figures
/// print. [`trace_dag`] picks HEFT's variant by graph size.
pub const DAG_PAPER: [(&str, Scheduler); 7] = [
    ("HeteroPrio-avg", Scheduler::HeteroPrio(WeightScheme::Avg)),
    ("HeteroPrio-min", Scheduler::HeteroPrio(WeightScheme::Min)),
    ("DualHP-fifo", Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min)),
    ("DualHP-avg", Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Avg)),
    ("DualHP-min", Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Min)),
    ("HEFT-avg", Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion)),
    ("HEFT-min", Scheduler::Heft(WeightScheme::Min, HeftVariant::Insertion)),
];

/// Run an independent-task algorithm in the kernel, untraced and
/// unmetered; HEFT drops insertion above [`HEFT_INSERTION_LIMIT`] tasks.
pub fn run_indep(algo: IndepAlgo, instance: &Instance, platform: &Platform) -> Schedule {
    let variant = heft_variant(instance.len());
    let outcome = algo.run(instance, platform, variant, Run::new(&mut NullSink, &NullRegistry));
    outcome.expect("a fault-free run fails only on RunError::InstantOverflow").schedule
}

/// Run a DAG scheduler on a ranked copy of `graph`.
pub fn run_dag(scheduler: Scheduler, graph: &TaskGraph, platform: &Platform) -> Schedule {
    trace_dag(scheduler, graph, platform, &mut NullSink)
}

/// [`run_dag`] streaming the kernel's events into `sink`.
pub fn trace_dag<S: TraceSink>(
    scheduler: Scheduler,
    graph: &TaskGraph,
    platform: &Platform,
    sink: &mut S,
) -> Schedule {
    let scheduler = match scheduler {
        Scheduler::Heft(scheme, _) => Scheduler::Heft(scheme, heft_variant(graph.len())),
        online => online,
    };
    let mut ranked = graph.clone();
    scheduler.rank(&mut ranked);
    let outcome =
        scheduler.run(&ranked, platform, &TransferModel::NONE, Run::new(sink, &NullRegistry));
    outcome.expect("a fault-free run fails only on RunError::InstantOverflow").schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_taskgraph::{check_precedence, cholesky, ConstTiming};
    use heteroprio_workloads::ChameleonTiming;

    #[test]
    fn all_indep_algorithms_produce_valid_schedules() {
        let inst = heteroprio_workloads::independent_instance(
            heteroprio_taskgraph::Factorization::Cholesky,
            6,
            &ChameleonTiming,
        );
        let plat = Platform::new(4, 2);
        for algo in IndepAlgo::PAPER {
            let sched = run_indep(algo, &inst, &plat);
            sched.validate(&inst, &plat).unwrap_or_else(|e| panic!("{}: {e}", algo.label()));
        }
    }

    #[test]
    fn all_dag_algorithms_produce_valid_schedules() {
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        for (i, (name, algo)) in DAG_PAPER.into_iter().enumerate() {
            for (other, entry) in &DAG_PAPER[i + 1..] {
                assert!(name != *other && algo != *entry, "{name} is listed twice");
            }
            let sched = run_dag(algo, &g, &plat);
            sched.validate(g.instance(), &plat).unwrap_or_else(|e| panic!("{name}: {e}"));
            check_precedence(&g, &sched).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
