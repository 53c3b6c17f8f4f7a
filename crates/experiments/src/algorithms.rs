//! Unified runners for every algorithm compared in the paper's evaluation.

use heteroprio_core::{heteroprio, HeteroPrioConfig, Instance, Platform, Schedule};
use heteroprio_schedulers::{
    dualhp_independent, heft, DualHpDagPolicy, DualHpRank, HeftVariant, HeteroPrioDagPolicy,
};
use heteroprio_simulator::{simulate_traced, TransferModel};
use heteroprio_taskgraph::{apply_bottom_level_priorities, TaskGraph, WeightScheme};
use heteroprio_trace::{NullSink, TraceSink};

/// Above this size, HEFT switches to its no-insertion variant: the
/// insertion scan is quadratic per worker and dominates on the largest
/// Figure 7 graphs without changing the picture.
pub const HEFT_INSERTION_LIMIT: usize = 20_000;

/// The three independent-task algorithms of Figure 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndepAlgo {
    HeteroPrio,
    DualHp,
    Heft,
}

impl IndepAlgo {
    pub const PAPER: [IndepAlgo; 3] = [IndepAlgo::HeteroPrio, IndepAlgo::DualHp, IndepAlgo::Heft];

    pub fn name(self) -> &'static str {
        match self {
            IndepAlgo::HeteroPrio => "HeteroPrio",
            IndepAlgo::DualHp => "DualHP",
            IndepAlgo::Heft => "HEFT",
        }
    }

    pub fn run(self, instance: &Instance, platform: &Platform) -> Schedule {
        match self {
            IndepAlgo::HeteroPrio => {
                heteroprio(instance, platform, &HeteroPrioConfig::new()).schedule
            }
            IndepAlgo::DualHp => dualhp_independent(instance, platform),
            IndepAlgo::Heft => {
                let graph = TaskGraph::independent(instance.clone());
                let variant = if graph.len() <= HEFT_INSERTION_LIMIT {
                    HeftVariant::Insertion
                } else {
                    HeftVariant::NoInsertion
                };
                heft(&graph, platform, WeightScheme::Avg, variant)
            }
        }
    }
}

/// The seven DAG algorithms of Figure 7.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagAlgo {
    HeteroPrioAvg,
    HeteroPrioMin,
    DualHpFifo,
    DualHpAvg,
    DualHpMin,
    HeftAvg,
    HeftMin,
}

impl DagAlgo {
    pub const PAPER: [DagAlgo; 7] = [
        DagAlgo::HeteroPrioAvg,
        DagAlgo::HeteroPrioMin,
        DagAlgo::DualHpFifo,
        DagAlgo::DualHpAvg,
        DagAlgo::DualHpMin,
        DagAlgo::HeftAvg,
        DagAlgo::HeftMin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DagAlgo::HeteroPrioAvg => "HeteroPrio-avg",
            DagAlgo::HeteroPrioMin => "HeteroPrio-min",
            DagAlgo::DualHpFifo => "DualHP-fifo",
            DagAlgo::DualHpAvg => "DualHP-avg",
            DagAlgo::DualHpMin => "DualHP-min",
            DagAlgo::HeftAvg => "HEFT-avg",
            DagAlgo::HeftMin => "HEFT-min",
        }
    }

    fn ranking(self) -> Option<WeightScheme> {
        match self {
            DagAlgo::HeteroPrioAvg | DagAlgo::DualHpAvg | DagAlgo::HeftAvg => {
                Some(WeightScheme::Avg)
            }
            DagAlgo::HeteroPrioMin | DagAlgo::DualHpMin | DagAlgo::HeftMin => {
                Some(WeightScheme::Min)
            }
            DagAlgo::DualHpFifo => None,
        }
    }

    /// Run the algorithm on (a rank-annotated copy of) the graph.
    pub fn run(self, graph: &TaskGraph, platform: &Platform) -> Schedule {
        self.trace(graph, platform, &mut NullSink)
    }

    /// [`DagAlgo::run`] streaming the scheduler's events into `sink`: live
    /// events for the simulated policies, a stream reconstructed from the
    /// finished schedule for static HEFT.
    pub fn trace<S: TraceSink>(
        self,
        graph: &TaskGraph,
        platform: &Platform,
        sink: &mut S,
    ) -> Schedule {
        let mut ranked = graph.clone();
        if let Some(scheme) = self.ranking() {
            apply_bottom_level_priorities(&mut ranked, scheme);
        }
        let none = TransferModel::NONE;
        match self {
            DagAlgo::HeteroPrioAvg | DagAlgo::HeteroPrioMin => {
                let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
                simulate_traced(&ranked, platform, &mut policy, &none, sink).schedule
            }
            DagAlgo::DualHpFifo => {
                let mut policy = DualHpDagPolicy::new(DualHpRank::Fifo);
                simulate_traced(&ranked, platform, &mut policy, &none, sink).schedule
            }
            DagAlgo::DualHpAvg | DagAlgo::DualHpMin => {
                let mut policy = DualHpDagPolicy::new(DualHpRank::Priority);
                simulate_traced(&ranked, platform, &mut policy, &none, sink).schedule
            }
            DagAlgo::HeftAvg | DagAlgo::HeftMin => {
                let scheme = self.ranking().expect("HEFT has a scheme");
                let variant = if ranked.len() <= HEFT_INSERTION_LIMIT {
                    HeftVariant::Insertion
                } else {
                    HeftVariant::NoInsertion
                };
                let schedule = heft(&ranked, platform, scheme, variant);
                if sink.is_enabled() {
                    schedule.to_events(platform).into_iter().for_each(|e| sink.emit(e));
                }
                schedule
            }
        }
    }
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
            let sched = algo.run(&inst, &plat);
            sched.validate(&inst, &plat).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        }
    }

    #[test]
    fn all_dag_algorithms_produce_valid_schedules() {
        let g = cholesky(5, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let plat = Platform::new(3, 2);
        for algo in DagAlgo::PAPER {
            let sched = algo.run(&g, &plat);
            sched.validate(g.instance(), &plat).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            check_precedence(&g, &sched).unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
        }
    }

    #[test]
    fn names_are_unique() {
        for (i, a) in DagAlgo::PAPER.iter().enumerate() {
            for b in &DagAlgo::PAPER[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
