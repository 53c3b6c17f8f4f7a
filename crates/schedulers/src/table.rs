//! The scheduler tables: every algorithm the front-ends (CLI, runtime,
//! experiments) can run, named once per task model.
//!
//! * [`IndepAlgo`] — independent task sets: HeteroPrio with and without
//!   spoliation, the DualHP packer, HEFT and the classic heuristics.
//! * [`Scheduler`] — task graphs: HeteroPrio, DualHP and plain list
//!   scheduling as online policies, and HEFT. The bottom-level ranking
//!   scheme and HEFT's insertion variant are data of the entry.
//!
//! Each table has `parse`/`name`/`NAMES` for the command line and one
//! `run` in the event kernel under a [`Run`] spec. The static algorithms
//! (HEFT, the DualHP packer, the heuristics) compute a plan that
//! [`PlanPolicy`] executes. A plan is made for the fault-free model, so a
//! planned run refuses a fault plan and a transfer penalty.

use crate::heuristics::heuristic_schedule;
use crate::{
    dualhp_independent, heft, DualHpDagPolicy, DualHpRank, HeftVariant, HeteroPrioDagPolicy,
    PlanPolicy, PriorityListPolicy,
};
use heteroprio_core::kernel::{self, KernelOutcome, Run, Workload};
use heteroprio_core::{
    independent, HeteroPrioConfig, IndependentWorkload, Instance, Platform, RunError, Schedule,
};
use heteroprio_metrics::MetricsRegistry;
use heteroprio_simulator::{dag, DagWorkload, SnapshotOnlinePolicy, TransferModel};
use heteroprio_taskgraph::{apply_bottom_level_priorities, TaskGraph, WeightScheme};
use heteroprio_trace::TraceSink;
use std::fmt;

/// The independent-task algorithms, by the names `--algo` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndepAlgo {
    HeteroPrio,
    HeteroPrioNoSpoliation,
    DualHp,
    Heft,
    MinMin,
    MaxMin,
    Sufferage,
    Mct,
}

impl IndepAlgo {
    /// The command-line names, one per entry (`heteroprio` and
    /// `heteroprio-ns` are accepted as aliases of the first two).
    pub const NAMES: [&'static str; 8] =
        ["hp", "hp-ns", "dualhp", "heft", "minmin", "maxmin", "sufferage", "mct"];

    /// The three algorithms of the paper's Figure 6.
    pub const PAPER: [IndepAlgo; 3] = [IndepAlgo::HeteroPrio, IndepAlgo::DualHp, IndepAlgo::Heft];

    /// The classic mapping heuristics (see [`crate::heuristics`]).
    pub const HEURISTICS: [IndepAlgo; 4] =
        [IndepAlgo::Mct, IndepAlgo::MinMin, IndepAlgo::MaxMin, IndepAlgo::Sufferage];

    pub fn parse(s: &str) -> Option<IndepAlgo> {
        Some(match s.to_ascii_lowercase().as_str() {
            "hp" | "heteroprio" => IndepAlgo::HeteroPrio,
            "hp-ns" | "heteroprio-ns" => IndepAlgo::HeteroPrioNoSpoliation,
            "dualhp" => IndepAlgo::DualHp,
            "heft" => IndepAlgo::Heft,
            "minmin" => IndepAlgo::MinMin,
            "maxmin" => IndepAlgo::MaxMin,
            "sufferage" => IndepAlgo::Sufferage,
            "mct" => IndepAlgo::Mct,
            _ => return None,
        })
    }

    /// The command-line name ([`IndepAlgo::parse`] maps it back).
    pub fn name(self) -> &'static str {
        match self {
            IndepAlgo::HeteroPrio => "hp",
            IndepAlgo::HeteroPrioNoSpoliation => "hp-ns",
            IndepAlgo::DualHp => "dualhp",
            IndepAlgo::Heft => "heft",
            IndepAlgo::MinMin => "minmin",
            IndepAlgo::MaxMin => "maxmin",
            IndepAlgo::Sufferage => "sufferage",
            IndepAlgo::Mct => "mct",
        }
    }

    /// The column label the experiment tables print.
    pub fn label(self) -> &'static str {
        match self {
            IndepAlgo::HeteroPrio => "HeteroPrio",
            IndepAlgo::HeteroPrioNoSpoliation => "HeteroPrio-NS",
            IndepAlgo::DualHp => "DualHP",
            IndepAlgo::Heft => "HEFT",
            IndepAlgo::MinMin => "MinMin",
            IndepAlgo::MaxMin => "MaxMin",
            IndepAlgo::Sufferage => "Sufferage",
            IndepAlgo::Mct => "MCT",
        }
    }

    /// The plan a static algorithm computes before the kernel executes it;
    /// `None` for the HeteroPrio variants, which decide online.
    /// `heft_variant` picks HEFT's variant; the other algorithms ignore it.
    pub fn plan(
        self,
        instance: &Instance,
        platform: &Platform,
        heft_variant: HeftVariant,
    ) -> Option<Schedule> {
        Some(match self {
            IndepAlgo::HeteroPrio | IndepAlgo::HeteroPrioNoSpoliation => return None,
            IndepAlgo::DualHp => dualhp_independent(instance, platform),
            IndepAlgo::Heft => {
                let graph = TaskGraph::independent(instance.clone());
                heft(&graph, platform, WeightScheme::Avg, heft_variant)
            }
            heuristic => heuristic_schedule(heuristic, instance, platform),
        })
    }

    /// Schedule `instance` in the kernel under `spec`: HeteroPrio online,
    /// every other entry by executing its [`IndepAlgo::plan`].
    pub fn run<S: TraceSink, M: MetricsRegistry + ?Sized>(
        self,
        instance: &Instance,
        platform: &Platform,
        heft_variant: HeftVariant,
        spec: Run<'_, S, M>,
    ) -> Result<KernelOutcome, RunError> {
        let config = match self {
            IndepAlgo::HeteroPrio => HeteroPrioConfig::new(),
            IndepAlgo::HeteroPrioNoSpoliation => HeteroPrioConfig::without_spoliation(),
            _ => {
                let plan =
                    self.plan(instance, platform, heft_variant).expect("a static entry plans");
                let mut workload = IndependentWorkload::new(instance);
                return run_plan(&plan, platform, &mut workload, &TransferModel::NONE, spec);
            }
        };
        let (mut workload, mut policy) = independent(instance, platform, &config);
        kernel::run_checkpointed(platform, &mut workload, &mut policy, spec)
    }
}

/// The DAG schedulers, with their ranking scheme and HEFT variant as data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheduler {
    /// HeteroPrio with bottom-level priorities under the given scheme.
    HeteroPrio(WeightScheme),
    /// DualHP; `Priority` rank uses bottom levels under the given scheme.
    DualHp(DualHpRank, WeightScheme),
    /// Static HEFT.
    Heft(WeightScheme, HeftVariant),
    /// Plain priority list scheduling (no affinity, no spoliation).
    PriorityList(WeightScheme),
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::HeteroPrio(WeightScheme::Min)
    }
}

impl Scheduler {
    /// The command-line names, one per entry (`heteroprio` is accepted as
    /// an alias of `hp`).
    pub const NAMES: [&'static str; 5] = ["hp", "dualhp", "dualhp-fifo", "heft", "list"];

    /// The entry a command-line name selects: bottom levels under the `min`
    /// scheme, HEFT under `avg` with insertion.
    pub fn parse(s: &str) -> Option<Scheduler> {
        Some(match s.to_ascii_lowercase().as_str() {
            "hp" | "heteroprio" => Scheduler::HeteroPrio(WeightScheme::Min),
            "dualhp" => Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Min),
            "dualhp-fifo" => Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min),
            "heft" => Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion),
            "list" => Scheduler::PriorityList(WeightScheme::Min),
            _ => return None,
        })
    }

    /// The command-line name of this scheduler's family.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::HeteroPrio(_) => "hp",
            Scheduler::DualHp(DualHpRank::Priority, _) => "dualhp",
            Scheduler::DualHp(DualHpRank::Fifo, _) => "dualhp-fifo",
            Scheduler::Heft(..) => "heft",
            Scheduler::PriorityList(_) => "list",
        }
    }

    /// Attach the bottom-level priorities this scheduler ranks by.
    pub fn rank(self, graph: &mut TaskGraph) {
        let (Scheduler::HeteroPrio(scheme)
        | Scheduler::DualHp(_, scheme)
        | Scheduler::Heft(scheme, _)
        | Scheduler::PriorityList(scheme)) = self;
        apply_bottom_level_priorities(graph, scheme);
    }

    /// Schedule `graph` (ranked by [`Scheduler::rank`]) in the kernel under
    /// `spec`, with `transfer` charged and `spec.faults` injected. HEFT
    /// executes its plan, which refuses both (see the module docs).
    pub fn run<S: TraceSink, M: MetricsRegistry + ?Sized>(
        self,
        graph: &TaskGraph,
        platform: &Platform,
        transfer: &TransferModel,
        spec: Run<'_, S, M>,
    ) -> Result<KernelOutcome, RunError> {
        match self {
            Scheduler::HeteroPrio(_) => {
                let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
                run_policy(graph, platform, transfer, &mut policy, spec)
            }
            Scheduler::DualHp(rank, _) => {
                run_policy(graph, platform, transfer, &mut DualHpDagPolicy::new(rank), spec)
            }
            Scheduler::PriorityList(_) => {
                run_policy(graph, platform, transfer, &mut PriorityListPolicy::new(), spec)
            }
            Scheduler::Heft(scheme, variant) => {
                let plan = heft(graph, platform, scheme, variant);
                run_plan(&plan, platform, &mut DagWorkload::new(graph, transfer), transfer, spec)
            }
        }
    }
}

/// Drive one concrete online policy over `graph` through the kernel.
fn run_policy<P: SnapshotOnlinePolicy, S: TraceSink, M: MetricsRegistry + ?Sized>(
    graph: &TaskGraph,
    platform: &Platform,
    transfer: &TransferModel,
    policy: &mut P,
    spec: Run<'_, S, M>,
) -> Result<KernelOutcome, RunError> {
    let (mut workload, mut policy) = dag(graph, platform, policy, transfer);
    kernel::run_checkpointed(platform, &mut workload, &mut policy, spec)
}

/// Execute `plan` over `workload` through the kernel with [`PlanPolicy`].
/// A plan is made for the fault-free model without transfer penalties: it
/// cannot follow a worker that never comes back, nor absorb a penalty it
/// did not price. So a non-empty fault plan or a non-zero `transfer` is
/// [`RunError::InvalidPlan`], before anything is emitted.
fn run_plan<W: Workload, S: TraceSink, M: MetricsRegistry + ?Sized>(
    plan: &Schedule,
    platform: &Platform,
    workload: &mut W,
    transfer: &TransferModel,
    spec: Run<'_, S, M>,
) -> Result<KernelOutcome, RunError> {
    if !spec.faults.is_none() || *transfer != TransferModel::NONE {
        return Err(RunError::InvalidPlan {
            reason: "a static plan is made for the fault-free model: it takes no fault \
                     injection and no transfer penalty"
                .into(),
        });
    }
    let mut policy = PlanPolicy::new(plan, platform);
    kernel::run_checkpointed(platform, workload, &mut policy, spec)
}

/// Report label: the family name, with DualHP's rank.
impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheduler::HeteroPrio(_) => "HeteroPrio",
            Scheduler::DualHp(DualHpRank::Priority, _) => "DualHp",
            Scheduler::DualHp(DualHpRank::Fifo, _) => "DualHpFifo",
            Scheduler::Heft(..) => "Heft",
            Scheduler::PriorityList(_) => "List",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::kernel::metric;
    use heteroprio_metrics::{InMemoryRegistry, NullRegistry};
    use heteroprio_taskgraph::{cholesky, ConstTiming};
    use heteroprio_trace::NullSink;

    /// Kernel events a registry counted.
    fn events(registry: &InMemoryRegistry) -> u64 {
        registry.snapshot().counter(metric::EVENTS_TOTAL).unwrap_or(0)
    }

    #[test]
    fn every_table_entry_round_trips_and_enters_the_kernel() {
        let platform = Platform::new(2, 1);
        let instance = Instance::from_times(&[(3.0, 1.0), (1.0, 2.0), (2.0, 2.0), (4.0, 1.0)]);
        let mut seen: Vec<IndepAlgo> = Vec::new();
        for name in IndepAlgo::NAMES {
            let algo = IndepAlgo::parse(name).unwrap_or_else(|| panic!("{name} does not parse"));
            assert_eq!(algo.name(), name);
            assert_eq!(IndepAlgo::parse(&name.to_uppercase()), Some(algo), "case-insensitive");
            assert!(seen.iter().all(|s| *s != algo && s.label() != algo.label()), "{name}");
            seen.push(algo);
            let registry = InMemoryRegistry::new();
            let mut sink = NullSink;
            let spec = Run::new(&mut sink, &registry);
            let outcome = algo.run(&instance, &platform, HeftVariant::Insertion, spec);
            let schedule = outcome.unwrap_or_else(|e| panic!("{name}: {e}")).schedule;
            schedule.validate(&instance, &platform).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(events(&registry) > 0, "{name}");
        }
        assert_eq!(IndepAlgo::parse("heteroprio"), Some(IndepAlgo::HeteroPrio));
        assert_eq!(IndepAlgo::parse("heteroprio-ns"), Some(IndepAlgo::HeteroPrioNoSpoliation));

        let graph = cholesky(3, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let mut seen: Vec<Scheduler> = Vec::new();
        for name in Scheduler::NAMES {
            let scheduler =
                Scheduler::parse(name).unwrap_or_else(|| panic!("{name} does not parse"));
            assert_eq!(scheduler.name(), name);
            assert_eq!(Scheduler::parse(&name.to_uppercase()), Some(scheduler), "case-insensitive");
            let label = scheduler.to_string();
            assert!(seen.iter().all(|s| *s != scheduler && s.to_string() != label), "{name}");
            seen.push(scheduler);
            let mut ranked = graph.clone();
            scheduler.rank(&mut ranked);
            let registry = InMemoryRegistry::new();
            let mut sink = NullSink;
            let spec = Run::new(&mut sink, &registry);
            let outcome = scheduler.run(&ranked, &platform, &TransferModel::NONE, spec);
            let schedule = outcome.unwrap_or_else(|e| panic!("{name}: {e}")).schedule;
            schedule
                .validate(graph.instance(), &platform)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(events(&registry) > 0, "{name}");
        }
        assert_eq!(Scheduler::parse("heteroprio"), Some(Scheduler::default()));
        // Each table rejects the other's names and garbage.
        for (indep, dag) in [("list", "minmin"), ("dualhp-fifo", "hp-ns"), ("nope", "??")] {
            assert_eq!(IndepAlgo::parse(indep), None);
            assert_eq!(Scheduler::parse(dag), None);
        }
    }

    #[test]
    fn a_plan_refuses_faults_and_transfer_penalties() {
        use heteroprio_core::{FaultPlan, WorkerFault};
        let platform = Platform::new(1, 1);
        let graph = cholesky(2, &ConstTiming { cpu: 3.0, gpu: 1.0 });
        let heft = Scheduler::parse("heft").expect("heft is a table entry");
        let faults =
            FaultPlan { worker_faults: vec![WorkerFault::permanent(0, 1.0)], ..FaultPlan::NONE };
        let mut sink = NullSink;
        let spec = Run { faults: faults.clone(), ..Run::new(&mut sink, &NullRegistry) };
        let err = heft.run(&graph, &platform, &TransferModel::NONE, spec).unwrap_err();
        assert!(err.to_string().contains("fault injection"), "{err}");
        let spec = Run::new(&mut sink, &NullRegistry);
        let err = heft.run(&graph, &platform, &TransferModel::new(1.0), spec).unwrap_err();
        assert!(matches!(err, RunError::InvalidPlan { .. }), "{err}");
        let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
        let err = IndepAlgo::MinMin.run(graph.instance(), &platform, HeftVariant::Insertion, spec);
        assert!(matches!(err, Err(RunError::InvalidPlan { .. })));
    }
}
