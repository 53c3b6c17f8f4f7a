//! The submission front-end: register data, submit tasks, run.

use crate::handles::{Access, DataHandle};
use heteroprio_bounds::dag_lower_bound;
use heteroprio_core::kernel::Run;
use heteroprio_core::{Platform, RunError, Schedule, Task, TaskId};
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_simulator::TransferModel;
use heteroprio_taskgraph::{check_precedence, CycleError, DagBuilder, TaskGraph};
use heteroprio_trace::{NullSink, TraceSink, TraceSummary};

/// Which scheduler executes the submitted graph: the DAG table of
/// [`heteroprio_schedulers::table`].
pub use heteroprio_schedulers::Scheduler;

/// Everything the runtime knows after an execution. The event stream goes
/// to the run's sink; pass a `VecSink` to keep it.
#[derive(Clone, Debug)]
pub struct Report {
    pub graph: TaskGraph,
    pub schedule: Schedule,
    pub makespan: f64,
    pub lower_bound: f64,
    pub spoliations: usize,
    /// Per-worker busy/idle/aborted accounting aggregated from the
    /// kernel's event stream, fault counters included.
    pub summary: TraceSummary,
}

impl Report {
    pub fn ratio(&self) -> f64 {
        self.makespan / self.lower_bound
    }
}

/// Why [`Runtime::execute`] returned no report.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The submitted tasks are no runnable graph: a cycle, or no task.
    Submission(String),
    /// The kernel run failed, or stopped at an injected crash
    /// ([`RunError::Crashed`]); a journal then holds the pre-crash prefix.
    Run(RunError),
    /// The finished schedule breaks its structure or a dependency.
    Invalid(String),
}

impl From<RunError> for ExecError {
    fn from(e: RunError) -> Self {
        ExecError::Run(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Submission(why) | ExecError::Invalid(why) => f.write_str(why),
            ExecError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

/// A StarPU-like runtime: data registration, task submission with access
/// modes, sequential-consistency dependency inference, and execution on a
/// simulated CPU+GPU node.
///
/// ```
/// use heteroprio_runtime::{Access, Runtime, Scheduler};
/// use heteroprio_core::{Platform, Task};
///
/// let mut rt = Runtime::new(Platform::new(2, 1));
/// let a = rt.register_data("A");
/// let b = rt.register_data("B");
/// // t0 writes A; t1 reads A and writes B → t1 depends on t0.
/// rt.submit(Task::new(2.0, 1.0), "producer", &[(a, Access::Write)]);
/// rt.submit(Task::new(4.0, 1.0), "consumer", &[(a, Access::Read), (b, Access::Write)]);
/// let report = rt.run(Scheduler::default()).unwrap();
/// assert_eq!(report.makespan, 2.0); // both on the GPU, back to back
/// ```
#[derive(Debug)]
pub struct Runtime {
    platform: Platform,
    builder: DagBuilder,
    data_labels: Vec<&'static str>,
    /// Per handle: the last writer and the readers since that write.
    last_writer: Vec<Option<TaskId>>,
    readers: Vec<Vec<TaskId>>,
    transfer: TransferModel,
}

impl Runtime {
    pub fn new(platform: Platform) -> Self {
        Runtime {
            platform,
            builder: DagBuilder::default(),
            data_labels: Vec::new(),
            last_writer: Vec::new(),
            readers: Vec::new(),
            transfer: TransferModel::NONE,
        }
    }

    /// Set a cross-class transfer penalty (see
    /// [`heteroprio_simulator::TransferModel`]). Zero by default.
    pub fn with_transfer_penalty(mut self, penalty: f64) -> Self {
        self.transfer = TransferModel::new(penalty);
        self
    }

    /// Register a datum (e.g. a tile); its label is used in reports.
    pub fn register_data(&mut self, label: &'static str) -> DataHandle {
        let h = DataHandle(u32::try_from(self.data_labels.len()).expect("too many handles"));
        self.data_labels.push(label);
        self.last_writer.push(None);
        self.readers.push(Vec::new());
        h
    }

    pub fn data_count(&self) -> usize {
        self.data_labels.len()
    }

    pub fn task_count(&self) -> usize {
        self.builder.len()
    }

    /// Submit a task touching the given handles. Dependencies are inferred
    /// for sequential consistency:
    ///
    /// * a **read** depends on the handle's last writer;
    /// * a **write** depends on the last writer *and* on every reader since
    ///   that write (readers run before the value is clobbered);
    /// * concurrent reads do not order among themselves.
    pub fn submit(
        &mut self,
        task: Task,
        name: &'static str,
        accesses: &[(DataHandle, Access)],
    ) -> TaskId {
        let id = self.builder.add_task(task, name);
        for &(h, access) in accesses {
            assert!(h.index() < self.data_labels.len(), "unregistered handle {h:?}");
            let writer = *self.last_writer.get(h.index()).expect("handle range asserted above");
            if access.writes() {
                self.builder.add_edge_opt(writer, id);
                let readers = self.readers.get_mut(h.index()).expect("handle range asserted above");
                for &r in readers.iter() {
                    if r != id {
                        self.builder.add_edge(r, id);
                    }
                }
                readers.clear();
                *self.last_writer.get_mut(h.index()).expect("handle range asserted above") =
                    Some(id);
                if access.reads() {
                    // RW: the task is also the first reader of its own write;
                    // nothing to record (it cannot depend on itself).
                }
            } else {
                self.builder.add_edge_opt(writer, id);
                self.readers.get_mut(h.index()).expect("handle range asserted above").push(id);
            }
        }
        id
    }

    /// Submit every task of a built graph, with its edges: task `t` of
    /// `graph` becomes task `offset + t`, where `offset` is the number of
    /// tasks submitted before. The tasks touch no data handle. Edges are
    /// re-added target by target in predecessor order, so a graph whose
    /// builder added each task's in-edges right after the task (every
    /// generator in `heteroprio_taskgraph` does) comes back identical,
    /// successor and predecessor order included.
    pub fn submit_graph(&mut self, graph: &TaskGraph) {
        let offset = self.builder.len() as u32;
        for t in graph.instance().ids() {
            let id = self.builder.add_task(*graph.instance().task(t), graph.label(t));
            for &p in graph.predecessors(t) {
                self.builder.add_edge(TaskId(offset + p.0), id);
            }
        }
    }

    /// Freeze the submitted graph (without running it).
    pub fn build_graph(self) -> Result<TaskGraph, CycleError> {
        self.builder.build()
    }

    /// Execute everything submitted so far and return the report.
    /// The schedule is validated (structure + precedence) before returning.
    pub fn run(self, scheduler: Scheduler) -> Result<Report, ExecError> {
        self.execute(scheduler, Run::new(&mut NullSink, &NullRegistry))
    }

    /// [`Runtime::run`] under a kernel [`Run`] spec, as
    /// [`Scheduler::run`] takes it: its sink records or audits the event
    /// stream, its registry meters the kernel, and its fault plan, crash
    /// plan, checkpoints and resume apply to the run. Journal a run by
    /// calling this inside [`heteroprio_core::journaled`]. A run under a
    /// fault plan is validated structurally only: jitter perturbs durations
    /// and failures truncate aborted runs.
    pub fn execute<S: TraceSink, M: MetricsRegistry + ?Sized>(
        self,
        scheduler: Scheduler,
        spec: Run<'_, S, M>,
    ) -> Result<Report, ExecError> {
        let Runtime { platform, builder, transfer, .. } = self;
        let mut graph = builder.build().map_err(|e| ExecError::Submission(e.to_string()))?;
        if graph.is_empty() {
            return Err(ExecError::Submission("no tasks were submitted".to_string()));
        }
        scheduler.rank(&mut graph);
        let exact = spec.faults.is_none();
        let outcome = scheduler.run(&graph, &platform, &transfer, spec)?;
        let schedule = outcome.schedule;
        let valid = if exact {
            schedule.validate_with_overhead(
                graph.instance(),
                &platform,
                transfer.cross_class_penalty,
            )
        } else {
            schedule.validate_structure(graph.instance(), &platform)
        };
        valid.map_err(|e| ExecError::Invalid(format!("invalid schedule: {e}")))?;
        check_precedence(&graph, &schedule).map_err(ExecError::Invalid)?;
        Ok(Report {
            makespan: schedule.makespan(),
            spoliations: schedule.spoliation_count(),
            lower_bound: dag_lower_bound(&graph, &platform),
            graph,
            schedule,
            summary: outcome.summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::kernel::{Checkpoints, Resume};
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{journaled, CrashPlan, FaultPlan, WorkerFault};
    use heteroprio_schedulers::{DualHpRank, HeftVariant};
    use heteroprio_taskgraph::WeightScheme;
    use heteroprio_trace::{Journal, MemJournal, SchedEvent, VecSink};

    fn unit(p: f64, q: f64) -> Task {
        Task::new(p, q)
    }

    /// Run `rt` under `scheduler`, recording the event stream.
    fn traced(rt: Runtime, scheduler: Scheduler) -> (Report, Vec<SchedEvent>) {
        let mut sink = VecSink::new();
        let report = rt.execute(scheduler, Run::new(&mut sink, &NullRegistry)).unwrap();
        (report, sink.events)
    }

    #[test]
    fn read_after_write_orders() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        let w = rt.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        let r = rt.submit(unit(1.0, 1.0), "r", &[(a, Access::Read)]);
        let g = rt.build_graph().unwrap();
        assert_eq!(g.predecessors(r), &[w]);
    }

    #[test]
    fn reads_are_concurrent() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        let r1 = rt.submit(unit(1.0, 1.0), "r1", &[(a, Access::Read)]);
        let r2 = rt.submit(unit(1.0, 1.0), "r2", &[(a, Access::Read)]);
        let g = rt.build_graph().unwrap();
        assert!(!g.predecessors(r2).contains(&r1));
        // Both readers depend only on the writer: 1 + 1 = 2 time units.
        let mut rt2 = Runtime::new(Platform::new(2, 2));
        let a = rt2.register_data("a");
        rt2.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        rt2.submit(unit(1.0, 1.0), "r1", &[(a, Access::Read)]);
        rt2.submit(unit(1.0, 1.0), "r2", &[(a, Access::Read)]);
        let report = rt2.run(Scheduler::default()).unwrap();
        assert!(approx_eq(report.makespan, 2.0), "{}", report.makespan);
    }

    #[test]
    fn write_after_read_waits_for_readers() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        let a = rt.register_data("a");
        let w1 = rt.submit(unit(1.0, 1.0), "w1", &[(a, Access::Write)]);
        let r = rt.submit(unit(5.0, 5.0), "r", &[(a, Access::Read)]);
        let w2 = rt.submit(unit(1.0, 1.0), "w2", &[(a, Access::Write)]);
        let g = rt.build_graph().unwrap();
        let mut preds = g.predecessors(w2).to_vec();
        preds.sort();
        assert_eq!(preds, vec![w1, r]);
    }

    #[test]
    fn writers_chain() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        let ids: Vec<_> =
            (0..5).map(|_| rt.submit(unit(1.0, 2.0), "acc", &[(a, Access::ReadWrite)])).collect();
        // Each RW depends exactly on the previous RW.
        let g = rt.builder.clone().build().unwrap();
        for pair in ids.windows(2) {
            assert_eq!(g.predecessors(pair[1]), &[pair[0]]);
        }
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        for _ in 0..5 {
            rt.submit(unit(1.0, 2.0), "acc", &[(a, Access::ReadWrite)]);
        }
        let report = rt.run(Scheduler::default()).unwrap();
        // Fully serial chain, CPU faster (1.0 each).
        assert!(approx_eq(report.makespan, 5.0), "{}", report.makespan);
    }

    #[test]
    fn independent_data_runs_in_parallel() {
        let mut rt = Runtime::new(Platform::new(2, 2));
        for i in 0..4 {
            let h = rt.register_data(if i % 2 == 0 { "x" } else { "y" });
            rt.submit(unit(3.0, 3.0), "job", &[(h, Access::ReadWrite)]);
        }
        let report = rt.run(Scheduler::default()).unwrap();
        assert!(approx_eq(report.makespan, 3.0), "{}", report.makespan);
    }

    #[test]
    fn all_schedulers_run_a_stencil() {
        // A small 1D stencil: u[i] ← f(u[i-1], u[i], u[i+1]) over 3 sweeps.
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let cells: Vec<DataHandle> = (0..6).map(|_| rt.register_data("cell")).collect();
            for _sweep in 0..3 {
                for i in 0..cells.len() {
                    let mut acc = vec![(cells[i], Access::ReadWrite)];
                    if i > 0 {
                        acc.push((cells[i - 1], Access::Read));
                    }
                    if i + 1 < cells.len() {
                        acc.push((cells[i + 1], Access::Read));
                    }
                    rt.submit(unit(2.0, 1.0), "stencil", &acc);
                }
            }
            rt
        };
        for scheduler in [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Avg),
            Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion),
            Scheduler::PriorityList(WeightScheme::Avg),
        ] {
            let report = build().run(scheduler).unwrap();
            assert!(report.makespan >= report.lower_bound - 1e-9, "{scheduler:?}");
            assert_eq!(report.graph.len(), 18);
        }
    }

    #[test]
    fn transfer_penalty_flows_through() {
        let mut rt = Runtime::new(Platform::new(1, 1)).with_transfer_penalty(0.5);
        let a = rt.register_data("a");
        rt.submit(unit(10.0, 1.0), "w", &[(a, Access::Write)]);
        rt.submit(unit(1.0, 10.0), "r", &[(a, Access::Read)]);
        let report = rt.run(Scheduler::HeteroPrio(WeightScheme::Min)).unwrap();
        // GPU runs the first (1.0), CPU the second (1.0 + 0.5 cross penalty).
        assert!(approx_eq(report.makespan, 2.5), "{}", report.makespan);
    }

    #[test]
    fn submit_graph_offsets_ids_past_earlier_submissions() {
        use heteroprio_taskgraph::fork_join;
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "w", &[(a, Access::Write)]);
        rt.submit_graph(&fork_join(2, 1.0, 2.0));
        let g = rt.build_graph().unwrap();
        assert_eq!(g.len(), 5);
        assert!(g.predecessors(TaskId(1)).is_empty(), "graph tasks touch no handle");
        assert_eq!(g.successors(TaskId(1)), &[TaskId(2), TaskId(3)]);
        assert_eq!(g.predecessors(TaskId(4)), &[TaskId(2), TaskId(3)]);
        assert_eq!(g.label(TaskId(4)), "join");
        assert_eq!(g.instance().task(TaskId(4)).times(), &[1.0, 2.0]);
    }

    #[test]
    fn empty_submission_is_an_error() {
        let rt = Runtime::new(Platform::new(1, 1));
        let err = rt.run(Scheduler::default()).unwrap_err();
        assert_eq!(err, ExecError::Submission("no tasks were submitted".to_string()));
    }

    #[test]
    #[should_panic(expected = "unregistered handle")]
    fn unknown_handle_panics() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        rt.submit(unit(1.0, 1.0), "bad", &[(DataHandle(7), Access::Read)]);
    }

    #[test]
    fn faults_flow_through_the_runtime() {
        // 2 CPUs + 1 GPU; the GPU dies early, yet the chain completes.
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let a = rt.register_data("a");
            for _ in 0..6 {
                rt.submit(unit(2.0, 1.0), "step", &[(a, Access::ReadWrite)]);
            }
            rt
        };
        let baseline = build().run(Scheduler::default()).unwrap();
        let faults = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(2, 1.5)],
            ..FaultPlan::default()
        };
        let mut sink = NullSink;
        let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
        let report = build().execute(Scheduler::default(), spec).unwrap();
        assert_eq!(report.summary.worker_failures, 1);
        assert!(report.makespan > baseline.makespan, "losing the GPU must cost time");
        // Every task still completed exactly once.
        assert_eq!(report.schedule.runs.len(), 6);
    }

    #[test]
    fn zero_fault_plan_matches_fault_free_run() {
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let a = rt.register_data("a");
            rt.submit(unit(2.0, 1.0), "w", &[(a, Access::Write)]);
            rt.submit(unit(3.0, 1.0), "r", &[(a, Access::ReadWrite)]);
            rt
        };
        let plain = build().run(Scheduler::default()).unwrap();
        let mut sink = NullSink;
        let spec = Run { faults: FaultPlan::NONE, ..Run::new(&mut sink, &NullRegistry) };
        let faulty = build().execute(Scheduler::default(), spec).unwrap();
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(plain.schedule.runs, faulty.schedule.runs);
    }

    #[test]
    fn crash_and_resume_matches_the_uninterrupted_run() {
        use heteroprio_core::MemCheckpointStore;
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let cells: Vec<DataHandle> = (0..4).map(|_| rt.register_data("c")).collect();
            for _ in 0..3 {
                for &c in &cells {
                    rt.submit(unit(3.0, 1.0), "sweep", &[(c, Access::ReadWrite)]);
                }
            }
            rt
        };
        for scheduler in [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Min),
            Scheduler::PriorityList(WeightScheme::Min),
            Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion),
        ] {
            let (reference, events) = traced(build(), scheduler);
            let total = events.len() as u64;
            for crash_at in [1, total / 2, total] {
                let mut journal = MemJournal::new();
                let mut store = MemCheckpointStore::default();
                let crashed = journaled(&mut journal, &mut NullSink, |sink| {
                    let crash = CrashPlan::at_event(crash_at);
                    let checkpoints = Some(Checkpoints { every: 3, store: &mut store });
                    build().execute(
                        scheduler,
                        Run { crash, checkpoints, ..Run::new(sink, &NullRegistry) },
                    )
                })
                .unwrap();
                assert!(
                    matches!(crashed, Err(ExecError::Run(RunError::Crashed { events, .. })) if events == crash_at),
                    "{crashed:?}"
                );
                assert_eq!(journal.len() as u64, crash_at);
                let recovered = journal.events().to_vec();
                let mut resumed = VecSink::new();
                let report = journaled(&mut journal, &mut resumed, |sink| {
                    let resume =
                        Some(Resume { journal: &recovered, snapshot: store.latest.as_ref() });
                    build().execute(scheduler, Run { resume, ..Run::new(sink, &NullRegistry) })
                })
                .unwrap()
                .unwrap();
                assert_eq!(resumed.events, events, "{scheduler:?} @ {crash_at}");
                assert_eq!(report.schedule.runs, reference.schedule.runs);
                // The journal now holds the full stream again, and both the
                // crashed run and the resume committed their tails.
                assert_eq!(journal.events(), events.as_slice());
                assert!(journal.syncs() >= 2, "final syncs at crash and at resume");
            }
        }
    }

    #[test]
    fn durable_run_without_crash_completes_and_journals_everything() {
        let build = || {
            let mut rt = Runtime::new(Platform::new(1, 1));
            let a = rt.register_data("a");
            for _ in 0..4 {
                rt.submit(unit(2.0, 1.0), "step", &[(a, Access::ReadWrite)]);
            }
            rt
        };
        // HEFT's plan executes in the kernel, so it journals the same way.
        let heft = Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion);
        for scheduler in [Scheduler::default(), heft] {
            let (reference, events) = traced(build(), scheduler);
            let mut journal = MemJournal::new();
            let report = journaled(&mut journal, &mut NullSink, |sink| {
                build().execute(scheduler, Run::new(sink, &NullRegistry))
            })
            .unwrap()
            .expect("no crash was injected");
            assert_eq!(report.schedule.runs, reference.schedule.runs, "{scheduler:?}");
            assert_eq!(journal.events(), events.as_slice(), "{scheduler:?}");
            assert_eq!(journal.syncs(), 1, "completion commits the journal tail");
        }
    }

    #[test]
    fn heft_rejects_fault_injection() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "t", &[(a, Access::Write)]);
        let faults = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(0, 1.0)],
            ..FaultPlan::default()
        };
        let mut sink = NullSink;
        let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
        let err = rt.execute(Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion), spec);
        let err = err.unwrap_err();
        assert!(matches!(err, ExecError::Run(RunError::InvalidPlan { .. })), "{err:?}");
        assert!(err.to_string().contains("fault injection"), "{err}");
    }

    #[test]
    fn heft_rejects_transfer_model() {
        let mut rt = Runtime::new(Platform::new(1, 1)).with_transfer_penalty(1.0);
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "t", &[(a, Access::Write)]);
        let err = rt.run(Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion));
        assert!(err.is_err());
    }
}
