//! The submission front-end: register data, submit tasks, run.

use crate::handles::{Access, DataHandle};
use heteroprio_bounds::dag_lower_bound;
use heteroprio_core::kernel::{Checkpoints, Resume, Run};
use heteroprio_core::{
    journaled, CrashPlan, FaultPlan, Platform, RunError, Schedule, Task, TaskId,
};
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_simulator::TransferModel;
use heteroprio_taskgraph::{check_precedence, CycleError, DagBuilder, TaskGraph};
use heteroprio_trace::{
    Journal, JournalError, NullSink, SchedEvent, TeeSink, TraceSink, TraceSummary, VecSink,
};

/// Which scheduler executes the submitted graph: the DAG table of
/// [`heteroprio_schedulers::table`].
pub use heteroprio_schedulers::Scheduler;

/// Everything the runtime knows after an execution.
#[derive(Clone, Debug)]
pub struct Report {
    pub graph: TaskGraph,
    pub schedule: Schedule,
    pub makespan: f64,
    pub lower_bound: f64,
    pub spoliations: usize,
    /// Per-worker busy/idle/aborted accounting aggregated from the
    /// kernel's event stream.
    pub summary: TraceSummary,
    /// The full event stream; empty unless [`Execution::record`] was set
    /// or the run was journaled.
    pub events: Vec<SchedEvent>,
    /// The fault plan the run executed under ([`FaultPlan::NONE`] for a
    /// fault-free run). Failure/retry/downtime counters live in `summary`.
    pub fault_plan: FaultPlan,
}

impl Report {
    pub fn ratio(&self) -> f64 {
        self.makespan / self.lower_bound
    }
}

/// What [`Runtime::execute`] records and persists besides the schedule:
/// the observation and durability planes of one run. The default is a
/// plain run ([`Runtime::run`]).
pub struct Execution<'e> {
    /// Keep the full event stream in [`Report::events`] (journaled runs
    /// always do).
    pub record: bool,
    /// Where the kernel's perf counters, queue-depth gauges and
    /// pick-latency histograms go.
    pub metrics: &'e dyn MetricsRegistry,
    /// Append the event stream to this journal as it is emitted, and commit
    /// it at the end — on completion, at an injected crash, and after a
    /// resume.
    pub journal: Option<&'e mut dyn Journal>,
    /// Cut the run after the chosen event ([`Outcome::Crashed`]); the
    /// journal then holds exactly the pre-crash prefix.
    pub crash: CrashPlan,
    pub checkpoints: Option<Checkpoints<'e>>,
    /// Continue an interrupted run from its recovered journal (and
    /// snapshot) instead of starting over. Replay is verified
    /// event-for-event: a journal from different inputs is rejected, never
    /// silently accepted. When `journal` is set it must hold exactly the
    /// recovered events; the continuation is appended to it.
    pub resume: Option<Resume<'e>>,
}

impl Default for Execution<'_> {
    fn default() -> Self {
        Execution {
            record: false,
            metrics: &NullRegistry,
            journal: None,
            crash: CrashPlan::NONE,
            checkpoints: None,
            resume: None,
        }
    }
}

impl<'e> Execution<'e> {
    /// Drive one kernel run under this execution. `run` gets the kernel
    /// spec; its sink records the event stream when `record` is set or a
    /// journal is given, tees it into `observer` (a streaming auditor, say)
    /// and appends it to the journal, which [`journaled`] commits at the
    /// end. Returns `run`'s result and the recorded events.
    pub fn drive<R>(
        self,
        observer: Option<&mut dyn TraceSink>,
        run: impl FnOnce(Run<'_, &mut dyn TraceSink, dyn MetricsRegistry + 'e>) -> R,
    ) -> Result<(R, Vec<SchedEvent>), JournalError> {
        let Execution { record, metrics, journal, crash, checkpoints, resume } = self;
        let (mut events, mut null, mut tee) = (VecSink::new(), NullSink, None);
        let recorder: &mut dyn TraceSink =
            if record || journal.is_some() { &mut events } else { &mut null };
        let mut sink: &mut dyn TraceSink = match observer {
            Some(observer) => tee.insert(TeeSink(recorder, observer)),
            None => recorder,
        };
        let result = match journal {
            Some(journal) => journaled(journal, &mut sink, |tee| {
                let mut sink: &mut dyn TraceSink = tee;
                run(Run { crash, checkpoints, resume, ..Run::new(&mut sink, metrics) })
            })?,
            None => run(Run { crash, checkpoints, resume, ..Run::new(&mut sink, metrics) }),
        };
        Ok((result, events.into_events()))
    }
}

/// What an execution produced: its result (a finished [`Report`] for
/// [`Runtime::execute`]), or the injected crash point. On a crash everything
/// emitted before the cut is already in the journal, ready for a resumed
/// run.
#[derive(Debug)]
pub enum Outcome<T = Box<Report>> {
    Completed(T),
    Crashed { time: f64, events: u64 },
}

impl Outcome {
    /// The report, if the run survived to the end.
    pub fn report(self) -> Option<Report> {
        match self {
            Outcome::Completed(r) => Some(*r),
            Outcome::Crashed { .. } => None,
        }
    }
}

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
#[derive(Debug, Default)]
pub struct Runtime {
    platform: Option<Platform>,
    builder: DagBuilder,
    data_labels: Vec<&'static str>,
    /// Per handle: the last writer and the readers since that write.
    last_writer: Vec<Option<TaskId>>,
    readers: Vec<Vec<TaskId>>,
    transfer: TransferModel,
    faults: FaultPlan,
}

impl Runtime {
    pub fn new(platform: Platform) -> Self {
        Runtime { platform: Some(platform), ..Runtime::default() }
    }

    /// Set a cross-class transfer penalty (see
    /// [`heteroprio_simulator::TransferModel`]). Zero by default.
    pub fn with_transfer_penalty(mut self, penalty: f64) -> Self {
        self.transfer = TransferModel::new(penalty);
        self
    }

    /// Execute under a fault plan (worker failures, stochastic runtimes,
    /// task-level failures with retry). HEFT's plan refuses one (see
    /// [`Scheduler::run`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
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
    pub fn run(self, scheduler: Scheduler) -> Result<Report, String> {
        let outcome = self.execute(scheduler, Execution::default())?;
        Ok(outcome.report().expect("no crash plan was given"))
    }

    /// [`Runtime::run`] under an [`Execution`] spec: record the event
    /// stream, meter the kernel, journal, crash on cue, checkpoint, or
    /// resume an interrupted run, under any scheduler.
    pub fn execute(self, scheduler: Scheduler, exec: Execution<'_>) -> Result<Outcome, String> {
        let platform = self.platform.ok_or("runtime has no platform")?;
        let transfer = self.transfer;
        let plan = self.faults;
        let mut graph = self.builder.build().map_err(|e| e.to_string())?;
        if graph.is_empty() {
            return Err("no tasks were submitted".to_string());
        }
        scheduler.rank(&mut graph);
        let (result, events) = exec.drive(None, |spec| {
            scheduler.run(&graph, &platform, &transfer, Run { faults: plan.clone(), ..spec })
        })?;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(RunError::Crashed { time, events }) => {
                return Ok(Outcome::Crashed { time, events })
            }
            Err(e) => return Err(e.to_string()),
        };
        let schedule = outcome.schedule;
        if plan.is_none() {
            schedule
                .validate_with_overhead(graph.instance(), &platform, transfer.cross_class_penalty)
                .map_err(|e| format!("invalid schedule: {e}"))?;
        } else {
            // Jitter perturbs durations and failures truncate aborted runs,
            // so only the duration-agnostic invariants can be enforced.
            schedule
                .validate_structure(graph.instance(), &platform)
                .map_err(|e| format!("invalid schedule: {e}"))?;
        }
        check_precedence(&graph, &schedule)?;
        Ok(Outcome::Completed(Box::new(Report {
            makespan: schedule.makespan(),
            spoliations: schedule.spoliation_count(),
            lower_bound: dag_lower_bound(&graph, &platform),
            graph,
            schedule,
            summary: outcome.summary,
            events,
            fault_plan: plan,
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_schedulers::{DualHpRank, HeftVariant};
    use heteroprio_taskgraph::WeightScheme;

    fn unit(p: f64, q: f64) -> Task {
        Task::new(p, q)
    }

    fn traced() -> Execution<'static> {
        Execution { record: true, ..Execution::default() }
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
        assert!(rt.run(Scheduler::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "unregistered handle")]
    fn unknown_handle_panics() {
        let mut rt = Runtime::new(Platform::new(1, 1));
        rt.submit(unit(1.0, 1.0), "bad", &[(DataHandle(7), Access::Read)]);
    }

    #[test]
    fn faults_flow_through_the_runtime() {
        use heteroprio_core::{FaultPlan, WorkerFault};
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
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(2, 1.5)],
            ..FaultPlan::default()
        };
        let report = build()
            .with_faults(plan.clone())
            .execute(Scheduler::default(), traced())
            .unwrap()
            .report()
            .unwrap();
        assert_eq!(report.fault_plan, plan);
        assert_eq!(report.summary.worker_failures, 1);
        assert!(report.makespan > baseline.makespan, "losing the GPU must cost time");
        // Every task still completed exactly once.
        assert_eq!(report.schedule.runs.len(), 6);
    }

    #[test]
    fn zero_fault_plan_matches_fault_free_run() {
        use heteroprio_core::FaultPlan;
        let build = || {
            let mut rt = Runtime::new(Platform::new(2, 1));
            let a = rt.register_data("a");
            rt.submit(unit(2.0, 1.0), "w", &[(a, Access::Write)]);
            rt.submit(unit(3.0, 1.0), "r", &[(a, Access::ReadWrite)]);
            rt
        };
        let plain = build().run(Scheduler::default()).unwrap();
        let faulty = build().with_faults(FaultPlan::NONE).run(Scheduler::default()).unwrap();
        assert_eq!(plain.makespan, faulty.makespan);
        assert_eq!(plain.schedule.runs, faulty.schedule.runs);
    }

    #[test]
    fn crash_and_resume_matches_the_uninterrupted_run() {
        use heteroprio_core::MemCheckpointStore;
        use heteroprio_trace::MemJournal;
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
            let reference = build().execute(scheduler, traced()).unwrap().report().unwrap();
            let total = reference.events.len() as u64;
            for crash_at in [1, total / 2, total] {
                let mut journal = MemJournal::new();
                let mut store = MemCheckpointStore::default();
                let exec = Execution {
                    journal: Some(&mut journal),
                    crash: CrashPlan::at_event(crash_at),
                    checkpoints: Some(Checkpoints { every: 3, store: &mut store }),
                    ..Execution::default()
                };
                let outcome = build().execute(scheduler, exec).unwrap();
                assert!(matches!(outcome, Outcome::Crashed { events, .. } if events == crash_at));
                assert_eq!(journal.len() as u64, crash_at);
                let recovered = journal.events().to_vec();
                let exec = Execution {
                    resume: Some(Resume { journal: &recovered, snapshot: store.latest.as_ref() }),
                    journal: Some(&mut journal),
                    ..Execution::default()
                };
                let resumed = build().execute(scheduler, exec).unwrap().report().unwrap();
                assert_eq!(resumed.events, reference.events, "{scheduler:?} @ {crash_at}");
                assert_eq!(resumed.schedule.runs, reference.schedule.runs);
                // The journal now holds the full stream again, and both the
                // crashed run and the resume committed their tails.
                assert_eq!(journal.events(), reference.events.as_slice());
                assert!(journal.syncs() >= 2, "final syncs at crash and at resume");
            }
        }
    }

    #[test]
    fn durable_run_without_crash_completes_and_journals_everything() {
        use heteroprio_trace::MemJournal;
        let build = || {
            let mut rt = Runtime::new(Platform::new(1, 1));
            let a = rt.register_data("a");
            for _ in 0..4 {
                rt.submit(unit(2.0, 1.0), "step", &[(a, Access::ReadWrite)]);
            }
            rt
        };
        let reference = build().execute(Scheduler::default(), traced()).unwrap().report().unwrap();
        let mut journal = MemJournal::new();
        let exec = Execution { journal: Some(&mut journal), ..Execution::default() };
        let report = build()
            .execute(Scheduler::default(), exec)
            .unwrap()
            .report()
            .expect("no crash was injected");
        assert_eq!(report.events, reference.events);
        assert_eq!(journal.events(), reference.events.as_slice());
        assert_eq!(journal.syncs(), 1, "completion commits the journal tail");
        // HEFT's plan executes in the kernel, so it journals the same way.
        let heft = Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion);
        let reference = build().execute(heft, traced()).unwrap().report().unwrap();
        let mut journal = MemJournal::new();
        let exec = Execution { journal: Some(&mut journal), ..Execution::default() };
        let report = build().execute(heft, exec).unwrap().report().expect("no crash was injected");
        assert_eq!(report.events, reference.events);
        assert_eq!(journal.events(), reference.events.as_slice());
    }

    #[test]
    fn heft_rejects_fault_injection() {
        use heteroprio_core::{FaultPlan, WorkerFault};
        let mut rt = Runtime::new(Platform::new(1, 1));
        let a = rt.register_data("a");
        rt.submit(unit(1.0, 1.0), "t", &[(a, Access::Write)]);
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(0, 1.0)],
            ..FaultPlan::default()
        };
        let err =
            rt.with_faults(plan).run(Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion));
        assert!(err.unwrap_err().contains("fault injection"));
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
