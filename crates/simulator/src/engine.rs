//! The discrete-event runtime engine.
//!
//! Simulates a task-based runtime system executing a [`TaskGraph`] on a
//! CPU+GPU platform under an [`OnlinePolicy`]: tasks become ready when their
//! predecessors complete, idle workers ask the policy for work, and policies
//! may spoliate tasks running on the other resource class (abort and
//! restart, losing all progress — the paper's §2.1 mechanism).
//!
//! The event loop itself is the shared kernel in
//! [`heteroprio_core::kernel`]; this module contributes the DAG engine
//! constructor [`dag`]: the availability frontend (dependency release via
//! [`ReadyTracker`], cross-class transfer penalties) and an adapter from
//! [`OnlinePolicy`] to the kernel's policy interface. Faults travel in the
//! kernel's own [`Run::faults`].

use crate::policy::{OnlinePolicy, SimContext, SnapshotOnlinePolicy, TransferModel};
use heteroprio_core::kernel::{
    self, KernelContext, KernelOutcome, KernelPolicy, Pick, Run, SnapshotPolicy, Workload,
};
use heteroprio_core::{ClassId, Platform, Schedule, TaskId, WorkerId, WorkerOrder};
use heteroprio_metrics::NullRegistry;
use heteroprio_taskgraph::{ReadyTracker, TaskGraph};
use heteroprio_trace::{NullSink, TraceSink, TraceSummary};

/// Outcome of a simulated execution.
#[derive(Clone, Debug)]
pub struct SimResult {
    pub schedule: Schedule,
    /// First instant at which a worker asked for work and got none
    /// (derived from the trace summary; kept as a field for compatibility).
    pub first_idle: Option<f64>,
    /// Number of spoliations (derived from the trace summary).
    pub spoliations: usize,
    /// Per-worker time accounting and queue statistics aggregated from the
    /// event stream the engine emitted while running.
    pub summary: TraceSummary,
}

impl SimResult {
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }
}

impl From<KernelOutcome> for SimResult {
    fn from(o: KernelOutcome) -> Self {
        SimResult {
            schedule: o.schedule,
            first_idle: o.first_idle,
            spoliations: o.spoliations,
            summary: o.summary,
        }
    }
}

/// The DAG engine: `graph`'s tasks become ready as their predecessors
/// complete, pay `model`'s cross-class transfer penalty, and are placed by
/// `policy` (initialized here). Returns the (workload, policy) pair for
/// [`kernel::run`] — or [`kernel::run_checkpointed`] when `policy` is a
/// [`SnapshotOnlinePolicy`] — whose [`Run::faults`] injects any faults.
///
/// Policy protocol violations panic in the kernel (they are bugs, not
/// simulated faults).
pub fn dag<'a, P: OnlinePolicy>(
    graph: &'a TaskGraph,
    platform: &Platform,
    policy: &'a mut P,
    model: &'a TransferModel,
) -> (DagWorkload<'a>, PolicyAdapter<'a, P>) {
    policy.init(graph, platform);
    (DagWorkload::new(graph, model), PolicyAdapter { graph, model, policy })
}

/// Run `policy` over `graph` on `platform` to completion.
///
/// Panics on policy protocol violations: picking a task that is not ready,
/// spoliating an idle worker or one of the same class, a spoliation that
/// does not strictly improve the task's completion time, or a deadlock
/// (work remains, nothing runs, and the policy schedules nothing).
pub fn simulate<P: OnlinePolicy>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
) -> SimResult {
    simulate_traced(graph, platform, policy, &TransferModel::NONE, &mut NullSink)
}

/// [`simulate`] under a transfer-cost model (tasks whose inputs were
/// produced on another resource class pay the model's penalty on top of
/// their base time), streaming every scheduler event into `sink`.
///
/// The engine emits [`SchedEvent`](heteroprio_trace::SchedEvent)s for
/// dependency release, starts, completions, spoliations, idle transitions,
/// and policy decisions; with [`NullSink`] the calls compile away and only
/// the cheap per-worker accounting in [`TraceSummary`] remains.
pub fn simulate_traced<P: OnlinePolicy, S: TraceSink>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    sink: &mut S,
) -> SimResult {
    let (mut workload, mut policy) = dag(graph, platform, policy, model);
    let outcome = kernel::run(platform, &mut workload, &mut policy, Run::new(sink, &NullRegistry));
    outcome.expect("a fault-free run fails only on RunError::InstantOverflow").into()
}

/// DAG availability: tasks become ready when their predecessors complete,
/// and durations include the cross-class transfer penalty.
pub struct DagWorkload<'a> {
    graph: &'a TaskGraph,
    tracker: ReadyTracker,
    model: &'a TransferModel,
}

impl<'a> DagWorkload<'a> {
    /// `graph` under `model` for any [`KernelPolicy`], as [`dag`] builds it.
    pub fn new(graph: &'a TaskGraph, model: &'a TransferModel) -> Self {
        DagWorkload { graph, tracker: ReadyTracker::new(graph), model }
    }
}

impl Workload for DagWorkload<'_> {
    fn len(&self) -> usize {
        self.graph.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        self.graph.sources()
    }

    fn on_complete(&mut self, task: TaskId, out: &mut Vec<TaskId>) {
        self.tracker.complete_into(self.graph, task, out);
    }

    /// Duration the engine charges for `task` on class `class`; see
    /// [`TransferModel::effective_time`].
    fn duration(&self, task: TaskId, class: ClassId, ran_kind: &[Option<ClassId>]) -> f64 {
        self.model.effective_time(self.graph, task, class, ran_kind)
    }
}

/// Adapts an [`OnlinePolicy`] (which sees the richer [`SimContext`] with
/// graph and transfer model) to the kernel's policy interface.
pub struct PolicyAdapter<'a, P: OnlinePolicy> {
    graph: &'a TaskGraph,
    model: &'a TransferModel,
    policy: &'a mut P,
}

impl<'a, P: OnlinePolicy> PolicyAdapter<'a, P> {
    fn sim_ctx<'b>(&self, ctx: &'b KernelContext<'b>) -> SimContext<'b>
    where
        'a: 'b,
    {
        SimContext {
            now: ctx.now,
            platform: ctx.platform,
            graph: self.graph,
            running: ctx.running,
            ran_kind: ctx.ran_kind,
            model: self.model,
            alive: ctx.alive,
        }
    }
}

impl<P: OnlinePolicy> KernelPolicy for PolicyAdapter<'_, P> {
    const EMIT_DECISIONS: bool = true;

    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>) {
        let ctx = self.sim_ctx(ctx);
        self.policy.on_ready(tasks, &ctx);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        let ctx = self.sim_ctx(ctx);
        self.policy.pick_task(worker, &ctx).map(|task| Pick { task, queue_end: None })
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        let ctx = self.sim_ctx(ctx);
        self.policy.spoliation_victim(worker, &ctx)
    }

    fn worker_order(&self) -> WorkerOrder {
        self.policy.worker_order()
    }
}

impl<P: SnapshotOnlinePolicy> SnapshotPolicy for PolicyAdapter<'_, P> {
    fn ready_order(&self) -> Vec<TaskId> {
        self.policy.ready_order()
    }

    fn restore(&mut self, ready: &[TaskId], ctx: &KernelContext<'_>) {
        let ctx = self.sim_ctx(ctx);
        self.policy.restore(ready, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::{FaultPlan, Instance, ResourceKind, RetryPolicy, RunError, WorkerFault};
    use heteroprio_taskgraph::{chain, check_precedence, fork_join, DagBuilder, TaskGraph};
    use std::collections::VecDeque;

    /// Minimal FIFO policy: any idle worker takes the oldest ready task.
    struct Fifo {
        queue: VecDeque<TaskId>,
    }

    impl Fifo {
        fn new() -> Self {
            Fifo { queue: VecDeque::new() }
        }
    }

    impl OnlinePolicy for Fifo {
        fn on_ready(&mut self, tasks: &[TaskId], _ctx: &SimContext<'_>) {
            self.queue.extend(tasks);
        }

        fn pick_task(&mut self, _worker: WorkerId, _ctx: &SimContext<'_>) -> Option<TaskId> {
            self.queue.pop_front()
        }
    }

    /// Drive `policy` over `graph` under `plan` through the kernel.
    fn run_plan<P: OnlinePolicy, S: TraceSink>(
        graph: &TaskGraph,
        platform: &Platform,
        policy: &mut P,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> Result<SimResult, RunError> {
        let model = TransferModel::NONE;
        let (mut workload, mut policy) = dag(graph, platform, policy, &model);
        let spec = Run { faults: plan.clone(), ..Run::new(sink, &NullRegistry) };
        Ok(kernel::run(platform, &mut workload, &mut policy, spec)?.into())
    }

    fn run_fifo(graph: &TaskGraph, platform: &Platform) -> SimResult {
        let mut policy = Fifo::new();
        let res = simulate(graph, platform, &mut policy);
        res.schedule.validate(graph.instance(), platform).expect("valid schedule");
        check_precedence(graph, &res.schedule).expect("precedence respected");
        res
    }

    #[test]
    fn chain_executes_serially() {
        let g = chain(5, 2.0, 1.0);
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // GPUs-first order: the single GPU takes every task as it readies.
        assert!(approx_eq(res.makespan(), 5.0), "{}", res.makespan());
    }

    #[test]
    fn fork_join_parallelizes_the_middle() {
        let g = fork_join(4, 1.0, 1.0);
        let plat = Platform::new(2, 2);
        let res = run_fifo(&g, &plat);
        // 1 (fork) + 1 (middle wave of 4 on 4 workers) + 1 (join).
        assert!(approx_eq(res.makespan(), 3.0), "{}", res.makespan());
    }

    #[test]
    fn independent_tasks_spread_over_workers() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0); 8]));
        let plat = Platform::new(2, 2);
        let res = run_fifo(&g, &plat);
        assert!(approx_eq(res.makespan(), 2.0), "{}", res.makespan());
        assert_eq!(res.schedule.runs.len(), 8);
    }

    #[test]
    fn first_idle_recorded_when_starved() {
        let g = chain(3, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // Only one task ready at a time: someone is idle at t=0.
        assert_eq!(res.first_idle, Some(0.0));
    }

    #[test]
    fn policy_spoliation_is_checked_and_recorded() {
        /// Policy: CPU grabs the single task; the GPU then spoliates it.
        struct SpoliateOnce {
            queue: Vec<TaskId>,
        }
        impl OnlinePolicy for SpoliateOnce {
            fn on_ready(&mut self, tasks: &[TaskId], _ctx: &SimContext<'_>) {
                self.queue.extend_from_slice(tasks);
            }
            fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
                if ctx.platform.kind_of(worker) == ResourceKind::Cpu {
                    self.queue.pop()
                } else {
                    None
                }
            }
            fn spoliation_victim(
                &mut self,
                worker: WorkerId,
                ctx: &SimContext<'_>,
            ) -> Option<WorkerId> {
                let kind = ctx.platform.kind_of(worker);
                ctx.running_on(kind.other())
                    .find(|(_, r)| {
                        let t = ctx.graph.instance().task(r.task).time_on(kind);
                        ctx.now + t < r.end
                    })
                    .map(|(w, _)| w)
            }
            fn worker_order(&self) -> WorkerOrder {
                WorkerOrder::CpusFirst
            }
        }
        let g = TaskGraph::independent(Instance::from_times(&[(10.0, 1.0)]));
        let plat = Platform::new(1, 1);
        let mut policy = SpoliateOnce { queue: Vec::new() };
        let res = simulate(&g, &plat, &mut policy);
        res.schedule.validate(g.instance(), &plat).unwrap();
        assert_eq!(res.spoliations, 1);
        assert!(approx_eq(res.makespan(), 1.0));
        assert_eq!(res.schedule.aborted.len(), 1);
        assert_eq!(res.schedule.aborted[0].start, 0.0);
        assert_eq!(res.schedule.aborted[0].end, 0.0);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn picking_unready_task_panics() {
        struct Evil;
        impl OnlinePolicy for Evil {
            fn on_ready(&mut self, _tasks: &[TaskId], _ctx: &SimContext<'_>) {}
            fn pick_task(&mut self, _worker: WorkerId, _ctx: &SimContext<'_>) -> Option<TaskId> {
                Some(TaskId(1)) // the chain's second task is still pending
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let _ = simulate(&g, &plat, &mut Evil);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn refusing_all_work_deadlocks() {
        struct Lazy;
        impl OnlinePolicy for Lazy {
            fn on_ready(&mut self, _tasks: &[TaskId], _ctx: &SimContext<'_>) {}
            fn pick_task(&mut self, _worker: WorkerId, _ctx: &SimContext<'_>) -> Option<TaskId> {
                None
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let _ = simulate(&g, &plat, &mut Lazy);
    }

    #[test]
    fn transfer_penalty_charges_cross_class_edges() {
        // chain a → b with 2 CPUs + 1 GPU... use (1,1): FIFO + GpusFirst
        // puts both tasks on the GPU → no penalty. Force a cross by a policy
        // that alternates classes.
        struct Alternate {
            queue: VecDeque<TaskId>,
            next_cpu: bool,
        }
        impl OnlinePolicy for Alternate {
            fn on_ready(&mut self, tasks: &[TaskId], _ctx: &SimContext<'_>) {
                self.queue.extend(tasks);
            }
            fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
                let kind = ctx.platform.kind_of(worker);
                let want = if self.next_cpu { ResourceKind::Cpu } else { ResourceKind::Gpu };
                if kind == want {
                    let t = self.queue.pop_front()?;
                    self.next_cpu = !self.next_cpu;
                    Some(t)
                } else {
                    None
                }
            }
        }
        let g = chain(3, 2.0, 2.0);
        let plat = Platform::new(1, 1);
        let model = crate::policy::TransferModel::new(0.5);
        let mut policy = Alternate { queue: VecDeque::new(), next_cpu: false };
        let res = simulate_traced(&g, &plat, &mut policy, &model, &mut NullSink);
        // GPU, CPU (+0.5), GPU (+0.5): 2 + 2.5 + 2.5 = 7.
        assert!(approx_eq(res.makespan(), 7.0), "{}", res.makespan());
        res.schedule
            .validate_with_overhead(g.instance(), &plat, model.cross_class_penalty)
            .unwrap();
        // Strict validation must reject the stretched durations.
        assert!(res.schedule.validate(g.instance(), &plat).is_err());
    }

    #[test]
    fn zero_penalty_model_matches_default_simulate() {
        let g = fork_join(6, 2.0, 1.0);
        let plat = Platform::new(2, 2);
        let a = simulate(&g, &plat, &mut Fifo::new()).makespan();
        let b = simulate_traced(&g, &plat, &mut Fifo::new(), &TransferModel::NONE, &mut NullSink)
            .makespan();
        assert!(approx_eq(a, b));
    }

    #[test]
    fn effective_time_reports_penalty_to_policies() {
        // Observe ctx.effective_time from inside a policy after a pred
        // completed on the CPU.
        struct Probe {
            queue: VecDeque<TaskId>,
            observed: Vec<f64>,
        }
        impl OnlinePolicy for Probe {
            fn on_ready(&mut self, tasks: &[TaskId], ctx: &SimContext<'_>) {
                for &t in tasks {
                    self.observed.push(ctx.effective_time(t, ResourceKind::Gpu));
                }
                self.queue.extend(tasks);
            }
            fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
                // CPUs only, so successors always pay the GPU cross penalty.
                (ctx.platform.kind_of(worker) == ResourceKind::Cpu)
                    .then(|| self.queue.pop_front())
                    .flatten()
            }
        }
        let g = chain(2, 1.0, 1.0);
        let plat = Platform::new(1, 1);
        let model = crate::policy::TransferModel::new(0.25);
        let mut policy = Probe { queue: VecDeque::new(), observed: Vec::new() };
        let res = simulate_traced(&g, &plat, &mut policy, &model, &mut NullSink);
        // First task: no preds → 1.0; second: pred ran on CPU → GPU time 1.25.
        assert_eq!(policy.observed, vec![1.0, 1.25]);
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn zero_fault_plan_is_byte_identical() {
        use heteroprio_trace::VecSink;
        let g = fork_join(6, 2.0, 1.0);
        let plat = Platform::new(2, 2);
        let mut base_sink = VecSink::new();
        let base =
            simulate_traced(&g, &plat, &mut Fifo::new(), &TransferModel::NONE, &mut base_sink);
        let mut fault_sink = VecSink::new();
        let faulty =
            run_plan(&g, &plat, &mut Fifo::new(), &FaultPlan::NONE, &mut fault_sink).unwrap();
        assert_eq!(base_sink.events, fault_sink.events);
        assert_eq!(base.schedule.runs, faulty.schedule.runs);
        assert_eq!(base.schedule.aborted, faulty.schedule.aborted);
    }

    #[test]
    fn transient_worker_failure_loses_and_reruns_the_task() {
        // One worker per class; the GPU takes T0 (GPUs first) and dies at
        // t=1 until t=3. T0 re-runs — picked up by the idle CPU at t=1.
        let g = TaskGraph::independent(Instance::from_times(&[(4.0, 2.0)]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::transient(1, 1.0, 2.0)],
            ..FaultPlan::NONE
        };
        let res = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut NullSink).unwrap();
        // CPU run [1, 5].
        assert!(approx_eq(res.makespan(), 5.0), "{}", res.makespan());
        assert_eq!(res.schedule.aborted.len(), 1, "the lost GPU run is recorded");
        assert!(approx_eq(res.schedule.aborted[0].end, 1.0));
        assert_eq!(res.summary.worker_failures, 1);
        assert_eq!(res.summary.worker_recoveries, 1);
        assert!(approx_eq(res.summary.workers[1].downtime, 2.0));
        assert!(approx_eq(res.summary.lost_work, 1.0));
    }

    #[test]
    fn permanent_failure_of_all_gpus_degrades_to_cpus() {
        let g = TaskGraph::independent(Instance::from_times(&[(2.0, 1.0); 6]));
        let plat = Platform::new(2, 2);
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(2, 0.5), WorkerFault::permanent(3, 0.5)],
            ..FaultPlan::NONE
        };
        let res = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut NullSink).unwrap();
        assert_eq!(res.schedule.runs.len(), 6, "all tasks complete despite dead GPUs");
        // Every completed run after t=0.5 is on a CPU.
        for r in &res.schedule.runs {
            if r.start >= 0.5 {
                assert!(r.worker.0 < 2, "task {} ran on dead GPU {}", r.task, r.worker.0);
            }
        }
        assert_eq!(res.summary.worker_failures, 2);
        assert_eq!(res.summary.worker_recoveries, 0);
    }

    #[test]
    fn all_workers_down_is_a_structured_error() {
        let g = TaskGraph::independent(Instance::from_times(&[(10.0, 10.0); 3]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            worker_faults: vec![WorkerFault::permanent(0, 1.0), WorkerFault::permanent(1, 1.0)],
            ..FaultPlan::NONE
        };
        let err = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut NullSink).unwrap_err();
        match err {
            RunError::AllWorkersDown { remaining, .. } => assert_eq!(remaining, 3),
            other => panic!("expected AllWorkersDown, got {other:?}"),
        }
    }

    #[test]
    fn certain_failure_exhausts_the_retry_budget() {
        let g = TaskGraph::independent(Instance::from_times(&[(1.0, 1.0)]));
        let plat = Platform::new(1, 1);
        let plan = FaultPlan {
            task_failure_prob: 1.0,
            retry: RetryPolicy { max_attempts: 3, backoff_base: 0.5, backoff_cap: 2.0 },
            ..FaultPlan::NONE
        };
        let err = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut NullSink).unwrap_err();
        match err {
            RunError::TaskAbandoned { task: 0, attempts: 3, .. } => {}
            other => panic!("expected TaskAbandoned after 3 attempts, got {other:?}"),
        }
    }

    #[test]
    fn retries_eventually_succeed_and_traces_reconcile() {
        use heteroprio_trace::VecSink;
        // Moderate failure probability: some attempts fail, the run still
        // completes, and the summary matches a replay of the event stream.
        let g = TaskGraph::independent(Instance::from_times(&[(2.0, 1.0); 10]));
        let plat = Platform::new(2, 1);
        let plan = FaultPlan {
            task_failure_prob: 0.3,
            exec_jitter: 0.2,
            seed: 42,
            retry: RetryPolicy { max_attempts: 10, backoff_base: 0.25, backoff_cap: 4.0 },
            ..FaultPlan::NONE
        };
        let mut sink = VecSink::new();
        let res = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut sink).unwrap();
        assert_eq!(res.schedule.runs.len(), 10);
        let replay = TraceSummary::from_events(plat.workers(), &sink.events);
        assert_eq!(replay.task_failures, res.summary.task_failures);
        assert_eq!(replay.retries, res.summary.retries);
        assert!(approx_eq(replay.lost_work, res.summary.lost_work));
        // Same seed ⇒ same makespan.
        let again = run_plan(&g, &plat, &mut Fifo::new(), &plan, &mut NullSink).unwrap();
        assert_eq!(res.makespan(), again.makespan());
    }

    #[test]
    fn diamond_wave_order_matches_dependencies() {
        let mut b = DagBuilder::new();
        let a = b.add_task(heteroprio_core::Task::new(1.0, 1.0), "a");
        let c1 = b.add_task(heteroprio_core::Task::new(2.0, 2.0), "b");
        let c2 = b.add_task(heteroprio_core::Task::new(2.0, 2.0), "c");
        let d = b.add_task(heteroprio_core::Task::new(1.0, 1.0), "d");
        b.add_edge(a, c1);
        b.add_edge(a, c2);
        b.add_edge(c1, d);
        b.add_edge(c2, d);
        let g = b.build().unwrap();
        let plat = Platform::new(1, 1);
        let res = run_fifo(&g, &plat);
        // a at [0,1], b and c in parallel [1,3], d at [3,4].
        assert!(approx_eq(res.makespan(), 4.0), "{}", res.makespan());
    }
}
