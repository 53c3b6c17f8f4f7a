//! The HeteroPrio algorithm for a set of independent tasks (Algorithm 1 of
//! the paper), including the spoliation mechanism.
//!
//! Ready tasks sit in a single queue sorted by non-increasing acceleration
//! factor ρ = p/q. An idle GPU pops from the *front* (most GPU-friendly
//! task), an idle CPU pops from the *back*. When the queue is empty, an idle
//! worker examines the tasks currently running on the *other* resource class
//! in decreasing order of expected completion time, and **spoliates** the
//! first one whose completion it can strictly improve: the victim run is
//! aborted (all progress lost — this is not preemption) and the task restarts
//! on the idle worker.
//!
//! Algorithm 1 leaves choices unspecified; the tightness proofs in the
//! paper resolve them adversarially ("consider the following *valid*
//! HeteroPrio schedule"), so two are explicit knobs here:
//!
//! * which idle worker acts first ([`WorkerOrder`]),
//! * the queue order among tasks with equal ρ ([`QueueTieBreak`]).
//!
//! The third, the spoliation order among victims with equal completion
//! time, is fixed: highest priority first, then lowest task id.
//!
//! The event loop itself lives in [`crate::kernel`]; this module contributes
//! Algorithm 1's queue discipline and victim search as one
//! [`HeteroPrioState`]. The independent and release-dates engines drive it
//! through [`HeteroPrioPolicy`], the DAG simulator through
//! `HeteroPrioDagPolicy` in `heteroprio-schedulers`.

use crate::kernel::{
    self, KernelContext, KernelOutcome, KernelPolicy, Pick, Run, RunningTask, SnapshotPolicy,
    Workload,
};
use crate::model::{ClassId, Instance, Platform, TaskId, WorkerId};
use crate::queue::{queue_key, sorted_runs, ClassQueue, PopSide};
use crate::schedule::Schedule;
use crate::time::strictly_less;
use heteroprio_metrics::{MetricsRegistry, NullRegistry};
use heteroprio_trace::{NullSink, QueueEnd, TraceSink, TraceSummary};
use std::collections::VecDeque;

/// Order in which simultaneously idle workers are given the chance to act.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WorkerOrder {
    /// GPUs pick first (the StarPU-like default: serve the scarce, fast
    /// resource first).
    #[default]
    GpusFirst,
    /// CPUs pick first.
    CpusFirst,
    /// Strictly by worker id (CPUs are ids `0..m`, so CPUs first by class).
    ById,
}

/// Ordering of the ready queue among tasks with equal acceleration factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueTieBreak {
    /// The paper's §2.2 rule: among ties with ρ ≥ 1 the highest-priority task
    /// comes first (so GPUs, popping the front, see it first); among ties
    /// with ρ < 1 the lowest-priority task comes first (so CPUs, popping the
    /// back, see the highest priority first).
    #[default]
    Priority,
    /// Stable order: ties keep their instance order. Used by the worst-case
    /// constructions, which pick an adversarial insertion order.
    InsertionOrder,
}

/// Configuration of the unspecified choices in Algorithm 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeteroPrioConfig {
    /// Disable to obtain the pure list schedule `S_HP^NS` of the paper.
    pub disable_spoliation: bool,
    pub worker_order: WorkerOrder,
    pub queue_tie: QueueTieBreak,
}

impl HeteroPrioConfig {
    /// The default configuration, with spoliation enabled.
    pub fn new() -> Self {
        HeteroPrioConfig::default()
    }

    /// The pure list-schedule variant (no spoliation) — the paper's
    /// `S_HP^NS`, and the §3 cautionary tale about list scheduling on
    /// unrelated resources.
    pub fn without_spoliation() -> Self {
        HeteroPrioConfig { disable_spoliation: true, ..Default::default() }
    }
}

/// Outcome of a HeteroPrio run.
#[derive(Clone, Debug)]
pub struct HeteroPrioResult {
    pub schedule: Schedule,
    /// `T_FirstIdle`: the first instant at which some worker found the queue
    /// empty. `None` when every worker was busy until its last completion
    /// (never happens if there are fewer tasks than workers).
    /// Derived from [`TraceSummary::first_idle`].
    pub first_idle: Option<f64>,
    /// Number of successful spoliations. Derived from
    /// [`TraceSummary::spoliation_count`].
    pub spoliations: usize,
    /// Per-worker time accounting and spoliation totals aggregated from the
    /// event stream the run emitted.
    pub summary: TraceSummary,
}

impl HeteroPrioResult {
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }
}

impl From<KernelOutcome> for HeteroPrioResult {
    fn from(o: KernelOutcome) -> Self {
        HeteroPrioResult {
            schedule: o.schedule,
            first_idle: o.first_idle,
            spoliations: o.spoliations,
            summary: o.summary,
        }
    }
}

/// Build the ready queue: non-increasing acceleration factor, ties per
/// `tie`. This is the independent engine's two-class queue, and the
/// reference order the dynamic queues are tested against.
///
/// The order is `queue_key` (ascending `−ρ`, then the tie key, as
/// `total_cmp` integers), then the task id under the priority rule or the
/// position in `ids` under insertion order. It is built from runs of
/// equal keys (`sorted_runs`): under insertion order a run is a stretch
/// of consecutive positions, under the priority rule a stretch of
/// consecutive ids. Only the runs are sorted; each group of equal-key
/// runs is then put in position or id order, which is the per-task order.
/// Input with no runs degenerates to one sorted entry per task.
pub fn sorted_queue(instance: &Instance, ids: &[TaskId], tie: QueueTieBreak) -> VecDeque<TaskId> {
    let key = |id: TaskId| {
        let t = instance.task(id);
        queue_key(tie, t.accel_factor(), t.priority)
    };
    let mut queue = Vec::with_capacity(ids.len());
    match tie {
        QueueTieBreak::InsertionOrder => {
            let mut runs = sorted_runs(ids.iter().enumerate().map(|(pos, &id)| {
                Some((key(id), u32::try_from(pos).expect("queue positions fit u32")))
            }));
            for group in runs.chunk_by_mut(|a, b| a.key == b.key) {
                group.sort_unstable_by_key(|run| run.anchor);
                for run in group {
                    let span = run.span();
                    queue.extend_from_slice(
                        ids.get(span.start as usize..span.end as usize).expect("runs cover ids"),
                    );
                }
            }
        }
        QueueTieBreak::Priority => {
            let runs = sorted_runs(ids.iter().map(|&id| Some((key(id), id.0))));
            for group in runs.chunk_by(|a, b| a.key == b.key) {
                let start = queue.len();
                for run in group {
                    queue.extend(run.span().map(TaskId));
                }
                // Sort the group's ids, not its runs: an id listed twice
                // puts two runs over one id range.
                if group.len() > 1 {
                    queue.get_mut(start..).expect("the group was just pushed").sort_unstable();
                }
            }
        }
    }
    queue.into()
}

/// All tasks of an [`Instance`] ready at time zero, no dependencies.
pub struct IndependentWorkload<'a> {
    instance: &'a Instance,
}

impl<'a> IndependentWorkload<'a> {
    /// `instance` for any [`KernelPolicy`], as [`independent`] builds it.
    pub fn new(instance: &'a Instance) -> Self {
        IndependentWorkload { instance }
    }
}

impl Workload for IndependentWorkload<'_> {
    fn len(&self) -> usize {
        self.instance.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        self.instance.ids().collect()
    }

    fn duration(&self, task: TaskId, class: ClassId, _ran_kind: &[Option<ClassId>]) -> f64 {
        self.instance.task(task).time_on(class)
    }
}

/// HeteroPrio's ready structure.
///
/// The independent engine on the canonical two-class platform keeps
/// Algorithm 1's double-ended queue, built by one [`sorted_queue`] call:
/// on a million-task instance one sort is far cheaper than a million
/// pushes. A task announced later (lost to a worker failure, or retried)
/// is inserted at its key position, after equal keys, so re-sorting the
/// queue reproduces it. Every other engine and width uses the
/// [`ClassQueue`], whose per-class-pair argmax pop degenerates to the same
/// front/back discipline at `k = 2`.
enum ReadyQueue {
    Sorted(VecDeque<TaskId>),
    Classes(Box<ClassQueue>),
}

/// HeteroPrio's queue discipline and victim search, shared by the
/// independent, release-dates and DAG engines. The kernel engines drive it
/// through [`HeteroPrioPolicy`]; the DAG simulator's policy is a shell
/// around it. The instance is passed in by the caller, because the DAG
/// policy only sees it through the simulator's context.
pub struct HeteroPrioState {
    config: HeteroPrioConfig,
    queue: ReadyQueue,
}

impl HeteroPrioState {
    /// A state whose ready tasks go to a [`ClassQueue`] for `k` classes.
    pub fn new(k: usize, config: HeteroPrioConfig) -> Self {
        let queue = ReadyQueue::Classes(Box::new(ClassQueue::new(k, config.queue_tie)));
        HeteroPrioState { config, queue }
    }

    pub fn config(&self) -> HeteroPrioConfig {
        self.config
    }

    /// Queue newly ready tasks of `instance`.
    pub fn announce(&mut self, instance: &Instance, tasks: &[TaskId]) {
        let tie = self.config.queue_tie;
        match &mut self.queue {
            ReadyQueue::Sorted(q) if q.is_empty() => *q = sorted_queue(instance, tasks, tie),
            ReadyQueue::Sorted(q) => {
                // `sorted_queue`'s key; under insertion order it is ρ
                // alone, and the new task goes after its equal keys.
                let key = |id: TaskId| {
                    let t = instance.task(id);
                    let id = (tie == QueueTieBreak::Priority).then_some(id);
                    (queue_key(tie, t.accel_factor(), t.priority), id)
                };
                for &task in tasks {
                    let k = key(task);
                    let pos = q.partition_point(|&u| key(u) <= k);
                    q.insert(pos, task);
                }
            }
            ReadyQueue::Classes(q) => {
                for &task in tasks {
                    q.push(instance, task);
                }
            }
        }
    }

    /// The task for idle `worker`: the end of the queue its class favours.
    /// The [`QueueEnd`] annotation is the auditor's two-class pop-order
    /// certificate, so `k ≥ 3` picks make no claim it could misread.
    pub fn pick(&mut self, platform: &Platform, worker: WorkerId) -> Option<Pick> {
        let class = platform.class_of(worker);
        let (task, side) = match &mut self.queue {
            // Two classes: class 0 takes the decelerated back, class 1 the front.
            ReadyQueue::Sorted(q) if class.index() == 0 => (q.pop_back()?, PopSide::Back),
            ReadyQueue::Sorted(q) => (q.pop_front()?, PopSide::Front),
            ReadyQueue::Classes(q) => q.pop(class)?,
        };
        let queue_end = (platform.k() == 2).then_some(match side {
            PopSide::Front => QueueEnd::Front,
            PopSide::Back => QueueEnd::Back,
        });
        Some(Pick { task, queue_end })
    }

    /// The paper's spoliation victim scan for idle `worker`: tasks running
    /// on *any other* resource class, in decreasing order of expected
    /// completion time (ties: highest priority, then lowest task id — the
    /// paper's DAG-mode rule), first one whose restart strictly improves
    /// its completion.
    /// `duration(task, class)` is what the engine would charge for the
    /// restart. On the two-class platform "any other class" is the paper's
    /// "other resource class"; for `k ≥ 3` the scan is the argmax over the
    /// other classes.
    pub fn victim(
        &self,
        instance: &Instance,
        worker: WorkerId,
        ctx: &KernelContext<'_>,
        duration: impl Fn(TaskId, ClassId) -> f64,
    ) -> Option<WorkerId> {
        if self.config.disable_spoliation {
            return None;
        }
        let my_class = ctx.platform.class_of(worker);
        let mut candidates: Vec<(WorkerId, RunningTask)> = Vec::new();
        for class in ctx.platform.classes().filter(|&c| c != my_class) {
            for v in ctx.platform.workers_of(class) {
                if let Some(r) = ctx.running.get(v.index()).copied().flatten() {
                    candidates.push((v, r));
                }
            }
        }
        candidates.sort_by(|(_, a), (_, b)| {
            b.end.total_cmp(&a.end).then_with(|| {
                let (ta, tb) = (instance.task(a.task), instance.task(b.task));
                tb.priority.total_cmp(&ta.priority).then(a.task.cmp(&b.task))
            })
        });
        candidates
            .into_iter()
            .find(|(_, r)| strictly_less(ctx.now + duration(r.task, my_class), r.end))
            .map(|(v, _)| v)
    }

    /// Ready tasks in queue order. Announcing them to a fresh state
    /// rebuilds this one: the sorted deque re-sorts to itself, and a
    /// [`ClassQueue`] replays its snapshot order.
    pub fn ready_order(&self) -> Vec<TaskId> {
        match &self.queue {
            ReadyQueue::Sorted(q) => q.iter().copied().collect(),
            ReadyQueue::Classes(q) => q.iter().collect(),
        }
    }
}

/// HeteroPrio over the tasks of one [`Instance`], as a [`KernelPolicy`]:
/// the policy of both the independent and the release-dates engine.
pub struct HeteroPrioPolicy<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) state: HeteroPrioState,
}

impl KernelPolicy for HeteroPrioPolicy<'_> {
    fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
        self.state.announce(self.instance, tasks);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        self.state.pick(ctx.platform, worker)
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        let instance = self.instance;
        self.state.victim(instance, worker, ctx, |task, class| instance.task(task).time_on(class))
    }

    fn worker_order(&self) -> WorkerOrder {
        self.state.config.worker_order
    }
}

impl SnapshotPolicy for HeteroPrioPolicy<'_> {
    fn ready_order(&self) -> Vec<TaskId> {
        self.state.ready_order()
    }
}

/// The independent-task engine: every task of `instance` ready at time
/// zero, scheduled by Algorithm 1's queue discipline under `config`. Drive
/// the pair with [`kernel::run`], or with [`kernel::run_checkpointed`] to
/// journal, checkpoint and resume it.
pub fn independent<'a>(
    instance: &'a Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> (IndependentWorkload<'a>, HeteroPrioPolicy<'a>) {
    let state = if platform.k() == 2 {
        HeteroPrioState { config: *config, queue: ReadyQueue::Sorted(VecDeque::new()) }
    } else {
        HeteroPrioState::new(platform.k(), *config)
    };
    (IndependentWorkload::new(instance), HeteroPrioPolicy { instance, state })
}

/// Run HeteroPrio (Algorithm 1) on an instance of independent tasks.
pub fn heteroprio(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> HeteroPrioResult {
    heteroprio_traced(instance, platform, config, &mut NullSink)
}

/// [`heteroprio`] with a trace sink: every scheduling decision is emitted as
/// a [`SchedEvent`](heteroprio_trace::SchedEvent). The run is generic over
/// the sink, so passing [`NullSink`] compiles the tracing away entirely.
pub fn heteroprio_traced<S: TraceSink>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
) -> HeteroPrioResult {
    heteroprio_metered(instance, platform, config, sink, &NullRegistry)
}

/// [`heteroprio_traced`] with a metrics registry: kernel perf counters,
/// queue-depth gauges and pick-latency histograms are recorded into
/// `metrics`. [`NullRegistry`] compiles the instrumentation away, exactly
/// like [`NullSink`] does for tracing.
pub fn heteroprio_metered<S: TraceSink, M: MetricsRegistry + ?Sized>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
    metrics: &M,
) -> HeteroPrioResult {
    let (mut workload, mut policy) = independent(instance, platform, config);
    let spec = Run::new(sink, metrics);
    let outcome = kernel::run(platform, &mut workload, &mut policy, spec);
    outcome.expect("a fault-free run fails only on RunError::InstantOverflow").into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ResourceKind, Task};
    use crate::time::{approx_eq, PHI};

    fn run(instance: &Instance, platform: &Platform) -> HeteroPrioResult {
        let res = heteroprio(instance, platform, &HeteroPrioConfig::new());
        res.schedule.validate(instance, platform).expect("valid schedule");
        res
    }

    #[test]
    fn single_task_runs_on_best_fit_side_of_queue() {
        // One GPU-friendly task: with one CPU and one GPU idle, GPUs-first
        // order hands it to the GPU.
        let inst = Instance::from_times(&[(10.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn gpu_takes_front_cpu_takes_back() {
        // Two tasks, one accelerated (ρ=10), one decelerated (ρ=0.1).
        let inst = Instance::from_times(&[(10.0, 1.0), (1.0, 10.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert!(approx_eq(res.makespan(), 1.0));
        let gpu_run = res.schedule.run_of(TaskId(0)).unwrap();
        assert_eq!(plat.kind_of(gpu_run.worker), ResourceKind::Gpu);
        let cpu_run = res.schedule.run_of(TaskId(1)).unwrap();
        assert_eq!(plat.kind_of(cpu_run.worker), ResourceKind::Cpu);
    }

    #[test]
    fn spoliation_rescues_bad_cpu_assignment() {
        // Two tasks both much faster on GPU. The list phase puts one on the
        // CPU (it never idles while the queue is non-empty); once the GPU
        // finishes its own task it spoliates the CPU's.
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        assert_eq!(res.spoliations, 1);
        assert!(approx_eq(res.makespan(), 2.0), "makespan {}", res.makespan());
        assert_eq!(res.schedule.aborted.len(), 1);
    }

    #[test]
    fn without_spoliation_list_schedule_can_be_terrible() {
        // Same instance without spoliation: CPU grinds for 100 time units.
        let inst = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = heteroprio(&inst, &plat, &HeteroPrioConfig::without_spoliation());
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), 100.0));
    }

    #[test]
    fn theorem8_instance_reaches_phi() {
        // X: (p=φ, q=1), Y: (p=1, q=1/φ); both ρ=φ. Adversarial insertion
        // order [Y, X]: GPU takes Y from the front, CPU takes X from the
        // back. GPU idles at 1/φ but spoliating X would not strictly improve
        // its completion (1/φ + 1 = φ). Makespan φ while OPT = 1.
        let inst = Instance::from_times(&[(1.0, 1.0 / PHI), (PHI, 1.0)]);
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            ..HeteroPrioConfig::new()
        };
        let res = heteroprio(&inst, &plat, &cfg);
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), PHI), "makespan {}", res.makespan());
        assert_eq!(res.spoliations, 0);
    }

    #[test]
    fn theorem8_other_tie_order_is_optimal() {
        // Insertion order [X, Y] instead: GPU takes X, CPU takes Y → OPT = 1.
        let inst = Instance::from_times(&[(PHI, 1.0), (1.0, 1.0 / PHI)]);
        let plat = Platform::new(1, 1);
        let cfg = HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            ..HeteroPrioConfig::new()
        };
        let res = heteroprio(&inst, &plat, &cfg);
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn first_idle_is_recorded() {
        let inst = Instance::from_times(&[(2.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let res = run(&inst, &plat);
        // One of the two workers has nothing to do at t=0.
        assert_eq!(res.first_idle, Some(0.0));
    }

    #[test]
    fn busy_platform_has_late_first_idle() {
        // 2 CPUs + 1 GPU, 3 equal tasks of unit length on each resource:
        // everyone busy until t=1.
        let inst = Instance::from_times(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let plat = Platform::new(2, 1);
        let res = run(&inst, &plat);
        assert_eq!(res.first_idle, Some(1.0));
        assert!(approx_eq(res.makespan(), 1.0));
    }

    #[test]
    fn priority_tie_break_orders_queue_both_ways() {
        // Accelerated ties (ρ=2): higher priority must sit closer to the
        // front. Decelerated ties (ρ=0.5): higher priority closer to the back.
        let mut inst = Instance::new();
        let a = inst.push(Task::new(2.0, 1.0).with_priority(1.0));
        let b = inst.push(Task::new(2.0, 1.0).with_priority(5.0));
        let c = inst.push(Task::new(1.0, 2.0).with_priority(1.0));
        let d = inst.push(Task::new(1.0, 2.0).with_priority(5.0));
        let q = sorted_queue(&inst, &[a, b, c, d], QueueTieBreak::Priority);
        assert_eq!(Vec::from(q), vec![b, a, c, d]);
    }

    #[test]
    fn spoliation_cascade_terminates() {
        // A pathological soup of tasks with wildly asymmetric times; mostly a
        // termination / validity smoke test.
        let inst = Instance::from_times(&[
            (50.0, 1.0),
            (50.0, 1.0),
            (1.0, 50.0),
            (1.0, 50.0),
            (10.0, 10.0),
            (3.0, 7.0),
            (7.0, 3.0),
        ]);
        let plat = Platform::new(2, 2);
        let res = run(&inst, &plat);
        assert!(res.makespan() > 0.0);
    }

    #[test]
    fn all_tasks_complete_exactly_once_many_workers() {
        let tasks: Vec<(f64, f64)> = (1..=40).map(|i| (i as f64, (41 - i) as f64)).collect();
        let inst = Instance::from_times(&tasks);
        let plat = Platform::new(6, 3);
        let res = run(&inst, &plat);
        assert_eq!(res.schedule.runs.len(), 40);
    }

    #[test]
    fn cpus_first_changes_tie_resolution() {
        // With one task and CPUs-first order, the CPU grabs it even though
        // the GPU would be faster; the GPU then spoliates immediately at t=0,
        // so makespan is still the GPU time but with one abort recorded.
        let inst = Instance::from_times(&[(10.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let cfg =
            HeteroPrioConfig { worker_order: WorkerOrder::CpusFirst, ..HeteroPrioConfig::new() };
        let res = heteroprio(&inst, &plat, &cfg);
        res.schedule.validate(&inst, &plat).unwrap();
        assert!(approx_eq(res.makespan(), 1.0));
        assert_eq!(res.spoliations, 1);
    }

    #[test]
    fn late_announcement_lands_at_its_sort_key() {
        // T1 is announced into a non-empty deque (as a task lost to a dead
        // worker is): by id among its equal keys under the priority rule,
        // after them under insertion order. Either way re-sorting the
        // queue, as a restore does, gives the same deque back.
        let inst =
            Instance::from_times(&[(2.0, 1.0), (2.0, 1.0), (1.0, 2.0), (4.0, 1.0), (2.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let ids = |v: &[u32]| v.iter().map(|&i| TaskId(i)).collect::<Vec<_>>();
        for (queue_tie, want) in [
            (QueueTieBreak::Priority, ids(&[3, 0, 1, 4, 2])),
            (QueueTieBreak::InsertionOrder, ids(&[3, 0, 4, 1, 2])),
        ] {
            let config = HeteroPrioConfig { queue_tie, ..HeteroPrioConfig::new() };
            let (_, mut policy) = independent(&inst, &plat, &config);
            policy.state.announce(&inst, &ids(&[0, 2, 3, 4]));
            policy.state.announce(&inst, &ids(&[1]));
            let order = policy.ready_order();
            assert_eq!(order, want, "{queue_tie:?}");
            assert_eq!(Vec::from(sorted_queue(&inst, &order, queue_tie)), order, "{queue_tie:?}");
        }
    }
}
