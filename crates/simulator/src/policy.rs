//! The interface between the runtime engine and an online scheduling policy.
//!
//! The engine owns time, workers and dependency tracking; the policy owns
//! the ready queue(s) and all placement decisions, mirroring how StarPU
//! separates its core from its pluggable schedulers.

use heteroprio_core::{ClassId, Platform, TaskId, WorkerId};
use heteroprio_taskgraph::TaskGraph;

/// A task currently executing on some worker (re-exported from the shared
/// event kernel, which owns the running set).
pub use heteroprio_core::kernel::RunningTask;

/// Optional execution-cost model: a fixed penalty added to a task's
/// duration when at least one predecessor completed on a *different*
/// resource class, approximating the data-transfer cost StarPU would pay to
/// move the input tiles across the PCI bus. The paper's model sets this to
/// zero; the robustness experiments sweep it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferModel {
    pub cross_class_penalty: f64,
}

impl TransferModel {
    pub const NONE: TransferModel = TransferModel { cross_class_penalty: 0.0 };

    pub fn new(cross_class_penalty: f64) -> Self {
        assert!(cross_class_penalty >= 0.0 && cross_class_penalty.is_finite());
        TransferModel { cross_class_penalty }
    }

    /// Time the engine charges for `task` on class `class`: its base time,
    /// plus the penalty when a predecessor completed on another class
    /// (`ran_kind` is indexed by task). With no penalty the predecessor
    /// scan cannot change the result (`base + 0.0 == base`), so it is
    /// skipped.
    #[inline]
    pub fn effective_time(
        &self,
        graph: &TaskGraph,
        task: TaskId,
        class: ClassId,
        ran_kind: &[Option<ClassId>],
    ) -> f64 {
        let base = graph.instance().task(task).time_on(class);
        let cross = self.cross_class_penalty > 0.0
            && graph.predecessors(task).iter().any(
                |p| matches!(ran_kind.get(p.index()).copied().flatten(), Some(c) if c != class),
            );
        if cross {
            base + self.cross_class_penalty
        } else {
            base
        }
    }
}

/// Read-only view of the simulation state handed to policy callbacks.
pub struct SimContext<'a> {
    pub now: f64,
    pub platform: &'a Platform,
    pub graph: &'a TaskGraph,
    /// Indexed by worker; `None` when the worker is idle.
    pub running: &'a [Option<RunningTask>],
    /// Resource class each completed task ran on (`None` if not finished).
    pub ran_kind: &'a [Option<ClassId>],
    /// The active transfer-cost model.
    pub model: &'a TransferModel,
    /// Liveness per worker: `false` while a worker is down after an
    /// injected failure. Dead workers never ask for work, but policies
    /// planning ahead (e.g. packing onto a worker set) must skip them.
    pub alive: &'a [bool],
}

impl SimContext<'_> {
    /// Whether `w` is currently up. Workers are alive unless a fault plan
    /// took them down.
    pub fn is_alive(&self, w: WorkerId) -> bool {
        self.alive.get(w.index()).copied().unwrap_or(false)
    }

    /// Alive workers of one resource class.
    pub fn alive_of(&self, class: impl Into<ClassId>) -> impl Iterator<Item = WorkerId> + '_ {
        self.platform.workers_of(class).filter(|&w| self.is_alive(w))
    }

    /// Running tasks on workers of one resource class.
    pub fn running_on(
        &self,
        class: impl Into<ClassId>,
    ) -> impl Iterator<Item = (WorkerId, RunningTask)> + '_ {
        self.platform
            .workers_of(class)
            .filter_map(|w| self.running.get(w.index()).copied().flatten().map(|r| (w, r)))
    }

    /// Effective execution time of `task` on class `class`, including the
    /// transfer penalty. This is what the engine will charge; policies must
    /// use it for spoliation-improvement checks.
    pub fn effective_time(&self, task: TaskId, class: impl Into<ClassId>) -> f64 {
        self.model.effective_time(self.graph, task, class.into(), self.ran_kind)
    }
}

/// Order in which simultaneously idle workers are offered work.
pub use heteroprio_core::WorkerOrder;

/// An online scheduling policy driven by the runtime engine.
///
/// Contract: a task handed to the policy via [`OnlinePolicy::on_ready`] must
/// eventually be returned (exactly once) from [`OnlinePolicy::pick_task`],
/// unless the engine restarts it itself after a spoliation. The engine
/// asserts these invariants.
pub trait OnlinePolicy {
    /// Called once before the simulation starts.
    fn init(&mut self, graph: &TaskGraph, platform: &Platform) {
        let _ = (graph, platform);
    }

    /// New tasks whose dependencies are all satisfied.
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &SimContext<'_>);

    /// An idle worker asks for work. Returning `None` leaves it idle until
    /// the next event.
    fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId>;

    /// An idle worker with no pick may spoliate a task running on the
    /// *other* resource class: return the victim worker. The engine aborts
    /// the victim's run (progress is lost) and restarts the task on
    /// `worker`. The restart must strictly improve the task's completion
    /// time — the engine enforces this to guarantee progress.
    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<WorkerId> {
        let _ = (worker, ctx);
        None
    }

    /// Order in which simultaneously idle workers are served.
    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::GpusFirst
    }
}

/// An [`OnlinePolicy`] that can be checkpointed and restored — the
/// simulator-side mirror of
/// [`SnapshotPolicy`](heteroprio_core::kernel::SnapshotPolicy). A policy's
/// only legal state is a function of the tasks announced to it, so a
/// snapshot needs just the ready set in the policy's internal order, and
/// restoring is re-announcing that list.
pub trait SnapshotOnlinePolicy: OnlinePolicy {
    /// Ready tasks in the policy's internal queue order (front first).
    fn ready_order(&self) -> Vec<TaskId>;

    /// Rebuild internal state from a snapshot's ready list. The default
    /// re-announces through [`OnlinePolicy::on_ready`]. `init` has already
    /// been called when this runs.
    fn restore(&mut self, ready: &[TaskId], ctx: &SimContext<'_>) {
        self.on_ready(ready, ctx);
    }
}
