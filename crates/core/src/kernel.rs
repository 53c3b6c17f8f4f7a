//! The unified event-driven scheduling kernel.
//!
//! One discrete-event loop drives every execution engine in the workspace:
//! the independent-task HeteroPrio ([`crate::heteroprio()`]), the online
//! release-dates variant ([`crate::online`]) and the DAG/fault simulator
//! (`heteroprio-simulator`). The kernel owns **time** (one pending
//! completion slot per worker, the fault timeline and the retry heap),
//! **worker liveness**, and **trace emission**;
//! everything it does not own is injected through two traits:
//!
//! * a [`Workload`] answers "which tasks exist and when do they become
//!   ready" — all at time zero for independent tasks, at their release
//!   dates for the online variant, on predecessor completion for a DAG;
//! * a [`KernelPolicy`] answers "which task should this idle worker run"
//!   and "which running task should this idle worker spoliate" — the
//!   paper's Algorithm 1 queue discipline, or any pluggable policy.
//!
//! The split mirrors StarPU's core/scheduler separation (§2.1 of the paper):
//! the kernel enforces the protocol (a picked task must be ready, a
//! spoliation must cross resource classes and strictly improve the task's
//! completion time) and the frontends contribute only policy.
//!
//! # Determinism
//!
//! With [`FaultPlan::NONE`] the kernel draws no random numbers and the
//! event stream is a pure function of the workload and policy; the zero
//! fault plan is byte-identical to a fault-free run. Stochastic execution
//! (jitter, task failures) uses a seeded RNG created only when a draw can
//! actually happen.
//!
//! # Errors
//!
//! Every way a run can fail is one [`RunError`]: the plan in
//! [`Run::faults`] is checked against the platform before anything is
//! emitted ([`RunError::InvalidPlan`]), the run itself can lose a task or
//! every worker, an injected crash stops it, and a resume can find the
//! journal or snapshot at odds with the inputs. An event instant past
//! `f64::MAX` is [`RunError::InstantOverflow`], the one fault-free failure.
//!
//! # Durability
//!
//! Determinism is also the recovery story: because every state transition
//! is emitted as a trace event *before* its consequences are acted on, the
//! event stream is a write-ahead journal. A [`Run`] spec injects crashes
//! ([`CrashPlan`]), captures periodic [`KernelSnapshot`]s ([`Checkpoints`])
//! and resumes a crashed run ([`Resume`]) — from a snapshot plus the
//! journal tail, or from the journal alone — verifying the replay
//! event-for-event against the journal before continuing to completion.
//!
//! # Entry points
//!
//! Every engine is a constructor of a (workload, policy) pair, and every
//! run goes through [`run`] with a [`Run`] spec. Capturing checkpoints
//! needs the policy's ready order, so a checkpointed run goes through
//! [`run_checkpointed`], which additionally requires [`SnapshotPolicy`].
//!
//! Crash and resume an independent-task run through a journal:
//!
//! ```
//! use heteroprio_core::kernel::{self, Resume, Run, RunError};
//! use heteroprio_core::{independent, journaled, CrashPlan, HeteroPrioConfig, Instance, Platform};
//! use heteroprio_metrics::NullRegistry;
//! use heteroprio_trace::{MemJournal, NullSink, VecSink};
//!
//! let instance = Instance::from_times(&[(8.0, 1.0), (4.0, 1.0), (2.0, 2.0), (1.0, 4.0)]);
//! let (platform, config) = (Platform::new(2, 1), HeteroPrioConfig::new());
//!
//! // 1. Record a journaled run and kill it after 5 events.
//! let mut journal = MemJournal::new();
//! let (mut workload, mut policy) = independent(&instance, &platform, &config);
//! let crashed = journaled(&mut journal, &mut NullSink, |sink| {
//!     let spec = Run { crash: CrashPlan::at_event(5), ..Run::new(sink, &NullRegistry) };
//!     kernel::run(&platform, &mut workload, &mut policy, spec)
//! })
//! .expect("in-memory journal");
//! assert!(matches!(crashed, Err(RunError::Crashed { events: 5, .. })));
//!
//! // 2. Resume with the same inputs: the 5 journaled events are replayed and
//! //    verified, the continuation is appended, and the journal is committed.
//! let recovered = journal.events().to_vec();
//! let (mut workload, mut policy) = independent(&instance, &platform, &config);
//! let mut stream = VecSink::new();
//! let resume = Some(Resume { journal: &recovered, snapshot: None });
//! journaled(&mut journal, &mut stream, |sink| {
//!     let spec = Run { resume, ..Run::new(sink, &NullRegistry) };
//!     kernel::run(&platform, &mut workload, &mut policy, spec)
//! })
//! .expect("in-memory journal")
//! .expect("the replay matches the journal");
//! assert_eq!(journal.events(), stream.events.as_slice());
//! ```

use crate::durability::{schedule_from_events, CheckpointStore, CrashPlan, KernelSnapshot};
use crate::fault::{expand_timeline, FaultPlan, TimelineEvent};
use crate::heteroprio::WorkerOrder;
use crate::model::{ClassId, Platform, TaskId, WorkerId};
use crate::schedule::{Schedule, TaskRun};
use crate::time::{strictly_less, F64Ord};
use heteroprio_metrics::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, NullRegistry, ScopedTimer, SpanSampler,
};
use heteroprio_trace::{Decision, QueueEnd, SchedEvent, TraceSink, TraceSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending-event slot with nothing pending.
const NOTHING_PENDING: f64 = f64::INFINITY;

/// Names under which the kernel reports its metrics, for consumers that
/// read registry snapshots by name (the CLI's `--metrics` report, the perf
/// harness, tests).
pub mod metric {
    /// Run events dispatched by the main loop (completions + failures).
    pub const EVENTS_TOTAL: &str = "kernel_events_total";
    /// Trace events pushed through the emission funnel. Cross-checked
    /// against `TraceSummary::events_recorded` to catch dropped events.
    pub const TRACE_EVENTS_TOTAL: &str = "kernel_trace_events_total";
    /// Tasks announced into the ready set (retries re-announce).
    pub const READY_PUSHES_TOTAL: &str = "kernel_ready_pushes_total";
    /// Successful policy picks out of the ready set.
    pub const READY_POPS_TOTAL: &str = "kernel_ready_pops_total";
    /// Successful spoliation aborts.
    pub const SPOLIATIONS_TOTAL: &str = "kernel_spoliations_total";
    /// Retry backoffs scheduled after failed attempts.
    pub const RETRIES_TOTAL: &str = "kernel_retries_total";
    /// Tasks completed.
    pub const TASKS_COMPLETED_TOTAL: &str = "kernel_tasks_completed_total";
    /// Current ready-set size (snapshot also carries `…_peak`).
    pub const READY_DEPTH: &str = "kernel_ready_depth";
    /// Pending completion/failure events, set at every task start
    /// (snapshot also carries `…_peak`). A worker has at most one, so this
    /// never exceeds the worker count.
    pub const EVENT_HEAP_DEPTH: &str = "kernel_event_heap_depth";
    /// Latency of a single `KernelPolicy::pick` call, nanoseconds, sampled
    /// 1-in-[`SAMPLE_EVERY`](heteroprio_metrics::SAMPLE_EVERY): the count
    /// is ⌈pick calls / 16⌉.
    pub const PICK_NS: &str = "kernel_pick_ns";
    /// Wall time of one assignment fixpoint, nanoseconds, sampled like
    /// [`PICK_NS`].
    pub const ASSIGN_NS: &str = "kernel_assign_ns";
    /// Wall time of the whole kernel run, nanoseconds.
    pub const RUN_NS: &str = "kernel_run_ns";
}

/// A task currently executing on some worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunningTask {
    pub task: TaskId,
    pub start: f64,
    /// Expected completion time (estimate-based even under jitter: policies
    /// and spoliation decisions compare estimates, the pending event
    /// carries reality).
    pub end: f64,
}

/// How one kernel run failed: the one error type of every engine, for the
/// run itself, its fault plan and its recovery.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// A task exhausted its attempt budget; the run cannot complete.
    TaskAbandoned { task: u32, attempts: u32, time: f64 },
    /// Every worker is down with no recovery scheduled while tasks remain.
    AllWorkersDown { time: f64, remaining: usize },
    /// An injected [`CrashPlan`] fired: the kernel "died" at simulated
    /// time `time` after emitting `events` trace events. Recovery
    /// continues via a [`Resume`] run.
    Crashed { time: f64, events: u64 },
    /// The fault plan is malformed or names a worker the platform lacks.
    /// The run emitted nothing.
    InvalidPlan { reason: String },
    /// The snapshot is internally inconsistent or does not match the
    /// supplied workload/platform.
    BadSnapshot(String),
    /// Replay emitted a different event than the journal recorded at
    /// `index` — the workload, policy, or fault plan differs from the
    /// recorded run.
    Divergence { index: usize, expected: SchedEvent, got: SchedEvent },
    /// Replay completed but produced fewer events than the journal holds —
    /// the journal belongs to a longer (different) run.
    ShortReplay { produced: usize, journaled: usize },
    /// Starting `task` on `worker` at `time`, or retrying it, would put an
    /// event past `f64::MAX`; nothing at that instant was emitted.
    InstantOverflow { task: u32, worker: u32, time: f64 },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskAbandoned { task, attempts, time } => {
                write!(f, "task {task} abandoned after {attempts} failed attempts at t={time}")
            }
            RunError::AllWorkersDown { time, remaining } => {
                write!(f, "all workers down at t={time} with {remaining} tasks remaining")
            }
            RunError::Crashed { time, events } => {
                write!(f, "injected crash at t={time} after {events} events")
            }
            RunError::InvalidPlan { reason } => write!(f, "invalid fault plan: {reason}"),
            RunError::BadSnapshot(why) => write!(f, "bad snapshot: {why}"),
            RunError::Divergence { index, expected, got } => write!(
                f,
                "replay diverged from the journal at event {index}: journal has {expected:?}, \
                 replay produced {got:?} (workload/policy/faults differ from the recorded run?)"
            ),
            RunError::ShortReplay { produced, journaled } => write!(
                f,
                "replay finished after {produced} events but the journal holds {journaled} \
                 (journal belongs to a different run?)"
            ),
            RunError::InstantOverflow { task, worker, time } => {
                write!(f, "task {task} on worker {worker} at t={time:e}: an instant overflows")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Starting `task` on `w` at `now` would put an event past `f64::MAX`.
#[cold]
fn overflow(task: TaskId, w: WorkerId, now: f64) -> RunError {
    RunError::InstantOverflow { task: task.0, worker: w.0, time: now }
}

/// Everything a kernel run carries besides the platform, the workload and
/// the policy. [`Run::new`] gives a fresh, fault-free run; set the other
/// fields with struct-update syntax. The run is generic over the sink and
/// the registry, so [`NullSink`](heteroprio_trace::NullSink) and
/// [`NullRegistry`] compile tracing and metrics away entirely.
pub struct Run<'r, S: TraceSink, M: MetricsRegistry + ?Sized = NullRegistry> {
    /// Checked against the platform before the run emits anything.
    pub faults: FaultPlan,
    /// Receives every emitted event; on resume, the journaled prefix too.
    pub sink: &'r mut S,
    pub metrics: &'r M,
    pub crash: CrashPlan,
    /// Checkpoint cadence and store; only [`run_checkpointed`] takes them.
    pub checkpoints: Option<Checkpoints<'r>>,
    /// Continue a journaled run instead of starting at t = 0.
    pub resume: Option<Resume<'r>>,
}

impl<'r, S: TraceSink, M: MetricsRegistry + ?Sized> Run<'r, S, M> {
    /// A fresh, fault-free run without crash, checkpoints or resume.
    pub fn new(sink: &'r mut S, metrics: &'r M) -> Self {
        Run {
            faults: FaultPlan::NONE,
            sink,
            metrics,
            crash: CrashPlan::NONE,
            checkpoints: None,
            resume: None,
        }
    }
}

/// Capture a [`KernelSnapshot`] every `every` emitted events into `store`.
/// Checkpoints are taken at quiescent points (after the assignment
/// fixpoint) and saved best-effort: the journal stays the authoritative
/// recovery source, so a failed save is latched in the store rather than
/// aborting the run. The store type is `'static` so that the spec stays
/// covariant: a [`Run`] may then borrow its sink for less time than the
/// store.
pub struct Checkpoints<'c> {
    pub every: u64,
    pub store: &'c mut (dyn CheckpointStore + 'static),
}

/// The recovered record of a crashed run.
///
/// The caller re-supplies the same platform, workload, policy and fault
/// model as the recorded run; the kernel re-derives everything else.
/// Without a snapshot the whole journaled prefix deterministically
/// re-executes; with one, execution restarts at the snapshot instant and
/// only the tail past it re-executes. Either way every re-emitted event
/// inside the journaled range is checked against the journal record — a
/// mismatch means the inputs differ from the recorded run and yields
/// [`RunError::Divergence`] instead of silent corruption. A snapshot
/// taken *after* the last surviving journal record (its tail was lost with
/// the page cache) is unusable and is ignored in favor of journal-only
/// replay.
///
/// The sink receives the full event stream from t = 0: the journaled
/// prefix verbatim, then the continuation's events as they are produced.
/// When appending the resumed run to the same journal, see
/// [`journaled`](crate::durability::journaled).
#[derive(Clone, Copy, Debug)]
pub struct Resume<'j> {
    pub journal: &'j [SchedEvent],
    pub snapshot: Option<&'j KernelSnapshot>,
}

/// One counter's tally for the run.
struct Tally {
    id: CounterId,
    n: u64,
}

/// One gauge's last value and peak for the run; `last` is `None` until the
/// run first sets it, so a run that never does leaves the gauge alone.
struct Level {
    id: GaugeId,
    last: Option<u64>,
    peak: u64,
}

impl Level {
    fn set(&mut self, value: u64) {
        self.last = Some(value);
        self.peak = self.peak.max(value);
    }
}

/// The kernel's metering, run-granular: counters and gauges accumulate
/// into plain per-run tallies and reach the registry in one batch when the
/// meter drops with the kernel. Every exit of a run drops it: completion,
/// an engine error, an injected crash, a resume divergence and a
/// policy-contract panic. The pick and assign spans time one call in
/// [`SAMPLE_EVERY`](heteroprio_metrics::SAMPLE_EVERY); the run span times
/// every run. Each update sits behind [`MetricsRegistry::is_enabled`], so
/// under [`NullRegistry`] the tallies compile away.
struct Meter<'m, M: MetricsRegistry + ?Sized> {
    m: &'m M,
    events_total: Tally,
    trace_events: Tally,
    ready_pushes: Tally,
    ready_pops: Tally,
    spoliations: Tally,
    retries: Tally,
    tasks_completed: Tally,
    ready_depth: Level,
    heap_depth: Level,
    pick_ns: HistogramId,
    assign_ns: HistogramId,
    run_ns: HistogramId,
    picks: SpanSampler,
    assigns: SpanSampler,
}

impl<'m, M: MetricsRegistry + ?Sized> Meter<'m, M> {
    fn new(m: &'m M) -> Self {
        let tally = |name| Tally { id: m.counter(name), n: 0 };
        let level = |name| Level { id: m.gauge(name), last: None, peak: 0 };
        Meter {
            m,
            events_total: tally(metric::EVENTS_TOTAL),
            trace_events: tally(metric::TRACE_EVENTS_TOTAL),
            ready_pushes: tally(metric::READY_PUSHES_TOTAL),
            ready_pops: tally(metric::READY_POPS_TOTAL),
            spoliations: tally(metric::SPOLIATIONS_TOTAL),
            retries: tally(metric::RETRIES_TOTAL),
            tasks_completed: tally(metric::TASKS_COMPLETED_TOTAL),
            ready_depth: level(metric::READY_DEPTH),
            heap_depth: level(metric::EVENT_HEAP_DEPTH),
            pick_ns: m.histogram(metric::PICK_NS),
            assign_ns: m.histogram(metric::ASSIGN_NS),
            run_ns: m.histogram(metric::RUN_NS),
            picks: SpanSampler::default(),
            assigns: SpanSampler::default(),
        }
    }

    /// One run event (a completion or a failure) dispatched.
    #[inline]
    fn dispatched(&mut self) {
        if self.m.is_enabled() {
            self.events_total.n += 1;
        }
    }

    /// One trace event through the emission funnel.
    #[inline]
    fn traced(&mut self) {
        if self.m.is_enabled() {
            self.trace_events.n += 1;
        }
    }

    /// `tasks` announced, leaving the ready set at `depth`.
    #[inline]
    fn pushed(&mut self, tasks: u64, depth: u64) {
        if self.m.is_enabled() {
            self.ready_pushes.n += tasks;
            self.ready_depth.set(depth);
        }
    }

    /// One pick out of the ready set, leaving it at `depth`.
    #[inline]
    fn popped(&mut self, depth: u64) {
        if self.m.is_enabled() {
            self.ready_pops.n += 1;
            self.ready_depth.set(depth);
        }
    }

    /// A task started, with `in_flight` events now pending.
    #[inline]
    fn started(&mut self, in_flight: u64) {
        if self.m.is_enabled() {
            self.heap_depth.set(in_flight);
        }
    }

    #[inline]
    fn spoliated(&mut self) {
        if self.m.is_enabled() {
            self.spoliations.n += 1;
        }
    }

    #[inline]
    fn retried(&mut self) {
        if self.m.is_enabled() {
            self.retries.n += 1;
        }
    }

    #[inline]
    fn completed(&mut self) {
        if self.m.is_enabled() {
            self.tasks_completed.n += 1;
        }
    }
}

impl<M: MetricsRegistry + ?Sized> Drop for Meter<'_, M> {
    /// Publish the run's tallies. A gauge gets its peak, then its last
    /// value, so the registry ends with the value and the high-water mark
    /// that per-event recording would have left.
    fn drop(&mut self) {
        if !self.m.is_enabled() {
            return;
        }
        let m = self.m;
        for t in [
            &self.events_total,
            &self.trace_events,
            &self.ready_pushes,
            &self.ready_pops,
            &self.spoliations,
            &self.retries,
            &self.tasks_completed,
        ] {
            m.inc_by(t.id, t.n);
        }
        for l in [&self.ready_depth, &self.heap_depth] {
            if let Some(last) = l.last {
                m.gauge_set(l.id, l.peak);
                m.gauge_set(l.id, last);
            }
        }
    }
}

/// What the kernel hands back after a completed run.
#[derive(Clone, Debug)]
pub struct KernelOutcome {
    pub schedule: Schedule,
    /// `T_FirstIdle`: first instant at which a worker asked for work and got
    /// none (from the trace summary).
    pub first_idle: Option<f64>,
    /// Number of successful spoliations (from the trace summary).
    pub spoliations: usize,
    /// Per-worker time accounting aggregated from the emitted event stream;
    /// already finished.
    pub summary: TraceSummary,
}

/// Task availability source: the kernel asks it which tasks exist, which are
/// ready initially, which arrive over time, and what a task costs on a
/// resource class.
pub trait Workload {
    /// Total number of tasks; the run ends when this many completed.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tasks ready at time zero, in announcement order.
    fn initial(&mut self) -> Vec<TaskId>;

    /// Time of the next externally-scheduled arrival (release date), if any.
    /// Dependency releases are *not* arrivals — they flow through
    /// [`Workload::on_complete`].
    fn next_arrival(&self) -> Option<f64> {
        None
    }

    /// Consume every arrival due at or before `now`: append them to `out`
    /// (handed over empty) in announcement order. The kernel's loop passes
    /// a pooled buffer, so a workload with arrivals allocates nothing per
    /// event.
    fn arrivals_due(&mut self, now: f64, out: &mut Vec<TaskId>) {
        let _ = (now, out);
    }

    /// `task` completed: append the tasks this makes ready to `out` (handed
    /// over empty) — dependency release for DAG workloads, nothing
    /// otherwise. Called once per completion with a pooled buffer.
    fn on_complete(&mut self, task: TaskId, out: &mut Vec<TaskId>) {
        let _ = (task, out);
    }

    /// Duration the kernel charges for `task` on class `class`. `ran_kind`
    /// records the class each completed task ran on, so DAG workloads can
    /// charge cross-class transfer penalties.
    fn duration(&self, task: TaskId, class: ClassId, ran_kind: &[Option<ClassId>]) -> f64;
}

/// Read-only view of the kernel state handed to policy callbacks.
pub struct KernelContext<'a> {
    pub now: f64,
    pub platform: &'a Platform,
    /// Indexed by worker; `None` when the worker is idle.
    pub running: &'a [Option<RunningTask>],
    /// Resource class each completed task ran on (`None` if not finished).
    pub ran_kind: &'a [Option<ClassId>],
    /// Liveness per worker: `false` while a worker is down.
    pub alive: &'a [bool],
}

/// A successful pick: the task to start, and — when the policy implements
/// the paper's double-ended queue — which end it came off, so the kernel
/// emits the `QueuePop` trace event the auditor's pop-order rule checks.
#[derive(Clone, Copy, Debug)]
pub struct Pick {
    pub task: TaskId,
    /// `Some(end)` emits `QueuePop`; `None` (generic policies) emits only
    /// the `PolicyDecision` when [`KernelPolicy::EMIT_DECISIONS`] is set.
    pub queue_end: Option<QueueEnd>,
}

/// A scheduling policy driven by the kernel.
///
/// Contract: a task announced via [`KernelPolicy::on_ready`] must eventually
/// be returned (exactly once) from [`KernelPolicy::pick`], unless the kernel
/// restarts it itself after a spoliation. The kernel asserts the protocol:
/// picked tasks must be ready, spoliations must cross resource classes,
/// target a busy worker, and strictly improve the task's completion time.
pub trait KernelPolicy {
    /// Whether the trace carries `PolicyDecision` events: the DAG
    /// simulator's vocabulary. The independent-task engines speak
    /// `QueuePop` instead.
    const EMIT_DECISIONS: bool = false;

    /// New tasks whose availability condition is satisfied.
    fn on_ready(&mut self, tasks: &[TaskId], ctx: &KernelContext<'_>);

    /// An idle worker asks for work. Returning `None` leaves it idle until
    /// the next event.
    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick>;

    /// An idle worker with no pick may spoliate a task running on the
    /// *other* resource class: return the victim worker.
    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<WorkerId> {
        let _ = (worker, ctx);
        None
    }

    /// Order in which simultaneously idle workers are served.
    fn worker_order(&self) -> WorkerOrder {
        WorkerOrder::GpusFirst
    }
}

/// A [`KernelPolicy`] that can be checkpointed and restored.
///
/// The only state a kernel policy may legally hold is a function of the
/// tasks announced to it (and the public kernel context), so a snapshot
/// needs just the ready set *in the policy's internal order* — restoring
/// is re-announcing that list. Policies whose queue position depends on
/// announcement order (insertion-ordered ties, FIFO sequence numbers)
/// are exact under this protocol precisely because the order is preserved.
pub trait SnapshotPolicy: KernelPolicy {
    /// Ready tasks in the policy's internal queue order (front first).
    fn ready_order(&self) -> Vec<TaskId>;

    /// Rebuild internal state from a snapshot's ready list. The default
    /// re-announces through [`KernelPolicy::on_ready`]; override only if
    /// the policy carries state that announcement cannot reconstruct.
    fn restore(&mut self, ready: &[TaskId], ctx: &KernelContext<'_>) {
        self.on_ready(ready, ctx);
    }
}

/// Lifecycle state of one task, exposed for
/// [`KernelSnapshot`] serialization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    Pending,
    Ready,
    Running,
    /// Lost to a worker failure or waiting out a retry backoff; will be
    /// re-announced as ready.
    Waiting,
    Done,
}

/// Drive `policy` over `workload` on `platform` to completion, under the
/// faults, crash plan and resume source of `spec`. A fault plan that
/// fails [`FaultPlan::validate`] is [`RunError::InvalidPlan`], returned
/// before the sink sees any event.
///
/// Panics on policy protocol violations: picking a task that is not ready,
/// spoliating an idle worker or one of the same class, a spoliation that
/// does not strictly improve the task's completion time, or a deadlock
/// (work remains, nothing runs, and the policy schedules nothing). Also
/// panics if `spec.checkpoints` is set: capturing a checkpoint needs the
/// policy's ready order, which only [`run_checkpointed`] can ask for. A
/// resumed snapshot's ready list is re-announced through
/// [`KernelPolicy::on_ready`] (the default [`SnapshotPolicy::restore`]).
pub fn run<W: Workload, P: KernelPolicy, S: TraceSink, M: MetricsRegistry + ?Sized>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    spec: Run<'_, S, M>,
) -> Result<KernelOutcome, RunError> {
    assert!(spec.checkpoints.is_none(), "checkpoints need a SnapshotPolicy: use run_checkpointed");
    drive(platform, workload, policy, spec, |_| Vec::new(), P::on_ready)
}

/// [`run`] for a [`SnapshotPolicy`]: also captures the checkpoints of
/// `spec`, and restores a resumed snapshot through
/// [`SnapshotPolicy::restore`].
pub fn run_checkpointed<
    W: Workload,
    P: SnapshotPolicy,
    S: TraceSink,
    M: MetricsRegistry + ?Sized,
>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    spec: Run<'_, S, M>,
) -> Result<KernelOutcome, RunError> {
    drive(platform, workload, policy, spec, P::ready_order, P::restore)
}

/// The policy's ready order, captured into each checkpoint.
type ReadyOrder<P> = fn(&P) -> Vec<TaskId>;

/// Re-seeds the policy with a restored snapshot's ready list.
type Restore<P> = fn(&mut P, &[TaskId], &KernelContext<'_>);

fn drive<W: Workload, P: KernelPolicy, S: TraceSink, M: MetricsRegistry + ?Sized>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    spec: Run<'_, S, M>,
    ready_order: ReadyOrder<P>,
    restore: Restore<P>,
) -> Result<KernelOutcome, RunError> {
    let Run { faults, sink, metrics, crash, mut checkpoints, resume } = spec;
    faults.validate(platform)?;
    let Resume { journal, snapshot } = resume.unwrap_or(Resume { journal: &[], snapshot: None });
    let snap = snapshot.filter(|s| (s.events_seen as usize) <= journal.len());
    let (prefix, tail) = journal.split_at(snap.map_or(0, |s| s.events_seen as usize));
    // The forwarded prefix counts toward the trace-event metric so the
    // counter always equals "events delivered to the sink", whether they
    // came from the journal or from live execution.
    if !prefix.is_empty() {
        metrics.inc_by(metrics.counter(metric::TRACE_EVENTS_TOTAL), prefix.len() as u64);
    }
    for e in prefix {
        sink.emit(*e);
    }
    let mut kernel = Kernel::new(platform, workload.len(), faults, metrics, sink);
    kernel.crash_at = crash.at_event;
    kernel.expected = tail;
    let run_result = match snap {
        Some(s) => kernel
            .restore_from(s, prefix, workload, policy, restore)
            .map_err(RunError::BadSnapshot)
            .and_then(|()| {
                kernel.run_inner(workload, policy, Some(s.now), &mut checkpoints, ready_order)
            }),
        None => kernel.run_inner(workload, policy, None, &mut checkpoints, ready_order),
    };
    let (verified, mismatch) = (kernel.verified, kernel.mismatch);
    let outcome = kernel.finish();
    if let Some((i, got)) = mismatch {
        return Err(RunError::Divergence { index: prefix.len() + i, expected: tail[i], got });
    }
    run_result?;
    if verified < tail.len() {
        let produced = prefix.len() + verified;
        return Err(RunError::ShortReplay { produced, journaled: journal.len() });
    }
    Ok(outcome)
}

/// The smallest pending instant. Slots are never NaN, so a compare-select
/// is `f64::min`; four independent lanes replace one dependent chain of
/// minima, because this scan runs once per completion instant.
fn min_slot(slots: &[f64]) -> f64 {
    let lesser = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [NOTHING_PENDING; 4];
    let mut chunks = slots.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &at) in lanes.iter_mut().zip(chunk) {
            *lane = lesser(*lane, at);
        }
    }
    chunks.remainder().iter().chain(&lanes).fold(NOTHING_PENDING, |min, &at| lesser(min, at))
}

/// Pooled scratch buffers for the steady-state loop. The fixpoint's idle
/// lists, the per-completion release list and the retry/arrival batches
/// are taken from this arena and returned cleared after use, so once the
/// pool is warm the event loop stops hitting the allocator entirely
/// (previously every fixpoint iteration and every completion allocated
/// fresh `Vec`s).
#[derive(Debug, Default)]
struct Scratch {
    /// Recycled between the fixpoint's consumed `idle` list and the
    /// `still_idle` list it builds (the two rotate roles each iteration).
    workers_a: Vec<WorkerId>,
    /// Holds spoliation victims (`newly_idle`) within one fixpoint pass.
    workers_b: Vec<WorkerId>,
    /// Successors released by a completion.
    released: Vec<TaskId>,
    /// Retry expiries / workload arrivals due at the current instant.
    due: Vec<TaskId>,
}

/// The one discrete-event loop in the workspace. Owns time, the pending
/// completion slots, the fault timeline and retry heap, worker liveness,
/// and trace emission.
struct Kernel<'a, S: TraceSink, M: MetricsRegistry + ?Sized> {
    platform: &'a Platform,
    ran_kind: Vec<Option<ClassId>>,
    state: Vec<TaskState>,
    running: Vec<Option<RunningTask>>,
    /// Per-worker abort counters. Only checkpoints read them: a snapshot
    /// encodes each pending event as `(time, worker, generation)`.
    generation: Vec<u64>,
    /// Each worker's pending completion/failure instant, or
    /// [`NOTHING_PENDING`]. A worker starts a task only when idle, and an
    /// abort clears the slot, so one slot per worker holds every live
    /// event.
    pending: Vec<f64>,
    /// The earliest pending instant, or `None` once the slot that held it
    /// was cleared; the next read rescans.
    earliest: Option<f64>,
    /// Workers with an event pending (the [`metric::EVENT_HEAP_DEPTH`]
    /// gauge).
    in_flight: u64,
    idle: Vec<WorkerId>,
    completed: usize,
    schedule: Schedule,
    sink: &'a mut S,
    summary: TraceSummary,
    /// Guards duplicate `WorkerIdleBegin` across fixpoint iterations.
    idle_announced: Vec<bool>,
    /// Liveness per worker (all `true` without a fault timeline).
    alive: Vec<bool>,
    /// Whether the pending event of a worker's current run is a failure.
    will_fail: Vec<bool>,
    /// Failed attempts per task.
    failures: Vec<u32>,
    /// The validated plan's task-failure, jitter and retry settings.
    faults: FaultPlan,
    /// The plan's worker faults as down/up instants, sorted by time
    /// (failures before recoveries at equal instants).
    timeline: Vec<TimelineEvent>,
    /// Cursor into `timeline`.
    timeline_pos: usize,
    /// Pending retries as `(ready_time, task)`.
    retries: BinaryHeap<Reverse<(F64Ord, u32)>>,
    /// Present iff the model draws random numbers (jitter or task
    /// failures); `None` keeps the zero model byte-identical to a
    /// fault-free run.
    rng: Option<StdRng>,
    /// Metric handles and the run's tallies (all no-ops under
    /// [`NullRegistry`]); they publish when the kernel drops.
    meter: Meter<'a, M>,
    /// Current ready-set size, mirrored into the [`metric::READY_DEPTH`]
    /// gauge.
    ready_depth: u64,
    /// Trace events emitted so far (= journal length when journaling).
    emitted: u64,
    /// Injected crash point: die after this many emitted events.
    crash_at: Option<u64>,
    /// Latched once the crash point is reached; from then on the kernel
    /// emits nothing (the journal ends exactly at the crash) and the run
    /// aborts with [`RunError::Crashed`].
    crashed: bool,
    /// Simulated time at which the crash fired.
    crashed_time: f64,
    /// Emission count at the last checkpoint.
    last_checkpoint: u64,
    /// On resume, the journaled events past the restore point: every
    /// re-emitted event is checked against them (empty for a fresh run).
    expected: &'a [SchedEvent],
    /// Re-emitted events checked against `expected` so far.
    verified: usize,
    /// The first disagreement with the journal, latched because emission
    /// cannot fail mid-run: (index into `expected`, event produced).
    mismatch: Option<(usize, SchedEvent)>,
    /// Reusable buffers for the hot loop (see [`Scratch`]).
    scratch: Scratch,
}

impl<'a, S: TraceSink, M: MetricsRegistry + ?Sized> Kernel<'a, S, M> {
    fn new(
        platform: &'a Platform,
        tasks: usize,
        faults: FaultPlan,
        metrics: &'a M,
        sink: &'a mut S,
    ) -> Self {
        let summary = if sink.is_enabled() {
            TraceSummary::with_timeline(platform.workers())
        } else {
            TraceSummary::new(platform.workers())
        };
        let stochastic = faults.exec_jitter > 0.0 || faults.task_failure_prob > 0.0;
        let rng = stochastic.then(|| StdRng::seed_from_u64(faults.seed));
        Kernel {
            platform,
            ran_kind: vec![None; tasks],
            state: vec![TaskState::Pending; tasks],
            running: vec![None; platform.workers()],
            generation: vec![0; platform.workers()],
            pending: vec![NOTHING_PENDING; platform.workers()],
            earliest: Some(NOTHING_PENDING),
            in_flight: 0,
            idle: platform.all_workers().collect(),
            completed: 0,
            schedule: Schedule::new(),
            sink,
            summary,
            idle_announced: vec![false; platform.workers()],
            alive: vec![true; platform.workers()],
            will_fail: vec![false; platform.workers()],
            failures: vec![0; tasks],
            timeline: expand_timeline(&faults, platform.workers()),
            faults,
            timeline_pos: 0,
            retries: BinaryHeap::new(),
            rng,
            meter: Meter::new(metrics),
            ready_depth: 0,
            emitted: 0,
            crash_at: None,
            crashed: false,
            crashed_time: 0.0,
            last_checkpoint: 0,
            expected: &[],
            verified: 0,
            mismatch: None,
            scratch: Scratch::default(),
        }
    }

    /// The finished run's outcome, summarized from the emitted events. The
    /// meter publishes the run's metrics as the rest of the kernel drops.
    fn finish(self) -> KernelOutcome {
        let mut summary = self.summary;
        summary.finish();
        KernelOutcome {
            schedule: self.schedule,
            first_idle: summary.first_idle,
            spoliations: summary.spoliation_count,
            summary,
        }
    }

    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        // A fired crash silences the funnel: the journal holds exactly the
        // events emitted before the "process died", like a real crash.
        if self.crashed {
            return;
        }
        self.meter.traced();
        self.summary.record(&event);
        if let Some(want) = self.expected.get(self.verified) {
            if self.mismatch.is_none() && *want != event {
                self.mismatch = Some((self.verified, event));
            }
            self.verified += 1;
        }
        self.sink.emit(event);
        self.emitted = self.emitted.checked_add(1).expect("u64 event counter never saturates");
        if self.crash_at == Some(self.emitted) {
            self.crashed = true;
            self.crashed_time = event.time();
        }
    }

    #[inline]
    fn crash_check(&self) -> Result<(), RunError> {
        if self.crashed {
            Err(RunError::Crashed { time: self.crashed_time, events: self.emitted })
        } else {
            Ok(())
        }
    }

    fn context(&self, now: f64) -> KernelContext<'_> {
        KernelContext {
            now,
            platform: self.platform,
            running: &self.running,
            ran_kind: &self.ran_kind,
            alive: &self.alive,
        }
    }

    fn announce_ready<P: KernelPolicy>(&mut self, policy: &mut P, tasks: &[TaskId], now: f64) {
        if tasks.is_empty() {
            return;
        }
        for &t in tasks {
            debug_assert!(
                matches!(self.state[t.index()], TaskState::Pending | TaskState::Waiting),
                "announcing {t} in state {:?}",
                self.state[t.index()]
            );
            self.state[t.index()] = TaskState::Ready;
            self.emit(SchedEvent::TaskReady { time: now, task: t.0 });
        }
        self.ready_depth += tasks.len() as u64;
        self.meter.pushed(tasks.len() as u64, self.ready_depth);
        policy.on_ready(tasks, &self.context(now));
    }

    /// Start `task` on idle worker `w`; `false`, with nothing emitted, if
    /// either of the run's instants would not be finite.
    #[must_use]
    fn start<W: Workload>(&mut self, workload: &W, w: WorkerId, task: TaskId, now: f64) -> bool {
        let estimate = workload.duration(task, self.platform.class_of(w), &self.ran_kind);
        let end = now + estimate;
        // The policy decides on the estimate; the pending event carries
        // reality: a jittered duration, cut short at the failure point if
        // this attempt is doomed. Draw order (jitter, then failure) is
        // fixed so traces are reproducible per seed. Without draws the
        // event is at `end`, so one finiteness test covers both instants.
        let (mut event_at, mut will_fail) = (end, false);
        if let Some(rng) = self.rng.as_mut() {
            let mut actual = estimate;
            let j = self.faults.exec_jitter;
            if j > 0.0 {
                let (lo, hi) = ((1.0f64 / (1.0 + j)).ln(), (1.0f64 + j).ln());
                let u: f64 = rng.random_range(0.0..1.0);
                actual = estimate * (lo + u * (hi - lo)).exp();
            }
            event_at = now + actual;
            let p = self.faults.task_failure_prob;
            if p > 0.0 && rng.random_bool(p) {
                let frac: f64 = rng.random_range(0.0..1.0);
                (event_at, will_fail) = (now + frac * actual, true);
            }
            if !end.is_finite() {
                return false;
            }
        }
        if !event_at.is_finite() {
            return false;
        }
        if self.idle_announced[w.index()] {
            self.idle_announced[w.index()] = false;
            self.emit(SchedEvent::WorkerIdleEnd { time: now, worker: w.0 });
        }
        self.emit(SchedEvent::TaskStart {
            time: now,
            task: task.0,
            worker: w.0,
            expected_end: end,
        });
        self.running[w.index()] = Some(RunningTask { task, start: now, end });
        self.will_fail[w.index()] = will_fail;
        self.state[task.index()] = TaskState::Running;
        let slot = self.pending.get_mut(w.index()).expect("worker ids index the slots");
        debug_assert!(!slot.is_finite(), "worker {} started {task} with an event pending", w.0);
        *slot = event_at;
        self.earliest = self.earliest.map(|t| t.min(event_at));
        self.in_flight += 1;
        self.meter.started(self.in_flight);
        true
    }

    /// Clear `w`'s pending event: it is being dispatched, or its run was
    /// aborted.
    fn clear_pending(&mut self, w: WorkerId) {
        let slot = self.pending.get_mut(w.index()).expect("worker ids index the slots");
        let at = std::mem::replace(slot, NOTHING_PENDING);
        if at.is_finite() {
            self.in_flight -= 1;
            if self.earliest == Some(at) {
                self.earliest = None;
            }
        }
    }

    /// The earliest pending instant ([`NOTHING_PENDING`] if none),
    /// rescanning the slots only after the cached one was cleared.
    fn earliest_pending(&mut self) -> f64 {
        *self.earliest.get_or_insert_with(|| min_slot(&self.pending))
    }

    /// The first worker at or after `from` whose run ends at `now`.
    fn next_due(&self, from: usize, now: f64) -> Option<WorkerId> {
        let offset = self.pending.get(from..)?.iter().position(|&at| at == now)?;
        Some(WorkerId((from + offset) as u32))
    }

    fn worker_sort_key(&self, order: WorkerOrder, w: WorkerId) -> (u16, u32) {
        let class = self.platform.class_of(w);
        // Class rank generalizes the two-class keys exactly: GpusFirst is
        // descending class index (accelerators first — on k = 2 the GPU
        // pool), CpusFirst ascending.
        let rank = match order {
            WorkerOrder::GpusFirst => (self.platform.k() - 1 - class.index()) as u16,
            WorkerOrder::CpusFirst => class.index() as u16,
            WorkerOrder::ById => 0,
        };
        (rank, w.0)
    }

    fn assign_fixpoint<W: Workload, P: KernelPolicy>(
        &mut self,
        workload: &W,
        policy: &mut P,
        now: f64,
    ) -> Result<(), RunError> {
        let m = self.meter.m;
        let _assign_span = ScopedTimer::sampled(m, self.meter.assign_ns, &mut self.meter.assigns);
        loop {
            let order = policy.worker_order();
            let mut idle = std::mem::take(&mut self.idle);
            idle.sort_by_key(|&w| self.worker_sort_key(order, w));
            let mut acted = false;
            // Arena: the consumed idle list and the still-idle list it
            // builds rotate between two pooled buffers; spoliation victims
            // borrow a third. No allocation once the pool is warm.
            let mut still_idle = std::mem::take(&mut self.scratch.workers_a);
            let mut newly_idle = std::mem::take(&mut self.scratch.workers_b);
            debug_assert!(still_idle.is_empty() && newly_idle.is_empty());
            for &w in &idle {
                // The context's shared borrows conflict with emitting, so
                // the policy is consulted first and events follow.
                let pick_span = ScopedTimer::sampled(m, self.meter.pick_ns, &mut self.meter.picks);
                let (picked, victim) = {
                    let ctx = self.context(now);
                    let pick = policy.pick(w, &ctx);
                    drop(pick_span);
                    match pick {
                        Some(pick) => (Some(pick), None),
                        None => (None, policy.spoliation_victim(w, &ctx)),
                    }
                };
                if let Some(pick) = picked {
                    let task = pick.task;
                    assert_eq!(
                        self.state[task.index()],
                        TaskState::Ready,
                        "policy picked {task}, which is not ready"
                    );
                    // A pop without a matching push is a kernel invariant
                    // violation (double pop / missed announce). Saturating
                    // here would silently pin the gauge at zero and hide
                    // the accounting bug, so underflow fails loudly like
                    // the other protocol asserts above.
                    self.ready_depth = self
                        .ready_depth
                        .checked_sub(1)
                        .expect("kernel invariant violated: ready_depth underflow on pop");
                    self.meter.popped(self.ready_depth);
                    if let Some(end) = pick.queue_end {
                        self.emit(SchedEvent::QueuePop {
                            time: now,
                            task: task.0,
                            worker: w.0,
                            end,
                        });
                    }
                    if P::EMIT_DECISIONS {
                        self.emit(SchedEvent::PolicyDecision {
                            time: now,
                            worker: w.0,
                            decision: Decision::Pick(task.0),
                        });
                    }
                    if !self.start(workload, w, task, now) {
                        return Err(overflow(task, w, now));
                    }
                    acted = true;
                    continue;
                }
                // The idle transition is announced before the spoliation
                // outcome: T_FirstIdle counts the instant a worker found no
                // ready work, including workers that then steal (§2.1).
                let went_idle = !self.idle_announced[w.index()];
                if went_idle {
                    self.idle_announced[w.index()] = true;
                    self.emit(SchedEvent::WorkerIdleBegin { time: now, worker: w.0 });
                }
                if let Some(victim) = victim {
                    let my_class = self.platform.class_of(w);
                    assert_ne!(
                        self.platform.class_of(victim),
                        my_class,
                        "spoliation must cross resource classes"
                    );
                    let r = self.running[victim.index()]
                        .take()
                        .expect("policy spoliated an idle worker");
                    let new_end = now + workload.duration(r.task, my_class, &self.ran_kind);
                    assert!(
                        strictly_less(new_end, r.end),
                        "spoliation of {} must strictly improve completion ({new_end} vs {})",
                        r.task,
                        r.end
                    );
                    self.generation[victim.index()] += 1;
                    self.clear_pending(victim);
                    self.schedule.aborted.push(TaskRun {
                        task: r.task,
                        worker: victim,
                        start: r.start,
                        end: now,
                    });
                    if P::EMIT_DECISIONS {
                        self.emit(SchedEvent::PolicyDecision {
                            time: now,
                            worker: w.0,
                            decision: Decision::Spoliate(victim.0),
                        });
                    }
                    self.emit(SchedEvent::Spoliation {
                        time: now,
                        task: r.task.0,
                        victim: victim.0,
                        thief: w.0,
                        wasted_work: now - r.start,
                    });
                    self.meter.spoliated();
                    if !self.start(workload, w, r.task, now) {
                        return Err(overflow(r.task, w, now));
                    }
                    newly_idle.push(victim);
                    acted = true;
                    continue;
                }
                if went_idle && P::EMIT_DECISIONS {
                    self.emit(SchedEvent::PolicyDecision {
                        time: now,
                        worker: w.0,
                        decision: Decision::Idle,
                    });
                }
                still_idle.push(w);
            }
            self.idle = still_idle;
            self.idle.append(&mut newly_idle);
            idle.clear();
            self.scratch.workers_a = idle;
            self.scratch.workers_b = newly_idle;
            if !acted {
                return Ok(());
            }
        }
    }

    fn complete<W: Workload, P: KernelPolicy>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        w: WorkerId,
        now: f64,
    ) {
        let r = self.running[w.index()].take().expect("completion on idle worker");
        self.meter.completed();
        self.emit(SchedEvent::TaskComplete { time: now, task: r.task.0, worker: w.0 });
        self.schedule.runs.push(TaskRun { task: r.task, worker: w, start: r.start, end: now });
        self.state[r.task.index()] = TaskState::Done;
        self.ran_kind[r.task.index()] = Some(self.platform.class_of(w));
        self.completed += 1;
        self.idle.push(w);
        let mut released = std::mem::take(&mut self.scratch.released);
        debug_assert!(released.is_empty());
        workload.on_complete(r.task, &mut released);
        self.announce_ready(policy, &released, now);
        released.clear();
        self.scratch.released = released;
    }

    /// A worker's current run ended: either it completed or — if the start
    /// drew a failure — the attempt failed partway through.
    fn finish_run<W: Workload, P: KernelPolicy>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        w: WorkerId,
        now: f64,
    ) -> Result<(), RunError> {
        let doomed = self.will_fail.get_mut(w.index()).expect("a dispatched worker id is in range");
        if std::mem::take(doomed) {
            self.task_fail(w, now)
        } else {
            self.complete(workload, policy, w, now);
            Ok(())
        }
    }

    /// A task attempt failed on `w`: progress is lost, the worker goes back
    /// to the idle pool, and the task retries after a backoff — unless its
    /// attempt budget is exhausted.
    fn task_fail(&mut self, w: WorkerId, now: f64) -> Result<(), RunError> {
        let r = self
            .running
            .get_mut(w.index())
            .and_then(Option::take)
            .expect("a failing attempt runs on its worker");
        let failures =
            self.failures.get_mut(r.task.index()).expect("a running task id is in range");
        *failures += 1;
        let attempt = *failures;
        self.emit(SchedEvent::TaskFailed {
            time: now,
            task: r.task.0,
            worker: w.0,
            lost_work: now - r.start,
            attempt,
        });
        self.schedule.aborted.push(TaskRun { task: r.task, worker: w, start: r.start, end: now });
        *self.state.get_mut(r.task.index()).expect("a running task id is in range") =
            TaskState::Waiting;
        self.idle.push(w);
        if attempt >= self.faults.retry.max_attempts {
            return Err(RunError::TaskAbandoned { task: r.task.0, attempts: attempt, time: now });
        }
        let delay = self.faults.retry.delay_after(attempt);
        let retry_at = now + delay;
        if !retry_at.is_finite() {
            return Err(overflow(r.task, w, now));
        }
        self.meter.retried();
        self.emit(SchedEvent::TaskRetry { time: now, task: r.task.0, attempt, delay });
        self.retries.push(Reverse((F64Ord::new(retry_at), r.task.0)));
        Ok(())
    }

    /// `e`'s worker fails. Its id passed [`FaultPlan::validate`], so it
    /// indexes every per-worker vector.
    fn worker_down<P: KernelPolicy>(&mut self, policy: &mut P, e: TimelineEvent, now: f64) {
        const VALID: &str = "a validated plan names only platform workers";
        let w = WorkerId(e.worker);
        if !std::mem::replace(self.alive.get_mut(w.index()).expect(VALID), false) {
            return;
        }
        self.idle.retain(|&x| x != w);
        // The summary closes the open idle interval at the WorkerDown
        // event itself; no separate IdleEnd is emitted for a dead worker.
        *self.idle_announced.get_mut(w.index()).expect(VALID) = false;
        let lost = self.running.get_mut(w.index()).expect(VALID).take();
        *self.will_fail.get_mut(w.index()).expect(VALID) = false;
        *self.generation.get_mut(w.index()).expect(VALID) += 1;
        self.clear_pending(w);
        self.emit(SchedEvent::WorkerDown {
            time: now,
            worker: w.0,
            lost_task: lost.map(|r| r.task.0),
            permanent: e.permanent,
        });
        if let Some(r) = lost {
            self.schedule.aborted.push(TaskRun {
                task: r.task,
                worker: w,
                start: r.start,
                end: now,
            });
            // The in-flight task re-enters the ready set immediately at its
            // original priority; lost progress is not a retry attempt.
            *self.state.get_mut(r.task.index()).expect("a running task id is in range") =
                TaskState::Waiting;
            self.announce_ready(policy, &[r.task], now);
        }
    }

    /// `e`'s worker recovers; its id is validated as in
    /// [`Kernel::worker_down`].
    fn worker_up(&mut self, e: TimelineEvent, now: f64) {
        const VALID: &str = "a validated plan names only platform workers";
        let w = WorkerId(e.worker);
        if std::mem::replace(self.alive.get_mut(w.index()).expect(VALID), true) {
            return;
        }
        self.emit(SchedEvent::WorkerUp { time: now, worker: w.0 });
        self.idle.push(w);
        *self.idle_announced.get_mut(w.index()).expect(VALID) = false;
    }

    /// Apply every timeline event due at or before `now`.
    fn process_faults_at<P: KernelPolicy>(&mut self, policy: &mut P, now: f64) {
        while let Some(&e) = self.timeline.get(self.timeline_pos) {
            if e.time > now {
                break;
            }
            self.timeline_pos += 1;
            if e.up {
                self.worker_up(e, now);
            } else {
                self.worker_down(policy, e, now);
            }
        }
    }

    /// Re-announce every task whose retry backoff expired at `now`.
    fn process_retries_at<P: KernelPolicy>(&mut self, policy: &mut P, now: f64) {
        let mut due = std::mem::take(&mut self.scratch.due);
        debug_assert!(due.is_empty());
        while let Some(&Reverse((F64Ord(t), task))) = self.retries.peek() {
            if t > now {
                break;
            }
            self.retries.pop();
            due.push(TaskId(task));
        }
        self.announce_ready(policy, &due, now);
        due.clear();
        self.scratch.due = due;
    }

    /// Earliest pending instant across run completions/failures, the fault
    /// timeline, retry expiries, and workload arrivals.
    fn next_time<W: Workload>(&mut self, workload: &W) -> Option<f64> {
        let pending = self.earliest_pending();
        let mut next = pending.is_finite().then_some(pending);
        if let Some(e) = self.timeline.get(self.timeline_pos) {
            next = Some(next.map_or(e.time, |t| t.min(e.time)));
        }
        if let Some(&Reverse((F64Ord(t), _))) = self.retries.peek() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        if let Some(t) = workload.next_arrival() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        next
    }

    /// Save a checkpoint at a quiescent point (post-fixpoint) when the
    /// cadence is due. Best-effort: a failed save stays latched in the
    /// store.
    fn checkpoint<P: KernelPolicy>(
        &mut self,
        checkpoints: &mut Option<Checkpoints<'_>>,
        policy: &P,
        ready_order: ReadyOrder<P>,
        now: f64,
    ) {
        let Some(c) = checkpoints else { return };
        if self.crashed || self.emitted.saturating_sub(self.last_checkpoint) < c.every {
            return;
        }
        let _ = c.store.save(&self.snapshot_of(ready_order(policy), now));
        self.last_checkpoint = self.emitted;
    }

    /// The main loop, parameterized for durability: `resume_at` skips the
    /// t=0 prologue and picks up at a restored snapshot's time.
    fn run_inner<W: Workload, P: KernelPolicy>(
        &mut self,
        workload: &mut W,
        policy: &mut P,
        resume_at: Option<f64>,
        checkpoints: &mut Option<Checkpoints<'_>>,
        ready_order: ReadyOrder<P>,
    ) -> Result<(), RunError> {
        let _run_span = ScopedTimer::start(self.meter.m, self.meter.run_ns);
        let total = workload.len();
        let mut now = resume_at.unwrap_or(0.0);
        if resume_at.is_none() {
            let initial = workload.initial();
            self.announce_ready(policy, &initial, now);
            self.process_faults_at(policy, now);
            let assigned = self.assign_fixpoint(workload, policy, now);
            self.crash_check()?;
            assigned?;
            self.checkpoint(checkpoints, policy, ready_order, now);
        }
        while self.completed < total {
            let Some(t) = self.next_time(workload) else {
                if self.alive.iter().any(|&a| a) {
                    panic!("deadlock: tasks remain but nothing is running (policy bug?)");
                }
                return Err(RunError::AllWorkersDown {
                    time: now,
                    remaining: total - self.completed,
                });
            };
            debug_assert!(t >= now);
            now = t;
            // Order at equal instants: arrivals enter the ready set first
            // (so completions at the same instant see them), then runs
            // finish (completions release successors), then workers
            // fail/recover, then retries re-enter the ready set, then idle
            // workers are offered work.
            let mut due = std::mem::take(&mut self.scratch.due);
            debug_assert!(due.is_empty());
            workload.arrivals_due(now, &mut due);
            self.announce_ready(policy, &due, now);
            due.clear();
            self.scratch.due = due;
            // Runs ending at `now` finish in ascending worker order, the
            // order recorded journals and the seed engine fix. Dispatch
            // starts no task, so no slot gains an event at `now` during
            // the scan.
            if self.earliest_pending() == now {
                let mut from = 0;
                while let Some(w) = self.next_due(from, now) {
                    self.clear_pending(w);
                    from = w.index() + 1;
                    self.meter.dispatched();
                    // A crash during the dispatch outranks the engine
                    // error the dispatch may have produced: state changes
                    // past the crash point never "happened".
                    let finished = self.finish_run(workload, policy, w, now);
                    self.crash_check()?;
                    finished?;
                }
            }
            self.process_faults_at(policy, now);
            self.process_retries_at(policy, now);
            let assigned = self.assign_fixpoint(workload, policy, now);
            self.crash_check()?;
            assigned?;
            self.checkpoint(checkpoints, policy, ready_order, now);
        }
        self.crash_check()
    }

    /// Capture the complete kernel state at a quiescent point. `now` is
    /// the loop's current instant (snapshots are taken post-fixpoint).
    fn snapshot_of(&self, ready: Vec<TaskId>, now: f64) -> KernelSnapshot {
        // The checkpoint format's `heap`: (time, worker, generation),
        // sorted by time, then worker.
        let mut heap: Vec<(f64, u32, u64)> = self
            .platform
            .all_workers()
            .zip(self.pending.iter().zip(&self.generation))
            .filter(|(_, (at, _))| at.is_finite())
            .map(|(w, (&at, &g))| (at, w.0, g))
            .collect();
        heap.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut retries: Vec<(f64, u32)> =
            self.retries.iter().map(|&Reverse((F64Ord(t), task))| (t, task)).collect();
        retries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        KernelSnapshot {
            now,
            events_seen: self.emitted,
            workers: self.platform.workers(),
            tasks: self.state.len(),
            state: self.state.clone(),
            ran_kind: self.ran_kind.clone(),
            running: self.running.clone(),
            generation: self.generation.clone(),
            heap,
            idle: self.idle.iter().map(|w| w.0).collect(),
            idle_announced: self.idle_announced.clone(),
            alive: self.alive.clone(),
            will_fail: self.will_fail.clone(),
            failures: self.failures.clone(),
            timeline_pos: self.timeline_pos,
            retries,
            rng: self.rng.as_ref().map(StdRng::state),
            ready,
        }
    }

    /// Rebuild mid-run state from a snapshot plus the journaled event
    /// prefix it corresponds to. The prefix feeds the trace summary and
    /// the schedule (both are event-derived); the snapshot supplies
    /// everything else, including the actual heap instants and RNG state.
    fn restore_from<W: Workload, P: KernelPolicy>(
        &mut self,
        snap: &KernelSnapshot,
        prefix: &[SchedEvent],
        workload: &mut W,
        policy: &mut P,
        restore: Restore<P>,
    ) -> Result<(), String> {
        snap.validate()?;
        if snap.tasks != self.state.len() {
            return Err(format!(
                "snapshot has {} tasks, workload has {}",
                snap.tasks,
                self.state.len()
            ));
        }
        if snap.workers != self.platform.workers() {
            return Err(format!(
                "snapshot has {} workers, platform has {}",
                snap.workers,
                self.platform.workers()
            ));
        }
        if prefix.len() as u64 != snap.events_seen {
            return Err(format!(
                "snapshot was taken at event {}, but {} journaled events were supplied",
                snap.events_seen,
                prefix.len()
            ));
        }
        for e in prefix {
            self.summary.record(e);
        }
        self.schedule = schedule_from_events(prefix);
        self.state = snap.state.clone();
        self.ran_kind = snap.ran_kind.clone();
        self.running = snap.running.clone();
        self.generation = snap.generation.clone();
        // `validate` admits exactly one live entry per running worker.
        for &(at, w, _) in &snap.heap {
            *self.pending.get_mut(w as usize).expect("validated worker id") = at;
        }
        self.earliest = None;
        self.in_flight = snap.heap.len() as u64;
        self.idle = snap.idle.iter().map(|&w| WorkerId(w)).collect();
        self.completed = snap.state.iter().filter(|&&s| s == TaskState::Done).count();
        self.idle_announced = snap.idle_announced.clone();
        self.alive = snap.alive.clone();
        self.will_fail = snap.will_fail.clone();
        self.failures = snap.failures.clone();
        self.timeline_pos = snap.timeline_pos;
        self.retries =
            snap.retries.iter().map(|&(t, task)| Reverse((F64Ord::new(t), task))).collect();
        match (snap.rng, self.rng.as_mut()) {
            (Some(words), Some(rng)) => *rng = StdRng::from_state(words),
            (None, None) => {}
            (have, _) => {
                return Err(format!(
                    "snapshot {} RNG state but the fault plan {} stochastic",
                    if have.is_some() { "carries" } else { "lacks" },
                    if have.is_some() { "is not" } else { "is" },
                ))
            }
        }
        self.emitted = snap.events_seen;
        self.last_checkpoint = snap.events_seen;
        self.ready_depth = snap.ready.len() as u64;
        // Replay the workload's own cursor: everything announced before
        // the snapshot has been consumed — initial tasks, arrivals up to
        // `now`, and the dependency releases of each completed task (in
        // completion order, read off the rebuilt schedule).
        let _ = workload.initial();
        let mut scratch = Vec::new();
        workload.arrivals_due(snap.now, &mut scratch);
        for run in &self.schedule.runs {
            scratch.clear();
            workload.on_complete(run.task, &mut scratch);
        }
        restore(policy, &snap.ready, &self.context(snap.now));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::MemCheckpointStore;
    use crate::heteroprio::{heteroprio_traced, independent, HeteroPrioConfig};
    use crate::model::Instance;
    use heteroprio_trace::{Journal, JournalSink, MemJournal, NullSink, VecSink};

    /// Drive the independent engine on `inst` under `spec`.
    fn drive_independent<S: TraceSink>(
        inst: &Instance,
        plat: &Platform,
        spec: Run<'_, S>,
    ) -> Result<KernelOutcome, RunError> {
        let (mut workload, mut policy) = independent(inst, plat, &HeteroPrioConfig::new());
        run_checkpointed(plat, &mut workload, &mut policy, spec)
    }

    /// Resume the independent engine on `inst` from a journaled prefix.
    fn resume_independent<S: TraceSink>(
        inst: &Instance,
        plat: &Platform,
        snapshot: Option<&KernelSnapshot>,
        journal: &[SchedEvent],
        sink: &mut S,
    ) -> Result<KernelOutcome, RunError> {
        let resume = Some(Resume { journal, snapshot });
        drive_independent(inst, plat, Run { resume, ..Run::new(sink, &NullRegistry) })
    }

    #[test]
    fn run_errors_display_as_text_not_debug() {
        let e = RunError::TaskAbandoned { task: 3, attempts: 2, time: 1.5 };
        assert_eq!(e.to_string(), "task 3 abandoned after 2 failed attempts at t=1.5");
        let e = RunError::InstantOverflow { task: 2, worker: 1, time: 1e308 };
        assert_eq!(e.to_string(), "task 2 on worker 1 at t=1e308: an instant overflows");
    }

    fn spoliation_instance() -> (Instance, Platform) {
        // Mixed affinities on 2 CPUs + 1 GPU: exercises queue pops from
        // both ends and at least one spoliation (a CPU parks on a
        // GPU-friendly 100/1 task; the GPU drains the queue and steals it).
        let inst = Instance::from_times(&[
            (100.0, 1.0),
            (100.0, 1.0),
            (100.0, 1.0),
            (1.0, 10.0),
            (2.0, 8.0),
            (90.0, 2.0),
        ]);
        (inst, Platform::new(2, 1))
    }

    #[test]
    fn every_crash_point_resumes_to_a_bit_identical_stream() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        assert!(reference.spoliations > 0, "test instance should spoliate");
        let total = full.events.len() as u64;
        for crash_at in 1..=total {
            let mut journal = MemJournal::new();
            {
                let mut sink = JournalSink::new(&mut journal);
                let crash = CrashPlan::at_event(crash_at);
                let spec = Run { crash, ..Run::new(&mut sink, &NullRegistry) };
                let err = drive_independent(&inst, &plat, spec).expect_err("crash plan must fire");
                let time = err_time(&err);
                assert_eq!(err, RunError::Crashed { time, events: crash_at });
            }
            assert_eq!(journal.len() as u64, crash_at, "journal ends exactly at the crash");
            let prefix = journal.replay().expect("replay");
            let mut resumed = VecSink::new();
            let res =
                resume_independent(&inst, &plat, None, &prefix, &mut resumed).expect("resume");
            assert_eq!(resumed.events, full.events, "crash at {crash_at}");
            assert_eq!(res.schedule.runs, reference.schedule.runs);
            assert_eq!(res.schedule.aborted, reference.schedule.aborted);
        }
    }

    fn err_time(err: &RunError) -> f64 {
        match *err {
            RunError::Crashed { time, .. } => time,
            ref other => panic!("expected Crashed, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_resume_matches_and_survives_json_round_trip() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        let total = full.events.len() as u64;
        for crash_at in 2..=total {
            let mut journal = MemJournal::new();
            let mut store = MemCheckpointStore::new();
            {
                let mut sink = JournalSink::new(&mut journal);
                let spec = Run {
                    crash: CrashPlan::at_event(crash_at),
                    checkpoints: Some(Checkpoints { every: 2, store: &mut store }),
                    ..Run::new(&mut sink, &NullRegistry)
                };
                drive_independent(&inst, &plat, spec).expect_err("crash plan must fire");
            }
            let prefix = journal.replay().expect("replay");
            // The persisted form round-trips through JSON, like the real
            // file-backed store.
            let snapshot = store
                .latest
                .as_ref()
                .map(|s| KernelSnapshot::parse(&s.to_json()).expect("snapshot round trip"));
            let mut resumed = VecSink::new();
            let res = resume_independent(&inst, &plat, snapshot.as_ref(), &prefix, &mut resumed)
                .expect("resume");
            assert_eq!(resumed.events, full.events, "crash at {crash_at}");
            assert_eq!(res.schedule.runs, reference.schedule.runs);
            assert_eq!(res.schedule.aborted, reference.schedule.aborted);
        }
    }

    #[test]
    fn divergent_inputs_are_reported_not_silently_accepted() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        heteroprio_traced(&inst, &plat, &config, &mut full);
        // Resume against a different instance: replay must flag the
        // divergence instead of producing a plausible-looking schedule.
        let other = Instance::from_times(&[(1.0, 8.0), (2.0, 6.0), (4.0, 4.0)]);
        let result = resume_independent(&other, &plat, None, &full.events, &mut NullSink);
        assert!(
            matches!(result, Err(RunError::Divergence { .. }) | Err(RunError::ShortReplay { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn resume_of_a_complete_journal_reproduces_the_run() {
        let (inst, plat) = spoliation_instance();
        let config = HeteroPrioConfig::new();
        let mut full = VecSink::new();
        let reference = heteroprio_traced(&inst, &plat, &config, &mut full);
        let mut resumed = VecSink::new();
        let res =
            resume_independent(&inst, &plat, None, &full.events, &mut resumed).expect("resume");
        assert_eq!(resumed.events, full.events);
        assert_eq!(res.schedule.runs, reference.schedule.runs);
    }
}
