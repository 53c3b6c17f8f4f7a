//! The typed scheduler event vocabulary.

/// Which end of the sorted ready queue a task was taken from.
///
/// In HeteroPrio the queue is sorted by acceleration factor; GPUs pop the
/// front (best-accelerated first) and CPUs pop the back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueEnd {
    Front,
    Back,
}

/// What a scheduling policy decided when an idle worker asked for work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The worker was assigned this task.
    Pick(u32),
    /// Nothing was ready; the worker will spoliate this victim worker.
    Spoliate(u32),
    /// Nothing to do — the worker goes (or stays) idle.
    Idle,
}

/// One scheduler occurrence, stamped with simulated time.
///
/// Ids are the raw `u32` payloads of core's `TaskId`/`WorkerId` so this
/// crate stays dependency-free (core depends on it, not vice versa).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedEvent {
    /// A task's dependencies are all satisfied; it entered the ready set.
    TaskReady { time: f64, task: u32 },
    /// A worker began executing a task. `expected_end` is the completion
    /// time as of the start (a later spoliation may cut the run short).
    TaskStart { time: f64, task: u32, worker: u32, expected_end: f64 },
    /// A worker finished a task.
    TaskComplete { time: f64, task: u32, worker: u32 },
    /// `thief` aborted `task` on `victim` and restarted it; `wasted_work`
    /// is the victim's in-progress time thrown away.
    Spoliation { time: f64, task: u32, victim: u32, thief: u32, wasted_work: f64 },
    /// A worker asked for work and got none.
    WorkerIdleBegin { time: f64, worker: u32 },
    /// A previously idle worker received work again.
    WorkerIdleEnd { time: f64, worker: u32 },
    /// A task left the sorted ready queue from `end`, taken by `worker`.
    QueuePop { time: f64, task: u32, worker: u32, end: QueueEnd },
    /// A policy verdict for an idle worker (emitted on assignments,
    /// spoliations, and the transition into idleness — not on every poll).
    PolicyDecision { time: f64, worker: u32, decision: Decision },
    /// A worker failed. `lost_task` is the task whose in-progress run was
    /// destroyed (if any); `permanent` workers never come back.
    WorkerDown { time: f64, worker: u32, lost_task: Option<u32>, permanent: bool },
    /// A transiently failed worker recovered and rejoined the idle pool.
    WorkerUp { time: f64, worker: u32 },
    /// A task failed mid-run on `worker`; `lost_work` is the in-progress
    /// time destroyed and `attempt` the 1-based attempt number that failed.
    TaskFailed { time: f64, task: u32, worker: u32, lost_work: f64, attempt: u32 },
    /// A failed task was scheduled for re-execution after a backoff
    /// `delay`; it re-enters the ready set at `time + delay`.
    TaskRetry { time: f64, task: u32, attempt: u32, delay: f64 },
}

impl SchedEvent {
    /// Simulated timestamp of the event.
    pub fn time(&self) -> f64 {
        match *self {
            SchedEvent::TaskReady { time, .. }
            | SchedEvent::TaskStart { time, .. }
            | SchedEvent::TaskComplete { time, .. }
            | SchedEvent::Spoliation { time, .. }
            | SchedEvent::WorkerIdleBegin { time, .. }
            | SchedEvent::WorkerIdleEnd { time, .. }
            | SchedEvent::QueuePop { time, .. }
            | SchedEvent::PolicyDecision { time, .. }
            | SchedEvent::WorkerDown { time, .. }
            | SchedEvent::WorkerUp { time, .. }
            | SchedEvent::TaskFailed { time, .. }
            | SchedEvent::TaskRetry { time, .. } => time,
        }
    }

    /// Snake-case tag used by the JSONL exporter and tooling.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedEvent::TaskReady { .. } => "task_ready",
            SchedEvent::TaskStart { .. } => "task_start",
            SchedEvent::TaskComplete { .. } => "task_complete",
            SchedEvent::Spoliation { .. } => "spoliation",
            SchedEvent::WorkerIdleBegin { .. } => "worker_idle_begin",
            SchedEvent::WorkerIdleEnd { .. } => "worker_idle_end",
            SchedEvent::QueuePop { .. } => "queue_pop",
            SchedEvent::PolicyDecision { .. } => "policy_decision",
            SchedEvent::WorkerDown { .. } => "worker_down",
            SchedEvent::WorkerUp { .. } => "worker_up",
            SchedEvent::TaskFailed { .. } => "task_failed",
            SchedEvent::TaskRetry { .. } => "task_retry",
        }
    }

    /// Tie-break rank for sorting events that share a timestamp so that a
    /// replay through [`TraceSummary`](crate::TraceSummary) sees a causal
    /// order: completions and aborts close intervals before new intervals
    /// open, and an idle interval opens before it is closed or pre-empted.
    pub fn order_rank(&self) -> u8 {
        match self {
            SchedEvent::TaskComplete { .. } => 0,
            SchedEvent::TaskFailed { .. } => 1,
            SchedEvent::Spoliation { .. } => 2,
            SchedEvent::WorkerDown { .. } => 3,
            SchedEvent::WorkerUp { .. } => 4,
            SchedEvent::TaskReady { .. } => 5,
            SchedEvent::TaskRetry { .. } => 6,
            SchedEvent::QueuePop { .. } | SchedEvent::PolicyDecision { .. } => 7,
            SchedEvent::WorkerIdleBegin { .. } => 8,
            SchedEvent::WorkerIdleEnd { .. } => 9,
            SchedEvent::TaskStart { .. } => 10,
        }
    }
}

/// Sort events by (time, [`SchedEvent::order_rank`]), preserving emission
/// order within ties. Live instrumentation already emits causally; this is
/// for event lists reconstructed from a finished schedule.
pub fn sort_causal(events: &mut [SchedEvent]) {
    events.sort_by(|a, b| a.time().total_cmp(&b.time()).then(a.order_rank().cmp(&b.order_rank())));
}

/// Every variant (and every optional-field and enum shape) with `time` set
/// to `time`, every other float field to `x` and every id to `id`: the
/// shape grid the codec tests sweep.
#[cfg(test)]
pub(crate) fn every_shape(time: f64, x: f64, id: u32) -> Vec<SchedEvent> {
    vec![
        SchedEvent::TaskReady { time, task: id },
        SchedEvent::TaskStart { time, task: id, worker: id, expected_end: x },
        SchedEvent::TaskComplete { time, task: id, worker: id },
        SchedEvent::Spoliation { time, task: id, victim: id, thief: id, wasted_work: x },
        SchedEvent::WorkerIdleBegin { time, worker: id },
        SchedEvent::WorkerIdleEnd { time, worker: id },
        SchedEvent::QueuePop { time, task: id, worker: id, end: QueueEnd::Front },
        SchedEvent::QueuePop { time, task: id, worker: id, end: QueueEnd::Back },
        SchedEvent::PolicyDecision { time, worker: id, decision: Decision::Pick(id) },
        SchedEvent::PolicyDecision { time, worker: id, decision: Decision::Spoliate(id) },
        SchedEvent::PolicyDecision { time, worker: id, decision: Decision::Idle },
        SchedEvent::WorkerDown { time, worker: id, lost_task: Some(id), permanent: true },
        SchedEvent::WorkerDown { time, worker: id, lost_task: None, permanent: false },
        SchedEvent::WorkerUp { time, worker: id },
        SchedEvent::TaskFailed { time, task: id, worker: id, lost_work: x, attempt: id },
        SchedEvent::TaskRetry { time, task: id, attempt: id, delay: x },
    ]
}
