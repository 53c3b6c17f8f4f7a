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

/// How a worker's run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// `TaskComplete`: the task finished.
    Completed,
    /// `Spoliation`: a worker of another class took the task over.
    Spoliated,
    /// `TaskFailed`: the attempt failed mid-run.
    Failed,
    /// `WorkerDown { lost_task }`: the worker died under the task.
    Lost,
}

/// One run on one worker, from its `TaskStart` to the event that closed it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosedRun {
    pub task: u32,
    pub worker: u32,
    pub start: f64,
    pub end: f64,
    pub outcome: RunOutcome,
}

/// Pairs each worker's `TaskStart` with the event that closes the run:
/// `TaskComplete`, `Spoliation` (on the victim), `TaskFailed` or
/// `WorkerDown { lost_task: Some(_) }`.
///
/// The start is the `TaskStart` time, never rebuilt as `time − wasted_work`
/// or `time − lost_work` (a float round trip that is not bit-exact). A
/// closing event whose task is not the worker's open run (a tampered or
/// truncated stream) closes a zero-length run of its own task at its own
/// time and leaves the open run alone, so a schedule rebuilt from the
/// stream carries the mismatch for its well-formedness checks to find.
#[derive(Clone, Debug, Default)]
pub struct OpenRuns {
    /// `(task, start)` of the run open on each worker, grown on demand.
    open: Vec<Option<(u32, f64)>>,
}

impl OpenRuns {
    pub fn new() -> Self {
        OpenRuns::default()
    }

    /// Feed one event; returns the run it closes, if any.
    pub fn step(&mut self, e: &SchedEvent) -> Option<ClosedRun> {
        let (time, task, worker, outcome) = match *e {
            SchedEvent::TaskStart { time, task, worker, .. } => {
                *self.slot(worker) = Some((task, time));
                return None;
            }
            SchedEvent::TaskComplete { time, task, worker } => {
                (time, task, worker, RunOutcome::Completed)
            }
            SchedEvent::Spoliation { time, task, victim, .. } => {
                (time, task, victim, RunOutcome::Spoliated)
            }
            SchedEvent::TaskFailed { time, task, worker, .. } => {
                (time, task, worker, RunOutcome::Failed)
            }
            SchedEvent::WorkerDown { time, worker, lost_task: Some(task), .. } => {
                (time, task, worker, RunOutcome::Lost)
            }
            _ => return None,
        };
        let slot = self.slot(worker);
        let start = match *slot {
            Some((open, start)) if open == task => {
                *slot = None;
                start
            }
            _ => time,
        };
        Some(ClosedRun { task, worker, start, end: time, outcome })
    }

    fn slot(&mut self, worker: u32) -> &mut Option<(u32, f64)> {
        let w = worker as usize;
        if self.open.len() <= w {
            self.open.resize(w + 1, None);
        }
        &mut self.open[w]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_runs_pair_starts_with_their_closing_events() {
        let mut open = OpenRuns::new();
        let closed: Vec<ClosedRun> = [
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 10.0 },
            SchedEvent::TaskStart { time: 0.1, task: 1, worker: 0, expected_end: 7.0 },
            SchedEvent::TaskFailed { time: 2.0, task: 1, worker: 0, lost_work: 1.9, attempt: 1 },
            SchedEvent::Spoliation { time: 3.0, task: 0, victim: 1, thief: 2, wasted_work: 3.0 },
            SchedEvent::TaskStart { time: 3.0, task: 0, worker: 2, expected_end: 4.0 },
            // Not worker 2's open run: a zero-length run of task 5.
            SchedEvent::TaskComplete { time: 3.5, task: 5, worker: 2 },
            SchedEvent::TaskComplete { time: 4.0, task: 0, worker: 2 },
            SchedEvent::TaskStart { time: 4.0, task: 3, worker: 0, expected_end: 9.0 },
            SchedEvent::WorkerDown { time: 5.0, worker: 0, lost_task: Some(3), permanent: true },
        ]
        .iter()
        .filter_map(|e| open.step(e))
        .collect();
        let run =
            |task, worker, start, end, outcome| ClosedRun { task, worker, start, end, outcome };
        assert_eq!(
            closed,
            vec![
                // The start is the TaskStart's, not 2.0 − 1.9.
                run(1, 0, 0.1, 2.0, RunOutcome::Failed),
                run(0, 1, 0.0, 3.0, RunOutcome::Spoliated),
                run(5, 2, 3.5, 3.5, RunOutcome::Completed),
                run(0, 2, 3.0, 4.0, RunOutcome::Completed),
                run(3, 0, 4.0, 5.0, RunOutcome::Lost),
            ]
        );
    }
}
