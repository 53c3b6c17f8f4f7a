//! Schedule representation, validation and per-resource metrics.

use crate::model::{ClassId, Instance, Platform, TaskId, WorkerId};
use crate::time::{approx_eq, approx_le, tol, F64Ord};
use heteroprio_trace::{sort_causal, SchedEvent};
use std::fmt;

/// One execution interval of a task on a worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskRun {
    pub task: TaskId,
    pub worker: WorkerId,
    pub start: f64,
    pub end: f64,
}

impl TaskRun {
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete schedule: every task has exactly one *completed* run; aborted
/// runs (spoliation victims) are recorded separately and consume their
/// worker's time without producing work.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    pub runs: Vec<TaskRun>,
    pub aborted: Vec<TaskRun>,
}

/// Why a schedule failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    MissingTask(TaskId),
    DuplicateTask(TaskId),
    UnknownTask(TaskId),
    UnknownWorker(WorkerId),
    NegativeInterval { task: TaskId, start: f64, end: f64 },
    WrongDuration { task: TaskId, expected: f64, actual: f64 },
    Overlap { worker: WorkerId, first: TaskId, second: TaskId, at: f64 },
    AbortedTooLong { task: TaskId, limit: f64, actual: f64 },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::MissingTask(t) => write!(f, "task {t} never completes"),
            ScheduleError::DuplicateTask(t) => write!(f, "task {t} completes more than once"),
            ScheduleError::UnknownTask(t) => write!(f, "run references unknown task {t}"),
            ScheduleError::UnknownWorker(w) => write!(f, "run references unknown worker {w:?}"),
            ScheduleError::NegativeInterval { task, start, end } => {
                write!(f, "task {task} has an empty or reversed interval [{start}, {end}]")
            }
            ScheduleError::WrongDuration { task, expected, actual } => {
                write!(f, "task {task} runs for {actual}, expected {expected}")
            }
            ScheduleError::Overlap { worker, first, second, at } => {
                write!(f, "worker {worker:?} runs {first} and {second} simultaneously at t={at}")
            }
            ScheduleError::AbortedTooLong { task, limit, actual } => {
                write!(f, "aborted run of {task} lasts {actual}, at least its full time {limit}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Completion time of the whole schedule (0 for an empty one).
    /// Aborted runs are included: a worker burning time on a task that is
    /// later restarted elsewhere is still busy.
    pub fn makespan(&self) -> f64 {
        self.runs.iter().chain(&self.aborted).map(|r| r.end).fold(0.0, f64::max)
    }

    /// The completed run of a task, if any.
    pub fn run_of(&self, task: TaskId) -> Option<&TaskRun> {
        self.runs.iter().find(|r| r.task == task)
    }

    /// Total productive (completed-run) time on one resource class.
    pub fn busy_time(&self, platform: &Platform, class: impl Into<ClassId>) -> f64 {
        let class = class.into();
        self.runs
            .iter()
            .filter(|r| platform.class_of(r.worker) == class)
            .map(TaskRun::duration)
            .sum()
    }

    /// Total time spent on runs that were later aborted, per class.
    pub fn aborted_time(&self, platform: &Platform, class: impl Into<ClassId>) -> f64 {
        let class = class.into();
        self.aborted
            .iter()
            .filter(|r| platform.class_of(r.worker) == class)
            .map(TaskRun::duration)
            .sum()
    }

    /// Idle time of a resource class over `[0, horizon]`.
    ///
    /// Following the paper's footnote, work performed on aborted runs counts
    /// as idle time, so all schedulers are charged for the same total work.
    pub fn idle_time(&self, platform: &Platform, class: impl Into<ClassId>, horizon: f64) -> f64 {
        let class = class.into();
        let capacity = horizon * platform.count(class) as f64;
        (capacity - self.busy_time(platform, class)).max(0.0)
    }

    /// Tasks assigned (completed) per resource class.
    pub fn tasks_on(&self, platform: &Platform, class: impl Into<ClassId>) -> Vec<TaskId> {
        let class = class.into();
        self.runs.iter().filter(|r| platform.class_of(r.worker) == class).map(|r| r.task).collect()
    }

    /// The paper's §6.2 "equivalent acceleration factor" of the set of tasks
    /// assigned to one resource class: `Σ p_i / Σ q_i` over completed runs,
    /// where `q_i` generalizes to each task's best time on a non-spill class
    /// (identical to the GPU time when `k = 2`). `None` when the class
    /// received no task.
    pub fn equivalent_accel_factor(
        &self,
        instance: &Instance,
        platform: &Platform,
        class: impl Into<ClassId>,
    ) -> Option<f64> {
        let tasks = self.tasks_on(platform, class);
        if tasks.is_empty() {
            return None;
        }
        let p: f64 = tasks.iter().map(|&t| instance.task(t).time_on(ClassId(0))).sum();
        let q: f64 = tasks
            .iter()
            .map(|&t| {
                let task = instance.task(t);
                (1..task.k()).map(|c| task.time_on(ClassId(c as u16))).fold(f64::INFINITY, f64::min)
            })
            .sum();
        Some(p / q)
    }

    /// Number of spoliated (aborted then restarted) tasks.
    pub fn spoliation_count(&self) -> usize {
        self.aborted.len()
    }

    /// Reconstruct a best-effort [`SchedEvent`] stream from a finished
    /// schedule produced outside the kernel (every scheduler in this
    /// workspace runs in the kernel and emits its own stream).
    ///
    /// The stream contains a `TaskStart`/`TaskComplete` pair per completed
    /// run, a `TaskStart`/`Spoliation` pair per aborted run (the thief is
    /// the worker of the task's completed run), and `WorkerIdleBegin`/`End`
    /// covering every gap on every worker over `[0, makespan]`. Queue and
    /// policy events (`TaskReady`, `QueuePop`, `PolicyDecision`) cannot be
    /// recovered post-hoc — that transient information is exactly what live
    /// tracing adds. Events are returned in causal order.
    pub fn to_events(&self, platform: &Platform) -> Vec<SchedEvent> {
        let makespan = self.makespan();
        let mut events =
            Vec::with_capacity(2 * (self.runs.len() + self.aborted.len() + platform.workers()));
        for r in &self.runs {
            events.push(SchedEvent::TaskStart {
                time: r.start,
                task: r.task.0,
                worker: r.worker.0,
                expected_end: r.end,
            });
            events.push(SchedEvent::TaskComplete {
                time: r.end,
                task: r.task.0,
                worker: r.worker.0,
            });
        }
        for a in &self.aborted {
            let thief = self.run_of(a.task).map_or(a.worker.0, |r| r.worker.0);
            // A zero-duration abort (spoliated the instant it started) gets
            // only the Spoliation event: at equal timestamps the causal sort
            // puts Spoliation before TaskStart, and the orphaned start would
            // corrupt the aggregator's open-run tracking.
            if a.duration() > 0.0 {
                events.push(SchedEvent::TaskStart {
                    time: a.start,
                    task: a.task.0,
                    worker: a.worker.0,
                    expected_end: a.end,
                });
            }
            events.push(SchedEvent::Spoliation {
                time: a.end,
                task: a.task.0,
                victim: a.worker.0,
                thief,
                wasted_work: a.duration(),
            });
        }
        for w in platform.all_workers() {
            let mut busy: Vec<(f64, f64)> = self
                .runs
                .iter()
                .chain(&self.aborted)
                .filter(|r| r.worker == w)
                .map(|r| (r.start, r.end))
                .collect();
            busy.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = 0.0;
            for (start, end) in busy {
                if start > cursor {
                    events.push(SchedEvent::WorkerIdleBegin { time: cursor, worker: w.0 });
                    events.push(SchedEvent::WorkerIdleEnd { time: start, worker: w.0 });
                }
                cursor = cursor.max(end);
            }
            if cursor < makespan {
                events.push(SchedEvent::WorkerIdleBegin { time: cursor, worker: w.0 });
                events.push(SchedEvent::WorkerIdleEnd { time: makespan, worker: w.0 });
            }
        }
        sort_causal(&mut events);
        events
    }

    /// Check structural validity against an instance and platform:
    /// every task completes exactly once with the right duration, runs on a
    /// known worker, no two runs (completed or aborted) overlap on a worker,
    /// and aborted runs are strictly shorter than the task's full time.
    pub fn validate(&self, instance: &Instance, platform: &Platform) -> Result<(), ScheduleError> {
        self.validate_with_overhead(instance, platform, 0.0)
    }

    /// Like [`Schedule::validate`], but each run may last up to
    /// `max_overhead` longer than the task's nominal time — for schedules
    /// produced under an execution-cost model (e.g. cross-class transfer
    /// penalties) where durations exceed the calibrated times.
    ///
    /// Validation is the composition of the named checks below (which the
    /// audit layer also calls individually, so the rules live in one place).
    pub fn validate_with_overhead(
        &self,
        instance: &Instance,
        platform: &Platform,
        max_overhead: f64,
    ) -> Result<(), ScheduleError> {
        self.check_membership(instance, platform)?;
        self.check_completeness(instance)?;
        self.check_durations(instance, platform, max_overhead)?;
        self.check_overlap(platform)
    }

    /// Structure-only validation: completeness, known ids, positive
    /// intervals and per-worker non-overlap — but no duration checks.
    /// This is the right check for executions under a fault plan, where
    /// stochastic execution times decouple actual durations from the
    /// calibrated estimates and failed attempts cut runs short.
    pub fn validate_structure(
        &self,
        instance: &Instance,
        platform: &Platform,
    ) -> Result<(), ScheduleError> {
        self.check_membership(instance, platform)?;
        self.check_completeness(instance)?;
        self.check_overlap(platform)
    }

    /// Every run (completed or aborted) references a known task and worker
    /// and spans a sane interval: strictly positive for completed runs,
    /// non-negative for aborted ones (a spoliation can land the very instant
    /// a run starts).
    pub fn check_membership(
        &self,
        instance: &Instance,
        platform: &Platform,
    ) -> Result<(), ScheduleError> {
        for r in &self.runs {
            if r.task.index() >= instance.len() {
                return Err(ScheduleError::UnknownTask(r.task));
            }
            if r.worker.index() >= platform.workers() {
                return Err(ScheduleError::UnknownWorker(r.worker));
            }
            // Deliberate negated comparison: rejects NaN endpoints too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(r.end > r.start) {
                return Err(ScheduleError::NegativeInterval {
                    task: r.task,
                    start: r.start,
                    end: r.end,
                });
            }
        }
        for r in &self.aborted {
            if r.task.index() >= instance.len() {
                return Err(ScheduleError::UnknownTask(r.task));
            }
            if r.worker.index() >= platform.workers() {
                return Err(ScheduleError::UnknownWorker(r.worker));
            }
            if r.end < r.start {
                return Err(ScheduleError::NegativeInterval {
                    task: r.task,
                    start: r.start,
                    end: r.end,
                });
            }
        }
        Ok(())
    }

    /// Every task of the instance completes exactly once: no duplicates, no
    /// missing tasks. Assumes task ids are in range (see
    /// [`Schedule::check_membership`]); out-of-range ids are reported as
    /// unknown here too rather than panicking.
    pub fn check_completeness(&self, instance: &Instance) -> Result<(), ScheduleError> {
        let mut seen = vec![false; instance.len()];
        for r in &self.runs {
            if r.task.index() >= instance.len() {
                return Err(ScheduleError::UnknownTask(r.task));
            }
            let slot = seen.get_mut(r.task.index()).expect("range-checked above");
            if *slot {
                return Err(ScheduleError::DuplicateTask(r.task));
            }
            *slot = true;
        }
        for (i, s) in seen.iter().enumerate() {
            if !s {
                return Err(ScheduleError::MissingTask(TaskId(i as u32)));
            }
        }
        Ok(())
    }

    /// Completed runs last their task's calibrated time on the worker's
    /// class (up to `max_overhead` extra), and aborted runs stop strictly
    /// before the task would have completed (otherwise they should have
    /// completed). Meaningless under stochastic execution times — fault
    /// runs use [`Schedule::validate_structure`] which skips this check.
    /// Runs naming an unknown task or worker are skipped here:
    /// [`check_membership`](Schedule::check_membership) reports them.
    pub fn check_durations(
        &self,
        instance: &Instance,
        platform: &Platform,
        max_overhead: f64,
    ) -> Result<(), ScheduleError> {
        let calibrated = |r: &TaskRun| {
            (r.task.index() < instance.len() && r.worker.index() < platform.workers())
                .then(|| instance.task(r.task).time_on(platform.class_of(r.worker)))
        };
        for r in &self.runs {
            let Some(expected) = calibrated(r) else { continue };
            let within_band = approx_eq(r.duration(), expected)
                || (r.duration() >= expected && approx_le(r.duration(), expected + max_overhead));
            if !within_band {
                return Err(ScheduleError::WrongDuration {
                    task: r.task,
                    expected,
                    actual: r.duration(),
                });
            }
        }
        for r in &self.aborted {
            let Some(time) = calibrated(r) else { continue };
            let full = time + max_overhead;
            if r.duration() >= full + tol(r.duration(), full) {
                return Err(ScheduleError::AbortedTooLong {
                    task: r.task,
                    limit: full,
                    actual: r.duration(),
                });
            }
        }
        Ok(())
    }

    /// No two runs (completed or aborted) overlap on the same worker. Runs
    /// on a worker the platform does not have are skipped here:
    /// [`check_membership`](Schedule::check_membership) reports them.
    pub fn check_overlap(&self, platform: &Platform) -> Result<(), ScheduleError> {
        let mut per_worker: Vec<Vec<&TaskRun>> = vec![Vec::new(); platform.workers()];
        for r in self.runs.iter().chain(&self.aborted) {
            if let Some(runs) = per_worker.get_mut(r.worker.index()) {
                runs.push(r);
            }
        }
        for (w, runs) in per_worker.iter_mut().enumerate() {
            // Sort by (start, end) so zero-length aborted runs sort before a
            // run starting at the same instant.
            runs.sort_by_key(|r| (F64Ord::new(r.start), F64Ord::new(r.end)));
            for pair in runs.windows(2) {
                let [a, b] = *pair else { unreachable!("windows(2) yields pairs") };
                if !approx_le(a.end, b.start) {
                    return Err(ScheduleError::Overlap {
                        worker: WorkerId(w as u32),
                        first: a.task,
                        second: b.task,
                        at: b.start,
                    });
                }
            }
        }
        Ok(())
    }

    /// Render a small schedule as an ASCII Gantt chart (for examples and the
    /// Figure 1 reproduction). One row per worker; `#` marks completed work,
    /// `x` marks aborted work.
    pub fn render_ascii(&self, platform: &Platform, width: usize) -> String {
        let horizon = self.makespan().max(1e-12);
        let scale = width as f64 / horizon;
        let mut out = String::new();
        for w in platform.all_workers() {
            let kind = platform.class_of(w);
            let mut row = vec![b'.'; width];
            let mut labels: Vec<(usize, String)> = Vec::new();
            for r in self.runs.iter().chain(&self.aborted).filter(|r| r.worker == w) {
                // lint: allow(cast-trunc): render quantization to character cells; clamped below.
                let s = ((r.start * scale) as usize).min(width - 1);
                // lint: allow(cast-trunc): render quantization to character cells; clamped below.
                let e = ((r.end * scale).ceil() as usize).clamp(s + 1, width);
                let mark = if self.runs.iter().any(|c| std::ptr::eq(c, r)) { b'#' } else { b'x' };
                for c in row.get_mut(s..e).into_iter().flatten() {
                    *c = mark;
                }
                labels.push((s, format!("{}", r.task)));
            }
            labels.sort_by_key(|&(s, _)| s);
            let tags: Vec<String> = labels.into_iter().map(|(_, l)| l).collect();
            out.push_str(&format!(
                "{kind} {:>3} |{}| {}\n",
                w.0,
                String::from_utf8(row).expect("row holds only ASCII marks"),
                tags.join(" ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ResourceKind, Task};

    fn simple_setup() -> (Instance, Platform) {
        let inst = Instance::from_times(&[(2.0, 1.0), (4.0, 2.0)]);
        let plat = Platform::new(1, 1);
        (inst, plat)
    }

    #[test]
    fn valid_schedule_passes() {
        let (inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(1), start: 0.0, end: 2.0 },
            ],
            aborted: vec![],
        };
        sched.validate(&inst, &plat).unwrap();
        assert_eq!(sched.makespan(), 2.0);
    }

    #[test]
    fn missing_task_fails() {
        let (inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 2.0 }],
            aborted: vec![],
        };
        assert_eq!(sched.validate(&inst, &plat), Err(ScheduleError::MissingTask(TaskId(1))));
    }

    #[test]
    fn duplicate_task_fails() {
        let (inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 2.0, end: 4.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(1), start: 0.0, end: 2.0 },
            ],
            aborted: vec![],
        };
        assert_eq!(sched.validate(&inst, &plat), Err(ScheduleError::DuplicateTask(TaskId(0))));
    }

    #[test]
    fn wrong_duration_fails() {
        let (inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 3.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(1), start: 0.0, end: 2.0 },
            ],
            aborted: vec![],
        };
        assert!(matches!(sched.validate(&inst, &plat), Err(ScheduleError::WrongDuration { .. })));
    }

    #[test]
    fn overlap_fails() {
        let (inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 1.0, end: 5.0 },
            ],
            aborted: vec![],
        };
        assert!(matches!(sched.validate(&inst, &plat), Err(ScheduleError::Overlap { .. })));
    }

    #[test]
    fn aborted_run_must_be_partial() {
        let (inst, plat) = simple_setup();
        let mut sched = Schedule {
            runs: vec![
                // task 0 spoliated from CPU (2.0) to GPU: aborted at 1.0, reran on GPU.
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 1.0, end: 2.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 2.0, end: 6.0 },
            ],
            aborted: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 1.0 }],
        };
        sched.validate(&inst, &plat).unwrap();
        // An "aborted" run as long as the full task is invalid.
        sched.aborted[0].end = 2.5;
        assert!(matches!(sched.validate(&inst, &plat), Err(ScheduleError::AbortedTooLong { .. })));
    }

    #[test]
    fn structure_validation_ignores_durations_but_not_structure() {
        let (inst, plat) = simple_setup();
        // Jittered durations: wrong for strict validation, fine structurally.
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 3.7 },
                TaskRun { task: TaskId(1), worker: WorkerId(1), start: 0.0, end: 0.9 },
            ],
            aborted: vec![TaskRun { task: TaskId(1), worker: WorkerId(0), start: 4.0, end: 99.0 }],
        };
        assert!(sched.validate(&inst, &plat).is_err());
        sched.validate_structure(&inst, &plat).unwrap();
        // Structural defects still fail: overlap...
        let mut bad = sched.clone();
        bad.runs[1] = TaskRun { task: TaskId(1), worker: WorkerId(0), start: 1.0, end: 2.0 };
        assert!(matches!(bad.validate_structure(&inst, &plat), Err(ScheduleError::Overlap { .. })));
        // ...and missing tasks.
        let mut bad = sched.clone();
        bad.runs.pop();
        assert_eq!(
            bad.validate_structure(&inst, &plat),
            Err(ScheduleError::MissingTask(TaskId(1)))
        );
    }

    #[test]
    fn metrics_account_for_aborts() {
        let (_inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 1.0, end: 2.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 2.0, end: 6.0 },
            ],
            aborted: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 1.0 }],
        };
        assert_eq!(sched.makespan(), 6.0);
        assert_eq!(sched.busy_time(&plat, ResourceKind::Cpu), 4.0);
        assert_eq!(sched.aborted_time(&plat, ResourceKind::Cpu), 1.0);
        // idle counts the aborted hour as idle: 6*1 - 4 = 2
        assert_eq!(sched.idle_time(&plat, ResourceKind::Cpu, 6.0), 2.0);
        assert_eq!(sched.spoliation_count(), 1);
    }

    #[test]
    fn equivalent_accel_factor_matches_definition() {
        let mut inst = Instance::new();
        inst.push(Task::new(10.0, 1.0));
        inst.push(Task::new(2.0, 2.0));
        let plat = Platform::new(1, 1);
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(1), start: 0.0, end: 1.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(0), start: 0.0, end: 2.0 },
            ],
            aborted: vec![],
        };
        let gpu = sched.equivalent_accel_factor(&inst, &plat, ResourceKind::Gpu).unwrap();
        assert_eq!(gpu, 10.0);
        let cpu = sched.equivalent_accel_factor(&inst, &plat, ResourceKind::Cpu).unwrap();
        assert_eq!(cpu, 1.0);
    }

    #[test]
    fn ascii_render_mentions_every_worker() {
        let (_inst, plat) = simple_setup();
        let sched = Schedule {
            runs: vec![
                TaskRun { task: TaskId(0), worker: WorkerId(0), start: 0.0, end: 2.0 },
                TaskRun { task: TaskId(1), worker: WorkerId(1), start: 0.0, end: 2.0 },
            ],
            aborted: vec![],
        };
        let art = sched.render_ascii(&plat, 40);
        assert!(art.contains("CPU"));
        assert!(art.contains("GPU"));
        assert!(art.contains("T0"));
        assert!(art.contains("T1"));
    }
}
