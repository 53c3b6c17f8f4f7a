//! Deterministic fault injection: worker failures, stochastic execution
//! times, and task-level failures with retry.
//!
//! A [`FaultPlan`] describes everything that can go wrong during a
//! simulated execution. It is fully deterministic per seed (the vendored
//! `rand` shim is a seeded xoshiro256++), so every failure scenario is
//! replayable. The zero plan ([`FaultPlan::NONE`]) draws no random numbers
//! and leaves the engine byte-identical to a fault-free run.
//!
//! Worker faults come in two flavours: *permanent* (the worker never comes
//! back — a GPU falling off the bus) and *transient* (down for a fixed
//! interval — a driver reset). In both cases in-flight work is lost, the
//! running task re-enters the ready set at its original priority, and the
//! dead worker is excluded from policy decisions until recovery.
//!
//! Task failures are Bernoulli per attempt; a failed attempt costs the
//! in-progress time and is retried after a capped exponential backoff, up
//! to [`RetryPolicy::max_attempts`] attempts, after which the engine
//! returns [`SimError::TaskAbandoned`].

use heteroprio_core::Platform;
use std::fmt;

/// One scheduled worker failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerFault {
    /// Raw worker id (the `u32` payload of `WorkerId`).
    pub worker: u32,
    /// Simulated time at which the worker goes down.
    pub at: f64,
    /// Downtime duration; `None` means the failure is permanent.
    pub down_for: Option<f64>,
}

impl WorkerFault {
    /// A worker that dies at `at` and never recovers.
    pub fn permanent(worker: u32, at: f64) -> Self {
        WorkerFault { worker, at, down_for: None }
    }

    /// A worker that is down for `down_for` time units starting at `at`.
    pub fn transient(worker: u32, at: f64, down_for: f64) -> Self {
        WorkerFault { worker, at, down_for: Some(down_for) }
    }
}

/// Retry policy for failed task attempts (re-exported from the shared event
/// kernel, which owns the retry heap).
pub use heteroprio_core::kernel::RetryPolicy;

/// Everything that can go wrong in one simulated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Scheduled worker failures. Overlapping intervals on one worker are
    /// merged; a permanent failure swallows everything after it.
    pub worker_faults: Vec<WorkerFault>,
    /// Per-attempt probability that a task fails mid-run.
    pub task_failure_prob: f64,
    /// Multiplicative execution-time noise `j ≥ 0`: actual durations are
    /// drawn log-uniformly from `[estimate/(1+j), estimate·(1+j)]`.
    /// Policies still decide on the estimates.
    pub exec_jitter: f64,
    /// Seed for the failure/jitter draws.
    pub seed: u64,
    /// Retry policy for failed task attempts.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The zero plan: no faults, no noise, no random draws.
    pub const NONE: FaultPlan = FaultPlan {
        worker_faults: Vec::new(),
        task_failure_prob: 0.0,
        exec_jitter: 0.0,
        seed: 0,
        retry: RetryPolicy::DEFAULT,
    };

    /// True when the plan injects nothing (the engine then skips the fault
    /// machinery entirely and reproduces fault-free traces exactly).
    pub fn is_none(&self) -> bool {
        // lint: allow(float-eq): exact sentinel — 0.0 means "feature off", set literally by
        // FaultPlan::NONE / the parser, never produced by arithmetic.
        self.worker_faults.is_empty() && self.task_failure_prob == 0.0 && self.exec_jitter == 0.0
    }

    /// Check the plan's numeric sanity. The engine calls this before a run.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |reason: String| Err(SimError::InvalidPlan { reason });
        if !self.task_failure_prob.is_finite() || !(0.0..=1.0).contains(&self.task_failure_prob) {
            return bad(format!("task_failure_prob {} not in [0, 1]", self.task_failure_prob));
        }
        if !self.exec_jitter.is_finite() || self.exec_jitter < 0.0 {
            return bad(format!("exec_jitter {} must be finite and >= 0", self.exec_jitter));
        }
        if self.retry.max_attempts == 0 {
            return bad("retry.max_attempts must be at least 1".into());
        }
        if !self.retry.backoff_base.is_finite() || self.retry.backoff_base < 0.0 {
            return bad(format!(
                "backoff_base {} must be finite and >= 0",
                self.retry.backoff_base
            ));
        }
        if !self.retry.backoff_cap.is_finite() || self.retry.backoff_cap < 0.0 {
            return bad(format!("backoff_cap {} must be finite and >= 0", self.retry.backoff_cap));
        }
        for f in &self.worker_faults {
            if !f.at.is_finite() || f.at < 0.0 {
                return bad(format!(
                    "worker {} fault time {} must be finite and >= 0",
                    f.worker, f.at
                ));
            }
            if let Some(d) = f.down_for {
                if !d.is_finite() || d <= 0.0 {
                    return bad(format!("worker {} downtime {d} must be finite and > 0", f.worker));
                }
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Structured failure of a simulated execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A task exhausted its attempt budget; the run cannot complete.
    TaskAbandoned { task: u32, attempts: u32, time: f64 },
    /// Every worker is down with no recovery scheduled while tasks remain.
    AllWorkersDown { time: f64, remaining: usize },
    /// The fault plan itself is malformed.
    InvalidPlan { reason: String },
    /// An injected `CrashPlan` fired after `events` emitted events; recover
    /// by running again with a `Resume` from the journal (see
    /// `heteroprio_core::kernel::Resume`).
    Crashed { time: f64, events: u64 },
    /// Recovery failed: the journal or snapshot disagrees with the
    /// supplied graph/policy/plan (see
    /// [`ResumeError`](heteroprio_core::ResumeError) for the cases).
    Recovery { detail: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TaskAbandoned { task, attempts, time } => {
                write!(f, "task {task} abandoned after {attempts} failed attempts at t={time}")
            }
            SimError::AllWorkersDown { time, remaining } => {
                write!(f, "all workers down at t={time} with {remaining} tasks remaining")
            }
            SimError::InvalidPlan { reason } => write!(f, "invalid fault plan: {reason}"),
            SimError::Crashed { time, events } => {
                write!(f, "simulated crash at t={time} after {events} journaled events")
            }
            SimError::Recovery { detail } => write!(f, "recovery failed: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<heteroprio_core::kernel::EngineError> for SimError {
    fn from(e: heteroprio_core::kernel::EngineError) -> Self {
        use heteroprio_core::kernel::EngineError;
        match e {
            EngineError::TaskAbandoned { task, attempts, time } => {
                SimError::TaskAbandoned { task, attempts, time }
            }
            EngineError::AllWorkersDown { time, remaining } => {
                SimError::AllWorkersDown { time, remaining }
            }
            EngineError::Crashed { time, events } => SimError::Crashed { time, events },
        }
    }
}

impl From<heteroprio_core::ResumeError> for SimError {
    fn from(e: heteroprio_core::ResumeError) -> Self {
        use heteroprio_core::ResumeError;
        match e {
            ResumeError::Engine(engine) => engine.into(),
            other => SimError::Recovery { detail: other.to_string() },
        }
    }
}

/// A time in a fault spec: absolute, or a percentage of the fault-free
/// makespan (resolved by the caller after a baseline run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeSpec {
    Abs(f64),
    Percent(f64),
}

impl TimeSpec {
    fn resolve(self, baseline: Option<f64>) -> Result<f64, SimError> {
        match self {
            TimeSpec::Abs(t) => Ok(t),
            TimeSpec::Percent(p) => {
                baseline.map(|m| m * p / 100.0).ok_or_else(|| SimError::InvalidPlan {
                    reason: "percent time in spec but no baseline makespan given".into(),
                })
            }
        }
    }
}

/// Which workers a fault clause hits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultTarget {
    Worker(u32),
    /// Every worker of one resource class (`cpu` = class 0, `gpu` = class 1,
    /// `cN` or a [`ClassTable`](heteroprio_core::ClassTable) name for the rest).
    Class(u16),
    All,
}

/// One parsed clause of a `--faults` spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultClause {
    pub target: FaultTarget,
    pub at: TimeSpec,
    /// Downtime; `None` means permanent.
    pub down_for: Option<f64>,
}

/// A parsed `--faults` specification.
///
/// Grammar (clauses separated by `,`):
///
/// ```text
/// SPEC   := clause (',' clause)*
/// clause := target '@' time ['+' dur]   -- worker fault (dur absent ⇒ permanent)
///         | 'fail=' p                   -- per-attempt task failure probability
///         | 'seed=' n                   -- RNG seed for failure/jitter draws
/// target := 'w' id | 'c' idx | class-name | 'all'
/// time   := float | float '%'          -- percent of the fault-free makespan
/// ```
///
/// Class targets: `cpu` and `gpu` always name classes 0 and 1, `cN` hits
/// class `N` on any platform, and [`parse_with`](FaultSpec::parse_with)
/// additionally resolves the class names of a [`ClassTable`](heteroprio_core::ClassTable)
/// (e.g. `fpga@10` on a `cpu=16,gpu=4,fpga=2` platform).
///
/// Examples: `gpu@25%` (all GPUs die for good at 25% of the fault-free
/// makespan), `w3@10+5` (worker 3 down from t=10 to t=15),
/// `cpu@50,fail=0.05,seed=7`, `c2@40%`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    pub clauses: Vec<FaultClause>,
    pub task_failure_prob: Option<f64>,
    pub seed: Option<u64>,
}

impl FaultSpec {
    /// Parse a spec string. Whitespace around clauses is ignored.
    pub fn parse(s: &str) -> Result<FaultSpec, SimError> {
        FaultSpec::parse_with(s, None)
    }

    /// [`parse`](FaultSpec::parse) with a [`ClassTable`](heteroprio_core::ClassTable): clause targets may
    /// then use the table's class names (case-insensitively) in addition to
    /// the builtin `cpu`/`gpu`/`cN` forms.
    pub fn parse_with(
        s: &str,
        table: Option<&heteroprio_core::ClassTable>,
    ) -> Result<FaultSpec, SimError> {
        let bad = |reason: String| SimError::InvalidPlan { reason };
        let mut spec = FaultSpec::default();
        for raw in s.split(',') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(p) = clause.strip_prefix("fail=") {
                let p: f64 =
                    p.parse().map_err(|_| bad(format!("bad probability in {clause:?}")))?;
                spec.task_failure_prob = Some(p);
                continue;
            }
            if let Some(n) = clause.strip_prefix("seed=") {
                let n: u64 = n.parse().map_err(|_| bad(format!("bad seed in {clause:?}")))?;
                spec.seed = Some(n);
                continue;
            }
            let (target, rest) = clause
                .split_once('@')
                .ok_or_else(|| bad(format!("expected target@time in {clause:?}")))?;
            let target = match target.trim() {
                "cpu" => FaultTarget::Class(0),
                "gpu" => FaultTarget::Class(1),
                "all" => FaultTarget::All,
                w => {
                    if let Some(id) = w.strip_prefix('w').and_then(|id| id.parse::<u32>().ok()) {
                        FaultTarget::Worker(id)
                    } else if let Some(c) = w.strip_prefix('c').and_then(|c| c.parse::<u16>().ok())
                    {
                        FaultTarget::Class(c)
                    } else if let Some(c) = table.and_then(|t| t.id_of(w)) {
                        FaultTarget::Class(c.0)
                    } else {
                        return Err(bad(format!(
                            "bad target {w:?} (want wN|cN|cpu|gpu|all or a platform class name)"
                        )));
                    }
                }
            };
            let (time, dur) = match rest.split_once('+') {
                Some((t, d)) => {
                    let d: f64 =
                        d.trim().parse().map_err(|_| bad(format!("bad duration in {clause:?}")))?;
                    (t.trim(), Some(d))
                }
                None => (rest.trim(), None),
            };
            let at = match time.strip_suffix('%') {
                Some(p) => TimeSpec::Percent(
                    p.parse().map_err(|_| bad(format!("bad percent in {clause:?}")))?,
                ),
                None => {
                    TimeSpec::Abs(time.parse().map_err(|_| bad(format!("bad time in {clause:?}")))?)
                }
            };
            spec.clauses.push(FaultClause { target, at, down_for: dur });
        }
        Ok(spec)
    }

    /// True if any clause uses a percent time (the caller must then run a
    /// fault-free baseline to obtain the makespan before resolving).
    pub fn needs_baseline(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c.at, TimeSpec::Percent(_)))
    }

    /// Expand the clauses into concrete per-worker faults on `platform`.
    /// `baseline` is the fault-free makespan, required iff
    /// [`needs_baseline`](FaultSpec::needs_baseline).
    pub fn resolve(
        &self,
        platform: &Platform,
        baseline: Option<f64>,
    ) -> Result<Vec<WorkerFault>, SimError> {
        let mut out = Vec::new();
        for c in &self.clauses {
            let at = c.at.resolve(baseline)?;
            let workers: Vec<u32> = match c.target {
                FaultTarget::Worker(w) => {
                    if w as usize >= platform.workers() {
                        return Err(SimError::InvalidPlan {
                            reason: format!(
                                "worker {w} out of range (platform has {})",
                                platform.workers()
                            ),
                        });
                    }
                    vec![w]
                }
                FaultTarget::Class(c) => {
                    if usize::from(c) >= platform.k() {
                        return Err(SimError::InvalidPlan {
                            reason: format!(
                                "class c{c} out of range (platform has {} classes)",
                                platform.k()
                            ),
                        });
                    }
                    platform.workers_of(heteroprio_core::ClassId(c)).map(|w| w.0).collect()
                }
                FaultTarget::All => platform.all_workers().map(|w| w.0).collect(),
            };
            out.extend(workers.into_iter().map(|w| WorkerFault {
                worker: w,
                at,
                down_for: c.down_for,
            }));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy { max_attempts: 10, backoff_base: 1.0, backoff_cap: 5.0 };
        assert_eq!(r.delay_after(1), 1.0);
        assert_eq!(r.delay_after(2), 2.0);
        assert_eq!(r.delay_after(3), 4.0);
        assert_eq!(r.delay_after(4), 5.0, "capped");
        assert_eq!(r.delay_after(60), 5.0, "no overflow");
    }

    #[test]
    fn parses_full_spec() {
        let s = FaultSpec::parse("gpu@25%, w3@10+5, fail=0.05, seed=7").unwrap();
        assert_eq!(s.task_failure_prob, Some(0.05));
        assert_eq!(s.seed, Some(7));
        assert_eq!(s.clauses.len(), 2);
        assert_eq!(
            s.clauses[0],
            FaultClause {
                target: FaultTarget::Class(1),
                at: TimeSpec::Percent(25.0),
                down_for: None
            }
        );
        assert_eq!(
            s.clauses[1],
            FaultClause {
                target: FaultTarget::Worker(3),
                at: TimeSpec::Abs(10.0),
                down_for: Some(5.0)
            }
        );
        assert!(s.needs_baseline());
        assert!(!FaultSpec::parse("w0@3").unwrap().needs_baseline());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["gpu", "x@5", "w@5", "gpu@x", "gpu@5+", "fail=x", "seed=-1"] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn class_targets_parse_by_index_and_table_name() {
        // `cN` needs no table; names beyond cpu/gpu resolve through one.
        let s = FaultSpec::parse("c2@10").unwrap();
        assert_eq!(s.clauses[0].target, FaultTarget::Class(2));
        assert!(FaultSpec::parse("fpga@10").is_err(), "unknown name without a table");
        let table =
            heteroprio_core::ClassTable::new(&[("cpu", 2), ("gpu", 1), ("fpga", 1)]).unwrap();
        let s = FaultSpec::parse_with("FPGA@10+5, cpu@3", Some(&table)).unwrap();
        assert_eq!(s.clauses[0].target, FaultTarget::Class(2));
        assert_eq!(s.clauses[1].target, FaultTarget::Class(0));
        // Resolution expands to exactly the class-block workers.
        let plat = table.platform();
        let faults = s.resolve(&plat, None).unwrap();
        assert_eq!(
            faults.iter().map(|f| f.worker).collect::<Vec<_>>(),
            vec![3, 0, 1],
            "fpga is worker 3; cpus are workers 0-1"
        );
        // A class index past the platform's k is rejected at resolve time.
        let err = FaultSpec::parse("c3@1").unwrap().resolve(&plat, None);
        assert!(err.is_err());
    }

    #[test]
    fn resolve_expands_classes_and_percents() {
        let plat = Platform::new(2, 2);
        let spec = FaultSpec::parse("gpu@50%").unwrap();
        let faults = spec.resolve(&plat, Some(200.0)).unwrap();
        assert_eq!(faults.len(), 2);
        for f in &faults {
            assert_eq!(f.at, 100.0);
            assert_eq!(f.down_for, None);
        }
        // Percent without a baseline is an error.
        assert!(spec.resolve(&plat, None).is_err());
        // Out-of-range worker is an error.
        assert!(FaultSpec::parse("w9@1").unwrap().resolve(&plat, None).is_err());
    }

    #[test]
    fn plan_validation_catches_bad_numbers() {
        let mut p = FaultPlan::NONE.clone();
        assert!(p.validate().is_ok() && p.is_none());
        p.task_failure_prob = 1.5;
        assert!(p.validate().is_err());
        p.task_failure_prob = 0.0;
        p.exec_jitter = -1.0;
        assert!(p.validate().is_err());
        p.exec_jitter = 0.0;
        p.retry.max_attempts = 0;
        assert!(p.validate().is_err());
        p.retry = RetryPolicy::DEFAULT;
        p.worker_faults.push(WorkerFault::transient(0, 1.0, 0.0));
        assert!(p.validate().is_err());
    }
}
