//! Deterministic fault injection: worker failures, stochastic execution
//! times, and task-level failures with retry.
//!
//! A [`FaultPlan`] describes everything that can go wrong during a run,
//! and it is the kernel's only fault input: [`Run::faults`] carries it to
//! every engine (independent, release-dates and DAG). It is fully
//! deterministic per seed (the vendored `rand` shim is a seeded
//! xoshiro256++), so every failure scenario is replayable. The zero plan
//! ([`FaultPlan::NONE`]) draws no random numbers and leaves the kernel
//! byte-identical to a fault-free run.
//!
//! Worker faults come in two flavours: *permanent* (the worker never comes
//! back — a GPU falling off the bus) and *transient* (down for a fixed
//! interval — a driver reset). In both cases in-flight work is lost, the
//! running task re-enters the ready set at its original priority, and the
//! dead worker is excluded from policy decisions until recovery.
//!
//! Task failures are Bernoulli per attempt; a failed attempt costs the
//! in-progress time and is retried after a capped exponential backoff, up
//! to [`RetryPolicy::max_attempts`] attempts, after which the run fails
//! with [`RunError::TaskAbandoned`].
//!
//! [`Run::faults`]: crate::kernel::Run::faults

use crate::kernel::RunError;
use crate::model::Platform;

/// Retry policy for failed task attempts: capped exponential backoff with a
/// per-task attempt budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per task (first run included). When the
    /// `max_attempts`-th attempt fails the task is abandoned.
    pub max_attempts: u32,
    /// Backoff before retry `k` is `min(backoff_cap, backoff_base · 2^(k-1))`.
    pub backoff_base: f64,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: f64,
}

impl RetryPolicy {
    pub const DEFAULT: RetryPolicy =
        RetryPolicy { max_attempts: 3, backoff_base: 1.0, backoff_cap: 64.0 };

    /// Widest doubling [`RetryPolicy::delay_after`] ever computes. The
    /// shift must be capped *before* the multiplier is built: `1u64 << 64`
    /// is undefined (a panic in debug, a wrap in release), and past 2^63
    /// the `backoff_cap` min dominates anyway.
    pub const MAX_BACKOFF_SHIFT: u32 = 63;

    /// Backoff delay after the `failures`-th failed attempt (1-based).
    /// Total for any `failures`, including `u32::MAX`: the exponent
    /// saturates at [`RetryPolicy::MAX_BACKOFF_SHIFT`] and the result is
    /// clamped to `backoff_cap`.
    pub fn delay_after(&self, failures: u32) -> f64 {
        let exp = failures.saturating_sub(1).min(Self::MAX_BACKOFF_SHIFT);
        (self.backoff_base * (1u64 << exp) as f64).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

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

/// Everything that can go wrong in one run.
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

    /// True when the plan injects nothing (the kernel then draws no random
    /// numbers and reproduces fault-free traces exactly).
    pub fn is_none(&self) -> bool {
        // lint: allow(float-eq): exact sentinel — 0.0 means "feature off", set literally by
        // FaultPlan::NONE / the parser, never produced by arithmetic.
        self.worker_faults.is_empty() && self.task_failure_prob == 0.0 && self.exec_jitter == 0.0
    }

    /// Check the plan's numbers, and its worker ids against `platform`.
    /// [`kernel::run`](crate::kernel::run) calls this before it emits
    /// anything, so every engine rejects the same plans.
    pub fn validate(&self, platform: &Platform) -> Result<(), RunError> {
        let bad = |reason: String| Err(RunError::InvalidPlan { reason });
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
            if f.worker as usize >= platform.workers() {
                return bad(format!(
                    "worker {} out of range (platform has {})",
                    f.worker,
                    platform.workers()
                ));
            }
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
                if !(f.at + d).is_finite() {
                    return bad(format!(
                        "worker {} recovery at {:e} + {d:e} overflows",
                        f.worker, f.at
                    ));
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

/// One expanded point on the worker-fault timeline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimelineEvent {
    pub(crate) time: f64,
    pub(crate) worker: u32,
    /// `true` for a recovery, `false` for a failure.
    pub(crate) up: bool,
    pub(crate) permanent: bool,
}

/// Checked accessor for a fault entry; callers index with loop bounds.
fn fault_at(faults: &[(f64, Option<f64>)], j: usize) -> (f64, Option<f64>) {
    *faults.get(j).expect("j < faults.len() loop bound")
}

/// Expand a validated plan's worker faults into a down/up timeline sorted
/// by time (failures before recoveries at equal instants), merging
/// overlapping intervals per worker (a permanent failure swallows
/// everything after it). The empty plan allocates nothing.
pub(crate) fn expand_timeline(plan: &FaultPlan, workers: usize) -> Vec<TimelineEvent> {
    if plan.worker_faults.is_empty() {
        return Vec::new();
    }
    let mut per: Vec<Vec<(f64, Option<f64>)>> = vec![Vec::new(); workers];
    for f in &plan.worker_faults {
        per.get_mut(f.worker as usize).expect("validated worker id").push((f.at, f.down_for));
    }
    let mut out = Vec::new();
    for (w, mut faults) in per.into_iter().enumerate() {
        faults.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut i = 0;
        while i < faults.len() {
            let (start, dur) = fault_at(&faults, i);
            let mut up = dur.map(|d| start + d);
            let mut j = i + 1;
            while j < faults.len() {
                match up {
                    None => j = faults.len(),
                    Some(u) if fault_at(&faults, j).0 <= u => {
                        let (at, down_for) = fault_at(&faults, j);
                        up = down_for.map(|d| u.max(at + d));
                        j += 1;
                    }
                    Some(_) => break,
                }
            }
            out.push(TimelineEvent {
                time: start,
                worker: w as u32,
                up: false,
                permanent: up.is_none(),
            });
            if let Some(u) = up {
                out.push(TimelineEvent { time: u, worker: w as u32, up: true, permanent: false });
            }
            i = j;
        }
    }
    out.sort_by(|a, b| a.time.total_cmp(&b.time).then((a.up as u8).cmp(&(b.up as u8))));
    out
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
    fn backoff_delay_is_total_and_capped() {
        let retry = RetryPolicy { max_attempts: u32::MAX, backoff_base: 0.5, backoff_cap: 1e6 };
        assert_eq!(retry.delay_after(0), 0.5);
        assert_eq!(retry.delay_after(1), 0.5);
        assert_eq!(retry.delay_after(2), 1.0);
        // Large failure counts saturate the shift (a shift of 64+ would
        // panic in debug builds) and clamp to the cap.
        for failures in [53, 63, 64, 65, 1_000, u32::MAX] {
            let d = retry.delay_after(failures);
            assert!(d.is_finite(), "delay_after({failures}) = {d}");
            assert_eq!(d, 1e6);
        }
        // Even when base · 2^63 overflows to infinity, the cap wins.
        let retry = RetryPolicy { max_attempts: 3, backoff_base: f64::MAX, backoff_cap: 7.0 };
        assert_eq!(retry.delay_after(u32::MAX), 7.0);
    }

    #[test]
    fn plan_validation_catches_bad_numbers_and_workers() {
        let platform = Platform::new(1, 1);
        let mut p = FaultPlan::NONE.clone();
        assert!(p.validate(&platform).is_ok() && p.is_none());
        p.task_failure_prob = 1.5;
        assert!(p.validate(&platform).is_err());
        p.task_failure_prob = 0.0;
        p.exec_jitter = -1.0;
        assert!(p.validate(&platform).is_err());
        p.exec_jitter = 0.0;
        p.retry.max_attempts = 0;
        assert!(p.validate(&platform).is_err());
        p.retry = RetryPolicy::DEFAULT;
        p.worker_faults.push(WorkerFault::transient(0, 1.0, 0.0));
        assert!(p.validate(&platform).is_err());
        // Both numbers are finite, but the recovery instant is not.
        p.worker_faults = vec![WorkerFault::transient(0, 1e308, 1e308)];
        assert!(p.validate(&platform).is_err());
        p.worker_faults = vec![WorkerFault::permanent(2, 1.0)];
        let err = p.validate(&platform).unwrap_err();
        assert_eq!(err.to_string(), "invalid fault plan: worker 2 out of range (platform has 2)");
    }

    #[test]
    fn overlapping_faults_merge_per_worker() {
        let plan = FaultPlan {
            worker_faults: vec![
                WorkerFault::transient(1, 4.0, 2.0),
                WorkerFault::transient(0, 1.0, 3.0),
                WorkerFault::transient(0, 2.0, 1.0),
                WorkerFault::permanent(1, 5.0),
            ],
            ..FaultPlan::NONE
        };
        let timeline: Vec<_> = expand_timeline(&plan, 2)
            .iter()
            .map(|e| (e.time, e.worker, e.up, e.permanent))
            .collect();
        assert_eq!(
            timeline,
            vec![(1.0, 0, false, false), (4.0, 1, false, true), (4.0, 0, true, false)],
            "worker 0's second outage lies inside its first; worker 1's death swallows its \
             recovery; a failure precedes a recovery at the same instant"
        );
        assert!(expand_timeline(&FaultPlan::NONE, 2).is_empty());
    }
}
