//! The `--faults` grammar: a [`FaultSpec`] parses a spec string and
//! resolves it on a platform into the worker faults of a
//! [`FaultPlan`](heteroprio_core::FaultPlan), the kernel's one fault input.
//! Every rejection is [`RunError::InvalidPlan`].

use heteroprio_core::{Platform, RunError, WorkerFault};

/// A time in a fault spec: absolute, or a percentage of the fault-free
/// makespan (resolved by the caller after a baseline run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TimeSpec {
    Abs(f64),
    Percent(f64),
}

impl TimeSpec {
    fn resolve(self, baseline: Option<f64>) -> Result<f64, RunError> {
        match self {
            TimeSpec::Abs(t) => Ok(t),
            TimeSpec::Percent(p) => {
                baseline.map(|m| m * p / 100.0).ok_or_else(|| RunError::InvalidPlan {
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
    pub fn parse(s: &str) -> Result<FaultSpec, RunError> {
        FaultSpec::parse_with(s, None)
    }

    /// [`parse`](FaultSpec::parse) with a [`ClassTable`](heteroprio_core::ClassTable): clause targets may
    /// then use the table's class names (case-insensitively) in addition to
    /// the builtin `cpu`/`gpu`/`cN` forms.
    pub fn parse_with(
        s: &str,
        table: Option<&heteroprio_core::ClassTable>,
    ) -> Result<FaultSpec, RunError> {
        let bad = |reason: String| RunError::InvalidPlan { reason };
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
    ) -> Result<Vec<WorkerFault>, RunError> {
        let mut out = Vec::new();
        for c in &self.clauses {
            let at = c.at.resolve(baseline)?;
            let workers: Vec<u32> = match c.target {
                FaultTarget::Worker(w) => {
                    if w as usize >= platform.workers() {
                        return Err(RunError::InvalidPlan {
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
                        return Err(RunError::InvalidPlan {
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
}
