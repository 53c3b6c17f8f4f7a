//! Online HeteroPrio: independent tasks arriving over time.
//!
//! The paper analyses the clairvoyant case where the whole set is ready at
//! time zero (and its §6.2 DAG experiments release tasks through dependency
//! resolution). A third natural setting — studied for two resource classes
//! by Imreh \[14\] — is *release dates*: task `i` becomes known and ready at
//! time `r_i`. HeteroPrio extends verbatim: arrivals are inserted into the
//! ρ-sorted queue, GPUs keep popping the most accelerated end, CPUs the
//! least accelerated end, and idle workers attempt spoliation when the
//! queue is empty.
//!
//! With all `r_i = 0` this reproduces [`crate::heteroprio::heteroprio`]
//! exactly (tested below).
//!
//! Arrivals are a [`Workload`] over the shared event kernel
//! ([`crate::kernel`]); the policy is the offline engine's
//! [`HeteroPrioPolicy`], with arrivals pushed into the incremental
//! [`ClassQueue`](crate::ClassQueue) instead of sorted in one batch.

use crate::heteroprio::{HeteroPrioConfig, HeteroPrioPolicy, HeteroPrioResult, HeteroPrioState};
use crate::kernel::{self, Run, Workload};
use crate::model::{ClassId, Instance, Platform, TaskId};
use heteroprio_metrics::NullRegistry;
use heteroprio_trace::{NullSink, TraceSink};

/// The release-dates engine: task `i` of `instance` arrives at
/// `releases[i]` and is scheduled by Algorithm 1's queue discipline under
/// `config`. Drive the pair with [`kernel::run`].
///
/// Panics if `releases.len() != instance.len()` or any release is negative
/// or not finite.
pub fn release_dates<'a>(
    instance: &'a Instance,
    releases: &'a [f64],
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> (ReleaseWorkload<'a>, HeteroPrioPolicy<'a>) {
    assert_eq!(releases.len(), instance.len(), "one release date per task");
    assert!(
        releases.iter().all(|&r| r >= 0.0 && r.is_finite()),
        "release dates must be non-negative and finite"
    );
    let state = HeteroPrioState::new(platform.k(), *config);
    (ReleaseWorkload::new(instance, releases), HeteroPrioPolicy { instance, state })
}

/// Run HeteroPrio with per-task release dates (`releases[i]` for task `i`).
///
/// Panics if `releases.len() != instance.len()` or any release is negative.
pub fn heteroprio_online(
    instance: &Instance,
    releases: &[f64],
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> HeteroPrioResult {
    heteroprio_online_traced(instance, releases, platform, config, &mut NullSink)
}

/// [`heteroprio_online`] with a trace sink (see
/// [`heteroprio_traced`](crate::heteroprio_traced)).
pub fn heteroprio_online_traced<S: TraceSink>(
    instance: &Instance,
    releases: &[f64],
    platform: &Platform,
    config: &HeteroPrioConfig,
    sink: &mut S,
) -> HeteroPrioResult {
    let (mut workload, mut policy) = release_dates(instance, releases, platform, config);
    let spec = Run::new(sink, &NullRegistry);
    let outcome = kernel::run(platform, &mut workload, &mut policy, spec);
    outcome.expect("a fault-free run fails only on RunError::InstantOverflow").into()
}

/// Independent tasks with release dates: arrivals sorted by (release, id)
/// feed the kernel as externally-timed ready announcements.
pub struct ReleaseWorkload<'a> {
    instance: &'a Instance,
    releases: &'a [f64],
    /// Task ids sorted by (release, id).
    arrivals: Vec<TaskId>,
    /// Cursor into `arrivals`.
    next: usize,
}

/// Checked release-time lookup; `releases` is validated to instance size.
fn release_of(releases: &[f64], t: TaskId) -> f64 {
    *releases.get(t.index()).expect("releases sized to the instance")
}

impl<'a> ReleaseWorkload<'a> {
    fn new(instance: &'a Instance, releases: &'a [f64]) -> Self {
        let mut arrivals: Vec<TaskId> = instance.ids().collect();
        arrivals.sort_by(|&a, &b| {
            release_of(releases, a).total_cmp(&release_of(releases, b)).then(a.cmp(&b))
        });
        ReleaseWorkload { instance, releases, arrivals, next: 0 }
    }
}

impl Workload for ReleaseWorkload<'_> {
    fn len(&self) -> usize {
        self.instance.len()
    }

    fn initial(&mut self) -> Vec<TaskId> {
        let mut due = Vec::new();
        self.arrivals_due(0.0, &mut due);
        due
    }

    fn next_arrival(&self) -> Option<f64> {
        self.arrivals.get(self.next).map(|&t| release_of(self.releases, t))
    }

    fn arrivals_due(&mut self, now: f64, out: &mut Vec<TaskId>) {
        while let Some(&t) = self.arrivals.get(self.next) {
            if release_of(self.releases, t) > now {
                break;
            }
            out.push(t);
            self.next += 1;
        }
    }

    fn duration(&self, task: TaskId, class: ClassId, _ran_kind: &[Option<ClassId>]) -> f64 {
        self.instance.task(task).time_on(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heteroprio::heteroprio;
    use crate::time::approx_eq;

    #[test]
    fn zero_releases_match_offline_heteroprio() {
        let times: Vec<(f64, f64)> =
            (1..=15).map(|i| (((i * 31) % 9 + 1) as f64, ((i * 17) % 5 + 1) as f64)).collect();
        let inst = Instance::from_times(&times);
        let releases = vec![0.0; inst.len()];
        for platform in [Platform::new(1, 1), Platform::new(3, 2)] {
            let cfg = HeteroPrioConfig::new();
            let offline = heteroprio(&inst, &platform, &cfg);
            let online = heteroprio_online(&inst, &releases, &platform, &cfg);
            online.schedule.validate(&inst, &platform).unwrap();
            assert!(
                approx_eq(offline.makespan(), online.makespan()),
                "offline {} vs online {}",
                offline.makespan(),
                online.makespan()
            );
            assert_eq!(offline.spoliations, online.spoliations);
        }
    }

    #[test]
    fn tasks_never_start_before_release() {
        let inst = Instance::from_times(&[(2.0, 1.0), (2.0, 1.0), (1.0, 2.0)]);
        let releases = vec![0.0, 5.0, 3.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        res.schedule.validate(&inst, &plat).unwrap();
        for run in res.schedule.runs.iter().chain(&res.schedule.aborted) {
            assert!(
                run.start >= releases[run.task.index()] - 1e-12,
                "{} started at {} before release {}",
                run.task,
                run.start,
                releases[run.task.index()]
            );
        }
    }

    #[test]
    fn staggered_arrivals_create_gaps() {
        // One task arriving late: the machine idles until it lands.
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let releases = vec![10.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        assert!(approx_eq(res.makespan(), 11.0), "{}", res.makespan());
    }

    #[test]
    fn late_gpu_friendly_task_gets_spoliated_onto_gpu() {
        // The CPU grabs a GPU-friendly task arriving while the GPU is busy;
        // when the GPU frees up it spoliates.
        let inst = Instance::from_times(&[(10.0, 2.0), (50.0, 2.0)]);
        let releases = vec![0.0, 1.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        res.schedule.validate(&inst, &plat).unwrap();
        assert_eq!(res.spoliations, 1);
        // GPU: T0 [0,2], then T1 spoliated to [2,4].
        assert!(approx_eq(res.makespan(), 4.0), "{}", res.makespan());
    }

    #[test]
    fn arrival_while_idle_is_picked_up_immediately() {
        let inst = Instance::from_times(&[(4.0, 4.0), (1.0, 1.0)]);
        let releases = vec![0.0, 2.0];
        let plat = Platform::new(1, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        let late = res.schedule.run_of(TaskId(1)).unwrap();
        assert!(approx_eq(late.start, 2.0), "{}", late.start);
    }

    #[test]
    #[should_panic(expected = "one release date per task")]
    fn mismatched_release_length_panics() {
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let _ = heteroprio_online(&inst, &[], &plat, &HeteroPrioConfig::new());
    }

    #[test]
    fn makespan_at_least_last_release_plus_min_time() {
        let inst = Instance::from_times(&[(3.0, 6.0), (2.0, 4.0)]);
        let releases = vec![0.0, 7.0];
        let plat = Platform::new(2, 1);
        let res = heteroprio_online(&inst, &releases, &plat, &HeteroPrioConfig::new());
        assert!(res.makespan() >= 7.0 + 2.0 - 1e-9);
    }
}
