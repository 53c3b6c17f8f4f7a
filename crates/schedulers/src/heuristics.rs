//! Classic independent-task mapping heuristics (MCT, MinMin, MaxMin,
//! Sufferage), included as additional baselines around the paper's
//! comparison. None of them is affinity-aware in HeteroPrio's sense; they
//! bound the price of ignoring acceleration factors from a different angle
//! than HEFT.
//!
//! All of them maintain per-worker availability times and repeatedly map one
//! task; they differ in which task is mapped next:
//!
//! * **MCT** (minimum completion time): tasks in id order, each to the
//!   worker completing it first.
//! * **MinMin**: among unmapped tasks, map the one whose best completion
//!   time is smallest.
//! * **MaxMin**: map the one whose best completion time is largest.
//! * **Sufferage**: map the task that would "suffer" most if denied its
//!   best worker (largest second-best − best gap).

use crate::IndepAlgo;
use heteroprio_core::{Instance, Platform, Schedule, TaskId, TaskRun, WorkerId};

/// Best and second-best completion options for a task given worker
/// availabilities.
#[derive(Clone, Copy, Debug)]
struct Options {
    best_worker: usize,
    best_finish: f64,
    second_finish: f64,
}

fn options(instance: &Instance, platform: &Platform, avail: &[f64], task: TaskId) -> Options {
    let mut best_worker = 0;
    let mut best_finish = f64::INFINITY;
    let mut second_finish = f64::INFINITY;
    for w in platform.all_workers() {
        let ready_at = *avail.get(w.index()).expect("avail sized to platform.workers()");
        let finish = ready_at + instance.task(task).time_on(platform.class_of(w));
        if finish < best_finish {
            second_finish = best_finish;
            best_finish = finish;
            best_worker = w.index();
        } else if finish < second_finish {
            second_finish = finish;
        }
    }
    Options { best_worker, best_finish, second_finish }
}

/// Run one of the classic heuristics ([`IndepAlgo::HEURISTICS`]) on an
/// independent-task instance; any other entry maps in MCT order.
pub(crate) fn heuristic_schedule(
    heuristic: IndepAlgo,
    instance: &Instance,
    platform: &Platform,
) -> Schedule {
    let mut avail = vec![0.0_f64; platform.workers()];
    let mut runs = Vec::with_capacity(instance.len());
    let place = |task: TaskId, avail: &mut [f64], runs: &mut Vec<TaskRun>| {
        let opt = options(instance, platform, avail, task);
        let w = WorkerId(opt.best_worker as u32);
        let slot = avail.get_mut(opt.best_worker).expect("best_worker from platform range");
        let start = *slot;
        *slot = opt.best_finish;
        runs.push(TaskRun { task, worker: w, start, end: opt.best_finish });
    };

    match heuristic {
        IndepAlgo::MinMin | IndepAlgo::MaxMin | IndepAlgo::Sufferage => {
            let mut unmapped: Vec<TaskId> = instance.ids().collect();
            while !unmapped.is_empty() {
                // The largest key wins, ties to the lowest id: MinMin
                // negates its key, and negation reverses `total_cmp` exactly.
                let key = |task| {
                    let o = options(instance, platform, &avail, task);
                    match heuristic {
                        IndepAlgo::MinMin => -o.best_finish,
                        IndepAlgo::MaxMin => o.best_finish,
                        _ => o.second_finish - o.best_finish,
                    }
                };
                let pick = unmapped
                    .iter()
                    .enumerate()
                    .max_by(|&(_, &a), &(_, &b)| key(a).total_cmp(&key(b)).then(b.cmp(&a)))
                    .map(|(i, _)| i)
                    .expect("unmapped is non-empty inside the while loop");
                let task = unmapped.swap_remove(pick);
                place(task, &mut avail, &mut runs);
            }
        }
        _ => {
            for task in instance.ids() {
                place(task, &mut avail, &mut runs);
            }
        }
    }
    Schedule { runs, aborted: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_bounds::{combined_lower_bound, optimal_makespan};
    use heteroprio_core::time::approx_eq;

    fn check_all(instance: &Instance, platform: &Platform) -> Vec<(IndepAlgo, f64)> {
        IndepAlgo::HEURISTICS
            .iter()
            .map(|&h| {
                let sched = heuristic_schedule(h, instance, platform);
                sched.validate(instance, platform).unwrap_or_else(|e| panic!("{}: {e}", h.label()));
                assert!(
                    sched.makespan() >= combined_lower_bound(instance, platform) - 1e-9,
                    "{} beat the lower bound",
                    h.label()
                );
                (h, sched.makespan())
            })
            .collect()
    }

    #[test]
    fn all_heuristics_are_valid_on_mixed_instances() {
        let inst = Instance::from_times(&[
            (8.0, 1.0),
            (4.0, 2.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (3.0, 3.0),
            (6.0, 1.5),
        ]);
        for plat in [Platform::new(1, 1), Platform::new(2, 1), Platform::new(2, 2)] {
            check_all(&inst, &plat);
        }
    }

    #[test]
    fn single_task_goes_to_its_fast_worker() {
        let inst = Instance::from_times(&[(10.0, 2.0)]);
        let plat = Platform::new(2, 1);
        for h in IndepAlgo::HEURISTICS {
            let sched = heuristic_schedule(h, &inst, &plat);
            assert!(approx_eq(sched.makespan(), 2.0), "{}", h.label());
        }
    }

    #[test]
    fn minmin_matches_hand_run() {
        // Two tasks on one CPU, one GPU: A (4, 3), B (1, 2).
        // MinMin: B best finish = 1 (CPU) vs A best = 3 (GPU) → map B to CPU.
        // Then A: CPU finish 1+4=5, GPU 3 → A to GPU. Makespan 3.
        let inst = Instance::from_times(&[(4.0, 3.0), (1.0, 2.0)]);
        let plat = Platform::new(1, 1);
        let sched = heuristic_schedule(IndepAlgo::MinMin, &inst, &plat);
        assert!(approx_eq(sched.makespan(), 3.0), "{}", sched.makespan());
    }

    #[test]
    fn maxmin_maps_big_rocks_first() {
        // MaxMin maps the task with the largest best-finish first.
        let inst = Instance::from_times(&[(9.0, 9.0), (1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let sched = heuristic_schedule(IndepAlgo::MaxMin, &inst, &plat);
        // Big task first (either worker), small task to the other: 9.
        assert!(approx_eq(sched.makespan(), 9.0));
        let big = sched.run_of(TaskId(0)).unwrap();
        assert_eq!(big.start, 0.0);
    }

    #[test]
    fn sufferage_prioritizes_contended_tasks() {
        // A prefers GPU strongly (sufferage 9), B mildly (sufferage 1):
        // A must win the GPU.
        let inst = Instance::from_times(&[(10.0, 1.0), (3.0, 2.0)]);
        let plat = Platform::new(1, 1);
        let sched = heuristic_schedule(IndepAlgo::Sufferage, &inst, &plat);
        let a = sched.run_of(TaskId(0)).unwrap();
        assert_eq!(plat.kind_of(a.worker), heteroprio_core::ResourceKind::Gpu);
        assert!(approx_eq(sched.makespan(), 3.0), "{}", sched.makespan());
    }

    #[test]
    fn heuristics_are_within_reason_of_optimal_on_micro_instances() {
        // Not approximation guarantees — just a sanity envelope on tiny
        // instances (they can all be multiple times worse in theory).
        let inst = Instance::from_times(&[(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (4.0, 1.5)]);
        let plat = Platform::new(2, 1);
        let opt = optimal_makespan(&inst, &plat).makespan;
        for (h, ms) in check_all(&inst, &plat) {
            assert!(ms <= 3.0 * opt + 1e-9, "{}: {ms} vs opt {opt}", h.label());
        }
    }

    #[test]
    fn mct_depends_on_input_order_but_others_less_so() {
        // MCT is order-sensitive by construction; verify it runs on a
        // reversed instance and still validates.
        let forward = Instance::from_times(&[(5.0, 1.0), (1.0, 5.0), (3.0, 3.0)]);
        let plat = Platform::new(1, 1);
        let sched = heuristic_schedule(IndepAlgo::Mct, &forward, &plat);
        sched.validate(&forward, &plat).unwrap();
    }
}
