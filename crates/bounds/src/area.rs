//! The area (divisible-load) lower bound of §4.2, in closed form.
//!
//! The paper defines `AreaBound(I)` as the optimum of a linear program that
//! lets every task be split fractionally between the CPU class and the GPU
//! class. Lemma 1 shows both classes finish simultaneously at the optimum;
//! Lemma 2 shows the optimal assignment is a threshold on the acceleration
//! factor: there is a `k > 0` such that every task with ρ > k is entirely on
//! GPUs and every task with ρ < k entirely on CPUs, with at most the
//! threshold tasks split. This module computes that optimum exactly by
//! sorting on ρ and locating the crossing point — no LP solver needed.

use heteroprio_core::model::{ClassId, Instance, ModelError, Platform, ResourceKind, Task, TaskId};
use heteroprio_core::time::{approx_le, strictly_less};
use heteroprio_core::{sorted_queue, QueueTieBreak};

/// The exact solution of the area-bound linear program.
#[derive(Clone, Debug)]
pub struct AreaBound {
    /// The bound itself: a lower bound on the optimal makespan.
    pub value: f64,
    /// `x[i]`: fraction of task `i` processed on the CPU class
    /// (`1 - x[i]` on the GPU class), indexed by task id.
    pub cpu_fraction: Vec<f64>,
    /// The acceleration-factor threshold `k` of Lemma 2 (any value separating
    /// the GPU side from the CPU side; the ρ of the split task when one is
    /// split).
    pub threshold: f64,
}

impl AreaBound {
    /// Total CPU-class load of the fractional assignment, divided by `m`
    /// (i.e. the CPU-class finish time).
    pub fn cpu_finish(&self, instance: &Instance, platform: &Platform) -> f64 {
        let load: f64 = instance
            .ids()
            .map(|id| self.cpu_fraction[id.index()] * instance.task(id).cpu_time())
            .sum();
        load / platform.cpus() as f64
    }

    /// GPU-class finish time of the fractional assignment.
    pub fn gpu_finish(&self, instance: &Instance, platform: &Platform) -> f64 {
        let load: f64 = instance
            .ids()
            .map(|id| (1.0 - self.cpu_fraction[id.index()]) * instance.task(id).gpu_time())
            .sum();
        load / platform.gpus() as f64
    }
}

/// Compute `AreaBound(I)` exactly.
///
/// Runs in `O(|I| log |I|)` (the ready queue's sort dominates). Every task's times are
/// re-checked first, so a task assembled by `Task::from_raw_times` with a
/// zero, negative or non-finite time gets the checked constructor's typed
/// error instead of a bound.
pub fn area_bound(instance: &Instance, platform: &Platform) -> Result<AreaBound, ModelError> {
    for task in instance.tasks() {
        Task::try_from_times(task.times())?;
    }
    if instance.is_empty() {
        return Ok(AreaBound { value: 0.0, cpu_fraction: Vec::new(), threshold: 1.0 });
    }
    // Tasks by non-increasing acceleration factor, GPU-friendliest first,
    // ties by id: the ready queue's own order under insertion-order ties.
    let ids: Vec<TaskId> = instance.ids().collect();
    let order = Vec::from(sorted_queue(instance, &ids, QueueTieBreak::InsertionOrder));
    Ok(threshold_solution(instance, platform, &order))
}

/// The Lemma 2 threshold solution along `order`, the non-empty instance's
/// tasks by non-increasing acceleration factor.
fn threshold_solution(instance: &Instance, platform: &Platform, order: &[TaskId]) -> AreaBound {
    let n = order.len();
    let m = platform.cpus() as f64;
    let g = platform.gpus() as f64;

    // Prefix GPU work and suffix CPU work along that order.
    // gpu_prefix[j] = Σ_{i<j} q_(order[i]); cpu_suffix[j] = Σ_{i>=j} p_(order[i]).
    let mut gpu_prefix = vec![0.0; n + 1];
    for j in 0..n {
        gpu_prefix[j + 1] = gpu_prefix[j] + instance.task(order[j]).gpu_time();
    }
    let mut cpu_suffix = vec![0.0; n + 1];
    for j in (0..n).rev() {
        cpu_suffix[j] = cpu_suffix[j + 1] + instance.task(order[j]).cpu_time();
    }

    // Find the smallest j such that the GPU class, holding the first j tasks,
    // finishes no earlier than the CPU class holding the rest. j = n always
    // qualifies (CPU side is then empty).
    let gpu_finish = |j: usize| gpu_prefix[j] / g;
    let cpu_finish = |j: usize| cpu_suffix[j] / m;
    let mut j_star = n;
    for j in 0..=n {
        if gpu_finish(j) >= cpu_finish(j) {
            j_star = j;
            break;
        }
    }

    let mut cpu_fraction = vec![0.0; n];
    // Tasks strictly after the crossing go to CPUs.
    for &id in &order[j_star.min(n)..] {
        cpu_fraction[id.index()] = 1.0;
    }

    if j_star == 0 {
        // Even with every task on the CPUs the GPU class is the bottleneck at
        // level 0 — only possible when there are no tasks, handled above.
        // With j_star == 0 and tasks present: gpu_finish(0) = 0 >= cpu_finish(0)
        // requires cpu_finish(0) == 0, impossible for the positive times
        // checked on entry.
        unreachable!("positive processing times make cpu_finish(0) > 0");
    }

    // Split the crossing task (position j_star - 1): fraction x on CPUs.
    let split = order[j_star - 1];
    let p = instance.task(split).cpu_time();
    let q = instance.task(split).gpu_time();
    let base_cpu = cpu_finish(j_star); // CPU finish without the split task
    let base_gpu = gpu_prefix[j_star - 1] / g; // GPU finish without it
                                               // Solve base_cpu + x p / m = base_gpu + (1 - x) q / g.
    let x = ((base_gpu + q / g - base_cpu) / (p / m + q / g)).clamp(0.0, 1.0);
    cpu_fraction[split.index()] = x;
    let value = base_cpu + x * p / m;

    AreaBound { value, cpu_fraction, threshold: instance.task(split).accel_factor() }
}

/// Check that a fractional assignment `x` (CPU fractions) is feasible and
/// compute its objective `max(CPU finish, GPU finish)`. Used by property
/// tests to certify optimality of [`area_bound`] against random assignments.
pub fn fractional_objective(instance: &Instance, platform: &Platform, x: &[f64]) -> f64 {
    assert_eq!(x.len(), instance.len());
    let mut cpu = 0.0;
    let mut gpu = 0.0;
    for id in instance.ids() {
        let f = x[id.index()];
        assert!((-1e-12..=1.0 + 1e-12).contains(&f), "fraction out of range");
        cpu += f * instance.task(id).cpu_time();
        gpu += (1.0 - f) * instance.task(id).gpu_time();
    }
    (cpu / platform.cpus() as f64).max(gpu / platform.gpus() as f64)
}

/// A valid lower bound on the k-class area LP, by supergradient ascent on
/// its Lagrangian dual.
///
/// The LP generalizes §4.2 to k classes: minimize `T` subject to
/// `Σ_c x_ic = 1` and `Σ_i x_ic t_ic ≤ T · m_c`. For any class weights
/// `y ≥ 0` normalized to `Σ_c y_c m_c = 1`,
///
/// ```text
/// T* ≥ Σ_i min_c (y_c · t_ic)
/// ```
///
/// because every unit of task `i` must pay at least its cheapest weighted
/// time somewhere. The right-hand side is concave in `y`, so a projected
/// supergradient ascent (deterministic: fixed start, fixed diminishing
/// steps) tightens it; every iterate is itself a certificate, and the best
/// one is returned. At `k = 2` the exact threshold solution of
/// [`area_bound`] is the LP optimum; this routine approaches it from below
/// (tested), and [`combined_lower_bound`] uses the exact form there.
pub fn area_bound_dual(instance: &Instance, platform: &Platform) -> f64 {
    let n = instance.len();
    if n == 0 {
        return 0.0;
    }
    let k = platform.k();
    let caps: Vec<f64> = (0..k).map(|c| platform.count(ClassId(c as u16)) as f64).collect();

    // Dual objective and its supergradient at y: each task contributes its
    // cheapest weighted time; the gradient component of the winning class
    // is that task's raw time there.
    let eval = |y: &[f64], grad: &mut [f64]| -> f64 {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut total = 0.0;
        for id in instance.ids() {
            let task = instance.task(id);
            let mut best_c = 0;
            let mut best = f64::INFINITY;
            for (c, &yc) in y.iter().enumerate() {
                let v = yc * task.time_on(ClassId(c as u16));
                if v < best {
                    best = v;
                    best_c = c;
                }
            }
            total += best;
            grad[best_c] += task.time_on(ClassId(best_c as u16));
        }
        total
    };

    // Project onto the normalization Σ_c y_c m_c = 1 (scale invariance of
    // the bound makes this a rescale, not a true projection).
    let normalize = |y: &mut [f64]| {
        let s: f64 = y.iter().zip(&caps).map(|(yc, mc)| yc * mc).sum();
        if s > 0.0 {
            y.iter_mut().for_each(|yc| *yc /= s);
        }
    };

    let mut y: Vec<f64> = caps.iter().map(|&mc| 1.0 / (k as f64 * mc)).collect();
    let mut grad = vec![0.0; k];
    let mut best = eval(&y, &mut grad);
    for step in 1..=200usize {
        let gnorm: f64 = grad.iter().zip(&caps).map(|(g, mc)| g / mc).fold(0.0, |a, b| a.max(b));
        if gnorm <= 0.0 {
            break;
        }
        let eta = 1.0 / (gnorm * (step as f64).sqrt() * k as f64);
        for (yc, g) in y.iter_mut().zip(&grad) {
            *yc = (*yc + eta * g).max(0.0);
        }
        normalize(&mut y);
        best = best.max(eval(&y, &mut grad));
    }
    best
}

/// `max_i min_c t_ic`: the other immediate lower bound of §4.2.
pub fn min_time_bound(instance: &Instance) -> f64 {
    instance.max_min_time()
}

/// The combined lower bound on the optimal makespan used throughout the
/// experiments: `max(AreaBound, max_i min_c t_ic)`. Two-class platforms use
/// the exact threshold solution; `k ≥ 3`, and any instance [`area_bound`]
/// rejects, the dual certificate of [`area_bound_dual`].
pub fn combined_lower_bound(instance: &Instance, platform: &Platform) -> f64 {
    let exact = if platform.k() == 2 { area_bound(instance, platform).ok() } else { None };
    let area = exact.map_or_else(|| area_bound_dual(instance, platform), |ab| ab.value);
    area.max(min_time_bound(instance))
}

/// Structural invariants of Lemmas 1 and 2, checked on a computed bound.
/// Returns an error message when violated (used by tests).
pub fn check_structure(
    instance: &Instance,
    platform: &Platform,
    ab: &AreaBound,
) -> Result<(), String> {
    if instance.is_empty() {
        return Ok(());
    }
    // Lemma 1: both classes finish at the same time, equal to the bound.
    let cf = ab.cpu_finish(instance, platform);
    let gf = ab.gpu_finish(instance, platform);
    if !(approx_le(cf, gf) && approx_le(gf, cf)) {
        return Err(format!("Lemma 1 violated: cpu {cf} vs gpu {gf}"));
    }
    if !(approx_le(ab.value, cf) && approx_le(cf, ab.value)) {
        return Err(format!("bound {} != finish {cf}", ab.value));
    }
    // Lemma 2: threshold structure on ρ.
    for id in instance.ids() {
        let rho = instance.task(id).accel_factor();
        let x = ab.cpu_fraction[id.index()];
        if strictly_less(x, 1.0) && strictly_less(rho, ab.threshold) {
            return Err(format!(
                "Lemma 2 violated: {id} partially on GPU with rho {rho} < k {}",
                ab.threshold
            ));
        }
        if strictly_less(0.0, x) && strictly_less(ab.threshold, rho) {
            return Err(format!(
                "Lemma 2 violated: {id} partially on CPU with rho {rho} > k {}",
                ab.threshold
            ));
        }
    }
    Ok(())
}

/// Per-class capacity used by the area-bound solution over `[0, value]`,
/// needed by the paper's Figure 9 normalization (idle time is normalized by
/// the amount of each resource used in the lower-bound solution).
pub fn class_usage(
    instance: &Instance,
    platform: &Platform,
    kind: ResourceKind,
) -> Result<f64, ModelError> {
    let ab = area_bound(instance, platform)?;
    Ok(match kind {
        ResourceKind::Cpu => instance
            .ids()
            .map(|id| ab.cpu_fraction[id.index()] * instance.task(id).cpu_time())
            .sum(),
        ResourceKind::Gpu => instance
            .ids()
            .map(|id| (1.0 - ab.cpu_fraction[id.index()]) * instance.task(id).gpu_time())
            .sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::time::approx_eq;
    use heteroprio_core::Platform;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn the_queue_order_gives_the_comparator_sorts_bound_bit_for_bit() {
        // The order `area_bound` used before it took the ready queue's:
        // non-increasing ρ by `total_cmp`, ties by id, one division of
        // p by q per comparison.
        let comparator_order = |instance: &Instance| {
            let mut order: Vec<TaskId> = instance.ids().collect();
            order.sort_by(|&a, &b| {
                let rho = |id: TaskId| instance.task(id).accel_factor();
                rho(b).total_cmp(&rho(a)).then(a.cmp(&b))
            });
            order
        };
        let mut rng = StdRng::seed_from_u64(0xA2EA);
        for round in 0..300 {
            // Few integer shapes and their multiples: equal ρ from equal
            // and from different times, in every position.
            let n = rng.random_range(1usize..60);
            let tasks = (0..n).map(|_| {
                let (p, q) = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (4.0, 2.0), (3.0, 9.0)]
                    [rng.random_range(0usize..5)];
                let scale = [1.0, 2.0, 0.5, 3.0][rng.random_range(0usize..4)];
                Task::new(p * scale, q * scale)
            });
            let inst = Instance::from_tasks(tasks.collect());
            let plat = Platform::new(rng.random_range(1usize..6), rng.random_range(1usize..4));
            let got = area_bound(&inst, &plat).expect("valid instance");
            let want = threshold_solution(&inst, &plat, &comparator_order(&inst));
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "round {round}");
            assert_eq!(got.threshold.to_bits(), want.threshold.to_bits(), "round {round}");
            let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.cpu_fraction), bits(&want.cpu_fraction), "round {round}");
        }
    }

    #[test]
    fn negative_raw_times_are_a_typed_error() {
        // The negative task makes the total CPU work negative, so the empty
        // GPU prefix already "finishes last": this used to reach the
        // `unreachable!` instead of returning an error.
        let inst = Instance::from_tasks(vec![
            Task::new(2.0, 1.0),
            Task::from_raw_times(&[-5.0, -2.0], 0.0),
        ]);
        let plat = Platform::new(1, 1);
        assert_eq!(
            area_bound(&inst, &plat).unwrap_err(),
            ModelError::BadTaskTime { field: "cpu_time", value: -5.0 }
        );
        assert!(class_usage(&inst, &plat, ResourceKind::Cpu).is_err());
        // The combined bound falls back to the dual certificate.
        combined_lower_bound(&inst, &plat);
    }

    #[test]
    fn empty_instance_bound_is_zero() {
        let inst = Instance::new();
        let plat = Platform::new(1, 1);
        assert_eq!(area_bound(&inst, &plat).unwrap().value, 0.0);
    }

    #[test]
    fn single_balanced_task_splits() {
        // One task (p=1, q=1) on (1,1): split evenly, bound 1/2.
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let ab = area_bound(&inst, &plat).unwrap();
        assert!(approx_eq(ab.value, 0.5), "{}", ab.value);
        assert!(approx_eq(ab.cpu_fraction[0], 0.5));
        check_structure(&inst, &plat, &ab).unwrap();
    }

    #[test]
    fn theorem8_instance_bound() {
        // X (φ, 1), Y (1, 1/φ) on (1,1): assigning X to GPU and Y to CPU
        // gives both classes load 1 — exactly the optimal integral schedule,
        // so the area bound equals 1 too (it can't exceed the optimum).
        use heteroprio_core::PHI;
        let inst = Instance::from_times(&[(PHI, 1.0), (1.0, 1.0 / PHI)]);
        let plat = Platform::new(1, 1);
        let ab = area_bound(&inst, &plat).unwrap();
        assert!(approx_le(ab.value, 1.0));
        check_structure(&inst, &plat, &ab).unwrap();
    }

    #[test]
    fn gpu_heavy_mix_matches_hand_computation() {
        // Tasks: A (10, 1) ρ=10, B (4, 4) ρ=1, C (1, 10) ρ=0.1 on (2, 1).
        // Hand solve: put A on GPU, C on CPUs, split B.
        // x := CPU fraction of B: (1 + 4x)/2 = 1 + 4(1-x) → 2 + 8x = ... →
        // (1 + 4x)/2 = (1 + 4(1-x))/1 → 1 + 4x = 10 - 8x → x = 9/12 = 0.75;
        // value = (1 + 3)/2 = 2.
        let inst = Instance::from_times(&[(10.0, 1.0), (4.0, 4.0), (1.0, 10.0)]);
        let plat = Platform::new(2, 1);
        let ab = area_bound(&inst, &plat).unwrap();
        assert!(approx_eq(ab.value, 2.0), "{}", ab.value);
        assert!(approx_eq(ab.cpu_fraction[1], 0.75));
        assert!(approx_eq(ab.cpu_fraction[0], 0.0));
        assert!(approx_eq(ab.cpu_fraction[2], 1.0));
        check_structure(&inst, &plat, &ab).unwrap();
    }

    #[test]
    fn bound_below_any_integral_assignment() {
        let inst = Instance::from_times(&[(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (5.0, 1.0)]);
        let plat = Platform::new(2, 2);
        let ab = area_bound(&inst, &plat).unwrap();
        // Every integral class assignment is feasible for the LP, so the
        // area bound is at most each assignment's load objective.
        for mask in 0u32..16 {
            let mut cpu = 0.0;
            let mut gpu = 0.0;
            for i in 0..4 {
                if mask & (1 << i) != 0 {
                    cpu += inst.task(TaskId(i)).cpu_time();
                } else {
                    gpu += inst.task(TaskId(i)).gpu_time();
                }
            }
            let obj = (cpu / 2.0).max(gpu / 2.0);
            assert!(ab.value <= obj + 1e-9, "mask {mask}: {} > {obj}", ab.value);
        }
    }

    #[test]
    fn all_tasks_identical_balances_by_capacity() {
        // 10 tasks (2, 1) on (2, 2): ρ=2 for all. Pure rate balancing:
        // CPU rate m/p = 1 task/s, GPU rate n/q = 2 tasks/s → 10 tasks in
        // 10/3 s.
        let inst = Instance::from_times(&[(2.0, 1.0); 10]);
        let plat = Platform::new(2, 2);
        let ab = area_bound(&inst, &plat).unwrap();
        assert!(approx_eq(ab.value, 10.0 / 3.0), "{}", ab.value);
        check_structure(&inst, &plat, &ab).unwrap();
    }

    #[test]
    fn class_usage_sums_to_balanced_loads() {
        let inst = Instance::from_times(&[(10.0, 1.0), (4.0, 4.0), (1.0, 10.0)]);
        let plat = Platform::new(2, 1);
        let cpu = class_usage(&inst, &plat, ResourceKind::Cpu).unwrap();
        let gpu = class_usage(&inst, &plat, ResourceKind::Gpu).unwrap();
        // value 2.0 with 2 CPUs → CPU usage 4.0; 1 GPU → GPU usage 2.0.
        assert!(approx_eq(cpu, 4.0), "{cpu}");
        assert!(approx_eq(gpu, 2.0), "{gpu}");
    }

    #[test]
    fn dual_bound_stays_below_exact_two_class_optimum() {
        // On two classes the dual ascent must certify from below the exact
        // threshold solution, and get usefully close.
        let cases: Vec<Vec<(f64, f64)>> = vec![
            vec![(10.0, 1.0), (4.0, 4.0), (1.0, 10.0)],
            vec![(2.0, 1.0); 10],
            vec![(3.0, 1.0), (2.0, 2.0), (1.0, 3.0), (5.0, 1.0)],
        ];
        for times in cases {
            let inst = Instance::from_times(&times);
            for plat in [Platform::new(1, 1), Platform::new(2, 1), Platform::new(2, 2)] {
                let exact = area_bound(&inst, &plat).unwrap().value;
                let dual = area_bound_dual(&inst, &plat);
                assert!(dual <= exact + 1e-9, "dual {dual} above exact {exact}");
                assert!(dual >= 0.8 * exact, "dual {dual} too loose vs exact {exact}");
            }
        }
    }

    #[test]
    fn three_class_dual_bound_below_integral_assignments() {
        let inst = Instance::from_class_times(&[
            &[9.0, 3.0, 1.0],
            &[1.0, 5.0, 9.0],
            &[4.0, 1.0, 4.0],
            &[6.0, 6.0, 2.0],
            &[2.0, 2.0, 2.0],
        ]);
        let plat = Platform::from_counts(&[2, 1, 1]);
        let lb = area_bound_dual(&inst, &plat);
        assert!(lb > 0.0);
        // Every integral class assignment is LP-feasible, so the dual
        // certificate must lie below each one's load objective.
        let n = inst.len();
        for mask in 0..3usize.pow(n as u32) {
            let mut load = [0.0f64; 3];
            let mut m = mask;
            for i in 0..n {
                let c = m % 3;
                m /= 3;
                load[c] += inst.task(TaskId(i as u32)).time_on(ClassId(c as u16));
            }
            let obj = (load[0] / 2.0).max(load[1]).max(load[2]);
            assert!(lb <= obj + 1e-9, "mask {mask}: {lb} > {obj}");
        }
    }

    #[test]
    fn three_identical_classes_balance_by_capacity() {
        // 6 tasks costing 3.0 on every class, one worker per class: the LP
        // spreads them evenly, finishing at 6·3/3 = 6; the uniform dual
        // start already certifies that exactly.
        let inst = Instance::from_class_times(&[&[3.0, 3.0, 3.0] as &[f64]; 6]);
        let plat = Platform::from_counts(&[1, 1, 1]);
        let lb = area_bound_dual(&inst, &plat);
        assert!(approx_eq(lb, 6.0), "{lb}");
    }

    #[test]
    fn combined_bound_picks_min_time_when_binding() {
        // A single task with min time 5 but tiny area.
        let inst = Instance::from_times(&[(5.0, 5.0)]);
        let plat = Platform::new(4, 4);
        let lb = combined_lower_bound(&inst, &plat);
        assert!(approx_eq(lb, 5.0));
    }
}
