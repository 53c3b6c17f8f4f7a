//! The paper's tightness constructions: adversarial instance families on
//! which HeteroPrio's ratio approaches the proved bounds.
//!
//! Each builder returns a [`WorstCase`]: the instance, the platform, the
//! HeteroPrio configuration that realizes the adversarial tie-breaking the
//! proof picks ("consider the following *valid* HeteroPrio schedule"), the
//! exact makespan HeteroPrio reaches, and a *witness schedule* certifying an
//! upper bound on the optimal makespan.

use heteroprio_core::time::PHI;
use heteroprio_core::{
    HeteroPrioConfig, Instance, Platform, QueueTieBreak, Schedule, Task, TaskId, TaskRun, WorkerId,
    WorkerOrder,
};

/// A worst-case family member.
#[derive(Clone, Debug)]
pub struct WorstCase {
    pub name: &'static str,
    pub instance: Instance,
    pub platform: Platform,
    pub config: HeteroPrioConfig,
    /// Makespan HeteroPrio reaches under `config` (from the proof).
    pub expected_hp_makespan: f64,
    /// A valid schedule certifying `C_max^Opt <= witness.makespan()`.
    pub witness: Schedule,
    /// The bound this family approaches as it scales.
    pub asymptotic_ratio: f64,
}

impl WorstCase {
    /// Lower bound on the approximation ratio demonstrated by this instance.
    pub fn demonstrated_ratio(&self) -> f64 {
        self.expected_hp_makespan / self.witness.makespan()
    }
}

/// Theorem 8: two tasks on (1 CPU, 1 GPU) forcing ratio φ.
///
/// `X = (p=φ, q=1)` and `Y = (p=1, q=1/φ)`, both with ρ = φ. With `Y` ahead
/// of `X` in the queue the GPU takes `Y` and the CPU takes `X`; the GPU then
/// idles at 1/φ but spoliating `X` would finish at 1/φ + 1 = φ — no strict
/// improvement. HeteroPrio ends at φ while the optimum is 1.
pub fn theorem8() -> WorstCase {
    let mut instance = Instance::new();
    let y = instance.push(Task::new(1.0, 1.0 / PHI));
    let x = instance.push(Task::new(PHI, 1.0));
    let platform = Platform::new(1, 1);
    let witness = Schedule {
        runs: vec![
            TaskRun { task: x, worker: WorkerId(1), start: 0.0, end: 1.0 },
            TaskRun { task: y, worker: WorkerId(0), start: 0.0, end: 1.0 },
        ],
        aborted: Vec::new(),
    };
    WorstCase {
        name: "theorem8 (1 CPU, 1 GPU)",
        instance,
        platform,
        config: HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            worker_order: WorkerOrder::GpusFirst,
            ..HeteroPrioConfig::new()
        },
        expected_hp_makespan: PHI,
        witness,
        asymptotic_ratio: PHI,
    }
}

/// Theorem 11: the (m CPUs, 1 GPU) family approaching ratio 1 + φ.
///
/// With `x = (m-1)/(m+φ)` and filler granularity `ε = x / steps`:
/// `T1 = (1, 1/φ)`, `T2 = (φ, 1)`, `steps` fillers `T4 = (εφ, ε)` and
/// `m·steps` fillers `T3 = (ε, ε)`. HeteroPrio keeps everyone busy on
/// fillers until `x`, then the GPU runs `T1` and a CPU runs `T2`; at
/// `x + 1/φ` the GPU cannot improve `T2` (tie) and the makespan is `x + φ`.
/// The optimum is 1 + O(ε) (witness built below).
pub fn theorem11(m: usize, steps: usize) -> WorstCase {
    assert!(m >= 2, "the family needs at least 2 CPUs");
    assert!(steps >= 1);
    let x = (m as f64 - 1.0) / (m as f64 + PHI);
    let eps = x / steps as f64;
    let mut instance = Instance::new();
    // Queue is sorted by ρ descending, insertion order breaking ties.
    // ρ = φ block: T4 fillers first, then T1, then T2; ρ = 1 block: T3.
    let mut t4 = Vec::with_capacity(steps);
    for _ in 0..steps {
        t4.push(instance.push(Task::new(eps * PHI, eps)));
    }
    let t1 = instance.push(Task::new(1.0, 1.0 / PHI));
    let t2 = instance.push(Task::new(PHI, 1.0));
    let mut t3 = Vec::with_capacity(m * steps);
    for _ in 0..m * steps {
        t3.push(instance.push(Task::new(eps, eps)));
    }
    let platform = Platform::new(m, 1);

    // Witness: T2 on the GPU, T1 on CPU 0, fillers spread over CPUs 1..m
    // longest-first; total filler work is exactly (m-1)·x... times 1/x each
    // CPU — i.e. m-1 CPUs with load ~1.
    let mut runs = vec![
        TaskRun { task: t2, worker: WorkerId(m as u32), start: 0.0, end: 1.0 },
        TaskRun { task: t1, worker: WorkerId(0), start: 0.0, end: 1.0 },
    ];
    let mut loads = vec![0.0_f64; m - 1];
    let fillers: Vec<(TaskId, f64)> =
        t4.iter().map(|&t| (t, eps * PHI)).chain(t3.iter().map(|&t| (t, eps))).collect();
    for (task, dur) in fillers {
        let w = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("m > 1, so there is at least one filler machine");
        runs.push(TaskRun {
            task,
            worker: WorkerId((w + 1) as u32),
            start: loads[w],
            end: loads[w] + dur,
        });
        loads[w] += dur;
    }
    WorstCase {
        name: "theorem11 (m CPUs, 1 GPU)",
        instance,
        platform,
        config: HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            worker_order: WorkerOrder::GpusFirst,
            ..HeteroPrioConfig::new()
        },
        expected_hp_makespan: x + PHI,
        witness: Schedule { runs, aborted: Vec::new() },
        asymptotic_ratio: 1.0 + PHI,
    }
}

/// The `T2` GPU durations of Theorem 14, parameterized by `k` (so `n = 6k`):
/// one task of length `6k` and, for each `0 ≤ i ≤ 2k-1`, six tasks of
/// length `2k + i`.
pub fn t2_durations(k: usize) -> Vec<f64> {
    assert!(k >= 1);
    let mut v = vec![(6 * k) as f64];
    for i in 0..2 * k {
        for _ in 0..6 {
            v.push((2 * k + i) as f64);
        }
    }
    v
}

/// Figure 4 (top): a perfect packing of the `T2` set on `n = 6k` machines,
/// as per-machine task lists, all with load exactly `6k`.
pub fn t2_best_packing(k: usize) -> Vec<Vec<f64>> {
    assert!(k >= 1);
    let kf = k as f64;
    let mut procs: Vec<Vec<f64>> = Vec::with_capacity(6 * k);
    // 6 machines per i in 1..k: pair (2k+i, 4k-i), summing to 6k.
    for i in 1..k {
        for _ in 0..6 {
            procs.push(vec![2.0 * kf + i as f64, 4.0 * kf - i as f64]);
        }
    }
    // The six 3k tasks pair among themselves on 3 machines.
    for _ in 0..3 {
        procs.push(vec![3.0 * kf, 3.0 * kf]);
    }
    // The 6k task alone, and the six 2k tasks in two triples.
    procs.push(vec![6.0 * kf]);
    procs.push(vec![2.0 * kf; 3]);
    procs.push(vec![2.0 * kf; 3]);
    procs
}

/// Figure 4 (bottom): a list order of the `T2` set whose list schedule on
/// `n = 6k` machines reaches `2n - 1`: the six tasks of length `2k+i` first
/// (i ascending), then their partners of length `4k-1-i` by decreasing
/// length, then the `6k` task last.
pub fn t2_worst_order(k: usize) -> Vec<f64> {
    assert!(k >= 1);
    let mut v = Vec::with_capacity(12 * k + 1);
    for i in 0..k {
        for _ in 0..6 {
            v.push((2 * k + i) as f64);
        }
    }
    for i in (k..2 * k).rev() {
        for _ in 0..6 {
            v.push((2 * k + i) as f64);
        }
    }
    v.push((6 * k) as f64);
    v
}

/// The `r` of Theorem 14: the positive root of `n/r + 2n - 1 = nr/3`,
/// i.e. `n·r² - 3(2n-1)·r - 3n = 0`. Tends to `3 + 2√3` as `n` grows.
pub fn theorem14_r(n: usize) -> f64 {
    let nf = n as f64;
    let b = 3.0 * (2.0 * nf - 1.0);
    (b + (b * b + 12.0 * nf * nf).sqrt()) / (2.0 * nf)
}

/// Theorem 14: the (n GPUs, n² CPUs) family with `n = 6k`, approaching
/// ratio `2 + 2/√3 ≈ 3.15`.
///
/// Spoliation tie-breaking is steered through task priorities so the GPUs
/// re-execute the `T2` set in the worst list order of Figure 4 (all `T2`
/// tasks complete simultaneously on the CPUs, so the order among them is
/// the adversary's choice — exactly the freedom the proof exploits).
pub fn theorem14(k: usize) -> WorstCase {
    assert!(k >= 1);
    let n = 6 * k;
    let m = n * n;
    let r = theorem14_r(n);
    let nf = n as f64;
    // The paper's x = (m-n)·n/(m+nr); rounded down to an integer so the
    // filler phase ends simultaneously everywhere.
    let x = ((m - n) as f64 * nf / (m as f64 + nf * r)).floor();
    let xi = x as usize;
    assert!(xi >= 1, "k too small for an integral filler phase");

    let mut instance = Instance::new();
    // Insertion order sets the queue order among equal ρ: T4 fillers, then
    // T1, then T2 (shortest T2 ties with them at ρ = r), then T3 at ρ = 1.
    for _ in 0..n * xi {
        instance.push(Task::new(r, 1.0)); // T4
    }
    let t1_first = instance.len();
    for _ in 0..n {
        instance.push(Task::new(nf, nf / r)); // T1
    }
    // T2: CPU time rn/3 for all; GPU times from the Figure 4 set. Priorities
    // realize the worst spoliation order: "firsts" (lengths 2k..3k-1) above
    // "seconds" (lengths 3k..4k-1, by decreasing length), the 6k task last.
    let t2_first = instance.len();
    let cpu_t2 = r * nf / 3.0;
    for i in 0..k {
        for _ in 0..6 {
            instance.push(Task::new(cpu_t2, (2 * k + i) as f64).with_priority(3e6));
        }
    }
    for i in (k..2 * k).rev() {
        for _ in 0..6 {
            instance.push(
                Task::new(cpu_t2, (2 * k + i) as f64).with_priority(2e6 + (2 * k + i) as f64),
            );
        }
    }
    instance.push(Task::new(cpu_t2, nf).with_priority(0.0)); // the 6k task
    let t2_last = instance.len();
    for _ in 0..m * xi {
        instance.push(Task::new(1.0, 1.0)); // T3
    }
    let platform = Platform::new(m, n);

    // Witness: T2 perfectly packed on the GPUs (load n each), T1 on n CPUs,
    // fillers longest-first on the remaining m-n CPUs.
    let mut runs = Vec::with_capacity(instance.len());
    // GPUs: walk the best packing and consume matching T2 task ids.
    let mut t2_pool: Vec<(TaskId, f64)> = (t2_first..t2_last)
        .map(|i| {
            let id = TaskId(i as u32);
            (id, instance.task(id).gpu_time())
        })
        .collect();
    for (g, proc_tasks) in t2_best_packing(k).into_iter().enumerate() {
        let mut t = 0.0;
        for dur in proc_tasks {
            let pos = t2_pool
                .iter()
                .position(|&(_, d)| d == dur)
                .expect("best packing uses exactly the T2 durations");
            let (id, _) = t2_pool.swap_remove(pos);
            runs.push(TaskRun {
                task: id,
                worker: WorkerId((m + g) as u32),
                start: t,
                end: t + dur,
            });
            t += dur;
        }
    }
    assert!(t2_pool.is_empty());
    // T1 on CPUs 0..n.
    for (j, i) in (t1_first..t2_first).enumerate() {
        runs.push(TaskRun {
            task: TaskId(i as u32),
            worker: WorkerId(j as u32),
            start: 0.0,
            end: nf,
        });
    }
    // Fillers on CPUs n..m: T4 (length r) longest-first, then T3 (length 1).
    let mut loads = vec![0.0_f64; m - n];
    let place = |id: usize, dur: f64, runs: &mut Vec<TaskRun>, loads: &mut [f64]| {
        let w = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("m > n, so there is at least one filler CPU");
        runs.push(TaskRun {
            task: TaskId(id as u32),
            worker: WorkerId((n + w) as u32),
            start: loads[w],
            end: loads[w] + dur,
        });
        loads[w] += dur;
    };
    for i in 0..n * xi {
        place(i, r, &mut runs, &mut loads); // T4 on CPU
    }
    for i in t2_last..instance.len() {
        place(i, 1.0, &mut runs, &mut loads); // T3
    }

    WorstCase {
        name: "theorem14 (n GPUs, n^2 CPUs)",
        instance,
        platform,
        config: HeteroPrioConfig {
            queue_tie: QueueTieBreak::InsertionOrder,
            worker_order: WorkerOrder::GpusFirst,
            ..HeteroPrioConfig::new()
        },
        expected_hp_makespan: x + nf / r + 2.0 * nf - 1.0,
        witness: Schedule { runs, aborted: Vec::new() },
        asymptotic_ratio: 2.0 + 2.0 / 3.0_f64.sqrt(),
    }
}

/// The §3 cautionary example: without spoliation, list scheduling on
/// unrelated resources is unboundedly bad. Two tasks `(gap, 1)` on
/// (1 CPU, 1 GPU): the list phase parks one on the CPU forever.
pub fn no_spoliation_gap(gap: f64) -> WorstCase {
    // lint: allow(float-ord): construction precondition on the caller's parameter, not a
    // schedule-time comparison; any gap comfortably above 2 works.
    assert!(gap > 2.0);
    let instance = Instance::from_times(&[(gap, 1.0), (gap, 1.0)]);
    let platform = Platform::new(1, 1);
    let witness = Schedule {
        runs: vec![
            TaskRun { task: TaskId(0), worker: WorkerId(1), start: 0.0, end: 1.0 },
            TaskRun { task: TaskId(1), worker: WorkerId(1), start: 1.0, end: 2.0 },
        ],
        aborted: Vec::new(),
    };
    WorstCase {
        name: "no-spoliation gap (1 CPU, 1 GPU)",
        instance,
        platform,
        config: HeteroPrioConfig::without_spoliation(),
        expected_hp_makespan: gap,
        witness,
        asymptotic_ratio: f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::heteroprio;
    use heteroprio_core::list::list_schedule;
    use heteroprio_core::time::approx_eq;

    fn run_case(case: &WorstCase) -> f64 {
        case.witness.validate(&case.instance, &case.platform).expect("witness schedule is valid");
        let res = heteroprio(&case.instance, &case.platform, &case.config);
        res.schedule.validate(&case.instance, &case.platform).expect("HP schedule valid");
        assert!(
            approx_eq(res.makespan(), case.expected_hp_makespan),
            "{}: HP reached {} instead of {}",
            case.name,
            res.makespan(),
            case.expected_hp_makespan
        );
        case.demonstrated_ratio()
    }

    #[test]
    fn theorem8_reaches_phi() {
        let case = theorem8();
        let ratio = run_case(&case);
        assert!(approx_eq(ratio, PHI), "{ratio}");
    }

    #[test]
    fn theorem11_ratio_approaches_one_plus_phi() {
        let mut last = 0.0;
        for m in [4, 16, 64] {
            // Finer filler granularity tightens the witness toward 1.
            let case = theorem11(m, 8 * m);
            let ratio = run_case(&case);
            assert!(ratio > last, "ratio must grow with m");
            last = ratio;
        }
        // m = 64: x ≈ 0.96, witness ≈ 1 + small → ratio close to 1 + φ.
        assert!(last > 2.4, "{last}");
        assert!(last <= 1.0 + PHI + 1e-9);
    }

    #[test]
    fn t2_set_best_packing_is_perfect() {
        for k in 1..=4 {
            let packing = t2_best_packing(k);
            assert_eq!(packing.len(), 6 * k);
            for proc in &packing {
                let load: f64 = proc.iter().sum();
                assert!(approx_eq(load, (6 * k) as f64));
            }
            // Exactly the T2 multiset.
            let mut flat: Vec<f64> = packing.into_iter().flatten().collect();
            let mut expected = t2_durations(k);
            flat.sort_by(f64::total_cmp);
            expected.sort_by(f64::total_cmp);
            assert_eq!(flat, expected);
        }
    }

    #[test]
    fn t2_worst_order_hits_two_n_minus_one() {
        for k in 1..=4 {
            let order = t2_worst_order(k);
            let mut sorted = order.clone();
            let mut expected = t2_durations(k);
            sorted.sort_by(f64::total_cmp);
            expected.sort_by(f64::total_cmp);
            assert_eq!(sorted, expected, "worst order is a permutation of T2");
            let ms = list_schedule(&order, 6 * k).makespan();
            assert!(approx_eq(ms, (12 * k - 1) as f64), "k={k}: {ms}");
        }
    }

    #[test]
    fn theorem14_k1_reaches_its_analytical_makespan() {
        // k = 1: n = 6, r = 6 exactly, x = 2.
        let case = theorem14(1);
        assert!(approx_eq(theorem14_r(6), 6.0));
        assert!(approx_eq(case.expected_hp_makespan, 2.0 + 1.0 + 11.0));
        let ratio = run_case(&case);
        // Witness is ~n + filler slack; the ratio beats 2 already at k=1.
        assert!(ratio > 2.0, "{ratio}");
    }

    #[test]
    fn theorem14_ratio_grows_towards_asymptote() {
        let r1 = run_case(&theorem14(1));
        let r2 = run_case(&theorem14(2));
        assert!(r2 > r1, "{r2} vs {r1}");
        assert!(r2 < 2.0 + 2.0 / 3.0_f64.sqrt());
    }

    #[test]
    fn no_spoliation_is_unbounded() {
        let case = no_spoliation_gap(50.0);
        let ratio = run_case(&case);
        assert!(approx_eq(ratio, 25.0), "{ratio}");
        // With spoliation enabled the same instance is fine.
        let fixed = heteroprio(&case.instance, &case.platform, &HeteroPrioConfig::new());
        assert!(approx_eq(fixed.makespan(), 2.0));
    }

    #[test]
    fn theorem14_r_tends_to_three_plus_two_sqrt3() {
        let target = 3.0 + 2.0 * 3.0_f64.sqrt();
        assert!((theorem14_r(6000) - target).abs() < 1e-2);
    }
}
