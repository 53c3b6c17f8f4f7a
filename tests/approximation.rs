//! Certify the paper's approximation theorems empirically: on thousands of
//! random micro-instances, HeteroPrio's makespan never exceeds the proven
//! bound times the *exact* optimum (computed by branch and bound), for every
//! platform shape and for several tie-breaking configurations — the proofs
//! hold for any valid HeteroPrio execution.

use heteroprio::bounds::{combined_lower_bound, optimal_makespan};
use heteroprio::core::heteroprio as hp;
use heteroprio::core::{HeteroPrioConfig, Platform, QueueTieBreak, WorkerOrder, PHI};
use heteroprio::workloads::{
    random_instance, theorem11, theorem14, theorem8, RandomInstanceParams,
};

fn configs() -> Vec<HeteroPrioConfig> {
    let mut cfgs = Vec::new();
    for worker_order in [WorkerOrder::GpusFirst, WorkerOrder::CpusFirst, WorkerOrder::ById] {
        for queue_tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            cfgs.push(HeteroPrioConfig { worker_order, queue_tie, ..HeteroPrioConfig::new() });
        }
    }
    cfgs
}

/// Check `HP <= bound * OPT` on `count` random instances.
fn check_bound(platform: Platform, bound: f64, count: u64, label: &str) {
    let params =
        RandomInstanceParams { tasks: 8, cpu_range: (1.0, 10.0), accel_range: (0.2, 20.0) };
    let cfgs = configs();
    for seed in 0..count {
        let instance = random_instance(&params, seed);
        let opt = optimal_makespan(&instance, &platform).makespan;
        for cfg in &cfgs {
            let res = hp(&instance, &platform, cfg);
            res.schedule.validate(&instance, &platform).expect("valid");
            assert!(
                res.makespan() <= bound * opt + 1e-6,
                "{label} seed {seed} cfg {cfg:?}: HP {} > {bound} x OPT {opt}",
                res.makespan()
            );
        }
    }
}

#[test]
fn theorem7_bound_holds_on_1cpu_1gpu() {
    check_bound(Platform::new(1, 1), PHI, 150, "(1,1)");
}

#[test]
fn theorem9_bound_holds_on_m_cpus_1_gpu() {
    for m in [2, 3, 4] {
        check_bound(Platform::new(m, 1), 1.0 + PHI, 80, "(m,1)");
    }
}

#[test]
fn theorem12_bound_holds_on_m_cpus_n_gpus() {
    for (m, n) in [(2, 2), (3, 2), (4, 3)] {
        check_bound(Platform::new(m, n), 2.0 + 2.0_f64.sqrt(), 80, "(m,n)");
    }
}

#[test]
fn first_idle_never_exceeds_optimal() {
    // Corollary of Lemma 3: T_FirstIdle <= C_max^Opt.
    let params = RandomInstanceParams { tasks: 7, cpu_range: (1.0, 5.0), accel_range: (0.25, 8.0) };
    for seed in 0..120 {
        let instance = random_instance(&params, seed);
        for platform in [Platform::new(1, 1), Platform::new(2, 1), Platform::new(2, 2)] {
            let opt = optimal_makespan(&instance, &platform).makespan;
            let res = hp(&instance, &platform, &HeteroPrioConfig::without_spoliation());
            if let Some(t) = res.first_idle {
                assert!(t <= opt + 1e-9, "seed {seed} {platform:?}: first idle {t} > OPT {opt}");
            }
        }
    }
}

#[test]
fn all_tasks_start_before_optimal_in_list_phase() {
    // Second corollary of Lemma 3: every task starts before C_max^Opt in
    // S_HP^NS.
    let params = RandomInstanceParams { tasks: 8, cpu_range: (1.0, 5.0), accel_range: (0.25, 8.0) };
    for seed in 0..80 {
        let instance = random_instance(&params, seed);
        let platform = Platform::new(2, 2);
        let opt = optimal_makespan(&instance, &platform).makespan;
        let res = hp(&instance, &platform, &HeteroPrioConfig::without_spoliation());
        for run in &res.schedule.runs {
            assert!(
                run.start <= opt + 1e-9,
                "seed {seed}: {} starts at {} > OPT {opt}",
                run.task,
                run.start
            );
        }
    }
}

#[test]
fn two_opt_bound_when_all_tasks_short() {
    // Third corollary of Lemma 3: if max(p,q) <= OPT for all tasks, then
    // HP <= 2·OPT. Build such instances by clamping both times.
    let params = RandomInstanceParams { tasks: 9, cpu_range: (1.0, 2.0), accel_range: (0.5, 2.0) };
    for seed in 0..100 {
        let instance = random_instance(&params, seed);
        let platform = Platform::new(2, 2);
        let opt = optimal_makespan(&instance, &platform).makespan;
        let max_time = instance.tasks().iter().map(|t| t.max_time()).fold(0.0, f64::max);
        if max_time > opt {
            continue; // precondition not met for this draw
        }
        let res = hp(&instance, &platform, &HeteroPrioConfig::new());
        assert!(res.makespan() <= 2.0 * opt + 1e-9, "seed {seed}: {} > 2 x {opt}", res.makespan());
    }
}

#[test]
fn tight_families_demonstrate_their_ratios() {
    // Theorem 8 is exactly tight.
    let c8 = theorem8();
    let r8 = hp(&c8.instance, &c8.platform, &c8.config);
    let ratio8 = r8.makespan() / c8.witness.makespan();
    assert!((ratio8 - PHI).abs() < 1e-9, "{ratio8}");

    // Theorem 11 approaches 1 + φ from below, monotonically in m.
    let mut prev = 0.0;
    for m in [8, 32, 128] {
        let c = theorem11(m, 8 * m);
        let r = hp(&c.instance, &c.platform, &c.config);
        let ratio = r.makespan() / c.witness.makespan();
        assert!(ratio > prev && ratio < 1.0 + PHI + 1e-9, "m={m}: {ratio}");
        prev = ratio;
    }
    assert!(prev > 2.55, "m=128 should be close to 1+phi=2.618: {prev}");

    // Theorem 14 beats the (m,1) bound's neighbourhood and stays below the
    // proven (m,n) upper bound.
    let c14 = theorem14(2);
    let r14 = hp(&c14.instance, &c14.platform, &c14.config);
    let ratio14 = r14.makespan() / c14.witness.makespan();
    assert!(ratio14 > 2.4, "{ratio14}");
    assert!(ratio14 <= 2.0 + 2.0_f64.sqrt() + 1e-9);
}

#[test]
fn lemma3_work_conservation_while_queue_is_nonempty() {
    // Lemma 3: for t <= T_FirstIdle in S_HP^NS,
    //   t + AreaBound(I'(t)) == AreaBound(I),
    // where I'(t) is the fractional sub-instance not yet processed at t.
    //
    // Reproduction note: the literal equality does NOT hold on every valid
    // execution (see `lemma3_literal_equality_counterexample` below). The
    // robust parts are (a) feasibility, t + AreaBound(I') >= AreaBound(I),
    // for every t, and (b) equality while the work each class has consumed
    // is consistent with the area-bound split — i.e. before any CPU starts
    // a task with ρ above the full instance's LP threshold or any GPU
    // starts one below it. Both are asserted here; the downstream
    // corollaries the theorems actually use (T_FirstIdle <= OPT, every task
    // starts before OPT) are asserted in their own tests above and hold
    // unconditionally in our experiments.
    use heteroprio::bounds::area_bound;
    use heteroprio::core::{Instance, Task};
    let params =
        RandomInstanceParams { tasks: 12, cpu_range: (1.0, 9.0), accel_range: (0.2, 12.0) };
    let mut equality_probes = 0usize;
    for seed in 0..60 {
        let instance = random_instance(&params, seed);
        for platform in [Platform::new(2, 1), Platform::new(3, 2)] {
            let res = hp(&instance, &platform, &HeteroPrioConfig::without_spoliation());
            let Some(first_idle) = res.first_idle else { continue };
            let ab = area_bound(&instance, &platform).unwrap();
            let total = ab.value;
            // The consistency horizon: first instant a class starts work the
            // LP would place strictly on the other side of its threshold.
            let t_safe = res
                .schedule
                .runs
                .iter()
                .filter(|r| {
                    // Unsafe: a class starts work the LP places (at least
                    // fractionally) on the other side. Tasks at the LP's
                    // threshold ρ are split fractionally, so running one
                    // integrally is unsafe on either class.
                    let rho = instance.task(r.task).accel_factor();
                    match platform.kind_of(r.worker) {
                        heteroprio::core::ResourceKind::Cpu => rho > ab.threshold - 1e-9,
                        heteroprio::core::ResourceKind::Gpu => rho < ab.threshold + 1e-9,
                    }
                })
                .map(|r| r.start)
                .fold(f64::INFINITY, f64::min)
                .min(first_idle);
            let rest_at = |t: f64| -> Instance {
                let mut rest = Instance::new();
                for run in &res.schedule.runs {
                    let task = instance.task(run.task);
                    let remaining = if run.start >= t {
                        1.0
                    } else if run.end <= t {
                        0.0
                    } else {
                        (run.end - t) / (run.end - run.start)
                    };
                    if remaining > 1e-12 {
                        rest.push(Task::new(
                            task.cpu_time() * remaining,
                            task.gpu_time() * remaining,
                        ));
                    }
                }
                rest
            };
            for frac in [0.25, 0.5, 0.75, 0.95] {
                // Feasibility direction, any t up to first idle.
                let t = first_idle * frac;
                let rest_bound = area_bound(&rest_at(t), &platform).unwrap().value;
                assert!(
                    t + rest_bound >= total - 1e-6 * total.max(1.0),
                    "seed {seed} {platform:?} t={t}: {t} + {rest_bound} < {total}"
                );
                // Equality within the consistency horizon.
                if t_safe > 0.0 && t_safe.is_finite() {
                    let t_eq = t_safe * frac * 0.999;
                    let rest_bound = area_bound(&rest_at(t_eq), &platform).unwrap().value;
                    assert!(
                        (t_eq + rest_bound - total).abs() <= 1e-6 * total.max(1.0),
                        "seed {seed} {platform:?} t={t_eq}: {t_eq} + {rest_bound} != {total}"
                    );
                    equality_probes += 1;
                }
            }
        }
    }
    assert!(equality_probes > 50, "only {equality_probes} equality probes");
}

#[test]
fn lemma3_literal_equality_counterexample() {
    // Pin the observed deviation from the paper's Lemma 3 (v1 preprint): on
    // this valid HeteroPrio execution there is a t < T_FirstIdle with
    //   t + AreaBound(I'(t)) > AreaBound(I),
    // because the CPUs have been kept busy (as a list scheduler must) on
    // mid-affinity tasks that the area-bound LP schedules on the GPU. The
    // approximation theorems are unaffected: the corollaries they use are
    // asserted unconditionally in the tests above.
    use heteroprio::bounds::area_bound;
    use heteroprio::core::{Instance, Task};
    let params =
        RandomInstanceParams { tasks: 12, cpu_range: (1.0, 9.0), accel_range: (0.2, 12.0) };
    // Seed chosen for the vendored PRNG stream (shims/rand); re-search if
    // the generator ever changes.
    let instance = random_instance(&params, 39);
    let platform = Platform::new(2, 1);
    let res = hp(&instance, &platform, &HeteroPrioConfig::without_spoliation());
    let first_idle = res.first_idle.expect("some worker idles");
    let total = area_bound(&instance, &platform).unwrap().value;
    let t = 0.9 * first_idle;
    assert!(t < first_idle);
    let mut rest = Instance::new();
    for run in &res.schedule.runs {
        let task = instance.task(run.task);
        let remaining = if run.start >= t {
            1.0
        } else if run.end <= t {
            0.0
        } else {
            (run.end - t) / (run.end - run.start)
        };
        if remaining > 1e-12 {
            rest.push(Task::new(task.cpu_time() * remaining, task.gpu_time() * remaining));
        }
    }
    let rest_bound = area_bound(&rest, &platform).unwrap().value;
    assert!(
        t + rest_bound > total + 0.05,
        "expected a strict gap, got {} vs {total}",
        t + rest_bound
    );
}

#[test]
fn lemma5_no_spoliation_from_a_class_that_received_one() {
    // Lemma 5: if a resource class executes a spoliated task, then no task
    // is spoliated *from* that class. Checked on the actual runs.
    use heteroprio::core::ResourceKind;
    let params =
        RandomInstanceParams { tasks: 14, cpu_range: (1.0, 20.0), accel_range: (0.05, 40.0) };
    let mut observed_spoliations = 0usize;
    for seed in 0..200 {
        let instance = random_instance(&params, seed);
        for platform in [Platform::new(1, 1), Platform::new(3, 1), Platform::new(3, 2)] {
            let res = hp(&instance, &platform, &HeteroPrioConfig::new());
            observed_spoliations += res.spoliations;
            for kind in ResourceKind::BOTH {
                let executed_spoliated = res.schedule.runs.iter().any(|r| {
                    platform.kind_of(r.worker) == kind
                        && res.schedule.aborted.iter().any(|a| a.task == r.task)
                });
                let victim_here =
                    res.schedule.aborted.iter().any(|a| platform.kind_of(a.worker) == kind);
                assert!(
                    !(executed_spoliated && victim_here),
                    "seed {seed} {platform:?}: class {kind} both receives and loses spoliated tasks"
                );
            }
        }
    }
    // The property must have been exercised, not vacuously true.
    assert!(observed_spoliations > 50, "only {observed_spoliations} spoliations seen");
}

#[test]
fn heteroprio_never_below_the_lower_bound() {
    // Sanity: no schedule can beat the combined lower bound.
    let params = RandomInstanceParams::default();
    for seed in 0..50 {
        let instance = random_instance(&params, seed);
        for platform in [Platform::new(1, 1), Platform::new(4, 2)] {
            let lb = combined_lower_bound(&instance, &platform);
            let res = hp(&instance, &platform, &HeteroPrioConfig::new());
            assert!(res.makespan() >= lb - 1e-9);
        }
    }
}
