//! Property-based tests (proptest) on the core data structures and
//! invariants: schedule validity, area-bound optimality and structure,
//! queue ordering, list-scheduling bounds, and DAG execution safety.

use heteroprio::bounds::{
    area_bound, check_structure, combined_lower_bound, fractional_objective,
    optimal_homogeneous_makespan, optimal_makespan,
};
use heteroprio::core::heteroprio as hp;
use heteroprio::core::kernel::Run;
use heteroprio::core::list::{homogeneous_lower_bound, list_schedule};
use heteroprio::core::{
    sorted_queue, HeteroPrioConfig, Instance, Platform, QueueTieBreak, Task, TaskId, TaskRun,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::dualhp_independent;
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::simulate;
use heteroprio::taskgraph::{check_precedence, random_layered, RandomDagParams, TaskGraph};
use heteroprio::trace::NullSink;
use heteroprio_bench::seed_reference::seed_sorted_queue;
use proptest::prelude::*;

/// Strategy: a task with cpu and gpu times in (0.1, 50).
fn task_strategy() -> impl Strategy<Value = Task> {
    (0.1f64..50.0, 0.1f64..50.0).prop_map(|(p, q)| Task::new(p, q))
}

fn instance_strategy(max: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec(task_strategy(), 1..=max).prop_map(Instance::from_tasks)
}

fn platform_strategy() -> impl Strategy<Value = Platform> {
    (1usize..=4, 1usize..=3).prop_map(|(m, n)| Platform::new(m, n))
}

/// Strategy: k = 3 tasks with every time in (0.1, 50).
fn k3_instance_strategy(max: usize) -> impl Strategy<Value = Instance> {
    let task = (0.1f64..50.0, 0.1f64..50.0, 0.1f64..50.0)
        .prop_map(|(a, b, c)| Task::from_times(&[a, b, c]));
    prop::collection::vec(task, 1..=max).prop_map(Instance::from_tasks)
}

fn k3_platform_strategy() -> impl Strategy<Value = Platform> {
    (1usize..=3, 1usize..=2, 1usize..=2).prop_map(|(a, b, c)| Platform::from_counts(&[a, b, c]))
}

/// A schedule's runs in task order.
fn by_task(mut runs: Vec<TaskRun>) -> Vec<TaskRun> {
    runs.sort_by_key(|r| r.task);
    runs
}

/// Priorities of the queue-order test: equal values, and ±0.0, which the
/// order keeps apart.
const PRIORITIES: [f64; 5] = [-0.0, 0.0, 1.0, 1.0, 7.5];

/// An instance in repeated blocks of at most 4 task types, as generated
/// workloads are. Each block is `(type, length, priority, vary)`: its tasks
/// share the priority when `vary == 0`, else walk through [`PRIORITIES`].
/// Integer times make equal ratios across types common.
fn blocked_instance(types: &[(u32, u32)], blocks: &[(usize, usize, usize, u32)]) -> Instance {
    let mut instance = Instance::new();
    for &(ty, len, prio, vary) in blocks {
        let (p, q) = types[ty % types.len()];
        for j in 0..len {
            let priority = PRIORITIES[(prio + j * vary as usize) % PRIORITIES.len()];
            instance.push(Task::new(f64::from(p), f64::from(q)).with_priority(priority));
        }
    }
    instance
}

/// The ids handed to `sorted_queue`: 0 the full ascending range, 1 a
/// shuffle, 2 a sub-slice, 3 ascending stretches with gaps, reordered so
/// that equal-key runs interleave in id range (`[0, 1, 2, 10, 11, 3, 4]`),
/// 4 the full range with a stretch listed twice.
fn id_list(n: usize, form: u32, salt: u64) -> Vec<TaskId> {
    let mut state = salt | 1;
    let mut draw = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let all: Vec<TaskId> = (0..n as u32).map(TaskId).collect();
    match form {
        0 => all,
        1 => {
            let mut ids = all;
            for i in (1..ids.len()).rev() {
                ids.swap(i, draw(i + 1));
            }
            ids
        }
        2 => {
            let a = draw(n);
            let b = a + 1 + draw(n - a);
            all[a..b].to_vec()
        }
        3 => {
            let kept: Vec<TaskId> = all.into_iter().filter(|_| draw(4) != 0).collect();
            let mut stretches: Vec<&[TaskId]> = kept.chunks(1 + draw(4)).collect();
            for i in (1..stretches.len()).rev() {
                stretches.swap(i, draw(i + 1));
            }
            stretches.concat()
        }
        _ => {
            let a = draw(n);
            let b = a + 1 + draw(n - a);
            [&all[..], &all[a..b]].concat()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heteroprio_schedule_is_always_valid(
        instance in instance_strategy(24),
        platform in platform_strategy(),
    ) {
        let res = hp(&instance, &platform, &HeteroPrioConfig::new());
        prop_assert!(res.schedule.validate(&instance, &platform).is_ok());
        prop_assert!(res.makespan() >= combined_lower_bound(&instance, &platform) - 1e-9);
        prop_assert_eq!(res.schedule.runs.len(), instance.len());
    }

    #[test]
    fn spoliation_never_hurts(
        instance in instance_strategy(16),
        platform in platform_strategy(),
    ) {
        let with = hp(&instance, &platform, &HeteroPrioConfig::new());
        let without = hp(&instance, &platform, &HeteroPrioConfig::without_spoliation());
        // Spoliation only restarts tasks that finish strictly earlier, and
        // both runs share the same list phase.
        prop_assert!(with.makespan() <= without.makespan() + 1e-9,
            "with {} > without {}", with.makespan(), without.makespan());
    }

    #[test]
    fn dualhp_schedule_is_always_valid(
        instance in instance_strategy(24),
        platform in platform_strategy(),
    ) {
        let sched = dualhp_independent(&instance, &platform);
        prop_assert!(sched.validate(&instance, &platform).is_ok());
        prop_assert!(sched.makespan() >= combined_lower_bound(&instance, &platform) - 1e-9);
    }

    #[test]
    fn area_bound_structure_lemmas_hold(
        instance in instance_strategy(24),
        platform in platform_strategy(),
    ) {
        let ab = area_bound(&instance, &platform).unwrap();
        prop_assert!(check_structure(&instance, &platform, &ab).is_ok());
    }

    #[test]
    fn area_bound_is_optimal_among_fractional_assignments(
        instance in instance_strategy(12),
        platform in platform_strategy(),
        fracs in prop::collection::vec(0.0f64..=1.0, 12),
    ) {
        let ab = area_bound(&instance, &platform).unwrap();
        let x: Vec<f64> = fracs.into_iter().take(instance.len()).collect();
        if x.len() == instance.len() {
            let obj = fractional_objective(&instance, &platform, &x);
            prop_assert!(ab.value <= obj + 1e-9, "bound {} beats candidate {obj}", ab.value);
        }
    }

    #[test]
    fn area_bound_below_exact_optimum(
        instance in instance_strategy(7),
        platform in platform_strategy(),
    ) {
        let ab = area_bound(&instance, &platform).unwrap();
        let opt = optimal_makespan(&instance, &platform).makespan;
        prop_assert!(ab.value <= opt + 1e-9);
    }

    #[test]
    fn exact_solver_matches_brute_force(
        instance in instance_strategy(5),
        platform in (1usize..=2, 1usize..=2).prop_map(|(m, n)| Platform::new(m, n)),
    ) {
        let sol = optimal_makespan(&instance, &platform).makespan;
        // Brute force over class assignments + exact P||Cmax per class.
        let n = instance.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            let mut cpu = Vec::new();
            let mut gpu = Vec::new();
            for (i, t) in instance.tasks().iter().enumerate() {
                if mask & (1 << i) != 0 { cpu.push(t.cpu_time()) } else { gpu.push(t.gpu_time()) }
            }
            let ms = optimal_homogeneous_makespan(&cpu, platform.cpus())
                .max(optimal_homogeneous_makespan(&gpu, platform.gpus()));
            best = best.min(ms);
        }
        prop_assert!((sol - best).abs() <= 1e-9, "{sol} vs {best}");
    }

    #[test]
    fn queue_is_sorted_by_acceleration_factor(
        instance in instance_strategy(32),
    ) {
        let ids: Vec<_> = instance.ids().collect();
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            let q = sorted_queue(&instance, &ids, tie);
            let rhos: Vec<f64> =
                q.iter().map(|&t| instance.task(t).accel_factor()).collect();
            for w in rhos.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
            prop_assert_eq!(q.len(), instance.len());
        }
    }

    #[test]
    fn queue_order_is_exactly_the_frozen_keyed_sort(
        types in prop::collection::vec((1u32..=4, 1u32..=4), 1..=4),
        blocks in prop::collection::vec((0usize..4, 1usize..=64, 0usize..5, 0u32..2), 1..=24),
        ids_form in 0u32..5,
        salt in 0u64..u64::MAX,
    ) {
        let instance = blocked_instance(&types, &blocks);
        let ids = id_list(instance.len(), ids_form, salt);
        for tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
            prop_assert_eq!(
                Vec::from(sorted_queue(&instance, &ids, tie)),
                Vec::from(seed_sorted_queue(&instance, &ids, tie)),
                "{:?} over ids {:?}", tie, ids
            );
        }
    }

    #[test]
    fn list_schedule_respects_graham_bound(
        durations in prop::collection::vec(0.1f64..20.0, 1..40),
        machines in 1usize..6,
    ) {
        let ms = list_schedule(&durations, machines).makespan();
        let lb = homogeneous_lower_bound(&durations, machines);
        prop_assert!(ms <= (2.0 - 1.0 / machines as f64) * lb + 1e-9);
        prop_assert!(ms >= lb - 1e-9);
    }

    #[test]
    fn dag_heteroprio_respects_dependencies(
        seed in 0u64..500,
        layers in 2usize..5,
        width in 1usize..6,
    ) {
        let params = RandomDagParams { layers, width, ..RandomDagParams::default() };
        let graph = random_layered(&params, seed);
        let platform = Platform::new(2, 2);
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate(&graph, &platform, &mut policy);
        prop_assert!(res.schedule.validate(graph.instance(), &platform).is_ok());
        prop_assert!(check_precedence(&graph, &res.schedule).is_ok());
        // A DAG can never beat its own independent relaxation's bound.
        prop_assert!(res.makespan()
            >= combined_lower_bound(graph.instance(), &platform) - 1e-9);
    }

    #[test]
    fn exact_optimum_lower_bounds_every_algorithm(
        instance in instance_strategy(7),
        platform in platform_strategy(),
    ) {
        use heteroprio::experiments::{run_indep, IndepAlgo};
        let opt = optimal_makespan(&instance, &platform).makespan;
        let hp_ms = hp(&instance, &platform, &HeteroPrioConfig::new()).makespan();
        prop_assert!(hp_ms >= opt - 1e-9, "HeteroPrio {hp_ms} beat OPT {opt}");
        let dual_ms = dualhp_independent(&instance, &platform).makespan();
        prop_assert!(dual_ms >= opt - 1e-9, "DualHP {dual_ms} beat OPT {opt}");
        for h in IndepAlgo::HEURISTICS {
            let ms = run_indep(h, &instance, &platform).makespan();
            prop_assert!(ms >= opt - 1e-9, "{} {ms} beat OPT {opt}", h.label());
        }
    }

    #[test]
    fn heuristics_always_produce_valid_schedules(
        instance in instance_strategy(20),
        platform in platform_strategy(),
    ) {
        use heteroprio::experiments::{run_indep, IndepAlgo};
        for h in IndepAlgo::HEURISTICS {
            let sched = run_indep(h, &instance, &platform);
            prop_assert!(sched.validate(&instance, &platform).is_ok(), "{}", h.label());
            prop_assert!(
                sched.makespan() >= combined_lower_bound(&instance, &platform) - 1e-9
            );
        }
    }

    #[test]
    fn heft_is_valid_on_random_dags(
        seed in 0u64..300,
        layers in 2usize..5,
        width in 1usize..5,
    ) {
        use heteroprio::schedulers::{heft, HeftVariant};
        use heteroprio::taskgraph::WeightScheme;
        let params = RandomDagParams { layers, width, ..RandomDagParams::default() };
        let graph = random_layered(&params, seed);
        let platform = Platform::new(2, 2);
        for scheme in [WeightScheme::Avg, WeightScheme::Min] {
            for variant in [HeftVariant::Insertion, HeftVariant::NoInsertion] {
                let sched = heft(&graph, &platform, scheme, variant);
                prop_assert!(sched.validate(graph.instance(), &platform).is_ok());
                prop_assert!(check_precedence(&graph, &sched).is_ok());
            }
        }
    }

    #[test]
    fn every_plan_executes_bit_identically_in_the_kernel(
        instance in instance_strategy(24),
        platform in platform_strategy(),
        k3 in k3_instance_strategy(16),
        k3_platform in k3_platform_strategy(),
    ) {
        use heteroprio::schedulers::{HeftVariant, IndepAlgo};
        for (instance, platform) in [(&instance, &platform), (&k3, &k3_platform)] {
            for algo in IndepAlgo::NAMES.map(|name| IndepAlgo::parse(name).unwrap()) {
                let Some(plan) = algo.plan(instance, platform, HeftVariant::Insertion) else {
                    continue;
                };
                let mut sink = NullSink;
                let spec = Run::new(&mut sink, &NullRegistry);
                let ran = algo.run(instance, platform, HeftVariant::Insertion, spec);
                let ran = ran.unwrap_or_else(|e| panic!("{algo:?}: {e}"));
                prop_assert!(ran.schedule.aborted.is_empty(), "{:?}", algo);
                prop_assert_eq!(by_task(ran.schedule.runs), by_task(plan.runs), "{:?}", algo);
            }
        }
    }

    #[test]
    fn heft_plans_execute_in_the_kernel(
        seed in 0u64..300,
        layers in 2usize..5,
        width in 1usize..5,
    ) {
        use heteroprio::core::time::approx_eq;
        use heteroprio::schedulers::{heft, HeftVariant, Scheduler};
        use heteroprio::simulator::TransferModel;
        use heteroprio::taskgraph::WeightScheme;
        let params = RandomDagParams { layers, width, ..RandomDagParams::default() };
        let graph = random_layered(&params, seed);
        let platform = Platform::new(2, 2);
        for scheme in [WeightScheme::Avg, WeightScheme::Min] {
            for variant in [HeftVariant::Insertion, HeftVariant::NoInsertion] {
                let scheduler = Scheduler::Heft(scheme, variant);
                let mut ranked = graph.clone();
                scheduler.rank(&mut ranked);
                let plan = by_task(heft(&ranked, &platform, scheme, variant).runs);
                let mut sink = NullSink;
                let spec = Run::new(&mut sink, &NullRegistry);
                let ran = scheduler.run(&ranked, &platform, &TransferModel::NONE, spec);
                let ran = ran.unwrap_or_else(|e| panic!("{scheduler:?}: {e}"));
                let ran = by_task(ran.schedule.runs);
                if variant == HeftVariant::NoInsertion {
                    prop_assert_eq!(ran, plan);
                    continue;
                }
                // Insertion accepts a gap up to a rounding tolerance, so
                // the plan may overlap its next run by an ulp; the kernel
                // starts that run when the inserted one really ends.
                prop_assert_eq!(ran.len(), plan.len());
                for (r, p) in ran.iter().zip(&plan) {
                    prop_assert!(r.task == p.task && r.worker == p.worker, "{r:?} vs {p:?}");
                    prop_assert!(approx_eq(r.start, p.start) && approx_eq(r.end, p.end),
                        "{r:?} vs {p:?}");
                }
            }
        }
    }

    #[test]
    fn heft_variants_stay_in_the_same_ballpark(
        seed in 0u64..200,
    ) {
        // Insertion usually helps but is NOT dominant: placing one task in
        // an earlier gap changes later EFT decisions, and list-scheduling
        // anomalies can make the no-insertion variant win (this replaced a
        // stronger — false — monotonicity claim). Both must stay valid and
        // within a small constant of each other.
        use heteroprio::schedulers::{heft, HeftVariant};
        use heteroprio::taskgraph::WeightScheme;
        let params = RandomDagParams::default();
        let graph = random_layered(&params, seed);
        let platform = Platform::new(2, 1);
        let ins = heft(&graph, &platform, WeightScheme::Avg, HeftVariant::Insertion).makespan();
        let no = heft(&graph, &platform, WeightScheme::Avg, HeftVariant::NoInsertion).makespan();
        prop_assert!(ins <= 2.0 * no && no <= 2.0 * ins, "{ins} vs {no}");
    }

    #[test]
    fn online_with_releases_is_valid_and_respects_them(
        instance in instance_strategy(16),
        platform in platform_strategy(),
        release_seeds in prop::collection::vec(0.0f64..20.0, 16),
    ) {
        use heteroprio::core::heteroprio_online;
        let releases: Vec<f64> =
            release_seeds.into_iter().take(instance.len()).collect();
        if releases.len() == instance.len() {
            let res =
                heteroprio_online(&instance, &releases, &platform, &HeteroPrioConfig::new());
            prop_assert!(res.schedule.validate(&instance, &platform).is_ok());
            for run in res.schedule.runs.iter().chain(&res.schedule.aborted) {
                prop_assert!(run.start >= releases[run.task.index()] - 1e-9);
            }
            // Online can never beat the clairvoyant all-released bound.
            prop_assert!(
                res.makespan() >= combined_lower_bound(&instance, &platform) - 1e-9
            );
        }
    }

    #[test]
    fn gantt_svg_is_well_formed(
        instance in instance_strategy(12),
        platform in platform_strategy(),
    ) {
        use heteroprio::core::gantt::to_svg;
        let res = hp(&instance, &platform, &HeteroPrioConfig::new());
        let svg = to_svg(&res.schedule, &instance, &platform);
        prop_assert!(svg.starts_with("<svg"));
        prop_assert!(svg.ends_with("</svg>"));
        prop_assert_eq!(svg.matches("rho=").count(), instance.len());
    }

    #[test]
    fn k2_generalized_route_is_bit_identical_to_the_frozen_seed(
        instance in instance_strategy(20),
        m in 1usize..=4,
        n in 1usize..=3,
        pop_bits in prop::collection::vec(0u8..2, 20),
    ) {
        use heteroprio::bounds::area_bound_dual;
        use heteroprio::core::{AffinityQueue, ClassQueue, ClassTable, ResourceKind};
        use heteroprio_bench::seed_reference::seed_heteroprio;

        // The same platform reached through the runtime-sized route: the
        // refactor's contract is that nothing downstream can tell.
        let compat = Platform::new(m, n);
        let general = ClassTable::parse(&format!("cpu={m},gpu={n}"))
            .expect("canonical k=2 spec parses")
            .platform();
        let cfg = HeteroPrioConfig::new();

        // Kernel: the generalized engine on the parsed platform reproduces
        // the frozen pre-refactor seed engine bit for bit.
        let seed = seed_heteroprio(&instance, &compat, &cfg);
        let kernel = hp(&instance, &general, &cfg);
        prop_assert_eq!(&seed.schedule.runs, &kernel.schedule.runs);
        prop_assert_eq!(&seed.schedule.aborted, &kernel.schedule.aborted);
        prop_assert_eq!(seed.spoliations, kernel.spoliations);

        // Queue: the per-class-pair ClassQueue at k = 2 drains exactly like
        // the two-ended affinity deque, under an arbitrary pop interleaving.
        let mut deque = AffinityQueue::new(cfg.queue_tie);
        let mut class_queue = ClassQueue::new(2, cfg.queue_tie);
        for id in instance.ids() {
            deque.push(&instance, id);
            class_queue.push(&instance, id);
        }
        for gpu_turn in pop_bits {
            let kind = if gpu_turn == 1 { ResourceKind::Gpu } else { ResourceKind::Cpu };
            prop_assert_eq!(deque.pop(kind), class_queue.pop(kind).map(|(t, _)| t));
        }

        // DualHP: the k-dimensional partition on both construction routes
        // yields the same schedule, run for run.
        let d_compat = dualhp_independent(&instance, &compat);
        let d_general = dualhp_independent(&instance, &general);
        prop_assert_eq!(&d_compat.runs, &d_general.runs);
        prop_assert_eq!(&d_compat.aborted, &d_general.aborted);

        // Area bounds: bitwise-equal across routes, and the k-class dual
        // certificate never exceeds the exact two-class LP value.
        let ab_compat = area_bound(&instance, &compat).unwrap();
        let ab_general = area_bound(&instance, &general).unwrap();
        prop_assert_eq!(ab_compat.value.to_bits(), ab_general.value.to_bits());
        let dual = area_bound_dual(&instance, &general);
        prop_assert_eq!(dual.to_bits(), area_bound_dual(&instance, &compat).to_bits());
        prop_assert!(dual <= ab_general.value + 1e-9,
            "dual {dual} beats the primal area bound {}", ab_general.value);
    }

    #[test]
    fn independent_dag_policy_equals_core_algorithm(
        instance in instance_strategy(20),
        platform in platform_strategy(),
    ) {
        let cfg = HeteroPrioConfig::new();
        let core_res = hp(&instance, &platform, &cfg);
        let graph = TaskGraph::independent(instance.clone());
        let mut policy = HeteroPrioDagPolicy::new(cfg);
        let sim_res = simulate(&graph, &platform, &mut policy);
        prop_assert!((core_res.makespan() - sim_res.makespan()).abs() < 1e-9,
            "core {} vs engine {}", core_res.makespan(), sim_res.makespan());
        prop_assert_eq!(core_res.spoliations, sim_res.spoliations);
    }
}
