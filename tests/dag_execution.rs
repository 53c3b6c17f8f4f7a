//! Cross-crate integration: the full DAG pipeline (generator → ranking →
//! policy → engine → validation → metrics) for every algorithm on every
//! factorization, plus golden pins of the kernel's event streams.

use heteroprio::bounds::dag_lower_bound;
use heteroprio::core::kernel::{self, Run};
use heteroprio::core::{
    heteroprio_online_traced, heteroprio_traced, FaultPlan, HeteroPrioConfig, Instance, Platform,
    RetryPolicy, WorkerFault,
};
use heteroprio::experiments::{alloc_stats, run_dag, Scheduler, DAG_PAPER};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::{
    dualhp_independent, DualHpDagPolicy, DualHpRank, HeteroPrioDagPolicy,
};
use heteroprio::simulator::{dag, simulate_traced, TransferModel};
use heteroprio::taskgraph::{
    apply_bottom_level_priorities, check_precedence, ConstTiming, Factorization, WeightScheme,
};
use heteroprio::trace::{jsonl, SchedEvent, VecSink};
use heteroprio::workloads::{independent_instance, paper_platform, ChameleonTiming};

#[test]
fn every_algorithm_schedules_every_factorization() {
    let platform = Platform::new(3, 2);
    for f in Factorization::ALL {
        let graph = f.generate(6, &ChameleonTiming);
        let lb = dag_lower_bound(&graph, &platform);
        for (name, algo) in DAG_PAPER {
            let sched = run_dag(algo, &graph, &platform);
            sched
                .validate(graph.instance(), &platform)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", f.name()));
            check_precedence(&graph, &sched)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", f.name()));
            assert!(
                sched.makespan() >= lb - 1e-9,
                "{name} on {}: makespan below lower bound",
                f.name()
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let platform = paper_platform();
    let graph = Factorization::Cholesky.generate(8, &ChameleonTiming);
    for (name, algo) in DAG_PAPER {
        let a = run_dag(algo, &graph, &platform).makespan();
        let b = run_dag(algo, &graph, &platform).makespan();
        assert_eq!(a, b, "{name} is nondeterministic");
    }
}

#[test]
fn heteroprio_puts_low_affinity_work_on_cpus() {
    // The Figure 8 claim: HeteroPrio's CPU-side equivalent acceleration
    // factor is lower (better) than HEFT's on the same Cholesky instance.
    let platform = paper_platform();
    let graph = Factorization::Cholesky.generate(12, &ChameleonTiming);
    let hp = run_dag(Scheduler::HeteroPrio(WeightScheme::Min), &graph, &platform);
    let heft = run_dag(Scheduler::parse("heft").unwrap(), &graph, &platform);
    let hp_stats = alloc_stats(graph.instance(), &platform, &hp);
    let heft_stats = alloc_stats(graph.instance(), &platform, &heft);
    let (hp_cpu, heft_cpu) = (hp_stats.accel_cpu.unwrap(), heft_stats.accel_cpu.unwrap());
    assert!(
        hp_cpu <= heft_cpu + 1e-9,
        "HeteroPrio CPU affinity {hp_cpu} should not exceed HEFT's {heft_cpu}"
    );
}

#[test]
fn chain_critical_path_is_respected() {
    // A serial chain leaves no parallelism: every algorithm's makespan is
    // exactly the sum of the per-task best times when the GPU dominates.
    let graph = heteroprio::taskgraph::chain(10, 5.0, 1.0);
    let platform = Platform::new(2, 1);
    for (name, algo) in DAG_PAPER {
        let ms = run_dag(algo, &graph, &platform).makespan();
        assert!((ms - 10.0).abs() < 1e-9, "{name}: chain makespan {ms}, expected 10");
    }
}

#[test]
fn dualhp_idles_cpus_more_than_heteroprio() {
    // The Figure 9 observation: DualHP's local optimization keeps CPUs idle
    // at the start of the schedule; HeteroPrio keeps them busy.
    let platform = paper_platform();
    let graph = Factorization::Cholesky.generate(16, &ChameleonTiming);
    let hp = run_dag(Scheduler::HeteroPrio(WeightScheme::Min), &graph, &platform);
    let dual = run_dag(Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min), &graph, &platform);
    let hp_idle = alloc_stats(graph.instance(), &platform, &hp).idle_cpu.unwrap();
    let dual_idle = alloc_stats(graph.instance(), &platform, &dual).idle_cpu.unwrap();
    assert!(hp_idle <= dual_idle + 1e-9, "HeteroPrio CPU idle {hp_idle} vs DualHP {dual_idle}");
}

#[test]
fn unit_kernels_fill_the_machine() {
    // With kernels equal on both classes, any list-like algorithm should
    // approach the area bound on a wide graph.
    let platform = Platform::new(2, 2);
    let graph = Factorization::Cholesky.generate(10, &ConstTiming { cpu: 1.0, gpu: 1.0 });
    let lb = dag_lower_bound(&graph, &platform);
    for algo in [Scheduler::HeteroPrio(WeightScheme::Avg), Scheduler::parse("heft").unwrap()] {
        let ms = run_dag(algo, &graph, &platform).makespan();
        assert!(ms <= 2.0 * lb, "{algo}: {ms} vs lb {lb}");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Golden pin of the DAG engine's full event stream: HeteroPrio over
/// bottom-level-ranked factorizations, with and without a transfer
/// penalty. Graph storage, dependency release and the transfer check must
/// leave every event (release order included) byte-identical.
#[test]
fn dag_event_streams_match_golden_digests() {
    const HALF: TransferModel = TransferModel { cross_class_penalty: 0.5 };
    // (factorization, tiles, transfer model, event count, FNV-1a of the JSONL)
    const GOLDEN: [(Factorization, usize, TransferModel, usize, u64); 6] = [
        (Factorization::Cholesky, 8, TransferModel::NONE, 648, 0x5497_80da_03ff_b7bc),
        (Factorization::Cholesky, 8, HALF, 566, 0x5a8f_8357_6196_bc0f),
        (Factorization::Qr, 6, TransferModel::NONE, 527, 0x0a6e_4ca8_ba84_2b8a),
        (Factorization::Qr, 6, HALF, 532, 0x96b5_21fe_070f_5c6b),
        (Factorization::Lu, 6, TransferModel::NONE, 473, 0xf0fd_b666_1c18_2f80),
        (Factorization::Lu, 6, HALF, 473, 0xcbcc_b801_0627_7b78),
    ];
    let platform = Platform::new(3, 2);
    for (f, n, model, events, digest) in GOLDEN {
        let mut graph = f.generate(n, &ChameleonTiming);
        apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
        let mut sink = VecSink::new();
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        simulate_traced(&graph, &platform, &mut policy, &model, &mut sink);
        let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
        assert_eq!(got, (events, digest), "{} {n} under {model:?}", f.name());
    }
}

/// Golden pin of a faulty DAG stream: ranked Cholesky 8 under one plan
/// that mixes a transient GPU outage, a permanent CPU death, random task
/// failures with retries, and execution jitter. This covers the kernel's
/// cancel paths (a run lost to a dead worker, a failed attempt) that the
/// fault-free pins never reach.
#[test]
fn faulty_dag_stream_matches_golden_digest() {
    let mut graph = Factorization::Cholesky.generate(8, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let platform = Platform::new(3, 2);
    let plan = FaultPlan {
        worker_faults: vec![WorkerFault::transient(3, 40.0, 60.0), WorkerFault::permanent(1, 90.0)],
        task_failure_prob: 0.05,
        exec_jitter: 0.2,
        seed: 11,
        retry: RetryPolicy::DEFAULT,
    };
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
    let mut sink = VecSink::new();
    let spec = Run { faults: plan, ..Run::new(&mut sink, &NullRegistry) };
    let out = kernel::run(&platform, &mut workload, &mut policy, spec).expect("run completes");
    let s = &out.summary;
    assert!(s.worker_failures == 2 && s.worker_recoveries == 1, "both outages hit");
    assert!(s.task_failures > 0 && s.retries > 0, "some attempts fail");
    let lost = sink
        .events
        .iter()
        .filter(|e| matches!(e, SchedEvent::WorkerDown { lost_task: Some(_), .. }))
        .count();
    assert!(lost > 0, "a worker death interrupts a run");
    let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
    assert_eq!(got, (601, 0x5eac_32e0_fef3_7a9a));
}

/// Golden pin of a spoliation-heavy independent stream: integer times, so
/// several workers complete at the same instant, and GPU-friendly tasks
/// parked on CPUs, so GPUs keep spoliating them. This covers the kernel's
/// equal-instant dispatch order and its spoliation cancel path.
#[test]
fn spoliation_heavy_independent_stream_matches_golden_digest() {
    let mut x: u64 = 7;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % m
    };
    let times: Vec<(f64, f64)> = (0..48)
        .map(|i| {
            if i % 3 != 0 {
                (40.0 + next(3) as f64 * 8.0, 2.0 + next(2) as f64 * 2.0)
            } else {
                (2.0 + next(3) as f64 * 2.0, 4.0 + next(3) as f64 * 2.0)
            }
        })
        .collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(4, 2);
    let mut sink = VecSink::new();
    let res = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut sink);
    res.schedule.validate(&instance, &platform).expect("valid schedule");
    let mut ends: Vec<f64> = res.schedule.runs.iter().map(|r| r.end).collect();
    ends.sort_by(f64::total_cmp);
    let shared = ends.windows(2).filter(|w| w[0] == w[1]).count();
    assert!(res.spoliations >= 3, "only {} spoliations", res.spoliations);
    assert!(shared >= 3, "only {shared} shared completion instants");
    let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
    assert_eq!(got, (214, 0xce6f_7576_0fe4_4930));
}

/// Golden pins of the release-dates engine's event stream at k = 2 and
/// k = 3: integer times and staggered integer releases, so arrivals land
/// on completion instants, several workers complete together, and
/// GPU-friendly tasks parked on CPUs get spoliated.
#[test]
fn online_event_streams_match_golden_digests() {
    let mut x: u64 = 13;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % m
    };
    let rows: Vec<[f64; 3]> = (0..40)
        .map(|i| match i % 3 {
            0 => [30.0 + next(3) as f64 * 6.0, 2.0 + next(2) as f64 * 2.0, 8.0 + next(2) as f64],
            1 => [2.0 + next(3) as f64 * 2.0, 6.0 + next(3) as f64 * 2.0, 4.0],
            _ => [8.0 + next(2) as f64 * 4.0, 12.0, 1.0 + next(2) as f64],
        })
        .collect();
    let releases: Vec<f64> = (0..40).map(|i| (i / 4) as f64 * 3.0 + next(2) as f64).collect();
    let two: Vec<(f64, f64)> = rows.iter().map(|r| (r[0], r[1])).collect();
    let three: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
    // (instance, platform, event count, FNV-1a of the JSONL)
    let cases = [
        (Instance::from_times(&two), Platform::new(4, 2), 192, 0xee8d_e929_8efb_a40f),
        (
            Instance::from_class_times(&three),
            Platform::from_counts(&[2, 1, 1]),
            142,
            0xd464_c04e_3e59_bfff,
        ),
    ];
    for (instance, platform, events, digest) in cases {
        let mut sink = VecSink::new();
        let cfg = HeteroPrioConfig::new();
        let res = heteroprio_online_traced(&instance, &releases, &platform, &cfg, &mut sink);
        res.schedule.validate(&instance, &platform).expect("valid schedule");
        let mut ends: Vec<f64> = res.schedule.runs.iter().map(|r| r.end).collect();
        ends.sort_by(f64::total_cmp);
        let shared = ends.windows(2).filter(|w| w[0] == w[1]).count();
        let k = platform.k();
        assert!(res.spoliations >= 2, "k={k}: only {} spoliations", res.spoliations);
        assert!(shared >= 3, "k={k}: only {shared} shared completion instants");
        let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
        assert_eq!(got, (events, digest), "k={k}");
    }
}

/// Integer-timed independent tasks: a third strongly GPU-accelerated, the
/// rest CPU-friendly or indifferent, so DualHP's λ probes see forced,
/// flexible and spilled tasks, and ties in both sort keys.
fn integer_mix(tasks: usize, seed: u64) -> Instance {
    let mut x = seed;
    let mut next = |m: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % m
    };
    let times: Vec<(f64, f64)> = (0..tasks)
        .map(|i| match i % 3 {
            0 => (20.0 + next(4) as f64 * 10.0, 1.0 + next(3) as f64),
            1 => (2.0 + next(3) as f64, 4.0 + next(4) as f64 * 2.0),
            _ => (4.0 + next(4) as f64, 4.0 + next(4) as f64),
        })
        .collect();
    Instance::from_times(&times)
}

/// Golden pins of DualHP's independent-task packing at k = 2: every
/// placement (task, worker, start and end bits) of the smallest feasible λ
/// the binary search finds.
#[test]
fn dualhp_independent_placements_match_golden_digests() {
    // (instance, platform, FNV-1a of the placements)
    let cases = [
        (
            independent_instance(Factorization::Cholesky, 12, &ChameleonTiming),
            paper_platform(),
            0x57ff_378b_0371_f681,
        ),
        (
            independent_instance(Factorization::Lu, 8, &ChameleonTiming),
            Platform::new(3, 2),
            0xfe95_2622_775d_7fb7,
        ),
        (integer_mix(60, 5), Platform::new(4, 2), 0xa005_6d7e_ce01_379e),
        (integer_mix(25, 9), Platform::new(1, 1), 0x6176_4e93_303e_b024),
    ];
    for (instance, platform, digest) in cases {
        let schedule = dualhp_independent(&instance, &platform);
        schedule.validate(&instance, &platform).expect("valid schedule");
        let text: String = schedule
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:x} {:x}\n",
                    r.task.0,
                    r.worker.0,
                    r.start.to_bits(),
                    r.end.to_bits()
                )
            })
            .collect();
        assert_eq!(fnv1a(text.as_bytes()), digest, "{} tasks on {platform:?}", instance.len());
    }
}

/// Golden pins of the DAG engine's event stream under DualHP at k = 2, with
/// FIFO and with bottom-level priority serve order: every repartition's λ
/// search on the live ready set, with the running tasks' remaining time as
/// each worker's initial load (the QR and LU cases change if that load is
/// dropped).
#[test]
fn dualhp_dag_event_streams_match_golden_digests() {
    // (factorization, tiles, rank, event count, FNV-1a of the JSONL)
    const GOLDEN: [(Factorization, usize, DualHpRank, usize, u64); 4] = [
        (Factorization::Cholesky, 8, DualHpRank::Fifo, 505, 0xd090_93c7_3cf5_92dc),
        (Factorization::Cholesky, 8, DualHpRank::Priority, 493, 0x46f5_1ee7_d613_40c2),
        (Factorization::Qr, 10, DualHpRank::Fifo, 1583, 0xa440_a43a_2466_12fe),
        (Factorization::Lu, 12, DualHpRank::Priority, 2622, 0x9f7c_474c_28e5_3f3d),
    ];
    let platform = Platform::new(3, 2);
    for (f, n, rank, events, digest) in GOLDEN {
        let mut graph = f.generate(n, &ChameleonTiming);
        apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
        let mut sink = VecSink::new();
        let mut policy = DualHpDagPolicy::new(rank);
        simulate_traced(&graph, &platform, &mut policy, &TransferModel::NONE, &mut sink);
        let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
        assert_eq!(got, (events, digest), "{} {n} under {rank:?}", f.name());
    }
}

/// Golden pin of a faulty DualHP stream: both GPUs down together for a
/// while (the λ search must spill every task onto the CPUs), one CPU dead
/// for good, random task failures with retries and execution jitter.
#[test]
fn faulty_dualhp_dag_stream_matches_golden_digest() {
    let mut graph = Factorization::Cholesky.generate(8, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let platform = Platform::new(3, 2);
    let plan = FaultPlan {
        worker_faults: vec![
            WorkerFault::transient(3, 40.0, 60.0),
            WorkerFault::transient(4, 50.0, 30.0),
            WorkerFault::permanent(1, 90.0),
        ],
        task_failure_prob: 0.05,
        exec_jitter: 0.2,
        seed: 11,
        retry: RetryPolicy::DEFAULT,
    };
    let mut policy = DualHpDagPolicy::new(DualHpRank::Priority);
    let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
    let mut sink = VecSink::new();
    let spec = Run { faults: plan, ..Run::new(&mut sink, &NullRegistry) };
    let out = kernel::run(&platform, &mut workload, &mut policy, spec).expect("run completes");
    let s = &out.summary;
    assert!(s.worker_failures == 3 && s.worker_recoveries == 2, "every outage hits");
    assert!(s.task_failures > 0 && s.retries > 0, "some attempts fail");
    let got = (sink.events.len(), fnv1a(jsonl(&sink.events).as_bytes()));
    assert_eq!(got, (567, 0x15fe_5bd5_c51d_1a9a));
}
