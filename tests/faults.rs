//! Integration tests of the fault-injection layer: conservation of time
//! under arbitrary fault plans, byte-identity of the zero plan, structured
//! abandonment, the headline all-GPUs-die recovery scenario, and the one
//! plan check every engine runs before it emits anything, fuzzed from the
//! `--faults` text down to the kernel.

use heteroprio::core::kernel::{self, KernelOutcome, Run};
use heteroprio::core::{
    independent, journaled, release_dates, ClassTable, FaultPlan, HeteroPrioConfig, Instance,
    Platform, RetryPolicy, RunError, WorkerFault,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::{HeteroPrioDagPolicy, PriorityListPolicy};
use heteroprio::simulator::{
    dag, simulate_traced, FaultSpec, OnlinePolicy, SimResult, TransferModel,
};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, TaskGraph, WeightScheme};
use heteroprio::trace::{
    Journal, MemJournal, NullSink, SchedEvent, TraceSink, TraceSummary, VecSink,
};
use heteroprio::workloads::{paper_platform, ChameleonTiming};
use proptest::prelude::*;

/// Drive `policy` over `graph` under `plan` through the kernel.
fn run_plan<P: OnlinePolicy, S: TraceSink>(
    graph: &TaskGraph,
    platform: &Platform,
    policy: &mut P,
    model: &TransferModel,
    plan: &FaultPlan,
    sink: &mut S,
) -> Result<SimResult, RunError> {
    let (mut workload, mut policy) = dag(graph, platform, policy, model);
    let spec = Run { faults: plan.clone(), ..Run::new(sink, &NullRegistry) };
    Ok(kernel::run(platform, &mut workload, &mut policy, spec)?.into())
}

fn ranked_cholesky(n: usize) -> TaskGraph {
    let mut graph = cholesky(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    graph
}

#[test]
fn zero_plan_reproduces_fault_free_traces_exactly() {
    let graph = ranked_cholesky(6);
    let platform = Platform::new(3, 2);
    let model = TransferModel::NONE;

    let mut plain_sink = VecSink::new();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let plain = simulate_traced(&graph, &platform, &mut policy, &model, &mut plain_sink);

    let mut zero_sink = VecSink::new();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let zero = run_plan(&graph, &platform, &mut policy, &model, &FaultPlan::NONE, &mut zero_sink)
        .expect("zero plan cannot fail");

    assert_eq!(plain.makespan(), zero.makespan());
    assert_eq!(plain.schedule.runs, zero.schedule.runs);
    assert_eq!(plain_sink.events, zero_sink.events, "event streams must be identical");
}

#[test]
fn certain_failure_is_a_structured_error() {
    let graph = ranked_cholesky(4);
    let platform = Platform::new(2, 1);
    let plan = FaultPlan {
        task_failure_prob: 1.0,
        retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::DEFAULT },
        ..FaultPlan::NONE
    };
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let err = run_plan(
        &graph,
        &platform,
        &mut policy,
        &TransferModel::NONE,
        &plan,
        &mut heteroprio::trace::NullSink,
    )
    .unwrap_err();
    match err {
        RunError::TaskAbandoned { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected TaskAbandoned, got {other:?}"),
    }
}

/// The headline scenario: all 4 GPUs of the paper platform die permanently
/// at 25% of the fault-free makespan; Cholesky N=16 must still complete on
/// the 20 CPUs, and the accounting must reconcile with the event stream.
#[test]
fn all_gpus_die_and_cholesky_still_completes() {
    let graph = ranked_cholesky(16);
    let platform = paper_platform();
    assert_eq!((platform.cpus(), platform.gpus()), (20, 4));
    let model = TransferModel::NONE;

    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let m0 = run_plan(
        &graph,
        &platform,
        &mut policy,
        &model,
        &FaultPlan::NONE,
        &mut heteroprio::trace::NullSink,
    )
    .unwrap()
    .makespan();

    let t_kill = 0.25 * m0;
    let plan = FaultPlan {
        worker_faults: (20..24).map(|w| WorkerFault::permanent(w, t_kill)).collect(),
        ..FaultPlan::NONE
    };
    let mut sink = VecSink::new();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let res = run_plan(&graph, &platform, &mut policy, &model, &plan, &mut sink)
        .expect("the CPUs alone must finish the DAG");

    // Every task completed exactly once, entirely after the GPUs died or on CPUs.
    assert_eq!(res.schedule.runs.len(), graph.len());
    for r in &res.schedule.runs {
        assert!(r.worker.0 < 20 || r.end <= t_kill + 1e-9, "{:?} ran on a dead GPU", r);
    }
    assert!(res.makespan() > m0, "losing all GPUs must hurt the makespan");
    assert_eq!(res.summary.worker_failures, 4);
    assert_eq!(res.summary.worker_recoveries, 0);

    // Each dead GPU is down from t_kill to the horizon.
    let horizon = res.makespan();
    for w in 20..24 {
        let s = &res.summary.workers[w];
        assert!(
            (s.downtime - (horizon - t_kill)).abs() < 1e-6,
            "gpu {w} downtime {} vs expected {}",
            s.downtime,
            horizon - t_kill
        );
    }

    // The engine's incremental summary reconciles with one rebuilt from the
    // recorded event stream.
    let rebuilt = TraceSummary::from_events(platform.workers(), &sink.events);
    assert_eq!(res.summary.task_failures, rebuilt.task_failures);
    assert_eq!(res.summary.retries, rebuilt.retries);
    assert_eq!(res.summary.worker_failures, rebuilt.worker_failures);
    assert_eq!(res.summary.worker_recoveries, rebuilt.worker_recoveries);
    assert!((res.summary.lost_work - rebuilt.lost_work).abs() < 1e-6);
}

fn task_times() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.5f64..8.0, 0.5f64..8.0), 1..30)
}

/// `(worker, at, dur)`; `dur < 2` encodes a permanent fault.
fn fault_list() -> impl Strategy<Value = Vec<(u32, f64, f64)>> {
    prop::collection::vec((0u32..4, 0.0f64..40.0, 0.0f64..10.0), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Per worker, busy + idle + aborted + downtime accounts for the whole
    // horizon, whatever the fault plan does.
    #[test]
    fn time_is_conserved_under_arbitrary_faults(
        times in task_times(),
        faults in fault_list(),
        prob in 0.0f64..0.3,
        jitter in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let instance = Instance::from_times(&times);
        let graph = TaskGraph::independent(instance);
        let platform = Platform::new(2, 2);
        let plan = FaultPlan {
            worker_faults: faults
                .into_iter()
                .map(|(w, at, dur)| WorkerFault {
                    worker: w,
                    at,
                    down_for: (dur >= 2.0).then_some(dur),
                })
                .collect(),
            task_failure_prob: prob,
            exec_jitter: jitter,
            seed,
            retry: RetryPolicy { max_attempts: 12, ..RetryPolicy::DEFAULT },
        };
        let mut policy = PriorityListPolicy::new();
        let run = run_plan(
            &graph,
            &platform,
            &mut policy,
            &TransferModel::NONE,
            &plan,
            &mut heteroprio::trace::NullSink,
        );
        // Abandonment / all-dead are legitimate structured outcomes; the
        // conservation law is only claimed for completed runs.
        if let Ok(res) = run {
            let horizon = res.makespan();
            prop_assert_eq!(res.schedule.runs.len(), graph.len());
            for (w, s) in res.summary.workers.iter().enumerate() {
                let accounted = s.busy + s.idle + s.aborted + s.downtime;
                prop_assert!(
                    (accounted - horizon).abs() < 1e-6,
                    "worker {}: busy {} + idle {} + aborted {} + downtime {} = {} != horizon {}",
                    w, s.busy, s.idle, s.aborted, s.downtime, accounted, horizon
                );
            }
        }
    }

    // A zero plan is indistinguishable from the fault-free engine on any
    // independent instance.
    #[test]
    fn zero_plan_is_identical_on_random_instances(times in task_times()) {
        let instance = Instance::from_times(&times);
        let graph = TaskGraph::independent(instance);
        let platform = Platform::new(2, 1);
        let model = TransferModel::NONE;

        let mut s1 = VecSink::new();
        let mut p1 = PriorityListPolicy::new();
        let plain = simulate_traced(&graph, &platform, &mut p1, &model, &mut s1);

        let mut s2 = VecSink::new();
        let mut p2 = PriorityListPolicy::new();
        let zero = run_plan(&graph, &platform, &mut p2, &model, &FaultPlan::NONE, &mut s2)
            .unwrap();

        prop_assert_eq!(plain.schedule.runs, zero.schedule.runs);
        prop_assert_eq!(s1.events, s2.events);
    }
}

/// The independent engine under a permanent GPU death at t = 0.5: the run
/// the GPU loses is re-announced into a queue that still holds the waiting
/// tasks, so every task completes exactly once, at k = 2 and at k = 3,
/// with and without spoliation.
#[test]
fn independent_engine_keeps_its_queue_when_a_worker_dies() {
    let three: [&[f64]; 8] = [&[4.0, 1.0, 2.0]; 8];
    let down = WorkerFault::permanent(2, 0.5);
    let cases = [
        (Instance::from_times(&[(4.0, 1.0); 8]), Platform::new(2, 1)),
        (Instance::from_class_times(&three), Platform::from_counts(&[2, 1, 1])),
    ];
    for (instance, platform) in &cases {
        for config in [HeteroPrioConfig::new(), HeteroPrioConfig::without_spoliation()] {
            let (mut workload, mut policy) = independent(instance, platform, &config);
            let faults = FaultPlan { worker_faults: vec![down], ..FaultPlan::NONE };
            let mut sink = NullSink;
            let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
            let out = kernel::run(platform, &mut workload, &mut policy, spec)
                .expect("the surviving workers finish the run");
            out.schedule.validate(instance, platform).expect("valid schedule");
            let mut done: Vec<_> = out.schedule.runs.iter().map(|r| r.task).collect();
            done.sort();
            assert_eq!(done, instance.ids().collect::<Vec<_>>(), "k={}", platform.k());
            assert_eq!(out.summary.worker_failures, 1);
        }
    }
}

/// Plans the kernel must refuse on `Platform::new(2, 1)`, each with what
/// is wrong with it.
fn invalid_plans() -> Vec<(&'static str, FaultPlan)> {
    let worker = |f| FaultPlan { worker_faults: vec![f], ..FaultPlan::NONE };
    let retry = |retry| FaultPlan { retry, ..FaultPlan::NONE };
    vec![
        ("a worker the platform lacks", worker(WorkerFault::permanent(99, 1.0))),
        ("a failure probability above 1", FaultPlan { task_failure_prob: 1.5, ..FaultPlan::NONE }),
        ("no attempt at all", retry(RetryPolicy { max_attempts: 0, ..RetryPolicy::DEFAULT })),
        ("NaN jitter", FaultPlan { exec_jitter: f64::NAN, ..FaultPlan::NONE }),
        ("a negative fault time", worker(WorkerFault::transient(0, -1.0, 2.0))),
        ("a NaN fault time", worker(WorkerFault::permanent(1, f64::NAN))),
        ("a zero downtime", worker(WorkerFault::transient(2, 1.0, 0.0))),
        ("a negative downtime", worker(WorkerFault::transient(0, 1.0, -2.0))),
        ("a recovery past f64::MAX", worker(WorkerFault::transient(0, 1e308, 1e308))),
        ("a NaN backoff", retry(RetryPolicy { backoff_base: f64::NAN, ..RetryPolicy::DEFAULT })),
        ("a NaN backoff cap", retry(RetryPolicy { backoff_cap: f64::NAN, ..RetryPolicy::DEFAULT })),
    ]
}

/// Run every invalid plan, journaled, through `run` (which builds a fresh
/// engine and hands it the spec): each must be `InvalidPlan`, with no event
/// in the sink and no record in the journal.
fn refuses_every_invalid_plan(
    mut run: impl FnMut(Run<'_, &mut dyn TraceSink>) -> Result<KernelOutcome, RunError>,
) {
    for (what, plan) in invalid_plans() {
        let (mut journal, mut sink) = (MemJournal::new(), VecSink::new());
        let result = journaled(&mut journal, &mut sink, |tee| {
            let mut sink: &mut dyn TraceSink = tee;
            run(Run { faults: plan, ..Run::new(&mut sink, &NullRegistry) })
        })
        .expect("in-memory journal");
        match result {
            Err(RunError::InvalidPlan { .. }) => {}
            other => panic!("{what}: expected InvalidPlan, got {other:?}"),
        }
        assert!(sink.events.is_empty(), "{what}: the sink saw {} events", sink.events.len());
        assert_eq!(journal.len(), 0, "{what}: the journal holds records");
    }
}

fn small_instance() -> Instance {
    Instance::from_times(&[(4.0, 1.0), (2.0, 2.0), (1.0, 3.0), (3.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
}

#[test]
fn independent_engine_refuses_invalid_plans_before_emitting() {
    let (instance, platform) = (small_instance(), Platform::new(2, 1));
    refuses_every_invalid_plan(|spec| {
        let (mut workload, mut policy) =
            independent(&instance, &platform, &HeteroPrioConfig::new());
        kernel::run(&platform, &mut workload, &mut policy, spec)
    });
}

#[test]
fn release_dates_engine_refuses_invalid_plans_before_emitting() {
    let (instance, platform) = (small_instance(), Platform::new(2, 1));
    let releases = [0.0, 0.0, 1.0, 2.0, 2.5, 4.0];
    refuses_every_invalid_plan(|spec| {
        let config = HeteroPrioConfig::new();
        let (mut workload, mut policy) = release_dates(&instance, &releases, &platform, &config);
        kernel::run(&platform, &mut workload, &mut policy, spec)
    });
}

#[test]
fn dag_engine_refuses_invalid_plans_before_emitting() {
    let (graph, platform) = (ranked_cholesky(3), Platform::new(2, 1));
    refuses_every_invalid_plan(|spec| {
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
        kernel::run(&platform, &mut workload, &mut policy, spec)
    });
}

/// Clause-shaped `--faults` text: targets, times and durations drawn from
/// well-formed, boundary and malformed pieces, plus `fail=`/`seed=`
/// clauses and stray separators.
fn clause_spec(parts: &[(u32, u32, u32, u32)]) -> String {
    const TARGETS: [&str; 12] =
        ["w0", "w2", "w3", "w99", "c0", "c1", "c2", "cpu", "GPU", "all", "fpga", "x"];
    const TIMES: [&str; 12] =
        ["0", "1.5", "4", "-1", "nan", "inf", "1e308", "25%", "150%", "-5%", "1e309%", ""];
    const DURATIONS: [&str; 10] =
        ["", "+1", "+2.5", "+0", "+-2", "+nan", "+inf", "+1e308", "+", "+x"];
    const OTHERS: [&str; 10] = [
        "fail=0.1",
        "fail=1",
        "fail=1.5",
        "fail=nan",
        "fail=-0.2",
        "seed=7",
        "seed=-1",
        "",
        " , ",
        "@",
    ];
    let pick = |table: &[&'static str], i: u32| table[i as usize % table.len()];
    parts
        .iter()
        .map(|&(kind, a, b, c)| match kind {
            0 => pick(&OTHERS, a).to_string(),
            _ => format!("{}@{}{}", pick(&TARGETS, a), pick(&TIMES, b), pick(&DURATIONS, c)),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Feed `text` through the `--faults` pipeline — parse with a class table,
/// resolve against a baseline makespan, then run the independent engine
/// and a small DAG under the plan. Nothing may panic, and every rejection,
/// at any stage, must be `InvalidPlan`. Returns the stage that refused the
/// text, or `"ran"`.
fn spec_reaches_the_kernel_or_is_an_invalid_plan(text: &str) -> &'static str {
    let table = ClassTable::new(&[("cpu", 2), ("gpu", 1)]).expect("a valid table");
    let platform = table.platform();
    let invalid = |stage: &'static str, e: RunError| {
        assert!(matches!(e, RunError::InvalidPlan { .. }), "{stage} of {text:?}: {e:?}");
        stage
    };
    let spec = match FaultSpec::parse_with(text, Some(&table)) {
        Ok(spec) => spec,
        Err(e) => return invalid("parse", e),
    };
    let worker_faults = match spec.resolve(&platform, Some(10.0)) {
        Ok(faults) => faults,
        Err(e) => return invalid("resolve", e),
    };
    let plan = FaultPlan {
        worker_faults,
        task_failure_prob: spec.task_failure_prob.unwrap_or(0.0),
        seed: spec.seed.unwrap_or(0),
        retry: RetryPolicy { max_attempts: 8, ..RetryPolicy::DEFAULT },
        ..FaultPlan::NONE
    };
    let instance = small_instance();
    let graph = ranked_cholesky(3);
    let mut sink = NullSink;
    let (mut workload, mut policy) = independent(&instance, &platform, &HeteroPrioConfig::new());
    let spec = Run { faults: plan.clone(), ..Run::new(&mut sink, &NullRegistry) };
    let independent = kernel::run(&platform, &mut workload, &mut policy, spec);
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
    let spec = Run { faults: plan, ..Run::new(&mut sink, &NullRegistry) };
    let dag = kernel::run(&platform, &mut workload, &mut policy, spec);
    let mut stage = "ran";
    for result in [independent.err(), dag.err()] {
        match result {
            None | Some(RunError::TaskAbandoned { .. } | RunError::AllWorkersDown { .. }) => {}
            Some(e) => stage = invalid("kernel", e),
        }
    }
    stage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary text, mostly ASCII with some wider code points.
    #[test]
    fn arbitrary_fault_specs_never_panic(
        chars in prop::collection::vec((0u32..4, 0u32..0x80, 0u32..0x3000), 0..24),
    ) {
        let text: String = chars
            .into_iter()
            .filter_map(|(wide, ascii, any)| char::from_u32(if wide == 0 { any } else { ascii }))
            .collect();
        spec_reaches_the_kernel_or_is_an_invalid_plan(&text);
    }

    // Clause-shaped text, so that most specs parse and reach the kernel.
    #[test]
    fn clause_shaped_fault_specs_never_panic(
        parts in prop::collection::vec((0u32..4, 0u32..64, 0u32..64, 0u32..64), 0..5),
    ) {
        spec_reaches_the_kernel_or_is_an_invalid_plan(&clause_spec(&parts));
    }
}

/// Guards the clause-shaped fuzz against vacuity: its generator reaches
/// every stage — specs refused by the parser, by resolution and by the
/// kernel's plan check, and specs that run.
#[test]
fn clause_shaped_specs_reach_every_stage() {
    let mut x = 7u64;
    let mut next = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) as u32
    };
    let mut stages = std::collections::BTreeMap::new();
    for _ in 0..400 {
        let parts: Vec<_> =
            (0..1 + next() % 3).map(|_| (next() % 4, next(), next(), next())).collect();
        *stages
            .entry(spec_reaches_the_kernel_or_is_an_invalid_plan(&clause_spec(&parts)))
            .or_insert(0) += 1;
    }
    for stage in ["parse", "resolve", "kernel", "ran"] {
        assert!(stages.get(stage).is_some_and(|&n| n >= 10), "{stage}: {stages:?}");
    }
}

/// Run `run` journaled under `faults` and require the instant-overflow
/// error, with no event at a non-finite instant in the sink or the journal.
/// Returns the emitted events.
fn overflows_before_emitting(
    faults: &FaultPlan,
    mut run: impl FnMut(Run<'_, &mut dyn TraceSink>) -> Result<KernelOutcome, RunError>,
) -> Vec<SchedEvent> {
    let (mut journal, mut sink) = (MemJournal::new(), VecSink::new());
    let result = journaled(&mut journal, &mut sink, |tee| {
        let mut sink: &mut dyn TraceSink = tee;
        run(Run { faults: faults.clone(), ..Run::new(&mut sink, &NullRegistry) })
    })
    .expect("in-memory journal");
    match result {
        Err(RunError::InstantOverflow { time, .. }) => assert!(time.is_finite(), "{time}"),
        other => panic!("expected InstantOverflow, got {other:?}"),
    }
    assert!(!sink.events.is_empty(), "the run emits its finite prefix");
    assert_eq!(journal.events(), sink.events.as_slice());
    for e in &sink.events {
        assert!(e.time().is_finite(), "{e:?}");
        if let SchedEvent::TaskStart { expected_end, .. } = e {
            assert!(expected_end.is_finite(), "{e:?}");
        }
    }
    sink.events
}

/// Three tasks of `1e308` on one CPU and one GPU: the first two end at
/// `1e308`, so the third would end past `f64::MAX`.
fn overflowing_instance() -> Instance {
    Instance::from_times(&[(1e308, 1e308); 3])
}

#[test]
fn instant_overflow_is_an_error_on_every_engine() {
    let (instance, platform) = (overflowing_instance(), Platform::new(1, 1));
    let graph = TaskGraph::independent(instance.clone());
    let releases = [0.0; 3];
    for config in [HeteroPrioConfig::new(), HeteroPrioConfig::without_spoliation()] {
        let _ = overflows_before_emitting(&FaultPlan::NONE, |spec| {
            let (mut workload, mut policy) = independent(&instance, &platform, &config);
            kernel::run(&platform, &mut workload, &mut policy, spec)
        });
        let _ = overflows_before_emitting(&FaultPlan::NONE, |spec| {
            let (mut workload, mut policy) =
                release_dates(&instance, &releases, &platform, &config);
            kernel::run(&platform, &mut workload, &mut policy, spec)
        });
        let _ = overflows_before_emitting(&FaultPlan::NONE, |spec| {
            let mut policy = HeteroPrioDagPolicy::new(config);
            let model = TransferModel::NONE;
            let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &model);
            kernel::run(&platform, &mut workload, &mut policy, spec)
        });
    }
}

/// A failed attempt whose backoff ends past `f64::MAX` is the same error,
/// raised before the retry is announced.
#[test]
fn retry_backoff_overflow_is_an_error() {
    let (instance, platform) = (overflowing_instance(), Platform::new(1, 1));
    let faults = FaultPlan {
        task_failure_prob: 1.0,
        retry: RetryPolicy { max_attempts: 5, backoff_base: f64::MAX, backoff_cap: f64::MAX },
        ..FaultPlan::NONE
    };
    let events = overflows_before_emitting(&faults, |spec| {
        let (mut workload, mut policy) =
            independent(&instance, &platform, &HeteroPrioConfig::new());
        kernel::run(&platform, &mut workload, &mut policy, spec)
    });
    assert!(matches!(events.last(), Some(SchedEvent::TaskFailed { .. })), "{events:?}");
}
