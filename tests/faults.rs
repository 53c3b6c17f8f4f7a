//! Integration tests of the fault-injection layer: conservation of time
//! under arbitrary fault plans, byte-identity of the zero plan, structured
//! abandonment, and the headline all-GPUs-die recovery scenario.

use heteroprio::core::kernel::{self, FaultModel, Run, TimelineEvent};
use heteroprio::core::{independent, HeteroPrioConfig, Instance, Platform};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::{HeteroPrioDagPolicy, PriorityListPolicy};
use heteroprio::simulator::{
    dag, simulate_traced, FaultPlan, OnlinePolicy, RetryPolicy, SimError, SimResult, TransferModel,
    WorkerFault,
};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, TaskGraph, WeightScheme};
use heteroprio::trace::{NullSink, TraceSink, TraceSummary, VecSink};
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
) -> Result<SimResult, SimError> {
    let (mut workload, mut policy, faults) = dag(graph, platform, policy, model, plan)?;
    let spec = Run { faults, ..Run::new(sink, &NullRegistry) };
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
        SimError::TaskAbandoned { attempts, .. } => assert_eq!(attempts, 2),
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
    let down = TimelineEvent { time: 0.5, worker: 2, up: false, permanent: true };
    let cases = [
        (Instance::from_times(&[(4.0, 1.0); 8]), Platform::new(2, 1)),
        (Instance::from_class_times(&three), Platform::from_counts(&[2, 1, 1])),
    ];
    for (instance, platform) in &cases {
        for config in [HeteroPrioConfig::new(), HeteroPrioConfig::without_spoliation()] {
            let (mut workload, mut policy) = independent(instance, platform, &config);
            let faults = FaultModel { timeline: vec![down], ..FaultModel::none() };
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
