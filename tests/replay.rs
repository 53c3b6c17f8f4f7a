//! Everything derived by replaying a recorded event stream. The schedule
//! rebuilt from a stream is the kernel's own, bit for bit, on every engine
//! and fault path. Golden pins hold the audit report (clean runs of each
//! engine, a static DualHP packing, and tampered streams that must fire
//! their rule) and the Chrome trace (spoliated, failed and lost slices):
//! each pin is the 64-bit FNV-1a of the rendered text, so any change to a
//! violation's order, index or message, a check count, or a slice's bits
//! shows up here.

use heteroprio::audit::{audit, schedule_from_events, AuditOptions, AuditReport};
use heteroprio::core::kernel::{self, KernelPolicy, Run, Workload};
use heteroprio::core::{
    heteroprio_traced, independent, release_dates, FaultPlan, HeteroPrioConfig, Instance, Platform,
    RetryPolicy, RunError, Schedule, TaskRun, WorkerFault, WorkerId,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::{dualhp_independent, HeteroPrioDagPolicy};
use heteroprio::simulator::{dag, simulate_traced, TransferModel};
use heteroprio::taskgraph::{apply_bottom_level_priorities, Factorization, WeightScheme};
use heteroprio::trace::{chrome_trace, ChromeTraceOptions, QueueEnd, SchedEvent, VecSink};
use heteroprio::workloads::ChameleonTiming;
use proptest::prelude::*;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Deterministic LCG draws in `0..m`.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |m| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % m
    }
}

/// Integer times with GPU-friendly tasks parked on CPUs: several workers
/// finish together and GPUs keep spoliating.
fn spoliating_instance() -> Instance {
    let mut next = lcg(7);
    let times: Vec<(f64, f64)> = (0..48)
        .map(|i| {
            if i % 3 != 0 {
                (40.0 + next(3) as f64 * 8.0, 2.0 + next(2) as f64 * 2.0)
            } else {
                (2.0 + next(3) as f64 * 2.0, 4.0 + next(3) as f64 * 2.0)
            }
        })
        .collect();
    Instance::from_times(&times)
}

fn three_class_instance() -> Instance {
    let mut next = lcg(13);
    let rows: Vec<[f64; 3]> = (0..30)
        .map(|i| match i % 3 {
            0 => [30.0 + next(3) as f64 * 6.0, 2.0 + next(2) as f64 * 2.0, 8.0 + next(2) as f64],
            1 => [2.0 + next(3) as f64 * 2.0, 6.0 + next(3) as f64 * 2.0, 4.0],
            _ => [8.0 + next(2) as f64 * 4.0, 12.0, 1.0 + next(2) as f64],
        })
        .collect();
    let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
    Instance::from_class_times(&rows)
}

fn hp_traced(instance: &Instance, platform: &Platform) -> (Schedule, Vec<SchedEvent>) {
    let mut sink = VecSink::new();
    let res = heteroprio_traced(instance, platform, &HeteroPrioConfig::new(), &mut sink);
    (res.schedule, sink.into_events())
}

/// A bottom-level-ranked Cholesky DAG under HeteroPrio, fault-free.
fn dag_run(n: usize) -> (Instance, Schedule, Vec<SchedEvent>) {
    let mut graph = Factorization::Cholesky.generate(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let mut sink = VecSink::new();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let res =
        simulate_traced(&graph, &Platform::new(3, 2), &mut policy, &TransferModel::NONE, &mut sink);
    (graph.instance().clone(), res.schedule, sink.into_events())
}

/// The faulty Cholesky 8 run of `tests/dag_execution.rs`: a transient GPU
/// outage, a permanent CPU death, task failures with retries and jitter.
fn faulty_dag_run() -> (Instance, Schedule, Vec<SchedEvent>) {
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
    (graph.instance().clone(), out.schedule, sink.into_events())
}

/// Integer times for DualHP: forced, flexible and spilled tasks.
fn dualhp_instance() -> Instance {
    let mut next = lcg(5);
    let times: Vec<(f64, f64)> = (0..40)
        .map(|i| match i % 3 {
            0 => (20.0 + next(4) as f64 * 10.0, 1.0 + next(3) as f64),
            1 => (2.0 + next(3) as f64, 4.0 + next(4) as f64 * 2.0),
            _ => (4.0 + next(4) as f64, 4.0 + next(4) as f64),
        })
        .collect();
    Instance::from_times(&times)
}

fn pin(name: &str, report: &AuditReport, expected: u64) {
    let json = report.to_json();
    assert_eq!(fnv1a(json.as_bytes()), expected, "{name}: {json}");
}

#[test]
fn clean_audit_reports_match_golden_digests() {
    let platform = Platform::new(4, 2);
    let instance = spoliating_instance();
    let (schedule, events) = hp_traced(&instance, &platform);
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(report.is_clean(), "{}", report.render());
    pin("k=2", &report, 0x4a54_86e2_7a26_0594);

    let platform = Platform::from_counts(&[2, 1, 1]);
    let instance = three_class_instance();
    let (schedule, events) = hp_traced(&instance, &platform);
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(report.is_clean(), "{}", report.render());
    pin("k=3", &report, 0x0fbd_c988_d7ff_83fd);

    let (instance, schedule, events) = dag_run(6);
    let platform = Platform::new(3, 2);
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::dag_run(0.0, None));
    assert!(report.is_clean(), "{}", report.render());
    pin("dag", &report, 0xd736_a447_28a5_0fd1);

    let (instance, schedule, events) = faulty_dag_run();
    let opts = AuditOptions { faulty: true, ..AuditOptions::dag_run(0.0, None) };
    let report = audit(&instance, &platform, &schedule, &events, &opts);
    assert!(report.is_clean(), "{}", report.render());
    pin("faulty dag", &report, 0xf7a7_2280_32f7_b7af);

    let platform = Platform::new(4, 2);
    let instance = dualhp_instance();
    let schedule = dualhp_independent(&instance, &platform);
    let events = schedule.to_events(&platform);
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::dualhp());
    assert!(report.is_clean(), "{}", report.render());
    pin("static dualhp", &report, 0x33f1_ea67_5b31_659d);
}

#[test]
fn tampered_audit_reports_match_golden_digests() {
    let platform = Platform::new(4, 2);
    let instance = spoliating_instance();
    let (schedule, events) = hp_traced(&instance, &platform);
    let opts = AuditOptions::independent();

    // A GPU pop claims the CPU's end of the queue.
    let mut wrong_end = events.clone();
    let i = wrong_end
        .iter()
        .position(|e| matches!(e, SchedEvent::QueuePop { end: QueueEnd::Front, .. }))
        .expect("a GPU pops");
    if let SchedEvent::QueuePop { end, .. } = &mut wrong_end[i] {
        *end = QueueEnd::Back;
    }
    let report = audit(&instance, &platform, &schedule, &wrong_end, &opts);
    assert!(!report.is_clean());
    pin("wrong-end pop", &report, 0xbaf6_9a4a_fee3_70c4);

    // A completion on a worker with no open run, just after the first
    // completion of the run.
    let mut orphan = events.clone();
    let i = orphan
        .iter()
        .position(|e| matches!(e, SchedEvent::TaskComplete { .. }))
        .expect("a task completes");
    let (time, worker) = match orphan[i] {
        SchedEvent::TaskComplete { time, worker, .. } => (time, worker),
        _ => unreachable!(),
    };
    orphan.insert(i + 1, SchedEvent::TaskComplete { time, task: 0, worker });
    let report = audit(&instance, &platform, &schedule, &orphan, &opts);
    assert!(!report.is_clean());
    pin("orphan complete", &report, 0xec9b_cba2_62db_ffbb);

    // The restart after the first spoliation finishes no earlier than the
    // victim would have.
    let mut no_gain = events.clone();
    let i = no_gain
        .iter()
        .position(|e| matches!(e, SchedEvent::Spoliation { .. }))
        .expect("the run spoliates");
    let task = match no_gain[i] {
        SchedEvent::Spoliation { task, .. } => task,
        _ => unreachable!(),
    };
    let restart = (i..no_gain.len())
        .find(|&j| matches!(no_gain[j], SchedEvent::TaskStart { task: t, .. } if t == task))
        .expect("the stolen task restarts");
    if let SchedEvent::TaskStart { expected_end, .. } = &mut no_gain[restart] {
        *expected_end += 100.0;
    }
    let report = audit(&instance, &platform, &schedule, &no_gain, &opts);
    assert!(!report.is_clean());
    pin("non-improving restart", &report, 0x7b3c_6f3b_fea9_3d23);

    // A DualHP stream with a cross-class steal, the victim's aborted run in
    // the schedule and the stolen task's run moved to the thief's class:
    // the steal, the aborted-run finding and the partition finding all
    // fire, in that order.
    let instance = dualhp_instance();
    let mut schedule = dualhp_independent(&instance, &platform);
    let mut events = schedule.to_events(&platform);
    let victim = schedule.runs[0];
    let thief = (0..platform.workers() as u32)
        .find(|&w| platform.class_of(WorkerId(w)) != platform.class_of(victim.worker))
        .expect("a worker of the other class");
    let at = 0.5 * (victim.start + victim.end);
    let i = events
        .iter()
        .position(|e| matches!(e, SchedEvent::TaskStart { task, .. } if *task == victim.task.0))
        .expect("the victim's start");
    events.insert(
        i + 1,
        SchedEvent::Spoliation {
            time: at,
            task: victim.task.0,
            victim: victim.worker.0,
            thief,
            wasted_work: at - victim.start,
        },
    );
    schedule.aborted.push(TaskRun {
        task: victim.task,
        worker: victim.worker,
        start: victim.start,
        end: at,
    });
    schedule.runs[0] = TaskRun { worker: WorkerId(thief), ..victim };
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::dualhp());
    assert!(!report.is_clean());
    pin("dualhp steal", &report, 0x7ec6_5273_9a1c_bb46);
}

#[test]
fn chrome_traces_match_golden_digests() {
    let platform = Platform::new(4, 2);
    let (schedule, events) = hp_traced(&spoliating_instance(), &platform);
    assert!(schedule.spoliation_count() > 0);
    let opts = ChromeTraceOptions {
        worker_names: ["CPU 0", "CPU 1", "CPU 2", "CPU 3", "GPU 0", "GPU 1"]
            .map(String::from)
            .to_vec(),
        task_names: Vec::new(),
    };
    let doc = chrome_trace(&events, &opts);
    assert_eq!(fnv1a(doc.as_bytes()), 0x8b8e_b3bf_8ff2_b5be, "spoliating stream");

    let (_, schedule, events) = faulty_dag_run();
    assert!(events.iter().any(|e| matches!(e, SchedEvent::TaskFailed { .. })));
    assert!(events.iter().any(|e| matches!(e, SchedEvent::WorkerDown { lost_task: Some(_), .. })));
    assert!(!schedule.aborted.is_empty());
    let doc = chrome_trace(&events, &ChromeTraceOptions::default());
    assert!(doc.contains("\"cat\":\"failed\"") && doc.contains("\"cat\":\"lost\""));
    assert_eq!(fnv1a(doc.as_bytes()), 0xb196_269c_0df3_db60, "faulty DAG stream");
}

/// A run's completed and aborted intervals as exact bits, in push order.
fn bits(runs: &[TaskRun]) -> Vec<(u32, u32, u64, u64)> {
    runs.iter().map(|r| (r.task.0, r.worker.0, r.start.to_bits(), r.end.to_bits())).collect()
}

fn kernel_traced<W: Workload, P: KernelPolicy>(
    platform: &Platform,
    workload: &mut W,
    policy: &mut P,
    faults: FaultPlan,
) -> Option<(Schedule, Vec<SchedEvent>)> {
    let mut sink = VecSink::new();
    let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
    // A plan may legitimately end the run early (every attempt of a task
    // failed, or every worker died): there is no finished schedule to
    // compare then. Any other error, a rejected plan above all, fails.
    match kernel::run(platform, workload, policy, spec) {
        Ok(out) => Some((out.schedule, sink.into_events())),
        Err(RunError::TaskAbandoned { .. } | RunError::AllWorkersDown { .. }) => None,
        Err(e) => panic!("the generated run failed: {e}"),
    }
}

/// One kernel run for the rebuild property. `engine` picks the
/// independent, release-dates or DAG engine; `shape` the task times; and
/// `faults = (kind, at, down_for, prob, jitter, seed)` a fault plan: no
/// worker fault, a transient one, or a transient plus a permanent one,
/// with task failures (retried) at `prob` and execution jitter.
fn engine_run(
    engine: u32,
    tasks: &[(u32, u32, u32)],
    integer: bool,
    platform: &Platform,
    faults: (u32, f64, f64, f64, f64, u64),
) -> Option<(Schedule, Vec<SchedEvent>)> {
    let (kind, at, down_for, prob, jitter, seed) = faults;
    let workers = platform.workers() as u32;
    let mut worker_faults = Vec::new();
    if kind >= 1 {
        worker_faults.push(WorkerFault::transient(seed as u32 % workers, at, down_for));
    }
    if kind >= 2 && workers > 1 {
        worker_faults.push(WorkerFault::permanent((seed as u32 + 1) % workers, 0.5 * at));
    }
    let model = FaultPlan {
        worker_faults,
        task_failure_prob: prob,
        exec_jitter: jitter,
        seed,
        retry: RetryPolicy { max_attempts: 64, ..RetryPolicy::DEFAULT },
    };
    // Integer times with GPU-friendly tasks parked on long CPU runs make
    // spoliations and shared completion instants; fractional times make
    // starts that `time − lost_work` does not give back exactly.
    let scale = if integer { 1.0 } else { 1.37 };
    let times: Vec<(f64, f64)> = tasks
        .iter()
        .map(|&(p, q, spoil)| {
            let p = if spoil < 2 { 30.0 + p as f64 * 2.0 } else { p as f64 };
            (p * scale, q as f64 * scale)
        })
        .collect();
    let instance = Instance::from_times(&times);
    let config = HeteroPrioConfig::new();
    match engine {
        0 => {
            let (mut workload, mut policy) = independent(&instance, platform, &config);
            kernel_traced(platform, &mut workload, &mut policy, model)
        }
        1 => {
            let releases: Vec<f64> =
                tasks.iter().map(|&(_, _, r)| (r as f64 * 2.5 * scale).floor()).collect();
            let (mut workload, mut policy) = release_dates(&instance, &releases, platform, &config);
            kernel_traced(platform, &mut workload, &mut policy, model)
        }
        _ => {
            let f = Factorization::ALL[tasks.len() % Factorization::ALL.len()];
            let mut graph = f.generate(3 + tasks.len() % 4, &ChameleonTiming);
            apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
            let mut policy = HeteroPrioDagPolicy::new(config);
            let (mut workload, mut policy) =
                dag(&graph, platform, &mut policy, &TransferModel::NONE);
            kernel_traced(platform, &mut workload, &mut policy, model)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // The schedule rebuilt from a run's stream is the kernel's schedule:
    // the same completed and aborted runs, bit for bit and in push order,
    // on every engine under every fault path.
    #[test]
    fn rebuilt_schedule_is_the_kernels_schedule(
        engine in 0u32..3,
        tasks in prop::collection::vec((1u32..=8, 1u32..=8, 0u32..4), 1..=32),
        integer in 0u32..2,
        counts in (1usize..=4, 1usize..=2),
        worker_fault in (0u32..3, 1.0f64..40.0, 1.0f64..30.0),
        noise in (0u32..3, 0u32..2, 0u64..1_000_000),
    ) {
        let platform = Platform::new(counts.0, counts.1);
        let (kind, at, down_for) = worker_fault;
        let prob = [0.0, 0.1, 0.3][noise.0 as usize];
        let jitter = [0.0, 0.2][noise.1 as usize];
        let faults = (kind, at, down_for, prob, jitter, noise.2);
        if let Some((schedule, events)) =
            engine_run(engine, &tasks, integer == 1, &platform, faults)
        {
            let rebuilt = schedule_from_events(&events);
            prop_assert_eq!(bits(&rebuilt.runs), bits(&schedule.runs));
            prop_assert_eq!(bits(&rebuilt.aborted), bits(&schedule.aborted));
        }
    }
}

/// Guards the rebuild property against vacuity: its generator reaches
/// spoliated, failed and lost runs on each engine.
#[test]
fn rebuild_property_reaches_every_abort_path() {
    let tasks: Vec<(u32, u32, u32)> =
        (0..24).map(|i| (1 + (i * 4) % 8, 1 + (i * 5) % 8, i % 4)).collect();
    let platform = Platform::new(3, 2);
    for engine in 0..3 {
        let clean = engine_run(engine, &tasks, true, &platform, (0, 0.0, 0.0, 0.0, 0.0, 1));
        let (_, events) = clean.expect("a fault-free run completes");
        assert!(events.iter().any(|e| matches!(e, SchedEvent::Spoliation { .. })));
        let faulty = engine_run(engine, &tasks, false, &platform, (2, 8.0, 10.0, 0.3, 0.2, 3));
        let (_, events) = faulty.expect("the faulty run completes");
        assert!(events.iter().any(|e| matches!(e, SchedEvent::TaskFailed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, SchedEvent::WorkerDown { lost_task: Some(_), .. })));
    }
}
