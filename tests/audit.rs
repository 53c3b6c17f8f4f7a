//! Integration tests for the paper-invariant auditor: fault-free runs of
//! every execution path audit clean, and targeted mutations of a recorded
//! run fire exactly the rule that guards the violated property.

use heteroprio::audit::{audit, schedule_from_events, AuditOptions, Rule};
use heteroprio::core::kernel::{self, Run};
use heteroprio::core::{
    heteroprio_traced, FaultPlan, HeteroPrioConfig, Instance, Platform, RetryPolicy, Task,
    WorkerFault,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::{dag, simulate_traced, TransferModel};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, WeightScheme};
use heteroprio::trace::{jsonl, parse_jsonl, QueueEnd, SchedEvent, VecSink};
use heteroprio::workloads::ChameleonTiming;
use proptest::prelude::*;

fn hp_traced(
    instance: &Instance,
    platform: &Platform,
) -> (heteroprio::core::Schedule, Vec<SchedEvent>) {
    let mut sink = VecSink::new();
    let result = heteroprio_traced(instance, platform, &HeteroPrioConfig::new(), &mut sink);
    (result.schedule, sink.into_events())
}

fn fired(report: &heteroprio::audit::AuditReport, rule: Rule) -> bool {
    report.violations.iter().any(|v| v.rule == rule)
}

// ---------------------------------------------------------------- clean runs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Lemma 3's premise, checked empirically: every fault-free HeteroPrio
    // run on independent tasks satisfies every audited invariant.
    #[test]
    fn fault_free_heteroprio_always_audits_clean(
        times in prop::collection::vec((0.1f64..50.0, 0.1f64..50.0), 1..=20),
        cpus in 1usize..=4,
        gpus in 1usize..=3,
    ) {
        let instance = Instance::from_times(&times);
        let platform = Platform::new(cpus, gpus);
        let (schedule, events) = hp_traced(&instance, &platform);
        let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
        prop_assert!(report.is_clean(), "violations: {:?}", report.violations);
        prop_assert!(report.skipped.is_empty(), "nothing should be skipped: {:?}", report.skipped);
        let cert = report.certificate.expect("certificate always computed");
        prop_assert!(cert.enforced);
    }

    // The k = 3 companion sweep: fault-free runs on a three-class platform
    // stay clean on every structural rule, while the two-class-only
    // certificates (Lemma 1/2, pop-order ends) are skipped with a reason —
    // never silently passed.
    #[test]
    fn fault_free_three_class_runs_audit_clean_with_skips(
        times in prop::collection::vec((0.1f64..50.0, 0.1f64..50.0, 0.1f64..50.0), 1..=20),
        cpus in 1usize..=3,
        gpus in 1usize..=2,
        fpgas in 1usize..=2,
    ) {
        use heteroprio::core::ClassTable;
        let tasks: Vec<Task> =
            times.iter().map(|&(a, b, c)| Task::from_times(&[a, b, c])).collect();
        let instance = Instance::from_tasks(tasks);
        let platform = ClassTable::new(&[("cpu", cpus), ("gpu", gpus), ("fpga", fpgas)])
            .expect("valid three-class table")
            .platform();
        let (schedule, events) = hp_traced(&instance, &platform);
        let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
        prop_assert!(report.is_clean(), "violations: {:?}", report.violations);
        prop_assert!(
            !report.skipped.is_empty(),
            "two-class certificates must be skipped with reasons at k = 3"
        );
    }
}

#[test]
fn dag_heteroprio_runs_audit_clean() {
    for n in [4, 6] {
        let mut graph = cholesky(n, &ChameleonTiming);
        apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
        let platform = Platform::new(3, 2);
        let mut sink = VecSink::new();
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let res = simulate_traced(&graph, &platform, &mut policy, &TransferModel::NONE, &mut sink);
        let events = sink.into_events();
        let report = audit(
            graph.instance(),
            &platform,
            &res.schedule,
            &events,
            &AuditOptions::dag_run(0.0, None),
        );
        assert!(report.is_clean(), "cholesky {n}: {:?}", report.violations);
        let cert = report.certificate.expect("certificate reported for DAG runs");
        assert!(!cert.enforced, "theorem constants are not enforced on DAGs");
    }
}

#[test]
fn faulty_run_audits_clean_modulo_liveness() {
    let mut graph = cholesky(6, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let platform = Platform::new(3, 2);
    let plan = FaultPlan {
        worker_faults: vec![WorkerFault { worker: 3, at: 40.0, down_for: Some(30.0) }],
        task_failure_prob: 0.05,
        exec_jitter: 0.2,
        seed: 7,
        retry: RetryPolicy { max_attempts: 10, ..RetryPolicy::DEFAULT },
    };
    let mut sink = VecSink::new();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
    let spec = Run { faults: plan, ..Run::new(&mut sink, &NullRegistry) };
    let res = kernel::run(&platform, &mut workload, &mut policy, spec)
        .expect("run completes under this plan");
    let events = sink.into_events();
    let opts = AuditOptions { faulty: true, ..AuditOptions::dag_run(0.0, None) };
    let report = audit(graph.instance(), &platform, &res.schedule, &events, &opts);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    // Duration checks are explicitly skipped under jitter, not silently passed.
    assert!(report.skipped.iter().any(|(r, _)| *r == Rule::WellFormed));
}

// ------------------------------------------------------------------ mutations

/// Tasks with pairwise-distinct ρ on a 1 CPU + 1 GPU platform, so pop-order
/// mutations cannot hide behind a documented tie.
fn distinct_rho_instance() -> Instance {
    Instance::from_tasks(vec![
        Task::new(4.0, 1.0), // ρ = 4
        Task::new(3.0, 1.0), // ρ = 3
        Task::new(1.0, 2.0), // ρ = 0.5
        Task::new(1.0, 4.0), // ρ = 0.25
    ])
}

#[test]
fn swapping_two_pops_fires_pop_order_consistency() {
    let instance = distinct_rho_instance();
    let platform = Platform::new(1, 1);
    let (schedule, mut events) = hp_traced(&instance, &platform);
    let front = events
        .iter()
        .position(|e| matches!(e, SchedEvent::QueuePop { end: QueueEnd::Front, .. }))
        .expect("GPU popped at least once");
    let back = events
        .iter()
        .position(|e| matches!(e, SchedEvent::QueuePop { end: QueueEnd::Back, .. }))
        .expect("CPU popped at least once");
    let (a, b) = match (&events[front], &events[back]) {
        (SchedEvent::QueuePop { task: a, .. }, SchedEvent::QueuePop { task: b, .. }) => (*a, *b),
        _ => unreachable!(),
    };
    if let SchedEvent::QueuePop { task, .. } = &mut events[front] {
        *task = b;
    }
    if let SchedEvent::QueuePop { task, .. } = &mut events[back] {
        *task = a;
    }
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(fired(&report, Rule::PopOrderConsistency), "got: {:?}", report.violations);
}

#[test]
fn flipping_a_pop_end_fires_pop_order_consistency() {
    let instance = distinct_rho_instance();
    let platform = Platform::new(1, 1);
    let (schedule, mut events) = hp_traced(&instance, &platform);
    let front = events
        .iter()
        .position(|e| matches!(e, SchedEvent::QueuePop { end: QueueEnd::Front, .. }))
        .expect("GPU popped at least once");
    if let SchedEvent::QueuePop { end, .. } = &mut events[front] {
        *end = QueueEnd::Back;
    }
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(fired(&report, Rule::PopOrderConsistency), "got: {:?}", report.violations);
}

#[test]
fn stretching_a_run_fires_well_formed() {
    let instance = distinct_rho_instance();
    let platform = Platform::new(1, 1);
    let (mut schedule, events) = hp_traced(&instance, &platform);
    schedule.runs[0].end += 3.0;
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(fired(&report, Rule::WellFormed), "got: {:?}", report.violations);
}

/// One GPU-affine long CPU task gets stolen: [(9,1), (8,1), (10,3)] on
/// (1 CPU, 1 GPU). The GPU drains the queue by t=2, the CPU is stuck on the
/// (10,3) task until t=10, and stealing finishes it at t=5.
fn spoliating_instance() -> Instance {
    Instance::from_times(&[(9.0, 1.0), (8.0, 1.0), (10.0, 3.0)])
}

#[test]
fn dropping_an_abort_record_fires_spoliation_legality() {
    let instance = spoliating_instance();
    let platform = Platform::new(1, 1);
    let (mut schedule, events) = hp_traced(&instance, &platform);
    assert!(
        schedule.spoliation_count() > 0,
        "construction must spoliate; got makespan {}",
        schedule.makespan()
    );
    // Sanity: unmutated, the run audits clean.
    let clean = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(clean.is_clean(), "baseline violations: {:?}", clean.violations);

    schedule.aborted.pop();
    let report = audit(&instance, &platform, &schedule, &events, &AuditOptions::independent());
    assert!(fired(&report, Rule::SpoliationLegality), "got: {:?}", report.violations);
}

// -------------------------------------------------------------- round-trips

#[test]
fn jsonl_round_trip_then_rebuild_audits_clean() {
    let instance = spoliating_instance();
    let platform = Platform::new(1, 1);
    let (schedule, events) = hp_traced(&instance, &platform);
    let text = jsonl(&events);
    let parsed = parse_jsonl(&text).expect("round-trip parses");
    assert_eq!(parsed, events);
    let rebuilt = schedule_from_events(&parsed);
    assert_eq!(rebuilt.runs.len(), schedule.runs.len());
    assert_eq!(rebuilt.aborted.len(), schedule.aborted.len());
    let report = audit(&instance, &platform, &rebuilt, &parsed, &AuditOptions::independent());
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}
