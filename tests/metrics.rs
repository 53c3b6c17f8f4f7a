//! Integration tests of the kernel's self-profiling layer: the
//! `NullRegistry` path is byte-identical to a metered run (metrics are
//! observation, never behavior), the counters agree with the trace's own
//! accounting, and a real kernel snapshot survives the Prometheus
//! exposition round trip.

use heteroprio::core::kernel::{self, metric, Run};
use heteroprio::core::{heteroprio_metered, HeteroPrioConfig, Instance, Platform};
use heteroprio::metrics::{prometheus, InMemoryRegistry, MetricsRegistry, NullRegistry};
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::{dag, FaultPlan, TransferModel};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, TaskGraph, WeightScheme};
use heteroprio::trace::{TraceSummary, VecSink};
use heteroprio::workloads::{random_instance, ChameleonTiming, RandomInstanceParams};
use proptest::prelude::*;

fn sample_instance(tasks: usize, seed: u64) -> Instance {
    random_instance(&RandomInstanceParams { tasks, ..RandomInstanceParams::default() }, seed)
}

fn ranked_cholesky(n: usize) -> TaskGraph {
    let mut graph = cholesky(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    graph
}

/// Run the independent-task engine under the given registry and return the
/// recorded events plus the result.
fn run_independent(
    instance: &Instance,
    platform: &Platform,
    metrics: &dyn MetricsRegistry,
) -> (Vec<heteroprio::trace::SchedEvent>, heteroprio::core::HeteroPrioResult) {
    let mut sink = VecSink::new();
    let result =
        heteroprio_metered(instance, platform, &HeteroPrioConfig::new(), &mut sink, metrics);
    (sink.into_events(), result)
}

#[test]
fn null_registry_run_is_byte_identical_to_a_metered_run() {
    // The pin for the tentpole's "no behavior change" claim, alongside the
    // zero-fault-plan identity tests: attaching a live registry must not
    // perturb a single event, timestamp, or schedule entry.
    let instance = sample_instance(300, 0xBEEF);
    let platform = Platform::new(3, 2);

    let registry = InMemoryRegistry::new();
    let (metered_events, metered) = run_independent(&instance, &platform, &registry);
    let (null_events, plain) = run_independent(&instance, &platform, &NullRegistry);

    assert_eq!(null_events, metered_events, "event streams diverged");
    assert_eq!(plain.schedule.runs, metered.schedule.runs);
    assert_eq!(plain.schedule.aborted, metered.schedule.aborted);
    assert_eq!(plain.first_idle, metered.first_idle);
    assert_eq!(plain.spoliations, metered.spoliations);
}

#[test]
fn null_registry_dag_run_is_byte_identical_too() {
    let graph = ranked_cholesky(6);
    let platform = Platform::new(3, 2);
    let run = |metrics: &dyn MetricsRegistry| {
        let mut sink = VecSink::new();
        let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
        let (mut workload, mut policy, _) =
            dag(&graph, &platform, &mut policy, &TransferModel::NONE, &FaultPlan::NONE)
                .expect("the empty fault plan is valid");
        let res = kernel::run(&platform, &mut workload, &mut policy, Run::new(&mut sink, metrics))
            .expect("fault-free simulation cannot fail");
        (sink.into_events(), res.schedule)
    };
    let registry = InMemoryRegistry::new();
    let (metered_events, metered_schedule) = run(&registry);
    let (null_events, null_schedule) = run(&NullRegistry);
    assert_eq!(null_events, metered_events, "DAG event streams diverged");
    assert_eq!(null_schedule.runs, metered_schedule.runs);
    assert_eq!(null_schedule.aborted, metered_schedule.aborted);
}

#[test]
fn counters_agree_with_the_trace_summary() {
    let instance = sample_instance(250, 7);
    let platform = Platform::new(4, 2);
    let registry = InMemoryRegistry::new();
    let (events, result) = run_independent(&instance, &platform, &registry);
    let summary = TraceSummary::from_events(platform.workers(), &events);
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    // Every event the emission funnel counted reached the sink.
    assert_eq!(counter(metric::TRACE_EVENTS_TOTAL), summary.events_recorded() as u64);
    // Every task completes exactly once.
    assert_eq!(counter(metric::TASKS_COMPLETED_TOTAL), instance.len() as u64);
    // In a fault-free independent run each task is announced once and
    // popped once (spoliation relocates a running task, it never re-queues).
    assert_eq!(counter(metric::READY_PUSHES_TOTAL), instance.len() as u64);
    assert_eq!(counter(metric::READY_POPS_TOTAL), instance.len() as u64);
    assert_eq!(counter(metric::SPOLIATIONS_TOTAL), result.spoliations as u64);
    // The ready-depth high-water mark matches the trace's own accounting.
    assert_eq!(
        snap.gauge(&format!("{}_peak", metric::READY_DEPTH)),
        Some(summary.max_ready_depth() as u64)
    );
}

#[test]
fn histogram_totals_conserve_and_cover_every_pick() {
    let instance = sample_instance(120, 3);
    let platform = Platform::new(2, 1);
    let registry = InMemoryRegistry::new();
    let _ = run_independent(&instance, &platform, &registry);
    let snap = registry.snapshot();
    for h in &snap.histograms {
        let total: u64 = h.buckets.iter().sum();
        assert_eq!(total, h.count, "{}: bucket mass != count", h.name);
    }
    let pick = snap.histogram(metric::PICK_NS).expect("pick latency histogram exists");
    // Every successful pop went through pick (failed probes also count, so >=).
    assert!(
        pick.count >= instance.len() as u64,
        "{} picks for {} tasks",
        pick.count,
        instance.len()
    );
}

#[test]
fn a_real_kernel_snapshot_round_trips_through_prometheus_text() {
    let instance = sample_instance(200, 11);
    let platform = Platform::new(3, 2);
    let registry = InMemoryRegistry::new();
    let _ = run_independent(&instance, &platform, &registry);
    let snap = registry.snapshot();
    let text = prometheus::render(&snap);
    let parsed = prometheus::parse(&text).expect("exposition parses");
    assert_eq!(parsed, snap, "render → parse is not the identity");
    // And the round trip is a fixed point of render itself.
    assert_eq!(prometheus::render(&parsed), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn metered_runs_never_diverge_from_unmetered_ones(
        tasks in 1usize..60,
        seed in 0u64..1000,
        cpus in 1usize..4,
        gpus in 1usize..3,
    ) {
        let instance = sample_instance(tasks, seed);
        let platform = Platform::new(cpus, gpus);
        let registry = InMemoryRegistry::new();
        let (metered_events, _) = run_independent(&instance, &platform, &registry);
        let (null_events, _) = run_independent(&instance, &platform, &NullRegistry);
        prop_assert_eq!(null_events, metered_events);
    }
}
