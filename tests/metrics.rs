//! Integration tests of the kernel's self-profiling layer: the
//! `NullRegistry` path is byte-identical to a metered run (metrics are
//! observation, never behavior), the counters agree with the trace's own
//! accounting on every exit path of a run, the sampled spans keep their
//! exact count, and a real kernel snapshot survives the Prometheus
//! exposition round trip.

mod common;

use common::CountingPicks;
use heteroprio::core::durability::metric as journal_metric;
use heteroprio::core::kernel::{self, metric, Checkpoints, Resume, Run};
use heteroprio::core::{
    heteroprio_metered, independent, journaled, CrashPlan, FaultPlan, HeteroPrioConfig, Instance,
    MemCheckpointStore, MeteredJournal, Platform, RunError, WorkerFault,
};
use heteroprio::metrics::{
    prometheus, InMemoryRegistry, MetricsRegistry, MetricsSnapshot, NullRegistry, SAMPLE_EVERY,
};
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::{dag, TransferModel};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, TaskGraph, WeightScheme};
use heteroprio::trace::journal::{JournalError, SyncPolicy};
use heteroprio::trace::{
    FileJournal, Journal, MemJournal, NullSink, SchedEvent, TraceSink, TraceSummary, VecSink,
};
use heteroprio::workloads::{random_instance, ChameleonTiming, RandomInstanceParams};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
        let (mut workload, mut policy) = dag(&graph, &platform, &mut policy, &TransferModel::NONE);
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
    let (mut workload, policy) = independent(&instance, &platform, &HeteroPrioConfig::new());
    let mut policy = CountingPicks::new(policy);
    let mut sink = NullSink;
    let spec = Run::new(&mut sink, &registry);
    kernel::run(&platform, &mut workload, &mut policy, spec).expect("fault-free run completes");
    let snap = registry.snapshot();
    for h in &snap.histograms {
        let total: u64 = h.buckets.iter().sum();
        assert_eq!(total, h.count, "{}: bucket mass != count", h.name);
    }
    // The pick span samples the 1st, 17th, 33rd, ... call of the run, and
    // every call counts, failed probes included.
    assert!(policy.picks >= instance.len() as u64, "{} picks", policy.picks);
    let pick = snap.histogram(metric::PICK_NS).expect("pick latency histogram exists");
    assert_eq!(pick.count, policy.picks.div_ceil(SAMPLE_EVERY), "{} pick calls", policy.picks);
    let run = snap.histogram(metric::RUN_NS).expect("run span histogram exists");
    assert_eq!(run.count, 1, "the run span is not sampled");
}

/// The kernel counters and gauges a stream implies for a run that emitted
/// `events[from..]` live: a resumed run's forwarded prefix only moves the
/// trace-event counter, which counts every event the sink received. The
/// depths are tracked over the whole stream, as a restored kernel resumes
/// them. Assumes a two-class HeteroPrio run, where every pick emits a
/// `QueuePop`.
fn implied(events: &[SchedEvent], from: usize) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = [
        metric::EVENTS_TOTAL,
        metric::READY_PUSHES_TOTAL,
        metric::READY_POPS_TOTAL,
        metric::SPOLIATIONS_TOTAL,
        metric::RETRIES_TOTAL,
        metric::TASKS_COMPLETED_TOTAL,
    ]
    .into_iter()
    .map(|name| (name.to_string(), 0))
    .collect();
    out.insert(metric::TRACE_EVENTS_TOTAL.into(), events.len() as u64);
    // Per gauge: the last value set and the peak, as the kernel sets them.
    let mut gauges = [(metric::READY_DEPTH, 0, 0), (metric::EVENT_HEAP_DEPTH, 0, 0)];
    let (mut ready, mut running) = (0u64, 0u64);
    for (i, e) in events.iter().enumerate() {
        let live = i >= from;
        let mut bump = |name: &str| {
            if live {
                *out.get_mut(name).expect("listed above") += 1;
            }
        };
        let mut set = |gauge: usize, value: u64| {
            if live {
                gauges[gauge].1 = value;
                gauges[gauge].2 = gauges[gauge].2.max(value);
            }
        };
        match e {
            SchedEvent::TaskReady { .. } => {
                ready += 1;
                bump(metric::READY_PUSHES_TOTAL);
                set(0, ready);
            }
            SchedEvent::QueuePop { .. } => {
                ready -= 1;
                bump(metric::READY_POPS_TOTAL);
                set(0, ready);
            }
            SchedEvent::TaskStart { .. } => {
                running += 1;
                set(1, running);
            }
            SchedEvent::TaskComplete { .. } => {
                running -= 1;
                bump(metric::EVENTS_TOTAL);
                bump(metric::TASKS_COMPLETED_TOTAL);
            }
            SchedEvent::TaskFailed { .. } => {
                running -= 1;
                bump(metric::EVENTS_TOTAL);
            }
            SchedEvent::Spoliation { .. } => {
                running -= 1;
                bump(metric::SPOLIATIONS_TOTAL);
            }
            SchedEvent::TaskRetry { .. } => bump(metric::RETRIES_TOTAL),
            SchedEvent::WorkerDown { lost_task: Some(_), .. } => running -= 1,
            _ => {}
        }
    }
    for (name, last, peak) in gauges {
        out.insert(name.to_string(), last);
        out.insert(format!("{name}_peak"), peak);
    }
    out
}

/// Every counter and gauge (value and peak) a snapshot holds.
fn published(snap: &MetricsSnapshot) -> BTreeMap<String, u64> {
    snap.counters.iter().chain(&snap.gauges).cloned().collect()
}

/// A faulty two-class run: a CPU goes down for a while, a GPU dies for
/// good, and attempts fail at random, so every counter moves.
fn faulty() -> (Instance, Platform, FaultPlan) {
    let times: Vec<(f64, f64)> =
        (0..24).map(|i| (1.0 + 0.7 * (i % 5) as f64, 0.5 + 0.3 * (i % 7) as f64)).collect();
    let faults = FaultPlan {
        worker_faults: vec![WorkerFault::transient(0, 0.4, 1.2), WorkerFault::permanent(4, 0.9)],
        task_failure_prob: 0.1,
        seed: 5,
        ..FaultPlan::NONE
    };
    (Instance::from_times(&times), Platform::new(3, 2), faults)
}

/// The faulty run to completion, with no registry: its event stream.
fn faulty_reference() -> Vec<SchedEvent> {
    let (instance, platform, faults) = faulty();
    let mut sink = VecSink::new();
    let (mut workload, mut policy) = independent(&instance, &platform, &HeteroPrioConfig::new());
    let spec = Run { faults, ..Run::new(&mut sink, &NullRegistry) };
    kernel::run(&platform, &mut workload, &mut policy, spec).expect("the reference completes");
    let summary = TraceSummary::from_events(platform.workers(), &sink.events);
    assert!(summary.spoliation_count > 0 && summary.retries > 0, "every counter moves");
    sink.events
}

#[test]
fn counters_and_gauges_after_a_crash_equal_what_the_sink_received() {
    let (instance, platform, faults) = faulty();
    let reference = faulty_reference();
    // A crash at the last event of an instant stops the run before any
    // further work, so everything it metered reached the sink.
    let ends = (1..=reference.len())
        .filter(|&n| reference.get(n).is_none_or(|next| next.time() > reference[n - 1].time()));
    let mut crashes = 0;
    for crash_at in ends {
        let registry = InMemoryRegistry::new();
        let mut sink = VecSink::new();
        let (mut workload, mut policy) =
            independent(&instance, &platform, &HeteroPrioConfig::new());
        let spec = Run {
            faults: faults.clone(),
            crash: CrashPlan::at_event(crash_at as u64),
            ..Run::new(&mut sink, &registry)
        };
        let err = kernel::run(&platform, &mut workload, &mut policy, spec).unwrap_err();
        assert!(matches!(err, RunError::Crashed { .. }), "{err:?}");
        assert_eq!(sink.events, reference[..crash_at]);
        assert_eq!(
            published(&registry.snapshot()),
            implied(&sink.events, 0),
            "crash at {crash_at}"
        );
        crashes += 1;
    }
    assert!(crashes > 10, "{crashes} crash points");
}

#[test]
fn counters_and_gauges_after_a_resume_equal_what_the_sink_received() {
    let (instance, platform, faults) = faulty();
    let reference = faulty_reference();
    let config = HeteroPrioConfig::new();
    for crash_at in [reference.len() / 4, reference.len() / 2, reference.len() - 2] {
        let mut journal = MemJournal::new();
        let mut store = MemCheckpointStore::new();
        let _ = journaled(&mut journal, &mut VecSink::new(), |sink| {
            let (mut workload, mut policy) = independent(&instance, &platform, &config);
            let spec = Run {
                faults: faults.clone(),
                crash: CrashPlan::at_event(crash_at as u64),
                checkpoints: Some(Checkpoints { every: 4, store: &mut store }),
                ..Run::new(sink, &NullRegistry)
            };
            kernel::run_checkpointed(&platform, &mut workload, &mut policy, spec)
        })
        .expect("an in-memory journal cannot fail");
        let recovered = journal.replay().expect("an in-memory journal replays");
        let snapshot = store.latest.take().expect("a checkpoint before the crash");
        for snapshot in [None, Some(&snapshot)] {
            let registry = InMemoryRegistry::new();
            let mut sink = VecSink::new();
            let (mut workload, mut policy) = independent(&instance, &platform, &config);
            let resume = Some(Resume { journal: &recovered, snapshot });
            let spec = Run { faults: faults.clone(), resume, ..Run::new(&mut sink, &registry) };
            kernel::run_checkpointed(&platform, &mut workload, &mut policy, spec)
                .expect("the resumed run completes");
            assert_eq!(sink.events, reference);
            let from = snapshot.map_or(0, |s| s.events_seen as usize);
            assert_eq!(
                published(&registry.snapshot()),
                implied(&sink.events, from),
                "resume of a crash at {crash_at} from event {from}"
            );
        }
    }
}

/// A journal whose appends fail from the `fail_at`-th on.
struct FailingJournal {
    inner: MemJournal,
    fail_at: usize,
}

impl Journal for FailingJournal {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        if self.inner.len() + 1 >= self.fail_at {
            return Err(JournalError::Io { op: "append", detail: "disk full".into() });
        }
        self.inner.append(event)
    }
    fn sync(&mut self) -> Result<(), JournalError> {
        self.inner.sync()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        self.inner.replay()
    }
    fn syncs(&self) -> u64 {
        self.inner.syncs()
    }
}

#[test]
fn a_metered_journal_publishes_its_counts_on_every_exit_of_a_journaled_run() {
    let event = |task| SchedEvent::TaskReady { time: 0.0, task };
    // A failed append ends the run without the final sync.
    let registry = InMemoryRegistry::new();
    let mut journal =
        MeteredJournal::new(FailingJournal { inner: MemJournal::new(), fail_at: 8 }, &registry);
    let failed =
        journaled(&mut journal, &mut NullSink, |sink| (0..20).for_each(|t| sink.emit(event(t))));
    assert!(failed.is_err());
    let snap = registry.snapshot();
    assert_eq!(snap.counter(journal_metric::JOURNAL_APPENDS_TOTAL), Some(7));
    assert_eq!(snap.counter(journal_metric::JOURNAL_SYNCS_TOTAL), Some(0));
    assert_eq!(snap.histogram(journal_metric::JOURNAL_APPEND_NS).expect("registered").count, 1);

    // Syncs inside `append` are counted at the next publication, and the
    // wrapper publishes when it hands the journal back.
    let path =
        std::env::temp_dir().join(format!("hp-metrics-unwrap-{}.journal", std::process::id()));
    let registry = InMemoryRegistry::new();
    let file = FileJournal::create(&path).expect("create journal").with_sync(SyncPolicy::EveryN(3));
    let mut journal = MeteredJournal::new(file, &registry);
    let mut bytes = 0;
    for task in 0..10 {
        bytes += journal.append(&event(task)).expect("append");
    }
    assert_eq!(registry.snapshot().counter(journal_metric::JOURNAL_APPENDS_TOTAL), Some(0));
    let file = journal.into_inner();
    let snap = registry.snapshot();
    let _ = std::fs::remove_file(&path);
    assert_eq!(file.syncs(), 3, "the cadence synced inside append");
    assert_eq!(snap.counter(journal_metric::JOURNAL_APPENDS_TOTAL), Some(10));
    assert_eq!(snap.counter(journal_metric::JOURNAL_BYTES_TOTAL), Some(bytes as u64));
    assert_eq!(snap.counter(journal_metric::JOURNAL_SYNCS_TOTAL), Some(3));
    let append_ns = snap.histogram(journal_metric::JOURNAL_APPEND_NS).expect("registered");
    assert_eq!(append_ns.count, 10u64.div_ceil(SAMPLE_EVERY));
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
