//! Observability invariants, end to end: the event stream emitted by the
//! instrumented schedulers must reconcile *exactly* with the finished
//! schedule's own accounting, and the exporters must stay well-formed.
//!
//! The conservation law under test: for every worker,
//! `busy + idle + aborted = makespan`, and per resource class the
//! trace-derived idle time (aborted work counts as idle, per the paper's
//! footnote) equals [`Schedule::idle_time`].

use heteroprio::core::kernel::{self, Resume, Run};
use heteroprio::core::{
    heteroprio as hp, heteroprio_traced, independent, journaled, HeteroPrioConfig, Instance,
    Platform, ResourceKind, Task,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::trace::{
    chrome_trace, json, jsonl, ChromeTraceOptions, DamageKind, FileJournal, Journal, JournalSink,
    SchedEvent, TraceSummary, VecSink,
};
use proptest::prelude::*;

fn task_strategy() -> impl Strategy<Value = Task> {
    (0.1f64..50.0, 0.1f64..50.0).prop_map(|(p, q)| Task::new(p, q))
}

fn instance_strategy(max: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec(task_strategy(), 1..=max).prop_map(Instance::from_tasks)
}

fn platform_strategy() -> impl Strategy<Value = Platform> {
    (1usize..=4, 1usize..=3).prop_map(|(m, n)| Platform::new(m, n))
}

/// Per-class idle from a summary, counting aborted work as idle time so it
/// is comparable with [`Schedule::idle_time`].
fn class_idle(summary: &TraceSummary, platform: &Platform, kind: ResourceKind) -> f64 {
    platform
        .workers_of(kind)
        .map(|w| {
            let s = &summary.workers[w.index()];
            s.idle + s.aborted
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Live tracing: busy + idle + aborted tiles `[0, Cmax]` on every
    // worker, and per-class idle matches the schedule's own metric.
    #[test]
    fn trace_accounting_tiles_the_makespan(
        instance in instance_strategy(20),
        platform in platform_strategy(),
    ) {
        let mut sink = VecSink::new();
        let res = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut sink);
        let makespan = res.makespan();
        let summary = &res.summary;

        for (w, s) in summary.workers.iter().enumerate() {
            prop_assert!(
                (s.busy + s.idle + s.aborted - makespan).abs() < 1e-9,
                "worker {w}: busy {} + idle {} + aborted {} != makespan {makespan}",
                s.busy, s.idle, s.aborted
            );
        }
        for kind in [ResourceKind::Cpu, ResourceKind::Gpu] {
            let traced = class_idle(summary, &platform, kind);
            let sched = res.schedule.idle_time(&platform, kind, makespan);
            prop_assert!(
                (traced - sched).abs() < 1e-6,
                "{kind:?}: trace idle {traced} vs schedule idle {sched}"
            );
        }
    }

    // Replaying the recorded event stream through the aggregator yields
    // the same numbers the scheduler accumulated live.
    #[test]
    fn replayed_events_reproduce_the_live_summary(
        instance in instance_strategy(16),
        platform in platform_strategy(),
    ) {
        let mut sink = VecSink::new();
        let res = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut sink);
        let live = &res.summary;
        let replay = TraceSummary::from_events(platform.workers(), &sink.events);

        prop_assert_eq!(replay.spoliation_count, live.spoliation_count);
        prop_assert_eq!(replay.tasks_completed, instance.len());
        prop_assert_eq!(replay.first_idle, live.first_idle);
        prop_assert_eq!(res.first_idle, live.first_idle);
        prop_assert!((replay.wasted_work - live.wasted_work).abs() < 1e-9);
        for (w, (a, b)) in replay.workers.iter().zip(&live.workers).enumerate() {
            prop_assert!((a.busy - b.busy).abs() < 1e-9, "worker {w} busy");
            prop_assert!((a.idle - b.idle).abs() < 1e-9, "worker {w} idle");
            prop_assert!((a.aborted - b.aborted).abs() < 1e-9, "worker {w} aborted");
            prop_assert_eq!(a.completed, b.completed);
        }
    }

    // `Schedule::to_events` (the post-hoc reconstruction of a schedule
    // made outside the kernel) obeys the same conservation law.
    #[test]
    fn reconstructed_events_reconcile_with_the_schedule(
        instance in instance_strategy(16),
        platform in platform_strategy(),
    ) {
        let res = hp(&instance, &platform, &HeteroPrioConfig::new());
        let makespan = res.makespan();
        let events = res.schedule.to_events(&platform);
        let summary = TraceSummary::from_events(platform.workers(), &events);

        prop_assert_eq!(summary.spoliation_count, res.spoliations);
        prop_assert_eq!(summary.tasks_completed, instance.len());
        for (w, s) in summary.workers.iter().enumerate() {
            prop_assert!(
                (s.busy + s.idle + s.aborted - makespan).abs() < 1e-9,
                "worker {w}: busy {} + idle {} + aborted {} != makespan {makespan}",
                s.busy, s.idle, s.aborted
            );
        }
        for kind in [ResourceKind::Cpu, ResourceKind::Gpu] {
            let busy: f64 = platform
                .workers_of(kind)
                .map(|w| summary.workers[w.index()].busy)
                .sum();
            prop_assert!((busy - res.schedule.busy_time(&platform, kind)).abs() < 1e-6);
            let idle = class_idle(&summary, &platform, kind);
            prop_assert!(
                (idle - res.schedule.idle_time(&platform, kind, makespan)).abs() < 1e-6
            );
        }
    }
}

/// The Figure 1 example instance (two strongly accelerated tasks too many
/// for the single GPU) — spoliation visibly fires on it.
fn fig1_instance() -> Instance {
    Instance::from_times(&[
        (20.0, 1.5),
        (18.0, 1.5),
        (16.0, 2.0),
        (2.0, 6.0),
        (2.5, 6.0),
        (3.0, 3.0),
    ])
}

/// Golden-file shape of the Chrome trace for the Fig. 1 instance: valid
/// JSON with one complete slice per [`TaskRun`], one `"aborted"` slice per
/// aborted run, and one instant marker per spoliation.
#[test]
fn fig1_chrome_trace_matches_the_schedule() {
    let platform = Platform::new(2, 1);
    let mut sink = VecSink::new();
    let res = heteroprio_traced(&fig1_instance(), &platform, &HeteroPrioConfig::new(), &mut sink);
    assert!(res.spoliations > 0, "the Fig. 1 instance must exercise spoliation");

    let opts = ChromeTraceOptions {
        worker_names: vec!["CPU 0".into(), "CPU 1".into(), "GPU 0".into()],
        task_names: Vec::new(),
    };
    let doc = chrome_trace(&sink.events, &opts);
    let v = json::parse(&doc).expect("Chrome trace is valid JSON");
    let events = v.get("traceEvents").expect("traceEvents").as_arr().expect("array");

    let count = |ph: &str, cat: Option<&str>| {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(json::Value::as_str) == Some(ph)
                    && cat.is_none_or(|c| e.get("cat").and_then(json::Value::as_str) == Some(c))
            })
            .count()
    };
    assert_eq!(count("X", Some("task")), res.schedule.runs.len());
    assert_eq!(count("X", Some("aborted")), res.schedule.aborted.len());
    assert_eq!(count("i", Some("spoliation")), res.spoliations);
    // thread_name + thread_sort_index metadata per worker track.
    assert_eq!(count("M", None), 2 * platform.workers());

    // Slice durations, in µs at 1 unit = 1 ms, sum to the schedule's busy time.
    let dur_sum = |cat: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.get("cat").and_then(json::Value::as_str) == Some(cat))
            .filter_map(|e| e.get("dur").and_then(json::Value::as_f64))
            .sum()
    };
    let busy = res.schedule.busy_time(&platform, ResourceKind::Cpu)
        + res.schedule.busy_time(&platform, ResourceKind::Gpu);
    assert!((dur_sum("task") / 1000.0 - busy).abs() < 1e-6);
    let aborted = res.schedule.aborted_time(&platform, ResourceKind::Cpu)
        + res.schedule.aborted_time(&platform, ResourceKind::Gpu);
    assert!((dur_sum("aborted") / 1000.0 - aborted).abs() < 1e-6);
}

/// The JSONL exporter writes one parseable, type-tagged line per event.
#[test]
fn fig1_jsonl_lines_all_parse() {
    let platform = Platform::new(2, 1);
    let mut sink = VecSink::new();
    heteroprio_traced(&fig1_instance(), &platform, &HeteroPrioConfig::new(), &mut sink);

    let text = jsonl(&sink.events);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), sink.events.len());
    for (line, event) in lines.iter().zip(&sink.events) {
        let v = json::parse(line).expect("JSONL line parses");
        assert_eq!(v.get("type").and_then(json::Value::as_str), Some(event.kind()));
    }
    // The queue events only live tracing can provide are present.
    assert!(sink.events.iter().any(|e| matches!(e, SchedEvent::QueuePop { .. })));
    assert!(sink.events.iter().any(|e| matches!(e, SchedEvent::TaskReady { .. })));
}

/// The HPJL2 journal of the Fig. 1 run, byte for byte: new code must
/// frame the same bytes.
const FIG1_JOURNAL: &[u8] = include_bytes!("golden/fig1.hpjl2");

/// The same run's HPJL1 journal, as that format was first written:
/// journals written by older builds must still recover and resume.
const FIG1_JOURNAL_V1: &[u8] = include_bytes!("golden/fig1.hpjl");

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hp-golden-fig1-{}-{tag}.hpjl", std::process::id()))
}

/// The Fig. 1 run's event stream.
fn fig1_events() -> Vec<SchedEvent> {
    let mut sink = VecSink::new();
    heteroprio_traced(&fig1_instance(), &Platform::new(2, 1), &HeteroPrioConfig::new(), &mut sink);
    sink.events
}

#[test]
fn fig1_journal_matches_the_golden_bytes() {
    let platform = Platform::new(2, 1);
    let path = temp_path("out");
    let mut journal = FileJournal::create(&path).expect("create journal");
    let mut events = VecSink::new();
    {
        let mut sink = JournalSink::new(&mut journal);
        let mut both = heteroprio::trace::TeeSink(&mut events, &mut sink);
        heteroprio_traced(&fig1_instance(), &platform, &HeteroPrioConfig::new(), &mut both);
        assert!(sink.error().is_none());
    }
    journal.sync().expect("sync journal");
    drop(journal);
    let written = std::fs::read(&path).expect("read journal back");
    std::fs::remove_file(&path).ok();
    assert!(written == FIG1_JOURNAL, "the Fig. 1 journal's bytes changed");

    // Both golden files recover to the run's event stream, undamaged.
    for (tag, golden) in [("v2", FIG1_JOURNAL), ("v1", FIG1_JOURNAL_V1)] {
        let path = temp_path(tag);
        std::fs::write(&path, golden).expect("write golden copy");
        let (recovered, damage) = FileJournal::recover(&path).expect("recover golden journal");
        std::fs::remove_file(&path).ok();
        assert!(damage.is_none(), "{tag}: {damage:?}");
        assert_eq!(recovered, events.events, "{tag}");
    }
}

/// A torn HPJL1 journal resumes in HPJL1: the continuation appends JSONL
/// frames, so the healed file is the HPJL1 golden again, byte for byte.
#[test]
fn torn_hpjl1_golden_resumes_in_hpjl1() {
    let platform = Platform::new(2, 1);
    let config = HeteroPrioConfig::new();
    let instance = fig1_instance();
    let events = fig1_events();
    let path = temp_path("torn-v1");
    std::fs::write(&path, &FIG1_JOURNAL_V1[..FIG1_JOURNAL_V1.len() / 2]).expect("write torn copy");

    let (mut journal, prefix, damage) = FileJournal::open(&path).expect("open torn journal");
    assert_eq!(damage.expect("the cut lands mid-record").kind, DamageKind::TornWrite);
    assert!(!prefix.is_empty() && prefix.len() < events.len());
    assert_eq!(prefix, events[..prefix.len()]);
    let mut resumed = VecSink::new();
    journaled(&mut journal, &mut resumed, |sink| {
        let (mut workload, mut policy) = independent(&instance, &platform, &config);
        let resume = Some(Resume { journal: &prefix, snapshot: None });
        let spec = Run { resume, ..Run::new(sink, &NullRegistry) };
        kernel::run_checkpointed(&platform, &mut workload, &mut policy, spec)
    })
    .expect("the healed journal accepts the continuation")
    .expect("resume completes");
    drop(journal);
    assert_eq!(resumed.events, events);

    let healed = std::fs::read(&path).expect("read resumed journal");
    let (recovered, damage) = FileJournal::recover(&path).expect("recover resumed journal");
    std::fs::remove_file(&path).ok();
    assert!(damage.is_none(), "{damage:?}");
    assert_eq!(recovered, events);
    assert!(healed == FIG1_JOURNAL_V1, "the resumed HPJL1 journal differs from the golden");
}
