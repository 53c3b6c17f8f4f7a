//! Crash-durability and recovery properties.
//!
//! The contract under test: the journal holds exactly the events emitted
//! before a crash, and replaying that prefix through a fresh engine —
//! with or without a checkpoint shortcut — continues the run to a stream
//! and schedule *bit-identical* to the uninterrupted reference. Both
//! engines (the independent-task scheduler and the DAG simulator) are
//! swept over every crash point, and arbitrary journal damage (bit flips,
//! truncation, trailing garbage) must recover without panics and without
//! silently dropping any record written before the damage.

use heteroprio::core::kernel::{self, Checkpoints, KernelOutcome, Resume, Run};
use heteroprio::core::{
    independent, journaled, CrashPlan, FaultPlan, HeteroPrioConfig, HeteroPrioResult, Instance,
    KernelSnapshot, MemCheckpointStore, Platform, QueueTieBreak, RunError, Task, TaskRun,
    WorkerFault,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::{HeftVariant, HeteroPrioDagPolicy, IndepAlgo, Scheduler};
use heteroprio::simulator::{dag, SimResult, TransferModel};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, TaskGraph, WeightScheme};
use heteroprio::trace::journal::{crc32, frame_len, MAGIC};
use heteroprio::trace::{
    FileJournal, Journal, MemJournal, NullSink, SchedEvent, TraceSink, VecSink,
};
use heteroprio::workloads::ChameleonTiming;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const M: NullRegistry = NullRegistry;

/// Drive the independent engine under `spec`.
fn run_independent<S: TraceSink>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    spec: Run<'_, S>,
) -> Result<KernelOutcome, RunError> {
    let (mut workload, mut policy) = independent(instance, platform, config);
    kernel::run_checkpointed(platform, &mut workload, &mut policy, spec)
}

/// Resume the independent engine from a recovered journal prefix.
fn resume_independent<S: TraceSink>(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    snapshot: Option<&KernelSnapshot>,
    journal: &[SchedEvent],
    sink: &mut S,
) -> Result<KernelOutcome, RunError> {
    let resume = Some(Resume { journal, snapshot });
    run_independent(instance, platform, config, Run { resume, ..Run::new(sink, &M) })
}

/// Uninterrupted independent-task reference under `faults`: full event
/// stream + result.
fn independent_reference(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    faults: &FaultPlan,
) -> (Vec<SchedEvent>, HeteroPrioResult) {
    let mut sink = VecSink::new();
    let (mut workload, mut policy) = independent(instance, platform, config);
    let spec = Run { faults: faults.clone(), ..Run::new(&mut sink, &M) };
    let res = kernel::run(platform, &mut workload, &mut policy, spec).expect("reference completes");
    (sink.events, res.into())
}

/// Crash the independent engine after `crash_at` events, then resume from
/// the journal (and optionally the latest checkpoint) under the same
/// `faults` and require the recovered stream and schedule to match the
/// reference exactly.
fn crash_resume_independent(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    faults: &FaultPlan,
    reference: &(Vec<SchedEvent>, HeteroPrioResult),
    crash_at: u64,
    checkpoint_every: Option<u64>,
) {
    let (ref_events, ref_res) = reference;
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let checkpoints = checkpoint_every.map(|every| Checkpoints { every, store: &mut store });
    let err = journaled(&mut journal, &mut NullSink, |sink| {
        let spec = Run {
            faults: faults.clone(),
            crash: CrashPlan::at_event(crash_at),
            checkpoints,
            ..Run::new(sink, &M)
        };
        run_independent(instance, platform, config, spec)
    })
    .expect("in-memory journal appends and syncs cannot fail")
    .expect_err("the crash plan must abort the run");
    match err {
        RunError::Crashed { events, .. } => assert_eq!(events, crash_at),
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert_eq!(journal.len() as u64, crash_at, "journal must hold exactly the pre-crash events");
    assert_eq!(journal.events(), &ref_events[..crash_at as usize]);

    let tail = journal.replay().expect("MemJournal replay cannot fail");
    let snapshot = store.latest.take();
    if checkpoint_every.is_none() {
        assert!(snapshot.is_none());
    }
    let mut resumed = VecSink::new();
    let resume = Some(Resume { journal: &tail, snapshot: snapshot.as_ref() });
    let spec = Run { faults: faults.clone(), resume, ..Run::new(&mut resumed, &M) };
    let res = run_independent(instance, platform, config, spec).expect("recovery must complete");
    assert_eq!(&resumed.events, ref_events, "recovered stream diverged (crash_at={crash_at})");
    assert_eq!(res.schedule.runs, ref_res.schedule.runs);
    assert_eq!(res.spoliations, ref_res.spoliations);
}

/// Every crash point of a fixed heterogeneous instance, journal-only and
/// checkpointed, recovers to the bit-identical stream and schedule.
#[test]
fn independent_engine_recovers_from_every_crash_point() {
    let times: Vec<(f64, f64)> =
        (0..14).map(|i| (1.0 + 0.7 * (i % 5) as f64, 0.5 + 0.3 * (i % 7) as f64)).collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(3, 2);
    let config = HeteroPrioConfig::new();
    let reference = independent_reference(&instance, &platform, &config, &FaultPlan::NONE);
    let total = reference.0.len() as u64;
    assert!(total > 0);
    for crash_at in 1..=total {
        for checkpoint_every in [None, Some(4)] {
            crash_resume_independent(
                &instance,
                &platform,
                &config,
                &FaultPlan::NONE,
                &reference,
                crash_at,
                checkpoint_every,
            );
        }
    }
}

/// At k = 3 a checkpoint's saved ready order must restore every class
/// pair's FIFO ties, not only pair (0, 1)'s. A tie-heavy instance (a few
/// integer-time shapes, repeated) on one worker per class is swept over
/// every crash point with frequent checkpoints, under both tie rules.
#[test]
fn three_class_engine_recovers_ties_from_every_crash_point() {
    const SHAPES: [[f64; 3]; 4] =
        [[2.0, 2.0, 1.0], [4.0, 2.0, 2.0], [1.0, 2.0, 2.0], [2.0, 1.0, 2.0]];
    let mut instance = Instance::new();
    for i in 0..16 {
        let shape = &SHAPES[(i * 3 + i / 4) % SHAPES.len()];
        instance.push(Task::from_times(shape).with_priority((i % 2) as f64));
    }
    let platform = Platform::from_counts(&[1, 1, 1]);
    for queue_tie in [QueueTieBreak::InsertionOrder, QueueTieBreak::Priority] {
        let config = HeteroPrioConfig { queue_tie, ..HeteroPrioConfig::new() };
        let reference = independent_reference(&instance, &platform, &config, &FaultPlan::NONE);
        let total = reference.0.len() as u64;
        for crash_at in 1..=total {
            for checkpoint_every in [None, Some(2), Some(5)] {
                crash_resume_independent(
                    &instance,
                    &platform,
                    &config,
                    &FaultPlan::NONE,
                    &reference,
                    crash_at,
                    checkpoint_every,
                );
            }
        }
    }
}

/// Every crash point of a faulty independent run, journal-only and
/// checkpointed: a GPU dies for good, a CPU goes down for a while, and
/// attempts fail at random, so lost and retried tasks re-enter a queue that
/// still holds waiting ones. Recovery must reproduce the stream exactly.
#[test]
fn independent_engine_recovers_from_every_crash_point_under_faults() {
    let times: Vec<(f64, f64)> =
        (0..14).map(|i| (1.0 + 0.7 * (i % 5) as f64, 0.5 + 0.3 * (i % 7) as f64)).collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(3, 2);
    let config = HeteroPrioConfig::new();
    let faults = FaultPlan {
        worker_faults: vec![WorkerFault::transient(0, 0.4, 1.2), WorkerFault::permanent(4, 0.9)],
        task_failure_prob: 0.1,
        seed: 5,
        ..FaultPlan::NONE
    };
    let reference = independent_reference(&instance, &platform, &config, &faults);
    let s = &reference.1.summary;
    assert!(s.worker_failures == 2 && s.task_failures > 0, "every fault kind fires");
    let total = reference.0.len() as u64;
    for crash_at in 1..=total {
        for checkpoint_every in [None, Some(3)] {
            crash_resume_independent(
                &instance,
                &platform,
                &config,
                &faults,
                &reference,
                crash_at,
                checkpoint_every,
            );
        }
    }
}

/// Drive HeteroPrio over a ranked Cholesky DAG under `plan` and `spec`.
fn run_dag<S: TraceSink>(
    graph: &TaskGraph,
    platform: &Platform,
    plan: &FaultPlan,
    spec: Run<'_, S>,
) -> Result<SimResult, RunError> {
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let (mut workload, mut policy) = dag(graph, platform, &mut policy, &TransferModel::NONE);
    let spec = Run { faults: plan.clone(), ..spec };
    Ok(kernel::run_checkpointed(platform, &mut workload, &mut policy, spec)?.into())
}

fn ranked_cholesky(n: usize) -> TaskGraph {
    let mut graph = cholesky(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    graph
}

/// Uninterrupted DAG reference under a fault plan (stresses the RNG state
/// carried by snapshots): full stream + schedule.
fn dag_reference(
    n: usize,
    platform: &Platform,
    plan: &FaultPlan,
) -> (Vec<SchedEvent>, Vec<TaskRun>) {
    let mut sink = VecSink::new();
    let res = run_dag(&ranked_cholesky(n), platform, plan, Run::new(&mut sink, &M))
        .expect("reference run must complete");
    (sink.events, res.schedule.runs)
}

/// Crash the DAG simulator after `crash_at` events and recover; the fault
/// plan's RNG, the jittered event instants, and the policy's arbitration
/// must all survive the round trip.
fn crash_resume_dag(
    n: usize,
    platform: &Platform,
    plan: &FaultPlan,
    reference: &(Vec<SchedEvent>, Vec<TaskRun>),
    crash_at: u64,
    checkpoint_every: Option<u64>,
) {
    let (ref_events, ref_runs) = reference;
    let graph = ranked_cholesky(n);
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let checkpoints = checkpoint_every.map(|every| Checkpoints { every, store: &mut store });
    let err = journaled(&mut journal, &mut NullSink, |sink| {
        let spec = Run { crash: CrashPlan::at_event(crash_at), checkpoints, ..Run::new(sink, &M) };
        run_dag(&graph, platform, plan, spec)
    })
    .expect("in-memory journal appends and syncs cannot fail")
    .expect_err("the crash plan must abort the run");
    match err {
        RunError::Crashed { events, .. } => assert_eq!(events, crash_at),
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert_eq!(journal.events(), &ref_events[..crash_at as usize]);

    let tail = journal.replay().expect("MemJournal replay cannot fail");
    let snapshot = store.latest.take();
    let mut resumed = VecSink::new();
    let resume = Some(Resume { journal: &tail, snapshot: snapshot.as_ref() });
    let res = run_dag(&graph, platform, plan, Run { resume, ..Run::new(&mut resumed, &M) })
        .expect("recovery must complete");
    assert_eq!(&resumed.events, ref_events, "recovered stream diverged (crash_at={crash_at})");
    assert_eq!(&res.schedule.runs, ref_runs);
}

/// Every crash point of a faulty Cholesky run — jitter and task failures
/// active, so recovery must reproduce the RNG draws exactly.
#[test]
fn dag_engine_recovers_from_every_crash_point_under_faults() {
    let platform = Platform::new(2, 1);
    let plan = FaultPlan { task_failure_prob: 0.12, exec_jitter: 0.2, seed: 7, ..FaultPlan::NONE };
    let reference = dag_reference(4, &platform, &plan);
    let total = reference.0.len() as u64;
    assert!(total > 20, "want a non-trivial stream, got {total}");
    for crash_at in 1..=total {
        let checkpoint_every = match crash_at % 3 {
            0 => None,
            1 => Some(5),
            _ => Some(1),
        };
        crash_resume_dag(4, &platform, &plan, &reference, crash_at, checkpoint_every);
    }
}

/// Crash a plan-driven run (`run` builds a fresh scheduler and hands it
/// the spec) after every event and resume it from the journal alone and
/// from the latest checkpoint: each recovered stream and schedule must be
/// bit-identical to the uninterrupted run's.
fn plan_run_recovers_from_every_crash_point(
    run: impl Fn(Run<'_, &mut dyn TraceSink>) -> Result<KernelOutcome, RunError>,
) {
    let mut reference = VecSink::new();
    let ref_runs = {
        let mut sink: &mut dyn TraceSink = &mut reference;
        run(Run::new(&mut sink, &M)).expect("reference completes").schedule.runs
    };
    let total = reference.events.len() as u64;
    assert!(total > 20, "want a non-trivial stream, got {total}");
    let mut from_snapshot = 0;
    for crash_at in 1..=total {
        for checkpoint_every in [None, Some(3)] {
            let mut journal = MemJournal::new();
            let mut store = MemCheckpointStore::new();
            let checkpoints =
                checkpoint_every.map(|every| Checkpoints { every, store: &mut store });
            let err = journaled(&mut journal, &mut NullSink, |tee| {
                let mut sink: &mut dyn TraceSink = tee;
                let crash = CrashPlan::at_event(crash_at);
                run(Run { crash, checkpoints, ..Run::new(&mut sink, &M) })
            })
            .expect("in-memory journal appends and syncs cannot fail")
            .expect_err("the crash plan must abort the run");
            assert!(matches!(err, RunError::Crashed { events, .. } if events == crash_at));
            assert_eq!(journal.events(), &reference.events[..crash_at as usize]);
            let tail = journal.replay().expect("MemJournal replay cannot fail");
            let snapshot = store.latest.take();
            assert!(snapshot.is_none() || checkpoint_every.is_some());
            from_snapshot += u64::from(snapshot.is_some());
            let mut resumed = VecSink::new();
            let res = {
                let mut sink: &mut dyn TraceSink = &mut resumed;
                let resume = Some(Resume { journal: &tail, snapshot: snapshot.as_ref() });
                run(Run { resume, ..Run::new(&mut sink, &M) }).expect("recovery must complete")
            };
            assert_eq!(resumed.events, reference.events, "stream diverged (crash_at={crash_at})");
            assert_eq!(res.schedule.runs, ref_runs);
        }
    }
    assert!(from_snapshot > total / 2, "{from_snapshot} of {total} resumes used a snapshot");
}

/// HEFT's plan over a Cholesky DAG, swept over every crash point.
#[test]
fn heft_plan_recovers_from_every_crash_point() {
    let scheduler = Scheduler::Heft(WeightScheme::Avg, HeftVariant::Insertion);
    let mut graph = cholesky(4, &ChameleonTiming);
    scheduler.rank(&mut graph);
    let platform = Platform::new(2, 1);
    plan_run_recovers_from_every_crash_point(|spec| {
        scheduler.run(&graph, &platform, &TransferModel::NONE, spec)
    });
}

/// MinMin's plan over an independent instance, swept over every crash point.
#[test]
fn minmin_plan_recovers_from_every_crash_point() {
    let times: Vec<(f64, f64)> =
        (0..14).map(|i| (1.0 + 0.7 * (i % 5) as f64, 0.5 + 0.3 * (i % 7) as f64)).collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(3, 2);
    plan_run_recovers_from_every_crash_point(|spec| {
        IndepAlgo::MinMin.run(&instance, &platform, HeftVariant::Insertion, spec)
    });
}

/// A journal from a *different* run must be rejected, not replayed into a
/// silently wrong schedule.
#[test]
fn resume_rejects_a_foreign_journal() {
    // `b` differs in the CPU time of the CPU-affine task, so the recorded
    // finish instants cannot be reproduced by replaying `b`.
    let a = Instance::from_times(&[(2.0, 1.0), (3.0, 1.5), (1.0, 4.0)]);
    let b = Instance::from_times(&[(2.0, 1.0), (3.0, 1.5), (2.0, 4.0)]);
    let platform = Platform::new(2, 1);
    let config = HeteroPrioConfig::new();
    let (events_a, _) = independent_reference(&a, &platform, &config, &FaultPlan::NONE);
    let mut sink = VecSink::new();
    let err = resume_independent(&b, &platform, &config, None, &events_a, &mut sink)
        .expect_err("a journal recorded from another instance must not verify");
    let msg = format!("{err}");
    assert!(
        msg.contains("diverge") || msg.contains("journal") || msg.contains("replay"),
        "unhelpful recovery error: {msg}"
    );
}

/// A checkpoint whose pending events disagree with its running workers
/// must be refused. Resuming one would dispatch a completion the run never
/// scheduled and return `Ok` with a schedule that does not validate.
#[test]
fn resume_rejects_pending_events_that_disagree_with_running_workers() {
    let times: Vec<(f64, f64)> =
        (0..12).map(|i| (2.0 + (i % 4) as f64, 1.0 + 0.5 * (i % 3) as f64)).collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(2, 1);
    let config = HeteroPrioConfig::new();
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let checkpoints = Some(Checkpoints { every: 1, store: &mut store });
    let crashed = journaled(&mut journal, &mut NullSink, |sink| {
        let spec = Run { crash: CrashPlan::at_event(40), checkpoints, ..Run::new(sink, &M) };
        run_independent(&instance, &platform, &config, spec)
    })
    .expect("in-memory journal appends and syncs cannot fail");
    assert!(crashed.is_err(), "the crash plan must abort the run");
    let tail = journal.replay().expect("MemJournal replay cannot fail");
    let snap = store.latest.take().expect("a checkpoint was taken");
    let (t, w, g) = snap.heap[0];

    let mut tampered = Vec::new();
    let mut s = snap.clone();
    s.heap.push((t + 0.5, w, g));
    tampered.push(("a second live entry for one worker", s));
    let mut s = snap.clone();
    s.running[w as usize] = None;
    tampered.push(("a live entry for an idle worker", s));
    let mut s = snap.clone();
    s.heap.remove(0);
    tampered.push(("a running worker without a live entry", s));
    let mut s = snap.clone();
    s.heap[0].2 += 1;
    tampered.push(("an entry at a stale generation", s));
    assert!(snap.now > 0.0);
    for bad in [-1.0, f64::NAN, f64::INFINITY, 0.5 * snap.now] {
        let mut s = snap.clone();
        s.heap[0].0 = bad;
        tampered.push(("a negative, non-finite or past instant", s));
    }
    for (what, s) in &tampered {
        assert!(s.validate().is_err(), "validate accepted {what}");
        let mut sink = VecSink::new();
        match resume_independent(&instance, &platform, &config, Some(s), &tail, &mut sink) {
            Err(RunError::BadSnapshot(_)) => {}
            other => panic!("resume with {what} returned {other:?}"),
        }
    }

    // The untampered checkpoint still resumes to the reference stream.
    let (reference, _) = independent_reference(&instance, &platform, &config, &FaultPlan::NONE);
    let mut sink = VecSink::new();
    resume_independent(&instance, &platform, &config, Some(&snap), &tail, &mut sink)
        .expect("the genuine checkpoint resumes");
    assert_eq!(sink.events, reference);
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_journal_path() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hp-recovery-{}-{n}.journal", std::process::id()))
}

/// Frame byte offsets: `ends[i]` is the file offset one past record `i`.
fn frame_ends(events: &[SchedEvent]) -> Vec<u64> {
    let mut at = MAGIC.len() as u64;
    events
        .iter()
        .map(|e| {
            at += frame_len(e) as u64;
            at
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Random instances, random crash points, journal-only and checkpointed:
    // recovery is always bit-identical to the uninterrupted run.
    #[test]
    fn any_crash_point_recovers_bit_identically(
        times in prop::collection::vec((0.5f64..8.0, 0.5f64..8.0), 1..24),
        cpus in 1usize..4,
        gpus in 1usize..3,
        crash_frac in 0.0f64..1.0,
        ckpt_raw in 0u64..8,
    ) {
        let ckpt = (ckpt_raw > 0).then_some(ckpt_raw);
        let instance = Instance::from_times(&times);
        let platform = Platform::new(cpus, gpus);
        let config = HeteroPrioConfig::new();
        let reference = independent_reference(&instance, &platform, &config, &FaultPlan::NONE);
        let total = reference.0.len() as u64;
        prop_assert!(total > 0, "a non-empty instance must emit events");
        // lint: allow(cast-trunc): picking a crash index is intentional truncation.
        let crash_at = 1 + ((crash_frac * (total - 1) as f64) as u64).min(total - 1);
        let none = FaultPlan::NONE;
        crash_resume_independent(&instance, &platform, &config, &none, &reference, crash_at, ckpt);
    }

    // Random fault plans on the DAG engine: the snapshot's RNG state and
    // jittered event instants survive crash/recovery at a random point.
    #[test]
    fn dag_crash_recovery_survives_random_fault_plans(
        prob in 0.0f64..0.25,
        jitter in 0.0f64..0.3,
        seed in 0u64..500,
        crash_frac in 0.0f64..1.0,
        ckpt_raw in 0u64..10,
    ) {
        let ckpt = (ckpt_raw > 0).then_some(ckpt_raw);
        let platform = Platform::new(2, 1);
        let plan = FaultPlan { task_failure_prob: prob, exec_jitter: jitter, seed, ..FaultPlan::NONE };
        let reference = dag_reference(3, &platform, &plan);
        let total = reference.0.len() as u64;
        prop_assert!(total > 0, "cholesky(3) must emit events");
        // lint: allow(cast-trunc): picking a crash index is intentional truncation.
        let crash_at = 1 + ((crash_frac * (total - 1) as f64) as u64).min(total - 1);
        crash_resume_dag(3, &platform, &plan, &reference, crash_at, ckpt);
    }

    // Arbitrary single-byte corruption, truncation, or trailing garbage on
    // a file journal: recovery never panics, never invents events, and
    // never drops a record that lies wholly before the damage.
    #[test]
    fn journal_damage_recovers_the_valid_prefix_without_panicking(
        times in prop::collection::vec((0.5f64..6.0, 0.5f64..6.0), 2..16),
        mode in 0u8..3,
        where_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let instance = Instance::from_times(&times);
        let platform = Platform::new(2, 1);
        let config = HeteroPrioConfig::new();
        let (ref_events, ref_res) = independent_reference(&instance, &platform, &config, &FaultPlan::NONE);

        let path = temp_journal_path();
        {
            let mut journal = FileJournal::create(&path).expect("create journal");
            for e in &ref_events {
                journal.append(e).expect("append");
            }
            journal.sync().expect("sync");
        }
        let ends = frame_ends(&ref_events);
        let file_len = *ends.last().expect("at least one record");

        // Damage the file: 0 = flip one bit, 1 = truncate, 2 = append garbage.
        let mut bytes = std::fs::read(&path).expect("read journal back");
        prop_assert_eq!(bytes.len() as u64, file_len);
        // lint: allow(cast-trunc): picking a damage offset is intentional truncation.
        let offset = ((where_frac * (file_len - 1) as f64) as u64).min(file_len - 1);
        let damage_from = match mode {
            0 => {
                bytes[offset as usize] ^= 1 << flip_bit;
                offset
            }
            1 => {
                bytes.truncate(offset as usize);
                offset
            }
            _ => {
                bytes.extend_from_slice(b"\xde\xad\xbe\xef");
                file_len
            }
        };
        std::fs::write(&path, &bytes).expect("write damaged journal");

        // Recovery must not panic, whatever we did to the file. A hit on
        // the magic header itself may surface as a typed error; anything
        // past it must decode to the valid prefix.
        let recovered = FileJournal::recover(&path);
        if damage_from >= 6 {
            let (events, damage) =
                recovered.expect("body damage is recovered, not an error");

            // Never invents events: the result is a prefix of the truth.
            prop_assert!(events.len() <= ref_events.len());
            prop_assert_eq!(
                &events[..],
                &ref_events[..events.len()],
                "recovered events must be a prefix"
            );

            // Never drops a record that ends at or before the damage offset.
            let intact = ends.iter().filter(|&&end| end <= damage_from).count();
            prop_assert!(
                events.len() >= intact,
                "lost {} pre-damage records (recovered {}, intact {})",
                intact - events.len(),
                events.len(),
                intact
            );
            if events.len() < ref_events.len() {
                prop_assert!(damage.is_some(), "silent prefix loss without a damage report");
            }

            // `open` must agree with `recover`, truncate the wreckage, and
            // leave a journal that resumes to the bit-identical run.
            let (mut journal, opened, _) = FileJournal::open(&path).expect("open damaged journal");
            prop_assert_eq!(&opened[..], &events[..]);
            let mut resumed = VecSink::new();
            let res = journaled(&mut journal, &mut resumed, |sink| {
                resume_independent(&instance, &platform, &config, None, &opened, sink)
            })
            .expect("the healed journal accepts the continuation")
            .expect("resume from the recovered prefix must complete");
            prop_assert_eq!(&resumed.events, &ref_events);
            prop_assert_eq!(&res.schedule.runs, &ref_res.schedule.runs);
            // After resume the journal holds the complete, clean stream.
            drop(journal);
            let (healed, damage) = FileJournal::recover(&path).expect("healed journal decodes");
            prop_assert!(damage.is_none());
            prop_assert_eq!(&healed, &ref_events);
        }
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary bytes after an HPJL2 magic, both as CRC-valid frames (so
    // the binary decoder itself sees them) and as a raw tail: recovery
    // never panics, and keeps exactly the frames before the first bad one.
    #[test]
    fn arbitrary_bytes_after_the_hpjl2_magic_never_panic_recovery(
        frames in prop::collection::vec(
            (0u8..=1, 0u8..14, prop::collection::vec(0u8..=255, 0..30)),
            0..8,
        ),
        tail in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut file = MAGIC.to_vec();
        let mut payloads = Vec::new();
        for (tagged, tag, bytes) in frames {
            let payload = if tagged == 1 { [&[tag][..], &bytes].concat() } else { bytes };
            file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            file.extend_from_slice(&crc32(&payload).to_le_bytes());
            file.extend_from_slice(&payload);
            payloads.push(payload);
        }
        file.extend_from_slice(&tail);
        let path = temp_journal_path();
        std::fs::write(&path, &file).expect("write journal");
        let (events, damage) = FileJournal::recover(&path).expect("the magic is valid");
        prop_assert!(events.len() <= payloads.len());
        for (event, payload) in events.iter().zip(&payloads) {
            let mut bytes = Vec::new();
            heteroprio::trace::journal::encode_record(event, &mut bytes);
            prop_assert_eq!(&bytes, payload, "a recovered event must be its frame's payload");
        }
        if damage.is_none() {
            prop_assert_eq!(events.len(), payloads.len());
            prop_assert!(tail.is_empty());
        }
        let (_, opened, _) = FileJournal::open(&path).expect("open heals the damage");
        prop_assert_eq!(opened.len(), events.len());
        let _ = std::fs::remove_file(&path);
    }
}
