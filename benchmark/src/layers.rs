//! The traced run: the engine call with timing adapters around every layer
//! reachable from outside the program, replays of the recorded event
//! stream through the layers' public functions, and the ledger that puts
//! them together.

use crate::adapters::{Clock, Tally, TimedPolicy, TimedSink};
use crate::ledger::{Ledger, Row, Source};
use crate::report::median;
use crate::workload::{config, run_observed, Inputs, Outcome};
use heteroprio_audit::{AuditOptions, StreamAuditor};
use heteroprio_core::{
    heteroprio_online_traced, heteroprio_traced, sorted_queue, AffinityQueue, ClassQueue, Instance,
    MeteredJournal, Platform, TaskId, WorkerId,
};
use heteroprio_metrics::InMemoryRegistry;
use heteroprio_schedulers::HeteroPrioDagPolicy;
use heteroprio_simulator::{simulate_traced, TransferModel};
use heteroprio_taskgraph::{ReadyTracker, TaskGraph};
use heteroprio_trace::{
    event_line, journal::crc32, FileJournal, Journal, SchedEvent, TraceSink, TraceSummary, VecSink,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Events the encoder replay samples at most, evenly spread over the run.
const ENCODE_SAMPLE: usize = 100_000;

/// Repetitions of the cheap replays (the median is kept).
const REPLAY_REPS: usize = 3;

/// One traced engine call.
pub struct TracedSample {
    pub wall_ns: f64,
    /// Time of the adapters' top-level calls: the engine's timed children.
    pub children_ns: f64,
    /// In-situ metrics of this call, by name. Names starting with `_` are
    /// ledger inputs, not reported metrics.
    pub values: BTreeMap<&'static str, f64>,
    /// The recorded event stream.
    pub events: Vec<SchedEvent>,
    pub outcome: Outcome,
    pub problems: Vec<String>,
}

type Values = BTreeMap<&'static str, f64>;

fn get(values: &Values, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

fn put_tally(values: &mut Values, ns: &'static str, calls: &'static str, t: &Tally) {
    values.insert(ns, t.mean_ns());
    values.insert(calls, t.calls() as f64);
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// A traced call of `cholesky_x1000`, `dag_cholesky` or `k3_online`: the
/// run's `NullSink` becomes a timed `VecSink` recorder (pre-sized to the
/// untraced run's event count), and the DAG policy gets a timing wrapper.
pub fn traced_plain(inputs: &Inputs, expected_events: usize) -> TracedSample {
    let clock = Clock::default();
    let recorder = VecSink { events: Vec::with_capacity(expected_events) };
    let mut sink = TimedSink::new(recorder, &clock);
    let cfg = config();
    let mut values = Values::new();
    let start = Instant::now();
    let (outcome, policy) = match inputs {
        Inputs::Independent { instance, platform } => {
            (heteroprio_traced(instance, platform, &cfg, &mut sink).into(), None)
        }
        Inputs::Online { instance, releases, platform } => {
            (heteroprio_online_traced(instance, releases, platform, &cfg, &mut sink).into(), None)
        }
        Inputs::Dag { graph, platform } => {
            let mut policy = TimedPolicy::new(HeteroPrioDagPolicy::new(cfg), &clock);
            let result =
                simulate_traced(graph, platform, &mut policy, &TransferModel::NONE, &mut sink);
            (Outcome::from(result), Some(policy))
        }
    };
    let wall_ns = ns_since(start);
    if let Some(p) = policy {
        put_tally(&mut values, "schedulers.on_ready_ns", "_on_ready_calls", &p.on_ready);
        put_tally(&mut values, "schedulers.pick_ns", "schedulers.picks", &p.picks);
        put_tally(&mut values, "schedulers.victim_ns", "schedulers.victim_scans", &p.victims);
        let scans = p.victims.calls().max(1) as f64;
        values.insert("schedulers.victim_hit_ratio", p.victim_hits as f64 / scans);
    }
    put_tally(&mut values, "trace.emit_ns", "trace.events", &sink.emits);
    TracedSample {
        wall_ns,
        children_ns: clock.top_ns() as f64,
        values,
        events: sink.inner.events,
        outcome,
        problems: Vec::new(),
    }
}

/// A traced call of `observed`: the untraced call's stack, timed by a
/// `Clock`. The recorded stream is the journal itself, recovered afterwards.
pub fn traced_observed(instance: &Instance, platform: &Platform, path: &Path) -> TracedSample {
    let clock = Clock::default();
    let run = run_observed(instance, platform, path, &clock);
    let mut values = Values::new();
    put_tally(&mut values, "trace.emit_ns", "trace.events", &run.emits);
    put_tally(&mut values, "audit.event_ns", "_audit_events", &run.audit_emits);
    values.insert("audit.finish_s", run.finish.ns as f64 / 1e9);
    values.insert("audit.checks", run.audit_checks as f64);
    let j = &run.journal;
    values.insert("journal.append_ns", j.buffered.mean_ns());
    values.insert("journal.appends", (j.buffered.calls() + j.committed.calls()) as f64);
    let sync_calls = j.committed.calls() + j.synced.calls();
    let sync_ns = j.committed.ns() + j.synced.ns();
    values.insert("journal.sync_ns", sync_ns as f64 / sync_calls.max(1) as f64);
    values.insert("journal.syncs", run.journal_syncs as f64);
    values.insert("journal.bytes", j.bytes as f64);
    // The tee's own time: the sink's emits less the auditor and journal
    // calls nested in them.
    let appends_ns = (j.buffered.ns() + j.committed.ns()) as f64;
    values.insert("_tee_self_ns", run.emits.ns() as f64 - run.audit_emits.ns() as f64 - appends_ns);
    values.insert("_finish_ns", run.finish.ns as f64);
    put_tally(&mut values, "metrics.record_ns", "metrics.records", &run.records);
    values.insert("_metrics_top_ns", run.records.top_ns() as f64);
    TracedSample {
        wall_ns: run.wall_s * 1e9,
        children_ns: clock.top_ns() as f64,
        values,
        events: run.events,
        outcome: run.outcome,
        problems: run.problems,
    }
}

/// Median of each named value over the samples.
pub fn median_values(samples: &[TracedSample]) -> Values {
    let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (&k, &v) in &s.values {
            all.entry(k).or_default().push(v);
        }
    }
    all.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Run `f` `REPLAY_REPS` times and keep the median of its nanoseconds.
fn median_reps(mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPLAY_REPS).map(|_| f()).collect();
    median(&runs)
}

/// Cost of one empty timed block, subtracted from every timed block of
/// the queue replay.
fn clock_overhead_ns() -> f64 {
    let spans: Vec<f64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            black_box(());
            ns_since(start)
        })
        .collect();
    median(&spans)
}

/// Re-emit the recorded stream into a fresh recorder: the isolated cost of
/// the traced run's `VecSink`, ns per event.
pub fn replay_emit(events: &[SchedEvent]) -> f64 {
    let n = events.len().max(1) as f64;
    median_reps(|| {
        let mut sink = VecSink { events: Vec::with_capacity(events.len()) };
        let start = Instant::now();
        for &e in events {
            sink.emit(e);
        }
        black_box(&sink);
        ns_since(start)
    }) / n
}

/// `sorted_queue` over the workload's ids, total ns.
pub fn replay_sort(instance: &Instance) -> f64 {
    let ids: Vec<TaskId> = instance.ids().collect();
    median_reps(|| {
        let start = Instant::now();
        let queue = sorted_queue(instance, &ids, config().queue_tie);
        black_box(queue.len());
        ns_since(start)
    })
}

/// `ReadyTracker::complete_into` over the run's completion order.
pub struct ReleaseReplay {
    pub completions: usize,
    pub total_ns: f64,
    pub problem: Option<String>,
}

pub fn replay_release(graph: &TaskGraph, events: &[SchedEvent]) -> ReleaseReplay {
    let order: Vec<TaskId> = events
        .iter()
        .filter_map(|e| match *e {
            SchedEvent::TaskComplete { task, .. } => Some(TaskId(task)),
            _ => None,
        })
        .collect();
    let non_sources = graph.len() - graph.sources().len();
    let mut problem = None;
    let total_ns = median_reps(|| {
        let mut tracker = ReadyTracker::new(graph);
        let mut released = Vec::with_capacity(graph.len());
        let start = Instant::now();
        for &t in &order {
            tracker.complete_into(graph, t, &mut released);
        }
        let ns = ns_since(start);
        if released.len() != non_sources || !tracker.is_done() {
            problem = Some(format!(
                "release replay freed {} of {non_sources} non-source tasks",
                released.len()
            ));
        }
        ns
    });
    ReleaseReplay { completions: order.len(), total_ns, problem }
}

#[derive(Clone, Copy)]
enum Op {
    Push(TaskId),
    Pop(WorkerId, TaskId),
}

impl Op {
    fn is_push(&self) -> bool {
        matches!(self, Op::Push(_))
    }
}

/// The ready queue's pushes and pops, read off the stream: a ready event
/// is a push, the start of a task that was ready is a pop by that worker
/// (a spoliation restarts a running task without touching the queue).
fn queue_ops(events: &[SchedEvent], tasks: usize) -> Vec<Op> {
    let mut ready = vec![false; tasks];
    let mut ops = Vec::new();
    for e in events {
        match *e {
            SchedEvent::TaskReady { task, .. } => {
                if let Some(r) = ready.get_mut(task as usize) {
                    *r = true;
                }
                ops.push(Op::Push(TaskId(task)));
            }
            SchedEvent::TaskStart { task, worker, .. } => {
                if let Some(r) = ready.get_mut(task as usize).filter(|r| **r) {
                    *r = false;
                    ops.push(Op::Pop(WorkerId(worker), TaskId(task)));
                }
            }
            _ => {}
        }
    }
    ops
}

/// The two public ready queues the replay drives.
enum ReadyQueue {
    Pair(AffinityQueue),
    Classes(ClassQueue),
}

impl ReadyQueue {
    /// The queue `inputs`' engine keeps, or `None` where the engine sorts
    /// once instead (`heteroprio()` on two classes).
    fn of(inputs: &Inputs) -> Option<ReadyQueue> {
        match inputs {
            Inputs::Dag { .. } => Some(ReadyQueue::Pair(AffinityQueue::new(config().queue_tie))),
            Inputs::Online { platform, .. } => {
                Some(ReadyQueue::Classes(ClassQueue::new(platform.k(), config().queue_tie)))
            }
            Inputs::Independent { .. } => None,
        }
    }

    fn push(&mut self, instance: &Instance, task: TaskId) {
        match self {
            ReadyQueue::Pair(q) => q.push(instance, task),
            ReadyQueue::Classes(q) => q.push(instance, task),
        }
    }

    fn pop(&mut self, platform: &Platform, worker: WorkerId) -> Option<TaskId> {
        match self {
            ReadyQueue::Pair(q) => q.pop(platform.kind_of(worker)),
            ReadyQueue::Classes(q) => q.pop(platform.class_of(worker)).map(|(t, _)| t),
        }
    }
}

/// The traced run's push/pop sequence replayed through the public queue.
pub struct QueueReplay {
    pub pushes: usize,
    pub pops: usize,
    pub push_ns: f64,
    pub pop_ns: f64,
    pub problem: Option<String>,
}

impl QueueReplay {
    pub fn total_ns(&self) -> f64 {
        self.pushes as f64 * self.push_ns + self.pops as f64 * self.pop_ns
    }
}

/// Replay through `AffinityQueue` (`dag_cholesky`) or the k=3
/// `ClassQueue` (`k3_online`). Runs of consecutive pushes or pops are
/// timed as blocks, less the cost of an empty block; every pop must return
/// the task the run started.
pub fn replay_queue(inputs: &Inputs, events: &[SchedEvent]) -> Option<QueueReplay> {
    ReadyQueue::of(inputs)?;
    let (instance, platform) = (inputs.instance(), inputs.platform());
    let ops = queue_ops(events, instance.len());
    let pushes = ops.iter().filter(|op| op.is_push()).count();
    let pops = ops.len() - pushes;
    let overhead = clock_overhead_ns();
    let mut problem = None;
    let mut push_runs = Vec::new();
    let mut pop_runs = Vec::new();
    for _ in 0..REPLAY_REPS {
        let mut queue = ReadyQueue::of(inputs)?;
        let (mut push_ns, mut pop_ns) = (0.0, 0.0);
        for block in ops.chunk_by(|a, b| a.is_push() == b.is_push()) {
            let start = Instant::now();
            for op in block {
                match *op {
                    Op::Push(t) => queue.push(instance, t),
                    Op::Pop(w, want) => {
                        let got = queue.pop(platform, w);
                        if got != Some(want) && problem.is_none() {
                            problem = Some(format!(
                                "queue replay popped {got:?}, the run started {want}"
                            ));
                        }
                    }
                }
            }
            let ns = ns_since(start) - overhead;
            if block.first().is_some_and(Op::is_push) {
                push_ns += ns;
            } else {
                pop_ns += ns;
            }
        }
        push_runs.push(push_ns.max(0.0) / pushes.max(1) as f64);
        pop_runs.push(pop_ns.max(0.0) / pops.max(1) as f64);
    }
    Some(QueueReplay {
        pushes,
        pops,
        push_ns: median(&push_runs),
        pop_ns: median(&pop_runs),
        problem,
    })
}

/// `event_line` over an even sample of the stream, and `crc32` over the
/// encoded bytes.
pub struct EncodeReplay {
    pub encode_ns: f64,
    pub bytes_per_event: f64,
    pub crc_ns_per_kib: f64,
}

pub fn replay_encode(events: &[SchedEvent]) -> EncodeReplay {
    let stride = events.len().div_ceil(ENCODE_SAMPLE).max(1);
    let sample: Vec<SchedEvent> = events.iter().step_by(stride).copied().collect();
    let n = sample.len().max(1) as f64;
    let encode_ns = median_reps(|| {
        let start = Instant::now();
        for e in &sample {
            black_box(event_line(e));
        }
        ns_since(start)
    }) / n;
    let bytes: Vec<u8> = sample.iter().flat_map(|e| event_line(e).into_bytes()).collect();
    let kib = (bytes.len() as f64 / 1024.0).max(f64::MIN_POSITIVE);
    let crc_ns = median_reps(|| {
        let start = Instant::now();
        black_box(crc32(black_box(&bytes)));
        ns_since(start)
    });
    EncodeReplay {
        encode_ns,
        bytes_per_event: bytes.len() as f64 / n,
        crc_ns_per_kib: crc_ns / kib,
    }
}

/// The recorded stream fed to a fresh `StreamAuditor`, ns per event. One
/// repetition: the auditor's cost grows with the square of the run.
pub fn replay_audit(instance: &Instance, platform: &Platform, events: &[SchedEvent]) -> f64 {
    let mut auditor = StreamAuditor::new(instance, platform, AuditOptions::independent());
    let start = Instant::now();
    for &e in events {
        auditor.emit(e);
    }
    black_box(auditor.events_seen());
    ns_since(start) / events.len().max(1) as f64
}

/// The recorded stream appended to a fresh `MeteredJournal`-wrapped
/// `FileJournal`, then synced: ns per append, group commits included.
pub fn replay_journal(events: &[SchedEvent], path: &Path) -> Result<f64, String> {
    let registry = InMemoryRegistry::new();
    let file = FileJournal::create(path).map_err(|e| e.to_string())?;
    let mut journal = MeteredJournal::new(file, &registry);
    let start = Instant::now();
    let appended =
        events.iter().try_for_each(|e| journal.append(e).map(drop)).and_then(|()| journal.sync());
    let ns = ns_since(start);
    drop(journal);
    let _ = std::fs::remove_file(path);
    appended.map(|()| ns / events.len().max(1) as f64).map_err(|e| e.to_string())
}

/// Exact counts read off the recorded stream.
pub struct StreamCounts {
    pub events: usize,
    pub spoliations: usize,
    pub completions: usize,
    pub peak_ready_depth: usize,
    /// Distinct instants at which tasks became ready.
    pub ready_batches: usize,
}

pub fn stream_counts(events: &[SchedEvent], workers: usize) -> StreamCounts {
    let count = |f: fn(&SchedEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let mut ready_batches = 0;
    let mut last_ready: Option<u64> = None;
    for e in events {
        if let SchedEvent::TaskReady { time, .. } = *e {
            if last_ready != Some(time.to_bits()) {
                ready_batches += 1;
                last_ready = Some(time.to_bits());
            }
        }
    }
    StreamCounts {
        events: events.len(),
        spoliations: count(|e| matches!(e, SchedEvent::Spoliation { .. })),
        completions: count(|e| matches!(e, SchedEvent::TaskComplete { .. })),
        peak_ready_depth: TraceSummary::from_events(workers, events).max_ready_depth(),
        ready_batches,
    }
}

/// Everything the traced run reports, and the ledger behind
/// `ledger.residual_share`.
pub struct LayerReport {
    pub values: Values,
    pub ledger: Ledger,
    pub problems: Vec<String>,
}

/// Put the traced samples and the replays together. The recorded stream
/// of the last sample is replayed.
pub fn layer_report(inputs: &Inputs, samples: &[TracedSample], replay_path: &Path) -> LayerReport {
    let mut values = median_values(samples);
    let mut problems = Vec::new();
    let wall_ns = median(&samples.iter().map(|s| s.wall_ns).collect::<Vec<_>>());
    let children_ns = median(&samples.iter().map(|s| s.children_ns).collect::<Vec<_>>());
    let events = samples.last().map_or(&[][..], |s| &s.events[..]);
    let (instance, platform) = (inputs.instance(), inputs.platform());
    let tasks = instance.len() as f64;

    let counts = stream_counts(events, platform.workers());
    values.insert("kernel.events", counts.events as f64);
    values.insert("kernel.spoliations", counts.spoliations as f64);
    values.insert("kernel.peak_ready_depth", counts.peak_ready_depth as f64);
    if let Inputs::Online { .. } = inputs {
        values.insert("online.arrival_batches", counts.ready_batches as f64);
    }
    let encode = replay_encode(events);
    values.insert("trace.encode_ns", encode.encode_ns);
    values.insert("trace.bytes_per_event", encode.bytes_per_event);
    values.insert("trace.crc_ns_per_kib", encode.crc_ns_per_kib);

    let mut rows = Vec::new();
    // Replayed layers the engine runs outside any adapter: their time is
    // inside the traced wall, so `kernel.self` excludes it.
    let mut nested_ns = 0.0;
    let observed = get(&values, "_audit_events") > 0.0;
    if let Inputs::Independent { .. } = inputs {
        let sort_ns = replay_sort(instance);
        values.insert("heteroprio.sort_ns_per_task", sort_ns / tasks);
        rows.push(Row::new("heteroprio.sort", tasks, sort_ns / tasks, Source::Replay));
        nested_ns += sort_ns;
    }
    if let Some(queue) = replay_queue(inputs, events) {
        problems.extend(queue.problem.clone());
        values.insert("queue.push_ns", queue.push_ns);
        values.insert("queue.pop_ns", queue.pop_ns);
        values.insert("queue.pushes", queue.pushes as f64);
        values.insert("queue.pops", queue.pops as f64);
        rows.push(Row::new("queue.push", queue.pushes as f64, queue.push_ns, Source::Replay));
        rows.push(Row::new("queue.pop", queue.pops as f64, queue.pop_ns, Source::Replay));
        match inputs {
            Inputs::Dag { graph, .. } => {
                let release = replay_release(graph, events);
                problems.extend(release.problem);
                values.insert(
                    "taskgraph.release_ns",
                    release.total_ns / release.completions.max(1) as f64,
                );
                nested_ns += release.total_ns;
                // The policy's queue calls sit inside its adapter. The
                // simulator's own cost is the dependency release plus the
                // adapter time the queue replay does not explain.
                let decisions_ns = get(&values, "schedulers.on_ready_ns")
                    * get(&values, "_on_ready_calls")
                    + get(&values, "schedulers.pick_ns") * get(&values, "schedulers.picks");
                let adapter_ns = (decisions_ns - queue.total_ns()).max(0.0);
                let simulator = (release.total_ns + adapter_ns) / tasks;
                values.insert("simulator.self_ns_per_task", simulator);
                rows.push(Row::new("simulator.self", tasks, simulator, Source::Replay));
                rows.push(Row::new(
                    "schedulers.victim",
                    get(&values, "schedulers.victim_scans"),
                    get(&values, "schedulers.victim_ns"),
                    Source::InSitu,
                ));
            }
            _ => nested_ns += queue.total_ns(),
        }
    }
    if observed {
        observed_rows(inputs, events, replay_path, &values, &mut rows, &mut problems);
    } else {
        rows.push(Row::new(
            "trace.emit",
            counts.events as f64,
            replay_emit(events),
            Source::Replay,
        ));
    }

    let self_ns = (wall_ns - children_ns - nested_ns) / tasks;
    values.insert("kernel.self_ns_per_task", self_ns);
    rows.insert(0, Row::new("kernel.self", tasks, self_ns, Source::Remainder));
    let ledger = Ledger { wall_ns, rows };
    values.insert("ledger.residual_share", ledger.residual_share());
    values.insert("ledger.traced_wall_s", wall_ns / 1e9);
    debug_assert_eq!(counts.completions, instance.len());
    LayerReport { values, ledger, problems }
}

/// Ledger rows of `observed`: the auditor and the journal at their
/// replayed costs; the tee, the kernel's own metric records and the audit
/// `finish` in situ.
fn observed_rows(
    inputs: &Inputs,
    events: &[SchedEvent],
    replay_path: &Path,
    values: &Values,
    rows: &mut Vec<Row>,
    problems: &mut Vec<String>,
) {
    let n = events.len() as f64;
    let audit_ns = replay_audit(inputs.instance(), inputs.platform(), events);
    rows.push(Row::new("audit.event", n, audit_ns, Source::Replay));
    match replay_journal(events, replay_path) {
        Ok(ns) => rows.push(Row::new("journal.append+sync", n, ns, Source::Replay)),
        Err(e) => problems.push(format!("journal replay: {e}")),
    }
    let tee_ns = get(values, "_tee_self_ns") / n.max(1.0);
    rows.push(Row::new("trace.emit(tee)", n, tee_ns, Source::InSitu));
    rows.push(Row::new(
        "metrics.record(kernel)",
        1.0,
        get(values, "_metrics_top_ns"),
        Source::InSitu,
    ));
    rows.push(Row::new("audit.finish", 1.0, get(values, "_finish_ns"), Source::InSitu));
}
