//! Timing adapters over the layers' public traits: [`TraceSink`],
//! [`Journal`], [`MetricsRegistry`] and the simulator's [`OnlinePolicy`].
//!
//! The traced run wraps each layer it can reach from outside the program
//! in one of these. Every call is timed with two clock reads, so the
//! adapters cost time of their own; `ledger.trace_overhead_x` reports it.
//! The adapters take their clock as a [`Timer`]: a [`Clock`] in the traced
//! run, [`Untimed`] in the untraced `observed` run, which goes through the
//! same adapters without reading the clock.

use heteroprio_core::{Platform, TaskId, WorkerId, WorkerOrder};
use heteroprio_metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use heteroprio_simulator::{OnlinePolicy, SimContext};
use heteroprio_taskgraph::TaskGraph;
use heteroprio_trace::{Journal, JournalError, SchedEvent, TraceSink};
use std::cell::Cell;
use std::time::Instant;

/// Calls and time of one operation. `top_ns` is the part of `ns` spent in
/// calls that no other adapter call enclosed: the engine call's direct
/// children, which `kernel.self` excludes.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    calls: Cell<u64>,
    ns: Cell<u64>,
    top_ns: Cell<u64>,
}

impl Tally {
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    pub fn top_ns(&self) -> u64 {
        self.top_ns.get()
    }

    /// Mean nanoseconds per call, 0 when never called.
    pub fn mean_ns(&self) -> f64 {
        if self.calls() == 0 {
            0.0
        } else {
            self.ns() as f64 / self.calls() as f64
        }
    }

    fn add(&self, span: Span) {
        self.calls.set(self.calls.get() + 1);
        self.ns.set(self.ns.get() + span.ns);
        if span.top {
            self.top_ns.set(self.top_ns.get() + span.ns);
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub ns: u64,
    /// No other adapter call was open when this one started.
    pub top: bool,
}

/// What the adapters time their calls with.
pub trait Timer {
    /// Run `f` as one timed call.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Span);

    /// Run `f` as one timed call and charge it to `tally`.
    fn charge<R>(&self, tally: &Tally, f: impl FnOnce() -> R) -> R {
        let (out, span) = self.time(f);
        tally.add(span);
        out
    }
}

/// A timer that reads no clock: every span is empty and `charge` leaves
/// the tally alone, so an adapter over it only passes calls through.
#[derive(Clone, Copy, Debug, Default)]
pub struct Untimed;

impl Timer for Untimed {
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Span) {
        (f(), Span { ns: 0, top: false })
    }

    fn charge<R>(&self, _: &Tally, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Nesting-aware clock shared by every adapter of one traced run.
#[derive(Debug, Default)]
pub struct Clock {
    depth: Cell<u32>,
    top_ns: Cell<u64>,
}

impl Clock {
    /// Total time of top-level adapter calls so far.
    pub fn top_ns(&self) -> u64 {
        self.top_ns.get()
    }
}

impl Timer for Clock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Span) {
        let top = self.depth.get() == 0;
        self.depth.set(self.depth.get() + 1);
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.depth.set(self.depth.get() - 1);
        if top {
            self.top_ns.set(self.top_ns.get() + ns);
        }
        (out, Span { ns, top })
    }
}

/// Times every `emit` of the sink it wraps.
pub struct TimedSink<'c, S, T> {
    pub inner: S,
    pub emits: Tally,
    clock: &'c T,
}

impl<'c, S: TraceSink, T: Timer> TimedSink<'c, S, T> {
    pub fn new(inner: S, clock: &'c T) -> Self {
        TimedSink { inner, emits: Tally::default(), clock }
    }
}

impl<S: TraceSink, T: Timer> TraceSink for TimedSink<'_, S, T> {
    fn emit(&mut self, event: SchedEvent) {
        let inner = &mut self.inner;
        self.clock.charge(&self.emits, || inner.emit(event));
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}

/// A journal's calls, split between buffering and fsync.
#[derive(Clone, Debug, Default)]
pub struct JournalTally {
    /// Appends that only buffered.
    pub buffered: Tally,
    /// Appends that also committed a cadence window (write + fsync).
    pub committed: Tally,
    /// Explicit syncs.
    pub synced: Tally,
    /// Bytes the appends occupied, framing included.
    pub bytes: u64,
}

/// Times appends and syncs of the journal it wraps. An append that carried
/// a cadence-triggered group commit is tallied apart from one that only
/// buffered, so the journal's time splits between buffering and fsync.
pub struct TimedJournal<'c, J, T> {
    pub inner: J,
    pub tally: JournalTally,
    clock: &'c T,
}

impl<'c, J: Journal, T: Timer> TimedJournal<'c, J, T> {
    pub fn new(inner: J, clock: &'c T) -> Self {
        TimedJournal { inner, tally: JournalTally::default(), clock }
    }
}

impl<J: Journal, T: Timer> Journal for TimedJournal<'_, J, T> {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        let before = self.inner.syncs();
        let inner = &mut self.inner;
        let (written, span) = self.clock.time(|| inner.append(event));
        if self.inner.syncs() > before {
            self.tally.committed.add(span);
        } else {
            self.tally.buffered.add(span);
        }
        let written = written?;
        self.tally.bytes += written as u64;
        Ok(written)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let inner = &mut self.inner;
        self.clock.charge(&self.tally.synced, || inner.sync())
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

/// Times every recording call (`inc_by`, `gauge_set`, `observe`) of the
/// registry it wraps; registration is set-up and passes through untimed.
pub struct TimedRegistry<'c, M: ?Sized, T> {
    inner: &'c M,
    pub records: Tally,
    clock: &'c T,
}

impl<'c, M: MetricsRegistry + ?Sized, T: Timer> TimedRegistry<'c, M, T> {
    pub fn new(inner: &'c M, clock: &'c T) -> Self {
        TimedRegistry { inner, records: Tally::default(), clock }
    }
}

impl<M: MetricsRegistry + ?Sized, T: Timer> MetricsRegistry for TimedRegistry<'_, M, T> {
    fn counter(&self, name: &str) -> CounterId {
        self.inner.counter(name)
    }

    fn gauge(&self, name: &str) -> GaugeId {
        self.inner.gauge(name)
    }

    fn histogram(&self, name: &str) -> HistogramId {
        self.inner.histogram(name)
    }

    fn inc_by(&self, id: CounterId, delta: u64) {
        self.clock.charge(&self.records, || self.inner.inc_by(id, delta));
    }

    fn gauge_set(&self, id: GaugeId, value: u64) {
        self.clock.charge(&self.records, || self.inner.gauge_set(id, value));
    }

    fn observe(&self, id: HistogramId, value: u64) {
        self.clock.charge(&self.records, || self.inner.observe(id, value));
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}

/// Times the decisions of the online policy it wraps.
pub struct TimedPolicy<'c, P> {
    pub inner: P,
    pub on_ready: Tally,
    pub picks: Tally,
    pub victims: Tally,
    /// Victim scans that found a task to spoliate.
    pub victim_hits: u64,
    clock: &'c Clock,
}

impl<'c, P: OnlinePolicy> TimedPolicy<'c, P> {
    pub fn new(inner: P, clock: &'c Clock) -> Self {
        TimedPolicy {
            inner,
            on_ready: Tally::default(),
            picks: Tally::default(),
            victims: Tally::default(),
            victim_hits: 0,
            clock,
        }
    }
}

impl<P: OnlinePolicy> OnlinePolicy for TimedPolicy<'_, P> {
    fn init(&mut self, graph: &TaskGraph, platform: &Platform) {
        self.inner.init(graph, platform);
    }

    fn on_ready(&mut self, tasks: &[TaskId], ctx: &SimContext<'_>) {
        let inner = &mut self.inner;
        self.clock.charge(&self.on_ready, || inner.on_ready(tasks, ctx));
    }

    fn pick_task(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<TaskId> {
        let inner = &mut self.inner;
        self.clock.charge(&self.picks, || inner.pick_task(worker, ctx))
    }

    fn spoliation_victim(&mut self, worker: WorkerId, ctx: &SimContext<'_>) -> Option<WorkerId> {
        let inner = &mut self.inner;
        let victim = self.clock.charge(&self.victims, || inner.spoliation_victim(worker, ctx));
        self.victim_hits += u64::from(victim.is_some());
        victim
    }

    fn worker_order(&self) -> WorkerOrder {
        self.inner.worker_order()
    }
}
