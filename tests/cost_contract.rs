//! Cost contracts: what a call may allocate, and how often a run may touch
//! the metrics registry, counted rather than timed, so that a bound holds
//! on any host.
//!
//! A counting global allocator tracks, per thread, the bytes live on the
//! heap and their peak. The test harness runs tests on parallel threads,
//! and each test reads only its own thread's counts. A `realloc` counts its
//! net change: the allocator grows a large block in place (`mremap`), so
//! the old and new sizes are not both held.

mod common;

use common::CountingPicks;
use heteroprio::core::kernel::{self, metric, Run};
use heteroprio::core::{
    independent, sorted_queue, HeteroPrioConfig, Instance, Platform, QueueTieBreak, Task, TaskId,
};
use heteroprio::metrics::{
    CounterId, GaugeId, HistogramId, InMemoryRegistry, MetricsRegistry, SAMPLE_EVERY,
};
use heteroprio::trace::NullSink;
use heteroprio::workloads::{random_instance, RandomInstanceParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-locals, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => shrank(layout.size() - new_size),
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocated on this thread: the peak of its live bytes, and the
/// number of allocations and reallocations that grew a block.
fn cost<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let calls = CALLS.with(Cell::get);
    let out = f();
    (out, PEAK.with(Cell::get) - base, CALLS.with(Cell::get) - calls)
}

const TASKS: usize = 100_000;

/// Four Chameleon-like kernel types in four contiguous id ranges, the
/// layout of the generated independent Cholesky instances.
fn four_types() -> Instance {
    let mut instance = Instance::new();
    for (p, q) in [(28.8, 1.0), (8.72, 1.0), (1.72, 1.0), (1.0, 3.0)] {
        for _ in 0..TASKS / 4 {
            instance.push(Task::new(p, q).with_priority(1.0));
        }
    }
    instance
}

/// Seeded random times and priorities: no two neighbours share a key.
fn run_free() -> Instance {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut unit = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut instance = Instance::new();
    for _ in 0..TASKS {
        let (p, q, priority) = (1.0 + 99.0 * unit(), 1.0 + 99.0 * unit(), unit());
        instance.push(Task::new(p, q).with_priority(priority));
    }
    instance
}

const TIES: [QueueTieBreak; 2] = [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder];

#[test]
fn sorted_queue_on_four_kernel_types_allocates_the_output_and_a_constant() {
    let instance = four_types();
    let ids: Vec<TaskId> = instance.ids().collect();
    let output = TASKS * std::mem::size_of::<TaskId>();
    for tie in TIES {
        let (queue, peak, allocations) = cost(|| sorted_queue(&instance, &ids, tie));
        assert_eq!(queue.len(), TASKS);
        assert!(peak <= output + 4096, "{tie:?}: peak {peak} B over {output} B of output");
        assert!(allocations <= 4, "{tie:?}: {allocations} allocations");
    }
}

#[test]
fn sorted_queue_on_run_free_input_holds_no_more_than_the_keyed_sort() {
    // The keyed sort this build replaced held a 24-byte key per task next
    // to the 4-byte output, 28 bytes per task at its peak.
    let ceiling = TASKS * 28;
    let instance = run_free();
    let ids: Vec<TaskId> = instance.ids().collect();
    for tie in TIES {
        let (queue, peak, _) = cost(|| sorted_queue(&instance, &ids, tie));
        assert_eq!(queue.len(), TASKS);
        assert!(peak <= ceiling, "{tie:?}: peak {peak} B over the {ceiling} B ceiling");
    }
}

/// An [`InMemoryRegistry`] that counts the calls made on it: span
/// observations apart from everything else (registration, counters and
/// gauges).
#[derive(Default)]
struct CountingRegistry {
    inner: InMemoryRegistry,
    calls: Cell<u64>,
    observations: Cell<u64>,
}

impl CountingRegistry {
    fn call(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl MetricsRegistry for CountingRegistry {
    fn counter(&self, name: &str) -> CounterId {
        self.call();
        self.inner.counter(name)
    }
    fn gauge(&self, name: &str) -> GaugeId {
        self.call();
        self.inner.gauge(name)
    }
    fn histogram(&self, name: &str) -> HistogramId {
        self.call();
        self.inner.histogram(name)
    }
    fn inc_by(&self, id: CounterId, delta: u64) {
        self.call();
        self.inner.inc_by(id, delta);
    }
    fn gauge_set(&self, id: GaugeId, value: u64) {
        self.call();
        self.inner.gauge_set(id, value);
    }
    fn observe(&self, id: HistogramId, value: u64) {
        self.observations.set(self.observations.get() + 1);
        self.inner.observe(id, value);
    }
    fn is_enabled(&self) -> bool {
        true
    }
}

#[test]
fn a_metered_run_touches_the_registry_a_constant_number_of_times_plus_sampled_spans() {
    let mut calls = Vec::new();
    for tasks in [2_500, 25_000] {
        let instance =
            random_instance(&RandomInstanceParams { tasks, ..RandomInstanceParams::default() }, 7);
        let platform = Platform::new(6, 2);
        let registry = CountingRegistry::default();
        let (mut workload, policy) = independent(&instance, &platform, &HeteroPrioConfig::new());
        let mut policy = CountingPicks::new(policy);
        let mut sink = NullSink;
        let spec = Run::new(&mut sink, &registry);
        kernel::run(&platform, &mut workload, &mut policy, spec).expect("fault-free run completes");
        let snap = registry.inner.snapshot();
        let pick = snap.histogram(metric::PICK_NS).expect("registered").count;
        assert_eq!(pick, policy.picks.div_ceil(SAMPLE_EVERY), "{tasks} tasks: pick calls");
        let spans: u64 = snap.histograms.iter().map(|h| h.count).sum();
        assert_eq!(registry.observations.get(), spans, "{tasks} tasks: observations");
        assert_eq!(snap.counter(metric::TASKS_COMPLETED_TOTAL), Some(tasks as u64));
        calls.push(registry.calls.get());
    }
    assert_eq!(calls[0], calls[1], "registry calls grew with the task count");
}
