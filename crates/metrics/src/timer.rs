//! Wall-clock measurement: RAII spans, the one span sampler, and a plain
//! stopwatch.
//!
//! These are the workspace's only sanctioned `Instant::now()` call sites —
//! the `audit-lint` `instant-now` rule forbids the clock everywhere outside
//! `crates/metrics`, so scheduling logic cannot accidentally become
//! time-dependent. Code that needs wall time routes it through here.

use std::time::Instant;

use crate::registry::{HistogramId, MetricsRegistry};

/// How many calls share one observation of a sampled span: the
/// workspace's one 1-in-N rule. A span around a sub-microsecond call (a
/// policy pick, a buffered journal append) costs about as much as the call
/// itself in its two clock reads, so such spans time the 1st, 17th, 33rd,
/// … call of a run, and their histogram counts are ⌈calls / 16⌉.
pub const SAMPLE_EVERY: u64 = 16;

/// Picks which calls of a sampled span read the clock: the 1st, then every
/// [`SAMPLE_EVERY`]-th. One sampler per span and per run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSampler {
    calls: u64,
}

impl SpanSampler {
    /// A running clock when this call is sampled and `registry` records;
    /// `None`, with no clock read, otherwise. A disabled registry does not
    /// advance the count, so under `NullRegistry` this folds to `None`.
    #[inline]
    pub fn clock<M: MetricsRegistry + ?Sized>(&mut self, registry: &M) -> Option<Stopwatch> {
        if !registry.is_enabled() {
            return None;
        }
        let due = self.calls.is_multiple_of(SAMPLE_EVERY);
        self.calls += 1;
        due.then(Stopwatch::start)
    }
}

/// RAII span timer: reads the clock on construction and observes the
/// elapsed nanoseconds into a histogram on drop. When the registry is
/// disabled ([`MetricsRegistry::is_enabled`] is false) the clock is never
/// read at all, so a `NullRegistry` span costs one branch.
pub struct ScopedTimer<'a, M: MetricsRegistry + ?Sized> {
    registry: &'a M,
    id: HistogramId,
    start: Option<Stopwatch>,
}

impl<'a, M: MetricsRegistry + ?Sized> ScopedTimer<'a, M> {
    /// Start timing a span that ends when the returned guard drops.
    #[inline]
    #[must_use]
    pub fn start(registry: &'a M, id: HistogramId) -> Self {
        let start = registry.is_enabled().then(Stopwatch::start);
        ScopedTimer { registry, id, start }
    }

    /// [`ScopedTimer::start`] for a span that `sampler` samples: only its
    /// sampled calls read the clock and observe.
    #[inline]
    #[must_use]
    pub fn sampled(registry: &'a M, id: HistogramId, sampler: &mut SpanSampler) -> Self {
        ScopedTimer { registry, id, start: sampler.clock(registry) }
    }
}

impl<M: MetricsRegistry + ?Sized> Drop for ScopedTimer<'_, M> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.registry.observe(self.id, start.elapsed_ns());
        }
    }
}

/// Plain wall-clock stopwatch for code that wants elapsed time as a value
/// (the perf harness, `experiments`) rather than a histogram observation.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start the clock.
    #[inline]
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    #[inline]
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_secs_f64(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{InMemoryRegistry, NullRegistry};

    #[test]
    fn scoped_timer_observes_exactly_once_on_drop() {
        let r = InMemoryRegistry::new();
        let h = r.histogram("span_ns");
        {
            let _t = ScopedTimer::start(&r, h);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histogram("span_ns").expect("registered").count, 1);
    }

    #[test]
    fn disabled_registry_skips_the_clock() {
        let r = NullRegistry;
        let t = ScopedTimer::start(&r, crate::registry::HistogramId(0));
        assert!(t.start.is_none(), "NullRegistry span must not read the clock");
    }

    #[test]
    fn sampled_spans_observe_the_first_call_and_every_sixteenth() {
        let r = InMemoryRegistry::new();
        let h = r.histogram("pick_ns");
        let mut sampler = SpanSampler::default();
        for calls in 1..=40u64 {
            drop(ScopedTimer::sampled(&r, h, &mut sampler));
            let count = r.snapshot().histogram("pick_ns").expect("registered").count;
            assert_eq!(count, calls.div_ceil(SAMPLE_EVERY), "after {calls} calls");
        }
    }

    #[test]
    fn a_disabled_registry_neither_samples_nor_counts() {
        let mut sampler = SpanSampler::default();
        for _ in 0..3 {
            assert!(sampler.clock(&NullRegistry).is_none());
        }
        assert_eq!(sampler.calls, 0);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed_secs_f64() >= 0.0);
    }
}
