//! Where events go: the sink trait and its two canonical implementations.

use crate::SchedEvent;

/// Consumer of scheduler events.
///
/// Instrumented code is generic over `S: TraceSink`, so the choice of sink
/// is made at compile time and [`NullSink`] erases tracing entirely.
pub trait TraceSink {
    fn emit(&mut self, event: SchedEvent);

    /// `false` when emitted events are discarded. Instrumentation may use
    /// this to skip constructing expensive event payloads; the standard
    /// events are plain `Copy` data, so most call sites ignore it.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// Discards every event. `emit` is an empty `#[inline(always)]` body, so a
/// scheduler monomorphised over `NullSink` contains no tracing code at all
/// (the `benchmark/` package's `tasks_per_s` times this untraced path).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&mut self, _event: SchedEvent) {}

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Records every event in order.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    pub events: Vec<SchedEvent>,
}

impl VecSink {
    pub fn new() -> Self {
        VecSink::default()
    }

    pub fn into_events(self) -> Vec<SchedEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        self.events.push(event);
    }
}

/// Fans one event stream out to two sinks — e.g. a [`VecSink`] recorder
/// plus a streaming auditor watching the same run.
#[derive(Clone, Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        self.0.emit(event);
        self.1.emit(event);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn emit(&mut self, event: SchedEvent) {
        (**self).emit(event);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}
