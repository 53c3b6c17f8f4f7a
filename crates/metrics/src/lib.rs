//! # heteroprio-metrics
//!
//! The workspace's third observability plane. The trace crate records *what*
//! the scheduler decided (events), the audit crate checks *whether* it was
//! legal (invariants); this crate measures *how much it cost* (counters,
//! wall time, queue depths). See DESIGN.md §8 for the full split.
//!
//! The design mirrors `heteroprio_trace::TraceSink`: instrumented code is
//! generic over [`MetricsRegistry`], so the choice of registry is made at
//! compile time and [`NullRegistry`] — whose recording methods are empty
//! `#[inline(always)]` bodies — erases the instrumentation entirely. The
//! kernel-parity bench and the byte-identity tests in `tests/metrics.rs`
//! guard that claim.
//!
//! * [`InMemoryRegistry`] — lock-free recording into pre-allocated atomic
//!   slabs (`&self` everywhere, so one registry can be shared across
//!   threads); registration of metric names takes a short mutex and happens
//!   once per kernel run.
//! * [`Histogram`][snapshot::HistogramSnapshot] values are log₂-bucketed:
//!   bucket 0 holds exactly `{0}`, bucket *i* holds `[2^(i-1), 2^i)`.
//!   Quantiles report the bucket's inclusive upper bound.
//! * [`ScopedTimer`] is an RAII span: started against a histogram handle, it
//!   observes elapsed nanoseconds on drop — and skips the clock entirely
//!   when the registry is disabled. Spans around sub-microsecond calls go
//!   through a [`SpanSampler`], which times one call in [`SAMPLE_EVERY`].
//! * [`snapshot::MetricsSnapshot`] renders as a human report or Prometheus
//!   text exposition ([`prometheus::render`]), and [`prometheus::parse`]
//!   round-trips the exposition back into a snapshot (golden-tested), so a
//!   future `/metrics` endpoint is a `render` call away.
//!
//! This crate is also the workspace's **clock room**: the `audit-lint`
//! `instant-now` rule forbids `Instant::now()` outside `crates/metrics`, so
//! every wall-clock read flows through [`ScopedTimer`] or [`Stopwatch`] and
//! scheduling logic stays deterministic by construction.

#![forbid(unsafe_code)]

pub mod histogram;
pub mod prometheus;
pub mod registry;
pub mod snapshot;
pub mod timer;

pub use histogram::{bucket_index, bucket_upper, BUCKETS};
pub use registry::{
    CounterId, GaugeId, HistogramId, InMemoryRegistry, MetricsRegistry, NullRegistry,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use timer::{ScopedTimer, SpanSampler, Stopwatch, SAMPLE_EVERY};
