//! # heteroprio-bench
//!
//! Kernel performance and parity fixtures:
//!
//! * [`perf`] — the kernel perf harness behind `heteroprio-cli perf`,
//!   `scripts/bench.sh` and the committed `BENCH_kernel.json`;
//! * [`seed_reference`] — the frozen pre-kernel seed engine that
//!   `tests/kernel_parity.rs` holds the unified event kernel to,
//!   event for event.
//!
//! The scheduler-cost table of the paper's §1 claim is the `experiments`
//! binary `complexity`; the per-layer throughput ledger is the standalone
//! `benchmark/` package.

#![forbid(unsafe_code)]

pub mod perf;
pub mod seed_reference;
