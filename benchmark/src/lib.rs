//! The repository's benchmark: HeteroPrio scheduling throughput on four
//! workloads, end to end and layer by layer.
//!
//! An untraced run (`--trace 0`) times the engine call exactly as a user
//! makes it — `NullSink` and `NullRegistry`, except on `observed`, whose
//! point is the observability stack — and reports the end-to-end metrics.
//! A traced run (`--trace 1`) wraps the layers' public traits in timing
//! adapters, replays the recorded event stream through the layers' public
//! functions, and reports the per-layer metrics and their ledger. Every
//! sample's output is checked. See `README.md` beside this crate.

pub mod adapters;
pub mod affinity;
pub mod layers;
pub mod ledger;
pub mod report;
pub mod run;
pub mod workload;

pub use run::{run, Options, RunReport};
pub use workload::{Size, Workload};
