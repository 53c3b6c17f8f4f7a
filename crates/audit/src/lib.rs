//! The paper-invariant auditor for the HeteroPrio workspace.
//!
//! [`audit`] replays a recorded run — a
//! [`Schedule`](heteroprio_core::Schedule) plus its
//! [`SchedEvent`](heteroprio_trace::SchedEvent) stream — and checks the
//! paper's structural properties as typed [`Rule`]s: the list property
//! behind Lemma 3 (no idle worker while ready work exists), Algorithm 1's
//! pop orientation (GPUs take max-ρ, CPUs min-ρ), the spoliation
//! preconditions, the Lemma 1–2 structure of the area bound, and the
//! Theorem 7/9/12 approximation certificate. Violations carry the event
//! index, simulated time and worker; the [`AuditReport`] serializes to
//! JSON for tooling. The same rules also run **online**: [`StreamAuditor`]
//! is a `TraceSink` that plugs into any traced engine entry point and
//! reports violations at the offending event while the run executes.
//! Informational DualHP rules (§6) are opt-in via
//! [`AuditOptions::dualhp`](auditor::AuditOptions::dualhp).
//!
//! The source-level lint gate lives in the separate `heteroprio-lint`
//! crate (`cargo run -q -p heteroprio-lint --bin audit-lint`).
//!
//! The crate deliberately depends only on `core`, `trace` and `bounds`: the
//! simulator, runtime and CLI call *into* it, never the other way around.

#![forbid(unsafe_code)]

pub mod auditor;
pub(crate) mod dualhp_rules;
pub mod report;
pub mod stream;

pub use auditor::{audit, schedule_from_events, AuditOptions};
pub use report::{AuditReport, RatioCertificate, Rule, Violation};
pub use stream::StreamAuditor;
