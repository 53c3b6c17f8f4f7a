//! The paper-invariant auditor for the HeteroPrio workspace.
//!
//! One auditor, [`StreamAuditor`], replays a run's
//! [`SchedEvent`](heteroprio_trace::SchedEvent) stream and checks the
//! paper's structural properties as typed [`Rule`]s: the list property
//! behind Lemma 3 (no idle worker while ready work exists), Algorithm 1's
//! pop orientation (GPUs take max-ρ, CPUs min-ρ), the spoliation
//! preconditions, the Lemma 1–2 structure of the area bound, and the
//! Theorem 7/9/12 approximation certificate. It is a `TraceSink`: plugged
//! into any traced engine entry point it reports a violation at the
//! offending event while the run executes, and
//! [`finish`](StreamAuditor::finish) closes the books against the run's
//! [`Schedule`](heteroprio_core::Schedule). [`audit`] is the same auditor
//! fed a recorded slice. Violations carry the event index, simulated time
//! and worker; the [`AuditReport`] serializes to JSON for tooling.
//! Informational DualHP rules (§6) are opt-in via
//! [`AuditOptions::dualhp`](auditor::AuditOptions::dualhp).
//!
//! A trace that arrives without its schedule is audited against
//! [`schedule_from_events`], core's one rebuild of a schedule from a
//! stream, re-exported here.
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

pub use auditor::{audit, AuditOptions};
pub use heteroprio_core::schedule_from_events;
pub use report::{AuditReport, RatioCertificate, Rule, Violation};
pub use stream::StreamAuditor;
