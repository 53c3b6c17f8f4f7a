//! The auditor: the paper's invariant rules, checked event by event as a
//! stream is fed in. [`crate::audit`] is this auditor fed a recorded slice.
//!
//! [`StreamAuditor`] implements [`TraceSink`], so it plugs directly into any
//! traced entry point — `heteroprio_traced`, `simulate_traced`,
//! `Runtime::run`, or the shared event kernel they all sit on — and checks
//! each event as the engine emits it. Violations are recorded with the
//! offending event index the moment they happen; [`StreamAuditor::violations`]
//! exposes them mid-run, and [`StreamAuditor::finish`] closes the books
//! against the final [`Schedule`] (well-formedness, abort reconciliation and
//! the certificates need the complete run) and returns the [`AuditReport`].

use crate::auditor::{
    check_approx_ratio, check_area_bound, check_well_formed, AuditOptions, Replay,
};
use crate::report::{AuditReport, Rule, Violation};
use heteroprio_core::{Instance, Platform, Schedule};
use heteroprio_trace::{SchedEvent, TraceSink};

/// A [`TraceSink`] that audits the event stream as it is produced.
///
/// ```
/// use heteroprio_audit::{AuditOptions, StreamAuditor};
/// use heteroprio_core::{heteroprio_traced, HeteroPrioConfig, Instance, Platform};
///
/// let instance = Instance::from_times(&[(8.0, 1.0), (4.0, 1.0), (2.0, 2.0)]);
/// let platform = Platform::new(2, 1);
/// let mut auditor = StreamAuditor::new(&instance, &platform, AuditOptions::independent());
/// let result = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut auditor);
/// let report = auditor.finish(&result.schedule);
/// assert!(report.is_clean(), "{}", report.render());
/// ```
pub struct StreamAuditor<'a> {
    instance: &'a Instance,
    platform: &'a Platform,
    opts: AuditOptions,
    replay: Replay<'a>,
    /// Violations and checks accumulated by the streaming rules.
    streamed: AuditReport,
    saw_ready: bool,
}

impl<'a> StreamAuditor<'a> {
    pub fn new(instance: &'a Instance, platform: &'a Platform, opts: AuditOptions) -> Self {
        let replay = Replay::new(instance, platform, opts.max_overhead);
        StreamAuditor {
            instance,
            platform,
            opts,
            replay,
            streamed: AuditReport::default(),
            saw_ready: false,
        }
    }

    /// Violations found so far, available mid-stream. Each carries the index
    /// of the event that triggered it.
    pub fn violations(&self) -> &[Violation] {
        &self.streamed.violations
    }

    /// `true` while no streamed rule has fired.
    pub fn is_clean_so_far(&self) -> bool {
        self.streamed.violations.is_empty()
    }

    /// Number of events audited so far.
    pub fn events_seen(&self) -> usize {
        self.streamed.events
    }

    /// Close the books against the completed run's [`Schedule`]: abort
    /// reconciliation, well-formedness, the DualHP rules (when enabled) and
    /// the certificate checks — everything that needs the whole run. The
    /// returned report contains the streamed violations too, after the
    /// well-formedness findings and before the DualHP and certificate ones.
    pub fn finish(mut self, schedule: &Schedule) -> AuditReport {
        let mut report = AuditReport { events: self.streamed.events, ..AuditReport::default() };
        check_well_formed(self.instance, self.platform, schedule, &self.opts, &mut report);
        let queue_rules =
            [Rule::NoIdleWithReadyWork, Rule::PopOrderConsistency, Rule::SpoliationLegality];
        let skip = if !self.opts.heteroprio {
            Some("policy under audit is not HeteroPrio")
        } else if !self.saw_ready {
            Some("trace has no queue events (reconstructed from schedule)")
        } else {
            None
        };
        if let Some(reason) = skip {
            for rule in queue_rules {
                report.skipped.push((rule, reason.into()));
            }
            // Whatever the queue replay found in a stream it cannot judge
            // does not count; the per-event DualHP steal rule still does.
            self.streamed.checks = 0;
            self.streamed.violations.retain(|v| v.rule == Rule::DualHpSpoliationFree);
        } else {
            self.replay.reconcile_aborts(schedule, &mut self.streamed);
        }
        report.checks += self.streamed.checks;
        report.violations.append(&mut self.streamed.violations);
        if self.opts.dualhp {
            crate::dualhp_rules::check_dualhp(
                self.instance,
                self.platform,
                schedule,
                &self.opts,
                &mut report,
            );
        }
        let area = check_area_bound(self.instance, self.platform, &mut report);
        check_approx_ratio(self.instance, self.platform, schedule, &self.opts, area, &mut report);
        report
    }
}

impl TraceSink for StreamAuditor<'_> {
    fn emit(&mut self, event: SchedEvent) {
        self.streamed.events += 1;
        if matches!(event, SchedEvent::TaskReady { .. }) {
            self.saw_ready = true;
        }
        if self.opts.heteroprio {
            self.replay.push(&event, &mut self.streamed);
        }
        if self.opts.dualhp {
            if let SchedEvent::Spoliation { time, task, victim, thief, .. } = event {
                self.streamed.violations.push(Violation {
                    rule: Rule::DualHpSpoliationFree,
                    event_index: Some(self.streamed.events - 1),
                    time: Some(time),
                    worker: Some(thief),
                    message: format!(
                        "DualHP trace contains a cross-class steal: task {task} taken from \
                         worker {victim}"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::{heteroprio_traced, HeteroPrioConfig};
    use heteroprio_trace::QueueEnd;

    fn fig1_instance() -> Instance {
        Instance::from_times(&[
            (8.0, 1.0),
            (4.0, 1.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (3.0, 3.0),
            (6.0, 1.5),
        ])
    }

    /// A corrupted stream replayed *into* the auditor: the violation must be
    /// visible, with its event index, while the stream is still open —
    /// before any schedule or `finish` call exists.
    #[test]
    fn corrupted_stream_reports_violation_before_the_run_completes() {
        let inst = Instance::from_times(&[(4.0, 1.0), (3.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let mut auditor = StreamAuditor::new(&inst, &plat, AuditOptions::independent());
        auditor.emit(SchedEvent::TaskReady { time: 0.0, task: 0 });
        auditor.emit(SchedEvent::TaskReady { time: 0.0, task: 1 });
        assert!(auditor.is_clean_so_far());
        // Corruption: the CPU pops the GPU's end of the queue.
        auditor.emit(SchedEvent::QueuePop { time: 0.0, task: 0, worker: 0, end: QueueEnd::Front });
        assert!(!auditor.is_clean_so_far(), "violation must be visible mid-stream");
        let v = &auditor.violations()[0];
        assert_eq!(v.rule, Rule::PopOrderConsistency);
        assert_eq!(v.event_index, Some(2), "violation pinned to the offending event");
        assert_eq!(auditor.events_seen(), 3);
    }

    #[test]
    fn generic_policy_streams_without_queue_rules() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let mut auditor = StreamAuditor::new(&inst, &plat, AuditOptions::generic());
        let res = heteroprio_traced(&inst, &plat, &HeteroPrioConfig::new(), &mut auditor);
        let report = auditor.finish(&res.schedule);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.skipped.len(), 3);
    }
}
