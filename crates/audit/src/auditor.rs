//! The audit rules and the event replay behind [`StreamAuditor`], and
//! [`audit`], which runs that auditor over a recorded `(Schedule,
//! SchedEvent)` pair without re-running anything.

use crate::report::{AuditReport, RatioCertificate, Rule, Violation};
use crate::StreamAuditor;
use heteroprio_bounds::{area_bound, check_structure, combined_lower_bound, min_time_bound};
use heteroprio_core::model::{Instance, Platform, ResourceKind, TaskId, WorkerId};
use heteroprio_core::proven_upper_bound;
use heteroprio_core::schedule::Schedule;
use heteroprio_core::time::{approx_eq, strictly_less, F64Ord};
use heteroprio_trace::{Decision, QueueEnd, SchedEvent, TraceSink};

/// What kind of execution produced the artifacts under audit. The queue
/// discipline rules only apply to HeteroPrio itself (DualHP and plain list
/// scheduling legitimately violate them), and the theorem constants only to
/// fault-free independent-task runs.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Enforce the HeteroPrio queue discipline (pop order, list property,
    /// spoliation preconditions). Off for other policies.
    pub heteroprio: bool,
    /// The run executed under a fault plan: durations are stochastic, so
    /// duration checks and ratio enforcement are skipped ("audit modulo
    /// liveness").
    pub faulty: bool,
    /// Precedence-constrained run: the approximation certificate is
    /// reported but not enforced (the constants are proven for independent
    /// tasks only).
    pub dag: bool,
    /// Allowed execution overhead beyond the calibrated time (the runtime's
    /// cross-class transfer penalty). Also used as the pessimistic slack in
    /// the spoliation victim-scan check.
    pub max_overhead: f64,
    /// Caller-supplied lower bound (e.g. the DAG bound); defaults to the
    /// paper's combined bound `max(AreaBound, max_i min(p_i, q_i))`.
    pub lower_bound: Option<f64>,
    /// The run was produced by DualHP (§6): additionally check the
    /// informational DualHP rules — no spoliation ever, and (for
    /// independent-task runs) the dual-approximation partition structure.
    pub dualhp: bool,
}

impl AuditOptions {
    /// Fault-free HeteroPrio on independent tasks — every rule enforced.
    pub fn independent() -> Self {
        AuditOptions {
            heteroprio: true,
            faulty: false,
            dag: false,
            max_overhead: 0.0,
            lower_bound: None,
            dualhp: false,
        }
    }

    /// HeteroPrio driving a task graph through the simulator/runtime.
    pub fn dag_run(max_overhead: f64, lower_bound: Option<f64>) -> Self {
        AuditOptions {
            heteroprio: true,
            faulty: false,
            dag: true,
            max_overhead,
            lower_bound,
            dualhp: false,
        }
    }

    /// A non-HeteroPrio policy: only well-formedness and the certificates.
    pub fn generic() -> Self {
        AuditOptions {
            heteroprio: false,
            faulty: false,
            dag: false,
            max_overhead: 0.0,
            lower_bound: None,
            dualhp: false,
        }
    }

    /// A DualHP run: the generic rules plus the informational DualHP
    /// invariants ([`Rule::DualHpSpoliationFree`],
    /// [`Rule::DualHpPartitionConsistency`]).
    pub fn dualhp() -> Self {
        AuditOptions { dualhp: true, ..AuditOptions::generic() }
    }
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions::independent()
    }
}

/// Audit a recorded schedule and its event trace against the paper's
/// invariants: a [`StreamAuditor`] fed the slice, then
/// [`finish`](StreamAuditor::finish)ed. Pass the events the run actually
/// emitted (live traces carry queue information that
/// [`Schedule::to_events`] reconstructions lack; the queue-discipline rules
/// are skipped, and reported as skipped, without it).
pub fn audit(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    events: &[SchedEvent],
    opts: &AuditOptions,
) -> AuditReport {
    let mut auditor = StreamAuditor::new(instance, platform, opts.clone());
    for &e in events {
        auditor.emit(e);
    }
    auditor.finish(schedule)
}

pub(crate) fn check_well_formed(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    report: &mut AuditReport,
) {
    let mut push = |res: Result<(), heteroprio_core::ScheduleError>| {
        report.checks += 1;
        if let Err(e) = res {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: None,
                time: None,
                worker: None,
                message: e.to_string(),
            });
        }
    };
    push(schedule.check_membership(instance, platform));
    push(schedule.check_completeness(instance));
    push(schedule.check_overlap(platform));
    if opts.faulty {
        report
            .skipped
            .push((Rule::WellFormed, "duration checks skipped: stochastic execution times".into()));
    } else {
        push(schedule.check_durations(instance, platform, opts.max_overhead));
    }
}

/// Check the area bound's Lemma 1/2 structure. Returns the bound's value
/// when it computes, so the ratio certificate need not compute it again.
pub(crate) fn check_area_bound(
    instance: &Instance,
    platform: &Platform,
    report: &mut AuditReport,
) -> Option<f64> {
    if instance.is_empty() {
        report.skipped.push((Rule::AreaBoundCertificate, "empty instance".into()));
        return None;
    }
    if platform.k() != 2 {
        report.skipped.push((
            Rule::AreaBoundCertificate,
            "Lemma 1/2 threshold structure is a two-class certificate".into(),
        ));
        return None;
    }
    report.checks += 1;
    let checked = area_bound(instance, platform).map_err(|e| e.to_string());
    let value = checked.as_ref().ok().map(|ab| ab.value);
    if let Err(msg) = checked.and_then(|ab| check_structure(instance, platform, &ab)) {
        report.violations.push(Violation {
            rule: Rule::AreaBoundCertificate,
            event_index: None,
            time: None,
            worker: None,
            message: msg,
        });
    }
    value
}

/// Check the makespan against the proven ratio times a lower bound: the
/// caller's, or [`combined_lower_bound`], whose area term is `area` when
/// [`check_area_bound`] computed it.
pub(crate) fn check_approx_ratio(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    area: Option<f64>,
    report: &mut AuditReport,
) {
    if instance.is_empty() {
        report.skipped.push((Rule::ApproxRatioCertificate, "empty instance".into()));
        return;
    }
    let lower_bound = opts.lower_bound.unwrap_or_else(|| match area {
        Some(area) => area.max(min_time_bound(instance)),
        None => combined_lower_bound(instance, platform),
    });
    if !lower_bound.is_finite() || !strictly_less(0.0, lower_bound) {
        report
            .skipped
            .push((Rule::ApproxRatioCertificate, format!("degenerate lower bound {lower_bound}")));
        return;
    }
    let makespan = schedule.makespan();
    let proven_bound = proven_upper_bound(platform);
    // The theorems cover fault-free HeteroPrio on independent tasks on a
    // CPU/GPU platform; in any other setting (including k ≥ 3 resource
    // classes) the certificate is a witness, not a gate.
    let enforced = opts.heteroprio && !opts.dag && !opts.faulty && platform.k() == 2;
    report.checks += 1;
    if enforced && strictly_less(proven_bound * lower_bound, makespan) {
        report.violations.push(Violation {
            rule: Rule::ApproxRatioCertificate,
            event_index: None,
            time: None,
            worker: None,
            message: format!(
                "makespan {makespan} exceeds proven bound {proven_bound} x lower bound {lower_bound}"
            ),
        });
    }
    report.certificate = Some(RatioCertificate {
        makespan,
        lower_bound,
        ratio: makespan / lower_bound,
        proven_bound,
        enforced,
    });
}

/// One task currently executing on a worker, as seen by the replay.
#[derive(Clone, Copy)]
struct Running {
    task: usize,
    start: f64,
    /// Completion time expected *at start time* (estimate-based even under
    /// jitter), which is exactly what spoliation decisions compare.
    expected_end: f64,
}

/// Replays the event stream, maintaining the scheduler's observable state
/// (ready set, running tasks, idle/alive flags) and checking the HeteroPrio
/// queue-discipline rules event by event.
///
/// Events are fed one at a time through [`Replay::push`] (this is what
/// lets [`StreamAuditor`] report violations *during* a run), and
/// [`Replay::reconcile_aborts`] closes the books against the final
/// [`Schedule`].
pub(crate) struct Replay<'a> {
    instance: &'a Instance,
    platform: &'a Platform,
    /// Pessimistic slack for the spoliation victim-scan check (the
    /// `max_overhead` of [`AuditOptions`]).
    max_overhead: f64,
    ready: Vec<bool>,
    ready_count: usize,
    /// The ready set ordered by ρ, so a pop finds the extreme ready ρ
    /// without walking `ready`. Empty at k ≠ 2, where the ρ rule is off.
    rho_index: RhoIndex,
    running: Vec<Option<Running>>,
    idle: Vec<bool>,
    alive: Vec<bool>,
    /// Spoliated tasks awaiting their restart `TaskStart`; the value is the
    /// victim's expected completion time the restart must strictly beat.
    pending_restart: Vec<Option<f64>>,
    /// Aborts seen in the trace (spoliations, task failures, crash-lost
    /// runs), to reconcile against `schedule.aborted` at the end.
    abort_events: Vec<(u32, u32, f64)>,
    /// Whether the stream carries `QueuePop` events (the independent-task
    /// engines) or only `PolicyDecision::Pick` (the DAG engine), learnt at
    /// the first pop (engines emit one kind of queue record, never both).
    has_pops: bool,
    /// Index of the next event [`Replay::push`] will see.
    index: usize,
    /// Latest event timestamp seen so far.
    now: f64,
}

impl<'a> Replay<'a> {
    pub(crate) fn new(instance: &'a Instance, platform: &'a Platform, max_overhead: f64) -> Self {
        Replay {
            instance,
            platform,
            max_overhead,
            ready: vec![false; instance.len()],
            ready_count: 0,
            rho_index: if platform.k() == 2 {
                RhoIndex::new(instance)
            } else {
                RhoIndex::default()
            },
            running: vec![None; platform.workers()],
            idle: vec![false; platform.workers()],
            alive: vec![true; platform.workers()],
            pending_restart: vec![None; instance.len()],
            abort_events: Vec::new(),
            has_pops: false,
            index: 0,
            now: f64::NEG_INFINITY,
        }
    }

    /// Feed one event: time-monotonicity, the settled-state list property
    /// when time advances, then the per-event rules.
    pub(crate) fn push(&mut self, e: &SchedEvent, report: &mut AuditReport) {
        let i = self.index;
        self.index += 1;
        if matches!(e, SchedEvent::QueuePop { .. }) {
            self.has_pops = true;
        }
        let t = e.time();
        if strictly_less(t, self.now) {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(t),
                worker: None,
                message: format!("event time goes backwards ({t} after {})", self.now),
            });
        }
        if strictly_less(self.now, t) && self.now.is_finite() {
            // Time is about to advance: the state at `now` is final, so
            // the list property must hold in it.
            let now = self.now;
            self.check_no_idle(now, i.saturating_sub(1), report);
        }
        self.now = self.now.max(t);
        self.step(i, e, report);
    }

    /// Lemma 3's list property: once all same-timestamp activity has
    /// settled, no alive worker may sit idle while tasks are ready.
    fn check_no_idle(&self, now: f64, at_event: usize, report: &mut AuditReport) {
        if self.ready_count == 0 {
            return;
        }
        for w in 0..self.idle.len() {
            if self.idle[w] && self.alive[w] {
                report.violations.push(Violation {
                    rule: Rule::NoIdleWithReadyWork,
                    event_index: Some(at_event),
                    time: Some(now),
                    worker: Some(w as u32),
                    message: format!("worker idle while {} task(s) are ready", self.ready_count),
                });
            }
        }
    }

    fn step(&mut self, i: usize, e: &SchedEvent, report: &mut AuditReport) {
        match *e {
            SchedEvent::TaskReady { time, task } => {
                let Some(t) = self.task_index(i, time, task, report) else { return };
                self.set_ready(t, true);
            }
            SchedEvent::QueuePop { time, task, worker, end } => {
                self.check_pop(i, time, task, worker, Some(end), report);
            }
            SchedEvent::PolicyDecision { time, worker, decision } => {
                // When the stream carries QueuePop events those are the
                // authoritative queue record; otherwise (the DAG engine)
                // Pick decisions play that role.
                if !self.has_pops {
                    if let Decision::Pick(task) = decision {
                        self.check_pop(i, time, task, worker, None, report);
                    }
                }
            }
            SchedEvent::TaskStart { time, task, worker, expected_end } => {
                let Some(t) = self.task_index(i, time, task, report) else { return };
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                if let Some(victim_end) = self.pending_restart[t].take() {
                    report.checks += 1;
                    if !strictly_less(expected_end, victim_end) {
                        report.violations.push(Violation {
                            rule: Rule::SpoliationLegality,
                            event_index: Some(i),
                            time: Some(time),
                            worker: Some(worker),
                            message: format!(
                                "spoliation restart of task {task} does not strictly improve \
                                 completion time ({expected_end} vs victim's {victim_end})"
                            ),
                        });
                    }
                } else {
                    // Streams without pop/pick events clear the ready slot
                    // here; with them it was already cleared at the pop.
                    self.set_ready(t, false);
                }
                if self.running[w].is_some() {
                    report.violations.push(Violation {
                        rule: Rule::WellFormed,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!("task {task} starts on a worker that is already busy"),
                    });
                }
                self.running[w] = Some(Running { task: t, start: time, expected_end });
                self.idle[w] = false;
            }
            SchedEvent::TaskComplete { time, task, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                match self.running[w] {
                    Some(run) if run.task == task as usize => {}
                    _ => report.violations.push(Violation {
                        rule: Rule::WellFormed,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!("task {task} completes without a matching start"),
                    }),
                }
                self.running[w] = None;
            }
            SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => {
                self.check_spoliation(i, time, task, victim, thief, wasted_work, report);
            }
            SchedEvent::WorkerIdleBegin { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.idle[w] = true;
                // An idle transition is itself a policy answer of "nothing
                // to do": ready work at this very instant was already
                // announced, so any of it disproves the list property.
                report.checks += 1;
                if self.ready_count > 0 {
                    report.violations.push(Violation {
                        rule: Rule::NoIdleWithReadyWork,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!(
                            "worker goes idle while {} task(s) are ready",
                            self.ready_count
                        ),
                    });
                }
            }
            SchedEvent::WorkerIdleEnd { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.idle[w] = false;
            }
            SchedEvent::WorkerDown { time, worker, lost_task, .. } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.alive[w] = false;
                self.idle[w] = false;
                if let Some(t) = lost_task {
                    self.abort_events.push((t, worker, time));
                }
                self.running[w] = None;
            }
            SchedEvent::WorkerUp { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.alive[w] = true;
            }
            SchedEvent::TaskFailed { time, task, worker, .. } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.abort_events.push((task, worker, time));
                self.running[w] = None;
            }
            SchedEvent::TaskRetry { .. } => {}
        }
    }

    /// Shared checks for `QueuePop` and (in pop-less streams) a `Pick`
    /// decision: the popped task was ready, came off the end matching the
    /// worker's class, and had the extremal acceleration factor for that
    /// end. Equal-ρ ties may resolve either way — that is the documented
    /// tie policy (`QueueTieBreak`) — so only *strictly* better leftovers
    /// are violations.
    ///
    /// The ρ rule costs O(n / 4096) per pop: the popped ρ is compared with
    /// the extreme ready ρ from [`RhoIndex`] (max for GPU pops, min for CPU
    /// pops). `strictly_less` is monotone in each argument, so no ready task
    /// beats the popped one unless the extreme does. Only then does the
    /// O(n) scan of the ready set run, to name the *first* offending task
    /// in id order, which is the one the violation message reports.
    fn check_pop(
        &mut self,
        i: usize,
        time: f64,
        task: u32,
        worker: u32,
        end: Option<QueueEnd>,
        report: &mut AuditReport,
    ) {
        let Some(t) = self.task_index(i, time, task, report) else { return };
        if self.worker_index(i, time, worker, report).is_none() {
            return;
        }
        // The end- and ρ-extremality checks below certify the two-class
        // double-ended queue of Algorithm 1; k ≥ 3 traces use per-pair
        // affinity queues whose pops carry no `QueueEnd` claim, so only the
        // class-agnostic ready-set membership is enforceable there.
        let two_class = self.platform.k() == 2;
        report.checks += if two_class { 3 } else { 1 };
        if !self.ready[t] {
            report.violations.push(Violation {
                rule: Rule::PopOrderConsistency,
                event_index: Some(i),
                time: Some(time),
                worker: Some(worker),
                message: format!("popped task {task} is not in the ready set"),
            });
            return;
        }
        if two_class {
            let kind = self.platform.kind_of(WorkerId(worker));
            // `better(rho, rho_u)`: a ready task of ρ `rho_u` should have
            // been taken instead of one of ρ `rho` from this worker's end.
            let (expected, extreme, better): (_, _, fn(f64, f64) -> bool) = match kind {
                ResourceKind::Gpu => {
                    (QueueEnd::Front, self.rho_index.max(), |r, u| strictly_less(r, u))
                }
                ResourceKind::Cpu => {
                    (QueueEnd::Back, self.rho_index.min(), |r, u| strictly_less(u, r))
                }
            };
            if let Some(end) = end {
                if end != expected {
                    report.violations.push(Violation {
                        rule: Rule::PopOrderConsistency,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!(
                            "{kind} worker popped the {end:?} end (expected {expected:?})"
                        ),
                    });
                }
            }
            let rho_of = |u: u32| self.instance.task(TaskId(u)).accel_factor();
            let rho = rho_of(task);
            let rival = if extreme.is_some_and(|u| better(rho, rho_of(u))) {
                self.first_better(t, rho, better)
            } else {
                None
            };
            // The equivalence proptest swaps the reference scan in here.
            #[cfg(test)]
            let rival = tests::oracle_rival(self, t, kind, rho).unwrap_or(rival);
            if let Some((u, rho_u)) = rival {
                report.violations.push(Violation {
                    rule: Rule::PopOrderConsistency,
                    event_index: Some(i),
                    time: Some(time),
                    worker: Some(worker),
                    message: format!(
                        "{kind} worker popped task {task} (rho {rho}) while task {u} \
                         (rho {rho_u}) was ready"
                    ),
                });
            }
        }
        self.set_ready(t, false);
    }

    /// The lowest-id ready task other than `t` whose ρ is `better` than
    /// `rho`, with that ρ.
    fn first_better(
        &self,
        t: usize,
        rho: f64,
        better: fn(f64, f64) -> bool,
    ) -> Option<(usize, f64)> {
        self.ready.iter().enumerate().filter(|&(u, &ready)| ready && u != t).find_map(|(u, _)| {
            let rho_u = self.instance.task(TaskId(u as u32)).accel_factor();
            better(rho, rho_u).then_some((u, rho_u))
        })
    }

    /// Add `t` to, or drop it from, the ready set and its ρ index.
    fn set_ready(&mut self, t: usize, on: bool) {
        if self.ready[t] == on {
            return;
        }
        self.ready[t] = on;
        if on {
            self.ready_count = self.ready_count.checked_add(1).expect("ready tasks fit in usize");
            self.rho_index.insert(t);
        } else {
            self.ready_count = self.ready_count.checked_sub(1).expect("guarded by self.ready[t]");
            self.rho_index.remove(t);
        }
    }

    /// §3 spoliation preconditions, checked at the `Spoliation` event.
    #[allow(clippy::too_many_arguments)]
    fn check_spoliation(
        &mut self,
        i: usize,
        time: f64,
        task: u32,
        victim: u32,
        thief: u32,
        wasted_work: f64,
        report: &mut AuditReport,
    ) {
        let fail = |message: String, worker: u32, report: &mut AuditReport| {
            report.violations.push(Violation {
                rule: Rule::SpoliationLegality,
                event_index: Some(i),
                time: Some(time),
                worker: Some(worker),
                message,
            });
        };
        report.checks += 4;
        self.abort_events.push((task, victim, time));
        // Spoliation is a last resort: only when nothing is ready.
        if self.ready_count > 0 {
            fail(
                format!("spoliation of task {task} while {} task(s) are ready", self.ready_count),
                thief,
                report,
            );
        }
        let (Some(v), Some(th)) =
            (self.worker_index(i, time, victim, report), self.worker_index(i, time, thief, report))
        else {
            return;
        };
        let victim_class = self.platform.class_of(WorkerId(victim));
        let thief_class = self.platform.class_of(WorkerId(thief));
        if victim_class == thief_class {
            fail(format!("spoliation within one resource class ({victim_class})"), thief, report);
        }
        if self.running[th].is_some() {
            fail("thief is already running a task".into(), thief, report);
        }
        let victim_run = match self.running[v] {
            Some(run) if run.task == task as usize => Some(run),
            _ => {
                fail(format!("victim is not running the spoliated task {task}"), victim, report);
                None
            }
        };
        if let Some(run) = victim_run {
            if !approx_eq(wasted_work, time - run.start) {
                fail(
                    format!(
                        "wasted_work {wasted_work} does not match the victim's elapsed time {}",
                        time - run.start
                    ),
                    victim,
                    report,
                );
            }
            // Victim scan order: candidates on any class other than the
            // thief's finishing *later* than the chosen victim are scanned
            // first, so skipping one is only legal if stealing it would not
            // strictly improve. `max_overhead` makes the recomputed steal
            // time pessimistic (the trace does not say what transfer
            // penalty applied), so this never false-positives.
            for (u, slot) in self.running.iter().enumerate() {
                let Some(u_run) = slot else { continue };
                if u == v || self.platform.class_of(WorkerId(u as u32)) == thief_class {
                    continue;
                }
                let steal = time
                    + self.instance.task(TaskId(u_run.task as u32)).time_on(thief_class)
                    + self.max_overhead;
                if strictly_less(run.expected_end, u_run.expected_end)
                    && strictly_less(steal, u_run.expected_end)
                {
                    fail(
                        format!(
                            "victim scan order: task {} on worker {u} finishes later \
                             ({} vs {}) and was strictly improvable",
                            u_run.task, u_run.expected_end, run.expected_end
                        ),
                        thief,
                        report,
                    );
                    break;
                }
            }
            self.pending_restart[task as usize] = Some(run.expected_end);
        }
        // With an unknown victim run the improvement check is impossible, so
        // no pending entry is recorded and the restart is treated as a plain
        // start.
        self.running[v] = None;
    }

    /// Every abort the trace reports must appear in `schedule.aborted` and
    /// vice versa (same task, worker and end time).
    pub(crate) fn reconcile_aborts(&mut self, schedule: &Schedule, report: &mut AuditReport) {
        report.checks += 1;
        let mut from_schedule: Vec<(u32, u32, f64)> =
            schedule.aborted.iter().map(|r| (r.task.0, r.worker.0, r.end)).collect();
        let key = |x: &(u32, u32, f64)| (x.0, x.1, F64Ord::new(x.2));
        from_schedule.sort_by_key(key);
        self.abort_events.sort_by_key(key);
        let matches = from_schedule.len() == self.abort_events.len()
            && from_schedule
                .iter()
                .zip(&self.abort_events)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && approx_eq(a.2, b.2));
        if !matches {
            report.violations.push(Violation {
                rule: Rule::SpoliationLegality,
                event_index: None,
                time: None,
                worker: None,
                message: format!(
                    "aborted-work accounting mismatch: schedule records {} aborted run(s), \
                     trace reports {} abort event(s)",
                    from_schedule.len(),
                    self.abort_events.len()
                ),
            });
        }
    }

    fn task_index(
        &self,
        i: usize,
        time: f64,
        task: u32,
        report: &mut AuditReport,
    ) -> Option<usize> {
        if (task as usize) < self.instance.len() {
            Some(task as usize)
        } else {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(time),
                worker: None,
                message: format!("event references unknown task {task}"),
            });
            None
        }
    }

    fn worker_index(
        &self,
        i: usize,
        time: f64,
        worker: u32,
        report: &mut AuditReport,
    ) -> Option<usize> {
        if (worker as usize) < self.platform.workers() {
            Some(worker as usize)
        } else {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(time),
                worker: Some(worker),
                message: format!("event references unknown worker {worker}"),
            });
            None
        }
    }
}

/// The ready tasks ordered by ρ, for the pop-order rule's extreme lookup.
///
/// Every task with a finite ρ gets a rank from one sort by `(ρ, id)`; the
/// ready ones are bits in a two-level occupancy bitmap over those ranks,
/// so insert and remove are O(1) and min/max are O(n / 4096). Tasks whose
/// ρ is not finite are left out: `strictly_less` never counts a NaN or
/// infinite ρ as better (the tolerance becomes infinite or NaN), so they
/// can never be the rival a pop is judged against.
#[derive(Default)]
struct RhoIndex {
    /// Rank of each task, or [`RhoIndex::UNRANKED`] for a non-finite ρ.
    rank: Vec<u32>,
    /// The task at each rank: ascending ρ, ties by ascending id.
    by_rank: Vec<u32>,
    /// Bit `r % 64` of word `r / 64` is set while the task of rank `r` is
    /// ready.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` is set while `words[w] != 0`.
    summary: Vec<u64>,
}

impl RhoIndex {
    const UNRANKED: u32 = u32::MAX;

    fn new(instance: &Instance) -> Self {
        let rho_of = |id: u32| instance.task(TaskId(id)).accel_factor();
        let mut by_rank = Vec::with_capacity(instance.len());
        by_rank.extend((0..instance.len() as u32).filter(|&id| rho_of(id).is_finite()));
        by_rank.sort_unstable_by_key(|&id| (F64Ord::new(rho_of(id)), id));
        let mut rank = vec![Self::UNRANKED; instance.len()];
        for (r, &id) in by_rank.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let words = vec![0; by_rank.len().div_ceil(64)];
        RhoIndex { rank, by_rank, summary: vec![0; words.len().div_ceil(64)], words }
    }

    fn insert(&mut self, task: usize) {
        let Some(r) = self.rank_of(task) else { return };
        let w = r / 64;
        self.words[w] |= 1 << (r % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    fn remove(&mut self, task: usize) {
        let Some(r) = self.rank_of(task) else { return };
        let w = r / 64;
        self.words[w] &= !(1 << (r % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
    }

    fn rank_of(&self, task: usize) -> Option<usize> {
        self.rank.get(task).filter(|&&r| r != Self::UNRANKED).map(|&r| r as usize)
    }

    /// The ready task of smallest ρ.
    fn min(&self) -> Option<u32> {
        let (s, bits) = self.summary.iter().enumerate().find(|(_, &b)| b != 0)?;
        let w = s * 64 + bits.trailing_zeros() as usize;
        Some(self.by_rank[w * 64 + self.words[w].trailing_zeros() as usize])
    }

    /// The ready task of largest ρ.
    fn max(&self) -> Option<u32> {
        let (s, bits) = self.summary.iter().enumerate().rfind(|(_, &b)| b != 0)?;
        let w = s * 64 + 63 - bits.leading_zeros() as usize;
        Some(self.by_rank[w * 64 + 63 - self.words[w].leading_zeros() as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_from_events;
    use heteroprio_core::heteroprio::{heteroprio_traced, HeteroPrioConfig};
    use heteroprio_core::{Instance, Platform, Task};
    use heteroprio_trace::VecSink;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// While set, [`Replay::check_pop`] judges the ρ rule with
        /// [`linear_scan`] instead of the ρ index.
        static LINEAR_ORACLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Reference pop-order rule: walk the whole ready set on every pop and
    /// report the first strictly better task. The ρ index must agree.
    fn linear_scan(
        instance: &Instance,
        ready: &[bool],
        t: usize,
        kind: ResourceKind,
        rho: f64,
    ) -> Option<(usize, f64)> {
        for (u, &ready) in ready.iter().enumerate() {
            if !ready || u == t {
                continue;
            }
            let rho_u = instance.task(TaskId(u as u32)).accel_factor();
            let better = match kind {
                ResourceKind::Gpu => strictly_less(rho, rho_u),
                ResourceKind::Cpu => strictly_less(rho_u, rho),
            };
            if better {
                return Some((u, rho_u));
            }
        }
        None
    }

    /// `Some(linear_scan(..))` while [`LINEAR_ORACLE`] is set.
    pub(super) fn oracle_rival(
        replay: &Replay<'_>,
        t: usize,
        kind: ResourceKind,
        rho: f64,
    ) -> Option<Option<(usize, f64)>> {
        LINEAR_ORACLE
            .with(Cell::get)
            .then(|| linear_scan(replay.instance, &replay.ready, t, kind, rho))
    }

    fn fig1_instance() -> Instance {
        // The running example of the paper's Figure 1: ρ spans both sides
        // of 1 so both classes get work and a spoliation occurs.
        Instance::from_times(&[
            (8.0, 1.0),
            (4.0, 1.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (3.0, 3.0),
            (6.0, 1.5),
        ])
    }

    fn traced_run(inst: &Instance, plat: &Platform) -> (Schedule, Vec<SchedEvent>) {
        let mut sink = VecSink::new();
        let res = heteroprio_traced(inst, plat, &HeteroPrioConfig::new(), &mut sink);
        (res.schedule, sink.events)
    }

    #[test]
    fn fault_free_run_audits_clean() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, events) = traced_run(&inst, &plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report.is_clean(), "unexpected violations:\n{}", report.render());
        assert!(report.certificate.as_ref().is_some_and(|c| c.enforced));
        assert!(report.skipped.is_empty(), "nothing should be skipped: {:?}", report.skipped);
    }

    #[test]
    fn reconstructed_trace_skips_queue_rules() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, _) = traced_run(&inst, &plat);
        let events = schedule.to_events(&plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report.is_clean(), "{}", report.render());
        let skipped: Vec<Rule> = report.skipped.iter().map(|(r, _)| *r).collect();
        assert!(skipped.contains(&Rule::PopOrderConsistency));
        assert!(skipped.contains(&Rule::NoIdleWithReadyWork));
    }

    #[test]
    fn generic_policy_skips_queue_rules_but_checks_certificates() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, events) = traced_run(&inst, &plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::generic());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.certificate.as_ref().is_some_and(|c| !c.enforced));
        assert_eq!(report.skipped.len(), 3);
    }

    #[test]
    fn inflated_makespan_fails_the_ratio_certificate() {
        // One task of time 1 on each class, scheduled absurdly late: the
        // schedule is ill-formed *and* busts the φ bound.
        use heteroprio_core::TaskRun;
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let schedule = Schedule {
            runs: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 21.0, end: 22.0 }],
            aborted: vec![],
        };
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::independent());
        assert!(report.violations.iter().any(|v| v.rule == Rule::ApproxRatioCertificate));
        let cert = report.certificate.expect("certificate reported");
        assert!(cert.ratio > 20.0);
    }

    #[test]
    fn forged_spoliation_with_ready_work_fires() {
        let inst = Instance::from_times(&[(4.0, 1.0), (4.0, 1.0)]);
        let plat = Platform::new(1, 1);
        // Hand-forged stream: task 1 is ready, yet worker 0 spoliates.
        let events = vec![
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskReady { time: 0.0, task: 1 },
            SchedEvent::QueuePop { time: 0.0, task: 0, worker: 0, end: QueueEnd::Back },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 0, expected_end: 4.0 },
            SchedEvent::Spoliation { time: 1.0, task: 0, victim: 0, thief: 1, wasted_work: 1.0 },
        ];
        let schedule = Schedule::default();
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::SpoliationLegality && v.message.contains("ready")));
    }

    /// A k=2 task whose ρ is drawn to collide: exact ties among four base
    /// values, pairs inside and just outside the 1e-9 tolerance band, and
    /// the degenerate ρ of 0, +∞ and NaN (raw times, never validated).
    fn colliding_task(shape: u32, base: u32, scale: u32) -> Task {
        let rho = [0.25, 1.0, 2.0, 4.0][base as usize % 4];
        let q = f64::from(scale);
        let times = match shape {
            0..=3 => [rho * q, q],
            4 => [rho * (1.0 + 4e-10) * q, q],
            5 => [rho * (1.0 - 4e-10) * q, q],
            6 => [rho * (1.0 + 3e-9) * q, q],
            7 => [0.0, q],
            8 => [q, 0.0],
            _ => [0.0, 0.0],
        };
        Task::from_raw_times(&times, 0.0)
    }

    /// The stream styles the pop-order rule sees.
    #[derive(Clone, Copy)]
    enum Style {
        /// Independent-task engines: `QueuePop` records.
        Pops,
        /// The DAG engine: `PolicyDecision::Pick` records, no pops.
        Picks,
        /// Neither: `TaskStart` clears the ready slot itself.
        StartsOnly,
    }

    /// Interpret random op tuples as an event stream: announcements,
    /// pops (extremal, non-extremal, wrong-end, not-ready, unknown ids),
    /// starts with and without a preceding pop, and completions.
    fn random_stream(
        instance: &Instance,
        platform: &Platform,
        style: Style,
        ops: &[(u32, u32, u32, u32, u32)],
    ) -> Vec<SchedEvent> {
        let n = instance.len() as u32;
        let workers = platform.workers() as u32;
        let rho = |t: u32| instance.task(TaskId(t)).accel_factor();
        let mut ready: Vec<u32> = Vec::new();
        let mut time = 0.0;
        let mut events = Vec::new();
        for &(op, a, b, c, d) in ops {
            if c == 0 {
                time += 1.0;
            }
            let worker = d % (workers + u32::from(b == 7));
            match op {
                0..=2 => {
                    let task = a % n;
                    if !ready.contains(&task) {
                        ready.push(task);
                    }
                    events.push(SchedEvent::TaskReady { time, task });
                }
                3..=5 => {
                    let finite = ready.iter().copied().filter(|&t| rho(t).is_finite());
                    let gpu =
                        worker < workers && platform.kind_of(WorkerId(worker)) == ResourceKind::Gpu;
                    let extreme = if gpu {
                        finite.max_by(|&x, &y| rho(x).total_cmp(&rho(y)))
                    } else {
                        finite.min_by(|&x, &y| rho(x).total_cmp(&rho(y)))
                    };
                    let task = match (b, extreme) {
                        (0..=2, Some(t)) => t,
                        (3..=5, _) if !ready.is_empty() => ready[a as usize % ready.len()],
                        (6, _) => n,
                        _ => a % n,
                    };
                    ready.retain(|&t| t != task);
                    match style {
                        Style::Pops => {
                            let end = if a % 2 == 0 { QueueEnd::Front } else { QueueEnd::Back };
                            events.push(SchedEvent::QueuePop { time, task, worker, end });
                        }
                        Style::Picks => {
                            let decision = Decision::Pick(task);
                            events.push(SchedEvent::PolicyDecision { time, worker, decision });
                        }
                        Style::StartsOnly => {}
                    }
                    let expected_end = time + 1.0;
                    events.push(SchedEvent::TaskStart { time, task, worker, expected_end });
                }
                6 => {
                    let task = a % n;
                    ready.retain(|&t| t != task);
                    let expected_end = time + 1.0;
                    events.push(SchedEvent::TaskStart { time, task, worker, expected_end });
                }
                _ => events.push(SchedEvent::TaskComplete { time, task: a % n, worker }),
            }
        }
        events
    }

    fn with_oracle<T>(on: bool, f: impl FnOnce() -> T) -> T {
        LINEAR_ORACLE.with(|o| o.set(on));
        let out = f();
        LINEAR_ORACLE.with(|o| o.set(false));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The ρ index is an exact stand-in for the linear scan it replaced:
        // the same violations (rule, event, time, worker, message) and the
        // same check count, on every stream style.
        #[test]
        fn rho_index_agrees_with_the_linear_scan(
            tasks in prop::collection::vec((0u32..10, 0u32..4, 1u32..=3), 1..=24),
            cpus in 1usize..=3,
            gpus in 1usize..=3,
            style in 0u32..3,
            ops in prop::collection::vec((0u32..8, 0u32..64, 0u32..8, 0u32..3, 0u32..8), 0..=96),
        ) {
            let instance = Instance::from_tasks(
                tasks.iter().map(|&(shape, base, scale)| colliding_task(shape, base, scale)).collect(),
            );
            let platform = Platform::new(cpus, gpus);
            let style = [Style::Pops, Style::Picks, Style::StartsOnly][style as usize];
            let events = random_stream(&instance, &platform, style, &ops);
            // The streams carry unknown worker ids, which the schedule-level
            // well-formedness checks do not take; the rule under test only
            // reads the stream.
            let schedule = Schedule::default();
            let opts = AuditOptions::dag_run(0.0, Some(1.0));
            let run = |on| with_oracle(on, || audit(&instance, &platform, &schedule, &events, &opts));
            let (fast, oracle) = (run(false), run(true));
            prop_assert_eq!(&fast.violations, &oracle.violations);
            prop_assert_eq!(fast.checks, oracle.checks);
        }
    }

    #[test]
    fn generated_streams_reach_the_rho_rule() {
        // Guards the equivalence proptest against vacuity: a generated
        // non-extremal GPU pop does produce the ρ rule's violation.
        let instance = Instance::from_tasks(vec![
            colliding_task(0, 3, 1),
            colliding_task(0, 0, 1),
            colliding_task(8, 0, 1),
        ]);
        let platform = Platform::new(1, 1);
        let ops = [(0, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 2, 0, 1, 0), (3, 1, 3, 1, 1)];
        let events = random_stream(&instance, &platform, Style::Pops, &ops);
        let schedule = schedule_from_events(&events);
        let opts = AuditOptions::dag_run(0.0, Some(1.0));
        let report = audit(&instance, &platform, &schedule, &events, &opts);
        assert!(
            report.violations.iter().any(|v| v.message.contains("while task 0 (rho 4) was ready")),
            "{}",
            report.render()
        );
    }
}
