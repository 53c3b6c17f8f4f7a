//! The CLI's subcommand implementations, kept binary-free so they can be
//! unit-tested. Each command returns the text it would print.

use crate::format::{parse_instance_k, serialize_instance};
use heteroprio_audit::{audit, schedule_from_events, AuditOptions, AuditReport, StreamAuditor};
use heteroprio_bounds::{combined_lower_bound, optimal_makespan, MAX_EXACT_TASKS};
use heteroprio_core::gantt::to_svg;
use heteroprio_core::kernel::{metric, Checkpoints, Resume, Run};
use heteroprio_core::{
    journaled, ClassTable, CrashPlan, FaultPlan, FileCheckpointStore, Instance, MeteredJournal,
    RetryPolicy, RunError,
};
use heteroprio_metrics::{InMemoryRegistry, MetricsRegistry, NullRegistry};
use heteroprio_runtime::{ExecError, Runtime};
use heteroprio_schedulers::{HeftVariant, IndepAlgo, Scheduler};
use heteroprio_simulator::FaultSpec;
use heteroprio_taskgraph::Factorization;
use heteroprio_trace::{
    chrome_trace, jsonl, parse_jsonl, ChromeTraceOptions, FileJournal, Journal, NullSink,
    SchedEvent, TeeSink, TraceSink, TraceSummary, VecSink,
};
use heteroprio_workloads::{independent_instance, ChameleonTiming};
use std::fmt::Write as _;
use std::ops::ControlFlow::{self, Break, Continue};

/// Extra outputs a command may produce alongside its text report.
#[derive(Clone, Debug, Default)]
pub struct OutputOpts {
    /// Render the schedule as an SVG Gantt chart to this file.
    pub svg: Option<String>,
    /// Export the scheduler's event stream to this file. A `.jsonl`
    /// extension selects the JSONL exporter; anything else gets Chrome
    /// `trace_event` JSON (open in <https://ui.perfetto.dev>).
    pub trace: Option<String>,
    /// Append a per-worker busy/idle/aborted summary to the report.
    pub summary: bool,
    /// Audit the run against the paper's invariants (see
    /// [`heteroprio_audit`]) and fail if any rule is violated.
    pub audit: bool,
    /// Run the kernel under an [`InMemoryRegistry`] and append the
    /// counter/gauge/histogram report. The trace-event counter is
    /// cross-checked against [`TraceSummary::events_recorded`], so a
    /// sink that drops events fails loudly instead of silently.
    pub metrics: bool,
    /// Journaling, checkpointing and crash/resume options.
    pub durable: DurableOpts,
}

impl OutputOpts {
    fn wants_events(&self) -> bool {
        self.trace.is_some() || self.summary || self.audit || self.metrics
    }
}

/// Durability options (`--journal`, `--crash-at`, `--snapshot`,
/// `--checkpoint-every`) shared by `schedule`, `dag` and the `resume`
/// subcommand.
#[derive(Clone, Debug, Default)]
pub struct DurableOpts {
    /// `--journal PATH`: append the event stream to a crash-durable
    /// journal as the kernel emits it.
    pub journal: Option<String>,
    /// `--crash-at N`: deterministically kill the run right after the Nth
    /// journaled event (a crash-injection harness, not an error).
    pub crash_at: Option<u64>,
    /// `--snapshot PATH`: checkpoint the kernel state to this file while
    /// running; on `resume`, load it to skip replaying the full journal.
    pub snapshot: Option<String>,
    /// `--checkpoint-every N`: events between checkpoints (default 64).
    pub checkpoint_every: Option<u64>,
    /// Set by the `resume` subcommand: recover the journal (and snapshot,
    /// if given) and continue the interrupted run instead of starting over.
    pub resume: bool,
}

impl DurableOpts {
    pub fn active(&self) -> bool {
        self.journal.is_some() || self.crash_at.is_some() || self.resume
    }
}

/// Fault-injection options for the `dag` command (`--faults`,
/// `--exec-jitter`, `--retry-max`, `--fault-seed`).
#[derive(Clone, Debug, Default)]
pub struct FaultOpts {
    /// `--faults SPEC`; see [`heteroprio_simulator::FaultSpec`] for the
    /// grammar (e.g. `gpu@25%`, `w3@10+5,fail=0.05,seed=7`).
    pub spec: Option<String>,
    /// `--exec-jitter J`: multiplicative log-uniform runtime noise.
    pub exec_jitter: f64,
    /// `--retry-max K`: attempts allowed per task (default 3).
    pub retry_max: Option<u32>,
    /// `--fault-seed S`: overrides a `seed=` clause in the spec.
    pub seed: Option<u64>,
}

impl FaultOpts {
    fn active(&self) -> bool {
        // lint: allow(float-eq): exact sentinel — 0.0 means "jitter off", set literally by
        // the flag parser default, never produced by arithmetic.
        self.spec.is_some() || self.exec_jitter != 0.0
    }

    /// Build the concrete plan. `baseline` runs a fault-free execution on
    /// demand when the spec uses `%` times; returns the plan and the
    /// baseline makespan if one was computed.
    fn plan(
        &self,
        table: &ClassTable,
        baseline: impl FnOnce() -> Result<f64, String>,
    ) -> Result<(FaultPlan, Option<f64>), String> {
        let spec = FaultSpec::parse_with(self.spec.as_deref().unwrap_or(""), Some(table))
            .map_err(|e| e.to_string())?;
        let base = if spec.needs_baseline() { Some(baseline()?) } else { None };
        let worker_faults = spec.resolve(&table.platform(), base).map_err(|e| e.to_string())?;
        let mut retry = RetryPolicy::DEFAULT;
        if let Some(k) = self.retry_max {
            retry.max_attempts = k;
        }
        let plan = FaultPlan {
            worker_faults,
            task_failure_prob: spec.task_failure_prob.unwrap_or(0.0),
            exec_jitter: self.exec_jitter,
            seed: self.seed.or(spec.seed).unwrap_or(0),
            retry,
        };
        Ok((plan, base))
    }
}

/// What a command produced: the printed report plus optional artifacts.
#[derive(Clone, Debug)]
pub struct CmdOutput {
    pub report: String,
    /// `(path, contents)` of the requested SVG and trace exports.
    pub svg: Option<(String, String)>,
    pub trace: Option<(String, String)>,
}

/// Resolve the worker platform the user asked for: either a `--platform`
/// spec (`name=count[,name=count...]`) or the classic `--cpus`/`--gpus`
/// pair, which stays a first-class alias for `cpu=M,gpu=N`.
pub fn parse_platform_args(
    spec: Option<&str>,
    cpus: Option<usize>,
    gpus: Option<usize>,
) -> Result<ClassTable, String> {
    match (spec, cpus, gpus) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            Err("--platform replaces --cpus/--gpus; give one or the other".to_string())
        }
        (Some(spec), None, None) => ClassTable::parse(spec).map_err(|e| e.to_string()),
        (None, Some(m), Some(n)) if m > 0 && n > 0 => {
            ClassTable::cpu_gpu(m, n).map_err(|e| e.to_string())
        }
        _ => Err("either --platform name=count,... or both --cpus and --gpus \
                  (positive) are required"
            .to_string()),
    }
}

/// `"2 CPUs + 1 GPUs"`-style rendering of the platform for report headers.
fn describe(table: &ClassTable) -> String {
    table
        .classes()
        .map(|c| format!("{} {}s", table.count(c), table.name(c).to_uppercase()))
        .collect::<Vec<_>>()
        .join(" + ")
}

fn worker_names(table: &ClassTable) -> Vec<String> {
    let platform = table.platform();
    let mut names = Vec::with_capacity(platform.workers());
    for c in table.classes() {
        for i in 0..table.count(c) {
            names.push(format!("{} {i}", table.name(c).to_uppercase()));
        }
    }
    names
}

fn render_trace(events: &[SchedEvent], path: &str, opts: &ChromeTraceOptions) -> String {
    if path.ends_with(".jsonl") {
        jsonl(events)
    } else {
        chrome_trace(events, opts)
    }
}

/// Human-readable digest of a [`TraceSummary`], appended to reports under
/// `--summary`.
fn format_summary(summary: &TraceSummary, table: &ClassTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- trace summary ({} events) --", summary.events_recorded());
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "worker", "busy", "idle", "aborted", "done", "spol"
    );
    let platform = table.platform();
    let names = worker_names(table);
    for w in platform.all_workers() {
        let s = &summary.workers[w.index()];
        let _ = writeln!(
            out,
            "{:<8} {:>10.4} {:>10.4} {:>10.4} {:>6} {:>6}",
            names[w.index()],
            s.busy,
            s.idle,
            s.aborted,
            s.completed,
            s.spoliated
        );
    }
    let _ = writeln!(
        out,
        "spoliations : {} (wasted work {:.4})",
        summary.spoliation_count, summary.wasted_work
    );
    if summary.worker_failures > 0 {
        let downtime: f64 = summary.workers.iter().map(|w| w.downtime).sum();
        let _ = writeln!(
            out,
            "worker down : {} failures, {} recoveries, total downtime {:.4}",
            summary.worker_failures, summary.worker_recoveries, downtime
        );
    }
    if summary.task_failures > 0 || summary.retries > 0 {
        let _ = writeln!(
            out,
            "task faults : {} failures, {} retries",
            summary.task_failures, summary.retries
        );
    }
    if summary.lost_work > 0.0 {
        let _ = writeln!(out, "lost work   : {:.4}", summary.lost_work);
    }
    match summary.first_idle {
        Some(t) => {
            let _ = writeln!(out, "first idle  : {t:.4}");
        }
        None => {
            let _ = writeln!(out, "first idle  : never");
        }
    }
    if summary.queue_pops_front + summary.queue_pops_back > 0 {
        let _ = writeln!(
            out,
            "queue pops  : {} front (GPU), {} back (CPU)",
            summary.queue_pops_front, summary.queue_pops_back
        );
    }
    let _ = writeln!(out, "ready depth : peak {}", summary.max_ready_depth());
    out
}

/// The `--metrics` tail of a report: cross-check the kernel's own
/// trace-event counter against what the sink actually recorded (a mismatch
/// means events were dropped somewhere between the emission funnel and the
/// summary), then append the counter/histogram rendering.
fn metrics_report(registry: &InMemoryRegistry, summary: &TraceSummary) -> Result<String, String> {
    let snapshot = registry.snapshot();
    let counted = snapshot.counter(metric::TRACE_EVENTS_TOTAL).unwrap_or(0);
    let recorded = summary.events_recorded() as u64;
    if counted != recorded {
        return Err(format!(
            "metrics cross-check failed: kernel counted {counted} trace events \
             but the sink recorded {recorded} (events were dropped)"
        ));
    }
    Ok(snapshot.render())
}

/// A finished run: the scheduler's result, the event stream (empty unless
/// the flags need it) and the report's notes on the journal and checkpoint.
struct Ran<T> {
    value: T,
    events: Vec<SchedEvent>,
    notes: Vec<String>,
}

/// The one place `schedule` and `dag` build their kernel [`Run`] from the
/// flags: the event recorder, teed into `observer` (a streaming auditor,
/// say), the metrics registry and, under a durable flag, the metered
/// journal — created, or recovered with its checkpoint on `resume`, and
/// committed by [`journaled`] — with the crash plan, checkpoints and
/// recovered record. `run` executes the spec. An injected crash breaks out
/// with the crash report, the command's whole output. A fresh run that
/// fails before journaling an event leaves no journal file.
fn journaled_run<T, E: Into<ExecError>>(
    opts: &OutputOpts,
    metrics: &dyn MetricsRegistry,
    observer: Option<&mut dyn TraceSink>,
    run: impl FnOnce(Run<'_, &mut dyn TraceSink, dyn MetricsRegistry + '_>) -> Result<T, E>,
) -> Result<ControlFlow<CmdOutput, Ran<T>>, String> {
    let d = &opts.durable;
    let (mut events, mut null, mut tee) = (VecSink::new(), NullSink, None);
    let recorder: &mut dyn TraceSink = if opts.wants_events() { &mut events } else { &mut null };
    let mut sink: &mut dyn TraceSink = match observer {
        Some(observer) => tee.insert(TeeSink(recorder, observer)),
        None => recorder,
    };
    if !d.active() {
        let value = run(Run::new(&mut sink, metrics)).map_err(|e| e.into().to_string())?;
        return Ok(Continue(Ran { value, events: events.into_events(), notes: Vec::new() }));
    }
    let path = d.journal.as_deref().ok_or("durable runs need --journal PATH")?;
    let mut notes = Vec::new();
    let (journal, recovered, snapshot) = if d.resume {
        let (journal, recovered) = open_journal(path, &mut notes)?;
        (journal, recovered, load_snapshot(d.snapshot.as_deref(), &mut notes))
    } else {
        (FileJournal::create(path).map_err(|e| format!("{path}: {e}"))?, Vec::new(), None)
    };
    let mut journal = MeteredJournal::new(journal, metrics);
    let mut store = d.snapshot.as_deref().filter(|_| !d.resume).map(FileCheckpointStore::new);
    let every = d.checkpoint_every.unwrap_or(64);
    let result = journaled(&mut journal, &mut sink, |tee| {
        let mut sink: &mut dyn TraceSink = tee;
        run(Run {
            crash: d.crash_at.map_or(CrashPlan::NONE, CrashPlan::at_event),
            checkpoints: store.as_mut().map(|store| Checkpoints { every, store }),
            resume: d.resume.then_some(Resume { journal: &recovered, snapshot: snapshot.as_ref() }),
            ..Run::new(&mut sink, metrics)
        })
    });
    let failure = match result {
        Ok(Ok(value)) => {
            if d.resume {
                notes.push(format!(
                    "resumed    : replayed {} journaled events, continued to {} total",
                    recovered.len(),
                    journal.len()
                ));
            } else {
                notes.push(format!("journal    : {path} ({} records)", journal.len()));
                notes.extend(store.as_mut().map(checkpoint_note));
            }
            return Ok(Continue(Ran { value, events: events.into_events(), notes }));
        }
        Ok(Err(e)) => match e.into() {
            ExecError::Run(RunError::Crashed { time, events }) => {
                let report = crash_report(path, time, events, store.as_mut());
                return Ok(Break(CmdOutput { report, svg: None, trace: None }));
            }
            e => e.to_string(),
        },
        Err(e) => e.to_string(),
    };
    if d.resume {
        return Err(format!("resume failed: {failure}"));
    }
    if journal.len() == 0 {
        drop(journal);
        let _ = std::fs::remove_file(path);
    }
    Err(failure)
}

/// The report printed when `--crash-at` fires: where the run died and what
/// survived on disk.
fn crash_report(
    journal_path: &str,
    time: f64,
    events: u64,
    store: Option<&mut FileCheckpointStore>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "simulated crash after event {events} (t={time:.4})");
    let _ = writeln!(out, "journal    : {journal_path} ({events} records)");
    if let Some(store) = store {
        let _ = writeln!(out, "{}", checkpoint_note(store));
    }
    let _ = writeln!(out, "recover with the `resume` subcommand (same inputs and --algo).");
    out
}

/// One report line on the fate of the checkpoint file. Checkpointing is
/// best-effort (the journal stays authoritative), so save errors are
/// reported, not fatal.
fn checkpoint_note(store: &mut FileCheckpointStore) -> String {
    let path = store.path().display().to_string();
    match store.take_error() {
        Some(e) => format!("checkpoint : {path} FAILED ({e}); recovery will replay the journal"),
        None => format!("checkpoint : {path} ({} saves)", store.saves),
    }
}

/// Load the snapshot for a resume, demoting a damaged or missing
/// checkpoint to a note (recovery then replays the whole journal).
fn load_snapshot(
    path: Option<&str>,
    notes: &mut Vec<String>,
) -> Option<heteroprio_core::KernelSnapshot> {
    let path = path?;
    let (snap, damage) = FileCheckpointStore::load(path);
    if let Some(why) = damage {
        notes.push(format!("checkpoint : {path} unusable ({why}); replaying the full journal"));
    } else if snap.is_none() {
        notes.push(format!("checkpoint : {path} missing; replaying the full journal"));
    }
    snap
}

/// Open a journal for resuming, reporting recovered damage as a note.
fn open_journal(
    path: &str,
    notes: &mut Vec<String>,
) -> Result<(FileJournal, Vec<SchedEvent>), String> {
    let (journal, prefix, damage) = FileJournal::open(path).map_err(|e| format!("{path}: {e}"))?;
    if let Some(d) = damage {
        notes.push(format!(
            "journal    : {path} damaged at byte {} ({}); kept {} valid records, \
             dropped {} bytes",
            d.offset, d.detail, d.valid_records, d.lost_bytes
        ));
    }
    Ok((journal, prefix))
}

/// Parse an instance file for `table`'s classes; empty is an error.
fn read_instance(text: &str, table: &ClassTable) -> Result<Instance, String> {
    let instance = parse_instance_k(text, table.k()).map_err(|e| e.to_string())?;
    if instance.is_empty() {
        return Err("instance is empty".to_string());
    }
    Ok(instance)
}

/// `schedule`: run one scheduler on an instance file's contents.
pub fn cmd_schedule(
    text: &str,
    table: &ClassTable,
    algo: IndepAlgo,
    opts: &OutputOpts,
) -> Result<CmdOutput, String> {
    let platform = &table.platform();
    let instance = read_instance(text, table)?;
    let registry = InMemoryRegistry::new();
    let metrics: &dyn MetricsRegistry = if opts.metrics { &registry } else { &NullRegistry };
    let mut auditor = opts.audit.then(|| StreamAuditor::new(&instance, platform, audit_opts(algo)));
    let observer = auditor.as_mut().map(|a| a as &mut dyn TraceSink);
    let ran = journaled_run(opts, metrics, observer, |spec| {
        algo.run(&instance, platform, HeftVariant::Insertion, spec)
    })?;
    let Ran { value: outcome, events, notes } = match ran {
        Continue(ran) => ran,
        Break(crashed) => return Ok(crashed),
    };
    let schedule = outcome.schedule;
    let audit = auditor.map(|auditor| auditor.finish(&schedule));
    schedule
        .validate(&instance, platform)
        .map_err(|e| format!("internal error: invalid schedule: {e}"))?;
    let lb = combined_lower_bound(&instance, platform);
    let mut out = String::new();
    let _ = writeln!(out, "{} tasks on {}, algorithm {algo:?}", instance.len(), describe(table));
    for note in &notes {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(out, "makespan    : {:.4}", schedule.makespan());
    let _ = writeln!(out, "lower bound : {lb:.4}");
    let _ = writeln!(out, "ratio       : {:.4}", schedule.makespan() / lb);
    let _ = writeln!(out, "spoliations : {}", schedule.spoliation_count());
    for class in table.classes() {
        let _ = writeln!(
            out,
            "{} busy {:.4}, idle {:.4}",
            table.name(class).to_uppercase(),
            schedule.busy_time(platform, class),
            schedule.idle_time(platform, class, schedule.makespan()),
        );
    }
    out.push_str(&schedule.render_ascii(platform, 72));
    let summary = TraceSummary::from_events(platform.workers(), &events);
    if opts.summary {
        out.push_str(&format_summary(&summary, table));
    }
    if opts.metrics {
        out.push_str(&metrics_report(&registry, &summary)?);
    }
    if let Some(report) = &audit {
        out.push_str(&finish_audit(report)?);
    }
    let trace = opts.trace.as_ref().map(|path| {
        let chrome_opts =
            ChromeTraceOptions { worker_names: worker_names(table), task_names: Vec::new() };
        (path.clone(), render_trace(&events, path, &chrome_opts))
    });
    let svg = opts.svg.clone().map(|path| (path, to_svg(&schedule, &instance, platform)));
    Ok(CmdOutput { report: out, svg, trace })
}

/// The one place an audit outcome turns into CLI text: a clean report is
/// rendered into the command output, a dirty one aborts the command with
/// the same rendering. Shared by the `audit` subcommand and the
/// `schedule`/`dag` `--audit` flags.
fn finish_audit(report: &AuditReport) -> Result<String, String> {
    if report.is_clean() {
        Ok(report.render())
    } else {
        Err(format!("audit failed:\n{}", report.render()))
    }
}

/// Audit options matching what an independent-task algorithm guarantees.
fn audit_opts(algo: IndepAlgo) -> AuditOptions {
    match algo {
        IndepAlgo::HeteroPrio => AuditOptions::independent(),
        // The queue discipline still applies without spoliation, but the
        // theorem constants are proven for full HeteroPrio only (§3 shows
        // the ratio is unbounded otherwise) — report, don't enforce.
        IndepAlgo::HeteroPrioNoSpoliation => {
            AuditOptions { dag: true, ..AuditOptions::independent() }
        }
        // DualHP gets its informational partition/no-steal rules on top of
        // the generic certificate checks.
        IndepAlgo::DualHp => AuditOptions::dualhp(),
        _ => AuditOptions::generic(),
    }
}

/// `audit`: check a recorded run — or a fresh traced one — against the
/// paper's invariants. With `trace_text` (a JSONL export), the schedule is
/// rebuilt from the events and audited as-is; otherwise the algorithm runs
/// under `--audit`.
pub fn cmd_audit(
    text: &str,
    table: &ClassTable,
    algo: IndepAlgo,
    trace_text: Option<&str>,
) -> Result<String, String> {
    let platform = &table.platform();
    let instance = read_instance(text, table)?;
    let report = match trace_text {
        Some(t) => {
            let events = parse_jsonl(t)?;
            audit(&instance, platform, &schedule_from_events(&events), &events, &audit_opts(algo))
        }
        None => {
            let mut auditor = StreamAuditor::new(&instance, platform, audit_opts(algo));
            let spec = Run::new(&mut auditor, &NullRegistry);
            let outcome = algo
                .run(&instance, platform, HeftVariant::Insertion, spec)
                .map_err(|e| e.to_string())?;
            auditor.finish(&outcome.schedule)
        }
    };
    finish_audit(&report)
}

/// `export`: the JSONL view of a journal, HPJL1 or HPJL2 alike — the
/// lines `--trace FILE.jsonl` writes for the same run. A damaged journal
/// is an error naming the typed damage, and nothing is exported.
pub fn cmd_export(path: &str) -> Result<String, String> {
    match FileJournal::recover(path).map_err(|e| format!("{path}: {e}"))? {
        (events, None) => Ok(jsonl(&events)),
        (_, Some(damage)) => Err(format!("{path}: journal damaged: {damage}")),
    }
}

/// `bounds`: print every lower bound we can compute (plus the exact optimum
/// for small instances).
pub fn cmd_bounds(text: &str, table: &ClassTable) -> Result<String, String> {
    let platform = &table.platform();
    let instance = parse_instance_k(text, table.k()).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "tasks          : {}", instance.len());
    if table.k() == 2 {
        let ab = heteroprio_bounds::area_bound(&instance, platform).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "area bound     : {:.6}", ab.value);
    } else {
        let dual = heteroprio_bounds::area_bound_dual(&instance, platform);
        let _ = writeln!(out, "area bound     : {dual:.6} (k-class dual certificate)");
    }
    let _ = writeln!(out, "max min-time   : {:.6}", instance.max_min_time());
    let _ = writeln!(out, "combined bound : {:.6}", combined_lower_bound(&instance, platform));
    if table.k() != 2 {
        let _ = writeln!(out, "exact optimum  : (two-class only)");
        return Ok(out);
    }
    if instance.len() <= MAX_EXACT_TASKS && !instance.is_empty() {
        let opt = optimal_makespan(&instance, platform);
        let _ = writeln!(out, "exact optimum  : {:.6}", opt.makespan);
    } else {
        let _ = writeln!(out, "exact optimum  : (instance too large; <= {MAX_EXACT_TASKS} tasks)");
    }
    let _ = writeln!(
        out,
        "proven HeteroPrio ratio for this shape: {:.4}",
        heteroprio_core::proven_upper_bound(platform)
    );
    Ok(out)
}

/// The factorization a workload argument names.
fn workload(kind: &str) -> Result<Factorization, String> {
    Factorization::parse(kind)
        .ok_or_else(|| format!("unknown workload `{kind}` (cholesky, qr, lu)"))
}

/// `dag`: generate a factorization DAG, submit it through the runtime and
/// schedule it, optionally under a fault plan.
pub fn cmd_dag(
    kind: &str,
    n: usize,
    table: &ClassTable,
    algo: Scheduler,
    opts: &OutputOpts,
    faults: &FaultOpts,
) -> Result<CmdOutput, String> {
    if n == 0 {
        return Err("need at least one tile".to_string());
    }
    if table.k() != 2 {
        return Err(format!(
            "the factorization kernels carry Table 1's two-class (cpu/gpu) timings; \
             --platform {} names {} classes. Use `schedule`, which accepts k-class \
             instance files.",
            table.spec(),
            table.k()
        ));
    }
    let platform = &table.platform();
    let graph = workload(kind)?.generate(n, &ChameleonTiming);
    let build = || {
        let mut rt = Runtime::new(*platform);
        rt.submit_graph(&graph);
        rt
    };
    let (plan, baseline) = if faults.active() {
        faults.plan(table, || build().run(algo).map(|r| r.makespan).map_err(|e| e.to_string()))?
    } else {
        (FaultPlan::NONE, None)
    };
    let registry = InMemoryRegistry::new();
    let metrics: &dyn MetricsRegistry = if opts.metrics { &registry } else { &NullRegistry };
    let ran = journaled_run(opts, metrics, None, |spec| {
        build().execute(algo, Run { faults: plan.clone(), ..spec })
    })?;
    let Ran { value: report, events, notes } = match ran {
        Continue(ran) => ran,
        Break(crashed) => return Ok(crashed),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{kind} N={n}: {} tasks, {} edges on {} ({algo})",
        report.graph.len(),
        report.graph.edge_count(),
        describe(table)
    );
    for note in &notes {
        let _ = writeln!(out, "{note}");
    }
    if !plan.is_none() {
        let _ = writeln!(
            out,
            "fault plan  : {} worker faults, fail={}, jitter={}, seed={}, retry<= {}",
            plan.worker_faults.len(),
            plan.task_failure_prob,
            plan.exec_jitter,
            plan.seed,
            plan.retry.max_attempts
        );
        if let Some(m0) = baseline {
            let _ = writeln!(out, "baseline    : {m0:.2} ms (fault-free)");
        }
    }
    let _ = writeln!(out, "makespan    : {:.2} ms", report.makespan);
    let _ = writeln!(out, "lower bound : {:.2} ms", report.lower_bound);
    let _ = writeln!(out, "ratio       : {:.4}", report.ratio());
    let _ = writeln!(out, "spoliations : {}", report.spoliations);
    for (label, count) in report.graph.label_histogram() {
        let _ = writeln!(out, "  {label:<8} x{count}");
    }
    if opts.summary {
        out.push_str(&format_summary(&report.summary, table));
    }
    if opts.metrics {
        out.push_str(&metrics_report(&registry, &report.summary)?);
    }
    let instance = report.graph.instance();
    if opts.audit {
        let aopts = AuditOptions {
            heteroprio: matches!(algo, Scheduler::HeteroPrio(_)),
            faulty: faults.active(),
            ..AuditOptions::dag_run(0.0, Some(report.lower_bound))
        };
        let audit_report = audit(instance, platform, &report.schedule, &events, &aopts);
        out.push_str(&finish_audit(&audit_report)?);
    }
    let trace = opts.trace.as_ref().map(|path| {
        let task_names =
            instance.ids().map(|t| format!("{}[{}]", report.graph.label(t), t.0)).collect();
        let chrome_opts = ChromeTraceOptions { worker_names: worker_names(table), task_names };
        (path.clone(), render_trace(&events, path, &chrome_opts))
    });
    let svg = opts.svg.clone().map(|path| (path, to_svg(&report.schedule, instance, platform)));
    Ok(CmdOutput { report: out, svg, trace })
}

/// `gen`: emit the independent-task kernel mix of a factorization in the
/// CLI's instance format.
pub fn cmd_gen(kind: &str, n: usize) -> Result<String, String> {
    let f = workload(kind)?;
    if n == 0 {
        return Err("need at least one tile".to_string());
    }
    let instance = independent_instance(f, n, &ChameleonTiming);
    Ok(serialize_instance(&instance))
}

/// `perf`: run the kernel perf suite and return the `BENCH_kernel.json`
/// document. `smoke` runs the tiny deterministic cases (the
/// `scripts/check.sh` gate); the full suite is what `scripts/bench.sh`
/// commits as the repo-root baseline.
pub fn cmd_perf(smoke: bool, custom: Option<&ClassTable>) -> Result<String, String> {
    let doc =
        heteroprio_bench::perf::run_suite_on(smoke, custom.map(ClassTable::platform).as_ref());
    heteroprio_bench::perf::validate_baseline(&doc)
        .map_err(|e| format!("perf baseline failed its own schema check: {e}"))?;
    Ok(doc)
}

/// Throughput regression fraction `perf --against` tolerates before
/// failing: a gate case may lose up to 20% of its committed tasks/sec
/// (machine noise) but no more.
pub const PERF_GATE_TOLERANCE: f64 = 0.2;

/// `perf --against BASELINE`: compare a fresh run's tasks/sec against the
/// committed baseline document, case name by case name. Returns the
/// per-case report on success; errors list every regressed case.
pub fn cmd_perf_gate(doc: &str, baseline: &str) -> Result<String, String> {
    let report =
        heteroprio_bench::perf::compare_against_baseline(doc, baseline, PERF_GATE_TOLERANCE)
            .map_err(|e| format!("perf gate: {e}"))?;
    Ok(format!("perf gate passed ({} cases):\n  {}\n", report.len(), report.join("\n  ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_instance;

    const HEFT: Scheduler =
        Scheduler::Heft(heteroprio_taskgraph::WeightScheme::Avg, HeftVariant::Insertion);

    const SAMPLE: &str = "28.8 1.0\n8.72 1.0\n1.72 1.0\n1.0 3.0\n2.0 6.0\n";

    fn svg_only() -> OutputOpts {
        OutputOpts { svg: Some("out.svg".to_string()), ..OutputOpts::default() }
    }

    #[test]
    fn schedule_reports_every_field() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let out = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &svg_only()).unwrap();
        assert!(out.report.contains("makespan"));
        assert!(out.report.contains("ratio"));
        assert!(out.report.contains("CPU"));
        assert!(out.svg.unwrap().1.starts_with("<svg"));
        assert!(out.trace.is_none());
    }

    #[test]
    fn all_algorithms_run_from_the_cli_layer() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        for algo in IndepAlgo::NAMES.map(|name| IndepAlgo::parse(name).unwrap()) {
            let out = cmd_schedule(SAMPLE, &plat, algo, &OutputOpts::default()).unwrap();
            assert!(out.report.contains("makespan"), "{algo:?}");
        }
    }

    #[test]
    fn every_algorithm_traces_and_summarizes() {
        use heteroprio_trace::json;
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts {
            trace: Some("out.json".to_string()),
            summary: true,
            ..OutputOpts::default()
        };
        for algo in [IndepAlgo::HeteroPrio, IndepAlgo::Heft, IndepAlgo::MinMin, IndepAlgo::DualHp] {
            let out = cmd_schedule(SAMPLE, &plat, algo, &opts).unwrap();
            assert!(out.report.contains("trace summary"), "{algo:?}");
            assert!(out.report.contains("first idle"), "{algo:?}");
            let (path, contents) = out.trace.unwrap();
            assert_eq!(path, "out.json");
            let doc = json::parse(&contents).expect("valid chrome trace");
            let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
            // 5 tasks → 5 complete slices, plus metadata per worker.
            let slices = evs
                .iter()
                .filter(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("cat").and_then(|c| c.as_str()) == Some("task")
                })
                .count();
            assert_eq!(slices, 5, "{algo:?}");
        }
    }

    #[test]
    fn jsonl_extension_selects_jsonl() {
        use heteroprio_trace::json;
        let plat = ClassTable::cpu_gpu(1, 1).unwrap();
        let opts = OutputOpts {
            trace: Some("out.jsonl".to_string()),
            summary: false,
            ..OutputOpts::default()
        };
        let out = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &opts).unwrap();
        let (_, contents) = out.trace.unwrap();
        for line in contents.lines() {
            json::parse(line).expect("each JSONL line parses");
        }
        assert!(contents.contains("task_complete"));
    }

    #[test]
    fn audit_flag_streams_clean_for_live_and_static_algorithms() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts { audit: true, ..OutputOpts::default() };
        // Every algorithm's kernel stream goes through the streaming
        // auditor (DualHP with its partition rules enabled); all must
        // report clean.
        for algo in IndepAlgo::NAMES.map(|name| IndepAlgo::parse(name).unwrap()) {
            let out = cmd_schedule(SAMPLE, &plat, algo, &opts).unwrap();
            assert!(out.report.contains("audit clean"), "{algo:?}: {}", out.report);
        }
    }

    #[test]
    fn metrics_flag_reports_and_cross_checks() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts { metrics: true, summary: true, ..OutputOpts::default() };
        // Every algorithm runs in the kernel, static plans included.
        for algo in IndepAlgo::NAMES.map(|name| IndepAlgo::parse(name).unwrap()) {
            let out = cmd_schedule(SAMPLE, &plat, algo, &opts).unwrap();
            assert!(out.report.contains("metrics:"), "{algo:?}: {}", out.report);
            assert!(out.report.contains("kernel_trace_events_total"), "{algo:?}");
            assert!(out.report.contains("kernel_pick_ns"), "{algo:?}");
        }
    }

    #[test]
    fn metrics_flag_composes_with_audit_on_the_live_path() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts { metrics: true, audit: true, ..OutputOpts::default() };
        let out = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &opts).unwrap();
        assert!(out.report.contains("metrics:"), "{}", out.report);
        assert!(out.report.contains("audit clean"), "{}", out.report);
    }

    #[test]
    fn dag_metrics_flag_reports_for_every_scheduler() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts { metrics: true, ..OutputOpts::default() };
        for algo in Scheduler::NAMES.map(|name| Scheduler::parse(name).unwrap()) {
            let out = cmd_dag("cholesky", 4, &plat, algo, &opts, &FaultOpts::default()).unwrap();
            assert!(out.report.contains("kernel_events_total"), "{algo}: {}", out.report);
            assert!(out.report.contains("kernel_tasks_completed_total"), "{algo}: {}", out.report);
        }
    }

    #[test]
    fn perf_smoke_emits_a_valid_document() {
        let doc = cmd_perf(true, None).unwrap();
        assert!(doc.contains("\"schema\": \"heteroprio-bench-kernel\""), "{doc}");
        assert!(doc.contains("\"smoke\": true"), "{doc}");
    }

    #[test]
    fn bounds_includes_exact_for_small_instances() {
        let plat = ClassTable::cpu_gpu(1, 1).unwrap();
        let out = cmd_bounds("2 1\n1 2\n", &plat).unwrap();
        assert!(out.contains("exact optimum  : 1"), "{out}");
        assert!(out.contains("1.6180"), "{out}"); // φ for (1,1)
    }

    #[test]
    fn gen_output_reparses() {
        let text = cmd_gen("cholesky", 4).unwrap();
        let inst = parse_instance(&text).unwrap();
        assert_eq!(inst.len(), 20);
        assert!(cmd_gen("fft", 4).is_err());
    }

    #[test]
    fn dag_command_runs_every_scheduler() {
        let plat = ClassTable::cpu_gpu(3, 2).unwrap();
        for algo in Scheduler::NAMES.map(|name| Scheduler::parse(name).unwrap()) {
            let opts =
                if algo == Scheduler::default() { svg_only() } else { OutputOpts::default() };
            let out = cmd_dag("cholesky", 5, &plat, algo, &opts, &FaultOpts::default()).unwrap();
            assert!(out.report.contains("makespan"), "{algo:?}");
            assert!(out.report.contains("DPOTRF"), "{algo:?}");
            if algo == Scheduler::default() {
                assert!(out.svg.unwrap().1.starts_with("<svg"));
            }
        }
        let none = OutputOpts::default();
        assert!(
            cmd_dag("fft", 5, &plat, Scheduler::default(), &none, &FaultOpts::default()).is_err()
        );
        assert!(
            cmd_dag("qr", 0, &plat, Scheduler::default(), &none, &FaultOpts::default()).is_err()
        );
    }

    #[test]
    fn dag_trace_labels_slices_with_kernel_names() {
        use heteroprio_trace::json;
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts {
            trace: Some("chol.json".to_string()),
            summary: true,
            ..OutputOpts::default()
        };
        let out = cmd_dag("cholesky", 4, &plat, Scheduler::default(), &opts, &FaultOpts::default())
            .unwrap();
        let (_, contents) = out.trace.unwrap();
        let doc = json::parse(&contents).expect("valid chrome trace");
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(
            evs.iter().any(|e| e
                .get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("DPOTRF["))),
            "slices carry DAG kernel labels"
        );
        assert!(out.report.contains("GPU 0"));
    }

    #[test]
    fn dag_runs_under_a_fault_spec() {
        let plat = ClassTable::cpu_gpu(4, 2).unwrap();
        let opts = OutputOpts { trace: None, summary: true, ..OutputOpts::default() };
        // All GPUs die at 25% of the fault-free makespan; % time forces a
        // baseline run, and the report shows the fault accounting.
        let faults = FaultOpts { spec: Some("gpu@25%".to_string()), ..FaultOpts::default() };
        let out = cmd_dag("cholesky", 6, &plat, Scheduler::default(), &opts, &faults).unwrap();
        assert!(out.report.contains("fault plan  : 2 worker faults"), "{}", out.report);
        assert!(out.report.contains("baseline    :"), "{}", out.report);
        assert!(out.report.contains("worker down : 2 failures, 0 recoveries"), "{}", out.report);
        // A transient single-worker fault with an absolute time needs no baseline.
        let faults = FaultOpts { spec: Some("w0@1+2".to_string()), ..FaultOpts::default() };
        let out = cmd_dag("cholesky", 6, &plat, Scheduler::default(), &opts, &faults).unwrap();
        assert!(!out.report.contains("baseline"), "{}", out.report);
        assert!(out.report.contains("1 failures, 1 recoveries"), "{}", out.report);
    }

    #[test]
    fn dag_fault_spec_errors_are_reported() {
        let plat = ClassTable::cpu_gpu(1, 1).unwrap();
        let opts = OutputOpts::default();
        let faults = FaultOpts { spec: Some("gpu@nonsense".to_string()), ..FaultOpts::default() };
        let err = cmd_dag("cholesky", 4, &plat, Scheduler::default(), &opts, &faults);
        assert!(err.unwrap_err().contains("invalid fault plan"));
        // HEFT's plan is made for the fault-free model and refuses faults.
        let faults = FaultOpts { spec: Some("w0@1+2".to_string()), ..FaultOpts::default() };
        let err = cmd_dag("cholesky", 4, &plat, HEFT, &opts, &faults);
        assert!(err.unwrap_err().contains("fault injection"));
    }

    #[test]
    fn dag_jitter_alone_activates_the_fault_path() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let opts = OutputOpts::default();
        let faults = FaultOpts { exec_jitter: 0.2, seed: Some(42), ..FaultOpts::default() };
        let out = cmd_dag("cholesky", 5, &plat, Scheduler::default(), &opts, &faults).unwrap();
        assert!(out.report.contains("jitter=0.2, seed=42"), "{}", out.report);
    }

    /// Unique temp paths for journal/snapshot files (tests run in parallel).
    fn temp_paths(tag: &str) -> (String, String) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        (
            dir.join(format!("hp_cli_{tag}_{pid}.journal")).display().to_string(),
            dir.join(format!("hp_cli_{tag}_{pid}.snap")).display().to_string(),
        )
    }

    #[test]
    fn schedule_crash_then_resume_reproduces_the_run() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let (journal, snapshot) = temp_paths("sched");
        let trace_opts = OutputOpts { trace: Some("ref.jsonl".into()), ..OutputOpts::default() };
        let reference = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &trace_opts).unwrap();
        let (_, ref_trace) = reference.trace.unwrap();
        let crash = OutputOpts {
            durable: DurableOpts {
                journal: Some(journal.clone()),
                crash_at: Some(4),
                snapshot: Some(snapshot.clone()),
                checkpoint_every: Some(2),
                resume: false,
            },
            ..OutputOpts::default()
        };
        let out = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &crash).unwrap();
        assert!(out.report.contains("simulated crash after event 4"), "{}", out.report);
        assert!(out.report.contains("resume"), "{}", out.report);
        let resume = OutputOpts {
            audit: true,
            trace: Some("res.jsonl".into()),
            durable: DurableOpts {
                journal: Some(journal.clone()),
                snapshot: Some(snapshot.clone()),
                resume: true,
                ..DurableOpts::default()
            },
            ..OutputOpts::default()
        };
        let out = cmd_schedule(SAMPLE, &plat, IndepAlgo::HeteroPrio, &resume).unwrap();
        assert!(out.report.contains("resumed    : replayed 4"), "{}", out.report);
        assert!(out.report.contains("audit clean"), "{}", out.report);
        // The resumed trace is bit-identical to the uninterrupted one, and
        // the journal now holds the full stream.
        assert_eq!(out.trace.unwrap().1, ref_trace);
        let (recovered, damage) = FileJournal::recover(&journal).unwrap();
        assert!(damage.is_none());
        assert_eq!(jsonl(&recovered), ref_trace);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snapshot);
    }

    #[test]
    fn dag_crash_then_resume_reproduces_the_run() {
        let plat = ClassTable::cpu_gpu(2, 1).unwrap();
        let (journal, snapshot) = temp_paths("dag");
        let trace_opts = OutputOpts { trace: Some("ref.jsonl".into()), ..OutputOpts::default() };
        let reference =
            cmd_dag("cholesky", 4, &plat, Scheduler::default(), &trace_opts, &FaultOpts::default())
                .unwrap();
        let (_, ref_trace) = reference.trace.unwrap();
        let crash = OutputOpts {
            durable: DurableOpts {
                journal: Some(journal.clone()),
                crash_at: Some(25),
                snapshot: Some(snapshot.clone()),
                checkpoint_every: Some(8),
                resume: false,
            },
            ..OutputOpts::default()
        };
        let out =
            cmd_dag("cholesky", 4, &plat, Scheduler::default(), &crash, &FaultOpts::default())
                .unwrap();
        assert!(out.report.contains("simulated crash after event 25"), "{}", out.report);
        let resume = OutputOpts {
            audit: true,
            trace: Some("res.jsonl".into()),
            metrics: true,
            durable: DurableOpts {
                journal: Some(journal.clone()),
                snapshot: Some(snapshot.clone()),
                resume: true,
                ..DurableOpts::default()
            },
            ..OutputOpts::default()
        };
        let out =
            cmd_dag("cholesky", 4, &plat, Scheduler::default(), &resume, &FaultOpts::default())
                .unwrap();
        assert!(out.report.contains("resumed    : replayed 25"), "{}", out.report);
        assert!(out.report.contains("audit clean"), "{}", out.report);
        // Journal-overhead counters surfaced through --metrics.
        assert!(out.report.contains("journal_appends_total"), "{}", out.report);
        assert_eq!(out.trace.unwrap().1, ref_trace);
        // A journal recorded for different inputs is rejected, not accepted.
        let err = cmd_dag("qr", 4, &plat, Scheduler::default(), &resume, &FaultOpts::default())
            .unwrap_err();
        assert!(
            err.contains("diverge") || err.contains("short") || err.contains("snapshot"),
            "{err}"
        );
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&snapshot);
    }

    /// Crash a run after `crash_at` journaled events, resume it with (or
    /// without) its snapshot, and return the uninterrupted trace and the
    /// resumed one.
    fn crash_and_resume(
        tag: &str,
        run: impl Fn(&OutputOpts) -> Result<CmdOutput, String>,
        crash_at: u64,
        snapshot: bool,
    ) -> (String, String) {
        let (journal, snap) = temp_paths(tag);
        let snap = snapshot.then_some(snap);
        let trace_opts = OutputOpts { trace: Some("ref.jsonl".into()), ..OutputOpts::default() };
        let (_, reference) = run(&trace_opts).unwrap().trace.unwrap();
        let crash = OutputOpts {
            durable: DurableOpts {
                journal: Some(journal.clone()),
                crash_at: Some(crash_at),
                snapshot: snap.clone(),
                checkpoint_every: Some(3),
                resume: false,
            },
            ..OutputOpts::default()
        };
        let out = run(&crash).unwrap();
        assert!(out.report.contains("simulated crash"), "{tag}: {}", out.report);
        let resume = OutputOpts {
            trace: Some("res.jsonl".into()),
            durable: DurableOpts {
                journal: Some(journal.clone()),
                snapshot: snap.clone(),
                resume: true,
                ..DurableOpts::default()
            },
            ..OutputOpts::default()
        };
        let (_, resumed) = run(&resume).unwrap().trace.unwrap();
        let _ = std::fs::remove_file(&journal);
        if let Some(snap) = snap {
            let _ = std::fs::remove_file(snap);
        }
        (reference, resumed)
    }

    #[test]
    fn every_algorithm_crashes_and_resumes_to_its_uninterrupted_trace() {
        let plat = ClassTable::cpu_gpu(1, 1).unwrap();
        for (i, algo) in
            IndepAlgo::NAMES.map(|name| IndepAlgo::parse(name).unwrap()).into_iter().enumerate()
        {
            let run = |opts: &OutputOpts| cmd_schedule(SAMPLE, &plat, algo, opts);
            let (reference, resumed) =
                crash_and_resume(&format!("resume_{}", algo.name()), run, 7, i % 2 == 0);
            assert_eq!(resumed, reference, "{algo:?}");
        }
        for (i, algo) in
            Scheduler::NAMES.map(|name| Scheduler::parse(name).unwrap()).into_iter().enumerate()
        {
            let run = |opts: &OutputOpts| {
                cmd_dag("cholesky", 4, &plat, algo, opts, &FaultOpts::default())
            };
            let (reference, resumed) =
                crash_and_resume(&format!("resume_dag_{}", algo.name()), run, 30, i % 2 == 1);
            assert_eq!(resumed, reference, "{algo}");
        }
    }

    #[test]
    fn platform_flag_roundtrips_and_aliases_cpus_gpus() {
        // `--platform cpu=2,gpu=1` and `--cpus 2 --gpus 1` are the same table.
        let spec = parse_platform_args(Some("cpu=2,gpu=1"), None, None).unwrap();
        let alias = parse_platform_args(None, Some(2), Some(1)).unwrap();
        assert_eq!(spec.spec(), alias.spec());
        // parse -> spec -> parse is the identity on a k=3 spec.
        let k3 = parse_platform_args(Some("cpu=16,gpu=4,fpga=2"), None, None).unwrap();
        assert_eq!(k3.spec(), "cpu=16,gpu=4,fpga=2");
        let again = parse_platform_args(Some(&k3.spec()), None, None).unwrap();
        assert_eq!(again.spec(), k3.spec());
        assert_eq!(again.k(), 3);
        // Mixing the flag with its alias, or giving neither, is an error.
        assert!(parse_platform_args(Some("cpu=1,gpu=1"), Some(1), None).is_err());
        assert!(parse_platform_args(None, Some(2), None).is_err());
        assert!(parse_platform_args(None, None, None).is_err());
        assert!(parse_platform_args(Some("cpu=0,gpu=1"), None, None).is_err());
    }

    const SAMPLE_K3: &str = "# cpu gpu fpga\n28.8 1.0 4.0\n8.72 1.0 2.0 3\n\
                             1.72 1.0 9.0\n1.0 3.0 0.5\n2.0 6.0 2.0\n9.0 2.5 1.1\n";

    #[test]
    fn schedule_runs_a_three_class_platform_end_to_end() {
        // The acceptance path: a k=3 cpu/gpu/fpga instance schedules through
        // the generalized kernel with the audit clean and the --metrics
        // cross-check passing.
        let plat = parse_platform_args(Some("cpu=2,gpu=1,fpga=1"), None, None).unwrap();
        let opts =
            OutputOpts { audit: true, metrics: true, summary: true, ..OutputOpts::default() };
        let out = cmd_schedule(SAMPLE_K3, &plat, IndepAlgo::HeteroPrio, &opts).unwrap();
        assert!(out.report.contains("2 CPUs + 1 GPUs + 1 FPGAs"), "{}", out.report);
        assert!(out.report.contains("audit clean"), "{}", out.report);
        assert!(out.report.contains("kernel_trace_events_total"), "{}", out.report);
        assert!(out.report.contains("FPGA busy"), "{}", out.report);
        assert!(out.report.contains("FPGA 0"), "{}", out.report);
    }

    #[test]
    fn bounds_reports_the_dual_certificate_on_three_classes() {
        let plat = parse_platform_args(Some("cpu=2,gpu=1,fpga=1"), None, None).unwrap();
        let out = cmd_bounds(SAMPLE_K3, &plat).unwrap();
        assert!(out.contains("k-class dual certificate"), "{out}");
        assert!(out.contains("exact optimum  : (two-class only)"), "{out}");
    }

    #[test]
    fn dag_rejects_platforms_beyond_two_classes() {
        let plat = parse_platform_args(Some("cpu=2,gpu=1,fpga=1"), None, None).unwrap();
        let err =
            cmd_dag("cholesky", 4, &plat, Scheduler::default(), &svg_only(), &FaultOpts::default())
                .unwrap_err();
        assert!(err.contains("two-class"), "{err}");
        // Renamed two-class platforms are fine: only the count matters.
        let plat = parse_platform_args(Some("big=2,little=1"), None, None).unwrap();
        let out = cmd_dag(
            "cholesky",
            4,
            &plat,
            Scheduler::default(),
            &OutputOpts::default(),
            &FaultOpts::default(),
        )
        .unwrap();
        assert!(out.report.contains("2 BIGs + 1 LITTLEs"), "{}", out.report);
    }

    #[test]
    fn bad_input_is_reported() {
        let plat = ClassTable::cpu_gpu(1, 1).unwrap();
        let opts = OutputOpts::default();
        let err =
            cmd_schedule("garbage here too many fields\n", &plat, IndepAlgo::HeteroPrio, &opts)
                .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(cmd_schedule("", &plat, IndepAlgo::HeteroPrio, &opts).is_err());
    }
}
