//! The four workloads: seeded input generation, the untraced engine call
//! each one times, and the output checks every sample must pass.

use crate::adapters::{JournalTally, Span, Tally, TimedJournal, TimedRegistry, TimedSink, Timer};
use heteroprio_audit::{AuditOptions, StreamAuditor};
use heteroprio_core::{
    heteroprio, heteroprio_metered, heteroprio_online, HeteroPrioConfig, HeteroPrioResult,
    Instance, MeteredJournal, Platform, Schedule,
};
use heteroprio_metrics::InMemoryRegistry;
use heteroprio_schedulers::HeteroPrioDagPolicy;
use heteroprio_simulator::{simulate, SimResult};
use heteroprio_taskgraph::{
    apply_bottom_level_priorities, check_precedence, cholesky, Factorization, Kernel, KernelTiming,
    TaskGraph, WeightScheme,
};
use heteroprio_trace::{FileJournal, Journal, JournalSink, SchedEvent, TeeSink};
use heteroprio_workloads::{
    independent_instance, multi_class_instance, paper_platform, three_class_platform,
    ChameleonTiming, MultiClassParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark workload. Names are cited by later changes; keep them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Independent Cholesky N=160 through `heteroprio()`: the kernel event
    /// loop and the static `sorted_queue`, nothing else.
    CholeskyX1000,
    /// Cholesky DAG N=96 through the simulator with `HeteroPrioDagPolicy`.
    DagCholesky,
    /// k=3 independent tasks with seeded release dates through
    /// `heteroprio_online` (the `ClassQueue` pair-queue path).
    K3Online,
    /// Independent Cholesky N=32 with metrics, streaming audit and a
    /// file journal all on.
    Observed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CholeskyX1000, Workload::DagCholesky, Workload::K3Online, Workload::Observed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CholeskyX1000 => "cholesky_x1000",
            Workload::DagCholesky => "dag_cholesky",
            Workload::K3Online => "k3_online",
            Workload::Observed => "observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] runs the
/// same code on inputs small enough for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    pub cholesky_tiles: usize,
    pub dag_tiles: usize,
    pub k3_tasks: usize,
    pub observed_tiles: usize,
}

impl Size {
    pub const FULL: Size =
        Size { cholesky_tiles: 160, dag_tiles: 96, k3_tasks: 200_000, observed_tiles: 32 };
    pub const TINY: Size =
        Size { cholesky_tiles: 8, dag_tiles: 6, k3_tasks: 400, observed_tiles: 6 };
}

/// Largest relative change the seed makes to a Chameleon kernel's times.
const TIMING_JITTER: f64 = 0.05;

/// The Chameleon kernel times, each kernel scaled by one factor drawn from
/// the seed in `[1 - TIMING_JITTER, 1 + TIMING_JITTER]`. The factor is the
/// same on CPU and GPU, so the seed moves the inputs while every kernel's
/// acceleration factor, and with it the paper's affinity order of the
/// kernels, stays as calibrated.
#[derive(Clone, Copy, Debug)]
pub struct SeededTiming {
    pub seed: u64,
}

impl KernelTiming for SeededTiming {
    fn times(&self, kernel: Kernel) -> (f64, f64) {
        let (cpu, gpu) = ChameleonTiming.times(kernel);
        let k = Kernel::ALL.iter().position(|&x| x == kernel).unwrap_or(0) as u64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scale = rng.random_range(1.0 - TIMING_JITTER..=1.0 + TIMING_JITTER);
        (cpu * scale, gpu * scale)
    }
}

/// Arrival rate of `k3_online` as a multiple of the platform's optimistic
/// service rate (every worker running every task at its fastest class).
const ARRIVAL_LOAD: f64 = 2.0;

/// The generated inputs of one workload.
pub enum Inputs {
    Independent { instance: Instance, platform: Platform },
    Dag { graph: TaskGraph, platform: Platform },
    Online { instance: Instance, releases: Vec<f64>, platform: Platform },
}

impl Inputs {
    pub fn instance(&self) -> &Instance {
        match self {
            Inputs::Independent { instance, .. } | Inputs::Online { instance, .. } => instance,
            Inputs::Dag { graph, .. } => graph.instance(),
        }
    }

    pub fn platform(&self) -> &Platform {
        match self {
            Inputs::Independent { platform, .. }
            | Inputs::Dag { platform, .. }
            | Inputs::Online { platform, .. } => platform,
        }
    }

    pub fn tasks(&self) -> usize {
        self.instance().len()
    }

    /// The certified lower bound `makespan_ratio` divides by.
    pub fn lower_bound(&self) -> f64 {
        match self {
            Inputs::Dag { graph, platform } => heteroprio_bounds::dag_lower_bound(graph, platform),
            _ => heteroprio_bounds::combined_lower_bound(self.instance(), self.platform()),
        }
    }
}

/// Where set-up time went, per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `workloads` generators: instances and release dates.
    pub generate_s: f64,
    /// `taskgraph` DAG construction.
    pub build_s: f64,
    /// `taskgraph` bottom-level ranking.
    pub rank_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.rank_s
    }
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Build a workload's inputs from `seed`. The same seed gives the same
/// inputs.
pub fn setup(workload: Workload, size: Size, seed: u64) -> (Inputs, SetupTimes) {
    let timing = SeededTiming { seed };
    let mut times = SetupTimes::default();
    let inputs = match workload {
        Workload::CholeskyX1000 | Workload::Observed => {
            let tiles = if workload == Workload::Observed {
                size.observed_tiles
            } else {
                size.cholesky_tiles
            };
            let (instance, s) =
                timed(|| independent_instance(Factorization::Cholesky, tiles, &timing));
            times.generate_s = s;
            Inputs::Independent { instance, platform: paper_platform() }
        }
        Workload::DagCholesky => {
            let (mut graph, s) = timed(|| cholesky(size.dag_tiles, &timing));
            times.build_s = s;
            let ((), s) = timed(|| {
                apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
            });
            times.rank_s = s;
            Inputs::Dag { graph, platform: paper_platform() }
        }
        Workload::K3Online => {
            let ((instance, releases, platform), s) = timed(|| {
                let (_, platform) = three_class_platform();
                let instance =
                    multi_class_instance(&MultiClassParams::three_class(size.k3_tasks), seed);
                let releases = arrivals(&instance, &platform, seed);
                (instance, releases, platform)
            });
            times.generate_s = s;
            Inputs::Online { instance, releases, platform }
        }
    };
    (inputs, times)
}

/// Poisson release dates at [`ARRIVAL_LOAD`] times the platform's
/// optimistic service rate, so the ready set keeps growing while workers
/// keep popping.
fn arrivals(instance: &Instance, platform: &Platform, seed: u64) -> Vec<f64> {
    let n = instance.len() as f64;
    let mean_best = instance.tasks().iter().map(|t| t.min_time()).sum::<f64>() / n;
    let rate = ARRIVAL_LOAD * platform.workers() as f64 / mean_best;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_A441_7A15_0000);
    let mut now = 0.0;
    (0..instance.len())
        .map(|_| {
            let release = now;
            now += -(1.0 - rng.random_range(0.0..1.0f64)).ln() / rate;
            release
        })
        .collect()
}

/// What every sample of a workload must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub tasks: usize,
    pub events: usize,
    pub spoliations: usize,
    pub makespan_bits: u64,
}

/// An engine call's result, reduced to what the checks need.
#[derive(Default)]
pub struct Outcome {
    pub schedule: Schedule,
    pub events: usize,
    pub spoliations: usize,
}

impl Outcome {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            tasks: self.schedule.runs.len(),
            events: self.events,
            spoliations: self.spoliations,
            makespan_bits: self.schedule.makespan().to_bits(),
        }
    }
}

impl From<HeteroPrioResult> for Outcome {
    fn from(r: HeteroPrioResult) -> Self {
        Outcome {
            events: r.summary.events_recorded(),
            spoliations: r.spoliations,
            schedule: r.schedule,
        }
    }
}

impl From<SimResult> for Outcome {
    fn from(r: SimResult) -> Self {
        Outcome {
            events: r.summary.events_recorded(),
            spoliations: r.spoliations,
            schedule: r.schedule,
        }
    }
}

/// Schedule checks: validity on the instance, precedence for the DAG, and
/// no start before its release date online.
pub fn check_schedule(inputs: &Inputs, schedule: &Schedule) -> Result<(), String> {
    schedule.validate(inputs.instance(), inputs.platform()).map_err(|e| e.to_string())?;
    match inputs {
        Inputs::Dag { graph, .. } => check_precedence(graph, schedule)?,
        Inputs::Online { releases, .. } => {
            for run in schedule.runs.iter().chain(&schedule.aborted) {
                let release = releases.get(run.task.index()).copied().unwrap_or(f64::INFINITY);
                if run.start < release {
                    return Err(format!(
                        "{} starts at {} before release {release}",
                        run.task, run.start
                    ));
                }
            }
        }
        Inputs::Independent { .. } => {}
    }
    Ok(())
}

/// The configuration every workload runs HeteroPrio with.
pub fn config() -> HeteroPrioConfig {
    HeteroPrioConfig::new()
}

/// The untraced engine call of `cholesky_x1000`, `dag_cholesky` and
/// `k3_online`: `NullSink`, `NullRegistry`.
pub fn run_plain(inputs: &Inputs) -> Outcome {
    let cfg = config();
    match inputs {
        Inputs::Independent { instance, platform } => heteroprio(instance, platform, &cfg).into(),
        Inputs::Dag { graph, platform } => {
            let mut policy = HeteroPrioDagPolicy::new(cfg);
            simulate(graph, platform, &mut policy).into()
        }
        Inputs::Online { instance, releases, platform } => {
            heteroprio_online(instance, releases, platform, &cfg).into()
        }
    }
}

/// Results of one `observed` call beyond the schedule.
#[derive(Default)]
pub struct ObservedRun {
    pub outcome: Outcome,
    /// Wall time of the engine call, the audit `finish` and the final
    /// journal sync.
    pub wall_s: f64,
    /// Failures found by the audit, the journal or its recovery.
    pub problems: Vec<String>,
    /// The records the journal recovers after the call.
    pub events: Vec<SchedEvent>,
    pub audit_checks: usize,
    /// What the adapters charged; empty under `Untimed`.
    pub emits: Tally,
    pub audit_emits: Tally,
    pub finish: Span,
    pub journal: JournalTally,
    pub journal_syncs: u64,
    pub records: Tally,
}

/// A journal path inside the working directory, unique per process.
pub fn journal_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("{tag}-{}.journal", std::process::id()))
}

/// One `observed` call: `InMemoryRegistry`, and a `TeeSink` of a
/// `StreamAuditor` and a `JournalSink` over a `MeteredJournal`-wrapped
/// `FileJournal` with the default sync policy, plus the final sync. The
/// sink, the auditor, the journal and the registry sit in adapters that
/// time their calls with `timer`: `Untimed` in the untraced run, a `Clock`
/// in the traced run.
pub fn run_observed<T: Timer>(
    instance: &Instance,
    platform: &Platform,
    path: &Path,
    timer: &T,
) -> ObservedRun {
    let store = InMemoryRegistry::new();
    let registry = TimedRegistry::new(&store, timer);
    let file = match FileJournal::create(path) {
        Ok(f) => f,
        Err(e) => {
            let problems = vec![format!("create journal: {e}")];
            return ObservedRun { problems, ..ObservedRun::default() };
        }
    };
    let mut journal = TimedJournal::new(MeteredJournal::new(file, &registry), timer);
    let auditor = StreamAuditor::new(instance, platform, AuditOptions::independent());
    let mut auditor = TimedSink::new(auditor, timer);
    let start = Instant::now();
    let (result, sink_error, emitted, emits) = {
        let tee = TeeSink(&mut auditor, JournalSink::new(&mut journal));
        let mut sink = TimedSink::new(tee, timer);
        let result = heteroprio_metered(instance, platform, &config(), &mut sink, &registry);
        (result, sink.inner.1.error().cloned(), sink.inner.1.seen(), sink.emits)
    };
    let (report, finish) = timer.time(|| auditor.inner.finish(&result.schedule));
    let synced = journal.sync();
    let wall_s = start.elapsed().as_secs_f64();
    let journal_syncs = journal.inner.syncs();
    let journal_tally = journal.tally;
    drop(journal.inner);

    let mut problems = Vec::new();
    if !report.is_clean() {
        problems.push(format!("audit not clean: {} violation(s)", report.violations.len()));
    }
    if let Some(e) = sink_error {
        problems.push(format!("journal append: {e}"));
    }
    if let Err(e) = synced {
        problems.push(format!("journal sync: {e}"));
    }
    let (events, recovery) = recover_checked(path, emitted);
    problems.extend(recovery);
    ObservedRun {
        outcome: result.into(),
        wall_s,
        problems,
        events,
        audit_checks: report.checks,
        emits,
        audit_emits: auditor.emits,
        finish,
        journal: journal_tally,
        journal_syncs,
        records: registry.records,
    }
}

/// Re-open the journal and check it recovers, undamaged, exactly the
/// records the trace emitted. Returns the records; removes the file.
fn recover_checked(path: &Path, emitted: usize) -> (Vec<SchedEvent>, Option<String>) {
    let (events, problem) = match FileJournal::recover(path) {
        Ok((events, Some(damage))) => (events, Some(format!("journal damaged: {damage}"))),
        Ok((events, None)) if events.len() != emitted => {
            let problem =
                format!("journal recovered {} records, trace emitted {emitted}", events.len());
            (events, Some(problem))
        }
        Ok((events, None)) => (events, None),
        Err(e) => (Vec::new(), Some(format!("journal recovery: {e}"))),
    };
    let _ = std::fs::remove_file(path);
    (events, problem)
}
