//! One benchmark run: set-up, timed samples, output checks, metrics.

use crate::adapters::Untimed;
use crate::affinity;
use crate::layers::{layer_report, traced_observed, traced_plain, TracedSample};
use crate::report::{median, metric, quantile, result_line, Metric, END_TO_END, PER_LAYER};
use crate::workload::{
    check_schedule, journal_path, run_observed, run_plain, setup, timed, Fingerprint, Inputs, Size,
    Workload,
};
use heteroprio_core::Schedule;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups a run makes at least; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-up repeats until it has taken this share of `--seconds` in all, so
/// that the median of a set-up that takes microseconds rests on many
/// repetitions. The set-ups run back to back before any engine call: spread
/// between the samples, some runs' set-ups ran three times faster than
/// others', from a heap state the run does not control.
const SETUP_SHARE: f64 = 0.05;
/// Timed samples a run takes at least, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// The quantile of the sample wall times `tasks_per_s` divides by. Other
/// tenants of a shared host slow the whole machine down in phases of
/// seconds to minutes; they only add time, and the share of a run they slow
/// down changes from run to run. A low quantile reads the run's fast
/// phases: over fourteen 20 s `cholesky_x1000` runs it spread 0.16 between
/// runs, against 0.28 for the lower quartile and 0.31 for the median. It is
/// not the minimum, so one stray sample cannot set it.
const THROUGHPUT_QUANTILE: f64 = 0.05;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the samples are taken for.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    pub size: Size,
    /// Where `observed` writes its journals; created if missing.
    pub work_dir: PathBuf,
}

/// The outcome of a run: the result line's fields and the report lines
/// printed before it.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl RunReport {
    pub fn result_line(&self) -> String {
        result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// The seed of the output check that confirms a run on inputs it was not
/// measured on.
pub fn second_seed(seed: u64) -> u64 {
    seed.wrapping_add(1_000_003)
}

/// Samples and the fingerprint every sample must reproduce.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    reference: Option<Fingerprint>,
    problems: Vec<String>,
}

impl Checks {
    /// Count one sample; it fails on any problem or on a fingerprint that
    /// differs from the first sample's.
    fn record(&mut self, fingerprint: Option<Fingerprint>, mut problems: Vec<String>) {
        if let Some(fp) = fingerprint {
            match self.reference {
                None => self.reference = Some(fp),
                Some(r) if r != fp => {
                    problems.push(format!("fingerprint {fp:?} differs from {r:?}"))
                }
                Some(_) => {}
            }
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// One untraced sample: the timed engine call, then its checks.
fn untraced_sample(
    workload: Workload,
    inputs: &Inputs,
    opts: &Options,
) -> (f64, Fingerprint, Vec<String>) {
    let (wall_s, outcome, mut problems) = if workload == Workload::Observed {
        let path = journal_path(&opts.work_dir, workload.name());
        let run = run_observed(inputs.instance(), inputs.platform(), &path, &Untimed);
        (run.wall_s, run.outcome, run.problems)
    } else {
        let (outcome, wall_s) = timed(|| run_plain(inputs));
        (wall_s, outcome, Vec::new())
    };
    problems.extend(check_schedule(inputs, &outcome.schedule).err());
    (wall_s, outcome.fingerprint(), problems)
}

/// Take untraced samples for `budget_s` seconds (at least
/// [`MIN_SAMPLES`]) after one warm-up sample, each sample pinned to the next
/// CPU the process may use (see [`affinity`]). Returns their wall times and
/// the peak resident memory after the warm-up: set-up and one engine call,
/// before a run-length-dependent number of samples can shift the heap.
fn untraced_phase(
    workload: Workload,
    inputs: &Inputs,
    opts: &Options,
    budget_s: f64,
    checks: &mut Checks,
) -> (Vec<f64>, f64) {
    let (_, fp, problems) = untraced_sample(workload, inputs, opts);
    checks.record(Some(fp), problems);
    let peak_rss = peak_rss_mib();
    let allowed = affinity::current();
    let cpus = affinity::cpus(&allowed);
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < budget_s {
        if let Some(&cpu) = cpus.get(walls.len() % cpus.len().max(1)) {
            affinity::set(&affinity::only(cpu));
        }
        let (wall, fp, problems) = untraced_sample(workload, inputs, opts);
        checks.record(Some(fp), problems);
        walls.push(wall);
    }
    if !cpus.is_empty() {
        affinity::set(&allowed);
    }
    (walls, peak_rss)
}

/// Traced samples for `budget_s` seconds (at least [`MIN_SAMPLES`]). Only
/// the last sample keeps its recorded stream.
fn traced_phase(
    workload: Workload,
    inputs: &Inputs,
    opts: &Options,
    budget_s: f64,
    checks: &mut Checks,
) -> Vec<TracedSample> {
    let expected_events = checks.reference.map_or(0, |r| r.events);
    let path = journal_path(&opts.work_dir, "traced");
    let start = Instant::now();
    let mut samples: Vec<TracedSample> = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < budget_s {
        if let Some(prev) = samples.last_mut() {
            prev.events = Vec::new();
        }
        let mut sample = if workload == Workload::Observed {
            traced_observed(inputs.instance(), inputs.platform(), &path)
        } else {
            traced_plain(inputs, expected_events)
        };
        let mut problems = std::mem::take(&mut sample.problems);
        problems.extend(check_schedule(inputs, &sample.outcome.schedule).err());
        checks.record(Some(sample.outcome.fingerprint()), problems);
        sample.outcome.schedule = Schedule::new();
        samples.push(sample);
    }
    samples
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> RunReport {
    let w = opts.workload;
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        return RunReport {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            lines: vec![format!("cannot create {}: {e}", opts.work_dir.display())],
        };
    }
    let mut checks = Checks::default();
    let mut lines = Vec::new();

    let mut setups = Vec::new();
    let mut inputs = None;
    let start = Instant::now();
    while setups.len() < SETUP_REPS || start.elapsed().as_secs_f64() < opts.seconds * SETUP_SHARE {
        // Free the previous inputs first, so set-up never holds two.
        drop(inputs.take());
        let (fresh, times) = setup(w, opts.size, opts.seed);
        setups.push(times);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_median = |f: fn(&crate::workload::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>())
    };
    let setup_s = setup_median(|t| t.total());
    let (bound, bound_s) = timed(|| inputs.lower_bound());
    let tasks = inputs.tasks() as f64;

    let budget = if opts.trace { opts.seconds / 3.0 } else { opts.seconds };
    let (walls, peak_rss) = untraced_phase(w, &inputs, opts, budget, &mut checks);
    let wall_s = median(&walls);
    let makespan = checks.reference.map_or(0.0, |r| f64::from_bits(r.makespan_bits));

    let metrics = if opts.trace {
        let samples = traced_phase(w, &inputs, opts, budget, &mut checks);
        let mut layer = layer_report(&inputs, &samples, &journal_path(&opts.work_dir, "replay"));
        drop(samples);
        checks.record(None, std::mem::take(&mut layer.problems));
        let v = &mut layer.values;
        v.insert("workloads.generate_s", setup_median(|t| t.generate_s));
        v.insert("taskgraph.build_s", setup_median(|t| t.build_s));
        v.insert("taskgraph.rank_s", setup_median(|t| t.rank_s));
        v.insert("bounds.lower_bound_s", bound_s);
        v.insert("ledger.untraced_wall_s", wall_s);
        v.insert(
            "ledger.trace_overhead_x",
            v.get("ledger.traced_wall_s").copied().unwrap_or(0.0) / wall_s,
        );
        lines.extend(layer.ledger.render());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        vec![
            metric(&END_TO_END, "tasks_per_s", tasks / quantile(&walls, THROUGHPUT_QUANTILE)),
            metric(&END_TO_END, "setup_s", setup_s),
            metric(&END_TO_END, "makespan_ratio", makespan / bound),
            metric(&END_TO_END, "peak_rss_mb", peak_rss),
        ]
    };
    drop(inputs);

    // The output check on a seed the run was not measured on.
    let other = second_seed(opts.seed);
    let (other_inputs, _) = setup(w, opts.size, other);
    let (_, _, problems) = untraced_sample(w, &other_inputs, opts);
    let verdict = if problems.is_empty() { "ok".to_string() } else { problems.join("; ") };
    lines.push(format!("second seed {other}: {verdict}"));
    checks.record(None, problems);
    let _ = std::fs::remove_dir(&opts.work_dir);

    let mut head = vec![format!(
        "workload {} seed {} tasks {} samples {} attempted {} failed {}",
        w.name(),
        opts.seed,
        tasks,
        walls.len(),
        checks.attempted,
        checks.failed
    )];
    let quartiles = [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| quantile(&walls, q) * 1e3);
    head.push(format!("sample wall ms (min q1 median q3 max): {quartiles:.3?}"));
    head.extend(
        metrics.iter().map(|(name, unit, value)| format!("{name:<28} {value:>16.6} {unit}")),
    );
    let error_rate = checks.failed as f64 / checks.attempted.max(1) as f64;
    head.push(format!("{:<28} {error_rate:>16.6} ratio (failed / attempted)", "error_rate"));
    head.extend(checks.problems.iter().take(10).map(|p| format!("FAILED: {p}")));
    head.extend(lines);
    RunReport {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        lines: head,
    }
}
