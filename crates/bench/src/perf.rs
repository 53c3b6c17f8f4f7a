//! The kernel perf harness behind the CLI `perf` subcommand, which
//! `scripts/bench.sh` runs to write the committed `BENCH_kernel.json`.
//!
//! Runs Fig. 6-scale (Cholesky N=16/N=32 kernel mixes on the paper's
//! 20 CPU + 4 GPU platform) and 1000×-scale (Cholesky N=160 with ~695k
//! tasks, a 1M-task random instance) workloads under an
//! [`InMemoryRegistry`], and emits the schema-versioned `BENCH_kernel.json`
//! checkpoint: events/sec, tasks/sec, p50/p99 pick latency and peak queue
//! depths per case. Kernel optimizations are measured against this
//! baseline.
//!
//! [`validate_baseline`] checks the schema and the non-timing invariants
//! (non-zero counters, required scales); the `perf --smoke` gate in
//! `scripts/check.sh` relies on it staying free of timing assertions so CI
//! stays deterministic.

use heteroprio_core::durability::metric as dmetric;
use heteroprio_core::kernel::{self, metric, Run};
use heteroprio_core::Platform;
use heteroprio_core::{heteroprio_metered, journaled, HeteroPrioConfig, Instance, MeteredJournal};
use heteroprio_metrics::{InMemoryRegistry, MetricsSnapshot, Stopwatch};
use heteroprio_schedulers::HeteroPrioDagPolicy;
use heteroprio_simulator::{dag, FaultPlan, TransferModel};
use heteroprio_taskgraph::{apply_bottom_level_priorities, cholesky, Factorization, WeightScheme};
use heteroprio_trace::journal::encode_record;
use heteroprio_trace::{json, FileJournal, NullSink, SchedEvent, TraceSink};
use heteroprio_workloads::{
    independent_instance, multi_class_instance, paper_platform, random_instance, ChameleonTiming,
    MultiClassParams, RandomInstanceParams,
};

/// Version of the `BENCH_kernel.json` schema this harness emits.
pub const SCHEMA_VERSION: u64 = 1;
/// Value of the top-level `"schema"` tag.
pub const SCHEMA_NAME: &str = "heteroprio-bench-kernel";

/// Everything measured for one workload.
struct CaseResult {
    name: &'static str,
    /// `"fig6"`, `"x1000"`, or `"smoke"`.
    scale: &'static str,
    /// `"independent"` (Algorithm 1 queue) or `"dag"` (simulator frontend).
    engine: &'static str,
    tasks: usize,
    makespan: f64,
    spoliations: usize,
    wall_s: f64,
    /// `true` when the run streamed every event through a file journal.
    journaled: bool,
    snapshot: MetricsSnapshot,
}

impl CaseResult {
    fn counter(&self, name: &str) -> u64 {
        self.snapshot.counter(name).unwrap_or(0)
    }

    fn to_json(&self) -> String {
        let events = self.counter(metric::EVENTS_TOTAL);
        let per_sec = |count: u64| {
            if self.wall_s > 0.0 {
                count as f64 / self.wall_s
            } else {
                0.0
            }
        };
        let pick = self.snapshot.histogram(metric::PICK_NS);
        let quantile = |q: f64| pick.map_or(0, |h| h.quantile(q));
        let peak = |name: &str| self.snapshot.gauge(&format!("{name}_peak")).unwrap_or(0);
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"scale\": \"{}\",\n      \"engine\": \"{}\",\n      \
             \"tasks\": {},\n      \"events\": {},\n      \"trace_events\": {},\n      \
             \"spoliations\": {},\n      \"makespan\": {},\n      \"wall_s\": {},\n      \
             \"tasks_per_sec\": {},\n      \"events_per_sec\": {},\n      \
             \"pick_p50_ns\": {},\n      \"pick_p99_ns\": {},\n      \
             \"peak_ready_depth\": {},\n      \"peak_event_heap_depth\": {},\n      \
             \"journaled\": {},\n      \"journal_appends\": {},\n      \
             \"journal_syncs\": {},\n      \"journal_bytes\": {}\n    }}",
            self.name,
            self.scale,
            self.engine,
            self.tasks,
            events,
            self.counter(metric::TRACE_EVENTS_TOTAL),
            self.spoliations,
            self.makespan,
            self.wall_s,
            per_sec(self.counter(metric::TASKS_COMPLETED_TOTAL)),
            per_sec(events),
            quantile(0.5),
            quantile(0.99),
            peak(metric::READY_DEPTH),
            peak(metric::EVENT_HEAP_DEPTH),
            self.journaled,
            self.counter(dmetric::JOURNAL_APPENDS_TOTAL),
            self.counter(dmetric::JOURNAL_SYNCS_TOTAL),
            self.counter(dmetric::JOURNAL_BYTES_TOTAL),
        )
    }
}

/// Run one independent-task instance through the Algorithm 1 engine with a
/// fresh registry and a [`NullSink`] (so trace buffering does not distort
/// the measurement; the emission funnel still counts events).
fn run_independent(name: &'static str, scale: &'static str, instance: &Instance) -> CaseResult {
    run_independent_on(name, scale, &paper_platform(), instance)
}

/// [`run_independent`] on an explicit platform — the k-class cases and the
/// `perf --platform` custom case go through here.
fn run_independent_on(
    name: &'static str,
    scale: &'static str,
    platform: &Platform,
    instance: &Instance,
) -> CaseResult {
    let registry = InMemoryRegistry::new();
    let sw = Stopwatch::start();
    let res =
        heteroprio_metered(instance, platform, &HeteroPrioConfig::new(), &mut NullSink, &registry);
    let wall_s = sw.elapsed_secs_f64();
    CaseResult {
        name,
        scale,
        engine: "independent",
        tasks: instance.len(),
        makespan: res.schedule.makespan(),
        spoliations: res.spoliations,
        wall_s,
        journaled: false,
        snapshot: registry.snapshot(),
    }
}

/// The k=3 throughput case: the `cpu=16,gpu=4,fpga=2` demonstration
/// platform exercises the pair-queue engine path (one affinity order per
/// class pair, argmax pops) instead of the two-class deque. Same case name
/// in the smoke and full suites so the `--against` gate compares it.
fn run_multi_class_k3() -> CaseResult {
    let (_, platform) = heteroprio_workloads::three_class_platform();
    let instance = multi_class_instance(&MultiClassParams::three_class(5_000), 0xC1A55);
    run_independent_on("multi_class_k3", "k3", &platform, &instance)
}

/// The journal-on twin of [`run_independent`]: every event streamed through
/// a [`MeteredJournal`]-wrapped [`FileJournal`] (real framing, CRCs and the
/// default fsync cadence, plus the final commit sync) in the system temp
/// dir. Events/sec here versus the `_trace` twin — which persists the same
/// stream as a plain trace file — is the durability overhead ratio the
/// acceptance gate bounds at 2x.
fn run_independent_journaled(
    name: &'static str,
    scale: &'static str,
    instance: &Instance,
) -> CaseResult {
    let platform = paper_platform();
    let registry = InMemoryRegistry::new();
    let path = std::env::temp_dir().join(format!("hp-bench-{}-{name}.journal", std::process::id()));
    let journal = FileJournal::create(&path).expect("create bench journal");
    let mut metered = MeteredJournal::new(journal, &registry);
    let config = HeteroPrioConfig::new();
    let sw = Stopwatch::start();
    let res = journaled(&mut metered, &mut NullSink, |sink| {
        heteroprio_metered(instance, &platform, &config, sink, &registry)
    })
    .expect("bench journal append and final sync");
    let wall_s = sw.elapsed_secs_f64();
    drop(metered);
    let _ = std::fs::remove_file(&path);
    CaseResult {
        name,
        scale,
        engine: "independent",
        tasks: instance.len(),
        makespan: res.schedule.makespan(),
        spoliations: res.spoliations,
        wall_s,
        journaled: true,
        snapshot: registry.snapshot(),
    }
}

/// Journal-off persistence twin of [`run_independent_journaled`]: the same
/// event stream written as unframed HPJL2 records to a plain trace file
/// through a buffered writer, with one write-out sync at the end — the
/// serialization and disk bandwidth any persisted trace pays, without
/// framing, checksums or the cadenced fsyncs. The journal *replaces* this
/// file (it is the trace stream made durable), so this twin is the fair
/// baseline for the durability tax: both runs put the same records on disk
/// (the journal adds an 8-byte header to each), and the ratio isolates the
/// journal machinery. Without the final sync the twin's bytes would sit in
/// page cache and the comparison would charge the journal for write-out
/// the baseline silently skips. [`run_independent`]'s `NullSink` case
/// stays in the document to show the cost of persistence itself.
///
/// Records go through [`encode_record`], the journal's own encoder, into a
/// reused buffer, so the two runs pay the same encoding cost and the ratio
/// isolates framing, CRC and fsync.
struct TraceFileSink {
    out: std::io::BufWriter<std::fs::File>,
    record: Vec<u8>,
}

impl TraceSink for TraceFileSink {
    fn emit(&mut self, event: SchedEvent) {
        use std::io::Write;
        self.record.clear();
        encode_record(&event, &mut self.record);
        let _ = self.out.write_all(&self.record);
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

fn run_independent_traced(
    name: &'static str,
    scale: &'static str,
    instance: &Instance,
) -> CaseResult {
    let platform = paper_platform();
    let registry = InMemoryRegistry::new();
    let path = std::env::temp_dir().join(format!("hp-bench-{}-{name}.trace", std::process::id()));
    let file = std::fs::File::create(&path).expect("create bench trace file");
    let mut sink = TraceFileSink { out: std::io::BufWriter::new(file), record: Vec::new() };
    let sw = Stopwatch::start();
    let res =
        heteroprio_metered(instance, &platform, &HeteroPrioConfig::new(), &mut sink, &registry);
    {
        use std::io::Write;
        sink.out.flush().expect("flush bench trace file");
        sink.out.get_ref().sync_data().expect("write out bench trace file");
    }
    let wall_s = sw.elapsed_secs_f64();
    drop(sink);
    let _ = std::fs::remove_file(&path);
    CaseResult {
        name,
        scale,
        engine: "independent",
        tasks: instance.len(),
        makespan: res.schedule.makespan(),
        spoliations: res.spoliations,
        wall_s,
        journaled: false,
        snapshot: registry.snapshot(),
    }
}

/// Run one Cholesky DAG through the simulator frontend (dependency release,
/// `PolicyDecision` events) with a fresh registry.
fn run_dag(name: &'static str, scale: &'static str, tiles: usize) -> CaseResult {
    let platform = paper_platform();
    let mut graph = cholesky(tiles, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let registry = InMemoryRegistry::new();
    let sw = Stopwatch::start();
    let (mut workload, mut policy, _) =
        dag(&graph, &platform, &mut policy, &TransferModel::NONE, &FaultPlan::NONE)
            .expect("the empty fault plan is valid");
    let res =
        kernel::run(&platform, &mut workload, &mut policy, Run::new(&mut NullSink, &registry))
            .expect("fault-free simulation cannot fail");
    let wall_s = sw.elapsed_secs_f64();
    CaseResult {
        name,
        scale,
        engine: "dag",
        tasks: graph.len(),
        makespan: res.schedule.makespan(),
        spoliations: res.spoliations,
        wall_s,
        journaled: false,
        snapshot: registry.snapshot(),
    }
}

fn fig6_instance(tiles: usize) -> Instance {
    independent_instance(Factorization::Cholesky, tiles, &ChameleonTiming)
}

/// Repeat a measurement and keep the fastest run. Timing noise on
/// sub-millisecond cases is strictly additive (preemption, cache state),
/// so best-of is the robust statistic for the regression gate's
/// comparisons against the committed baseline.
fn best_of(reps: usize, run: impl Fn() -> CaseResult) -> CaseResult {
    (0..reps)
        .map(|_| run())
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("best_of needs at least one rep")
}

/// Run the suite and return the `BENCH_kernel.json` document. `smoke` runs
/// tiny instances only (for the deterministic CI gate); the full suite runs
/// the Fig. 6-scale and 1000×-scale cases the baseline commits. `custom`
/// adds one case on a caller-supplied platform (the CLI's `perf
/// --platform`): a seeded k-class random instance sized like the fig6
/// cases, named `custom_platform`.
pub fn run_suite_on(smoke: bool, custom: Option<&Platform>) -> String {
    let mut cases: Vec<CaseResult> = if smoke {
        vec![
            run_independent("cholesky_n4_smoke", "smoke", &fig6_instance(4)),
            run_independent(
                "random_200_smoke",
                "smoke",
                &random_instance(
                    &RandomInstanceParams { tasks: 200, ..RandomInstanceParams::default() },
                    0xBEEF,
                ),
            ),
            run_dag("dag_cholesky_n4_smoke", "smoke", 4),
            run_independent_traced("cholesky_n4_smoke_trace", "smoke", &fig6_instance(4)),
            run_independent_journaled("cholesky_n4_smoke_journal", "smoke", &fig6_instance(4)),
            // Regression-gate cases: named identically to cases in the
            // committed full baseline so [`compare_against_baseline`] finds
            // overlap; best-of repetition damps the timing noise the tiny
            // fig6 instances are exposed to.
            best_of(7, || run_independent("cholesky_n16_fig6", "fig6", &fig6_instance(16))),
            best_of(5, || run_independent("cholesky_n32_fig6", "fig6", &fig6_instance(32))),
            best_of(7, || run_dag("dag_cholesky_n16_fig6", "fig6", 16)),
            best_of(5, run_multi_class_k3),
        ]
    } else {
        vec![
            run_independent("cholesky_n16_fig6", "fig6", &fig6_instance(16)),
            run_independent("cholesky_n32_fig6", "fig6", &fig6_instance(32)),
            run_independent_traced("cholesky_n16_fig6_trace", "fig6", &fig6_instance(16)),
            run_independent_traced("cholesky_n32_fig6_trace", "fig6", &fig6_instance(32)),
            run_independent_journaled("cholesky_n16_fig6_journal", "fig6", &fig6_instance(16)),
            run_independent_journaled("cholesky_n32_fig6_journal", "fig6", &fig6_instance(32)),
            run_dag("dag_cholesky_n16_fig6", "fig6", 16),
            run_independent("cholesky_n160_x1000", "x1000", &fig6_instance(160)),
            run_independent(
                "random_1m_x1000",
                "x1000",
                &random_instance(
                    &RandomInstanceParams { tasks: 1_000_000, ..RandomInstanceParams::default() },
                    0xBEEF,
                ),
            ),
            run_multi_class_k3(),
        ]
    };
    if let Some(platform) = custom {
        let params = MultiClassParams {
            tasks: 5_000,
            base_range: (1.0, 10.0),
            accel_ranges: vec![(0.5, 30.0); platform.k() - 1],
        };
        let instance = multi_class_instance(&params, 0xC1A55);
        cases.push(run_independent_on("custom_platform", "custom", platform, &instance));
    }
    let platform = paper_platform();
    let body: Vec<String> = cases.iter().map(CaseResult::to_json).collect();
    // The durability tax, per journaled case: wall time versus the twin
    // that persists the identical event stream as a plain trace file. The
    // acceptance gate reads this ratio and bounds it at 2x.
    let overhead: Vec<String> = cases
        .iter()
        .filter(|c| c.journaled)
        .filter_map(|c| {
            let twin = format!("{}_trace", c.name.strip_suffix("_journal")?);
            let off = cases.iter().find(|o| o.name == twin)?;
            (off.wall_s > 0.0).then(|| {
                format!(
                    "    {{ \"case\": \"{}\", \"vs\": \"{}\", \"overhead_x\": {:.3} }}",
                    c.name,
                    twin,
                    c.wall_s / off.wall_s
                )
            })
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA_NAME}\",\n  \"version\": {SCHEMA_VERSION},\n  \
         \"smoke\": {smoke},\n  \"platform\": {{ \"cpus\": {}, \"gpus\": {} }},\n  \
         \"journal_overhead\": [\n{}\n  ],\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        platform.cpus(),
        platform.gpus(),
        overhead.join(",\n"),
        body.join(",\n"),
    )
}

/// Check a `BENCH_kernel.json` document: schema tag and version, non-empty
/// cases, non-zero task/event counters, and — for a full (non-smoke) run —
/// at least one `fig6` and one `x1000` case. Deliberately no timing
/// assertions, so the CI smoke gate stays deterministic.
pub fn validate_baseline(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing top-level {key:?}"));
    if field("schema")?.as_str() != Some(SCHEMA_NAME) {
        return Err(format!("schema tag is not {SCHEMA_NAME:?}"));
    }
    if field("version")?.as_f64() != Some(SCHEMA_VERSION as f64) {
        return Err(format!("unsupported schema version (want {SCHEMA_VERSION})"));
    }
    let smoke = field("smoke")?.as_bool().ok_or("smoke flag is not a bool")?;
    let cases = field("cases")?.as_arr().ok_or("cases is not an array")?;
    if cases.is_empty() {
        return Err("cases array is empty".to_string());
    }
    let mut scales = Vec::new();
    let mut saw_journaled = false;
    for case in cases {
        let name = case.get("name").and_then(|v| v.as_str()).ok_or("case missing name")?;
        for key in [
            "tasks",
            "events",
            "trace_events",
            "wall_s",
            "tasks_per_sec",
            "events_per_sec",
            "pick_p50_ns",
            "pick_p99_ns",
            "peak_ready_depth",
            "peak_event_heap_depth",
            "makespan",
            "journal_appends",
            "journal_syncs",
            "journal_bytes",
        ] {
            let value = case
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{name}: missing numeric {key:?}"))?;
            if value < 0.0 {
                return Err(format!("{name}: {key} is negative"));
            }
        }
        for key in ["tasks", "events", "trace_events", "peak_event_heap_depth"] {
            let nonzero = case.get(key).and_then(|v| v.as_f64()).is_some_and(|v| v > 0.0);
            if !nonzero {
                return Err(format!("{name}: counter {key:?} is zero"));
            }
        }
        let journaled =
            case.get("journaled").and_then(|v| v.as_bool()).ok_or("case missing journaled")?;
        if journaled {
            saw_journaled = true;
            let appends = case.get("journal_appends").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let traced = case.get("trace_events").and_then(|v| v.as_f64()).unwrap_or(0.0);
            // lint: allow(float-eq): exact integer counters carried in JSON numbers.
            if appends != traced {
                return Err(format!(
                    "{name}: journaled case appended {appends} records but traced {traced} events"
                ));
            }
            let bytes = case.get("journal_bytes").and_then(|v| v.as_f64()).unwrap_or(0.0);
            if bytes <= 0.0 {
                return Err(format!("{name}: journaled case wrote no bytes"));
            }
        }
        scales.push(case.get("scale").and_then(|v| v.as_str()).ok_or("case missing scale")?);
    }
    if !saw_journaled {
        return Err("baseline has no journal-on case to measure durability overhead".to_string());
    }
    // Every journaled case must have its trace-file twin and a recorded
    // overhead ratio (presence and positivity only — no timing threshold,
    // so the CI smoke gate stays deterministic; the 2x acceptance bound is
    // read off the committed full baseline).
    let overhead = field("journal_overhead")?.as_arr().ok_or("journal_overhead is not an array")?;
    let journaled_names: Vec<&str> = cases
        .iter()
        .filter(|c| c.get("journaled").and_then(|v| v.as_bool()) == Some(true))
        .filter_map(|c| c.get("name").and_then(|v| v.as_str()))
        .collect();
    for name in &journaled_names {
        let entry = overhead
            .iter()
            .find(|e| e.get("case").and_then(|v| v.as_str()) == Some(name))
            .ok_or_else(|| format!("{name}: journaled case has no journal_overhead entry"))?;
        let ratio = entry
            .get("overhead_x")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{name}: journal_overhead entry has no numeric overhead_x"))?;
        if ratio.is_nan() || ratio <= 0.0 {
            return Err(format!("{name}: journal overhead ratio {ratio} is not positive"));
        }
    }
    if !smoke {
        for required in ["fig6", "x1000"] {
            if !scales.contains(&required) {
                return Err(format!("full baseline is missing a {required:?}-scale case"));
            }
        }
    }
    Ok(())
}

/// Compare a fresh run against a committed baseline document: every case
/// name present in **both** documents must not have lost more than
/// `tolerance` (a fraction, e.g. `0.2`) of its baseline tasks/sec.
///
/// Returns one report line per compared case on success; an `Err` lists
/// every regressed case. Trace/journal twins never overlap with the gate
/// cases the smoke suite emits, so only the deterministic compute cases
/// are compared. This is the `perf --smoke --against BENCH_kernel.json`
/// gate in `scripts/check.sh`.
pub fn compare_against_baseline(
    current: &str,
    baseline: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    fn rates(text: &str) -> Result<Vec<(String, f64)>, String> {
        let doc = json::parse(text)?;
        let cases = doc.get("cases").and_then(|c| c.as_arr()).ok_or("document has no cases")?;
        cases
            .iter()
            .map(|c| {
                let name =
                    c.get("name").and_then(|v| v.as_str()).ok_or("case missing name")?.to_string();
                let rate = c
                    .get("tasks_per_sec")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{name}: missing tasks_per_sec"))?;
                Ok((name, rate))
            })
            .collect()
    }
    let current = rates(current)?;
    let baseline = rates(baseline)?;
    let mut report = Vec::new();
    let mut regressions = Vec::new();
    for (name, rate) in &current {
        let Some((_, base)) = baseline.iter().find(|(b, _)| b == name) else {
            continue;
        };
        if *base <= 0.0 {
            return Err(format!("{name}: baseline tasks_per_sec is not positive"));
        }
        let ratio = rate / base;
        let line = format!("{name}: {rate:.0} vs baseline {base:.0} tasks/s ({ratio:.2}x)");
        // lint: allow(float-ord): perf-gate regression threshold on a
        // throughput ratio, not a simulated-time comparison.
        if ratio < 1.0 - tolerance {
            regressions.push(line.clone());
        }
        report.push(line);
    }
    if report.is_empty() {
        return Err("no case names overlap between the run and the baseline".to_string());
    }
    if !regressions.is_empty() {
        return Err(format!(
            "tasks/sec regressed more than {:.0}% on {} case(s):\n  {}",
            tolerance * 100.0,
            regressions.len(),
            regressions.join("\n  ")
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_emits_a_valid_baseline() {
        let doc = run_suite_on(true, None);
        validate_baseline(&doc).expect("smoke baseline validates");
        for needle in [
            "cholesky_n4_smoke",
            "random_200_smoke",
            "dag_cholesky_n4_smoke",
            "cholesky_n4_smoke_journal",
            // The regression-gate cases must keep the names the committed
            // full baseline uses, or `--against` has nothing to compare.
            "\"name\": \"cholesky_n16_fig6\"",
            "\"name\": \"cholesky_n32_fig6\"",
            "\"name\": \"dag_cholesky_n16_fig6\"",
        ] {
            assert!(doc.contains(needle), "missing case {needle} in:\n{doc}");
        }
    }

    #[test]
    fn compare_flags_regressions_and_tolerates_noise() {
        let doc = |rate: f64| {
            format!(
                "{{ \"cases\": [ {{ \"name\": \"a\", \"tasks_per_sec\": {rate} }}, \
                 {{ \"name\": \"only_current\", \"tasks_per_sec\": 1.0 }} ] }}"
            )
        };
        let base = "{ \"cases\": [ { \"name\": \"a\", \"tasks_per_sec\": 1000.0 }, \
                     { \"name\": \"only_baseline\", \"tasks_per_sec\": 9.0 } ] }";
        let base = base.to_string();
        // Within tolerance (10% down on a 20% gate) passes with a report.
        let report = compare_against_baseline(&doc(900.0), &base, 0.2).expect("within tolerance");
        assert_eq!(report.len(), 1, "only overlapping names are compared: {report:?}");
        assert!(report[0].contains("0.90x"), "{report:?}");
        // Faster than baseline passes.
        assert!(compare_against_baseline(&doc(2000.0), &base, 0.2).is_ok());
        // A 30% drop on a 20% gate fails and names the case.
        let err = compare_against_baseline(&doc(700.0), &base, 0.2).unwrap_err();
        assert!(err.contains("a: 700"), "{err}");
        // No overlap at all is an error, not a silent pass.
        let disjoint = "{ \"cases\": [ { \"name\": \"b\", \"tasks_per_sec\": 5.0 } ] }";
        assert!(compare_against_baseline(disjoint, &base, 0.2).is_err());
        // Garbage documents are errors.
        assert!(compare_against_baseline("nope", &base, 0.2).is_err());
        assert!(compare_against_baseline(&doc(1.0), "{}", 0.2).is_err());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(validate_baseline("{}").is_err());
        assert!(validate_baseline("not json").is_err());
        let wrong_version = run_suite_on(true, None).replace("\"version\": 1", "\"version\": 999");
        assert!(validate_baseline(&wrong_version).is_err());
        // A full baseline without the x1000 case must be rejected.
        let fake_full = run_suite_on(true, None).replace("\"smoke\": true", "\"smoke\": false");
        assert!(validate_baseline(&fake_full).is_err());
    }
}
