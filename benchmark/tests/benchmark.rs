//! The benchmark's own checks: its catalogue matches `BENCHMARK.json`,
//! every workload passes its output checks at a tiny size in both modes,
//! and the ledger arithmetic is right.

use heteroprio_benchmark::affinity;
use heteroprio_benchmark::ledger::{Ledger, Row, Source};
use heteroprio_benchmark::report::{result_line, valid_name, END_TO_END, PER_LAYER};
use heteroprio_benchmark::workload::SeededTiming;
use heteroprio_benchmark::{run, Options, RunReport, Size, Workload};
use heteroprio_taskgraph::{Kernel, KernelTiming};
use heteroprio_trace::json::{self, Value};
use heteroprio_workloads::ChameleonTiming;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        let unit_ok = !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "bad unit {unit:?} of {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
    assert!(valid_name("kernel.self_ns_per_task"));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = manifest();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name").to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for w in &workloads {
        assert!(valid_name(w), "bad workload name {w:?}");
    }
    assert_eq!(names_and_units(&doc, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), catalogue(&PER_LAYER));
    let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}

/// A run at the tiny size, in a work directory of its own: tests run in
/// parallel, and journal names are only unique per process.
fn tiny(workload: Workload, trace: bool) -> RunReport {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let id = RUNS.fetch_add(1, Ordering::Relaxed);
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}-{id}",
        workload.name(),
        u8::from(trace)
    ));
    run(&Options { workload, seed: 7, seconds: 0.0, trace, size: Size::TINY, work_dir })
}

fn assert_clean(report: &RunReport, catalogue: &[(&str, &str)]) {
    assert!(report.correct, "{}", report.lines.join("\n"));
    assert_eq!(report.failed, 0);
    assert!(report.attempted >= 5, "warm-up, samples and the second seed all count");
    let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    for (name, _, value) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let line = report.result_line();
    let doc = json::parse(&line).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        let report = tiny(w, false);
        assert_clean(&report, &END_TO_END);
        let value = |n: &str| report.value(n).expect(n);
        assert!(value("tasks_per_s") > 0.0, "{}", w.name());
        assert!(value("setup_s") > 0.0, "{}", w.name());
        assert!(value("peak_rss_mb") > 0.0, "{}", w.name());
        // Makespan over a certified lower bound.
        assert!(value("makespan_ratio") >= 1.0 - 1e-9, "{} {}", w.name(), value("makespan_ratio"));
    }
}

#[test]
fn every_workload_passes_its_checks_traced_and_counts_repeat() {
    let exact =
        ["kernel.events", "kernel.spoliations", "queue.pops", "journal.syncs", "trace.events"];
    for w in Workload::ALL {
        let first = tiny(w, true);
        assert_clean(&first, &PER_LAYER);
        let second = tiny(w, true);
        for name in exact {
            assert_eq!(first.value(name), second.value(name), "{} {name}", w.name());
        }
        let value = |n: &str| first.value(n).expect(n);
        assert!(value("kernel.events") > 0.0);
        assert_eq!(value("kernel.events"), value("trace.events"), "{}", w.name());
        assert!(value("ledger.trace_overhead_x") > 0.0);
    }
}

#[test]
fn layers_the_workload_uses_are_measured() {
    let dag = tiny(Workload::DagCholesky, true);
    for name in
        ["queue.pushes", "schedulers.picks", "taskgraph.release_ns", "simulator.self_ns_per_task"]
    {
        assert!(dag.value(name).expect(name) > 0.0, "dag_cholesky {name}");
    }
    let k3 = tiny(Workload::K3Online, true);
    for name in ["queue.pops", "online.arrival_batches", "workloads.generate_s"] {
        assert!(k3.value(name).expect(name) > 0.0, "k3_online {name}");
    }
    let observed = tiny(Workload::Observed, true);
    for name in ["journal.appends", "journal.syncs", "audit.checks", "metrics.records"] {
        assert!(observed.value(name).expect(name) > 0.0, "observed {name}");
    }
    assert_eq!(observed.value("journal.appends"), observed.value("trace.events"));
    let chol = tiny(Workload::CholeskyX1000, true);
    assert!(chol.value("heteroprio.sort_ns_per_task").expect("sort") > 0.0);
    // The static sort bypasses the dynamic queues and the simulator.
    assert_eq!(chol.value("queue.pushes"), Some(0.0));
    assert_eq!(chol.value("schedulers.picks"), Some(0.0));
}

/// Kernels by acceleration factor ρ = CPU time ÷ GPU time, the order
/// HeteroPrio's queue keeps them in.
fn affinity_order(timing: &impl KernelTiming) -> Vec<Kernel> {
    let rho = |k: &Kernel| {
        let (cpu, gpu) = timing.times(*k);
        cpu / gpu
    };
    let mut kernels = Kernel::ALL.to_vec();
    kernels.sort_by(|a, b| rho(a).total_cmp(&rho(b)));
    kernels
}

#[test]
fn seeds_move_the_kernel_times_but_not_their_affinity_order() {
    let calibrated = affinity_order(&ChameleonTiming);
    for seed in 0..500 {
        assert_eq!(affinity_order(&SeededTiming { seed }), calibrated, "seed {seed}");
    }
    let gemm = |seed| SeededTiming { seed }.times(Kernel::Gemm);
    assert_ne!(gemm(1), gemm(2), "the seed moves the inputs");
}

#[test]
fn ledger_arithmetic_on_a_synthetic_run() {
    let ledger = Ledger {
        wall_ns: 1_000.0,
        rows: vec![
            Row::new("kernel.self", 10.0, 50.0, Source::Remainder),
            Row::new("queue.push", 20.0, 10.0, Source::Replay),
            Row::new("trace.emit", 40.0, 2.5, Source::InSitu),
        ],
    };
    assert_eq!(ledger.explained_ns(), 800.0);
    assert!((ledger.residual_share() - 0.2).abs() < 1e-12);
    let over = Ledger { wall_ns: 500.0, ..ledger.clone() };
    assert!((over.residual_share() + 0.6).abs() < 1e-12, "over-explained is negative");
    assert_eq!(Ledger::default().residual_share(), 0.0);
    let rendered = ledger.render();
    assert_eq!(rendered.len(), ledger.rows.len() + 2);
    assert!(rendered.iter().any(|l| l.contains("residual") && l.contains("20.00%")));
}

#[test]
fn result_line_is_the_contract_object() {
    let line = result_line(true, 12, 0, &[("tasks_per_s", "tasks/s", 1234.5)]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
         {\"tasks_per_s\": {\"value\": 1234.5, \"unit\": \"tasks/s\"}}}"
    );
}

#[test]
fn affinity_masks_round_trip() {
    assert_eq!(affinity::cpus(&affinity::only(0)), vec![0]);
    assert_eq!(affinity::cpus(&affinity::only(70)), vec![70]);
    assert!(affinity::cpus(&affinity::only(5000)).is_empty());
    let allowed = affinity::current();
    let cpus = affinity::cpus(&allowed);
    assert!(!cpus.is_empty(), "the kernel reports at least one CPU");
    assert!(affinity::set(&affinity::only(cpus[0])));
    assert!(affinity::set(&allowed));
}
