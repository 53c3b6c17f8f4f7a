//! Ablation benches for the design choices DESIGN.md calls out:
//! (a) spoliation on/off, (b) ranking scheme, (c) adversarial vs default
//! tie-breaking, (d) HEFT insertion vs no-insertion. Each bench reports the
//! wall-clock cost; the resulting makespans are printed once per run so the
//! quality effect is visible alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use heteroprio_bench::bench_instance;
use heteroprio_core::{heteroprio, HeteroPrioConfig, QueueTieBreak};
use heteroprio_experiments::{run_dag, DAG_PAPER};
use heteroprio_schedulers::{heft, HeftVariant};
use heteroprio_taskgraph::{cholesky, WeightScheme};
use heteroprio_workloads::{paper_platform, ChameleonTiming};
use std::hint::black_box;
use std::sync::Once;

static PRINT_ONCE: Once = Once::new();

fn report_quality() {
    PRINT_ONCE.call_once(|| {
        let platform = paper_platform();
        let inst = bench_instance(2_000);
        let with = heteroprio(&inst, &platform, &HeteroPrioConfig::new());
        let without = heteroprio(&inst, &platform, &HeteroPrioConfig::without_spoliation());
        eprintln!(
            "[ablation] spoliation: makespan {:.1} ({} spoliations) vs {:.1} without",
            with.makespan(),
            with.spoliations,
            without.makespan()
        );
        let g = cholesky(16, &ChameleonTiming);
        for (name, algo) in &DAG_PAPER[..2] {
            let makespan = run_dag(*algo, &g, &platform).makespan();
            eprintln!("[ablation] ranking {name}: makespan {makespan:.1}");
        }
    });
}

fn spoliation_ablation(c: &mut Criterion) {
    report_quality();
    let platform = paper_platform();
    let inst = bench_instance(2_000);
    let mut group = c.benchmark_group("ablation_spoliation");
    group.bench_function("with", |b| {
        b.iter(|| black_box(heteroprio(&inst, &platform, &HeteroPrioConfig::new()).makespan()))
    });
    group.bench_function("without", |b| {
        b.iter(|| {
            black_box(
                heteroprio(&inst, &platform, &HeteroPrioConfig::without_spoliation()).makespan(),
            )
        })
    });
    group.finish();
}

fn tie_break_ablation(c: &mut Criterion) {
    let platform = paper_platform();
    let inst = bench_instance(2_000);
    let mut group = c.benchmark_group("ablation_tiebreak");
    for (name, tie) in
        [("priority", QueueTieBreak::Priority), ("insertion", QueueTieBreak::InsertionOrder)]
    {
        let cfg = HeteroPrioConfig { queue_tie: tie, ..HeteroPrioConfig::new() };
        group.bench_function(name, |b| {
            b.iter(|| black_box(heteroprio(&inst, &platform, &cfg).makespan()))
        });
    }
    group.finish();
}

fn ranking_ablation(c: &mut Criterion) {
    let platform = paper_platform();
    let g = cholesky(12, &ChameleonTiming);
    let mut group = c.benchmark_group("ablation_ranking");
    group.sample_size(10);
    // HeteroPrio-avg/min, DualHP-fifo/avg.
    for &(name, algo) in &DAG_PAPER[..4] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_dag(algo, &g, &platform).makespan()))
        });
    }
    group.finish();
}

fn heft_insertion_ablation(c: &mut Criterion) {
    let platform = paper_platform();
    let g = cholesky(12, &ChameleonTiming);
    let mut group = c.benchmark_group("ablation_heft_insertion");
    for (name, variant) in
        [("insertion", HeftVariant::Insertion), ("no_insertion", HeftVariant::NoInsertion)]
    {
        group.bench_function(name, |b| {
            b.iter(|| black_box(heft(&g, &platform, WeightScheme::Avg, variant).makespan()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = spoliation_ablation, tie_break_ablation, ranking_ablation, heft_insertion_ablation
}
criterion_main!(benches);
