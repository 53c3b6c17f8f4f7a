//! Benchmarks of the submission front-end: dependency-inference throughput
//! (tasks submitted per second) and end-to-end factorization runs, plus the
//! classic heuristics' mapping cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heteroprio_bench::bench_instance;
use heteroprio_core::Platform;
use heteroprio_metrics::NullRegistry;
use heteroprio_runtime::{submit_cholesky, Runtime, Scheduler};
use heteroprio_schedulers::{HeftVariant, IndepAlgo};
use heteroprio_taskgraph::{expected_task_count, Factorization, WeightScheme};
use heteroprio_workloads::{paper_platform, ChameleonTiming};
use std::hint::black_box;

fn submission_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_submission");
    for n in [8usize, 16, 24] {
        let tasks = expected_task_count(Factorization::Cholesky, n) as u64;
        group.throughput(Throughput::Elements(tasks));
        group.bench_with_input(BenchmarkId::new("cholesky_infer", n), &n, |b, &n| {
            b.iter(|| {
                let mut rt = Runtime::new(Platform::new(2, 2));
                submit_cholesky(&mut rt, n, &ChameleonTiming);
                black_box(rt.build_graph().unwrap().edge_count())
            })
        });
    }
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_end_to_end");
    group.sample_size(10);
    group.bench_function("cholesky_n16_heteroprio", |b| {
        b.iter(|| {
            let mut rt = Runtime::new(paper_platform());
            submit_cholesky(&mut rt, 16, &ChameleonTiming);
            black_box(rt.run(Scheduler::HeteroPrio(WeightScheme::Min)).unwrap().makespan)
        })
    });
    group.finish();
}

fn heuristics_cost(c: &mut Criterion) {
    let platform = paper_platform();
    let instance = bench_instance(2_000);
    let mut group = c.benchmark_group("heuristics_cost");
    for h in IndepAlgo::HEURISTICS {
        group.bench_function(h.label(), |b| {
            let run = || h.run(&instance, &platform, HeftVariant::Insertion, &NullRegistry);
            b.iter(|| black_box(run().makespan()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = submission_throughput, end_to_end, heuristics_cost
}
criterion_main!(benches);
