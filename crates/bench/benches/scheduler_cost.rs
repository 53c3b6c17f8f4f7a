//! Scheduler wall-clock cost on independent ready sets (the paper's §1
//! motivation: runtime schedulers sit on the critical path, so decisions
//! must be near-constant-time). HeteroPrio's cost per task is O(log k);
//! DualHP re-packs the ready set inside a binary search; HEFT scans all
//! workers per task.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heteroprio_bench::bench_instance;
use heteroprio_core::{heteroprio, HeteroPrioConfig};
use heteroprio_experiments::{run_indep, IndepAlgo};
use heteroprio_schedulers::dualhp_independent;
use heteroprio_workloads::paper_platform;
use std::hint::black_box;

fn scheduler_cost(c: &mut Criterion) {
    let platform = paper_platform();
    let mut group = c.benchmark_group("scheduler_cost");
    for &size in &[100usize, 1_000, 10_000] {
        let instance = bench_instance(size);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("heteroprio", size), &instance, |b, inst| {
            b.iter(|| black_box(heteroprio(inst, &platform, &HeteroPrioConfig::new()).makespan()))
        });
        group.bench_with_input(BenchmarkId::new("dualhp", size), &instance, |b, inst| {
            b.iter(|| black_box(dualhp_independent(inst, &platform).makespan()))
        });
        group.bench_with_input(BenchmarkId::new("heft", size), &instance, |b, inst| {
            b.iter(|| black_box(run_indep(IndepAlgo::Heft, inst, &platform).makespan()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = scheduler_cost
}
criterion_main!(benches);
