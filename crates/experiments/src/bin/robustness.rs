//! Robustness studies beyond the paper's model assumptions:
//!
//! 1. **Calibration noise** — StarPU's per-task time estimates carry error;
//!    we jitter every kernel time log-uniformly and watch the Figure 6
//!    ratios (the schedulers still *decide* on the perturbed estimates, and
//!    the perturbed times are the truth, so this probes sensitivity of the
//!    algorithms' decisions to the affinity signal).
//! 2. **Cross-class transfer penalty** — a fixed cost added to any task
//!    whose input was produced on the other resource class, approximating
//!    PCI transfers that the paper's model ignores.
//!
//! Usage: `robustness [--csv] [--seed S] [--jitters J1,J2,...]`.

#![forbid(unsafe_code)]

use heteroprio_bounds::{combined_lower_bound, dag_lower_bound};
use heteroprio_core::kernel::Run;
use heteroprio_experiments::{
    emit, flag_list, flag_value, run_indep, IndepAlgo, Scheduler, TextTable,
};
use heteroprio_metrics::NullRegistry;
use heteroprio_schedulers::DualHpRank;
use heteroprio_simulator::TransferModel;
use heteroprio_taskgraph::{apply_bottom_level_priorities, cholesky, Factorization, WeightScheme};
use heteroprio_trace::NullSink;
use heteroprio_workloads::{
    independent_instance, paper_platform, ChameleonTiming, JitteredTiming, TileScaledTiming,
};

fn jitter_sweep(seed: u64, jitters: &[f64]) {
    let platform = paper_platform();
    let mut t = TextTable::new(vec!["jitter", "HeteroPrio", "DualHP", "HEFT"]);
    for &jitter in jitters {
        let timing = JitteredTiming { inner: ChameleonTiming, jitter, seed };
        let instance = independent_instance(Factorization::Cholesky, 16, &timing);
        let lb = combined_lower_bound(&instance, &platform);
        let mut row = vec![format!("{jitter:.2}")];
        for algo in IndepAlgo::PAPER {
            let ms = run_indep(algo, &instance, &platform).makespan();
            row.push(format!("{:.4}", ms / lb));
        }
        t.push_row(row);
    }
    emit(
        &format!(
            "Robustness — calibration jitter (Cholesky N=16, ratio to area bound, seed {seed})"
        ),
        &t,
    );
}

fn penalty_sweep() {
    let platform = paper_platform();
    let mut graph = cholesky(16, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    // Reference scale: the mean GPU kernel time of the instance.
    let mean_gpu: f64 =
        graph.instance().tasks().iter().map(|t| t.gpu_time()).sum::<f64>() / graph.len() as f64;
    let lb = dag_lower_bound(&graph, &platform);
    let mut t = TextTable::new(vec![
        "penalty (% mean gpu task)",
        "HeteroPrio-min",
        "HP spoliations",
        "DualHP-fifo",
        "priority list",
    ]);
    for frac in [0.0, 0.05, 0.1, 0.25, 0.5] {
        let model = TransferModel::new(frac * mean_gpu);
        let [hp, dual, list] = [
            Scheduler::HeteroPrio(WeightScheme::Min),
            Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min),
            Scheduler::PriorityList(WeightScheme::Min),
        ]
        .map(|scheduler| {
            let mut sink = NullSink;
            let spec = Run::new(&mut sink, &NullRegistry);
            let res = scheduler.run(&graph, &platform, &model, spec);
            let res = res.expect("fault-free");
            res.schedule
                .validate_with_overhead(graph.instance(), &platform, model.cross_class_penalty)
                .expect("valid under the cost model");
            res
        });
        t.push_row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{:.4}", hp.schedule.makespan() / lb),
            hp.spoliations.to_string(),
            format!("{:.4}", dual.schedule.makespan() / lb),
            format!("{:.4}", list.schedule.makespan() / lb),
        ]);
    }
    emit(
        "Robustness — cross-class transfer penalty (Cholesky N=16 DAG, ratio to zero-penalty LB)",
        &t,
    );
}

fn tile_size_sweep() {
    // Smaller tiles collapse the affinity spread between panel and update
    // kernels; affinity-based scheduling should lose (and HEFT regain)
    // ground as the spread shrinks.
    let platform = paper_platform();
    let mut t = TextTable::new(vec!["tile", "GEMM accel", "HeteroPrio", "DualHP", "HEFT"]);
    for tile in [240usize, 480, 960, 1920] {
        let timing = TileScaledTiming::new(tile);
        let instance = independent_instance(Factorization::Cholesky, 16, &timing);
        let lb = combined_lower_bound(&instance, &platform);
        let mut row = vec![
            tile.to_string(),
            format!("{:.2}", timing.accel(heteroprio_taskgraph::Kernel::Gemm)),
        ];
        for algo in IndepAlgo::PAPER {
            let ms = run_indep(algo, &instance, &platform).makespan();
            row.push(format!("{:.4}", ms / lb));
        }
        t.push_row(row);
    }
    emit("Robustness — tile size (Cholesky N=16, ratio to area bound)", &t);
}

fn main() {
    let seed = flag_value("--seed").unwrap_or(2024);
    let jitters = flag_list("--jitters").unwrap_or_else(|| vec![0.0, 0.1, 0.2, 0.5]);
    jitter_sweep(seed, &jitters);
    penalty_sweep();
    tile_size_sweep();
}
