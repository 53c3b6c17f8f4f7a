//! Fault-injection study: how the paper's schedulers degrade when the
//! platform misbehaves.
//!
//! 1. **Headline — all GPUs die.** Every GPU fails permanently at 25% of
//!    the fault-free makespan. The Cholesky N=16 DAG must still complete
//!    on the 20 CPUs; we compare the degraded makespan against a lower
//!    bound recomputed for the degraded platform (CPU area bound with the
//!    pre-failure GPU capacity credited at the best acceleration factor).
//! 2. **Task failures.** Each attempt fails with probability `p`; failed
//!    attempts are retried after capped exponential backoff.
//! 3. **Stochastic runtimes.** Actual durations are drawn log-uniformly
//!    around the estimates the policies decide on.
//!
//! All draws are deterministic per seed.
//!
//! Usage: `faults [--csv] [--seed S]`.

#![forbid(unsafe_code)]

use heteroprio_bounds::dag_lower_bound;
use heteroprio_core::kernel::Run;
use heteroprio_core::{FaultPlan, Platform, ResourceKind, RetryPolicy, RunError, WorkerFault};
use heteroprio_experiments::{emit, flag_value, Scheduler, TextTable};
use heteroprio_metrics::NullRegistry;
use heteroprio_schedulers::DualHpRank;
use heteroprio_simulator::{SimResult, TransferModel};
use heteroprio_taskgraph::{cholesky, TaskGraph, WeightScheme};
use heteroprio_trace::NullSink;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

/// The online schedulers under study, all ranked by `min` bottom levels.
const ALGOS: [(&str, Scheduler); 3] = [
    ("HeteroPrio", Scheduler::HeteroPrio(WeightScheme::Min)),
    ("DualHP", Scheduler::DualHp(DualHpRank::Priority, WeightScheme::Min)),
    ("priority list", Scheduler::PriorityList(WeightScheme::Min)),
];

/// Run `scheduler` over the ranked `graph` under `plan`.
fn run(
    scheduler: Scheduler,
    graph: &TaskGraph,
    platform: &Platform,
    plan: &FaultPlan,
) -> Result<SimResult, RunError> {
    let mut sink = NullSink;
    let spec = Run { faults: plan.clone(), ..Run::new(&mut sink, &NullRegistry) };
    Ok(scheduler.run(graph, platform, &TransferModel::NONE, spec)?.into())
}

fn ranked_cholesky(n: usize) -> TaskGraph {
    let mut graph = cholesky(n, &ChameleonTiming);
    Scheduler::default().rank(&mut graph);
    graph
}

/// Lower bound when every GPU dies at `t_kill`. During `[0, t_kill]` the
/// `n` GPUs offer `n·t_kill` units of GPU time; offloading a task there
/// removes at most `cpu_time = gpu_time · ρ` of CPU work, so the CPU-area
/// bound on the surviving class is
/// `(Σ cpu_time − n·t_kill·ρ_max)/m` with `ρ_max` the best acceleration
/// factor in the instance. The full-platform DAG bound stays valid too.
fn degraded_lower_bound(graph: &TaskGraph, platform: &Platform, t_kill: f64) -> f64 {
    let tasks = graph.instance().tasks();
    let w_cpu: f64 = tasks.iter().map(|t| t.cpu_time()).sum();
    let rho_max = tasks.iter().map(|t| t.cpu_time() / t.gpu_time()).fold(0.0, f64::max);
    let offload = platform.gpus() as f64 * t_kill * rho_max;
    let area = (w_cpu - offload).max(0.0) / platform.cpus() as f64;
    dag_lower_bound(graph, platform).max(area)
}

/// Headline scenario: every GPU fails permanently at 25% of the fault-free
/// makespan; the run must finish on the CPUs alone.
fn all_gpus_die(seed: u64) {
    let platform = paper_platform();
    let graph = ranked_cholesky(16);
    let mut t = TextTable::new(vec![
        "algorithm",
        "fault-free",
        "GPUs die at",
        "makespan",
        "degraded LB",
        "ratio",
        "lost work",
        "downtime",
    ]);
    for (name, algo) in ALGOS {
        let m0 = run(algo, &graph, &platform, &FaultPlan::NONE).expect("fault-free").makespan();
        let t_kill = 0.25 * m0;
        let worker_faults: Vec<WorkerFault> = platform
            .workers_of(ResourceKind::Gpu)
            .map(|w| WorkerFault::permanent(w.0, t_kill))
            .collect();
        let plan = FaultPlan { worker_faults, seed, ..FaultPlan::NONE };
        let degraded_lb = degraded_lower_bound(&graph, &platform, t_kill);
        let res = run(algo, &graph, &platform, &plan)
            .expect("the degraded platform must still complete the DAG");
        let downtime: f64 = res.summary.workers.iter().map(|w| w.downtime).sum();
        t.push_row(vec![
            name.to_string(),
            format!("{m0:.2}"),
            format!("{t_kill:.2}"),
            format!("{:.2}", res.makespan()),
            format!("{degraded_lb:.2}"),
            format!("{:.4}", res.makespan() / degraded_lb),
            format!("{:.2}", res.summary.lost_work),
            format!("{downtime:.2}"),
        ]);
    }
    emit("Faults — all 4 GPUs die at 25% of the fault-free makespan (Cholesky N=16)", &t);
}

/// Per-attempt task failure probability sweep with retry.
fn failure_sweep(seed: u64) {
    let platform = paper_platform();
    let graph = ranked_cholesky(16);
    let m0: Vec<f64> = ALGOS
        .iter()
        .map(|&(_, a)| run(a, &graph, &platform, &FaultPlan::NONE).expect("fault-free").makespan())
        .collect();
    let mut t = TextTable::new(vec![
        "p(fail)",
        "HeteroPrio",
        "DualHP",
        "priority list",
        "retries (HP)",
        "lost work (HP)",
    ]);
    for p in [0.0, 0.02, 0.05, 0.1] {
        // Enough attempts that abandonment is essentially impossible.
        let retry = RetryPolicy { max_attempts: 10, ..RetryPolicy::DEFAULT };
        let plan = FaultPlan { task_failure_prob: p, seed, retry, ..FaultPlan::NONE };
        let mut row = vec![format!("{p:.2}")];
        let mut hp_retries = 0;
        let mut hp_lost = 0.0;
        for (i, (_, algo)) in ALGOS.into_iter().enumerate() {
            match run(algo, &graph, &platform, &plan) {
                Ok(res) => {
                    row.push(format!("{:.4}", res.makespan() / m0[i]));
                    if matches!(algo, Scheduler::HeteroPrio(_)) {
                        hp_retries = res.summary.retries;
                        hp_lost = res.summary.lost_work;
                    }
                }
                Err(e) => row.push(format!("({e})")),
            }
        }
        row.push(hp_retries.to_string());
        row.push(format!("{hp_lost:.2}"));
        t.push_row(row);
    }
    emit(
        &format!(
            "Faults — per-attempt failure probability (makespan / fault-free, Cholesky N=16, seed {seed})"
        ),
        &t,
    );
}

/// Stochastic runtime sweep: policies decide on estimates, reality jitters.
fn jitter_sweep(seed: u64) {
    let platform = paper_platform();
    let graph = ranked_cholesky(16);
    let m0: Vec<f64> = ALGOS
        .iter()
        .map(|&(_, a)| run(a, &graph, &platform, &FaultPlan::NONE).expect("fault-free").makespan())
        .collect();
    let mut t = TextTable::new(vec!["jitter", "HeteroPrio", "DualHP", "priority list"]);
    for j in [0.0, 0.1, 0.3, 0.5] {
        let plan = FaultPlan { exec_jitter: j, seed, ..FaultPlan::NONE };
        let mut row = vec![format!("{j:.2}")];
        for (i, (_, algo)) in ALGOS.into_iter().enumerate() {
            let res = run(algo, &graph, &platform, &plan).expect("jitter cannot abandon tasks");
            row.push(format!("{:.4}", res.makespan() / m0[i]));
        }
        t.push_row(row);
    }
    emit(
        &format!(
            "Faults — stochastic runtimes (makespan / deterministic, Cholesky N=16, seed {seed})"
        ),
        &t,
    );
}

fn main() {
    let seed = flag_value("--seed").unwrap_or(2024);
    all_gpus_die(seed);
    failure_sweep(seed);
    jitter_sweep(seed);
}
