//! Schedule a tiled Cholesky factorization DAG on a CPU+GPU node with all
//! seven algorithms of the paper's Figure 7, and compare against the lower
//! bound — the paper's headline DAG experiment in miniature.
//!
//! ```sh
//! cargo run --release --example cholesky_pipeline [N]
//! ```

use heteroprio::bounds::dag_lower_bound;
use heteroprio::experiments::{run_dag, DAG_PAPER};
use heteroprio::taskgraph::cholesky;
use heteroprio::workloads::{paper_platform, ChameleonTiming};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(16);
    let platform = paper_platform();
    let graph = cholesky(n, &ChameleonTiming);
    let lb = dag_lower_bound(&graph, &platform);

    println!(
        "Cholesky N={n}: {} tasks, {} edges, on {} CPUs + {} GPUs",
        graph.len(),
        graph.edge_count(),
        platform.cpus(),
        platform.gpus()
    );
    println!("kernel mix: {:?}", graph.label_histogram());
    println!("lower bound (area + critical path): {lb:.1} ms\n");
    println!("{:<16} {:>12} {:>8} {:>12}", "algorithm", "makespan", "ratio", "spoliations");
    for (name, algo) in DAG_PAPER {
        let sched = run_dag(algo, &graph, &platform);
        sched.validate(graph.instance(), &platform).expect("valid");
        heteroprio::taskgraph::check_precedence(&graph, &sched).expect("precedence");
        println!(
            "{name:<16} {:>10.1}ms {:>8.3} {:>12}",
            sched.makespan(),
            sched.makespan() / lb,
            sched.spoliation_count(),
        );
    }
    println!("\nHeteroPrio keeps the CPUs on low-affinity kernels and relies on");
    println!("spoliation to undo bad placements; DualHP tends to idle the CPUs.");
}
