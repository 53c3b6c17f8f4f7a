//! Drive the StarPU-like runtime front-end: submit the tiled Cholesky
//! factorization's task graph and execute it under four schedulers; the
//! runtime validates each schedule against the graph.
//!
//! ```sh
//! cargo run --release --example submission_api [N]
//! ```

use heteroprio::core::gantt::to_svg;
use heteroprio::runtime::{Runtime, Scheduler};
use heteroprio::schedulers::DualHpRank;
use heteroprio::taskgraph::{cholesky, WeightScheme};
use heteroprio::workloads::{paper_platform, ChameleonTiming};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(10);
    let platform = paper_platform();
    let graph = cholesky(n, &ChameleonTiming);

    println!("Submitting Cholesky N={n} through the runtime API...");
    let schedulers = [
        ("HeteroPrio-min", Scheduler::HeteroPrio(WeightScheme::Min)),
        ("DualHP-fifo", Scheduler::DualHp(DualHpRank::Fifo, WeightScheme::Min)),
        (
            "HEFT-avg",
            Scheduler::Heft(WeightScheme::Avg, heteroprio::schedulers::HeftVariant::Insertion),
        ),
        ("priority-list", Scheduler::PriorityList(WeightScheme::Min)),
    ];
    println!(
        "{:<16} {:>12} {:>8} {:>12} {:>8}",
        "scheduler", "makespan", "ratio", "spoliations", "tasks"
    );
    let mut first_svg: Option<String> = None;
    for (name, scheduler) in schedulers {
        let mut rt = Runtime::new(platform);
        rt.submit_graph(&graph);
        let report = rt.run(scheduler).expect("runtime execution");
        println!(
            "{:<16} {:>10.1}ms {:>8.3} {:>12} {:>8}",
            name,
            report.makespan,
            report.ratio(),
            report.spoliations,
            report.graph.len()
        );
        if first_svg.is_none() {
            first_svg = Some(to_svg(&report.schedule, report.graph.instance(), &platform));
        }
    }
    if let Some(svg) = first_svg {
        let path = std::env::temp_dir().join("heteroprio_cholesky.svg");
        if std::fs::write(&path, svg).is_ok() {
            println!("\nHeteroPrio Gantt chart written to {}", path.display());
        }
    }
    println!("\nThe graph is the one a runtime infers from the kernels' access modes");
    println!("(read / write / read-write) under sequential consistency: the");
    println!("access-mode oracle in tests/runtime_properties.rs pins it edge for edge.");
}
