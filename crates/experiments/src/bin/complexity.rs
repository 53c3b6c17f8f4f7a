//! The §1 "fast and efficient" claim: wall-clock cost of scheduling k
//! independent ready tasks, per algorithm. HeteroPrio's per-decision work is
//! O(log k) (a deque/tree pop); DualHP re-packs the whole ready set; HEFT
//! scans every worker per task.
//!
//! Usage: `complexity [sizes...] [--csv]`.

#![forbid(unsafe_code)]

use heteroprio_experiments::{emit, ns_from_args, run_indep, IndepAlgo, TextTable};
use heteroprio_metrics::Stopwatch;
use heteroprio_workloads::{paper_platform, random_instance, RandomInstanceParams};

fn main() {
    let sizes = ns_from_args(&[100, 1_000, 10_000, 100_000]);
    let platform = paper_platform();
    let mut t = TextTable::new(vec!["tasks", "HeteroPrio (ms)", "DualHP (ms)", "HEFT (ms)"]);
    for size in sizes {
        let params = RandomInstanceParams { tasks: size, ..RandomInstanceParams::default() };
        let instance = random_instance(&params, 42);
        let mut cells = vec![size.to_string()];
        for algo in IndepAlgo::PAPER {
            let reps = if size <= 1_000 { 10 } else { 1 };
            let sw = Stopwatch::start();
            for _ in 0..reps {
                let sched = run_indep(algo, &instance, &platform);
                std::hint::black_box(sched.makespan());
            }
            let ms = sw.elapsed_secs_f64() * 1e3 / reps as f64;
            cells.push(format!("{ms:.2}"));
        }
        t.push_row(cells);
    }
    emit("Scheduler cost on k independent ready tasks", &t);
}
