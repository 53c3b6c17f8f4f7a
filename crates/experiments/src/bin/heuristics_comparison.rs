//! Extra baseline study: the classic mapping heuristics (MCT, MinMin,
//! MaxMin, Sufferage) against the paper's three algorithms on the
//! independent-task kernel mixes. None of the classics orders by
//! acceleration factor; Sufferage comes closest in spirit (it protects
//! tasks that would suffer most without their best resource).
//!
//! Usage: `heuristics_comparison [N...] [--csv]`.

#![forbid(unsafe_code)]

use heteroprio_bounds::combined_lower_bound;
use heteroprio_experiments::{emit, ns_from_args, run_indep, IndepAlgo, TextTable};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{independent_instance, paper_platform, ChameleonTiming};

fn main() {
    // MinMin/MaxMin/Sufferage are Θ(n²·W): keep the default sweep moderate.
    let ns = ns_from_args(&[4, 8, 12, 16, 24]);
    let platform = paper_platform();
    for f in Factorization::ALL {
        let mut headers: Vec<String> = vec!["N".into(), "lb".into()];
        let columns = || IndepAlgo::PAPER.into_iter().chain(IndepAlgo::HEURISTICS);
        headers.extend(columns().map(|a| a.label().to_string()));
        let mut t = TextTable::new(headers);
        for &n in &ns {
            let instance = independent_instance(f, n, &ChameleonTiming);
            let lb = combined_lower_bound(&instance, &platform);
            let mut row = vec![n.to_string(), format!("{lb:.1}")];
            for algo in columns() {
                let sched = run_indep(algo, &instance, &platform);
                sched.validate(&instance, &platform).expect("valid");
                row.push(format!("{:.4}", sched.makespan() / lb));
            }
            t.push_row(row);
        }
        emit(&format!("Classic heuristics vs the paper's algorithms — {}", f.name()), &t);
    }
}
