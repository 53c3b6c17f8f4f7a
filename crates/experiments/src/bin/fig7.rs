//! Figure 7: task graphs — makespan / lower bound for the seven algorithms
//! (HeteroPrio-avg/min, DualHP-fifo/avg/min, HEFT-avg/min) on Cholesky, QR
//! and LU DAGs, on the paper's 20 CPU + 4 GPU platform.
//!
//! Usage: `fig7 [N...] [--csv]` (default N sweep: 4..64 sample).

#![forbid(unsafe_code)]

use heteroprio_experiments::{emit, fig7_series, ns_from_args, TextTable, DAG_PAPER, DEFAULT_NS};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

fn main() {
    let ns = ns_from_args(&DEFAULT_NS);
    let platform = paper_platform();
    for f in Factorization::ALL {
        let mut headers = vec!["N".to_string(), "tasks".to_string(), "lower_bound".to_string()];
        headers.extend(DAG_PAPER.iter().map(|(name, _)| name.to_string()));
        let mut t = TextTable::new(headers);
        for pt in fig7_series(f, &ns, &platform, &ChameleonTiming) {
            let mut row =
                vec![pt.n.to_string(), pt.tasks.to_string(), format!("{:.1}", pt.lower_bound)];
            row.extend(pt.outcomes.iter().map(|o| format!("{:.4}", o.ratio)));
            t.push_row(row);
        }
        emit(&format!("Figure 7 — {} DAG, ratio to lower bound", f.name()), &t);
    }
}
