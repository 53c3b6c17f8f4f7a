//! Figure 6: independent tasks — makespan / area bound for HeteroPrio,
//! DualHP and HEFT on the kernel sets of Cholesky, QR and LU, on the
//! paper's 20 CPU + 4 GPU platform.
//!
//! Usage: `fig6 [N...] [--csv]` (default N sweep: 4..64 sample).

#![forbid(unsafe_code)]

use heteroprio_experiments::{emit, fig6_series, ns_from_args, IndepAlgo, TextTable, DEFAULT_NS};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

fn main() {
    let ns = ns_from_args(&DEFAULT_NS);
    let platform = paper_platform();
    for f in Factorization::ALL {
        let mut headers = vec!["N".to_string(), "tasks".to_string(), "area_bound".to_string()];
        headers.extend(IndepAlgo::PAPER.iter().map(|a| a.label().to_string()));
        let mut t = TextTable::new(headers);
        for pt in fig6_series(f, &ns, &platform, &ChameleonTiming) {
            let mut row =
                vec![pt.n.to_string(), pt.tasks.to_string(), format!("{:.1}", pt.lower_bound)];
            row.extend(pt.outcomes.iter().map(|o| format!("{:.4}", o.ratio)));
            t.push_row(row);
        }
        emit(&format!("Figure 6 — {} independent tasks, ratio to area bound", f.name()), &t);
    }
}
