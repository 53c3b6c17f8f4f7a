//! Figures 8 and 9: allocation quality of the Figure 7 runs.
//!
//! Figure 8 — "equivalent acceleration factor" of the task set completed on
//! each class (good schedules: high on GPU, low on CPU). Figure 9 —
//! normalized idle time per class (idle over [0, makespan], with aborted
//! work counted as idle, normalized by the area-bound usage of the class).
//!
//! Usage: `fig8_9 [N...] [--csv]`.

#![forbid(unsafe_code)]

use heteroprio_experiments::{
    emit, fig7_series, fmt_opt, ns_from_args, TextTable, DAG_PAPER, DEFAULT_NS,
};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

fn main() {
    let ns = ns_from_args(&DEFAULT_NS);
    let platform = paper_platform();
    for f in Factorization::ALL {
        let points = fig7_series(f, &ns, &platform, &ChameleonTiming);
        type Pick = fn(&heteroprio_experiments::AlgoOutcome) -> [String; 2];
        let views: [(&str, Pick); 2] = [
            ("Figure 8 — equivalent acceleration factors (CPU | GPU)", |o| {
                [fmt_opt(o.stats.accel_cpu), fmt_opt(o.stats.accel_gpu)]
            }),
            ("Figure 9 — normalized idle time (CPU | GPU)", |o| {
                [fmt_opt(o.stats.idle_cpu), fmt_opt(o.stats.idle_gpu)]
            }),
        ];
        for (title, pick) in views {
            let mut headers = vec!["N".to_string()];
            for (name, _) in DAG_PAPER {
                headers.push(format!("{name}:cpu"));
                headers.push(format!("{name}:gpu"));
            }
            let mut t = TextTable::new(headers);
            for pt in &points {
                let mut row = vec![pt.n.to_string()];
                for o in &pt.outcomes {
                    let [c, g] = pick(o);
                    row.push(c);
                    row.push(g);
                }
                t.push_row(row);
            }
            emit(&format!("{title} — {}", f.name()), &t);
        }
    }
}
