//! Figures 7, 8 and 9 from one sweep: the seven algorithms
//! (HeteroPrio-avg/min, DualHP-fifo/avg/min, HEFT-avg/min) on Cholesky, QR
//! and LU DAGs, on the paper's 20 CPU + 4 GPU platform.
//!
//! Figure 7 — makespan / lower bound. Figure 8 — "equivalent acceleration
//! factor" of the task set completed on each class (good schedules: high on
//! GPU, low on CPU). Figure 9 — normalized idle time per class (idle over
//! [0, makespan], with aborted work counted as idle, normalized by the
//! area-bound usage of the class). Each factorization's runs are simulated
//! once; the Figure 7 tables print first, then the Figure 8/9 tables.
//!
//! Usage: `fig7 [N...] [--csv]` (default N sweep: 4..64 sample).

#![forbid(unsafe_code)]

use heteroprio_experiments::{
    emit, fig7_series, fmt_opt, ns_from_args, AlgoOutcome, TextTable, DAG_PAPER, DEFAULT_NS,
};
use heteroprio_taskgraph::Factorization;
use heteroprio_workloads::{paper_platform, ChameleonTiming};

fn main() {
    let ns = ns_from_args(&DEFAULT_NS);
    let platform = paper_platform();
    let series: Vec<_> = Factorization::ALL
        .into_iter()
        .map(|f| (f, fig7_series(f, &ns, &platform, &ChameleonTiming)))
        .collect();

    for (f, points) in &series {
        let mut headers = vec!["N".to_string(), "tasks".to_string(), "lower_bound".to_string()];
        headers.extend(DAG_PAPER.iter().map(|(name, _)| name.to_string()));
        let mut t = TextTable::new(headers);
        for pt in points {
            let mut row =
                vec![pt.n.to_string(), pt.tasks.to_string(), format!("{:.1}", pt.lower_bound)];
            row.extend(pt.outcomes.iter().map(|o| format!("{:.4}", o.ratio)));
            t.push_row(row);
        }
        emit(&format!("Figure 7 — {} DAG, ratio to lower bound", f.name()), &t);
    }

    type Pick = fn(&AlgoOutcome) -> [String; 2];
    let views: [(&str, Pick); 2] = [
        ("Figure 8 — equivalent acceleration factors (CPU | GPU)", |o| {
            [fmt_opt(o.stats.accel_cpu), fmt_opt(o.stats.accel_gpu)]
        }),
        ("Figure 9 — normalized idle time (CPU | GPU)", |o| {
            [fmt_opt(o.stats.idle_cpu), fmt_opt(o.stats.idle_gpu)]
        }),
    ];
    for (f, points) in &series {
        for (title, pick) in views {
            let mut headers = vec!["N".to_string()];
            for (name, _) in DAG_PAPER {
                headers.push(format!("{name}:cpu"));
                headers.push(format!("{name}:gpu"));
            }
            let mut t = TextTable::new(headers);
            for pt in points {
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
