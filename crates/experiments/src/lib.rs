#![forbid(unsafe_code)]

//! # heteroprio-experiments
//!
//! The harness reproducing every table and figure of the paper's
//! evaluation. Library modules provide the data series; one binary per
//! table/figure prints the corresponding rows (pass `--csv` for
//! machine-readable output):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — Cholesky kernel acceleration factors |
//! | `table2` | Table 2 — approximation ratios vs worst-case examples |
//! | `fig1_example` | Figure 1 — an example HeteroPrio schedule (ASCII) |
//! | `fig4_5` | Figures 4/5 — the Theorem 14 construction |
//! | `fig6` | Figure 6 — independent tasks vs area bound |
//! | `fig7` | Figures 7–9 — DAGs vs lower bound, 7 algorithms; equivalent acceleration factors & idle time of the same runs |
//! | `complexity` | §1's "fast" claim — scheduler wall-clock cost |

pub mod algorithms;
pub mod figures;
pub mod metrics;
pub mod sweep;
pub mod table;
pub mod timeline;

pub use algorithms::{
    run_dag, run_indep, trace_dag, IndepAlgo, Scheduler, DAG_PAPER, HEFT_INSERTION_LIMIT,
};
pub use figures::{fig6_series, fig7_series, AlgoOutcome, SweepPoint, DEFAULT_NS, SMOKE_NS};
pub use metrics::{alloc_stats, fmt_opt, AllocStats};
pub use sweep::parallel_map;
pub use table::{csv_flag, emit, TextTable};
pub use timeline::{ramp_up_time, ready_profile_from_events, utilization_profile, Profile};

/// Tile counts from CLI args (any bare integers), or the given default.
pub fn ns_from_args(default: &[usize]) -> Vec<usize> {
    let ns: Vec<usize> = std::env::args().skip(1).filter_map(|a| a.parse::<usize>().ok()).collect();
    if ns.is_empty() {
        default.to_vec()
    } else {
        ns
    }
}

/// The value following `--name` in the CLI args, parsed; `None` when the
/// flag is absent or its value does not parse.
pub fn flag_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next()?.parse().ok();
        }
    }
    None
}

/// A comma-separated float list following `--name` (e.g. `--jitters 0,0.1,0.5`).
pub fn flag_list(name: &str) -> Option<Vec<f64>> {
    let raw: String = flag_value(name)?;
    raw.split(',').map(|s| s.trim().parse().ok()).collect()
}
