#![forbid(unsafe_code)]

//! # heteroprio-taskgraph
//!
//! Task-graph substrate for the HeteroPrio reproduction: DAG representation
//! with dependency-release tracking, bottom-level ranking (the `avg` / `min`
//! priority schemes of the paper's §6.2), and generators for the tiled
//! Cholesky, QR and LU factorizations evaluated in the paper, plus synthetic
//! graphs for testing.
//!
//! ```
//! use heteroprio_taskgraph::{cholesky, ConstTiming};
//! use heteroprio_taskgraph::rank::{critical_path, WeightScheme};
//!
//! let g = cholesky(4, &ConstTiming { cpu: 1.0, gpu: 1.0 });
//! assert_eq!(g.len(), 20); // 4 POTRF + 6 TRSM + 6 SYRK + 4 GEMM
//! assert_eq!(critical_path(&g, WeightScheme::Avg), 10.0);
//! ```

pub mod dag;
pub mod generators;
pub mod kernels;
pub mod rank;

pub use dag::{check_precedence, CycleError, DagBuilder, ReadyTracker, TaskGraph};
pub use generators::{
    chain, cholesky, fork_join, kernel_counts, lu, qr, random_layered, Factorization,
    RandomDagParams,
};
pub use kernels::{ConstTiming, Kernel, KernelTiming};
pub use rank::{apply_bottom_level_priorities, bottom_levels, critical_path, WeightScheme};
