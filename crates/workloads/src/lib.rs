#![forbid(unsafe_code)]

//! # heteroprio-workloads
//!
//! The workloads of the paper's evaluation and analysis:
//!
//! * the calibrated **kernel timing model** reproducing Table 1's
//!   acceleration factors ([`ChameleonTiming`], [`paper_platform`]);
//! * **independent-task instances** built from the kernel multiset of an
//!   N-tile Cholesky/QR/LU factorization (Figure 6's inputs)
//!   ([`independent_instance`]);
//! * the **worst-case families** of Theorems 8, 11 and 14, including the
//!   Figure 4 `T2` packing/list-order constructions ([`worst_case`]);
//! * seeded **random instance generators** for property tests;
//! * **k-class workloads**: the `cpu=16,gpu=4,fpga=2` demonstration
//!   platform and per-class affinity generators ([`multi_class`]).

pub mod instances;
pub mod kernels;
pub mod multi_class;
pub mod random;
pub mod worst_case;

pub use instances::independent_instance;
pub use kernels::{
    paper_platform, profile, ChameleonTiming, JitteredTiming, KernelProfile, TileScaledTiming,
    PROFILES,
};
pub use multi_class::{multi_class_instance, three_class_platform, MultiClassParams};
pub use random::{bimodal_instance, random_instance, RandomInstanceParams};
pub use worst_case::{
    no_spoliation_gap, t2_best_packing, t2_durations, t2_worst_order, theorem11, theorem14,
    theorem14_r, theorem8, WorstCase,
};
