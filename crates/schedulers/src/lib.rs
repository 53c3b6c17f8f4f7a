#![forbid(unsafe_code)]

//! # heteroprio-schedulers
//!
//! The scheduling algorithms compared in the paper's §6 evaluation, for both
//! independent task sets and DAGs executed on the runtime-engine simulator:
//!
//! * **HeteroPrio** in DAG mode ([`HeteroPrioDagPolicy`]) — a simulator
//!   shell over `heteroprio-core`'s `HeteroPrioState`, the one queue and
//!   victim search the independent and release-dates engines also run, so
//!   it schedules any number of resource classes;
//! * **DualHP** (Bleuse et al. \[15\]): the dual-approximation packing for
//!   independent tasks ([`dualhp_independent`]) and its online DAG variant
//!   ([`DualHpDagPolicy`]) with `fifo` or priority ranks;
//! * **HEFT** (Topcuoglu et al. \[11\]) with `avg`/`min` weight schemes and
//!   insertion / no-insertion variants ([`heft()`](heft::heft));
//! * baselines: plain priority list scheduling and a random scheduler;
//! * [`PlanPolicy`], which executes a static scheduler's plan in the kernel.
//!
//! The [`table`] module names them once per task model ([`IndepAlgo`] for
//! independent tasks, [`Scheduler`] for DAGs) for every front-end.

pub mod baselines;
pub mod dualhp;
pub mod heft;
pub mod heteroprio_dag;
pub mod heuristics;
pub mod plan;
pub mod table;

pub use baselines::{PriorityListPolicy, RandomPolicy};
pub use dualhp::{dualhp_independent, DualHpDagPolicy, DualHpRank};
pub use heft::{heft, HeftVariant};
pub use heteroprio_dag::HeteroPrioDagPolicy;
pub use plan::PlanPolicy;
pub use table::{IndepAlgo, Scheduler};
