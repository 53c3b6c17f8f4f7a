#![forbid(unsafe_code)]

//! # heteroprio-runtime
//!
//! A StarPU-like task-submission front-end over the simulator: applications
//! register **data handles**, submit tasks with **access modes**
//! (read / write / read-write), and the runtime infers the dependency DAG
//! under sequential consistency, then executes it with a pluggable
//! scheduler (HeteroPrio by default). This is the programming model the
//! paper's workloads actually use. A graph built elsewhere — the tiled
//! factorizations of `heteroprio_taskgraph`, say — goes in whole through
//! [`Runtime::submit_graph`].
//!
//! ```
//! use heteroprio_runtime::{Access, Runtime, Scheduler};
//! use heteroprio_core::{Platform, Task};
//!
//! let mut rt = Runtime::new(Platform::new(2, 1));
//! let x = rt.register_data("x");
//! rt.submit(Task::new(3.0, 1.0), "init", &[(x, Access::Write)]);
//! rt.submit(Task::new(9.0, 1.0), "update", &[(x, Access::ReadWrite)]);
//! let report = rt.run(Scheduler::default()).unwrap();
//! assert_eq!(report.makespan, 2.0);
//! ```

pub mod handles;
pub mod runtime;

pub use handles::{Access, DataHandle};
pub use runtime::{Execution, Outcome, Report, Runtime, Scheduler};
