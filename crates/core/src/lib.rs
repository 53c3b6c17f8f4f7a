//! # heteroprio-core
//!
//! Core model and algorithm of the IPDPS 2017 paper *"Approximation Proofs
//! of a Fast and Efficient List Scheduling Algorithm for Task-Based Runtime
//! Systems on Multicores and GPUs"* (Beaumont, Eyraud-Dubois, Kumar).
//!
//! The crate provides:
//!
//! * the scheduling **model**: independent tasks with unrelated processing
//!   times `p` (CPU) and `q` (GPU) on a platform of `m` CPUs and `n` GPUs
//!   ([`Instance`], [`Platform`], [`Task`]);
//! * a **schedule** representation with validation and the paper's
//!   evaluation metrics (makespan, per-class idle time with aborted work
//!   counted as idle, equivalent acceleration factors) ([`Schedule`]);
//! * the **HeteroPrio** algorithm for independent tasks — affinity-ordered
//!   double-ended queue plus the spoliation mechanism — with every choice
//!   Algorithm 1 leaves open exposed as configuration ([`heteroprio()`](heteroprio::heteroprio),
//!   [`HeteroPrioConfig`]);
//! * classic Graham **list scheduling** on identical machines ([`list`]),
//!   the substrate of Lemma 6 and of the Figure 4 construction;
//! * the event-driven **kernel** shared by every execution engine in the
//!   workspace ([`kernel`]): one discrete-event loop owning time, the
//!   completion/fault/retry heaps, worker liveness and trace emission,
//!   driven by pluggable [`kernel::Workload`] / [`kernel::KernelPolicy`]
//!   implementations, under one validated [`FaultPlan`] and failing with
//!   one [`RunError`].
//!
//! ```
//! use heteroprio_core::{heteroprio, HeteroPrioConfig, Instance, Platform};
//!
//! // Two GPU-friendly tasks on 1 CPU + 1 GPU: the list phase parks one on
//! // the CPU, then the GPU finishes and spoliates it.
//! let instance = Instance::from_times(&[(100.0, 1.0), (100.0, 1.0)]);
//! let platform = Platform::new(1, 1);
//! let result = heteroprio(&instance, &platform, &HeteroPrioConfig::new());
//! assert_eq!(result.makespan(), 2.0);
//! assert_eq!(result.spoliations, 1);
//! ```

#![forbid(unsafe_code)]

pub mod durability;
pub mod fault;
pub mod gantt;
pub mod heteroprio;
pub mod kernel;
pub mod list;
pub mod model;
pub mod online;
pub mod parallel;
pub mod queue;
pub mod schedule;
pub mod theory;
pub mod time;

pub use durability::{
    journaled, schedule_from_events, CheckpointStore, CrashPlan, FileCheckpointStore,
    KernelSnapshot, MemCheckpointStore, MeteredJournal,
};
pub use fault::{FaultPlan, RetryPolicy, WorkerFault};
pub use heteroprio::{
    heteroprio, heteroprio_metered, heteroprio_traced, independent, sorted_queue, HeteroPrioConfig,
    HeteroPrioPolicy, HeteroPrioResult, HeteroPrioState, IndependentWorkload, QueueTieBreak,
    WorkerOrder,
};
pub use kernel::RunError;
pub use model::{
    ClassId, ClassTable, Instance, ModelError, Platform, ResourceKind, Task, TaskId, WorkerId,
    MAX_CLASSES,
};
pub use online::{heteroprio_online, heteroprio_online_traced, release_dates};
pub use queue::{AffinityQueue, ClassQueue};
pub use schedule::{Schedule, ScheduleError, TaskRun};
pub use theory::{is_tight, known_lower_bound, proven_upper_bound};
pub use time::PHI;
