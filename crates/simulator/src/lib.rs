#![forbid(unsafe_code)]

//! # heteroprio-simulator
//!
//! Discrete-event simulation of a task-based runtime system (the StarPU-like
//! substrate of the paper's experiments): the engine tracks time, workers and
//! dependency release; an [`OnlinePolicy`] owns the ready queue and all
//! placement decisions, including spoliation.
//!
//! The engine is deterministic, validates policy behaviour (readiness,
//! cross-class spoliation with strict improvement, absence of deadlock), and
//! returns a [`heteroprio_core::Schedule`] that can be checked against the
//! task graph.

pub mod engine;
pub mod fault;
pub mod policy;

pub use engine::{dag, simulate, simulate_traced, DagWorkload, PolicyAdapter, SimResult};
pub use fault::FaultSpec;
pub use policy::{
    OnlinePolicy, RunningTask, SimContext, SnapshotOnlinePolicy, TransferModel, WorkerOrder,
};
