#![forbid(unsafe_code)]

//! # heteroprio-cli
//!
//! Library backing the `heteroprio-cli` binary: a plain-text instance
//! format ([`mod@format`]) and testable subcommand implementations
//! ([`commands`]). See `heteroprio-cli --help` for usage.

pub mod commands;
pub mod format;

pub use commands::{
    cmd_audit, cmd_bounds, cmd_dag, cmd_export, cmd_gen, cmd_perf, cmd_perf_gate, cmd_schedule,
    parse_platform_args, CmdOutput, DurableOpts, FaultOpts, OutputOpts,
};
pub use format::{parse_instance, parse_instance_k, serialize_instance, ParseError};
