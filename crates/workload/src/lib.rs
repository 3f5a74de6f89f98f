//! Synthetic program substrate: the workspace's stand-in for
//! SimpleScalar executing SPECint95 and UNIX applications.
//!
//! The paper profiles real binaries to obtain dynamic conditional-branch
//! traces. This crate produces equivalent traces from *synthetic programs*
//! with controlled, realistic control-flow structure:
//!
//! * [`mod@cfg`] — an executable program model: basic blocks, conditional
//!   branches, calls, and returns, each branch carrying a [`behavior`]
//!   model (loop exits, biased and unbiased Bernoulli branches, periodic
//!   patterns, globally correlated branches).
//! * [`interp`] — a deterministic interpreter that runs a program and
//!   emits a [`bwsa_trace::Trace`], counting instructions so that branch
//!   records carry the paper's §4.1 instruction-count timestamps.
//! * [`spec`] / [`builder`] — a knob-driven generator of *phase
//!   structured* programs: a driver walks through region loops, each
//!   region's branches interleave heavily with each other and only weakly
//!   across regions. This is precisely the structure that gives real
//!   programs their small branch working sets.
//! * [`suite`] — thirteen ready-made workload profiles mirroring the
//!   paper's benchmarks (Table 1), each with two input sets so the §5.2
//!   profile-sensitivity and cumulative-profile experiments can run.
//!
//! # Example
//!
//! ```
//! use bwsa_workload::suite::{Benchmark, InputSet};
//!
//! let trace = Benchmark::Compress.generate_scaled(InputSet::A, 0.01);
//! assert!(trace.len() > 1_000);
//! assert!(trace.static_branch_count() > 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod behavior;
pub mod builder;
pub mod cfg;
mod error;
pub mod interp;
pub mod spec;
pub mod suite;

pub use error::WorkloadError;
