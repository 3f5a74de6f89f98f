//! **Branch working set analysis and branch allocation** — the primary
//! contribution of Kim & Tyson, *Analyzing the Working Set
//! Characteristics of Branch Execution* (MICRO 1998).
//!
//! The pipeline has the paper's three steps (§4.1) plus the allocation
//! technique built on them (§5):
//!
//! 1. [`interleave`] — timestamp analysis: when a branch re-executes,
//!    every branch whose latest execution falls after its previous
//!    instance has *interleaved* with it; each detection bumps the pair's
//!    interleave counter.
//! 2. [`conflict`] — the counters become a weighted **branch conflict
//!    graph**, thresholded (default 100) to discard incidental conflicts.
//! 3. [`working_set`] — working sets are completely interconnected
//!    subgraphs of the conflict graph; their sizes are Table 2.
//!
//! On top of that:
//!
//! * [`mod@classify`] — branch classification (Chang et al.) marks ≥99%- and
//!   ≤1%-taken branches; same-class conflicts are ignored (§5.2).
//! * [`allocation`] — **branch allocation**: graph-coloring assignment of
//!   branches to BHT entries, the required-table-size search of Tables
//!   3–4, and construction of the [`bwsa_predictor::AllocatedIndex`]
//!   consumed by the PAg simulator for Figures 3–4.
//! * [`merge`] — cumulative multi-input profiles (§5.2).
//! * [`parallel`] — multi-threaded execution of the pipeline, the static
//!   branches split among workers that each read the whole trace,
//!   bit-identical to the serial pass.
//! * [`columnar`] — `BWSS3` analysis that streams blocks into the
//!   record accumulator without materialising the trace.
//! * [`phases`] — working sets over time (transition detection).
//! * [`pipeline`] — the pipeline engine and its products.
//! * [`session`] — the [`Session`] entry point: trace + configuration +
//!   observer behind one builder, with cached results, unified
//!   [`Error`] handling, and [`bwsa_obs::RunReport`] emission.
//!
//! # Example
//!
//! ```
//! use bwsa_core::Session;
//! use bwsa_trace::TraceBuilder;
//!
//! // Two branches ping-ponging: one working set of size 2.
//! let mut b = TraceBuilder::new("pingpong");
//! for i in 0..600u64 {
//!     b.record(0x400 + (i % 2) * 4, i % 4 < 2, i + 1);
//! }
//! let trace = b.finish();
//! let session = Session::new(&trace);
//! let analysis = session.run().unwrap();
//! assert_eq!(analysis.working_sets.report.total_sets, 1);
//! assert_eq!(analysis.working_sets.report.max_size, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod allocation;
pub mod classify;
pub mod columnar;
pub mod conflict;
mod error;
pub mod interleave;
pub mod merge;
pub mod parallel;
pub mod phases;
pub mod pipeline;
mod recency;
pub mod report;
pub mod session;
pub mod source;
pub mod supervise;
pub mod window;
pub mod working_set;

/// Failpoint sites this crate hosts (see [`mod@bwsa_resilience::failpoint`]).
pub mod failpoints {
    /// Fires at the start of the serial profile stage.
    pub const PROFILE: &str = "core.profile";
    /// Fires at the start of the serial interleave stage.
    pub const INTERLEAVE: &str = "core.interleave";
    /// Fires at the start of the `compile` stage, where every engine
    /// walks the detector's rows once and keeps the pairs that reach the
    /// conflict threshold, and a windowed run hands over the kept graph
    /// its colorer holds.
    pub const CONFLICT_PRUNE: &str = "core.conflict_prune";
    /// Fires at the start of the working-set extraction stage.
    pub const WORKING_SETS: &str = "core.working_sets";
    /// Fires at the start of the branch-classification stage.
    pub const CLASSIFY: &str = "core.classify";
    /// Fires inside every worker of the parallel detect pass.
    pub const SHARD_DETECT: &str = "core.shard_detect";
    /// Fires before the workers' rows are stitched into one detector.
    pub const SHARD_MERGE: &str = "core.shard_merge";
    /// Fires when a [`crate::WindowedAnalysis`] window flushes.
    pub const WINDOW_FLUSH: &str = "core.window_flush";
    /// Fires before the walk over a flushed window's pairs, which yields
    /// the kept moves for the cumulative kept graph.
    pub const WINDOW_MERGE: &str = "core.window_merge";
    /// Fires when the colorer takes a flushed window, before the
    /// incremental re-coloring of the cumulative graph: on the helper
    /// thread when one colors.
    pub const RECOLOR: &str = "core.recolor";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[
        PROFILE,
        INTERLEAVE,
        CONFLICT_PRUNE,
        WORKING_SETS,
        CLASSIFY,
        SHARD_DETECT,
        SHARD_MERGE,
        WINDOW_FLUSH,
        WINDOW_MERGE,
        RECOLOR,
    ];
}

pub use allocation::{allocate, required_bht_size, Allocation, AllocationConfig};
pub use classify::{classify, BiasClass, Classification};
pub use conflict::{ConflictAnalysis, ConflictConfig};
pub use error::{CoreError, Error};
pub use interleave::{interleave_counts, interleave_counts_naive};
pub use parallel::{
    analyze_parallel, analyze_parallel_observed, analyze_parallel_supervised, parallel_map,
    ParallelConfig, ShardRetryPolicy,
};
pub use pipeline::{Analysis, AnalysisPipeline};
pub use session::{Classified, Execution, Session};
pub use source::{Ingested, Source};
pub use supervise::{Downgrade, ResilienceSummary, SupervisorConfig};
pub use window::{
    RecolorStats, WindowConfig, WindowSummary, WindowUnit, WindowedAnalysis, WindowedResult,
};
pub use working_set::{working_sets, WorkingSetDefinition, WorkingSetReport, WorkingSets};

/// The blessed public surface, for one-line imports.
///
/// Everything a typical consumer needs: the [`Session`] builder and its
/// configuration values, the windowing and supervision knobs, the
/// unified [`Error`], and the observability handles ([`Obs`](bwsa_obs::Obs),
/// [`RunReport`](bwsa_obs::RunReport)) sessions report through. The
/// corpus layer's `Corpus` lives one crate up — `bwsa::prelude` in the
/// facade crate re-exports this module plus the corpus types.
///
/// Anything *not* re-exported here (module internals like
/// `interleave`, `merge`, `recency`, …) is
/// considered an internal surface: public for tooling and tests, but
/// free to churn between minor versions. See DESIGN.md §14.
///
/// ```
/// use bwsa_core::prelude::*;
/// use bwsa_trace::TraceBuilder;
///
/// let mut t = TraceBuilder::new("demo");
/// for i in 0..200u64 {
///     t.record(0x100 + (i % 3) * 4, i % 2 == 0, i + 1);
/// }
/// let trace = t.finish();
/// let session = Session::new(&trace);
/// assert!(session.run().is_ok());
/// ```
pub mod prelude {
    pub use crate::error::{CoreError, Error};
    pub use crate::pipeline::{Analysis, AnalysisPipeline};
    pub use crate::session::{Classified, Execution, Session};
    pub use crate::source::Source;
    pub use crate::supervise::{ResilienceSummary, SupervisorConfig};
    pub use crate::window::{WindowConfig, WindowSummary, WindowedResult};
    pub use crate::{allocation::AllocationConfig, conflict::ConflictConfig, ParallelConfig};
    pub use bwsa_obs::{Obs, RunReport};
}
