//! Trace-driven branch predictor simulation — the workspace's equivalent
//! of SimpleScalar's `sim-bpred`, built from scratch.
//!
//! The paper's §5.3 evaluation compares three first-level-table indexing
//! schemes on a PAg two-level predictor (1024-entry BHT, 4096-entry PHT):
//! conventional PC-modulo indexing, the paper's compiler-assigned *branch
//! allocation* indexing, and an interference-free table with a private
//! history per static branch. All three are [`BhtIndexer`] variants
//! plugged into the same [`Pag`] predictor here.
//!
//! Beyond PAg, the crate implements the classic predictors the paper's
//! related-work section is built on, so baselines and ablations have real
//! comparators: [`StaticPredictor`] (always-taken / profile-based),
//! [`Bimodal`] (Smith), [`Gag`] and [`Gshare`] (global two-level),
//! [`Pap`] (per-branch histories *and* per-entry pattern tables),
//! [`Hybrid`] (McFarling chooser), and [`Agree`] (bias-agreement).
//!
//! # Example
//!
//! ```
//! use bwsa_predictor::{simulate, BhtIndexer, Pag};
//! use bwsa_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new("alternating");
//! for i in 0..2000u64 {
//!     b.record(0x400, i % 2 == 0, 5 * (i + 1));
//! }
//! let trace = b.finish();
//!
//! // A PAg predictor learns the alternating pattern almost perfectly.
//! let mut pag = Pag::new(BhtIndexer::pc_modulo(1024), 8);
//! let result = simulate(&mut pag, &trace);
//! assert!(result.misprediction_rate() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod agree;
mod bimodal;
mod bimode;
pub mod clustering;
mod counter;
mod error;
mod gag;
mod gap;
mod gselect;
mod gshare;
mod history;
mod hybrid;
mod index_cache;
mod indexer;
mod pag;
mod pap;
mod predictor;
mod sim;
mod staticpred;
pub mod sweep;
mod tables;

/// Failpoint sites this crate hosts (see [`mod@bwsa_resilience::failpoint`]).
pub mod failpoints {
    /// Fires when a trace-driven simulation starts ([`crate::simulate`]).
    pub const SIMULATE: &str = "predictor.simulate";
    /// Fires inside each sweep cell's containment boundary.
    pub const SWEEP_CELL: &str = "predictor.sweep_cell";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[SIMULATE, SWEEP_CELL];
}

pub use agree::Agree;
pub use bimodal::Bimodal;
pub use bimode::BiMode;
pub use counter::SaturatingCounter;
pub use error::PredictorError;
pub use gag::Gag;
pub use gap::Gap;
pub use gselect::Gselect;
pub use gshare::Gshare;
pub use history::HistoryRegister;
pub use hybrid::Hybrid;
pub use index_cache::{CachedIndexPag, IndexCache};
pub use indexer::{AllocatedIndex, BhtIndexer};
pub use pag::Pag;
pub use pap::Pap;
pub use predictor::BranchPredictor;
pub use sim::{simulate, simulate_detailed, simulate_observed, DetailedSimResult, SimResult};
pub use staticpred::StaticPredictor;
pub use sweep::{sweep, sweep_observed, SweepCell};
pub use tables::{BranchHistoryTable, PatternHistoryTable};
