//! **bwsa-corpus** — fleet-scale corpus analytics.
//!
//! One trace is a user; a product is millions. This crate turns a
//! directory tree of traces into a single versioned answer:
//!
//! 1. A **manifest** ([`Manifest`], TOML or JSON) names the traces and
//!    tags each with a workload class and per-entry analysis overrides.
//! 2. [`Corpus::open`] validates it — duplicate paths and dangling
//!    entries are typed errors before any work starts.
//! 3. [`Corpus::session`] configures a batch run in the same builder
//!    idiom as `bwsa_core::Session`, and `run_all` fans one supervised
//!    session per entry across worker threads.
//! 4. Per-entry results fold into a [`FleetSummary`] — working-set
//!    size distributions, allocation win per workload class, and
//!    resilience rates — through the [`FleetAccumulator`] monoid,
//!    whose canonical `finish` makes the summary bit-identical under
//!    any input order or fan-out schedule.
//!
//! ```no_run
//! use bwsa_corpus::Corpus;
//!
//! let corpus = Corpus::open("corpus.toml".as_ref())?;
//! let summary = corpus.session().with_jobs(8).run_all();
//! assert_eq!(summary.failed + summary.degraded + summary.ok,
//!            summary.entries.len() as u64);
//! # Ok::<(), bwsa_corpus::CorpusError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
mod error;
mod fleet;
mod manifest;
mod run;

/// Failpoint sites this crate traverses (see `bwsa_resilience::failpoint`).
pub mod failpoints {
    /// Fires when a cache cell read begins; a fault degrades to a miss.
    pub const CACHE_READ: &str = "corpus.cache_read";
    /// Fires when a cache cell write begins; a fault skips the write.
    pub const CACHE_WRITE: &str = "corpus.cache_write";
    /// Fires when one entry's trace bytes start decoding (any format);
    /// a fault degrades that entry to a `failed` row, never the batch.
    pub const INGEST_DECODE: &str = "corpus.ingest_decode";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[CACHE_READ, CACHE_WRITE, INGEST_DECODE];
}

pub use cache::{CacheKey, CacheStats, ResultCache, DEFAULT_CACHE_BUDGET, ENGINE_VERSION};
pub use error::CorpusError;
pub use fleet::{
    ClassWin, EntryRecord, EntryStatus, FanOutDecision, FleetAccumulator, FleetSummary,
    HistogramBucket, Percentiles, FLEET_SUMMARY_VERSION,
};
pub use manifest::{Manifest, ManifestEntry, DEFAULT_BASELINE, DEFAULT_CLASS, DEFAULT_THRESHOLD};
pub use run::{Corpus, CorpusSession, PARALLEL_BYTE_THRESHOLD};
