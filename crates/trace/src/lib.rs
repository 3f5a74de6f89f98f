//! Dynamic conditional-branch traces: the data substrate of branch working
//! set analysis.
//!
//! The paper's entire pipeline (Kim & Tyson, *Analyzing the Working Set
//! Characteristics of Branch Execution*, MICRO 1998) consumes one artifact:
//! a **dynamic conditional-branch trace** — the time-ordered sequence of
//! `(pc, direction, instruction-count timestamp)` tuples produced by
//! executing a program. In the paper that trace came from SimpleScalar
//! running SPECint95; here it comes from the [`bwsa-workload`] interpreter,
//! but nothing in this crate cares about the producer.
//!
//! # Contents
//!
//! * [`BranchRecord`] — a single dynamic branch instance.
//! * [`Trace`] — an in-memory trace with interned static-branch identities
//!   ([`BranchId`]) and summary metadata.
//! * [`profile::BranchProfile`] — per-static-branch execution statistics
//!   (execution counts, taken rates) and the frequency filter used to
//!   reproduce Table 1's "percentage of dynamic branches analyzed".
//! * [`io`] — compact binary and line-oriented text serialisation.
//! * [`stream`] — checksummed chunked streaming format (`BWSS2`) with
//!   corruption salvage, plus the legacy `BWSS1` read path.
//! * [`columnar`] — the columnar block format (`BWSS3`): SoA column
//!   blocks with per-block CRCs and a directory/index footer, built for
//!   cold-ingest throughput and O(1) shard planning.
//! * [`mmap`] — zero-copy file bytes (memory map with buffered-read
//!   fallback) feeding the columnar decoder.
//! * [`codec`] — the shared varint/zigzag/CRC32 primitives under all of
//!   them.
//! * [`fault`] — deterministic fault injection for durability testing.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::{Trace, TraceBuilder};
//!
//! let mut b = TraceBuilder::new("tiny");
//! b.record(0x400, true, 5);
//! b.record(0x440, false, 10);
//! b.record(0x400, true, 15);
//! let trace: Trace = b.finish();
//!
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.static_branch_count(), 2);
//! ```
//!
//! [`bwsa-workload`]: https://docs.rs/bwsa-workload

// `deny` rather than `forbid` so the one audited exception — the raw
// mmap syscall wrappers in [`mmap`] — can opt in with a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
pub mod columnar;
mod error;
pub mod fault;
mod id;
pub mod io;
pub mod mmap;
pub mod profile;
mod record;
pub mod stats;
pub mod stream;
mod trace;

/// Failpoint sites this crate hosts (see [`bwsa_resilience::failpoint`]).
pub mod failpoints {
    /// Fires once per record pulled through a [`crate::stream::StreamReader`].
    pub const DECODE_RECORD: &str = "trace.decode_record";
    /// Fires when [`crate::io::read_binary`] starts ingesting a `BWST` file.
    pub const READ_BINARY: &str = "trace.read_binary";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[DECODE_RECORD, READ_BINARY];
}

pub use error::TraceError;
pub use id::{BranchId, InstrCount, Pc};
pub use record::{BranchRecord, Direction};
pub use trace::{BranchTable, Trace, TraceBuilder, TraceMeta};
