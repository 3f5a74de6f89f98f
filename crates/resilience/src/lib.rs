//! Fault injection and supervision primitives for the BWSA pipeline.
//!
//! This crate sits **below** every other `bwsa-*` crate (it depends only
//! on `std`) so that any layer can host failpoint sites and any harness
//! can supervise them. It provides five things:
//!
//! - [`failpoint!`]: a zero-cost-when-disabled injection point. Disabled,
//!   a site costs two relaxed atomic loads; armed (via
//!   [`failpoint::scoped`], [`failpoint::configure`] or the
//!   `BWSA_FAILPOINTS` environment variable), a site can panic, raise a
//!   typed [`InjectedFault`], or delay — deterministically, with optional
//!   trigger counts.
//! - [`watchdog`]: a cooperative deadline. Every failpoint site doubles
//!   as a cancellation point, so an armed deadline unwinds a stuck stage
//!   at its next site instead of requiring killable threads.
//! - [`supervisor`]: [`supervisor::catch`] converts unwinds (injected or
//!   genuine) into a typed [`ResilienceError`], plus [`Backoff`] for
//!   bounded exponential retry delays.
//! - [`fault`]: the byte-corruption fault model ([`Fault`], [`FaultPlan`],
//!   [`FaultyReader`]) shared by the trace-salvage property tests and the
//!   chaos suite, driven by the dependency-free deterministic [`DetRng`].
//! - [`parallel_map`]: the workspace's one worker pool, which maps items
//!   on scoped threads and returns the results in input order, and
//!   [`spawn_scoped`], which starts every thread a run hands work to.
//!
//! [`failpoint::scoped`] arming and [`watchdog::arm`] deadlines belong to
//! the calling thread and the threads it starts through [`spawn_scoped`]
//! (the [`parallel_map`] workers among them), so tests that arm them run
//! side by side. Only the process-wide registry
//! ([`failpoint::configure`], `BWSA_FAILPOINTS`) reaches every thread;
//! tests that arm it serialise against each other (the chaos suite takes
//! a lock) and [`failpoint::clear`] it when done.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod det;
pub mod failpoint;
pub mod fault;
pub mod parallel;
pub mod supervisor;
pub mod watchdog;

pub use det::DetRng;
pub use fault::{Fault, FaultPlan, FaultyReader};
pub use parallel::{parallel_map, spawn_scoped};
pub use supervisor::{Backoff, InjectedFault, ResilienceError};
