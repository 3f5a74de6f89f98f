//! **`bwsa-server`** — the long-lived, fault-isolated, multi-tenant
//! analysis daemon.
//!
//! The batch CLI answers one trace per process; this crate serves many
//! tenants from one process that must never die. It accepts trace
//! payloads in any of the three formats (BWST, BWSS2, BWSS3, decoded by
//! [`bwsa_trace::decode`]) over a Unix-domain socket speaking the BWSF
//! length-prefixed [`frame`] protocol (request IDs, CRC32-checked
//! payloads), multiplexes concurrent requests, and answers with
//! analysis / allocation results and live metrics.
//!
//! Robustness is the architecture, layered bottom-up:
//!
//! * **Per-request isolation** — every request runs inside
//!   [`bwsa_resilience::supervisor::catch`] plus
//!   [`bwsa_core::Session::with_supervisor`]'s degradation ladder
//!   (serial → streaming, retries with [`bwsa_resilience::Backoff`]), so
//!   a poisoned trace or an injected fault yields a typed
//!   [`proto::Response::Error`] frame on that request — never a crashed
//!   daemon, never a wedged sibling request. Per-request wall deadlines
//!   ([`bwsa_resilience::watchdog::arm`]) cover only the request's own
//!   threads, so concurrent requests' budgets cannot clobber each other.
//! * **Per-tenant quotas** — [`quota::QuotaLedger`] bounds each tenant's
//!   concurrent requests and bytes in flight; the error path releases
//!   exactly what the admit path charged (property-tested: the ledger
//!   returns to zero after any mix of completed, failed, and shed
//!   requests).
//! * **Backpressure & overload ladder** — [`admission::Admission`] runs a
//!   bounded queue in front of the worker slots. Below the shed
//!   watermark callers wait (backpressure); above it they are rejected
//!   immediately with a deterministic jittered `retry-after` hint
//!   (reject-with-retry-after *before* queue exhaustion), so overload
//!   degrades into latency, then polite rejection — never collapse.
//! * **Graceful drain** — SIGTERM / ctrl-c (see [`signal`]) or a
//!   `shutdown` request flips the drain flag: the listener stops
//!   accepting, in-flight requests finish, late arrivals get a typed
//!   `shutting-down` frame, and the daemon exits 0.
//!
//! The failpoint sites in [`failpoints`] cover the accept, frame-parse,
//! and dispatch boundaries; the chaos suite sweeps them site×mode and
//! asserts every injection is contained to its request.

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod proto;
pub mod quota;
pub mod server;
pub mod signal;

/// Failpoint sites this crate hosts (see [`mod@bwsa_resilience::failpoint`]).
pub mod failpoints {
    /// Fires for every accepted connection, before its reader spawns.
    pub const ACCEPT: &str = "server.accept";
    /// Fires while decoding each request frame's payload.
    pub const FRAME_DECODE: &str = "server.frame_decode";
    /// Fires at the top of every request dispatch.
    pub const DISPATCH: &str = "server.dispatch";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[ACCEPT, FRAME_DECODE, DISPATCH];
}

pub use admission::{Admission, AdmissionConfig, AdmissionError};
pub use client::Client;
pub use frame::{Frame, FrameError};
pub use proto::{ErrorCode, Request, Response};
pub use quota::{QuotaError, QuotaLedger, TenantQuotas};
pub use server::{Server, ServerConfig, ServerError, ServerHandle};
