//! **Observability substrate** for the BWSA workspace: lightweight spans
//! and counters, peak-RSS sampling, and the versioned [`RunReport`]
//! emitted by instrumented pipeline runs.
//!
//! Every analysis and simulation layer in the workspace accepts an
//! [`Obs`] handle. The default handle is a **no-op**: it holds no
//! allocation, every call on it is a branch on a `None`, and the
//! instrumented code paths compute bit-identical results whether or not
//! anything is recording (a property the core crate's test suite checks).
//! Opting in is one call:
//!
//! ```
//! use bwsa_obs::Obs;
//!
//! let obs = Obs::recording();
//! {
//!     let _span = obs.span("interleave");
//!     obs.add("core.interleave_pairs", 42);
//! } // span records its wall time on drop
//! let metrics = obs.snapshot().expect("recording handle");
//! assert_eq!(metrics.counter("core.interleave_pairs"), 42);
//! assert_eq!(metrics.stages[0].name, "interleave");
//! assert_eq!(metrics.stages[0].count, 1);
//! ```
//!
//! The crate is dependency-free (std only) and sits below every other
//! crate in the workspace so that `bwsa-trace`, `bwsa-core`,
//! `bwsa-predictor`, the CLI, and the bench harness can all report into
//! one [`Metrics`] pool. [`report`] turns a pool plus run metadata into
//! the machine-readable [`RunReport`]; [`json`] is the hand-rolled JSON
//! encoder/parser it uses (the workspace builds hermetically, with no
//! `serde_json`).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod json;
pub mod report;
pub mod rss;

pub use report::{
    DowngradeReport, ResilienceReport, RunReport, StageReport, WindowsReport, RUN_REPORT_VERSION,
};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A stage/span name: usually a `&'static str`, occasionally a dynamic
/// label (e.g. one sweep cell).
pub type Name = Cow<'static, str>;

/// One named stage's aggregated wall time.
///
/// Repeated spans under the same name accumulate: `wall_nanos` sums and
/// `count` counts, so a per-cell sweep span and a once-per-run pipeline
/// span both report naturally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (e.g. `"interleave"`, `"sweep:pag@compress_a"`).
    pub name: String,
    /// Total wall time spent in spans of this name, in nanoseconds.
    pub wall_nanos: u128,
    /// Number of spans recorded under this name.
    pub count: u64,
}

/// A point-in-time copy of everything an [`Obs`] handle has recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Stage timings in the order each name's first span ended.
    pub stages: Vec<StageTiming>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
}

impl Metrics {
    /// The value of a counter, `0` if it was never bumped.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The timing entry for `name`, if any span of that name completed.
    pub fn stage(&self, name: &str) -> Option<&StageTiming> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// This snapshot as an ordered JSON object — the live-metrics payload
    /// a long-running service returns from its `status` endpoint, with
    /// the same stage/counter names a [`RunReport`] would carry.
    pub fn to_json(&self) -> json::Json {
        use json::Json;
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name.clone())),
                    (
                        "wall_nanos",
                        Json::UInt(s.wall_nanos.min(u128::from(u64::MAX)) as u64),
                    ),
                    ("count", Json::UInt(s.count)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
            .collect();
        Json::object([
            ("stages", Json::Array(stages)),
            ("counters", Json::Object(counters)),
        ])
    }
}

#[derive(Debug, Default)]
struct RecorderState {
    /// Stage name → index into `stages`, in the order each name's first
    /// span ended.
    stage_index: BTreeMap<String, usize>,
    stages: Vec<StageTiming>,
    counters: BTreeMap<String, u64>,
}

/// Shared recording sink behind a recording [`Obs`] handle.
#[derive(Debug, Default)]
struct Recorder {
    state: Mutex<RecorderState>,
}

impl Recorder {
    fn add(&self, name: &str, n: u64) {
        let mut state = self.state.lock().expect("obs recorder poisoned");
        *state.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    fn record_max(&self, name: &str, value: u64) {
        let mut state = self.state.lock().expect("obs recorder poisoned");
        let slot = state.counters.entry(name.to_owned()).or_insert(0);
        *slot = (*slot).max(value);
    }

    fn record_span(&self, name: &str, wall_nanos: u128) {
        let mut state = self.state.lock().expect("obs recorder poisoned");
        match state.stage_index.get(name) {
            Some(&i) => {
                let stage = &mut state.stages[i];
                stage.wall_nanos += wall_nanos;
                stage.count += 1;
            }
            None => {
                let i = state.stages.len();
                state.stage_index.insert(name.to_owned(), i);
                state.stages.push(StageTiming {
                    name: name.to_owned(),
                    wall_nanos,
                    count: 1,
                });
            }
        }
    }

    fn snapshot(&self) -> Metrics {
        let state = self.state.lock().expect("obs recorder poisoned");
        Metrics {
            stages: state.stages.clone(),
            counters: state.counters.clone(),
        }
    }
}

/// A cheap, cloneable observability handle.
///
/// [`Obs::noop`] (also [`Default`]) records nothing and costs one branch
/// per call; [`Obs::recording`] accumulates spans and counters behind an
/// `Arc<Mutex<..>>`, safe to share across worker threads. Clones of a
/// recording handle feed the same pool.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<Recorder>>,
}

impl Obs {
    /// The zero-cost default: every call is a no-op.
    pub fn noop() -> Self {
        Obs { recorder: None }
    }

    /// A handle that records into a fresh shared pool.
    pub fn recording() -> Self {
        Obs {
            recorder: Some(Arc::new(Recorder::default())),
        }
    }

    /// `true` when this handle actually records.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Starts a wall-time span; the elapsed time is recorded under `name`
    /// when the returned guard drops (or [`Span::finish`] is called).
    pub fn span(&self, name: impl Into<Name>) -> Span {
        Span {
            active: self
                .recorder
                .as_ref()
                .map(|r| (Arc::clone(r), name.into(), Instant::now())),
        }
    }

    /// Bumps the counter `name` by `n`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(r) = &self.recorder {
            r.add(name, n);
        }
    }

    /// Records `value` into counter `name`, keeping the maximum seen —
    /// for peak gauges such as resident set size.
    pub fn record_max(&self, name: &str, value: u64) {
        if let Some(r) = &self.recorder {
            r.record_max(name, value);
        }
    }

    /// Samples the process peak RSS (where the platform exposes it) into
    /// the `process.peak_rss_bytes` counter.
    pub fn sample_peak_rss(&self) {
        if self.recorder.is_some() {
            if let Some(bytes) = rss::peak_rss_bytes() {
                self.record_max("process.peak_rss_bytes", bytes);
            }
        }
    }

    /// Copies out everything recorded so far; `None` for a no-op handle.
    pub fn snapshot(&self) -> Option<Metrics> {
        self.recorder.as_ref().map(|r| r.snapshot())
    }
}

/// RAII guard for one wall-time measurement; see [`Obs::span`].
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span {
    active: Option<(Arc<Recorder>, Name, Instant)>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((recorder, name, started)) = self.active.take() {
            recorder.record_span(&name, started.elapsed().as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        obs.add("x", 3);
        let _span = obs.span("stage");
        assert!(!obs.is_recording());
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn metrics_snapshot_renders_as_json() {
        let obs = Obs::recording();
        obs.span("dispatch").finish();
        obs.add("server.requests", 4);
        obs.add("server.tenant.alice.requests", 3);
        let doc = obs.snapshot().unwrap().to_json();
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("server.requests").and_then(json::Json::as_u64),
            Some(4)
        );
        assert_eq!(
            counters
                .get("server.tenant.alice.requests")
                .and_then(json::Json::as_u64),
            Some(3)
        );
        match doc.get("stages") {
            Some(json::Json::Array(stages)) => {
                assert_eq!(
                    stages[0].get("name").and_then(json::Json::as_str),
                    Some("dispatch")
                );
                assert_eq!(stages[0].get("count").and_then(json::Json::as_u64), Some(1));
            }
            other => panic!("stages missing: {other:?}"),
        }
        // The rendering parses back: the status endpoint is real JSON.
        json::Json::parse(&doc.to_pretty_string()).unwrap();
    }

    #[test]
    fn counters_accumulate_and_max_gauges_keep_the_peak() {
        let obs = Obs::recording();
        obs.add("a", 2);
        obs.add("a", 3);
        obs.record_max("peak", 10);
        obs.record_max("peak", 4);
        let m = obs.snapshot().unwrap();
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("peak"), 10);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn spans_aggregate_by_name_in_first_start_order() {
        let obs = Obs::recording();
        obs.span("first").finish();
        obs.span("second").finish();
        obs.span("first").finish();
        let m = obs.snapshot().unwrap();
        assert_eq!(m.stages.len(), 2);
        assert_eq!(m.stages[0].name, "first");
        assert_eq!(m.stages[0].count, 2);
        assert_eq!(m.stages[1].name, "second");
        assert_eq!(m.stages[1].count, 1);
        assert!(m.stage("first").is_some());
        assert!(m.stage("third").is_none());
    }

    #[test]
    fn clones_share_one_pool_across_threads() {
        let obs = Obs::recording();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        obs.add("n", 1);
                    }
                    obs.span("work").finish();
                });
            }
        });
        let m = obs.snapshot().unwrap();
        assert_eq!(m.counter("n"), 400);
        assert_eq!(m.stage("work").unwrap().count, 4);
    }

    #[test]
    fn peak_rss_sampling_is_harmless_everywhere() {
        let obs = Obs::recording();
        obs.sample_peak_rss();
        // On Linux the counter appears; elsewhere it is simply absent.
        let m = obs.snapshot().unwrap();
        if let Some(&v) = m.counters.get("process.peak_rss_bytes") {
            assert!(v > 0);
        }
    }
}
