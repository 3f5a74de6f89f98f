//! Online **windowed analysis**: the whole-trace pipeline sliced into
//! reset intervals, with results that provably fold back into the exact
//! whole-trace answer.
//!
//! The paper aggregates interleaving over a whole trace, but its closing
//! question — are clustered mispredictions caused by working-set
//! *change*? — needs answers *during* the run. [`WindowedAnalysis`]
//! consumes a record stream and, at a configurable reset interval
//! ([`WindowUnit::DynamicBranches`] or [`WindowUnit::Instructions`]),
//! emits one [`WindowSummary`] per window: the window's own interleave
//! counts, conflict-graph delta, working sets, executed-set drift
//! (Jaccard similarity vs. the previous window) and a phase-change
//! signal.
//!
//! **Exactness.** Each window is summarised with the PR 2 merge algebra:
//! the window's records run through [`ShardDelta::of_shard`] seeded with
//! the [`ShardBoundary`] carry of everything before the window, and the
//! deltas merge associatively into the cumulative whole-trace state.
//! Because that algebra is exactly the one the parallel engine uses,
//! `fold(windows) == whole_trace` *bit-for-bit* — interleave counts,
//! graph edges, working sets, classification, and the final coloring all
//! match a from-scratch serial (or sharded) run. The property suite
//! `crates/core/tests/windowed_equiv.rs` pins this across arbitrary
//! traces, window sizes, and `--jobs` values.
//!
//! **Incremental re-coloring.** Edge weights only ever grow, so an edge
//! crosses the threshold at most once: each merge keeps the cumulative
//! pruned graph's edge set and its `(nodes, kept edges, kept weight)`
//! signature current in time proportional to the window. An unchanged
//! signature proves the pruned graph identical, so the previous
//! assignment is still *the* coloring (the skip is exact); a moved one
//! compiles the pruned graph from the kept set and re-colors it. Each
//! re-coloring reports a **stability** metric: the fraction of
//! previously assigned branches that kept their BHT entry.

use crate::error::{CoreError, Error};
use crate::merge::{ShardBoundary, ShardDelta};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::working_set::{working_sets, WorkingSetReport};
use bwsa_graph::coloring::{color_graph, ColoringOptions};
use bwsa_graph::GraphBuilder;
use bwsa_obs::json::Json;
use bwsa_obs::Obs;
use bwsa_trace::profile::BranchProfile;

/// Jaccard similarity below which a window is flagged as a phase change.
const PHASE_JACCARD: f64 = 0.5;

/// Default BHT size the incremental re-colorer targets (the paper's
/// conventional baseline table).
const DEFAULT_TABLE_SIZE: usize = 1024;

/// What a window's reset interval counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowUnit {
    /// Every N dynamic branch records start a new window.
    DynamicBranches,
    /// Fixed timestamp (instruction-count) intervals of width N, anchored
    /// at the first record's timestamp. Empty intervals emit no window.
    Instructions,
}

impl WindowUnit {
    /// Stable lower-case label (used in JSON and log lines).
    pub fn label(self) -> &'static str {
        match self {
            WindowUnit::DynamicBranches => "branches",
            WindowUnit::Instructions => "instructions",
        }
    }
}

/// Configuration of one windowed run: the reset interval, its unit, and
/// the BHT size the incremental re-colorer maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    interval: u64,
    unit: WindowUnit,
    table_size: usize,
}

impl WindowConfig {
    /// A window every `interval` dynamic branch records.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] when `interval` is zero.
    pub fn branches(interval: u64) -> Result<Self, Error> {
        Self::with_unit(interval, WindowUnit::DynamicBranches)
    }

    /// A window every `interval` instruction timestamps.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] when `interval` is zero.
    pub fn instructions(interval: u64) -> Result<Self, Error> {
        Self::with_unit(interval, WindowUnit::Instructions)
    }

    fn with_unit(interval: u64, unit: WindowUnit) -> Result<Self, Error> {
        if interval == 0 {
            return Err(CoreError::config("window interval must be at least 1").into());
        }
        Ok(WindowConfig {
            interval,
            unit,
            table_size: DEFAULT_TABLE_SIZE,
        })
    }

    /// Parses the CLI `--window` grammar: `"N"` for a dynamic-branch
    /// interval, `"Ni"` for an instruction-count interval.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] for an empty, non-numeric, or zero interval.
    pub fn parse(spec: &str) -> Result<Self, Error> {
        let (digits, unit) = match spec.strip_suffix('i') {
            Some(rest) => (rest, WindowUnit::Instructions),
            None => (spec, WindowUnit::DynamicBranches),
        };
        let interval: u64 = digits.parse().map_err(|_| {
            Error::from(CoreError::config(format!(
                "bad window spec '{spec}': expected N (branches) or Ni (instructions)"
            )))
        })?;
        Self::with_unit(interval, unit)
    }

    /// Replaces the BHT size the re-colorer targets (default 1024).
    pub fn with_table_size(mut self, table_size: usize) -> Self {
        self.table_size = table_size;
        self
    }

    /// The reset interval.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// What the interval counts.
    pub fn unit(&self) -> WindowUnit {
        self.unit
    }

    /// The BHT size the incremental re-colorer maintains.
    pub fn table_size(&self) -> usize {
        self.table_size
    }
}

/// What the incremental re-colorer did after one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecolorStats {
    /// Whether the cumulative pruned graph changed and was re-colored
    /// (`false` = the unchanged-signature skip proved the previous
    /// assignment still exact).
    pub recolored: bool,
    /// Fraction of previously assigned branches keeping their BHT entry
    /// (1.0 on a skip or the first assignment).
    pub stability: f64,
}

/// One emitted window: the interval's own analysis products plus its
/// relation to the cumulative state.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Zero-based window index.
    pub index: usize,
    /// Dynamic branch records in this window.
    pub records: u64,
    /// Timestamp of the window's first record.
    pub first_time: u64,
    /// Timestamp of the window's last record.
    pub last_time: u64,
    /// Branches executing for the first time in the whole run.
    pub new_branches: usize,
    /// Distinct branches executed in this window.
    pub executed_branches: usize,
    /// Interleave pairs detected within this window (the conflict-graph
    /// delta's edge count; edges here carry the exact seeded carry-in
    /// state, so deltas sum to the whole-trace graph).
    pub interleave_pairs: usize,
    /// Total interleave weight detected within this window.
    pub interleave_weight: u64,
    /// Edges of the *cumulative* thresholded graph after this window.
    pub cumulative_edges_kept: usize,
    /// Working sets of this window's own thresholded delta graph.
    pub working_sets: WorkingSetReport,
    /// Jaccard similarity of this window's executed set vs. the previous
    /// window's (1.0 for the first window).
    pub jaccard: f64,
    /// Whether the executed set drifted past the phase threshold.
    pub phase_change: bool,
    /// What the incremental re-colorer did after this window.
    pub recolor: RecolorStats,
}

impl WindowSummary {
    /// Canonical JSON rendering — the exact object `--emit-windows`
    /// writes and the server's window frames carry.
    pub fn to_json(&self) -> Json {
        let ws = &self.working_sets;
        Json::object([
            ("index", Json::UInt(self.index as u64)),
            ("records", Json::UInt(self.records)),
            ("first_time", Json::UInt(self.first_time)),
            ("last_time", Json::UInt(self.last_time)),
            ("new_branches", Json::UInt(self.new_branches as u64)),
            (
                "executed_branches",
                Json::UInt(self.executed_branches as u64),
            ),
            ("interleave_pairs", Json::UInt(self.interleave_pairs as u64)),
            ("interleave_weight", Json::UInt(self.interleave_weight)),
            (
                "cumulative_edges_kept",
                Json::UInt(self.cumulative_edges_kept as u64),
            ),
            (
                "working_sets",
                Json::object([
                    ("total_sets", Json::UInt(ws.total_sets as u64)),
                    ("max_size", Json::UInt(ws.max_size as u64)),
                    ("avg_static_size", Json::Float(ws.avg_static_size)),
                    ("avg_dynamic_size", Json::Float(ws.avg_dynamic_size)),
                ]),
            ),
            ("jaccard", Json::Float(self.jaccard)),
            ("phase_change", Json::Bool(self.phase_change)),
            (
                "recolor",
                Json::object([
                    ("recolored", Json::Bool(self.recolor.recolored)),
                    ("stability", Json::Float(self.recolor.stability)),
                ]),
            ),
        ])
    }
}

/// Signature-gated incremental re-coloring of the cumulative graph.
#[derive(Debug)]
struct Recolorer {
    table_size: usize,
    options: ColoringOptions,
    threshold: u64,
    assignment: Vec<u32>,
    /// The cumulative pruned graph: every edge at or above the threshold.
    kept: GraphBuilder,
    kept_weight: u64,
    /// `(nodes, kept edges, kept weight)` of the last colored graph.
    /// Cumulative edge weights grow monotonically, so an unchanged
    /// signature proves the pruned graph is identical — the skip is
    /// exact.
    signature: Option<(u32, usize, u64)>,
    recolors: u64,
}

impl Recolorer {
    fn new(table_size: usize, pipeline: &AnalysisPipeline) -> Self {
        Recolorer {
            table_size,
            options: pipeline.allocation.coloring,
            threshold: pipeline.conflict.threshold,
            assignment: Vec::new(),
            kept: GraphBuilder::new(0),
            kept_weight: 0,
            signature: None,
            recolors: 0,
        }
    }

    /// Folds one merged edge's weight change into the kept set. Weights
    /// only grow: an edge enters once, and later merges add their gain.
    fn track(&mut self, a: u32, b: u32, before: u64, after: u64) {
        let counted = if before >= self.threshold { before } else { 0 };
        if after >= self.threshold {
            self.kept.add_edge(a, b, after - counted);
            self.kept_weight += after - counted;
        }
    }

    /// Re-colors the kept edges unless they are unchanged since the last
    /// coloring.
    fn observe(&mut self) -> RecolorStats {
        let kept = &self.kept;
        let signature = (kept.node_count(), kept.edge_count(), self.kept_weight);
        if self.signature == Some(signature) {
            return RecolorStats {
                recolored: false,
                stability: 1.0,
            };
        }
        let next = color_graph(&kept.build(), self.table_size, &self.options).assignment;
        let unchanged = self
            .assignment
            .iter()
            .zip(&next)
            .filter(|(a, b)| a == b)
            .count();
        let stability = if self.assignment.is_empty() {
            1.0
        } else {
            unchanged as f64 / self.assignment.len() as f64
        };
        self.assignment = next;
        self.signature = Some(signature);
        self.recolors += 1;
        RecolorStats {
            recolored: true,
            stability,
        }
    }
}

/// Everything a finished windowed run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedResult {
    /// The configuration that produced this result.
    pub config: WindowConfig,
    /// Every emitted window, in order.
    pub windows: Vec<WindowSummary>,
    /// The folded whole-trace analysis — bit-identical to a from-scratch
    /// [`AnalysisPipeline`] run over the same records.
    pub analysis: Analysis,
    /// The final incremental BHT index map — identical to coloring the
    /// whole-trace thresholded graph from scratch.
    pub assignment: Vec<u32>,
    /// Times the re-colorer actually ran (vs. skipping unchanged graphs).
    pub recolors: u64,
    /// Mean re-coloring stability across windows (1.0 with no windows).
    pub mean_stability: f64,
    /// Windows flagged as phase changes.
    pub phase_changes: u64,
    /// Total dynamic records consumed.
    pub records: u64,
}

impl WindowedResult {
    /// Canonical JSON document for the whole run — the `--emit-windows`
    /// file body.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("window_interval", Json::UInt(self.config.interval())),
            ("window_unit", Json::from(self.config.unit().label())),
            ("table_size", Json::UInt(self.config.table_size() as u64)),
            ("records", Json::UInt(self.records)),
            (
                "windows",
                Json::Array(self.windows.iter().map(WindowSummary::to_json).collect()),
            ),
            ("recolors", Json::UInt(self.recolors)),
            ("mean_stability", Json::Float(self.mean_stability)),
            ("phase_changes", Json::UInt(self.phase_changes)),
            ("final", self.analysis.summary_json()),
        ])
    }
}

/// The online engine: push pre-interned records in trace order, read
/// emitted windows as they flush, and [`WindowedAnalysis::finish`] into
/// the exact whole-trace [`Analysis`].
///
/// # Example
///
/// ```
/// use bwsa_core::{AnalysisPipeline, Session, WindowConfig, WindowedAnalysis};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("demo");
/// for i in 0..600u64 {
///     b.record(0x400 + (i % 2) * 4, i % 4 < 2, i + 1);
/// }
/// let trace = b.finish();
///
/// let config = WindowConfig::branches(100).unwrap();
/// let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::default());
/// for (id, r) in trace.indexed_records() {
///     engine.push(id.as_u32(), r.time.get(), r.is_taken());
/// }
/// let result = engine.finish();
/// assert_eq!(result.windows.len(), 6);
/// // Windows fold into the exact whole-trace answer.
/// assert_eq!(&result.analysis, Session::new(&trace).run().unwrap());
/// ```
#[derive(Debug)]
pub struct WindowedAnalysis {
    config: WindowConfig,
    pipeline: AnalysisPipeline,
    obs: Obs,
    /// Dense node-id space observed so far (max pushed id + 1).
    nodes: usize,
    /// Latest stamp per branch over everything before the open window.
    carry: ShardBoundary,
    /// The folded whole-trace state over all flushed windows.
    cumulative: ShardDelta,
    /// Records of the currently open window.
    buffer: Vec<(u32, u64, bool)>,
    /// Exclusive end of the open instruction window (instruction unit
    /// only; saturates at `u64::MAX`).
    window_end: Option<u64>,
    /// The previous window's executed set, for drift detection.
    prev_executed: Option<Vec<u32>>,
    recolorer: Recolorer,
    windows: Vec<WindowSummary>,
}

impl WindowedAnalysis {
    /// An engine with no records pushed yet.
    pub fn new(config: WindowConfig, pipeline: AnalysisPipeline) -> Self {
        WindowedAnalysis {
            recolorer: Recolorer::new(config.table_size, &pipeline),
            config,
            pipeline,
            obs: Obs::noop(),
            nodes: 0,
            carry: ShardBoundary::empty(0),
            cumulative: ShardDelta::empty(0),
            buffer: Vec::new(),
            window_end: None,
            prev_executed: None,
            windows: Vec::new(),
        }
    }

    /// Attaches an observer for per-window counters and stage timings.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Every window flushed so far.
    pub fn windows(&self) -> &[WindowSummary] {
        &self.windows
    }

    /// The current incremental BHT assignment (over the cumulative
    /// thresholded graph as of the last flushed window).
    pub fn assignment(&self) -> &[u32] {
        &self.recolorer.assignment
    }

    /// Consumes one pre-interned record in trace order, flushing a window
    /// when the reset interval fills.
    pub fn push(&mut self, id: u32, time: u64, taken: bool) {
        if self.config.unit == WindowUnit::Instructions {
            match self.window_end {
                None => {
                    // The first record anchors the interval grid.
                    self.window_end = Some(time.saturating_add(self.config.interval));
                }
                Some(mut end) if time >= end => {
                    self.flush();
                    while time >= end {
                        match end.checked_add(self.config.interval) {
                            Some(next) => end = next,
                            None => {
                                end = u64::MAX;
                                break;
                            }
                        }
                    }
                    self.window_end = Some(end);
                }
                Some(_) => {}
            }
        }
        self.nodes = self.nodes.max(id as usize + 1);
        self.buffer.push((id, time, taken));
        if self.config.unit == WindowUnit::DynamicBranches
            && self.buffer.len() as u64 >= self.config.interval
        {
            self.flush();
        }
    }

    /// Flushes the open window (no-op when it holds no records).
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_FLUSH);
        let _span = self.obs.span("window_flush");
        let nodes = self.nodes;
        let delta = ShardDelta::of_shard(nodes, &self.carry, self.buffer.iter().copied());
        let boundary =
            ShardBoundary::of_records(nodes, self.buffer.iter().map(|&(id, t, _)| (id, t)));
        let first_time = self.buffer.first().map_or(0, |r| r.1);
        let last_time = self.buffer.last().map_or(0, |r| r.1);
        self.buffer.clear();

        let executed: Vec<u32> = delta
            .stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.executions > 0)
            .map(|(i, _)| i as u32)
            .collect();
        let new_branches = executed
            .iter()
            .filter(|&&id| {
                self.cumulative
                    .stats
                    .get(id as usize)
                    .is_none_or(|s| s.executions == 0)
            })
            .count();

        let window_graph = delta.builder.build();
        let pruned_window = window_graph.pruned(self.pipeline.conflict.threshold);
        let window_profile = BranchProfile::from_parts(delta.stats.clone(), delta.record_count());
        let window_sets = working_sets(&pruned_window, &window_profile, self.pipeline.definition);

        let jaccard = match &self.prev_executed {
            None => 1.0,
            Some(prev) => jaccard_sorted(prev, &executed),
        };
        let phase_change = self.prev_executed.is_some() && jaccard < PHASE_JACCARD;

        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_MERGE);
        let recolorer = &mut self.recolorer;
        recolorer.kept.ensure_nodes(nodes as u32);
        self.cumulative.merge_with(&delta, |a, b, before, after| {
            recolorer.track(a, b, before, after);
        });
        self.carry.join(&boundary);

        bwsa_resilience::failpoint!(crate::failpoints::RECOLOR);
        let recolor = {
            let _span = self.obs.span("recolor");
            self.recolorer.observe()
        };

        self.obs.add("core.windows_flushed", 1);
        self.obs.add("core.window_records", delta.record_count());
        if recolor.recolored {
            self.obs.add("core.recolors", 1);
        }
        if phase_change {
            self.obs.add("core.phase_changes", 1);
        }

        self.windows.push(WindowSummary {
            index: self.windows.len(),
            records: delta.record_count(),
            first_time,
            last_time,
            new_branches,
            executed_branches: executed.len(),
            interleave_pairs: window_graph.edge_count(),
            interleave_weight: window_graph.total_weight(),
            cumulative_edges_kept: self.recolorer.kept.edge_count(),
            working_sets: window_sets.report,
            jaccard,
            phase_change,
            recolor,
        });
        self.prev_executed = Some(executed);
    }

    /// Flushes the trailing partial window and folds everything into the
    /// whole-trace [`Analysis`] — bit-identical to a from-scratch run
    /// over the same records (the associativity of the PR 2 merge
    /// algebra; pinned by `crates/core/tests/windowed_equiv.rs`).
    pub fn finish(mut self) -> WindowedResult {
        self.flush();
        let recolors = self.recolorer.recolors;
        let assignment = std::mem::take(&mut self.recolorer.assignment);
        let phase_changes = self.windows.iter().filter(|w| w.phase_change).count() as u64;
        let mean_stability = if self.windows.is_empty() {
            1.0
        } else {
            self.windows
                .iter()
                .map(|w| w.recolor.stability)
                .sum::<f64>()
                / self.windows.len() as f64
        };
        let records = self.cumulative.record_count();
        let analysis = self.cumulative.into_analysis(&self.pipeline, &self.obs);
        WindowedResult {
            config: self.config,
            windows: self.windows,
            analysis,
            assignment,
            recolors,
            mean_stability,
            phase_changes,
            records,
        }
    }
}

/// Jaccard similarity of two ascending-sorted id sets.
fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use bwsa_trace::{Trace, TraceBuilder};

    fn ping_pong(n: u64) -> Trace {
        let mut b = TraceBuilder::new("pingpong");
        for i in 0..n {
            b.record(0x400 + (i % 2) * 4, i % 4 < 2, i + 1);
        }
        b.finish()
    }

    fn drive(trace: &Trace, config: WindowConfig) -> WindowedResult {
        let mut engine = WindowedAnalysis::new(config, AnalysisPipeline::default());
        for (id, r) in trace.indexed_records() {
            engine.push(id.as_u32(), r.time.get(), r.is_taken());
        }
        engine.finish()
    }

    #[test]
    fn config_rejects_zero_intervals() {
        assert!(WindowConfig::branches(0).is_err());
        assert!(WindowConfig::instructions(0).is_err());
        assert!(WindowConfig::parse("0").is_err());
        assert!(WindowConfig::parse("0i").is_err());
    }

    #[test]
    fn parse_grammar_covers_both_units() {
        let b = WindowConfig::parse("128").unwrap();
        assert_eq!(b.interval(), 128);
        assert_eq!(b.unit(), WindowUnit::DynamicBranches);
        let i = WindowConfig::parse("4096i").unwrap();
        assert_eq!(i.interval(), 4096);
        assert_eq!(i.unit(), WindowUnit::Instructions);
        for bad in ["", "i", "x", "12x", "-3", "1.5", "12ii"] {
            assert!(WindowConfig::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn branch_windows_fold_into_the_whole_trace_answer() {
        let trace = ping_pong(600);
        let whole = Session::new(&trace).run().unwrap().clone();
        for interval in [1, 7, 100, 600, 601, u64::MAX] {
            let result = drive(&trace, WindowConfig::branches(interval).unwrap());
            assert_eq!(result.analysis, whole, "interval {interval}");
            assert_eq!(result.records, 600);
            let records: u64 = result.windows.iter().map(|w| w.records).sum();
            assert_eq!(records, 600);
            let weight: u64 = result.windows.iter().map(|w| w.interleave_weight).sum();
            assert_eq!(
                weight, whole.conflict.raw_total_weight,
                "interval {interval}"
            );
        }
    }

    #[test]
    fn instruction_windows_partition_the_timestamp_axis() {
        let trace = ping_pong(400);
        let result = drive(&trace, WindowConfig::instructions(100).unwrap());
        // Timestamps 1..=400 anchored at 1: windows [1,101), [101,201), ...
        assert_eq!(result.windows.len(), 4);
        for w in &result.windows {
            assert_eq!(w.records, 100);
        }
        let whole = Session::new(&trace).run().unwrap().clone();
        assert_eq!(result.analysis, whole);
    }

    #[test]
    fn empty_input_yields_zero_windows_and_an_empty_analysis() {
        let trace = TraceBuilder::new("empty").finish();
        let result = drive(&trace, WindowConfig::branches(10).unwrap());
        assert!(result.windows.is_empty());
        assert_eq!(result.records, 0);
        assert_eq!(result.mean_stability, 1.0);
        assert!(result.assignment.is_empty());
        assert_eq!(result.analysis, *Session::new(&trace).run().unwrap());
    }

    #[test]
    fn final_assignment_matches_scratch_coloring() {
        let trace = ping_pong(800);
        let result = drive(
            &trace,
            WindowConfig::branches(64).unwrap().with_table_size(8),
        );
        let scratch = color_graph(
            &result.analysis.conflict.graph,
            8,
            &ColoringOptions::default(),
        );
        assert_eq!(result.assignment, scratch.assignment);
    }

    #[test]
    fn unchanged_graph_skips_recoloring_with_full_stability() {
        // One hot pair crosses the threshold early; the tail re-executes a
        // single known branch back-to-back, so it adds no nodes, no kept
        // edges, and no kept weight — the signature freezes and later
        // windows skip the exact re-coloring.
        let mut b = TraceBuilder::new("tail");
        let mut time = 0;
        for i in 0..600u64 {
            time += 1;
            b.record(0x400 + (i % 2) * 4, true, time);
        }
        for _ in 0..200u64 {
            time += 1;
            b.record(0x400, true, time);
        }
        let trace = b.finish();
        let result = drive(&trace, WindowConfig::branches(100).unwrap());
        let skipped = result.windows.iter().filter(|w| !w.recolor.recolored);
        assert!(skipped.count() > 0, "tail windows must skip re-coloring");
        assert!(result.recolors < result.windows.len() as u64);
        for w in &result.windows {
            assert!((0.0..=1.0).contains(&w.recolor.stability));
            if !w.recolor.recolored {
                assert_eq!(w.recolor.stability, 1.0);
            }
        }
    }

    #[test]
    fn phase_change_fires_when_the_executed_set_moves() {
        let mut b = TraceBuilder::new("phased");
        let mut time = 0;
        for i in 0..300u64 {
            time += 1;
            b.record(0x1000 + (i % 3) * 4, true, time);
        }
        for i in 0..300u64 {
            time += 1;
            b.record(0x2000 + (i % 3) * 4, false, time);
        }
        let trace = b.finish();
        let result = drive(&trace, WindowConfig::branches(100).unwrap());
        assert!(
            result.windows.iter().any(|w| w.phase_change),
            "disjoint second phase must be flagged"
        );
        assert_eq!(result.phase_changes, 1, "exactly one boundary crossed");
        let flagged = result.windows.iter().find(|w| w.phase_change).unwrap();
        assert_eq!(flagged.jaccard, 0.0);
        assert_eq!(flagged.new_branches, 3);
    }

    #[test]
    fn window_json_parses_and_carries_the_headline_fields() {
        let trace = ping_pong(300);
        let result = drive(&trace, WindowConfig::branches(150).unwrap());
        let doc = result.to_json();
        let text = doc.to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("windows").map(|w| match w {
                Json::Array(items) => items.len(),
                _ => usize::MAX,
            }),
            Some(2)
        );
        assert_eq!(
            parsed.get("window_unit").and_then(Json::as_str),
            Some("branches")
        );
        let first = match parsed.get("windows") {
            Some(Json::Array(items)) => &items[0],
            other => panic!("windows not an array: {other:?}"),
        };
        assert_eq!(first.get("records").and_then(Json::as_u64), Some(150));
    }

    #[test]
    fn jaccard_similarity_is_exact_on_small_sets() {
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
    }
}
