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
//! **Exactness.** One whole-trace record accumulator consumes every record,
//! the same one the streaming engines feed, and each window is read out
//! of it: the detector copies a row at its first credit in the window,
//! and the flush walks the touched rows' differences from those copies
//! in sorted order. That walk yields the window's own pairs and weights
//! plus each pair's cumulative weight before and after the window, and
//! costs what the window touched. The windows therefore partition the
//! serial pass's credits, and [`WindowedAnalysis::finish`] is the
//! streaming engines' own tail, so `fold(windows) == whole_trace`
//! *bit-for-bit* — interleave counts, graph edges, working sets,
//! classification, and the final coloring all match a from-scratch
//! serial (or parallel) run. The property suite
//! `crates/core/tests/windowed_equiv.rs` pins this across arbitrary
//! traces, window sizes, and `--jobs` values.
//!
//! **Incremental re-coloring.** Edge weights only ever grow, so an edge
//! crosses the threshold at most once: the walk hands each crossing to
//! the re-colorer, which keeps the cumulative pruned graph as per-node
//! sorted neighbor lists and its `(nodes, kept edges, kept weight)`
//! signature current in time proportional to the window. An unchanged
//! signature proves the pruned graph identical, so the previous
//! assignment is still *the* coloring (the skip is exact); a moved one
//! compiles the pruned graph from the lists, with weights read from the
//! rows, and re-colors it. Each re-coloring reports a **stability**
//! metric: the fraction of previously assigned branches that kept their
//! BHT entry.

use crate::error::{CoreError, Error};
use crate::interleave::{Accumulator, Detector};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::working_set::{working_sets, WorkingSetReport};
use bwsa_graph::coloring::{color_graph, ColoringOptions};
use bwsa_graph::ConflictGraph;
use bwsa_obs::json::Json;
use bwsa_obs::Obs;
use bwsa_trace::profile::{BranchProfile, BranchStats};

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
    /// Interleave pairs detected within this window: the pairs whose
    /// weight it raised. Every window continues the one whole-trace
    /// detector, so the windows' weights sum to the whole-trace graph's.
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
    /// The cumulative pruned graph, every edge at or above the threshold:
    /// `neighbors[a]` lists `a`'s kept neighbors, ascending except for
    /// the lists named in `unsorted`. Lists only grow.
    neighbors: Vec<Vec<u32>>,
    /// Lists that received an id below their last since the last build.
    unsorted: Vec<u32>,
    kept_edges: usize,
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
            // A zero threshold keeps the same edges as 1: every counted
            // pair has a credit.
            threshold: pipeline.conflict.threshold.max(1),
            assignment: Vec::new(),
            neighbors: Vec::new(),
            unsorted: Vec::new(),
            kept_edges: 0,
            kept_weight: 0,
            signature: None,
            recolors: 0,
        }
    }

    /// Folds one pair's weight change into the kept graph. Weights only
    /// grow: an edge enters once, when it crosses the threshold, and
    /// later windows add their gain.
    fn track(&mut self, a: u32, b: u32, before: u64, after: u64) {
        if after < self.threshold {
            return;
        }
        if before >= self.threshold {
            self.kept_weight += after - before;
            return;
        }
        self.kept_weight += after;
        self.kept_edges += 1;
        self.link(a, b);
        self.link(b, a);
    }

    fn link(&mut self, a: u32, b: u32) {
        let i = a as usize;
        if i >= self.neighbors.len() {
            self.neighbors.resize_with(i + 1, Vec::new);
        }
        let list = &mut self.neighbors[i];
        if list.last().is_some_and(|&last| last > b) {
            self.unsorted.push(a);
        }
        list.push(b);
    }

    /// Re-colors the kept graph over `nodes` branches unless it is
    /// unchanged since the last coloring, reading each kept edge's weight
    /// from `detector`.
    fn observe(&mut self, nodes: u32, detector: &Detector) -> RecolorStats {
        let signature = (nodes, self.kept_edges, self.kept_weight);
        if self.signature == Some(signature) {
            return RecolorStats {
                recolored: false,
                stability: 1.0,
            };
        }
        self.unsorted.sort_unstable();
        self.unsorted.dedup();
        for a in self.unsorted.drain(..) {
            self.neighbors[a as usize].sort_unstable();
        }
        let kept = ConflictGraph::from_neighbor_lists(nodes, &self.neighbors, |a, b| {
            detector.pair_weight(a, b)
        });
        let next = color_graph(&kept, self.table_size, &self.options).assignment;
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
    /// Every record pushed so far; windows are read out of its detector.
    acc: Accumulator,
    /// Per-branch statistics of the open window's records, indexed by id.
    stats: Vec<BranchStats>,
    /// Ids the open window executed, in first-execution order.
    executed: Vec<u32>,
    /// Records in the open window.
    records: u64,
    /// Timestamps of the open window's first and last records.
    first_time: u64,
    last_time: u64,
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
        let mut acc = Accumulator::new(0);
        acc.detector.track_windows();
        WindowedAnalysis {
            recolorer: Recolorer::new(config.table_size, &pipeline),
            config,
            pipeline,
            obs: Obs::noop(),
            acc,
            stats: Vec::new(),
            executed: Vec::new(),
            records: 0,
            first_time: 0,
            last_time: 0,
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
        let i = id as usize;
        if i >= self.stats.len() {
            self.stats.resize(i + 1, BranchStats::default());
        }
        if self.stats[i].executions == 0 {
            self.executed.push(id);
        }
        self.stats[i].record(time.into(), taken);
        if self.records == 0 {
            self.first_time = time;
        }
        self.last_time = time;
        self.records += 1;
        self.acc.push(id, time, taken);
        if self.config.unit == WindowUnit::DynamicBranches && self.records >= self.config.interval {
            self.flush();
        }
    }

    /// Flushes the open window (no-op when it holds no records).
    fn flush(&mut self) {
        if self.records == 0 {
            return;
        }
        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_FLUSH);
        let _span = self.obs.span("window_flush");
        let nodes = self.acc.stats.len() as u32;
        let threshold = self.recolorer.threshold;

        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_MERGE);
        let mut interleave_pairs = 0;
        let mut interleave_weight = 0;
        let (window_sets, rows_touched) = {
            let _span = self.obs.span("window_diff");
            let mut kept = Vec::new();
            let recolorer = &mut self.recolorer;
            let rows_touched = self.acc.detector.flush_window(|a, b, w, after| {
                interleave_pairs += 1;
                interleave_weight += w;
                if w >= threshold {
                    kept.push((a, b, w));
                }
                recolorer.track(a, b, after - w, after);
            });
            let pruned_window = ConflictGraph::from_sorted_edges(nodes, kept.iter().copied());
            let profile = BranchProfile::from_parts(self.stats.clone(), self.records);
            let sets = working_sets(&pruned_window, &profile, self.pipeline.definition);
            (sets, rows_touched)
        };

        let mut executed = std::mem::take(&mut self.executed);
        executed.sort_unstable();
        let new_branches = executed
            .iter()
            .filter(|&&id| {
                self.acc.stats[id as usize].executions == self.stats[id as usize].executions
            })
            .count();
        for &id in &executed {
            self.stats[id as usize] = BranchStats::default();
        }
        let jaccard = match &self.prev_executed {
            None => 1.0,
            Some(prev) => jaccard_sorted(prev, &executed),
        };
        let phase_change = self.prev_executed.is_some() && jaccard < PHASE_JACCARD;

        bwsa_resilience::failpoint!(crate::failpoints::RECOLOR);
        let recolor = {
            let _span = self.obs.span("recolor");
            self.recolorer.observe(nodes, &self.acc.detector)
        };

        let records = std::mem::take(&mut self.records);
        self.obs.add("core.windows_flushed", 1);
        self.obs.add("core.window_records", records);
        self.obs
            .add("core.window_rows_touched", rows_touched as u64);
        if recolor.recolored {
            self.obs.add("core.recolors", 1);
        }
        if phase_change {
            self.obs.add("core.phase_changes", 1);
        }

        self.windows.push(WindowSummary {
            index: self.windows.len(),
            records,
            first_time: self.first_time,
            last_time: self.last_time,
            new_branches,
            executed_branches: executed.len(),
            interleave_pairs,
            interleave_weight,
            cumulative_edges_kept: self.recolorer.kept_edges,
            working_sets: window_sets.report,
            jaccard,
            phase_change,
            recolor,
        });
        self.prev_executed = Some(executed);
    }

    /// Flushes the trailing partial window and folds everything into the
    /// whole-trace [`Analysis`] — the streaming engines' own tail over
    /// the one accumulator every window was read from, so bit-identical
    /// to a from-scratch run over the same records (pinned by
    /// `crates/core/tests/windowed_equiv.rs`).
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
        let records = self.acc.records;
        let analysis = self.acc.into_analysis(&self.pipeline, &self.obs);
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

    /// `(a, b) -> weight` of the naive oracle over `records`.
    fn naive_weights(records: &[(u64, u64)]) -> std::collections::BTreeMap<(u32, u32), u64> {
        let mut b = TraceBuilder::new("prefix");
        for &(pc, t) in records {
            b.record(pc, true, t);
        }
        let graph = crate::interleave_counts_naive(&b.finish()).build();
        graph.iter_edges().map(|(a, b, w)| ((a, b), w)).collect()
    }

    #[test]
    fn folded_rows_keep_every_window_exact() {
        // A fold point of a few re-executions folds rows mid-window, after
        // the window copied them. Every window's pairs must still be the
        // naive oracle's weights up to its end minus those up to its
        // start, and each cumulative weight the oracle's up to its end.
        let mut lcg: u64 = 11;
        let records: Vec<(u64, u64)> = (0..900u64)
            .map(|i| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (0x4000 + (lcg >> 40) % 19 * 4, i + 1 + i / 7)
            })
            .collect();
        let trace = {
            let mut b = TraceBuilder::new("fold");
            for &(pc, t) in &records {
                b.record(pc, true, t);
            }
            b.finish()
        };
        let ids: Vec<u32> = trace.indexed_records().map(|(id, _)| id.as_u32()).collect();
        for window in [3, 40, 300] {
            let ends: Vec<usize> = (window..records.len())
                .step_by(window)
                .chain([records.len()])
                .collect();
            let prefixes: Vec<_> = ends
                .iter()
                .map(|&end| naive_weights(&records[..end]))
                .collect();
            for fold_at in [1, 2, 3, 7] {
                let mut detector = Detector::new(0).with_fold_at(fold_at);
                detector.track_windows();
                let mut start = 0;
                let empty = std::collections::BTreeMap::new();
                for (index, (&end, after)) in ends.iter().zip(&prefixes).enumerate() {
                    for i in start..end {
                        detector.push(ids[i], records[i].1);
                    }
                    let before = index.checked_sub(1).map_or(&empty, |i| &prefixes[i]);
                    let mut got = Vec::new();
                    detector.flush_window(|a, b, w, cumulative| got.push((a, b, w, cumulative)));
                    let want: Vec<_> = after
                        .iter()
                        .filter_map(|(&(a, b), &w)| {
                            let gained = w - before.get(&(a, b)).copied().unwrap_or(0);
                            (gained > 0).then_some((a, b, gained, w))
                        })
                        .collect();
                    assert_eq!(got, want, "fold_at {fold_at}, window {window} at {start}");
                    start = end;
                }
            }
        }
    }

    #[test]
    fn jaccard_similarity_is_exact_on_small_sets() {
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
    }
}
