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
//! serial pass's credits: summed over the windows, the pairs each first
//! credited and their weights are the raw graph's pair count and weight,
//! and the kept moves (below) build the thresholded graph. So
//! [`WindowedAnalysis::finish`] reads no detector row: the fold's
//! conflict graph is the colorer's kept graph, and the engines' shared
//! tail runs over it, so `fold(windows) == whole_trace` *bit-for-bit* —
//! interleave counts, graph edges, working sets, classification, and the
//! final coloring all match a from-scratch serial (or parallel) run. The
//! property suite `crates/core/tests/windowed_equiv.rs` pins this across
//! arbitrary traces, window sizes, and `--jobs` values.
//!
//! **Incremental re-coloring.** Edge weights only ever grow, so an edge
//! crosses the threshold at most once. Each flush hands the window's
//! *kept moves* — the pairs it credited whose cumulative weight reaches
//! the threshold, with that weight, in `(a, b)` order — to a colorer,
//! which owns the cumulative pruned graph as one CSR and keeps its
//! `(nodes, kept edges, kept weight)` signature current. An unchanged
//! signature proves the pruned graph identical, so the previous
//! assignment is still *the* coloring (the skip is exact); a moved one
//! applies the moves to the CSR in place
//! ([`ConflictGraph::update_sorted_edges`]: new weights where the pairs
//! are, one back-to-front pass for the new pairs) and re-colors it. No
//! recolor allocates a CSR of every kept pair, and none reads the
//! detector. Each re-coloring reports a **stability** metric: the
//! fraction of previously assigned branches that kept their BHT entry.
//!
//! **The colorer's thread.** A recolor needs nothing the walk still
//! changes, so a windowed [`Session`](crate::Session) with two or more
//! jobs runs the colorer on one helper thread, fed through a bounded
//! channel that holds at most one waiting window, while the walk detects
//! the next window. With one job, and in every engine
//! [`WindowedAnalysis::new`] makes, the same colorer runs inline after
//! each flush. The windows and the assignment are the same either way.

use crate::conflict::ConflictAnalysis;
use crate::error::{CoreError, Error};
use crate::interleave::Accumulator;
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::working_set::{working_sets, WorkingSetReport};
use bwsa_graph::coloring::{assign_colors, ColoringOptions};
use bwsa_graph::ConflictGraph;
use bwsa_obs::json::Json;
use bwsa_obs::Obs;
use bwsa_trace::profile::{BranchProfile, BranchStats};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};

/// Jaccard similarity below which a window is flagged as a phase change.
const PHASE_JACCARD: f64 = 0.5;

/// Default BHT size the incremental re-colorer targets (the paper's
/// conventional baseline table).
const DEFAULT_TABLE_SIZE: usize = 1024;

/// A branch's entry in [`WindowedAnalysis`]'s map to window-graph nodes
/// while the flush has not given it one.
const UNTOUCHED: u32 = u32::MAX;

/// Windows that may wait for a colorer on a helper thread while it colors
/// another: the walk goes on detecting, and the waiting move lists stay
/// few.
const HANDOFF_DEPTH: usize = 1;

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

/// A kept pair as the walk hands it over: `(a, b, cumulative weight)`,
/// `a < b`, the weight at or above the threshold.
type Move = (u32, u32, u64);

/// One flushed window on its way to the colorer: its summary, whose
/// `cumulative_edges_kept` and `recolor` the colorer fills in, the branch
/// count so far, and the window's kept moves in `(a, b)` order.
#[derive(Debug)]
struct Handoff {
    summary: WindowSummary,
    nodes: u32,
    moves: Vec<Move>,
}

/// The raw conflict graph's pair count and weight, summed over the
/// windows flushed so far: a pair counts once, in the window that first
/// credited it (its cumulative weight is its window weight there), and
/// every window adds its weight.
#[derive(Debug, Clone, Copy, Default)]
struct RawTotals {
    pairs: usize,
    weight: u64,
}

/// Signature-gated incremental re-coloring of the cumulative kept graph,
/// and the windows it has colored.
#[derive(Debug)]
struct Colorer {
    table_size: usize,
    options: ColoringOptions,
    obs: Obs,
    assignment: Vec<u32>,
    /// The cumulative pruned graph, every pair at or above the threshold
    /// at its latest weight, updated in place by each recolor. After the
    /// last window it is the run's conflict graph.
    kept: ConflictGraph,
    kept_weight: u64,
    /// `(nodes, kept edges, kept weight)` of the last colored graph.
    /// Cumulative edge weights grow monotonically, so an unchanged
    /// signature proves the pruned graph is identical — the skip is
    /// exact.
    signature: Option<(u32, usize, u64)>,
    recolors: u64,
    /// Every window colored so far, in order.
    windows: Vec<WindowSummary>,
}

impl Colorer {
    fn new(table_size: usize, pipeline: &AnalysisPipeline, obs: Obs) -> Self {
        Colorer {
            table_size,
            options: pipeline.allocation.coloring,
            obs,
            assignment: Vec::new(),
            kept: ConflictGraph::from_sorted_edges(0, std::iter::empty()),
            kept_weight: 0,
            signature: None,
            recolors: 0,
            windows: Vec::new(),
        }
    }

    /// Colors one flushed window and records its summary; returns the
    /// window's move list, emptied, for the walk to fill again.
    fn color(&mut self, handoff: Handoff) -> Vec<Move> {
        bwsa_resilience::failpoint!(crate::failpoints::RECOLOR);
        let Handoff {
            mut summary,
            nodes,
            mut moves,
        } = handoff;
        let recolor = {
            let _span = self.obs.span("recolor");
            self.recolor(nodes, &moves)
        };
        if recolor.recolored {
            self.obs.add("core.recolors", 1);
        }
        summary.cumulative_edges_kept = self.kept.edge_count();
        summary.recolor = recolor;
        self.windows.push(summary);
        moves.clear();
        moves
    }

    /// Applies `moves` to the kept graph over `nodes` branches and
    /// re-colors it, unless it is unchanged since the last coloring.
    fn recolor(&mut self, nodes: u32, moves: &[Move]) -> RecolorStats {
        // Each move raises the kept weight, so with any move the
        // signature has moved.
        let unchanged = Some((nodes, self.kept.edge_count(), self.kept_weight));
        if moves.is_empty() && self.signature == unchanged {
            return RecolorStats {
                recolored: false,
                stability: 1.0,
            };
        }
        {
            let _span = self.obs.span("recolor_build");
            let (added, inserted) = self.kept.update_sorted_edges(nodes, moves);
            self.kept_weight += added;
            self.obs.add("core.recolor_moves", moves.len() as u64);
            self.obs.add("core.recolor_new_pairs", inserted as u64);
        }
        let _span = self.obs.span("recolor_color");
        let next = assign_colors(&self.kept, self.table_size, &self.options);
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
        self.signature = Some((nodes, self.kept.edge_count(), self.kept_weight));
        self.recolors += 1;
        RecolorStats {
            recolored: true,
            stability,
        }
    }
}

/// Who colors a flushed window.
#[derive(Debug)]
enum Colorist {
    /// The colorer itself, run after each flush on the walk's thread.
    Inline(Colorer),
    /// A bounded channel to the colorer on a helper thread, and the
    /// emptied move lists it hands back.
    Helper {
        windows: SyncSender<Handoff>,
        spares: Receiver<Vec<Move>>,
    },
}

/// The unwind a walk takes when its colorer's thread has unwound, so the
/// run stops and reports the colorer's own fault.
struct ColorerGone;

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
    /// `local[id]`: branch `id`'s node in the window graph a flush builds,
    /// [`UNTOUCHED`] for every branch outside a flush.
    local: Vec<u32>,
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
    /// Windows flushed so far.
    flushed: usize,
    /// The kept-pair threshold. A zero threshold keeps the same pairs as
    /// 1: every counted pair has a credit.
    threshold: u64,
    /// The list the next flush fills with its kept moves.
    moves: Vec<Move>,
    /// The raw pairs and weight of the windows flushed so far.
    raw: RawTotals,
    colorist: Colorist,
}

impl WindowedAnalysis {
    /// An engine with no records pushed yet. It colors each window
    /// inline, as the window flushes.
    pub fn new(config: WindowConfig, pipeline: AnalysisPipeline) -> Self {
        let colorer = Colorer::new(config.table_size, &pipeline, Obs::noop());
        Self::with_colorist(config, pipeline, Colorist::Inline(colorer))
    }

    fn with_colorist(config: WindowConfig, pipeline: AnalysisPipeline, colorist: Colorist) -> Self {
        let mut acc = Accumulator::new(0);
        acc.detector.track_windows();
        WindowedAnalysis {
            config,
            threshold: pipeline.conflict.threshold.max(1),
            pipeline,
            obs: Obs::noop(),
            acc,
            stats: Vec::new(),
            local: Vec::new(),
            executed: Vec::new(),
            records: 0,
            first_time: 0,
            last_time: 0,
            window_end: None,
            prev_executed: None,
            flushed: 0,
            moves: Vec::new(),
            raw: RawTotals::default(),
            colorist,
        }
    }

    /// Attaches an observer for per-window counters and stage timings.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        if let Colorist::Inline(colorer) = &mut self.colorist {
            colorer.obs = obs.clone();
        }
        self.obs = obs;
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Every window flushed so far. The engines [`WindowedAnalysis::new`]
    /// makes color each window as it flushes, so this is current after
    /// every push.
    pub fn windows(&self) -> &[WindowSummary] {
        match &self.colorist {
            Colorist::Inline(colorer) => &colorer.windows,
            Colorist::Helper { .. } => &[],
        }
    }

    /// The current incremental BHT assignment (over the cumulative
    /// thresholded graph as of the last flushed window).
    pub fn assignment(&self) -> &[u32] {
        match &self.colorist {
            Colorist::Inline(colorer) => &colorer.assignment,
            Colorist::Helper { .. } => &[],
        }
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

    /// Flushes the open window (no-op when it holds no records) and hands
    /// it to the colorer.
    fn flush(&mut self) {
        if self.records == 0 {
            return;
        }
        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_FLUSH);
        let _span = self.obs.span("window_flush");
        let nodes = self.acc.stats.len() as u32;
        let threshold = self.threshold;

        bwsa_resilience::failpoint!(crate::failpoints::WINDOW_MERGE);
        let mut executed = std::mem::take(&mut self.executed);
        executed.sort_unstable();
        let mut interleave_pairs = 0;
        let mut interleave_weight = 0;
        let mut moves = std::mem::take(&mut self.moves);
        let (window_sets, rows_touched) = {
            let _span = self.obs.span("window_diff");
            let mut kept = Vec::new();
            let raw = &mut self.raw;
            let rows_touched = self.acc.detector.flush_window(|a, b, w, after| {
                interleave_pairs += 1;
                interleave_weight += w;
                // First credited in this window: nothing came before it.
                raw.pairs += usize::from(w == after);
                if w >= threshold {
                    kept.push((a, b, w));
                }
                if after >= threshold {
                    moves.push((a, b, after));
                }
            });
            raw.weight += interleave_weight;
            (self.window_sets(nodes, &executed, &kept), rows_touched)
        };

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

        let records = std::mem::take(&mut self.records);
        self.obs.add("core.windows_flushed", 1);
        self.obs.add("core.window_records", records);
        self.obs
            .add("core.window_rows_touched", rows_touched as u64);
        if phase_change {
            self.obs.add("core.phase_changes", 1);
        }

        let summary = WindowSummary {
            index: self.flushed,
            records,
            first_time: self.first_time,
            last_time: self.last_time,
            new_branches,
            executed_branches: executed.len(),
            interleave_pairs,
            interleave_weight,
            // The colorer's to fill in.
            cumulative_edges_kept: 0,
            working_sets: window_sets,
            jaccard,
            phase_change,
            recolor: RecolorStats {
                recolored: false,
                stability: 1.0,
            },
        };
        self.flushed += 1;
        self.prev_executed = Some(executed);
        self.hand_off(Handoff {
            summary,
            nodes,
            moves,
        });
    }

    /// The working-set report of the open window's own pruned graph:
    /// `kept`, its pairs whose window weight reaches the threshold, in
    /// `(a, b)` order, over the `nodes` branches seen so far. Only the ids
    /// the window touched are built: `executed` and the endpoints of
    /// `kept`, since a pair also credits a branch that ran only in an
    /// earlier window. They are relabeled in increasing order through
    /// `local`, one lookup per endpoint, so the partition's tie-breaks and
    /// the dynamic size's sum come out as over every node. Every other
    /// branch seen is an isolated node with no
    /// execution in the window, a singleton set the report counts by
    /// arithmetic. (A capped maximal-clique enumeration that stops early
    /// may stop at other cliques, since those singletons no longer take
    /// part in it.)
    fn window_sets(&mut self, nodes: u32, executed: &[u32], kept: &[Move]) -> WorkingSetReport {
        let local = &mut self.local;
        local.resize(nodes as usize, UNTOUCHED);
        let mut touched = Vec::with_capacity(executed.len());
        let endpoints = kept.iter().flat_map(|&(a, b, _)| [a, b]);
        for id in executed.iter().copied().chain(endpoints) {
            if local[id as usize] == UNTOUCHED {
                local[id as usize] = 0;
                touched.push(id);
            }
        }
        touched.sort_unstable();
        for (node, &id) in touched.iter().enumerate() {
            local[id as usize] = node as u32;
        }
        let map = &*local;
        let edges = kept
            .iter()
            .map(|&(a, b, w)| (map[a as usize], map[b as usize], w));
        let graph = ConflictGraph::from_sorted_edges(touched.len() as u32, edges);
        for &id in &touched {
            local[id as usize] = UNTOUCHED;
        }
        let stats = touched.iter().map(|&id| self.stats[id as usize]).collect();
        let profile = BranchProfile::from_parts(stats, self.records);
        let sets = working_sets(&graph, &profile, self.pipeline.definition);
        let mut report = sets.report;
        let untouched = nodes as usize - touched.len();
        if untouched > 0 {
            let size_sum: usize = sets.sets.iter().map(Vec::len).sum();
            report.total_sets += untouched;
            report.avg_static_size = (size_sum + untouched) as f64 / report.total_sets as f64;
            report.max_size = report.max_size.max(1);
        }
        report
    }

    /// Has the colorer color `handoff`, and takes back a move list to
    /// fill next: the window's own when inline, else an emptied one the
    /// helper returned, if any is waiting.
    fn hand_off(&mut self, handoff: Handoff) {
        self.moves = match &mut self.colorist {
            Colorist::Inline(colorer) => colorer.color(handoff),
            Colorist::Helper { windows, spares } => {
                let _span = self.obs.span("window_handoff");
                if windows.send(handoff).is_err() {
                    // The colorer's thread unwound: stop, and let its
                    // fault surface where it is joined.
                    panic::resume_unwind(Box::new(ColorerGone));
                }
                spares.try_recv().unwrap_or_default()
            }
        };
    }

    /// Flushes the trailing partial window and folds everything into the
    /// whole-trace [`Analysis`]: the colorer's kept graph is its conflict
    /// graph, and the engines' shared tail runs over it, so it is
    /// bit-identical to a from-scratch run over the same records (pinned
    /// by `crates/core/tests/windowed_equiv.rs`).
    pub fn finish(mut self) -> WindowedResult {
        self.flush();
        let WindowedAnalysis {
            config,
            pipeline,
            obs,
            acc,
            raw,
            colorist,
            ..
        } = self;
        let Colorist::Inline(colorer) = colorist else {
            unreachable!(
                "only `run` makes engines that color on a helper, and it folds them itself"
            )
        };
        fold(config, &pipeline, &obs, acc, raw, colorer)
    }
}

/// A finished run: the colorer's windows and assignment, and the
/// whole-trace analysis. Its conflict graph is the colorer's kept graph,
/// its raw pair count and weight are the windows' totals, and the
/// detector is dropped before the engines' shared tail runs over them; no
/// detector row is read again.
fn fold(
    config: WindowConfig,
    pipeline: &AnalysisPipeline,
    obs: &Obs,
    acc: Accumulator,
    raw: RawTotals,
    colorer: Colorer,
) -> WindowedResult {
    let Colorer {
        windows,
        assignment,
        recolors,
        kept,
        ..
    } = colorer;
    let phase_changes = windows.iter().filter(|w| w.phase_change).count() as u64;
    let mean_stability = if windows.is_empty() {
        1.0
    } else {
        windows.iter().map(|w| w.recolor.stability).sum::<f64>() / windows.len() as f64
    };
    let Accumulator {
        detector,
        stats,
        records,
    } = acc;
    detector.observe(obs);
    drop(detector);
    let profile = BranchProfile::from_parts(stats, records);
    let analysis = pipeline.conclude(profile, obs, || ConflictAnalysis {
        graph: kept,
        raw_edge_count: raw.pairs,
        raw_total_weight: raw.weight,
        config: pipeline.conflict,
    });
    WindowedResult {
        config,
        windows,
        analysis,
        assignment,
        recolors,
        mean_stability,
        phase_changes,
        records,
    }
}

/// Runs a windowed analysis over the records `feed` pushes into the
/// engine, and returns its result with what `feed` returned. With
/// `helper`, the colorer runs on one scoped helper thread, started
/// through [`bwsa_resilience::spawn_scoped`] under the caller's
/// failpoints and deadline, and colors each window while the walk
/// detects the next; otherwise it runs inline. Both give the same result.
///
/// A fault on the helper unwinds here with its payload. A fault the walk
/// meets first wins, as a serial run would report it.
pub(crate) fn run<R>(
    config: WindowConfig,
    pipeline: AnalysisPipeline,
    obs: &Obs,
    helper: bool,
    feed: impl FnOnce(&mut WindowedAnalysis) -> Result<R, Error>,
) -> Result<(WindowedResult, R), Error> {
    if !helper {
        let mut engine = WindowedAnalysis::new(config, pipeline).with_observer(obs.clone());
        let fed = feed(&mut engine)?;
        return Ok((engine.finish(), fed));
    }
    let colorer = Colorer::new(config.table_size, &pipeline, obs.clone());
    std::thread::scope(|scope| {
        let (windows, handoffs) = mpsc::sync_channel(HANDOFF_DEPTH);
        let (spare, spares) = mpsc::channel();
        let helper = bwsa_resilience::spawn_scoped(scope, move || {
            let mut colorer = colorer;
            for handoff in handoffs {
                // A walk that has stopped takes no more lists back.
                let _ = spare.send(colorer.color(handoff));
            }
            colorer
        });
        let walked = panic::catch_unwind(AssertUnwindSafe(|| {
            let colorist = Colorist::Helper { windows, spares };
            let engine = WindowedAnalysis::with_colorist(config, pipeline, colorist);
            let mut engine = engine.with_observer(obs.clone());
            let fed = feed(&mut engine)?;
            engine.flush();
            let WindowedAnalysis { acc, raw, .. } = engine;
            Ok((acc, raw, fed))
        }));
        // The channel closed with the engine, so the helper has colored
        // every window handed over, or unwound.
        let colored = helper.join();
        match (walked, colored) {
            (Ok(Ok((acc, raw, fed))), Ok(colorer)) => {
                Ok((fold(config, &pipeline, obs, acc, raw, colorer), fed))
            }
            (Ok(Err(e)), _) => Err(e),
            (Err(gone), Err(fault)) if gone.is::<ColorerGone>() => panic::resume_unwind(fault),
            (Err(fault), _) | (Ok(Ok(_)), Err(fault)) => panic::resume_unwind(fault),
        }
    })
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
    use crate::interleave::Detector;
    use crate::Session;
    use bwsa_graph::coloring::color_graph;
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

    /// Pushes `records` through a detector folding at each of a few
    /// re-executions, flushing a window at each of `ends`: every window's
    /// pairs must be the naive oracle's weights up to its end minus those
    /// up to its start, and each cumulative weight the oracle's up to its
    /// end. Returns, per fold point, the rows that folded while holding a
    /// page.
    fn check_folded_windows(records: &[(u64, u64)], ends: &[usize], case: &str) -> Vec<usize> {
        let trace = {
            let mut b = TraceBuilder::new("fold");
            for &(pc, t) in records {
                b.record(pc, true, t);
            }
            b.finish()
        };
        let ids: Vec<u32> = trace.indexed_records().map(|(id, _)| id.as_u32()).collect();
        let prefixes: Vec<_> = ends
            .iter()
            .map(|&end| naive_weights(&records[..end]))
            .collect();
        let mut paged = Vec::new();
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
                assert_eq!(got, want, "{case}, fold_at {fold_at}, window at {start}");
                start = end;
            }
            paged.push(detector.paged_rows_folded());
        }
        paged
    }

    /// Seeded `(pc, stamp)` records over `spread` hot pcs, several per
    /// stamp now and then.
    fn hot_records(seed: u64, n: u64, pc: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        let mut lcg = seed;
        (0..n)
            .map(|i| {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (pc(lcg >> 40), i + 1 + i / 7)
            })
            .collect()
    }

    /// Ends of `window`-record windows from `first` to past `len`.
    fn window_ends(first: usize, window: usize, len: usize) -> Vec<usize> {
        (first + window..len).step_by(window).chain([len]).collect()
    }

    #[test]
    fn folded_rows_keep_every_window_exact() {
        // A fold point of a few re-executions folds rows mid-window, after
        // the window copied them.
        let records = hot_records(11, 900, |r| 0x4000 + r % 19 * 4);
        for window in [3, 40, 300] {
            let ends = window_ends(0, window, records.len());
            check_folded_windows(&records, &ends, &format!("window {window}"));
        }
    }

    #[test]
    fn folded_rows_with_pages_keep_every_window_exact() {
        // 4360 branches run once, then hot ones inside the rows' heads,
        // which end at 4096, and on both sides of the page boundary at
        // 4352: rows hold pages, and a row past the heads holds nothing
        // else, when it folds inside an open window.
        let (head, page) = (crate::interleave::HEAD_NODES, crate::interleave::PAGE);
        let cold = (head + page + 8) as u64;
        let pc = |id: u64| 0x10_0000 + id * 4;
        let hot = |r: u64| match r % 4 {
            0 => pc(r % 5),
            1 | 2 => pc(head as u64 + r % 5),
            _ => pc((head + page) as u64 + r % 5),
        };
        let mut records: Vec<(u64, u64)> = (0..cold).map(|id| (pc(id), id + 1)).collect();
        let stamps = hot_records(13, 500, hot).into_iter();
        records.extend(stamps.map(|(pc, t)| (pc, cold + t)));
        for window in [40, 300] {
            // The once-run prefix as one window, then the hot records.
            let ends = window_ends(cold as usize - window, window, records.len());
            let paged = check_folded_windows(&records, &ends, &format!("window {window}"));
            assert!(
                paged.iter().all(|&rows| rows > 0),
                "window {window}: {paged:?}"
            );
        }
    }

    #[test]
    fn moves_keep_the_kept_graph_at_the_latest_weights() {
        let obs = Obs::recording();
        let mut colorer = Colorer::new(8, &AnalysisPipeline::default(), obs.clone());
        let mut reference = std::collections::BTreeMap::new();
        let mut lcg: u64 = 3;
        for window in 0..60u64 {
            // Every 11th window brings a new branch and no move.
            let nodes = 14 + window as u32 / 11;
            // Pairs below, between and above the kept ones, some kept
            // already, each at a weight above its last.
            let mut moves = std::collections::BTreeMap::new();
            for _ in 0..window % 11 * 2 {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (a, b) = ((lcg >> 40) as u32 % nodes, (lcg >> 20) as u32 % nodes);
                if a < b {
                    let last = reference.get(&(a, b)).copied().unwrap_or(99);
                    moves.insert((a, b), last + 1 + lcg % 5);
                }
            }
            let list: Vec<Move> = moves.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
            let recolor = colorer.recolor(nodes, &list);
            assert!(recolor.recolored || list.is_empty(), "window {window}");
            reference.extend(moves);
            let kept = reference.iter().map(|(&(a, b), &w)| (a, b, w));
            let want = ConflictGraph::from_sorted_edges(nodes, kept);
            assert_eq!(colorer.kept, want, "window {window}");
            assert_eq!(colorer.kept_weight, reference.values().sum::<u64>());
        }
        let metrics = obs.snapshot().unwrap();
        let new_pairs = metrics.counter("core.recolor_new_pairs");
        assert_eq!(new_pairs, reference.len() as u64);
        assert!(metrics.counter("core.recolor_moves") > new_pairs);
    }

    #[test]
    fn jaccard_similarity_is_exact_on_small_sets() {
        assert_eq!(jaccard_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
    }
}
