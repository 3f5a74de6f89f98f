//! Step 1 of the analysis: detecting branch execution interleaving from
//! instruction-count timestamps (§4.1).
//!
//! Each static branch remembers the timestamp of its previous dynamic
//! instance. When it executes again, every branch whose *latest* execution
//! timestamp exceeds that previous timestamp has interleaved with it since
//! then, and each such pair's interleave counter is incremented once — the
//! paper's Figure 1 procedure, verbatim.
//!
//! One kernel, `Detector`, runs the procedure for every engine. The
//! serial pipeline and the ownership-parallel workers of
//! [`crate::parallel`] drive it directly; every engine fed record blocks
//! (serial BWSS2 and BWSS3 streaming and the windowed engine) goes
//! through `Accumulator`, which pairs it with the per-branch execution
//! statistics of the same records. The detector finds the branches to
//! credit with a recency index of `(latest timestamp, branch)` pairs
//! (`RecencyRing`): a scan from just past the branch's own entry, `O(k)`
//! per dynamic branch where `k` is the instantaneous working-set size,
//! the very quantity the paper shows stays small. A superseded entry
//! reads as `TOMB`, an id past the end of every row, so a credit is one
//! id load and one increment.
//!
//! The credits of one re-execution of branch `a` all land in `a`'s own
//! dense row of `u32` counters, so the ~300 increments a record costs on
//! a gcc-shaped trace stay within one row of at most 16 KiB instead of
//! probing a hash table that has outgrown the cache. Rows cover ids below
//! `DENSE_NODES` (4096); pairs with an endpoint above it and folded rows
//! live in a [`GraphBuilder`], the spill table. Every engine compiles the
//! thresholded conflict graph in one walk over rows and spill in
//! increasing pair order: each pair adds to the raw pair count and
//! weight, and only a pair whose whole weight reaches the threshold
//! enters the CSR, so no raw graph is built. A parallel run first moves
//! its workers' rows, which credit disjoint branches, into one detector.
//! A windowed run keeps one detector for the whole trace and reads each
//! window out of it: a row is copied at its first credit in the window,
//! and the flush walks the touched rows' differences from those copies.
//! [`interleave_counts_naive`] is an independent linear-scan oracle used
//! by the tests.

use crate::conflict::{ConflictAnalysis, ConflictConfig};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::recency::{RecencyRing, TOMB};
use bwsa_graph::{ConflictGraph, GraphBuilder};
use bwsa_obs::Obs;
use bwsa_trace::profile::{BranchProfile, BranchStats};
use bwsa_trace::Trace;
use std::cmp::Ordering;
use std::iter::Peekable;

/// Node ids below this get a dense counter row; a pair with an endpoint
/// at or above it is counted in the spill table. At 4096 a full row is
/// 16 KiB, and 88.7% of gcc@1's increments (5762 static branches) fall
/// below it; benchmark-sized traces fall below it entirely.
pub(crate) const DENSE_NODES: usize = 4096;

/// Rows grow in steps of this many counters, so a row whose branch keeps
/// re-executing while new branches appear is copied at most
/// `DENSE_NODES / ROW_STEP` times.
const ROW_STEP: usize = 128;

/// Computes pairwise interleave counts for every branch pair in the trace.
///
/// The returned [`GraphBuilder`] has one node per static branch (node id =
/// [`bwsa_trace::BranchId`] index) and one weighted edge per interleaving
/// pair; feed it to [`bwsa_graph::GraphBuilder::build`] and threshold with
/// [`bwsa_graph::ConflictGraph::pruned`], or use
/// [`crate::conflict::ConflictAnalysis`] which does both.
///
/// Ties: two branches stamped with the *same* timestamp are treated as
/// simultaneous, not interleaved (the paper requires a strictly greater
/// stamp).
///
/// # Example
///
/// ```
/// use bwsa_core::interleave_counts;
/// use bwsa_trace::TraceBuilder;
///
/// // Figure 1: A(5) B(10) C(15) A(20) → A/B and A/C interleave once.
/// let mut t = TraceBuilder::new("fig1");
/// t.record(0xa, true, 5).record(0xb, true, 10).record(0xc, true, 15).record(0xa, true, 20);
/// let g = interleave_counts(&t.finish()).build();
/// assert_eq!(g.edge_weight(0, 1), Some(1)); // A–B
/// assert_eq!(g.edge_weight(0, 2), Some(1)); // A–C
/// assert_eq!(g.edge_weight(1, 2), None);    // B and C never re-executed
/// ```
pub fn interleave_counts(trace: &Trace) -> GraphBuilder {
    let detector = detect(trace);
    let spill = detector.sorted_spill();
    let edges = detector.sorted_edges(&spill);
    let mut builder =
        GraphBuilder::with_capacity(detector.spill.node_count(), edges.clone().count());
    for (a, b, w) in edges {
        builder.add_edge(a, b, w);
    }
    builder
}

/// The [`Detector`] after every record of `trace`; `compile` on it is the
/// thresholded conflict analysis.
pub(crate) fn detect(trace: &Trace) -> Detector {
    let mut detector = Detector::new(trace.static_branch_count());
    for (id, rec) in trace.indexed_records() {
        detector.push(id.as_u32(), rec.time.get());
    }
    detector
}

/// One dense row: `counts[b]` is how many of this branch's re-executions
/// saw `b` since the row was last folded.
#[derive(Debug, Clone, Default)]
struct Row {
    counts: Vec<u32>,
    /// Re-executions counted into `counts`, which bounds every counter.
    reexecs: u32,
    /// The row's entry in [`Window::copies`], valid while `epoch` is the
    /// open window's.
    copy: u32,
    /// The window epoch of the row's last copy; 0 for never copied.
    epoch: u64,
}

/// A row's counts as they stood at its first credit in the open window:
/// `Window::counts[start..start + len]`. A copy shorter than its row
/// reads as zeros past its end, so an empty copy stands for a row's
/// whole count.
#[derive(Debug, Clone)]
struct RowCopy {
    row: u32,
    start: usize,
    len: usize,
}

/// What a windowed run needs to read one window out of the detector.
#[derive(Debug, Clone, Default)]
struct Window {
    /// The open window's epoch; 0 while no window is tracked, which is
    /// every engine but the windowed one.
    epoch: u64,
    /// One copy per row the open window credited, in first-credit order.
    copies: Vec<RowCopy>,
    /// The copied counts, back to back.
    counts: Vec<u32>,
    /// The open window's credits to pairs outside the dense rows, plus
    /// the window's part of any row folded during it.
    spill: GraphBuilder,
}

impl Window {
    /// Copies `row` (branch `id`) unless the open window already did. With
    /// no window tracked, the epoch is 0, every uncopied row's: no copy.
    #[inline]
    fn copy(&mut self, id: u32, row: &mut Row) {
        if row.epoch == self.epoch {
            return;
        }
        row.epoch = self.epoch;
        row.copy = self.copies.len() as u32;
        self.copies.push(RowCopy {
            row: id,
            start: self.counts.len(),
            len: row.counts.len(),
        });
        self.counts.extend_from_slice(&row.counts);
    }

    /// Starts the next window over `nodes` branches.
    fn open(&mut self, nodes: u32) {
        self.epoch += 1;
        self.copies.clear();
        self.counts.clear();
        self.spill = GraphBuilder::new(nodes);
    }
}

/// The Figure 1 detection kernel over pre-interned `(branch, stamp)`
/// pairs. See the module docs for the row and spill representation.
///
/// The weight of edge `{a, b}` is `row[a][b] + row[b][a]` plus its spill
/// entry. A row is allocated at its branch's first re-execution that has
/// a credit to give, sized to the branch count seen so far (rounded up to
/// [`ROW_STEP`], capped at [`DENSE_NODES`]), and grows as later
/// re-executions see newer branches.
#[derive(Debug, Clone)]
pub(crate) struct Detector {
    /// One live (latest stamp, branch) entry per executed branch: the
    /// only per-branch stamp state.
    recency: RecencyRing,
    /// Dense rows, indexed by branch id below [`DENSE_NODES`].
    rows: Vec<Row>,
    /// Ids of the rows allocated so far, in allocation order: the only
    /// rows a fold or an edge walk reads.
    allocated: Vec<u32>,
    /// Pairs with an endpoint at or above [`DENSE_NODES`], and folded
    /// rows. Its node count is the detector's.
    spill: GraphBuilder,
    /// Re-executions at which a row folds into `spill`, before any of its
    /// `u32` counters can overflow. Only unit tests lower it.
    fold_at: u32,
    /// The open window's row copies and spill credits, when tracked.
    window: Window,
}

impl Detector {
    /// An empty detector over `nodes` branches.
    pub(crate) fn new(nodes: usize) -> Self {
        Detector {
            recency: RecencyRing::default(),
            rows: Vec::new(),
            allocated: Vec::new(),
            spill: GraphBuilder::new(nodes as u32),
            fold_at: u32::MAX,
            window: Window::default(),
        }
    }

    /// Starts reading windows out of this detector: from here on each
    /// row is copied at its first credit in a window, and spill credits
    /// are also counted per window. Every other engine leaves this off.
    pub(crate) fn track_windows(&mut self) {
        self.window.open(self.spill.node_count());
    }

    /// Calls `f(a, b, window weight, cumulative weight)` once per pair the
    /// open window credited, with `a < b`, in increasing `(a, b)` order,
    /// then opens the next window. Only the touched rows' differences
    /// from their copies and the window's spill credits are read. Returns
    /// how many rows the window touched.
    pub(crate) fn flush_window(&mut self, mut f: impl FnMut(u32, u32, u64, u64)) -> usize {
        debug_assert!(self.window.epoch != 0, "windows are not tracked");
        self.window.copies.sort_unstable_by_key(|copy| copy.row);
        let mut spill: Vec<_> = self.window.spill.edges().collect();
        spill.sort_unstable();
        let width = (self.spill.node_count() as usize).min(DENSE_NODES);
        let pairs = MergeSorted {
            left: RowPairs::new(&self.rows, &self.window.copies, &self.window.counts, width)
                .peekable(),
            right: spill.into_iter().peekable(),
        };
        for (a, b, w) in pairs {
            f(a, b, w, self.pair_weight(a, b));
        }
        let touched = self.window.copies.len();
        self.window.open(self.spill.node_count());
        touched
    }

    /// The weight pair `{a, b}` has accumulated so far, `a < b`.
    pub(crate) fn pair_weight(&self, a: u32, b: u32) -> u64 {
        u64::from(row_count(&self.rows, a as usize, b as usize))
            + u64::from(row_count(&self.rows, b as usize, a as usize))
            + self.spill.edge_weight(a, b).unwrap_or(0)
    }

    /// Consumes one record: when `node` re-executes, every branch whose
    /// latest stamp is strictly greater than `node`'s previous stamp
    /// interleaved with it since then and gets one credit.
    #[inline]
    pub(crate) fn push(&mut self, node: u32, t: u64) {
        self.credit(node);
        self.pass(node, t);
    }

    /// Consumes one record without crediting it: only `node`'s latest
    /// stamp moves. A parallel worker passes the records of branches
    /// another worker owns, so the branches it owns still see them.
    #[inline]
    pub(crate) fn pass(&mut self, node: u32, t: u64) {
        debug_assert_ne!(node, TOMB, "branch id {node} is the recency tombstone");
        if node >= self.spill.node_count() {
            self.spill.ensure_nodes(node + 1);
            self.window.spill.ensure_nodes(node + 1);
        }
        self.recency.record(node, t);
    }

    /// Moves `other`'s rows and spill credits into this detector. Both
    /// walked the same records and credited disjoint sets of branches, as
    /// the workers of a parallel run do, so each of `other`'s rows moves
    /// whole into an empty slot and the spill entries of a pair whose two
    /// branches have different owners add.
    pub(crate) fn absorb(&mut self, mut other: Detector) {
        self.spill.merge(&other.spill);
        for a in other.allocated {
            let i = a as usize;
            if i >= self.rows.len() {
                self.rows.resize_with(i + 1, Row::default);
            }
            debug_assert!(self.rows[i].counts.is_empty(), "row {a} has two owners");
            self.rows[i] = std::mem::take(&mut other.rows[i]);
            self.allocated.push(a);
        }
    }

    /// Every credit this detector has given: its rows' counts and its
    /// spill weights.
    pub(crate) fn credits(&self) -> u64 {
        let rows = self
            .allocated
            .iter()
            .map(|&a| &self.rows[a as usize].counts);
        let dense: u64 = rows.flatten().map(|&count| u64::from(count)).sum();
        dense + self.spill.edges().map(|(_, _, w)| w).sum::<u64>()
    }

    /// Credits `node`'s re-execution to every branch executed since its
    /// previous instance.
    #[inline]
    fn credit(&mut self, node: u32) {
        let Detector {
            recency,
            rows,
            allocated,
            spill,
            fold_at,
            window,
        } = self;
        let since = recency.since_last(node);
        if since.is_empty() {
            return; // first run, or nothing ran since: no credits, no row
        }
        let tracked = window.epoch != 0;
        let i = node as usize;
        let counts: &mut [u32] = if i < DENSE_NODES {
            if i >= rows.len() {
                rows.resize_with(i + 1, Row::default);
            }
            let row = &mut rows[i];
            window.copy(node, row); // as the open window, if any, found it
            if row.reexecs == *fold_at {
                fold_row(spill, node, row, window);
            }
            let width = (spill.node_count() as usize).min(DENSE_NODES);
            if row.counts.len() < width {
                if row.counts.is_empty() {
                    allocated.push(node);
                }
                let len = width.next_multiple_of(ROW_STEP).min(DENSE_NODES);
                row.counts.reserve_exact(len - row.counts.len());
                row.counts.resize(len, 0);
            }
            row.reexecs += 1;
            &mut row.counts
        } else {
            &mut [] // no row above the cap: every pair spills
        };
        let mut local = tracked.then_some(&mut window.spill);
        increment(counts, since, |b| {
            spill.add_edge(node, b, 1);
            if let Some(local) = &mut local {
                local.add_edge(node, b, 1);
            }
        });
    }

    /// The thresholded conflict analysis, compiled in one walk over rows
    /// and spill: every pair [`Detector::sorted_edges`] yields adds to the
    /// raw pair count and weight, and only a pair whose whole weight
    /// (both rows plus the spill entry) reaches `config.threshold` is kept
    /// for the CSR. No raw graph is built.
    pub(crate) fn compile(self, config: ConflictConfig) -> ConflictAnalysis {
        let Detector {
            rows,
            allocated,
            spill: table,
            ..
        } = self;
        let nodes = table.node_count();
        let mut spill = Vec::with_capacity(table.edge_count());
        spill.extend(table.edges());
        drop(table); // before the sort and the kept pairs
        spill.sort_unstable();
        let (mut raw_edge_count, mut raw_total_weight) = (0, 0);
        let mut kept = Vec::new();
        for (a, b, w) in sorted_edges(&rows, &allocated, nodes, &spill) {
            raw_edge_count += 1;
            raw_total_weight += w;
            if w >= config.threshold {
                kept.push((a, b, w));
            }
        }
        drop((rows, spill)); // before the CSR arrays are allocated
        ConflictAnalysis {
            graph: ConflictGraph::from_sorted_edges(nodes, kept.iter().copied()),
            raw_edge_count,
            raw_total_weight,
            config,
        }
    }

    /// The spill table's edges in increasing `(a, b)` order, for
    /// [`Detector::sorted_edges`], in a `Vec` sized exactly (not doubled).
    pub(crate) fn sorted_spill(&self) -> Vec<(u32, u32, u64)> {
        let mut edges = Vec::with_capacity(self.spill.edge_count());
        edges.extend(self.spill.edges());
        edges.sort_unstable();
        edges
    }

    /// Every accumulated edge `(a, b, weight)`, `a < b`, in increasing
    /// `(a, b)` order, given [`Detector::sorted_spill`]'s result.
    pub(crate) fn sorted_edges<'a>(
        &'a self,
        spill: &'a [(u32, u32, u64)],
    ) -> impl Iterator<Item = (u32, u32, u64)> + Clone + 'a {
        sorted_edges(&self.rows, &self.allocated, self.spill.node_count(), spill)
    }

    /// Lowers the fold point so tests can drive rows through it.
    #[cfg(test)]
    pub(crate) fn with_fold_at(mut self, reexecs: u32) -> Self {
        self.fold_at = reexecs;
        self
    }
}

/// Credits one re-execution: `counts[b] += 1` for every `b` in `since`.
/// A tombstone falls out of the row's bounds check and is skipped there,
/// and any other id past the row's end is a pair for `spill`. Four ids
/// inside the row, the common case, take one branch for all four.
#[inline]
fn increment(counts: &mut [u32], since: &[u32], mut spill: impl FnMut(u32)) {
    let mut one = |counts: &mut [u32], b: u32| match counts.get_mut(b as usize) {
        Some(count) => *count += 1,
        None if b == TOMB => {}
        None => spill(b),
    };
    let mut quads = since.chunks_exact(4);
    for quad in &mut quads {
        if quad.iter().all(|&b| (b as usize) < counts.len()) {
            quad.iter().for_each(|&b| counts[b as usize] += 1);
        } else {
            quad.iter().for_each(|&b| one(counts, b));
        }
    }
    quads.remainder().iter().for_each(|&b| one(counts, b));
}

/// Moves a row's counts into the spill table and zeroes it. When the open
/// window copied the row, the window's part of each count (count minus
/// copy) moves into the window's spill and the copy is zeroed, so the
/// row's difference from its copy stays exactly the window's credits.
#[cold]
fn fold_row(spill: &mut GraphBuilder, a: u32, row: &mut Row, window: &mut Window) {
    let Window {
        epoch,
        copies,
        counts: copied,
        spill: local,
    } = window;
    let mut copy = (*epoch != 0 && row.epoch == *epoch).then(|| {
        let copy = &copies[row.copy as usize];
        &mut copied[copy.start..copy.start + copy.len]
    });
    for (b, count) in row.counts.iter_mut().enumerate() {
        if *count > 0 {
            spill.add_edge(a, b as u32, u64::from(*count));
            if let Some(copy) = &mut copy {
                let before = copy.get_mut(b).map_or(0, std::mem::take);
                if *count > before {
                    local.add_edge(a, b as u32, u64::from(*count - before));
                }
            }
            *count = 0;
        }
    }
    row.reexecs = 0;
}

/// `row[a][b]`, zero where that row or counter does not exist.
fn row_count(rows: &[Row], a: usize, b: usize) -> u32 {
    rows.get(a)
        .and_then(|row| row.counts.get(b))
        .copied()
        .unwrap_or(0)
}

/// The dense pairs over `nodes` branches merged with the sorted spill
/// edges, in increasing `(a, b)` order.
fn sorted_edges<'a>(
    rows: &'a [Row],
    allocated: &'a [u32],
    nodes: u32,
    spill: &'a [(u32, u32, u64)],
) -> impl Iterator<Item = (u32, u32, u64)> + Clone + 'a {
    let width = (nodes as usize).min(DENSE_NODES);
    // Every allocated row, each with an empty copy: whole counts.
    let mut listed: Vec<RowCopy> = allocated
        .iter()
        .map(|&row| RowCopy {
            row,
            start: 0,
            len: 0,
        })
        .collect();
    listed.sort_unstable_by_key(|copy| copy.row);
    MergeSorted {
        left: RowPairs::new(rows, listed, &[], width).peekable(),
        right: spill.iter().copied().peekable(),
    }
}

/// The dense pairs `(a, b, weight)` with `a < b < width` and a nonzero
/// weight, in increasing `(a, b)` order, read from the listed rows only.
/// A pair's weight is what rows `a` and `b` counted since their copies,
/// `row[a][b] − copy[a][b] + row[b][a] − copy[b][a]`, and an unlisted row
/// counts nothing. The whole-trace compile lists every allocated row with
/// an empty copy; a window flush lists the rows the window touched.
///
/// Row `a` is read in place; column `a` of the listed rows after it is
/// gathered once per `a`, and an `a` with neither a listed row nor a
/// column entry is skipped.
#[derive(Clone)]
struct RowPairs<'a, C> {
    rows: &'a [Row],
    /// The listed rows' copies, in increasing row order, all below
    /// `width`.
    copies: C,
    /// The counts the copies index.
    copied: &'a [u32],
    width: usize,
    a: usize,
    b: usize,
    /// The first copy of a row at or above `a`.
    next: usize,
    /// Row `a` and its copy, when row `a` is listed.
    own: Option<(&'a [u32], &'a [u32])>,
    /// `column[b]` = row `b`'s count of `a` since its copy, for every
    /// listed `b > a`; other entries are never read.
    column: Vec<u32>,
    /// Whether `column` holds a nonzero entry.
    column_live: bool,
    /// The next copy whose column entry an unlisted `a` reads.
    cursor: usize,
}

impl<'a, C: AsRef<[RowCopy]>> RowPairs<'a, C> {
    fn new(rows: &'a [Row], copies: C, copied: &'a [u32], width: usize) -> Self {
        let mut pairs = RowPairs {
            rows,
            copies,
            copied,
            width,
            a: 0,
            b: 1,
            next: 0,
            own: None,
            column: vec![0; width],
            column_live: false,
            cursor: 0,
        };
        pairs.gather();
        pairs
    }

    fn gather(&mut self) {
        let a = self.a;
        let copies = self.copies.as_ref();
        while copies.get(self.next).is_some_and(|c| (c.row as usize) < a) {
            self.next += 1;
        }
        let mut above = self.next;
        self.own = None;
        if copies.get(above).is_some_and(|c| c.row as usize == a) {
            self.own = Some(sides(self.rows, self.copied, &copies[above]));
            above += 1;
        }
        self.cursor = above;
        self.column_live = false;
        for copy in &copies[above..] {
            let (counts, copied) = sides(self.rows, self.copied, copy);
            let count = difference(counts, copied, a);
            self.column[copy.row as usize] = count;
            self.column_live |= count > 0;
        }
    }
}

/// Row `copy.row` and its copy.
fn sides<'a>(rows: &'a [Row], copied: &'a [u32], copy: &RowCopy) -> (&'a [u32], &'a [u32]) {
    (
        &rows[copy.row as usize].counts,
        &copied[copy.start..copy.start + copy.len],
    )
}

/// `counts[b] - copied[b]`, either side zero past its end.
#[inline]
fn difference(counts: &[u32], copied: &[u32], b: usize) -> u32 {
    counts.get(b).copied().unwrap_or(0) - copied.get(b).copied().unwrap_or(0)
}

impl<C: AsRef<[RowCopy]>> Iterator for RowPairs<'_, C> {
    type Item = (u32, u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.a < self.width {
            if let Some((counts, copied)) = self.own {
                while self.b < self.width {
                    let b = self.b;
                    self.b += 1;
                    let w = u64::from(difference(counts, copied, b)) + u64::from(self.column[b]);
                    if w > 0 {
                        return Some((self.a as u32, b as u32, w));
                    }
                }
            } else if self.column_live {
                // Only the listed rows after `a` can pair with it.
                while let Some(copy) = self.copies.as_ref().get(self.cursor) {
                    self.cursor += 1;
                    let w = self.column[copy.row as usize];
                    if w > 0 {
                        return Some((self.a as u32, copy.row, u64::from(w)));
                    }
                }
            }
            self.a += 1;
            self.b = self.a + 1;
            self.gather();
        }
        None
    }
}

/// Two `(a, b, weight)` streams, each increasing in `(a, b)`, merged into
/// one, summing the weights of a pair present in both.
#[derive(Clone)]
struct MergeSorted<L, R>
where
    L: Iterator<Item = (u32, u32, u64)>,
    R: Iterator<Item = (u32, u32, u64)>,
{
    left: Peekable<L>,
    right: Peekable<R>,
}

impl<L, R> Iterator for MergeSorted<L, R>
where
    L: Iterator<Item = (u32, u32, u64)>,
    R: Iterator<Item = (u32, u32, u64)>,
{
    type Item = (u32, u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let order = match (self.left.peek(), self.right.peek()) {
            (Some(&(a, b, _)), Some(&(c, d, _))) => (a, b).cmp(&(c, d)),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        match order {
            Ordering::Less => self.left.next(),
            Ordering::Greater => self.right.next(),
            Ordering::Equal => {
                let (a, b, w) = self.left.next()?;
                let (_, _, v) = self.right.next()?;
                Some((a, b, w + v))
            }
        }
    }
}

/// Reference implementation of [`interleave_counts`], independent of the
/// fast engine's recency index.
///
/// Maintains the latest stamp per branch in a plain `HashMap` (updated
/// incrementally — no per-record rebuild, so property tests can drive it
/// over large traces) and, on each re-execution, scans *every* known
/// branch rather than an ordered window. Its only shared assumption with
/// the fast engine is the paper's strictly-greater rule itself.
pub fn interleave_counts_naive(trace: &Trace) -> GraphBuilder {
    let mut builder = GraphBuilder::new(trace.static_branch_count() as u32);
    // Latest stamp per branch over the records consumed so far.
    let mut seen: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (id, rec) in trace.indexed_records() {
        let node = id.as_u32();
        if let Some(&prev_t) = seen.get(&node) {
            for (&b, &bt) in &seen {
                if b != node && bt > prev_t {
                    builder.add_edge(node, b, 1);
                }
            }
        }
        seen.insert(node, rec.time.get());
    }
    builder
}

/// The one record accumulator behind every engine that is fed a record
/// at a time: the [`Detector`] for the Figure 1 credits, the per-branch
/// [`BranchStats`] behind the §5.2 bias classes and Table 2's dynamic
/// sizes, and the record count. A serial session over a BWSS2 or BWSS3
/// file, the parallel workers and the windowed engine push pre-interned
/// `(id, stamp, taken)` records into it.
///
/// Every id pushed grows the accumulator to cover it, so an accumulator
/// started empty ends with exactly the branches it saw.
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    pub(crate) detector: Detector,
    pub(crate) stats: Vec<BranchStats>,
    pub(crate) records: u64,
}

impl Accumulator {
    /// An empty accumulator over `nodes` branches.
    pub(crate) fn new(nodes: usize) -> Self {
        Accumulator {
            detector: Detector::new(nodes),
            stats: vec![BranchStats::default(); nodes],
            records: 0,
        }
    }

    /// Consumes one record of branch `id` at `stamp`.
    #[inline]
    pub(crate) fn push(&mut self, id: u32, stamp: u64, taken: bool) {
        let i = id as usize;
        if i >= self.stats.len() {
            self.stats.resize(i + 1, BranchStats::default());
        }
        self.stats[i].record(stamp.into(), taken);
        self.records += 1;
        self.detector.push(id, stamp);
    }

    /// Consumes one record of branch `id` at `stamp` without crediting
    /// it or entering it in the statistics, only counting it: a parallel
    /// worker passes the records of the branches other workers own.
    #[inline]
    pub(crate) fn pass(&mut self, id: u32, stamp: u64) {
        let i = id as usize;
        if i >= self.stats.len() {
            self.stats.resize(i + 1, BranchStats::default());
        }
        self.records += 1;
        self.detector.pass(id, stamp);
    }

    /// The whole-trace [`Analysis`]: the observed assembly every engine
    /// shares, starting with the thresholded compile of the rows.
    pub(crate) fn into_analysis(self, pipeline: &AnalysisPipeline, obs: &Obs) -> Analysis {
        let profile = BranchProfile::from_parts(self.stats, self.records);
        pipeline.assemble(profile, self.detector, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::TraceBuilder;

    fn weights(b: &GraphBuilder) -> Vec<(u32, u32, u64)> {
        let g = b.build();
        let mut v: Vec<_> = g.iter_edges().collect();
        v.sort_unstable();
        v
    }

    /// `detector`'s thresholded compile against the oracle's raw graph:
    /// at every threshold the kept graph is the raw graph pruned, and the
    /// raw pair count and weight are the raw graph's.
    fn assert_compiles_like(detector: &Detector, naive: &GraphBuilder, case: &str) {
        let raw = naive.build();
        for threshold in [1, 2, 100, u64::MAX] {
            let compiled = detector.clone().compile(ConflictConfig { threshold });
            let case = format!("{case}, threshold {threshold}");
            assert_eq!(compiled.graph, raw.pruned(threshold), "{case}");
            assert_eq!(compiled.raw_edge_count, raw.edge_count(), "{case}");
            assert_eq!(compiled.raw_total_weight, raw.total_weight(), "{case}");
        }
    }

    #[test]
    fn figure_1_example() {
        // The paper's Figure 1, extended by one more round.
        let mut t = TraceBuilder::new("fig1");
        t.record(0xa, true, 5)
            .record(0xb, true, 10)
            .record(0xc, true, 15)
            .record(0xa, true, 20) // A sees B, C
            .record(0xb, true, 25) // B sees C(15)? no: C=15 > B's prev 10 → yes; and A(20)
            .record(0xc, true, 30); // C sees A(20), B(25)
        let g = interleave_counts(&t.finish()).build();
        assert_eq!(g.edge_weight(0, 1), Some(2)); // A–B both directions
        assert_eq!(g.edge_weight(0, 2), Some(2)); // A–C
        assert_eq!(g.edge_weight(1, 2), Some(2)); // B–C
    }

    #[test]
    fn tight_loop_of_one_branch_has_no_edges() {
        let mut t = TraceBuilder::new("solo");
        for i in 1..=100u64 {
            t.record(0x40, true, i * 5);
        }
        let b = interleave_counts(&t.finish());
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn two_alternating_branches_interleave_every_round() {
        let mut t = TraceBuilder::new("alt");
        for i in 0..10u64 {
            t.record(0x40 + (i % 2) * 4, true, i + 1);
        }
        let g = interleave_counts(&t.finish()).build();
        // A executes at 1,3,5,7,9; from the 2nd instance on it sees B: 4
        // detections. Same for B → weight 8.
        assert_eq!(g.edge_weight(0, 1), Some(8));
    }

    #[test]
    fn phases_do_not_interleave_without_revisit() {
        // A A A then B B B: B never executes between two A instances and
        // vice versa.
        let mut t = TraceBuilder::new("phase");
        for i in 1..=3u64 {
            t.record(0xa, true, i);
        }
        for i in 4..=6u64 {
            t.record(0xb, true, i);
        }
        let b = interleave_counts(&t.finish());
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn phase_revisit_creates_one_detection() {
        // A A, B B, A: the final A sees B once (one detection event),
        // regardless of how many times B ran in between.
        let mut t = TraceBuilder::new("revisit");
        t.record(0xa, true, 1)
            .record(0xa, true, 2)
            .record(0xb, true, 3)
            .record(0xb, true, 4)
            .record(0xa, true, 5);
        let g = interleave_counts(&t.finish()).build();
        assert_eq!(g.edge_weight(0, 1), Some(1));
    }

    #[test]
    fn equal_timestamps_do_not_interleave() {
        let mut t = TraceBuilder::new("ties");
        t.record(0xa, true, 5)
            .record(0xb, true, 5)
            .record(0xa, true, 5);
        let b = interleave_counts(&t.finish());
        assert_eq!(
            b.edge_count(),
            0,
            "stamps must be strictly greater to count"
        );
    }

    #[test]
    fn naive_and_fast_agree_on_small_cases() {
        let mut t = TraceBuilder::new("mix");
        let pcs = [0xa, 0xb, 0xc, 0xa, 0xc, 0xb, 0xa, 0xd, 0xb, 0xd, 0xa, 0xc];
        for (i, pc) in pcs.into_iter().enumerate() {
            t.record(pc, i % 3 == 0, (i as u64 + 1) * 7);
        }
        let trace = t.finish();
        assert_eq!(
            weights(&interleave_counts(&trace)),
            weights(&interleave_counts_naive(&trace))
        );
    }

    #[test]
    fn max_stamp_reexecution_does_not_overflow() {
        // Regression: the old recency index scanned `(prev + 1, 0)..`,
        // which overflowed (release-checked panic) when a branch stamped
        // u64::MAX re-executed. Ties at the maximum stamp must simply not
        // interleave.
        let mut t = TraceBuilder::new("max");
        t.record(0xa, true, u64::MAX - 1)
            .record(0xb, true, u64::MAX)
            .record(0xb, true, u64::MAX) // prev == u64::MAX re-executes
            .record(0xa, true, u64::MAX); // A sees B (MAX > MAX-1)
        let trace = t.finish();
        let g = interleave_counts(&trace).build();
        assert_eq!(g.edge_weight(0, 1), Some(1), "only A's revisit detects");
        assert_eq!(
            weights(&interleave_counts(&trace)),
            weights(&interleave_counts_naive(&trace))
        );
    }

    #[test]
    fn pairs_above_the_dense_cap_spill_and_still_count() {
        // 4100 branches once each, then re-executions on both sides of
        // the cap: branch 0's row takes its hits below 4096 and the spill
        // table the rest; branch 4098 has no row at all.
        let mut t = TraceBuilder::new("cap");
        for i in 0..4100u64 {
            t.record(0x10_0000 + i * 4, true, i + 1);
        }
        t.record(0x10_0000, true, 5000)
            .record(0x10_0000 + 4098 * 4, true, 5001)
            .record(0x10_0000 + 4 * 4, true, 5002);
        let trace = t.finish();
        let detector = detect(&trace);
        assert!(detector.spill.edge_count() > 0, "pairs above the cap spill");
        assert!(detector.rows.iter().all(|r| r.counts.len() <= DENSE_NODES));
        let naive = interleave_counts_naive(&trace);
        assert_eq!(weights(&interleave_counts(&trace)), weights(&naive));
        assert_compiles_like(&detector, &naive, "cap");
    }

    #[test]
    fn folded_rows_keep_every_edge() {
        // A fold point of a few re-executions sends every row through the
        // overflow fold many times; the edges must not change.
        let mut t = TraceBuilder::new("fold");
        let mut lcg: u64 = 5;
        for i in 0..3000u64 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.record(0x4000 + (lcg >> 40) % 23 * 4, true, i + 1);
        }
        let trace = t.finish();
        let expected = interleave_counts_naive(&trace);
        for fold_at in [1, 2, 3, 7] {
            let mut detector = Detector::new(trace.static_branch_count()).with_fold_at(fold_at);
            for (id, rec) in trace.indexed_records() {
                detector.push(id.as_u32(), rec.time.get());
            }
            assert!(
                detector.spill.edge_count() > 0,
                "fold_at {fold_at}: rows folded"
            );
            assert!(detector.rows.iter().all(|r| r.reexecs <= fold_at));
            let spill = detector.sorted_spill();
            let sorted: Vec<_> = detector.sorted_edges(&spill).collect();
            assert_eq!(sorted, weights(&expected), "fold_at {fold_at}");
            assert_compiles_like(&detector, &expected, &format!("fold_at {fold_at}"));
        }
    }

    #[test]
    fn accumulator_push_handles_max_stamp_reexecution() {
        let mut acc = Accumulator::new(0);
        for (id, t) in [(0, u64::MAX), (1, u64::MAX), (0, u64::MAX)] {
            acc.push(id, t, true);
        }
        let keep_all = AnalysisPipeline {
            conflict: ConflictConfig { threshold: 1 },
            ..AnalysisPipeline::new()
        };
        let analysis = acc.into_analysis(&keep_all, &Obs::noop());
        assert_eq!(
            analysis.conflict.raw_edge_count, 0,
            "equal stamps never interleave"
        );
        assert_eq!(analysis.profile.total_dynamic(), 3);
        assert_eq!(analysis.profile.static_count(), 2);
    }

    #[test]
    fn empty_trace_yields_empty_builder() {
        let b = interleave_counts(&bwsa_trace::Trace::new("empty"));
        assert_eq!(b.node_count(), 0);
        assert_eq!(b.edge_count(), 0);
    }
}
