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
//! reads as `TOMB`, an id past every row's counters, so a credit is one
//! id load and one increment.
//!
//! The credits of one re-execution of branch `a` all land in `a`'s own
//! row of `u32` counters, and every branch has a row in one store. A row
//! of a branch below `HEAD_NODES` (4096) starts with a dense head over
//! the ids seen so far, at most 16 KiB, so the ~300 increments a record
//! costs on a gcc-shaped trace stay within one small row. Every other id
//! a row credits is counted in a page of `PAGE` (256) consecutive ids,
//! appended to the row at its first credit there; the rows of branches
//! at or above 4096 hold only pages. Since a branch interleaves with a
//! small, phase-local working set, a row holds few pages: on a trace
//! whose phases never revisit, only its own phase's. A row about to
//! overflow a `u32` folds its counts into `u64` counters of the same
//! layout.
//!
//! Every engine compiles the thresholded conflict graph in one walk over
//! the rows in increasing pair order, which costs what the rows hold:
//! for each `a`, row `a`'s own counters merged with column `a`, read from
//! the rows whose head or a page covers `a`. Each pair adds to the raw
//! pair count and weight, and only a pair whose whole weight reaches the
//! threshold enters the CSR, so no raw graph is built. A parallel run
//! first moves its workers' rows, which credit disjoint branches, into
//! one detector. A windowed run keeps one detector for the whole trace
//! and reads each window out of it: a row is copied at its first credit
//! in the window, and the flush walks the touched rows' differences from
//! those copies. [`interleave_counts_naive`] is an independent
//! linear-scan oracle used by the tests.

use crate::conflict::{ConflictAnalysis, ConflictConfig};
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::recency::{RecencyRing, TOMB};
use bwsa_graph::{ConflictGraph, GraphBuilder};
use bwsa_obs::Obs;
use bwsa_trace::profile::{BranchProfile, BranchStats};
use bwsa_trace::Trace;
use std::ops::Range;

/// The rows of branch ids below this start with a dense head over the
/// ids below it. At 4096 a full head is 16 KiB, below glibc's mmap
/// threshold, and benchmark-sized traces fall below it entirely.
pub(crate) const HEAD_NODES: usize = 4096;

/// Ids per page: a row counts every id past its head in the page of
/// `PAGE` consecutive ids that holds it.
pub(crate) const PAGE: usize = 256;

/// Heads grow in steps of this many counters, so a head whose branch
/// keeps re-executing while new branches appear is copied at most
/// `HEAD_NODES / ROW_STEP` times.
const ROW_STEP: usize = 128;

/// The page-table entry of a page a row does not hold.
const NO_PAGE: u32 = u32::MAX;

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
    let mut edges = Vec::new();
    detector.edges(|a, b, w| edges.push((a, b, w)));
    let mut builder = GraphBuilder::with_capacity(detector.nodes, edges.len());
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

/// One branch's row: how many of its re-executions saw each other branch.
/// The head counts ids `0..head` at their own index in `counts`; each page
/// follows it, in the order the row allocated them.
#[derive(Debug, Clone, Default)]
struct Row {
    counts: Vec<u32>,
    /// The ids the head counts, `counts[..head]`.
    head: u32,
    /// `pages[p]`: where the counters of ids `p·PAGE..(p + 1)·PAGE` start
    /// in `counts`, or [`NO_PAGE`]. Pages are only ever appended, and only
    /// to a head that has stopped growing, so a prefix of `counts` is the
    /// row as it stood earlier.
    pages: Vec<u32>,
    /// What folds moved out of `counts`, in the same layout; empty until
    /// the row first folds.
    folded: Vec<u64>,
    /// Re-executions counted into `counts`, which bounds every counter.
    reexecs: u32,
    /// The window epoch of the row's last copy; 0 for never copied.
    epoch: u64,
}

/// A row as it stood at its first credit in the open window:
/// `Window::counts[counts]` and `Window::folded[folded]`. A copy shorter
/// than its row reads as zeros past its end, so an empty copy stands for
/// a row's whole count.
#[derive(Debug, Clone)]
struct RowCopy {
    row: u32,
    counts: Range<usize>,
    folded: Range<usize>,
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
    /// The copied folds of rows that had folded, back to back.
    folded: Vec<u64>,
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
        let (counts, folded) = (self.counts.len(), self.folded.len());
        self.counts.extend_from_slice(&row.counts);
        self.folded.extend_from_slice(&row.folded);
        self.copies.push(RowCopy {
            row: id,
            counts: counts..self.counts.len(),
            folded: folded..self.folded.len(),
        });
    }

    /// Starts the next window.
    fn open(&mut self) {
        self.epoch += 1;
        self.copies.clear();
        self.counts.clear();
        self.folded.clear();
    }
}

/// The Figure 1 detection kernel over pre-interned `(branch, stamp)`
/// pairs. See the module docs for the row store.
///
/// The weight of edge `{a, b}` is row `a`'s count of `b` plus row `b`'s
/// count of `a`. A row gets counters at its branch's first re-execution
/// that has a credit to give. A head is sized to the branch count seen so
/// far (rounded up to [`ROW_STEP`], capped at [`HEAD_NODES`]) and grows as
/// later re-executions see newer branches; a page is allocated at the
/// row's first credit to an id in it.
#[derive(Debug, Clone)]
pub(crate) struct Detector {
    /// One live (latest stamp, branch) entry per executed branch: the
    /// only per-branch stamp state.
    recency: RecencyRing,
    /// One row per branch id credited so far.
    rows: Vec<Row>,
    /// Ids of the rows holding counters, in allocation order: the only
    /// rows a walk reads.
    allocated: Vec<u32>,
    /// Branches seen: every id pushed or passed is below it.
    nodes: u32,
    /// Re-executions at which a row folds, before any of its `u32`
    /// counters can overflow. Only unit tests lower it.
    fold_at: u32,
    /// The open window's row copies, when tracked.
    window: Window,
    /// The ids of one credit whose page the row did not hold yet.
    missed: Vec<u32>,
}

impl Detector {
    /// An empty detector over `nodes` branches.
    pub(crate) fn new(nodes: usize) -> Self {
        Detector {
            recency: RecencyRing::default(),
            rows: Vec::new(),
            allocated: Vec::new(),
            nodes: nodes as u32,
            fold_at: u32::MAX,
            window: Window::default(),
            missed: Vec::new(),
        }
    }

    /// Starts reading windows out of this detector: from here on each
    /// row is copied at its first credit in a window. Every other engine
    /// leaves this off.
    pub(crate) fn track_windows(&mut self) {
        self.window.open();
    }

    /// Calls `f(a, b, window weight, cumulative weight)` once per pair the
    /// open window credited, with `a < b`, in increasing `(a, b)` order,
    /// then opens the next window. Only the touched rows' differences
    /// from their copies are read. Returns how many rows the window
    /// touched.
    pub(crate) fn flush_window(&mut self, mut f: impl FnMut(u32, u32, u64, u64)) -> usize {
        debug_assert!(self.window.epoch != 0, "windows are not tracked");
        self.window.copies.sort_unstable_by_key(|copy| copy.row);
        let listed = Listed {
            rows: &self.rows,
            copies: &self.window.copies,
            counts: &self.window.counts,
            folded: &self.window.folded,
        };
        listed.walk(self.nodes, |a, b, w| f(a, b, w, self.pair_weight(a, b)));
        let touched = self.window.copies.len();
        self.window.open();
        touched
    }

    /// The weight pair `{a, b}` has accumulated so far, `a < b`.
    pub(crate) fn pair_weight(&self, a: u32, b: u32) -> u64 {
        let count = |a: u32, b: u32| {
            let row = self.rows.get(a as usize)?;
            Some(row.at(row.offset(b as usize)?))
        };
        count(a, b).unwrap_or(0) + count(b, a).unwrap_or(0)
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
        self.nodes = self.nodes.max(node + 1);
        self.recency.record(node, t);
    }

    /// Moves `other`'s rows into this detector. Both walked the same
    /// records and credited disjoint sets of branches, as the workers of a
    /// parallel run do, so each of `other`'s rows moves whole into an
    /// empty slot.
    pub(crate) fn absorb(&mut self, mut other: Detector) {
        self.nodes = self.nodes.max(other.nodes);
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

    /// Every credit this detector has given.
    pub(crate) fn credits(&self) -> u64 {
        self.allocated_rows().map(Row::credits).sum()
    }

    /// The rows holding counters, in allocation order.
    fn allocated_rows(&self) -> impl Iterator<Item = &Row> + Clone {
        self.allocated.iter().map(|&a| &self.rows[a as usize])
    }

    /// Reports the row store into a recording `obs`: the rows holding
    /// counters as `core.rows_allocated`, the pages they hold past their
    /// heads as `core.row_pages`, and the increments they hold as
    /// `core.edge_increments`. Each is read from the rows once, so a
    /// run that is not observed pays nothing.
    pub(crate) fn observe(&self, obs: &Obs) {
        if !obs.is_recording() {
            return;
        }
        let pages = self.allocated_rows().flat_map(|row| &row.pages);
        obs.add("core.rows_allocated", self.allocated.len() as u64);
        obs.add(
            "core.row_pages",
            pages.filter(|&&at| at != NO_PAGE).count() as u64,
        );
        obs.add("core.edge_increments", self.credits());
    }

    /// Credits `node`'s re-execution to every branch executed since its
    /// previous instance.
    #[inline]
    fn credit(&mut self, node: u32) {
        let Detector {
            recency,
            rows,
            allocated,
            nodes,
            fold_at,
            window,
            missed,
        } = self;
        let since = recency.since_last(node);
        if since.is_empty() {
            return; // first run, or nothing ran since: no credits, no row
        }
        let i = node as usize;
        if i >= rows.len() {
            rows.resize_with(i + 1, Row::default);
        }
        let row = &mut rows[i];
        window.copy(node, row); // as the open window, if any, found it
        if row.reexecs == *fold_at {
            row.fold();
        }
        let width = (*nodes as usize).min(HEAD_NODES);
        if i < HEAD_NODES && (row.head as usize) < width {
            if row.counts.is_empty() {
                allocated.push(node);
            }
            row.grow_head(width);
        }
        row.reexecs += 1;
        let head = row.head as usize;
        let (dense, paged) = row.counts.split_at_mut(head);
        let pages = &row.pages;
        increment(dense, since, |b| {
            if b != TOMB {
                match pages.get(b as usize / PAGE) {
                    Some(&at) if at != NO_PAGE => {
                        paged[at as usize - head + b as usize % PAGE] += 1
                    }
                    _ => missed.push(b),
                }
            }
        });
        if !missed.is_empty() {
            credit_pages(node, row, missed, allocated);
        }
    }

    /// The thresholded conflict analysis, compiled in one walk over the
    /// rows: every pair [`Detector::edges`] yields adds to the raw pair
    /// count and weight, and only a pair whose whole weight (both rows)
    /// reaches `config.threshold` is kept for the CSR. No raw graph is
    /// built.
    pub(crate) fn compile(self, config: ConflictConfig) -> ConflictAnalysis {
        let (mut raw_edge_count, mut raw_total_weight) = (0, 0);
        let mut kept = Vec::new();
        self.edges(|a, b, w| {
            raw_edge_count += 1;
            raw_total_weight += w;
            if w >= config.threshold {
                kept.push((a, b, w));
            }
        });
        let nodes = self.nodes;
        drop(self); // before the CSR arrays are allocated
        ConflictAnalysis {
            graph: ConflictGraph::from_sorted_edges(nodes, kept.iter().copied()),
            raw_edge_count,
            raw_total_weight,
            config,
        }
    }

    /// Calls `f(a, b, weight)` once per accumulated pair, `a < b`, in
    /// increasing `(a, b)` order.
    pub(crate) fn edges(&self, f: impl FnMut(u32, u32, u64)) {
        // Every allocated row, each with an empty copy: whole counts.
        let mut listed: Vec<RowCopy> = (self.allocated.iter())
            .map(|&row| RowCopy {
                row,
                counts: 0..0,
                folded: 0..0,
            })
            .collect();
        listed.sort_unstable_by_key(|copy| copy.row);
        let (rows, copies) = (&self.rows[..], &listed[..]);
        let (counts, folded) = (&[][..], &[][..]);
        Listed {
            rows,
            copies,
            counts,
            folded,
        }
        .walk(self.nodes, f);
    }

    /// Lowers the fold point so tests can drive rows through it.
    #[cfg(test)]
    pub(crate) fn with_fold_at(mut self, reexecs: u32) -> Self {
        self.fold_at = reexecs;
        self
    }

    /// The rows that have folded and hold a page past their heads.
    #[cfg(test)]
    pub(crate) fn paged_rows_folded(&self) -> usize {
        let paged = |row: &&Row| row.pages.iter().any(|&at| at != NO_PAGE);
        self.allocated_rows()
            .filter(paged)
            .filter(|row| !row.folded.is_empty())
            .count()
    }
}

impl Row {
    /// Where the row counts id `b` in `counts`, if it does.
    #[inline]
    fn offset(&self, b: usize) -> Option<usize> {
        if b < self.head as usize {
            return Some(b);
        }
        match self.pages.get(b / PAGE) {
            Some(&at) if at != NO_PAGE => Some(at as usize + b % PAGE),
            _ => None,
        }
    }

    /// The whole count at `offset`, folds included; zero past the row.
    #[inline]
    fn at(&self, offset: usize) -> u64 {
        let count = self.counts.get(offset).copied().unwrap_or(0);
        u64::from(count) + self.folded.get(offset).copied().unwrap_or(0)
    }

    /// Each page the row covers, its head's included, in increasing order:
    /// the page, where its counters start in `counts` and how many it has.
    fn covered(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let head = self.head as usize;
        let heads = (0..head.div_ceil(PAGE)).map(move |page| {
            let at = page * PAGE;
            (page, at, PAGE.min(head - at))
        });
        let pages = self.pages.iter().enumerate();
        heads.chain(
            pages.filter_map(|(page, &at)| (at != NO_PAGE).then_some((page, at as usize, PAGE))),
        )
    }

    /// Grows the head to cover the first `width` ids; the row holds no
    /// page yet.
    fn grow_head(&mut self, width: usize) {
        debug_assert_eq!(self.counts.len(), self.head as usize);
        let len = width.next_multiple_of(ROW_STEP).min(HEAD_NODES);
        self.counts.reserve_exact(len - self.counts.len());
        self.counts.resize(len, 0);
        self.head = len as u32;
    }

    /// `b`'s counter, appending its page first if the row has none.
    fn page_in(&mut self, b: u32) -> &mut u32 {
        let (page, b) = (b as usize / PAGE, b as usize);
        if page >= self.pages.len() {
            self.pages.resize(page + 1, NO_PAGE);
        }
        if self.pages[page] == NO_PAGE {
            self.pages[page] = self.counts.len() as u32;
            if self.counts.len() == self.counts.capacity() {
                // A quarter more, not twice: a row holds what it credits.
                self.counts.reserve_exact((self.counts.len() / 4).max(PAGE));
            }
            self.counts.resize(self.counts.len() + PAGE, 0);
        }
        &mut self.counts[self.pages[page] as usize + b % PAGE]
    }

    /// Moves every count into `folded` and zeroes it.
    #[cold]
    fn fold(&mut self) {
        self.folded.resize(self.counts.len(), 0);
        for (folded, count) in self.folded.iter_mut().zip(&mut self.counts) {
            *folded += u64::from(std::mem::take(count));
        }
        self.reexecs = 0;
    }

    /// Every credit the row holds.
    fn credits(&self) -> u64 {
        let counts: u64 = self.counts.iter().map(|&count| u64::from(count)).sum();
        counts + self.folded.iter().sum::<u64>()
    }
}

/// Credits row `node` once for each of the `missed` ids, appending their
/// pages, and lists the row if it held no counter before.
#[cold]
fn credit_pages(node: u32, row: &mut Row, missed: &mut Vec<u32>, allocated: &mut Vec<u32>) {
    if row.counts.is_empty() {
        allocated.push(node);
    }
    for b in missed.drain(..) {
        *row.page_in(b) += 1;
    }
}

/// Credits one re-execution: `counts[b] += 1` for every `b` in `since`
/// that the head counts. Any other id, a tombstone included, goes to
/// `past`. Four ids inside the head, the common case, take one branch
/// for all four.
#[inline]
fn increment(counts: &mut [u32], since: &[u32], mut past: impl FnMut(u32)) {
    let mut one = |counts: &mut [u32], b: u32| match counts.get_mut(b as usize) {
        Some(count) => *count += 1,
        None => past(b),
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

/// What a walk reads: the rows, and the listed rows' copies with the
/// counts and folds they index.
#[derive(Clone, Copy)]
struct Listed<'a> {
    rows: &'a [Row],
    copies: &'a [RowCopy],
    counts: &'a [u32],
    folded: &'a [u64],
}

/// A listed row's counters over one page of ids, `first..first +
/// counts.len()`: what the row credited since its copy.
#[derive(Clone, Copy, Default)]
struct Page<'a> {
    row: u32,
    first: u32,
    counts: &'a [u32],
    /// The copy's counters over the page, shorter where the copy ends.
    copied: &'a [u32],
    /// The row's index among the listed rows when it or its copy holds a
    /// fold, else [`NO_PAGE`].
    folded: u32,
}

impl<'a> Listed<'a> {
    /// The pages the `i`th listed row covers, in increasing order.
    fn pages(self, i: usize) -> impl Iterator<Item = Page<'a>> {
        let copy = &self.copies[i];
        let (id, row) = (copy.row, &self.rows[copy.row as usize]);
        let copied = &self.counts[copy.counts.clone()];
        let folded = !row.folded.is_empty() || !copy.folded.is_empty();
        (row.covered()).map(move |(page, at, len)| Page {
            row: id,
            first: (page * PAGE) as u32,
            counts: &row.counts[at..at + len],
            copied: &copied[at.min(copied.len())..(at + len).min(copied.len())],
            folded: if folded { i as u32 } else { NO_PAGE },
        })
    }

    /// The credits to the `i`th id of `page` since the copy.
    #[inline]
    fn at(self, page: &Page<'_>, i: usize) -> u64 {
        let now = u64::from(page.counts.get(i).copied().unwrap_or(0));
        let then = u64::from(page.copied.get(i).copied().unwrap_or(0));
        if page.folded == NO_PAGE {
            return now - then;
        }
        self.folded_at(page, i, now, then)
    }

    /// [`Listed::at`] for a row that holds a fold, or whose copy does.
    #[cold]
    fn folded_at(self, page: &Page<'_>, i: usize, now: u64, then: u64) -> u64 {
        let copy = &self.copies[page.folded as usize];
        let row = &self.rows[copy.row as usize];
        let copied = &self.folded[copy.folded.clone()];
        let Some(offset) = row.offset(page.first as usize + i) else {
            return 0;
        };
        let fold = |folded: &[u64]| folded.get(offset).copied().unwrap_or(0);
        now + fold(&row.folded) - then - fold(copied)
    }

    /// Calls `f(a, b, weight)` for every pair `a < b < nodes` with a
    /// nonzero weight, in increasing `(a, b)` order, reading the listed
    /// rows only, in increasing row order. A pair's weight is what rows
    /// `a` and `b` counted since their copies, and an unlisted row counts
    /// nothing. The whole-trace compile lists every allocated row with an
    /// empty copy; a window flush lists the rows the window touched.
    ///
    /// Row `a` is read in place, merged with column `a`: the count of `a`
    /// in each listed row after `a` whose head or a page covers `a`, found
    /// through an index of the listed rows' pages by page. So the walk
    /// reads each counter the listed rows hold once, and an `a` that no
    /// listed row covers costs one step.
    fn walk(self, nodes: u32, mut f: impl FnMut(u32, u32, u64)) {
        // `covers[starts[p]..starts[p + 1]]`: the listed rows' pages `p`,
        // in increasing row order.
        let pages = (nodes as usize).div_ceil(PAGE);
        let mut starts = vec![0; pages + 1];
        for copy in self.copies {
            let row = &self.rows[copy.row as usize];
            row.covered().for_each(|(page, ..)| starts[page + 1] += 1);
        }
        for page in 0..pages {
            starts[page + 1] += starts[page];
        }
        let mut covers = vec![Page::default(); starts[pages]];
        let mut fill = starts.clone();
        for i in 0..self.copies.len() {
            for page in self.pages(i) {
                let p = page.first as usize / PAGE;
                covers[fill[p]] = page;
                fill[p] += 1;
            }
        }
        drop(fill);
        let mut column: Vec<(u32, u64)> = Vec::new();
        let mut next = 0; // the first listed row at or above `a`
        for page in 0..pages {
            let cover = &covers[starts[page]..starts[page + 1]];
            let mut above = 0; // the first row of `cover` above `a`
            for a in page * PAGE..((page + 1) * PAGE).min(nodes as usize) {
                while cover.get(above).is_some_and(|c| c.row as usize <= a) {
                    above += 1;
                }
                column.clear();
                for c in &cover[above..] {
                    let w = self.at(c, a % PAGE);
                    if w > 0 {
                        column.push((c.row, w));
                    }
                }
                let copies = self.copies;
                while copies.get(next).is_some_and(|copy| (copy.row as usize) < a) {
                    next += 1;
                }
                let own = copies.get(next).is_some_and(|copy| copy.row as usize == a);
                if !own && column.is_empty() {
                    continue;
                }
                // Column entries go out before row `a`'s first credit at or
                // past them, and add to its credit of the same id.
                let (a, mut col) = (a as u32, 0);
                let mut due = column.first().map_or(u32::MAX, |&(b, _)| b);
                for page in own.then(|| self.pages(next)).into_iter().flatten() {
                    let first = page.first as usize;
                    for i in (a as usize + 1).saturating_sub(first)..page.counts.len() {
                        let (b, mut w) = ((first + i) as u32, self.at(&page, i));
                        if w == 0 {
                            continue;
                        }
                        while due <= b {
                            let (c, v) = column[col];
                            if c < b {
                                f(a, c, v);
                            } else {
                                w += v;
                            }
                            col += 1;
                            due = column.get(col).map_or(u32::MAX, |&(b, _)| b);
                        }
                        f(a, b, w);
                    }
                }
                column[col..].iter().for_each(|&(b, w)| f(a, b, w));
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

    /// Every pair `detector` holds, in walk order.
    fn walked(detector: &Detector) -> Vec<(u32, u32, u64)> {
        let mut edges = Vec::new();
        detector.edges(|a, b, w| edges.push((a, b, w)));
        edges
    }

    #[test]
    fn pairs_past_the_head_count_in_pages() {
        // 4100 branches once each, then re-executions on both sides of
        // the heads' end: branch 0's head takes its credits below 4096 and
        // a page the rest; branch 4098's row holds pages only.
        let mut t = TraceBuilder::new("cap");
        for i in 0..4100u64 {
            t.record(0x10_0000 + i * 4, true, i + 1);
        }
        t.record(0x10_0000, true, 5000)
            .record(0x10_0000 + 4098 * 4, true, 5001)
            .record(0x10_0000 + 4 * 4, true, 5002);
        let trace = t.finish();
        let detector = detect(&trace);
        let paged = |row: &Row| row.pages.iter().filter(|&&at| at != NO_PAGE).count();
        let (low, high) = (&detector.rows[0], &detector.rows[4098]);
        assert_eq!((low.head as usize, paged(low)), (HEAD_NODES, 1));
        // Branch 4098 saw 4099 and then branch 0: pages 0 and 16.
        assert_eq!((high.head, paged(high)), (0, 2));
        assert!(detector.rows.iter().all(|r| r.head as usize <= HEAD_NODES));
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
                detector.rows.iter().any(|r| !r.folded.is_empty()),
                "fold_at {fold_at}: rows folded"
            );
            assert!(detector.rows.iter().all(|r| r.reexecs <= fold_at));
            assert_eq!(walked(&detector), weights(&expected), "fold_at {fold_at}");
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
