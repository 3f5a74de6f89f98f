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
//! serial pipeline drives it directly; every engine fed one record at a
//! time (BWSS2 and BWSS3 streaming, checkpoint/resume, the supervisor's
//! streaming rung, the parallel shards and window flushes of
//! [`crate::merge::ShardDelta`]) goes through `Accumulator`, which pairs
//! it with the per-branch execution statistics of the same records. The
//! detector finds the branches to credit with a recency index of
//! `(latest timestamp, branch)` pairs (`RecencyRing`): a binary search
//! plus a scan over exactly the branches involved, `O(k + log n)` per
//! dynamic branch where `k` is the instantaneous working-set size, the
//! very quantity the paper shows stays small.
//!
//! The credits of one re-execution of branch `a` all land in `a`'s own
//! dense row of `u32` counters, so the ~300 increments a record costs on
//! a gcc-shaped trace stay within one row of at most 16 KiB instead of
//! probing a hash table that has outgrown the cache. Rows cover ids below
//! `DENSE_NODES` (4096); pairs with an endpoint above it, folded rows and
//! edges restored from a checkpoint live in a [`GraphBuilder`], the spill
//! table. Whole-trace engines compile the CSR graph straight from rows
//! and spill in sorted order; shard and window deltas fold into a
//! [`GraphBuilder`], the merge currency. [`interleave_counts_naive`] is an
//! independent linear-scan oracle used by the tests.

use crate::merge::ShardDelta;
use crate::pipeline::{Analysis, AnalysisPipeline};
use crate::recency::RecencyRing;
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
    detect(trace).into_builder()
}

/// The [`Detector`] after every record of `trace`; `into_graph` on it is
/// the raw conflict graph, compiled without a hash table.
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
    /// `last_stamp[b]` = timestamp of b's previous dynamic instance.
    last_stamp: Vec<Option<u64>>,
    /// One live (latest stamp, branch) entry per executed branch;
    /// derivable from `last_stamp`, so checkpoints omit it.
    recency: RecencyRing,
    /// Dense rows, indexed by branch id below [`DENSE_NODES`].
    rows: Vec<Row>,
    /// Ids of the rows allocated so far, in allocation order: the only
    /// rows a fold or an edge walk reads.
    allocated: Vec<u32>,
    /// Pairs with an endpoint at or above [`DENSE_NODES`], folded rows and
    /// restored edges. Its node count is the detector's.
    spill: GraphBuilder,
    /// Re-executions at which a row folds into `spill`, before any of its
    /// `u32` counters can overflow. Only unit tests lower it.
    fold_at: u32,
}

impl Detector {
    /// An empty detector over `nodes` branches.
    pub(crate) fn new(nodes: usize) -> Self {
        Self::resume(vec![None; nodes], GraphBuilder::new(nodes as u32))
    }

    /// A detector that continues from per-branch latest stamps and
    /// already-counted edges: a checkpoint, or the carry-in of a shard or
    /// window. The recency index is rebuilt from `last_stamp`, whose
    /// entries are exactly `(last_stamp[b], b)` for every executed branch.
    pub(crate) fn resume(last_stamp: Vec<Option<u64>>, mut edges: GraphBuilder) -> Self {
        edges.ensure_nodes(last_stamp.len() as u32);
        Detector {
            recency: RecencyRing::from_stamps(&last_stamp),
            last_stamp,
            rows: Vec::new(),
            allocated: Vec::new(),
            spill: edges,
            fold_at: u32::MAX,
        }
    }

    /// Per-branch latest stamps, indexed by branch id.
    pub(crate) fn last_stamps(&self) -> &[Option<u64>] {
        &self.last_stamp
    }

    /// Consumes one record: when `node` re-executes, every branch whose
    /// latest stamp is strictly greater than `node`'s previous stamp
    /// interleaved with it since then and gets one credit.
    #[inline]
    pub(crate) fn push(&mut self, node: u32, t: u64) {
        let i = node as usize;
        if i >= self.last_stamp.len() {
            self.last_stamp.resize(i + 1, None);
            self.spill.ensure_nodes(node + 1);
        }
        if let Some(prev) = self.last_stamp[i] {
            self.credit(node, prev);
        }
        self.recency.record(node, t);
        self.last_stamp[i] = Some(t);
    }

    /// Credits `node`'s re-execution to every branch executed after `prev`.
    fn credit(&mut self, node: u32, prev: u64) {
        if !self.recency.any_after(prev) {
            return; // nothing ran since: no credits, and no row needed
        }
        let width = self.last_stamp.len().min(DENSE_NODES);
        let Detector {
            recency,
            rows,
            allocated,
            spill,
            fold_at,
            ..
        } = self;
        let i = node as usize;
        if i >= DENSE_NODES {
            recency.for_each_after(prev, node, |b| {
                spill.add_edge(node, b, 1);
            });
            return;
        }
        if i >= rows.len() {
            rows.resize_with(i + 1, Row::default);
        }
        let row = &mut rows[i];
        if row.reexecs == *fold_at {
            fold_row(spill, node, row);
        }
        if row.counts.len() < width {
            if row.counts.is_empty() {
                allocated.push(node);
            }
            let len = width.next_multiple_of(ROW_STEP).min(DENSE_NODES);
            row.counts.reserve_exact(len - row.counts.len());
            row.counts.resize(len, 0);
        }
        row.reexecs += 1;
        // The row spans every seen branch below DENSE_NODES, so a hit
        // outside it is a pair for the spill table.
        let counts = &mut row.counts[..];
        recency.for_each_after(prev, node, |b| match counts.get_mut(b as usize) {
            Some(count) => *count += 1,
            None => {
                spill.add_edge(node, b, 1);
            }
        });
    }

    /// Every accumulated edge folded into one [`GraphBuilder`], sized once
    /// for the spill edges plus each dense pair. Only allocated rows are
    /// visited, so a window that re-executed few branches folds cheaply.
    pub(crate) fn into_builder(self) -> GraphBuilder {
        let mut pairs = 0;
        self.for_each_dense_pair(|_, _, _| pairs += 1);
        let mut builder =
            GraphBuilder::with_capacity(self.spill.node_count(), self.spill.edge_count() + pairs);
        builder.merge(&self.spill);
        self.for_each_dense_pair(|a, b, w| {
            builder.add_edge(a, b, w);
        });
        builder
    }

    /// The raw conflict graph, compiled straight from rows and spill in
    /// sorted order: no hash table, no per-node sort.
    pub(crate) fn into_graph(self) -> ConflictGraph {
        let spill = self.sorted_spill();
        let Detector {
            rows,
            allocated,
            spill: table,
            ..
        } = self;
        let nodes = table.node_count();
        drop(table); // before the CSR arrays are allocated
        let edges = sorted_edges(&rows, &allocated, nodes, &spill);
        ConflictGraph::from_sorted_edges(nodes, edges)
    }

    /// The spill table's edges in increasing `(a, b)` order, for
    /// [`Detector::sorted_edges`].
    pub(crate) fn sorted_spill(&self) -> Vec<(u32, u32, u64)> {
        let mut edges: Vec<_> = self.spill.edges().collect();
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

    /// Calls `f(a, b, weight)` once per pair with a nonzero dense count,
    /// with `a < b`, in no particular order, reading allocated rows only.
    fn for_each_dense_pair(&self, mut f: impl FnMut(u32, u32, u64)) {
        for &a in &self.allocated {
            for (b, &count) in self.rows[a as usize].counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                // Each pair once: from the lower id's row when that row
                // saw the pair, else from this one.
                let (b, back) = (b as u32, row_count(&self.rows, b, a as usize));
                if a < b {
                    f(a, b, u64::from(count) + u64::from(back));
                } else if back == 0 {
                    f(b, a, u64::from(count));
                }
            }
        }
    }

    /// Lowers the fold point so tests can drive rows through it.
    #[cfg(test)]
    fn with_fold_at(mut self, reexecs: u32) -> Self {
        self.fold_at = reexecs;
        self
    }
}

/// Moves a row's counts into the spill table and zeroes it.
#[cold]
fn fold_row(spill: &mut GraphBuilder, a: u32, row: &mut Row) {
    for (b, count) in row.counts.iter_mut().enumerate() {
        if *count > 0 {
            spill.add_edge(a, b as u32, u64::from(*count));
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
    MergeSorted {
        left: DensePairs::new(rows, allocated, width).peekable(),
        right: spill.iter().copied().peekable(),
    }
}

/// The dense pairs `(a, b, row[a][b] + row[b][a])` with `a < b < width`
/// and a nonzero weight, in increasing `(a, b)` order. Row `a` is read in
/// place; column `a` of the allocated rows after it is gathered once per
/// `a`, and an `a` with neither a row nor a column entry is skipped.
#[derive(Clone)]
struct DensePairs<'a> {
    rows: &'a [Row],
    allocated: &'a [u32],
    width: usize,
    a: usize,
    b: usize,
    /// `column[b] = row[b][a]` for the current `a` and every allocated
    /// `b > a`; other entries are never read.
    column: Vec<u32>,
    /// Whether `column` holds a nonzero entry.
    column_live: bool,
}

impl<'a> DensePairs<'a> {
    fn new(rows: &'a [Row], allocated: &'a [u32], width: usize) -> Self {
        let mut pairs = DensePairs {
            rows,
            allocated,
            width,
            a: 0,
            b: 1,
            column: vec![0; width],
            column_live: false,
        };
        pairs.gather();
        pairs
    }

    fn gather(&mut self) {
        let a = self.a;
        self.column_live = false;
        for &b in self.allocated {
            let b = b as usize;
            if b > a && b < self.width {
                let count = row_count(self.rows, b, a);
                self.column[b] = count;
                self.column_live |= count > 0;
            }
        }
    }
}

impl Iterator for DensePairs<'_> {
    type Item = (u32, u32, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.a < self.width {
            let own = self.rows.get(self.a).map_or(&[][..], |row| &row.counts[..]);
            if !own.is_empty() || self.column_live {
                while self.b < self.width {
                    let b = self.b;
                    self.b += 1;
                    let w = u64::from(own.get(b).copied().unwrap_or(0)) + u64::from(self.column[b]);
                    if w > 0 {
                        return Some((self.a as u32, b as u32, w));
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
    let n = trace.static_branch_count();
    let mut builder = GraphBuilder::new(n as u32);
    let mut last_stamp: Vec<Option<u64>> = vec![None; n];
    // Latest stamp per branch over the records consumed so far.
    let mut seen: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (id, rec) in trace.indexed_records() {
        let node = id.as_u32();
        let t = rec.time.get();
        if let Some(prev_t) = last_stamp[node as usize] {
            for (&b, &bt) in &seen {
                if b != node && bt > prev_t {
                    builder.add_edge(node, b, 1);
                }
            }
        }
        seen.insert(node, t);
        last_stamp[node as usize] = Some(t);
    }
    builder
}

/// The one record accumulator behind every engine that is fed a record
/// at a time: the [`Detector`] for the Figure 1 credits, the per-branch
/// [`BranchStats`] behind the §5.2 bias classes and Table 2's dynamic
/// sizes, and the record count. BWSS2 streaming and checkpoints (through
/// [`crate::StreamingAnalysis`], which interns pcs first), BWSS3
/// streaming, the supervisor's streaming rung, and every shard and window
/// delta push pre-interned `(id, stamp, taken)` records into it.
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
        Self::resume(vec![None; nodes], ShardDelta::empty(nodes))
    }

    /// An accumulator that continues from per-branch latest stamps plus
    /// already-counted edges, stats and records: a checkpoint, or (with
    /// an empty delta) the carry-in of a shard or window.
    pub(crate) fn resume(last_stamp: Vec<Option<u64>>, counted: ShardDelta) -> Self {
        Accumulator {
            detector: Detector::resume(last_stamp, counted.builder),
            stats: counted.stats,
            records: counted.records,
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

    /// The whole-trace [`Analysis`]: the CSR compiled from the rows, then
    /// the observed assembly every engine shares.
    pub(crate) fn into_analysis(self, pipeline: &AnalysisPipeline, obs: &Obs) -> Analysis {
        let profile = BranchProfile::from_parts(self.stats, self.records);
        pipeline.assemble(profile, self.detector.into_graph(), obs)
    }

    /// The accumulated records as a [`ShardDelta`], the currency of shard
    /// and window merges.
    pub(crate) fn into_delta(self) -> ShardDelta {
        ShardDelta {
            builder: self.detector.into_builder(),
            stats: self.stats,
            records: self.records,
        }
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
        assert_eq!(weights(&detector.clone().into_builder()), weights(&naive));
        assert_eq!(detector.into_graph(), naive.build());
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
            assert_eq!(detector.clone().into_graph(), expected.build());
            assert_eq!(weights(&detector.into_builder()), weights(&expected));
        }
    }

    #[test]
    fn empty_trace_yields_empty_builder() {
        let b = interleave_counts(&bwsa_trace::Trace::new("empty"));
        assert_eq!(b.node_count(), 0);
        assert_eq!(b.edge_count(), 0);
    }
}
