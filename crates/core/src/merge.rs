//! Associative merges: cumulative multi-input profiles (§5.2) and the
//! shard-combine types behind the parallel analysis engine.
//!
//! Two independent merge problems live here:
//!
//! * **Across inputs** — a profile-based technique is only as good as its
//!   profile's coverage. The paper observes that profiles from different
//!   inputs exercise different program regions (`ss_a` vs `ss_b`) and
//!   proposes merging "the branch conflict graphs of several profiles from
//!   different input data ... until the resulting graph indicates that most
//!   part of the program has been exercised". Because each trace interns
//!   its own dense branch ids, merging goes through program counters:
//!   [`CumulativeProfile`] maintains a union [`BranchTable`] and remaps
//!   every per-trace interleave graph into it.
//!
//! * **Across shards of one trace** — [`crate::parallel`] splits a trace
//!   into time-contiguous shards and analyses them concurrently. The
//!   interleave engine is stateful (each detection compares against every
//!   branch's *latest* stamp), so shards cannot simply be analysed
//!   independently; instead [`ShardBoundary`] summarises the latest stamp
//!   each shard leaves per branch (an associative join), a cheap serial
//!   prefix-combine turns those summaries into an exact carry-in state for
//!   every shard, and [`ShardDelta`] runs the seeded engine over one shard
//!   and merges associatively into the whole-trace result. Both joins are
//!   pure integer max/sum operations, so the sharded run is bit-identical
//!   to the serial one — the property `crates/core/tests/parallel_prop.rs`
//!   checks exhaustively.

use crate::conflict::{ConflictAnalysis, ConflictConfig};
use crate::interleave::{detect, Accumulator};
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_graph::GraphBuilder;
use bwsa_obs::Obs;
use bwsa_trace::profile::{BranchProfile, BranchStats};
use bwsa_trace::{BranchTable, Trace};

/// An accumulating multi-input conflict profile.
///
/// # Example
///
/// ```
/// use bwsa_core::conflict::ConflictConfig;
/// use bwsa_core::merge::CumulativeProfile;
/// use bwsa_trace::TraceBuilder;
///
/// let mut input_a = TraceBuilder::new("a");
/// let mut input_b = TraceBuilder::new("b");
/// for i in 0..300u64 {
///     input_a.record(0x100 + (i % 2) * 4, true, i + 1); // exercises 0x100, 0x104
///     input_b.record(0x104 + (i % 2) * 4, true, i + 1); // exercises 0x104, 0x108
/// }
///
/// let mut cumulative = CumulativeProfile::new();
/// cumulative.add_trace(&input_a.finish());
/// cumulative.add_trace(&input_b.finish());
///
/// assert_eq!(cumulative.table().len(), 3, "union of both inputs' branches");
/// let analysis = cumulative.conflict_analysis(ConflictConfig::default());
/// assert_eq!(analysis.graph.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CumulativeProfile {
    table: BranchTable,
    builder: GraphBuilder,
    traces_merged: usize,
    total_dynamic: u64,
}

impl CumulativeProfile {
    /// Creates an empty cumulative profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// The union pc ↔ id interner. Node `i` of [`CumulativeProfile::raw_graph`]
    /// is the branch with union id `i`.
    pub fn table(&self) -> &BranchTable {
        &self.table
    }

    /// Number of traces merged so far.
    pub fn traces_merged(&self) -> usize {
        self.traces_merged
    }

    /// Total dynamic branches across all merged traces.
    pub fn total_dynamic(&self) -> u64 {
        self.total_dynamic
    }

    /// Analyses one trace and folds its interleave counts into the
    /// cumulative graph, identifying branches across traces by pc.
    pub fn add_trace(&mut self, trace: &Trace) -> &mut Self {
        // Remap this trace's dense ids into the union id space.
        let remap: Vec<u32> = (0..trace.static_branch_count())
            .map(|i| {
                self.table
                    .intern(trace.table().pc_of(bwsa_trace::BranchId::new(i as u32)))
                    .as_u32()
            })
            .collect();
        self.builder.ensure_nodes(self.table.len() as u32);
        let local = detect(trace).into_graph();
        for (a, b, w) in local.iter_edges() {
            self.builder
                .add_edge(remap[a as usize], remap[b as usize], w);
        }
        self.traces_merged += 1;
        self.total_dynamic += trace.len() as u64;
        self
    }

    /// The merged raw (unthresholded) conflict graph.
    pub fn raw_graph(&self) -> bwsa_graph::ConflictGraph {
        self.builder.build()
    }

    /// Thresholds the merged graph into a [`ConflictAnalysis`].
    pub fn conflict_analysis(&self, config: ConflictConfig) -> ConflictAnalysis {
        ConflictAnalysis::of_raw_graph(self.raw_graph(), config)
    }
}

/// The latest-stamp summary a time-contiguous shard leaves behind: for
/// each static branch, the timestamp of its last execution *within the
/// shard*, or `None` if the shard never executed it.
///
/// Joining boundaries left-to-right reproduces exactly the `last_stamp`
/// state the serial engine holds after consuming those shards in order,
/// because "latest stamp after A then B" is "B's stamp where B executed
/// the branch, else A's". The join is associative, which is what lets
/// shard summaries be computed concurrently and combined in a cheap
/// serial prefix pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBoundary {
    stamps: Vec<Option<u64>>,
}

impl ShardBoundary {
    /// The empty summary (no branch executed) over `nodes` branches —
    /// the identity of [`ShardBoundary::join`].
    pub fn empty(nodes: usize) -> Self {
        ShardBoundary {
            stamps: vec![None; nodes],
        }
    }

    /// Summarises one shard's records, given as pre-interned
    /// `(branch id, timestamp)` pairs over a `nodes`-branch trace.
    pub fn of_records(nodes: usize, records: impl Iterator<Item = (u32, u64)>) -> Self {
        let mut b = Self::empty(nodes);
        for (node, t) in records {
            b.stamps[node as usize] = Some(t);
        }
        b
    }

    /// Folds a *later* shard's summary onto this one: wherever the later
    /// shard executed a branch, its stamp supersedes ours.
    pub fn join(&mut self, later: &ShardBoundary) -> &mut Self {
        if self.stamps.len() < later.stamps.len() {
            self.stamps.resize(later.stamps.len(), None);
        }
        for (mine, theirs) in self.stamps.iter_mut().zip(&later.stamps) {
            if theirs.is_some() {
                *mine = *theirs;
            }
        }
        self
    }

    /// The latest stamp per branch, indexed by branch id.
    pub fn stamps(&self) -> &[Option<u64>] {
        &self.stamps
    }
}

/// One shard's contribution to the whole-trace analysis: the interleave
/// edges its records detect (given the exact pre-shard engine state) plus
/// its per-branch execution statistics.
///
/// Merging deltas left-to-right is a pure integer sum per edge and per
/// stat counter, so the combined result is bit-identical to a serial pass
/// — u64 addition is associative and the first/last timestamps compose by
/// taking the earliest/latest populated entry.
#[derive(Debug, Clone)]
pub struct ShardDelta {
    pub(crate) builder: GraphBuilder,
    pub(crate) stats: Vec<BranchStats>,
    pub(crate) records: u64,
}

impl ShardDelta {
    /// The empty contribution over `nodes` branches — the identity of
    /// [`ShardDelta::merge`].
    pub fn empty(nodes: usize) -> Self {
        ShardDelta {
            builder: GraphBuilder::new(nodes as u32),
            stats: vec![BranchStats::default(); nodes],
            records: 0,
        }
    }

    /// Runs the Figure 1 engine over one shard's records, seeded with the
    /// latest-stamp state `carry` accumulated by every earlier shard.
    ///
    /// `records` yields pre-interned `(branch id, timestamp, taken)`
    /// triples in trace order. Because the carry-in is exactly the state
    /// the serial engine would hold at the shard's first record, the edges
    /// detected here are exactly the edges the serial pass detects over
    /// the same record range.
    pub fn of_shard(
        nodes: usize,
        carry: &ShardBoundary,
        records: impl Iterator<Item = (u32, u64, bool)>,
    ) -> Self {
        let mut last_stamp = carry.stamps.clone();
        last_stamp.resize(nodes, None);
        let mut acc = Accumulator::resume(last_stamp, ShardDelta::empty(nodes));
        for (node, t, taken) in records {
            acc.push(node, t, taken);
        }
        acc.into_delta()
    }

    /// Folds a *later* shard's contribution onto this one.
    pub fn merge(&mut self, later: &ShardDelta) -> &mut Self {
        self.builder.merge(&later.builder);
        if self.stats.len() < later.stats.len() {
            self.stats.resize(later.stats.len(), BranchStats::default());
        }
        for (mine, theirs) in self.stats.iter_mut().zip(&later.stats) {
            if theirs.executions == 0 {
                continue;
            }
            if mine.executions == 0 {
                *mine = *theirs;
            } else {
                mine.executions += theirs.executions;
                mine.taken += theirs.taken;
                mine.last_time = theirs.last_time;
            }
        }
        self.records += later.records;
        self
    }

    /// Dynamic records this delta accounts for.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Compiles the accumulated interleave edges into an immutable graph.
    pub fn into_graph(self) -> bwsa_graph::ConflictGraph {
        self.builder.build()
    }

    /// The whole-trace [`Analysis`] of a fully folded delta, through the
    /// observed assembly step every engine shares.
    pub(crate) fn into_analysis(self, pipeline: &AnalysisPipeline, obs: &Obs) -> Analysis {
        let profile = BranchProfile::from_parts(self.stats, self.records);
        pipeline.assemble(profile, self.builder.build(), obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave_counts;
    use bwsa_trace::TraceBuilder;

    fn pair_trace(pc_a: u64, pc_b: u64, rounds: u64) -> Trace {
        let mut t = TraceBuilder::new("pair");
        for i in 0..rounds * 2 {
            t.record(if i % 2 == 0 { pc_a } else { pc_b }, true, i + 1);
        }
        t.finish()
    }

    #[test]
    fn merging_same_trace_doubles_weights() {
        let t = pair_trace(0x100, 0x104, 200);
        let single = interleave_counts(&t).build();
        let mut cp = CumulativeProfile::new();
        cp.add_trace(&t).add_trace(&t);
        let merged = cp.raw_graph();
        assert_eq!(
            merged.edge_weight(0, 1),
            single.edge_weight(0, 1).map(|w| w * 2)
        );
        assert_eq!(cp.traces_merged(), 2);
        assert_eq!(cp.total_dynamic(), 2 * t.len() as u64);
    }

    #[test]
    fn disjoint_inputs_union_their_branches() {
        let a = pair_trace(0x100, 0x104, 200);
        let b = pair_trace(0x200, 0x204, 200);
        let mut cp = CumulativeProfile::new();
        cp.add_trace(&a).add_trace(&b);
        assert_eq!(cp.table().len(), 4);
        let g = cp.raw_graph();
        assert_eq!(g.edge_count(), 2);
        // No cross-input edges: the graphs were merged, not concatenated.
        let a0 = cp.table().id_of(0x100.into()).unwrap().as_u32();
        let b0 = cp.table().id_of(0x200.into()).unwrap().as_u32();
        assert!(!g.has_edge(a0, b0));
    }

    #[test]
    fn shared_branches_are_identified_by_pc() {
        // Both inputs exercise 0x104; it must be a single union node.
        let a = pair_trace(0x100, 0x104, 200);
        let b = pair_trace(0x104, 0x108, 200);
        let mut cp = CumulativeProfile::new();
        cp.add_trace(&a).add_trace(&b);
        assert_eq!(cp.table().len(), 3);
        let shared = cp.table().id_of(0x104.into()).unwrap().as_u32();
        let g = cp.raw_graph();
        assert_eq!(g.degree(shared), 2, "edges to both inputs' partners");
    }

    #[test]
    fn thresholding_applies_to_merged_weights() {
        // Each input alone contributes ~79 detections per direction — under
        // a threshold of 150 — but the merge crosses it.
        let t = pair_trace(0x100, 0x104, 40);
        let single = ConflictAnalysis::of_raw_graph(
            interleave_counts(&t).build(),
            ConflictConfig::with_threshold(150).unwrap(),
        );
        assert_eq!(single.graph.edge_count(), 0);
        let mut cp = CumulativeProfile::new();
        cp.add_trace(&t).add_trace(&t);
        let merged = cp.conflict_analysis(ConflictConfig::with_threshold(150).unwrap());
        assert_eq!(merged.graph.edge_count(), 1);
    }

    #[test]
    fn empty_profile_yields_empty_graph() {
        let cp = CumulativeProfile::new();
        assert_eq!(cp.raw_graph().node_count(), 0);
        assert_eq!(cp.traces_merged(), 0);
    }

    fn shard_inputs(t: &Trace) -> Vec<(u32, u64, bool)> {
        t.indexed_records()
            .map(|(id, r)| (id.as_u32(), r.time.get(), r.is_taken()))
            .collect()
    }

    #[test]
    fn boundary_join_matches_sequential_scan() {
        let t = pair_trace(0x100, 0x104, 50);
        let all = shard_inputs(&t);
        let n = t.static_branch_count();
        for split in [0, 1, 37, all.len()] {
            let (lo, hi) = all.split_at(split);
            let mut joined = ShardBoundary::of_records(n, lo.iter().map(|&(b, t, _)| (b, t)));
            joined.join(&ShardBoundary::of_records(
                n,
                hi.iter().map(|&(b, t, _)| (b, t)),
            ));
            let whole = ShardBoundary::of_records(n, all.iter().map(|&(b, t, _)| (b, t)));
            assert_eq!(joined, whole, "split {split}");
        }
    }

    #[test]
    fn seeded_shard_deltas_reassemble_the_serial_graph() {
        let t = pair_trace(0x100, 0x104, 80);
        let all = shard_inputs(&t);
        let n = t.static_branch_count();
        let serial = interleave_counts(&t).build();
        for split in [0, 1, 79, all.len()] {
            let (lo, hi) = all.split_at(split);
            let mut acc = ShardDelta::of_shard(n, &ShardBoundary::empty(n), lo.iter().copied());
            let carry = ShardBoundary::of_records(n, lo.iter().map(|&(b, t, _)| (b, t)));
            acc.merge(&ShardDelta::of_shard(n, &carry, hi.iter().copied()));
            assert_eq!(acc.builder.build(), serial, "split {split}");
            assert_eq!(acc.record_count(), t.len() as u64);
        }
    }

    #[test]
    fn delta_merge_accumulates_stats_like_a_serial_profile() {
        let t = pair_trace(0x100, 0x104, 30);
        let all = shard_inputs(&t);
        let n = t.static_branch_count();
        let expected = bwsa_trace::profile::BranchProfile::from_trace(&t);
        let (lo, hi) = all.split_at(17);
        let mut acc = ShardDelta::of_shard(n, &ShardBoundary::empty(n), lo.iter().copied());
        let carry = ShardBoundary::of_records(n, lo.iter().map(|&(b, t, _)| (b, t)));
        acc.merge(&ShardDelta::of_shard(n, &carry, hi.iter().copied()));
        for id in 0..n as u32 {
            let got = acc.stats[id as usize];
            let want = *expected.stats(bwsa_trace::BranchId::new(id));
            assert_eq!(got, want, "branch {id}");
        }
    }

    #[test]
    fn empty_shard_is_the_merge_identity() {
        let t = pair_trace(0x100, 0x104, 10);
        let n = t.static_branch_count();
        let base = ShardDelta::of_shard(n, &ShardBoundary::empty(n), shard_inputs(&t).into_iter());
        let mut with_identity = base.clone();
        with_identity.merge(&ShardDelta::empty(n));
        assert_eq!(with_identity.builder.build(), base.builder.build());
        assert_eq!(with_identity.stats, base.stats);
        assert_eq!(with_identity.records, base.records);
    }
}
