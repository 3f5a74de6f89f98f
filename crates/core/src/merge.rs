//! Cumulative multi-input profiles (§5.2).
//!
//! A profile-based technique is only as good as its profile's coverage.
//! The paper observes that profiles from different inputs exercise
//! different program regions (`ss_a` vs `ss_b`) and proposes merging "the
//! branch conflict graphs of several profiles from different input data
//! ... until the resulting graph indicates that most part of the program
//! has been exercised". Because each trace interns its own dense branch
//! ids, merging goes through program counters: [`CumulativeProfile`]
//! maintains a union [`BranchTable`] and remaps every per-trace
//! interleave graph into it.

use crate::conflict::{ConflictAnalysis, ConflictConfig};
use crate::interleave::detect;
use bwsa_graph::GraphBuilder;
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
        detect(trace).edges(|a, b, w| {
            self.builder
                .add_edge(remap[a as usize], remap[b as usize], w);
        });
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
}
