//! Branch allocation: compiler-directed assignment of branches to BHT
//! entries (§5).
//!
//! Allocation colors the branch conflict graph "in much the same manner as
//! a graph coloring based register allocator specifies a register for each
//! variable", except that running out of entries *merges* rather than
//! spills: the branches with the fewest conflicts share an entry
//! (§5.1). With classification (§5.2), all highly biased branches share
//! two reserved entries — one per direction — and only the mixed branches
//! compete for the rest.
//!
//! The "BHT size required" experiments (Tables 3 and 4) ask for the
//! smallest table at which allocation's residual conflicts drop below a
//! conventional 1024-entry pc-indexed BHT's. Conflicts are quantified as
//! **conflict mass**: the total interleave weight carried by branch pairs
//! that share a table entry ([`conventional_conflict_mass`] for pc
//! indexing, [`Allocation::conflict_mass`] for allocation).

use crate::classify::{BiasClass, Classification};
use bwsa_graph::coloring::{color_graph, ColoringOptions};
use bwsa_graph::ConflictGraph;
use bwsa_predictor::AllocatedIndex;
use bwsa_trace::{BranchId, BranchTable};

/// Options for the allocation routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocationConfig {
    /// Coloring heuristics (merge-candidate order).
    pub coloring: ColoringOptions,
}

/// A complete branch → BHT entry assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// The assignment, ready to drive a
    /// [`bwsa_predictor::BhtIndexer::Allocated`] PAg.
    pub index: AllocatedIndex,
    /// Residual conflict mass: interleave weight between distinct branches
    /// sharing an entry. Under classification, only conflicts the paper
    /// considers harmful are counted (same-biased-class sharing is free).
    pub conflict_mass: u64,
    /// Number of conflicting branch pairs contributing to the mass.
    pub conflicting_pairs: usize,
}

/// Entry-level occupancy view of an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Entries holding at least one branch.
    pub used_entries: usize,
    /// Largest number of branches sharing one entry.
    pub max_per_entry: usize,
    /// Mean branches per *used* entry.
    pub mean_per_used_entry: f64,
}

impl Allocation {
    /// The BHT size this allocation targets.
    pub fn table_size(&self) -> usize {
        self.index.table_size()
    }

    /// Computes how branches spread across the table.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_core::allocation::{allocate, AllocationConfig};
    /// use bwsa_graph::GraphBuilder;
    ///
    /// let mut b = GraphBuilder::new(4);
    /// b.add_edge(0, 1, 10).add_edge(2, 3, 10);
    /// let a = allocate(&b.build(), 4, &AllocationConfig::default());
    /// let occ = a.occupancy();
    /// assert_eq!(occ.used_entries, 4, "spreading uses the whole table");
    /// assert_eq!(occ.max_per_entry, 1);
    /// ```
    pub fn occupancy(&self) -> Occupancy {
        let mut counts = vec![0usize; self.index.table_size()];
        for (_, entry) in self.index.iter() {
            counts[entry as usize] += 1;
        }
        let used: Vec<usize> = counts.into_iter().filter(|&c| c > 0).collect();
        let total: usize = used.iter().sum();
        Occupancy {
            used_entries: used.len(),
            max_per_entry: used.iter().copied().max().unwrap_or(0),
            mean_per_used_entry: if used.is_empty() {
                0.0
            } else {
                total as f64 / used.len() as f64
            },
        }
    }
}

/// Allocates every branch of `graph` into a `table_size`-entry BHT by
/// graph coloring (§5.1, no classification).
///
/// # Panics
///
/// Panics if `table_size` is zero while the graph has nodes.
pub fn allocate(graph: &ConflictGraph, table_size: usize, config: &AllocationConfig) -> Allocation {
    let coloring = color_graph(graph, table_size, &config.coloring);
    let entries = coloring.assignment.iter().map(|&c| Some(c)).collect();
    Allocation {
        index: AllocatedIndex::new(table_size, entries).expect("colors are in range"),
        conflict_mass: coloring.conflict_mass,
        conflicting_pairs: coloring.conflicting_edges,
    }
}

/// Allocates with branch classification (§5.2): biased-taken branches all
/// share entry 0, biased-not-taken branches entry 1, and the mixed
/// branches are colored into the remaining `table_size − 2` entries over
/// the classification-refined graph.
///
/// # Panics
///
/// Panics if `table_size < 3` or the classification does not match the
/// graph's node count.
pub fn allocate_classified(
    graph: &ConflictGraph,
    classification: &Classification,
    table_size: usize,
    config: &AllocationConfig,
) -> Allocation {
    assert!(
        table_size >= 3,
        "classified allocation needs 2 reserved entries plus at least 1"
    );
    let refined = classification.refine_graph(graph);
    let mixed_only =
        refined.induced(|n| classification.class(BranchId::new(n)) == BiasClass::Mixed);
    let coloring = color_graph(&mixed_only, table_size - 2, &config.coloring);
    let entries = (0..graph.node_count())
        .map(|i| {
            Some(match classification.class(BranchId::new(i as u32)) {
                BiasClass::BiasedTaken => 0,
                BiasClass::BiasedNotTaken => 1,
                BiasClass::Mixed => coloring.assignment[i] + 2,
            })
        })
        .collect();
    Allocation {
        index: AllocatedIndex::new(table_size, entries).expect("entries in range"),
        conflict_mass: coloring.conflict_mass,
        conflicting_pairs: coloring.conflicting_edges,
    }
}

/// Conflict mass of conventional pc-modulo indexing: total interleave
/// weight of branch pairs whose pcs map to the same entry of a
/// `table_size`-entry BHT.
///
/// # Panics
///
/// Panics if the graph has more nodes than `table` has interned branches,
/// or `table_size` is zero.
pub fn conventional_conflict_mass(
    graph: &ConflictGraph,
    table: &BranchTable,
    table_size: usize,
) -> u64 {
    assert!(
        graph.node_count() <= table.len(),
        "graph nodes must be interned branches"
    );
    graph
        .iter_edges()
        .filter(|&(a, b, _)| {
            table.pc_of(BranchId::new(a)).table_index(table_size)
                == table.pc_of(BranchId::new(b)).table_index(table_size)
        })
        .map(|(_, _, w)| w)
        .sum()
}

/// Result of a required-size search (one Table 3 / Table 4 cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequiredSize {
    /// Smallest table size whose allocation mass is at or below the target.
    pub size: usize,
    /// The conventional baseline's conflict mass (the bar to clear).
    pub target_mass: u64,
    /// The allocation's mass at `size`.
    pub achieved_mass: u64,
}

fn search_required(
    min_size: usize,
    max_size: usize,
    target_mass: u64,
    mut mass_at: impl FnMut(usize) -> u64,
) -> RequiredSize {
    // Exponential probe upward, then binary search. Coloring mass is not
    // perfectly monotone in the table size, so the found boundary is
    // verified and nudged if needed.
    let mut lo = min_size; // invariant: mass(lo) may exceed target
    if mass_at(lo) <= target_mass {
        return RequiredSize {
            size: lo,
            target_mass,
            achieved_mass: mass_at(lo),
        };
    }
    let mut hi = (lo * 2).max(lo + 1);
    while hi < max_size && mass_at(hi) > target_mass {
        lo = hi;
        hi *= 2;
    }
    let mut hi = hi.min(max_size);
    // Binary search on the predicate mass(k) <= target.
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if mass_at(mid) <= target_mass {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    RequiredSize {
        size: hi,
        target_mass,
        achieved_mass: mass_at(hi),
    }
}

/// Finds the smallest BHT size at which plain branch allocation's conflict
/// mass drops to (or below) that of a conventional `baseline_size`-entry
/// pc-indexed BHT — one Table 3 row.
///
/// # Panics
///
/// Panics if the graph is empty of nodes or `baseline_size` is zero.
pub fn required_bht_size(
    graph: &ConflictGraph,
    table: &BranchTable,
    baseline_size: usize,
    config: &AllocationConfig,
) -> RequiredSize {
    let target = conventional_conflict_mass(graph, table, baseline_size);
    let n = graph.node_count().max(1);
    search_required(1, n + 1, target, |k| {
        allocate(graph, k, config).conflict_mass
    })
}

/// Finds the smallest BHT size for *classified* allocation (two reserved
/// biased entries) to beat the conventional baseline — one Table 4 row.
///
/// The baseline's mass is measured on the classification-refined graph:
/// conflicts between two same-class biased branches are harmless no
/// matter which scheme maps them together, so they are not counted on
/// either side of the comparison.
///
/// # Panics
///
/// Panics if the classification does not match the graph or
/// `baseline_size` is zero.
pub fn required_bht_size_classified(
    graph: &ConflictGraph,
    classification: &Classification,
    table: &BranchTable,
    baseline_size: usize,
    config: &AllocationConfig,
) -> RequiredSize {
    let refined = classification.refine_graph(graph);
    let target = conventional_conflict_mass(&refined, table, baseline_size);
    let n = graph.node_count().max(1);
    search_required(3, n + 3, target, |k| {
        allocate_classified(graph, classification, k, config).conflict_mass
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use bwsa_graph::GraphBuilder;
    use bwsa_trace::{profile::BranchProfile, TraceBuilder};

    /// A clique of `n` branches with unit-spaced pcs starting at 0x1000.
    fn clique_graph(n: u32, w: u64) -> (ConflictGraph, BranchTable) {
        let mut b = GraphBuilder::new(n);
        let mut table = BranchTable::new();
        for i in 0..n {
            table.intern(bwsa_trace::Pc::new(0x1000 + u64::from(i) * 4));
            for j in (i + 1)..n {
                b.add_edge(i, j, w);
            }
        }
        (b.build(), table)
    }

    #[test]
    fn allocation_with_enough_entries_is_conflict_free() {
        let (g, _) = clique_graph(6, 500);
        let a = allocate(&g, 6, &AllocationConfig::default());
        assert_eq!(a.conflict_mass, 0);
        assert_eq!(a.table_size(), 6);
        assert_eq!(a.index.assigned_count(), 6);
    }

    #[test]
    fn allocation_mass_matches_shared_pairs() {
        let (g, _) = clique_graph(4, 10);
        let a = allocate(&g, 2, &AllocationConfig::default());
        // 4 branches in 2 entries: 2 pairs share → mass 20.
        assert_eq!(a.conflict_mass, 20);
        assert_eq!(a.conflicting_pairs, 2);
    }

    #[test]
    fn conventional_mass_counts_pc_collisions() {
        let (g, table) = clique_graph(4, 10);
        // Table size 2: pcs 0x400,0x401,0x402,0x403 (word) → entries
        // 0,1,0,1 → pairs (0,2) and (1,3) collide.
        assert_eq!(conventional_conflict_mass(&g, &table, 2), 20);
        // Size 4: all distinct.
        assert_eq!(conventional_conflict_mass(&g, &table, 4), 0);
        // Size 1: all 6 pairs collide.
        assert_eq!(conventional_conflict_mass(&g, &table, 1), 60);
    }

    #[test]
    fn required_size_beats_a_colliding_baseline() {
        let (g, table) = clique_graph(8, 100);
        // Baseline of size 4 collides pairs; allocation should need <= 8
        // and more than 1 entry.
        let r = required_bht_size(&g, &table, 4, &AllocationConfig::default());
        assert!(r.size <= 8);
        assert!(r.size > 1);
        assert!(r.achieved_mass <= r.target_mass);
    }

    #[test]
    fn required_size_is_one_when_baseline_is_total() {
        // Baseline size 1 collides everything: any allocation ties it.
        let (g, table) = clique_graph(5, 7);
        let r = required_bht_size(&g, &table, 1, &AllocationConfig::default());
        assert_eq!(r.size, 1);
        assert_eq!(r.achieved_mass, r.target_mass);
    }

    #[test]
    fn zero_target_requires_proper_coloring() {
        let (g, table) = clique_graph(5, 7);
        // Baseline 1024: no collisions → target 0 → need 5 colors.
        let r = required_bht_size(&g, &table, 1024, &AllocationConfig::default());
        assert_eq!(r.size, 5);
        assert_eq!(r.achieved_mass, 0);
    }

    /// A trace with 2 biased-taken, 2 biased-not-taken, and 3 mixed
    /// branches, all interleaving heavily.
    fn classified_fixture() -> (ConflictGraph, Classification, BranchTable) {
        let mut t = TraceBuilder::new("c");
        let mut time = 0;
        for round in 0..400u64 {
            for (i, taken) in [
                (0u64, true),
                (1, true),
                (2, false),
                (3, false),
                (4, round % 2 == 0),
                (5, round % 3 == 0),
                (6, round % 5 == 0),
            ] {
                time += 1;
                t.record(0x1000 + i * 4, taken, time);
            }
        }
        let trace = t.finish();
        let graph = crate::interleave_counts(&trace).build().pruned(100);
        let profile = BranchProfile::from_trace(&trace);
        let classification = classify(&profile);
        (graph, classification, trace.table().clone())
    }

    #[test]
    fn classified_allocation_reserves_two_entries() {
        let (g, c, _) = classified_fixture();
        assert_eq!(c.counts(), (2, 2, 3));
        let a = allocate_classified(&g, &c, 5, &AllocationConfig::default());
        assert_eq!(a.index.entry(BranchId::new(0)), Some(0));
        assert_eq!(a.index.entry(BranchId::new(1)), Some(0));
        assert_eq!(a.index.entry(BranchId::new(2)), Some(1));
        assert_eq!(a.index.entry(BranchId::new(3)), Some(1));
        for i in 4..7 {
            assert!(a.index.entry(BranchId::new(i)).unwrap() >= 2);
        }
        // 3 mixed branches in 3 free entries: zero counted mass.
        assert_eq!(a.conflict_mass, 0);
    }

    #[test]
    fn classification_shrinks_required_size() {
        let (g, c, table) = classified_fixture();
        // Baseline 2 entries: plenty of collisions among the 7 branches.
        let plain = required_bht_size(&g, &table, 2, &AllocationConfig::default());
        let classified =
            required_bht_size_classified(&g, &c, &table, 2, &AllocationConfig::default());
        // The reserved entries impose a floor of 3 on the classified size.
        assert!(
            classified.size <= plain.size.max(3),
            "classified {} vs plain {}",
            classified.size,
            plain.size
        );
    }

    #[test]
    fn classified_allocation_ignores_same_class_conflicts() {
        let (g, c, _) = classified_fixture();
        // Even with the minimum 3 entries (all mixed branches share one),
        // the mass counts only mixed-mixed sharing.
        let a = allocate_classified(&g, &c, 3, &AllocationConfig::default());
        let mixed_edges: u64 = g
            .iter_edges()
            .filter(|&(x, y, _)| {
                c.class(BranchId::new(x)) == BiasClass::Mixed
                    && c.class(BranchId::new(y)) == BiasClass::Mixed
            })
            .map(|(_, _, w)| w)
            .sum();
        assert_eq!(a.conflict_mass, mixed_edges);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn classified_allocation_needs_three_entries() {
        let (g, c, _) = classified_fixture();
        allocate_classified(&g, &c, 2, &AllocationConfig::default());
    }

    #[test]
    fn occupancy_reports_sharing() {
        let (g, _) = clique_graph(6, 5);
        let tight = allocate(&g, 2, &AllocationConfig::default());
        let occ = tight.occupancy();
        assert_eq!(occ.used_entries, 2);
        assert_eq!(occ.max_per_entry, 3);
        assert!((occ.mean_per_used_entry - 3.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_of_classified_reserves_biased_entries() {
        let (g, c, _) = classified_fixture();
        let a = allocate_classified(&g, &c, 16, &AllocationConfig::default());
        let occ = a.occupancy();
        // Entries 0 and 1 hold 2 branches each; 3 mixed spread out.
        assert_eq!(occ.max_per_entry, 2);
        assert_eq!(occ.used_entries, 5);
    }
}
