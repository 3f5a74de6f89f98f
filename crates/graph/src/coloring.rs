//! K-coloring with merge-instead-of-spill, after Chaitin/Briggs.
//!
//! Branch allocation "closely follows a graph coloring based register
//! allocation technique" (§5.1) with one crucial difference: running out of
//! colors never spills. "If it is determined that a working set has too
//! many member branch instructions for a one to one mapping into the BHT
//! table, multiple branches within the same working set are mapped to the
//! same BHT entry location. The allocation routine chooses the branches
//! with the fewest conflicts ... to minimize contention."
//!
//! Concretely: simplify removes nodes with degree `< K` first; when stuck
//! it optimistically removes the remaining node with the *fewest* weighted
//! conflicts (the cheapest branch to share an entry). Select then assigns
//! each node the color minimising the interleave weight to already-colored
//! neighbors — zero when a conflict-free color exists.

use crate::ConflictGraph;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// How the optimistic (merge) candidate is chosen when no node has degree
/// below K.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeOrder {
    /// Fewest weighted conflicts first — the paper's choice.
    #[default]
    MinWeightedDegree,
    /// Fewest neighbors first, ignoring weights.
    MinDegree,
    /// Heaviest node first (a deliberately bad baseline for ablation).
    MaxWeightedDegree,
}

/// Options controlling [`color_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColoringOptions {
    /// Merge-candidate selection heuristic.
    pub merge_order: MergeOrder,
}

/// A color assignment of every node of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Number of colors the coloring was asked to use.
    pub colors: usize,
    /// `assignment[node]` is the node's color in `0..colors`.
    pub assignment: Vec<u32>,
    /// Total weight of edges whose endpoints share a color.
    pub conflict_mass: u64,
    /// Number of edges whose endpoints share a color.
    pub conflicting_edges: usize,
}

impl Coloring {
    /// The color of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn color_of(&self, node: u32) -> u32 {
        self.assignment[node as usize]
    }

    /// Number of distinct colors actually used.
    pub fn used_colors(&self) -> usize {
        let mut seen = vec![false; self.colors];
        for &c in &self.assignment {
            seen[c as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Returns `true` if no edge joins two same-colored nodes.
    pub fn is_proper(&self) -> bool {
        self.conflicting_edges == 0
    }
}

/// Computes the conflict mass and conflicting-edge count of an arbitrary
/// assignment (`assignment[node] = color`).
///
/// This is the metric Tables 3 and 4 are built on: the paper asks for the
/// BHT size at which allocation "reduce\[s\] the table conflicts to below
/// that of a 1024-entry conventional BHT", and the natural quantification
/// of "table conflicts" is the interleave weight carried by same-entry
/// branch pairs.
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the graph's node count.
pub fn conflict_mass(graph: &ConflictGraph, assignment: &[u32]) -> (u64, usize) {
    assert_eq!(
        assignment.len(),
        graph.node_count(),
        "assignment length must equal node count"
    );
    let mut mass = 0u64;
    let mut edges = 0usize;
    for (a, b, w) in graph.iter_edges() {
        if assignment[a as usize] == assignment[b as usize] {
            mass += w;
            edges += 1;
        }
    }
    (mass, edges)
}

/// Colors `graph` with at most `k` colors, merging (sharing colors) when
/// `k` is insufficient.
///
/// Every node receives a color in `0..k`; the returned
/// [`Coloring::conflict_mass`] reports the residual same-color interleave
/// weight (zero when `k` exceeds the graph's degeneracy).
///
/// # Panics
///
/// Panics if `k == 0` and the graph has nodes to color; use
/// [`try_color_graph`] to get a typed error instead.
///
/// # Example
///
/// ```
/// use bwsa_graph::{coloring::{color_graph, ColoringOptions}, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 10).add_edge(1, 2, 10).add_edge(0, 2, 10);
/// let g = b.build();
///
/// let three = color_graph(&g, 3, &ColoringOptions::default());
/// assert!(three.is_proper());
///
/// let two = color_graph(&g, 2, &ColoringOptions::default());
/// assert_eq!(two.conflict_mass, 10, "one pair must share");
/// ```
pub fn color_graph(graph: &ConflictGraph, k: usize, options: &ColoringOptions) -> Coloring {
    match try_color_graph(graph, k, options) {
        Ok(coloring) => coloring,
        Err(e) => panic!("{e}"),
    }
}

/// [`color_graph`] with the unusable-configuration case surfaced as a
/// typed error instead of a panic.
///
/// # Errors
///
/// Returns [`GraphError::ZeroColors`](crate::GraphError::ZeroColors) when `k == 0` and the graph has
/// nodes to color.
pub fn try_color_graph(
    graph: &ConflictGraph,
    k: usize,
    options: &ColoringOptions,
) -> Result<Coloring, crate::GraphError> {
    bwsa_resilience::failpoint!("graph.color");
    let n = graph.node_count();
    if n == 0 {
        return Ok(Coloring {
            colors: k,
            assignment: Vec::new(),
            conflict_mass: 0,
            conflicting_edges: 0,
        });
    }
    if k == 0 {
        return Err(crate::GraphError::ZeroColors { nodes: n });
    }

    // --- Simplify phase -------------------------------------------------
    let mut cur_deg: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut stack: Vec<u32> = Vec::with_capacity(n);
    let mut low: VecDeque<u32> = (0..n as u32).filter(|&v| cur_deg[v as usize] < k).collect();

    // Merge candidates, cheapest first. Keyed by the heuristic's static
    // score; BinaryHeap is a max-heap so scores are negated via Reverse.
    let score = |v: u32| -> u64 {
        match options.merge_order {
            MergeOrder::MinWeightedDegree => graph.weighted_degree(v),
            MergeOrder::MinDegree => graph.degree(v) as u64,
            MergeOrder::MaxWeightedDegree => u64::MAX - graph.weighted_degree(v),
        }
    };
    let mut merge_heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..n as u32)
        .map(|v| std::cmp::Reverse((score(v), v)))
        .collect();

    let mut remaining = n;
    while remaining > 0 {
        let v = loop {
            if let Some(v) = low.pop_front() {
                if !removed[v as usize] {
                    break v;
                }
            } else {
                // No trivially colorable node: optimistically push the
                // cheapest merge candidate.
                let std::cmp::Reverse((_, v)) = merge_heap
                    .pop()
                    .expect("remaining nodes imply heap entries");
                if !removed[v as usize] {
                    break v;
                }
            }
        };
        removed[v as usize] = true;
        remaining -= 1;
        stack.push(v);
        for &nb in graph.neighbors(v) {
            if !removed[nb as usize] {
                cur_deg[nb as usize] -= 1;
                if cur_deg[nb as usize] + 1 == k {
                    low.push_back(nb);
                }
            }
        }
    }

    // --- Select phase ---------------------------------------------------
    // Each node takes the color minimising its weighted conflict with
    // already-colored neighbors; among equal-cost colors the least-loaded
    // one wins, spreading branches across the whole table instead of
    // packing every working set into the same low entries (distinct
    // working sets rarely conflict *above threshold*, but sharing an
    // entry still costs a history warm-up at every phase change).
    //
    // That is the minimum of `(cost, usage, color)`, found in
    // O(degree + log k): cost accumulates only on the neighbors' colors,
    // and the colors are kept ordered by `(usage, color)`, so the winner
    // is the first color in that order with no cost. It lies within the
    // first `degree + 1`, unless every color has a cost.
    const UNCOLORED: u32 = u32::MAX;
    let mut assignment = vec![UNCOLORED; n];
    let mut usage = vec![0u32; k];
    let mut by_usage: BTreeSet<(u32, u32)> = (0..k as u32).map(|c| (0, c)).collect();
    let mut cost = vec![0u64; k];
    let mut costly: Vec<u32> = Vec::new();
    while let Some(v) = stack.pop() {
        for (nb, w) in graph.neighbor_weights(v) {
            let c = assignment[nb as usize];
            if c != UNCOLORED && w > 0 {
                if cost[c as usize] == 0 {
                    costly.push(c);
                }
                cost[c as usize] += w;
            }
        }
        let best = if costly.len() < k {
            by_usage
                .iter()
                .find(|&&(_, c)| cost[c as usize] == 0)
                .map(|&(_, c)| c)
        } else {
            costly
                .iter()
                .copied()
                .min_by_key(|&c| (cost[c as usize], usage[c as usize], c))
        }
        .expect("k > 0");
        for c in costly.drain(..) {
            cost[c as usize] = 0;
        }
        let uses = &mut usage[best as usize];
        by_usage.remove(&(*uses, best));
        *uses += 1;
        by_usage.insert((*uses, best));
        assignment[v as usize] = best;
    }

    let (conflict_mass, conflicting_edges) = self::conflict_mass(graph, &assignment);
    Ok(Coloring {
        colors: k,
        assignment,
        conflict_mass,
        conflicting_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn complete(n: u32, w: u64) -> ConflictGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(i, j, w);
            }
        }
        b.build()
    }

    #[test]
    fn enough_colors_is_proper() {
        let g = complete(5, 10);
        for order in [
            MergeOrder::MinWeightedDegree,
            MergeOrder::MinDegree,
            MergeOrder::MaxWeightedDegree,
        ] {
            let c = color_graph(&g, 5, &ColoringOptions { merge_order: order });
            assert!(c.is_proper(), "{order:?}");
            assert_eq!(c.used_colors(), 5);
        }
    }

    #[test]
    fn bipartite_needs_two() {
        // 3x3 complete bipartite graph.
        let mut b = GraphBuilder::new(6);
        for i in 0..3 {
            for j in 3..6 {
                b.add_edge(i, j, 1);
            }
        }
        let c = color_graph(&b.build(), 2, &ColoringOptions::default());
        assert!(c.is_proper());
    }

    #[test]
    fn too_few_colors_merges_with_minimal_mass() {
        // Triangle with one light edge: with 2 colors the light pair
        // should end up sharing.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 100).add_edge(1, 2, 100).add_edge(0, 2, 1);
        let c = color_graph(&b.build(), 2, &ColoringOptions::default());
        assert_eq!(c.conflict_mass, 1);
        assert_eq!(c.conflicting_edges, 1);
        assert_eq!(c.color_of(0), c.color_of(2));
    }

    #[test]
    fn single_color_puts_everything_together() {
        let g = complete(4, 5);
        let c = color_graph(&g, 1, &ColoringOptions::default());
        assert_eq!(c.conflict_mass, g.total_weight());
        assert_eq!(c.conflicting_edges, g.edge_count());
        assert_eq!(c.used_colors(), 1);
    }

    #[test]
    fn conflict_mass_matches_reported() {
        let g = complete(6, 3);
        for k in 1..=6 {
            let c = color_graph(&g, k, &ColoringOptions::default());
            let (mass, edges) = conflict_mass(&g, &c.assignment);
            assert_eq!(mass, c.conflict_mass);
            assert_eq!(edges, c.conflicting_edges);
        }
    }

    #[test]
    fn mass_is_nonincreasing_in_k_on_complete_graph() {
        let g = complete(8, 2);
        let mut prev = u64::MAX;
        for k in 1..=8 {
            let c = color_graph(&g, k, &ColoringOptions::default());
            assert!(c.conflict_mass <= prev, "k={k}");
            prev = c.conflict_mass;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn complete_graph_with_k_colors_balances() {
        // K6 with 3 colors: best is 3 pairs → mass = 3 edges of weight w.
        let g = complete(6, 10);
        let c = color_graph(&g, 3, &ColoringOptions::default());
        assert_eq!(c.conflicting_edges, 3);
        assert_eq!(c.conflict_mass, 30);
    }

    #[test]
    fn isolated_nodes_color_trivially() {
        let g = GraphBuilder::new(4).build();
        let c = color_graph(&g, 1, &ColoringOptions::default());
        assert!(c.is_proper());
        assert_eq!(c.assignment, vec![0, 0, 0, 0]);
    }

    #[test]
    fn empty_graph_is_fine_even_with_zero_colors() {
        let g = GraphBuilder::new(0).build();
        let c = color_graph(&g, 0, &ColoringOptions::default());
        assert!(c.assignment.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero colors")]
    fn zero_colors_with_nodes_panics() {
        color_graph(
            &GraphBuilder::new(1).build(),
            0,
            &ColoringOptions::default(),
        );
    }

    #[test]
    fn try_coloring_surfaces_zero_colors_as_a_typed_error() {
        let err = try_color_graph(
            &GraphBuilder::new(2).build(),
            0,
            &ColoringOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, crate::GraphError::ZeroColors { nodes: 2 });
        assert!(try_color_graph(
            &GraphBuilder::new(0).build(),
            0,
            &ColoringOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn conflict_free_nodes_spread_across_the_table() {
        // 12 isolated nodes, 4 colors: least-loaded tie-breaking must
        // balance them 3 per color rather than packing color 0.
        let g = GraphBuilder::new(12).build();
        let c = color_graph(&g, 4, &ColoringOptions::default());
        assert_eq!(c.used_colors(), 4);
        let mut counts = [0usize; 4];
        for &col in &c.assignment {
            counts[col as usize] += 1;
        }
        assert_eq!(counts, [3, 3, 3, 3]);
    }

    #[test]
    fn all_colors_in_range() {
        let g = complete(7, 1);
        let c = color_graph(&g, 3, &ColoringOptions::default());
        assert!(c.assignment.iter().all(|&c| c < 3));
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn conflict_mass_validates_length() {
        conflict_mass(&complete(3, 1), &[0, 1]);
    }
}
