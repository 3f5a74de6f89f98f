//! Property-based tests for the graph crate.

#![recursion_limit = "256"]

use bwsa_graph::coloring::{ColoringOptions, MergeOrder};
use bwsa_graph::{clique, coloring, ConflictGraph, GraphBuilder};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Random simple graph on up to 24 nodes.
fn arb_graph() -> impl Strategy<Value = bwsa_graph::ConflictGraph> {
    (
        2u32..24,
        prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..5000), 0..150),
    )
        .prop_map(|(n, raw)| {
            let mut b = GraphBuilder::new(n);
            for (a, bb, w) in raw {
                let a = a % n;
                let bb = bb % n;
                if a != bb {
                    b.add_edge(a, bb, w);
                }
            }
            b.build()
        })
}

proptest! {
    #[test]
    fn builder_weight_equals_graph_weight(g in arb_graph()) {
        let from_edges: u64 = g.iter_edges().map(|(_, _, w)| w).sum();
        prop_assert_eq!(from_edges, g.total_weight());
        let by_degree: u64 = (0..g.node_count() as u32).map(|v| g.weighted_degree(v)).sum();
        prop_assert_eq!(by_degree, 2 * g.total_weight());
    }

    #[test]
    fn pruned_graph_has_no_light_edges(g in arb_graph(), t in 1u64..6000) {
        let p = g.pruned(t);
        prop_assert!(p.iter_edges().all(|(_, _, w)| w >= t));
        prop_assert_eq!(p.node_count(), g.node_count());
        // Pruning only removes: every surviving edge existed with equal weight.
        for (a, b, w) in p.iter_edges() {
            prop_assert_eq!(g.edge_weight(a, b), Some(w));
        }
    }

    #[test]
    fn partition_is_exact_cover_of_cliques(g in arb_graph()) {
        let sets = clique::greedy_clique_partition(&g);
        let mut seen = vec![false; g.node_count()];
        for set in &sets {
            prop_assert!(g.is_clique(set), "{:?} not a clique", set);
            for &v in set {
                prop_assert!(!seen[v as usize], "node {} in two sets", v);
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some node uncovered");
    }

    #[test]
    fn maximal_cliques_are_cliques_and_maximal(g in arb_graph()) {
        let e = clique::maximal_cliques(&g, 10_000);
        prop_assert!(!e.truncated);
        for c in &e.cliques {
            prop_assert!(g.is_clique(c));
            for v in 0..g.node_count() as u32 {
                if !c.contains(&v) {
                    prop_assert!(!c.iter().all(|&m| g.has_edge(v, m)),
                        "clique {:?} extendable by {}", c, v);
                }
            }
        }
        // Every node appears in at least one maximal clique.
        let mut covered = vec![false; g.node_count()];
        for c in &e.cliques {
            for &v in c {
                covered[v as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn coloring_covers_all_nodes_in_range(g in arb_graph(), k in 1usize..8) {
        let c = coloring::color_graph(&g, k, &coloring::ColoringOptions::default());
        prop_assert_eq!(c.assignment.len(), g.node_count());
        prop_assert!(c.assignment.iter().all(|&col| (col as usize) < k));
        let (mass, edges) = coloring::conflict_mass(&g, &c.assignment);
        prop_assert_eq!(mass, c.conflict_mass);
        prop_assert_eq!(edges, c.conflicting_edges);
    }

    #[test]
    fn enough_colors_gives_proper_coloring(g in arb_graph()) {
        // Max degree + 1 colors always suffice (greedy bound).
        let max_deg = (0..g.node_count() as u32).map(|v| g.degree(v)).max().unwrap_or(0);
        let c = coloring::color_graph(&g, max_deg + 1, &coloring::ColoringOptions::default());
        prop_assert!(c.is_proper());
    }

    #[test]
    fn coloring_mass_never_exceeds_total_weight(g in arb_graph(), k in 1usize..8) {
        let c = coloring::color_graph(&g, k, &coloring::ColoringOptions::default());
        prop_assert!(c.conflict_mass <= g.total_weight());
    }
}

/// One batch of weighted-edge insertions.
type EdgeOps = Vec<(u32, u32, u64)>;

/// Edit scripts for the accumulator equivalence test: two batches of
/// add-edge operations, the second read back out of another builder.
fn arb_ops() -> impl Strategy<Value = (u32, EdgeOps, EdgeOps)> {
    (
        2u32..40,
        prop::collection::vec((0u32..40, 0u32..40, 1u64..1000), 0..300),
        prop::collection::vec((0u32..40, 0u32..40, 1u64..1000), 0..300),
    )
}

proptest! {
    /// The open-addressed flat table must track a plain `HashMap`
    /// accumulator operation for operation: same distinct-edge count,
    /// same `(a, b, weight)` multiset, same built CSR graph — through
    /// growth, `with_capacity` pre-sizing, and a second builder's edges
    /// summed in past that sizing.
    #[test]
    fn flat_table_matches_hashmap_reference(ops in arb_ops()) {
        use std::collections::HashMap;
        let (n, first, second) = ops;
        let n = 40u32.max(n);
        let mut reference: HashMap<(u32, u32), u64> = HashMap::new();
        let mut plain = GraphBuilder::new(n);
        let mut sized = GraphBuilder::with_capacity(n, first.len());
        for &(a, b, w) in &first {
            if a != b {
                let key = (a.min(b), a.max(b));
                *reference.entry(key).or_insert(0) += w;
                plain.add_edge(a, b, w);
                sized.add_edge(a, b, w);
            }
        }
        // Sum a second builder's edges in, mirroring it on the reference.
        let mut other = GraphBuilder::new(n);
        for &(a, b, w) in &second {
            if a != b {
                let key = (a.min(b), a.max(b));
                *reference.entry(key).or_insert(0) += w;
                other.add_edge(a, b, w);
            }
        }
        for (a, b, w) in other.edges() {
            plain.add_edge(a, b, w);
            sized.add_edge(a, b, w);
        }

        let mut want: Vec<(u32, u32, u64)> =
            reference.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
        want.sort_unstable();
        for builder in [&plain, &sized] {
            prop_assert_eq!(builder.edge_count(), reference.len());
            let mut got: Vec<_> = builder.edges().collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want);
            let built = builder.build();
            for a in 0..n {
                for b in 0..n {
                    let key = (a.min(b), a.max(b));
                    let expect = reference.get(&key).copied().filter(|_| a != b);
                    prop_assert_eq!(built.edge_weight(a, b), expect);
                }
            }
        }
        prop_assert_eq!(plain.build(), sized.build());
    }
}

/// Random simple graph on up to 24 nodes whose edges may weigh zero.
fn arb_graph_with_zero_weights() -> impl Strategy<Value = ConflictGraph> {
    (
        1u32..24,
        prop::collection::vec((any::<u32>(), any::<u32>(), 0u64..40), 0..150),
    )
        .prop_map(|(n, raw)| {
            let mut b = GraphBuilder::new(n);
            for (a, bb, w) in raw {
                let (a, bb) = (a % n, bb % n);
                if a != bb {
                    b.add_edge(a, bb, w);
                }
            }
            b.build()
        })
}

/// The reference coloring: the same simplify phase, then a select phase
/// that scans all k colors per node for the minimum
/// `(cost, usage, color)`.
fn color_by_scan(graph: &ConflictGraph, k: usize, order: MergeOrder) -> Vec<u32> {
    let n = graph.node_count();
    let mut cur_deg: Vec<usize> = (0..n as u32).map(|v| graph.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut stack = Vec::with_capacity(n);
    let mut low: VecDeque<u32> = (0..n as u32).filter(|&v| cur_deg[v as usize] < k).collect();
    let score = |v: u32| match order {
        MergeOrder::MinWeightedDegree => graph.weighted_degree(v),
        MergeOrder::MinDegree => graph.degree(v) as u64,
        MergeOrder::MaxWeightedDegree => u64::MAX - graph.weighted_degree(v),
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..n as u32).map(|v| Reverse((score(v), v))).collect();
    while stack.len() < n {
        let v = loop {
            let v = match low.pop_front() {
                Some(v) => v,
                None => heap.pop().unwrap().0 .1,
            };
            if !removed[v as usize] {
                break v;
            }
        };
        removed[v as usize] = true;
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
    let mut assignment = vec![u32::MAX; n];
    let mut usage = vec![0u32; k];
    while let Some(v) = stack.pop() {
        let mut cost = vec![0u64; k];
        for (nb, w) in graph.neighbor_weights(v) {
            if let Some(&c) = assignment.get(nb as usize).filter(|&&c| c != u32::MAX) {
                cost[c as usize] += w;
            }
        }
        let best = (0..k).min_by_key(|&c| (cost[c], usage[c], c)).unwrap();
        assignment[v as usize] = best as u32;
        usage[best] += 1;
    }
    assignment
}

proptest! {
    /// The sparse select phase picks exactly what scanning every color
    /// picks, for every merge order and every k from 1 (below most
    /// degrees, where every color can carry a cost) to n + 2.
    #[test]
    fn sparse_select_matches_the_full_color_scan(g in arb_graph_with_zero_weights()) {
        for merge_order in [
            MergeOrder::MinWeightedDegree,
            MergeOrder::MinDegree,
            MergeOrder::MaxWeightedDegree,
        ] {
            for k in 1..=g.node_count() + 2 {
                let c = coloring::color_graph(&g, k, &ColoringOptions { merge_order });
                let reference = color_by_scan(&g, k, merge_order);
                let (mass, edges) = coloring::conflict_mass(&g, &reference);
                prop_assert_eq!((merge_order, k, &c.assignment), (merge_order, k, &reference));
                prop_assert_eq!((c.conflict_mass, c.conflicting_edges), (mass, edges));
            }
        }
    }
}

/// The reference partition: the greedy growth of
/// [`clique::greedy_clique_partition`], reading each candidate's edge to
/// the newest member by binary search of that member's neighbors.
fn partition_by_search(graph: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = graph.node_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (Reverse(graph.weighted_degree(v)), v));
    let mut assigned = vec![false; n];
    let mut sets = Vec::new();
    for &seed in &order {
        if assigned[seed as usize] {
            continue;
        }
        assigned[seed as usize] = true;
        let mut clique = vec![seed];
        let mut candidates: Vec<(u32, u64)> = graph
            .neighbor_weights(seed)
            .filter(|&(v, _)| !assigned[v as usize])
            .collect();
        while let Some(best) = candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, &(v, w))| (w, Reverse(v)))
            .map(|(i, _)| i)
        {
            let (chosen, _) = candidates.swap_remove(best);
            assigned[chosen as usize] = true;
            clique.push(chosen);
            candidates.retain_mut(|(v, w)| match graph.edge_weight(chosen, *v) {
                Some(extra) if !assigned[*v as usize] => {
                    *w += extra;
                    true
                }
                _ => false,
            });
        }
        clique.sort_unstable();
        sets.push(clique);
    }
    sets.sort_unstable();
    sets
}

proptest! {
    /// Reading the newest member's weights from a scratch row partitions
    /// exactly as searching its neighbors does, zero-weight edges
    /// included: such an edge still keeps its candidate.
    #[test]
    fn partition_matches_the_binary_search_growth(g in arb_graph_with_zero_weights()) {
        prop_assert_eq!(clique::greedy_clique_partition(&g), partition_by_search(&g));
    }

    /// With at least as many colors as nodes, the coloring is the one at
    /// exactly `n` colors, for every merge order; only the colors asked
    /// for differ. A table of 2^40 colors costs what `n` does, so a
    /// coloring sized by its colors fails here at once.
    #[test]
    fn colors_past_the_node_count_color_as_the_node_count(g in arb_graph_with_zero_weights()) {
        let n = g.node_count();
        for merge_order in [
            MergeOrder::MinWeightedDegree,
            MergeOrder::MinDegree,
            MergeOrder::MaxWeightedDegree,
        ] {
            let options = ColoringOptions { merge_order };
            let at_n = coloring::color_graph(&g, n, &options);
            for k in [n + 1, 2 * n, 1000 * n, 1 << 40] {
                let c = coloring::color_graph(&g, k, &options);
                prop_assert_eq!(c.colors, k);
                prop_assert_eq!((merge_order, k, &c.assignment), (merge_order, k, &at_n.assignment));
                prop_assert_eq!(
                    (c.conflict_mass, c.conflicting_edges, c.used_colors()),
                    (at_n.conflict_mass, at_n.conflicting_edges, at_n.used_colors())
                );
            }
        }
    }
}
