//! Working-set extraction: clique partitioning and maximal-clique
//! enumeration.
//!
//! The paper defines a working set as "a set of conditional branch
//! instructions which form a completely interconnected subgraph in the
//! branch conflict graph" (§4.1) while noting that "many other definitions
//! of a working set are possible". Two readings are implemented:
//!
//! * [`greedy_clique_partition`] assigns every node to exactly **one**
//!   clique — the natural reading of "partitions the conditional branch
//!   instructions into working sets", and the one used for the
//!   execution-weighted dynamic average of Table 2.
//! * [`maximal_cliques`] enumerates **all** maximal cliques
//!   (Bron–Kerbosch with pivoting, capped). A branch may appear in many
//!   sets; this is the only reading consistent with Table 2's `gcc` row,
//!   where 51,888 working sets exceed the ~16k static branches.
//!
//! The `ablation_working_set` bench binary contrasts the two.

use crate::ConflictGraph;

/// Partitions all nodes into disjoint cliques, greedily growing each
/// clique around the heaviest unassigned node.
///
/// Every node appears in exactly one returned set (isolated nodes become
/// singletons), each set is a clique, and sets are returned with members
/// sorted ascending. Growth adds, at each step, the candidate with the
/// largest total edge weight into the current clique — keeping strongly
/// interleaved branches together.
///
/// # Example
///
/// ```
/// use bwsa_graph::{clique::greedy_clique_partition, GraphBuilder};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 100).add_edge(1, 2, 100).add_edge(0, 2, 100);
/// let sets = greedy_clique_partition(&b.build());
/// assert!(sets.contains(&vec![0, 1, 2]));
/// assert!(sets.contains(&vec![3])); // isolated node
/// ```
pub fn greedy_clique_partition(graph: &ConflictGraph) -> Vec<Vec<u32>> {
    let n = graph.node_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.weighted_degree(v)), v));
    let mut assigned = vec![false; n];
    // The newest member's edge weights by neighbor, `None` off its
    // adjacency (a zero-weight edge is still an edge): filled from its
    // row before the candidates are filtered, cleared after.
    let mut row: Vec<Option<u64>> = vec![None; n];
    let mut sets = Vec::new();
    for &seed in &order {
        if assigned[seed as usize] {
            continue;
        }
        assigned[seed as usize] = true;
        let mut clique = vec![seed];
        // Candidates: unassigned common neighbors of every clique member,
        // tracked with their accumulated edge weight into the clique.
        let mut candidates: Vec<(u32, u64)> = graph
            .neighbor_weights(seed)
            .filter(|&(v, _)| !assigned[v as usize])
            .collect();
        while let Some(best_idx) = candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, &(v, w))| (w, std::cmp::Reverse(v)))
            .map(|(i, _)| i)
        {
            let (chosen, _) = candidates.swap_remove(best_idx);
            assigned[chosen as usize] = true;
            clique.push(chosen);
            // Keep only candidates adjacent to the new member; fold in the
            // connecting edge weight so scores stay "weight into clique".
            for (v, w) in graph.neighbor_weights(chosen) {
                row[v as usize] = Some(w);
            }
            candidates.retain_mut(|(v, w)| match row[*v as usize] {
                Some(extra) if !assigned[*v as usize] => {
                    *w += extra;
                    true
                }
                _ => false,
            });
            for &v in graph.neighbors(chosen) {
                row[v as usize] = None;
            }
        }
        clique.sort_unstable();
        sets.push(clique);
    }
    sets.sort_unstable();
    sets
}

/// Result of a (possibly capped) maximal-clique enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliqueEnumeration {
    /// The maximal cliques found, each sorted ascending.
    pub cliques: Vec<Vec<u32>>,
    /// `true` if enumeration stopped at the cap before completing.
    pub truncated: bool,
}

/// Enumerates maximal cliques with Bron–Kerbosch (pivoting), stopping
/// after `cap` cliques.
///
/// Dense conflict graphs can have exponentially many maximal cliques; the
/// cap bounds work while still exposing the paper's Table 2 behaviour
/// (there can be far more working sets than nodes). Isolated nodes are
/// reported as singleton cliques.
///
/// # Example
///
/// ```
/// use bwsa_graph::{clique::maximal_cliques, GraphBuilder};
///
/// // A 4-cycle has two maximal "diagonal-free" edges... actually its
/// // maximal cliques are its four edges.
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1).add_edge(1, 2, 1).add_edge(2, 3, 1).add_edge(3, 0, 1);
/// let e = maximal_cliques(&b.build(), 100);
/// assert_eq!(e.cliques.len(), 4);
/// assert!(!e.truncated);
/// ```
pub fn maximal_cliques(graph: &ConflictGraph, cap: usize) -> CliqueEnumeration {
    let mut out = CliqueEnumeration {
        cliques: Vec::new(),
        truncated: false,
    };
    if graph.node_count() == 0 {
        return out;
    }
    let p: Vec<u32> = (0..graph.node_count() as u32).collect();
    let mut r = Vec::new();
    bron_kerbosch(graph, &mut r, p, Vec::new(), cap, &mut out);
    out.cliques.sort_unstable();
    out
}

fn intersect_neighbors(graph: &ConflictGraph, set: &[u32], v: u32) -> Vec<u32> {
    // Both `set` and the adjacency list are sorted: linear merge.
    let nbs = graph.neighbors(v);
    let mut out = Vec::with_capacity(set.len().min(nbs.len()));
    let (mut i, mut j) = (0, 0);
    while i < set.len() && j < nbs.len() {
        match set[i].cmp(&nbs[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(set[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn bron_kerbosch(
    graph: &ConflictGraph,
    r: &mut Vec<u32>,
    p: Vec<u32>,
    x: Vec<u32>,
    cap: usize,
    out: &mut CliqueEnumeration,
) {
    if out.cliques.len() >= cap {
        out.truncated = true;
        return;
    }
    if p.is_empty() && x.is_empty() {
        let mut clique = r.clone();
        clique.sort_unstable();
        out.cliques.push(clique);
        return;
    }
    // Pivot: the vertex of P ∪ X with the most neighbors in P.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| intersect_neighbors(graph, &p, u).len())
        .expect("p or x non-empty");
    let pivot_nbs = graph.neighbors(pivot);
    let candidates: Vec<u32> = p
        .iter()
        .copied()
        .filter(|v| pivot_nbs.binary_search(v).is_err())
        .collect();
    let mut p = p;
    let mut x = x;
    for v in candidates {
        if out.cliques.len() >= cap {
            out.truncated = true;
            return;
        }
        r.push(v);
        let p_next = intersect_neighbors(graph, &p, v);
        let x_next = intersect_neighbors(graph, &x, v);
        bron_kerbosch(graph, r, p_next, x_next, cap, out);
        r.pop();
        // Move v from P to X (both stay sorted).
        if let Ok(i) = p.binary_search(&v) {
            p.remove(i);
        }
        if let Err(pos) = x.binary_search(&v) {
            x.insert(pos, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles_bridged() -> ConflictGraph {
        // Triangle {0,1,2} and {3,4,5}, weak bridge 2-3.
        let mut b = GraphBuilder::new(6);
        for (x, y) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(x, y, 1000);
        }
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let g = two_triangles_bridged();
        let sets = greedy_clique_partition(&g);
        let mut all: Vec<u32> = sets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn partition_sets_are_cliques() {
        let g = two_triangles_bridged();
        for set in greedy_clique_partition(&g) {
            assert!(g.is_clique(&set), "{set:?} is not a clique");
        }
    }

    #[test]
    fn partition_finds_the_triangles() {
        let g = two_triangles_bridged();
        let sets = greedy_clique_partition(&g);
        assert!(sets.contains(&vec![0, 1, 2]));
        assert!(sets.contains(&vec![3, 4, 5]));
    }

    #[test]
    fn partition_of_edgeless_graph_is_singletons() {
        let sets = greedy_clique_partition(&GraphBuilder::new(3).build());
        assert_eq!(sets, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn maximal_cliques_of_bridged_triangles() {
        let g = two_triangles_bridged();
        let e = maximal_cliques(&g, 100);
        assert!(!e.truncated);
        assert_eq!(e.cliques.len(), 3, "two triangles + the bridge edge");
        assert!(e.cliques.contains(&vec![0, 1, 2]));
        assert!(e.cliques.contains(&vec![2, 3]));
        assert!(e.cliques.contains(&vec![3, 4, 5]));
    }

    #[test]
    fn maximal_cliques_are_maximal() {
        let g = two_triangles_bridged();
        for c in maximal_cliques(&g, 100).cliques {
            assert!(g.is_clique(&c));
            // No vertex outside c is adjacent to all of c.
            for v in 0..6u32 {
                if c.contains(&v) {
                    continue;
                }
                assert!(
                    !c.iter().all(|&m| g.has_edge(v, m)),
                    "{c:?} extendable by {v}"
                );
            }
        }
    }

    #[test]
    fn cap_truncates_enumeration() {
        let g = two_triangles_bridged();
        let e = maximal_cliques(&g, 1);
        assert!(e.truncated);
        assert_eq!(e.cliques.len(), 1);
    }

    #[test]
    fn isolated_nodes_are_singleton_maximal_cliques() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let e = maximal_cliques(&b.build(), 100);
        assert!(e.cliques.contains(&vec![2]));
        assert_eq!(e.cliques.len(), 2);
    }

    #[test]
    fn complete_graph_is_one_clique_both_ways() {
        let mut b = GraphBuilder::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(i, j, 7);
            }
        }
        let g = b.build();
        assert_eq!(greedy_clique_partition(&g), vec![vec![0, 1, 2, 3, 4]]);
        let e = maximal_cliques(&g, 100);
        assert_eq!(e.cliques, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn empty_graph_yields_no_cliques() {
        let g = GraphBuilder::new(0).build();
        assert!(greedy_clique_partition(&g).is_empty());
        assert!(maximal_cliques(&g, 10).cliques.is_empty());
    }
}
