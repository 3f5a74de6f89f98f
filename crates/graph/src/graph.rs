//! Immutable CSR conflict graph.

use std::fmt;

/// An immutable weighted undirected simple graph in compressed sparse row
/// form.
///
/// Per-node adjacency lists are sorted, so `has_edge`/`edge_weight` are
/// binary searches and neighbor iteration is cache-friendly — the analysis
/// repeatedly scans adjacency during clique extraction and coloring.
///
/// Build one with [`crate::GraphBuilder`].
///
/// # Example
///
/// ```
/// use bwsa_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 4).add_edge(0, 2, 6);
/// let g = b.build();
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.weighted_degree(0), 10);
/// assert_eq!(g.neighbors(1), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    /// `offsets[n]..offsets[n+1]` is node n's slice of `neighbors`/`weights`.
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<u64>,
}

impl ConflictGraph {
    /// Builds the CSR form from any restartable `(a, b, weight)` edge
    /// source with `a < b`, in any order: the two-pass fill of
    /// [`ConflictGraph::from_sorted_edges`], then a sort per node.
    pub(crate) fn from_edge_iter<I>(nodes: u32, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32, u64)> + Clone,
    {
        let n = nodes as usize;
        let mut graph = Self::fill(nodes, edges);
        // Sort each adjacency slice by neighbor id (weights stay parallel).
        for node in 0..n {
            let range = graph.offsets[node]..graph.offsets[node + 1];
            let mut pairs: Vec<(u32, u64)> = graph.neighbors[range.clone()]
                .iter()
                .copied()
                .zip(graph.weights[range.clone()].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(nb, _)| nb);
            for (i, (nb, w)) in pairs.into_iter().enumerate() {
                graph.neighbors[range.start + i] = nb;
                graph.weights[range.start + i] = w;
            }
        }
        graph
    }

    /// Builds the CSR form from a restartable source of `(a, b, weight)`
    /// edges with `a < b`, yielded in increasing `(a, b)` order.
    ///
    /// Two passes, degree count then fill, and no sort: node `x` receives
    /// its neighbors below `x` while the rows before it are filled, in
    /// increasing order, then its neighbors above `x` from its own row,
    /// so every adjacency slice comes out sorted.
    ///
    /// # Panics
    ///
    /// Panics if the source breaks that order or repeats a pair, which
    /// leaves some adjacency slice unsorted.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_graph::ConflictGraph;
    ///
    /// let edges = [(0u32, 1u32, 4u64), (0, 2, 6), (1, 2, 1)];
    /// let g = ConflictGraph::from_sorted_edges(3, edges.iter().copied());
    /// assert_eq!(g.neighbors(2), &[0, 1]);
    /// assert_eq!(g.edge_weight(2, 0), Some(6));
    /// ```
    pub fn from_sorted_edges<I>(nodes: u32, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32, u64)> + Clone,
    {
        let graph = Self::fill(nodes, edges);
        for node in 0..nodes {
            assert!(
                graph.neighbors(node).windows(2).all(|w| w[0] < w[1]),
                "edges are not in strictly increasing (a, b) order at node {node}"
            );
        }
        graph
    }

    /// The two-pass CSR fill shared by both constructors: degree count,
    /// then each edge written into both endpoints' slices in source order.
    fn fill<I>(nodes: u32, edges: I) -> Self
    where
        I: Iterator<Item = (u32, u32, u64)> + Clone,
    {
        let n = nodes as usize;
        let mut degree = vec![0usize; n];
        for (a, b, _) in edges.clone() {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut neighbors = vec![0u32; acc];
        let mut weights = vec![0u64; acc];
        let mut cursor = offsets[..n].to_vec();
        for (a, b, w) in edges {
            let ca = cursor[a as usize];
            neighbors[ca] = b;
            weights[ca] = w;
            cursor[a as usize] += 1;
            let cb = cursor[b as usize];
            neighbors[cb] = a;
            weights[cb] = w;
            cursor[b as usize] += 1;
        }
        ConflictGraph {
            offsets,
            neighbors,
            weights,
        }
    }

    /// The graph with only the edges `keep(a, b, weight)` accepts, asked
    /// with `a < b`: one linear pass over the CSR. Filtering an already
    /// sorted adjacency slice keeps it sorted, so nothing is re-sorted.
    ///
    /// The kept edges are counted first, so each array is allocated once
    /// at its final size: reserving the source's size and shrinking
    /// afterwards fragments the heap across the repeated filters of a
    /// required-size search and raises peak RSS.
    fn filter_edges(&self, keep: impl Fn(u32, u32, u64) -> bool) -> ConflictGraph {
        let nodes = self.node_count() as u32;
        let keep = &keep;
        let kept = |a: u32| {
            self.neighbor_weights(a)
                .filter(move |&(b, w)| keep(a.min(b), a.max(b), w))
        };
        let total = (0..nodes).map(|a| kept(a).count()).sum();
        let mut graph = ConflictGraph {
            offsets: Vec::with_capacity(self.offsets.len()),
            neighbors: Vec::with_capacity(total),
            weights: Vec::with_capacity(total),
        };
        graph.offsets.push(0);
        for a in 0..nodes {
            for (b, w) in kept(a) {
                graph.neighbors.push(b);
                graph.weights.push(w);
            }
            graph.offsets.push(graph.neighbors.len());
        }
        graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree (neighbor count) of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        self.offsets[n + 1] - self.offsets[n]
    }

    /// Sum of edge weights incident to a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn weighted_degree(&self, node: u32) -> u64 {
        let n = node as usize;
        self.weights[self.offsets[n]..self.offsets[n + 1]]
            .iter()
            .sum()
    }

    /// The sorted neighbor ids of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.neighbors[self.offsets[n]..self.offsets[n + 1]]
    }

    /// Iterates `(neighbor, weight)` pairs of a node in neighbor-id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbor_weights(&self, node: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let n = node as usize;
        let range = self.offsets[n]..self.offsets[n + 1];
        self.neighbors[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Returns `true` if `{a, b}` is an edge.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.edge_weight(a, b).is_some()
    }

    /// The weight of edge `{a, b}`, or `None` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn edge_weight(&self, a: u32, b: u32) -> Option<u64> {
        let n = a as usize;
        let slice = &self.neighbors[self.offsets[n]..self.offsets[n + 1]];
        slice
            .binary_search(&b)
            .ok()
            .map(|i| self.weights[self.offsets[n] + i])
    }

    /// Iterates every undirected edge once as `(a, b, weight)` with `a < b`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        (0..self.node_count() as u32).flat_map(move |a| {
            self.neighbor_weights(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, w)| (a, b, w))
        })
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum::<u64>() / 2
    }

    /// Returns a new graph with every edge of weight `< threshold` removed.
    ///
    /// This is the paper's §4.2 refinement: "a threshold value is given and
    /// any edge with a smaller count than the threshold is eliminated"
    /// (they use 100 and note 500/1000 make no significant difference).
    pub fn pruned(&self, threshold: u64) -> ConflictGraph {
        self.filter_edges(|_, _, w| w >= threshold)
    }

    /// Returns a copy with the given edges removed (endpoints in either
    /// order). Weights of surviving edges are unchanged.
    ///
    /// Used by branch classification (§5.2): conflicts between two branches
    /// of the same highly-biased class are ignored "even if [the interleave
    /// count] is above a threshold value".
    pub fn without_edges(&self, remove: impl Fn(u32, u32) -> bool) -> ConflictGraph {
        self.filter_edges(|a, b, _| !remove(a, b))
    }

    /// Returns the subgraph induced on `keep` (node ids preserved; edges
    /// with an endpoint outside `keep` dropped).
    pub fn induced(&self, keep: impl Fn(u32) -> bool) -> ConflictGraph {
        self.filter_edges(|a, b, _| keep(a) && keep(b))
    }

    /// Returns `true` if `set` forms a clique (every pair adjacent).
    pub fn is_clique(&self, set: &[u32]) -> bool {
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                if !self.has_edge(a, b) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict graph: {} nodes, {} edges, total weight {}",
            self.node_count(),
            self.edge_count(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> ConflictGraph {
        // 0-1-2 triangle with weights 10/20/30, plus 2-3 with weight 5.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10)
            .add_edge(1, 2, 20)
            .add_edge(0, 2, 30)
            .add_edge(2, 3, 5);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.weighted_degree(2), 55);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn edge_weight_lookup_is_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.edge_weight(0, 2), Some(30));
        assert_eq!(g.edge_weight(2, 0), Some(30));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn iter_edges_yields_each_once() {
        let g = triangle_plus_tail();
        let mut edges: Vec<_> = g.iter_edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 10), (0, 2, 30), (1, 2, 20), (2, 3, 5)]);
        assert_eq!(g.total_weight(), 65);
    }

    #[test]
    fn pruning_removes_light_edges() {
        let g = triangle_plus_tail();
        let p = g.pruned(10);
        assert_eq!(p.edge_count(), 3, "weight-5 edge pruned, weight-10 kept");
        assert!(p.has_edge(0, 1));
        assert!(!p.has_edge(2, 3));
        assert_eq!(p.node_count(), 4, "nodes survive pruning");
    }

    #[test]
    fn without_edges_filters_by_predicate() {
        let g = triangle_plus_tail();
        let h = g.without_edges(|a, b| (a, b) == (0, 1) || (a, b) == (1, 0));
        assert!(!h.has_edge(0, 1));
        assert_eq!(h.edge_count(), 3);
    }

    #[test]
    fn induced_subgraph_keeps_ids() {
        let g = triangle_plus_tail();
        let h = g.induced(|n| n != 2);
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 1);
        assert!(h.has_edge(0, 1));
    }

    #[test]
    fn clique_detection() {
        let g = triangle_plus_tail();
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_clique(&[2, 3]));
        assert!(g.is_clique(&[1]));
        assert!(g.is_clique(&[]));
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.total_weight(), 0);
    }

    #[test]
    fn sorted_edges_build_the_same_graph_without_sorting() {
        let g = triangle_plus_tail();
        let mut edges: Vec<_> = g.iter_edges().collect();
        edges.sort_unstable();
        assert_eq!(
            ConflictGraph::from_sorted_edges(4, edges.iter().copied()),
            g
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_are_rejected() {
        let edges = [(1u32, 2u32, 1u64), (0, 2, 1)];
        ConflictGraph::from_sorted_edges(3, edges.iter().copied());
    }

    #[test]
    fn display_summarises() {
        let g = triangle_plus_tail();
        assert_eq!(
            g.to_string(),
            "conflict graph: 4 nodes, 4 edges, total weight 65"
        );
    }
}
