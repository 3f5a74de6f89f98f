//! CSR conflict graph.

use std::fmt;

/// A weighted undirected simple graph in compressed sparse row form.
///
/// Per-node adjacency lists are sorted, so `has_edge`/`edge_weight` are
/// binary searches and neighbor iteration is cache-friendly — the analysis
/// repeatedly scans adjacency during clique extraction and coloring.
///
/// Build one with [`crate::GraphBuilder`]. The one change a graph takes in
/// place is [`ConflictGraph::update_sorted_edges`]: new weights and new
/// edges in pair order, as a growing graph of cumulative counts receives
/// them.
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

    /// Applies a batch of `(a, b, weight)` edges with `a < b`, in strictly
    /// increasing `(a, b)` order, to this graph in place, after growing it
    /// to `nodes` nodes (even for an empty batch). An edge already in the
    /// graph takes its new weight in both endpoints' slices; a new edge is
    /// inserted. Returns the weight the batch added to the graph's total
    /// and the number of edges it inserted.
    ///
    /// The batch is walked once. Each endpoint keeps a forward cursor into
    /// its own slice, so an edge's two entries are found without a search:
    /// the edges of `a` as the smaller endpoint arrive in increasing `b`,
    /// and those of `b` as the larger one in increasing `a`. The new edges
    /// then go in with one pass from the back that merges each node's new
    /// neighbors into its slice and moves every old entry up at most once,
    /// reusing the arrays' capacity.
    ///
    /// A weight must not fall below the edge's current one: the graph of
    /// cumulative interleave counts this is for only grows. Order and
    /// weights are checked in debug builds only;
    /// [`ConflictGraph::from_sorted_edges`] checks its input in every
    /// build.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is below the current node count or an endpoint is
    /// not below `nodes`.
    ///
    /// # Example
    ///
    /// ```
    /// use bwsa_graph::ConflictGraph;
    ///
    /// let mut g = ConflictGraph::from_sorted_edges(3, [(0u32, 2u32, 5u64)].into_iter());
    /// let (added, inserted) = g.update_sorted_edges(4, &[(0, 1, 2), (0, 2, 7), (2, 3, 1)]);
    /// assert_eq!((added, inserted), (5, 2));
    /// assert_eq!(g.neighbors(2), &[0, 3]);
    /// assert_eq!(g.edge_weight(2, 0), Some(7));
    /// let edges = [(0, 1, 2), (0, 2, 7), (2, 3, 1)];
    /// assert_eq!(g, ConflictGraph::from_sorted_edges(4, edges.into_iter()));
    /// ```
    pub fn update_sorted_edges(&mut self, nodes: u32, edges: &[(u32, u32, u64)]) -> (u64, usize) {
        let n = nodes as usize;
        assert!(
            n >= self.node_count(),
            "a graph of {} nodes cannot shrink to {n}",
            self.node_count()
        );
        let end = self.neighbors.len();
        self.offsets.resize(n + 1, end);
        // `cursor[x]`: the first entry of x's slice not yet passed.
        let mut cursor = self.offsets[..n].to_vec();
        let mut fresh = Vec::new();
        let mut added = 0;
        let mut last = None;
        for &(a, b, w) in edges {
            debug_assert!(a < b && last < Some((a, b)), "({a}, {b}) out of order");
            last = Some((a, b));
            match self.advance(&mut cursor, a, b) {
                Some(at) => {
                    debug_assert!(w >= self.weights[at], "({a}, {b}) lost weight");
                    added += w - self.weights[at];
                    self.weights[at] = w;
                    let back = self.advance(&mut cursor, b, a);
                    self.weights[back.expect("an edge is in both endpoints' slices")] = w;
                }
                None => {
                    added += w;
                    fresh.push((a, b, w));
                }
            }
        }
        if !fresh.is_empty() {
            self.insert_sorted(&fresh);
        }
        (added, fresh.len())
    }

    /// Moves `cursor[x]` past x's neighbors below `y` and returns the
    /// entry of `y` there, if `y` is a neighbor.
    fn advance(&self, cursor: &mut [usize], x: u32, y: u32) -> Option<usize> {
        let at = &mut cursor[x as usize];
        let end = self.offsets[x as usize + 1];
        while *at < end && self.neighbors[*at] < y {
            *at += 1;
        }
        (*at < end && self.neighbors[*at] == y).then_some(*at)
    }

    /// Inserts `fresh`, edges absent from the graph in increasing `(a, b)`
    /// order, in one pass from the back. Node `x`'s new neighbors come
    /// sorted from the fill of `fresh`, and its slice moves up by the new
    /// entries of the nodes below it, so each write lands at or above the
    /// entry it reads and no entry is overwritten before it has moved.
    fn insert_sorted(&mut self, fresh: &[(u32, u32, u64)]) {
        let nodes = self.node_count() as u32;
        let new = Self::fill(nodes, fresh.iter().copied());
        let len = self.neighbors.len();
        self.neighbors.resize(len + new.neighbors.len(), 0);
        self.weights.resize(len + new.weights.len(), 0);
        // Old entries in `..unmoved` have not moved yet.
        let mut unmoved = len;
        for x in (0..nodes as usize).rev() {
            let (below, upto) = (new.offsets[x], new.offsets[x + 1]);
            if below == upto {
                continue;
            }
            // Everything after x's slice moves up past x's new entries and
            // those below it.
            let (start, end) = (self.offsets[x], self.offsets[x + 1]);
            self.neighbors.copy_within(end..unmoved, end + upto);
            self.weights.copy_within(end..unmoved, end + upto);
            let (mut old, mut add, mut write) = (end, upto, end + upto);
            while add > below {
                write -= 1;
                if old > start && self.neighbors[old - 1] > new.neighbors[add - 1] {
                    old -= 1;
                    self.neighbors[write] = self.neighbors[old];
                    self.weights[write] = self.weights[old];
                } else {
                    add -= 1;
                    self.neighbors[write] = new.neighbors[add];
                    self.weights[write] = new.weights[add];
                }
            }
            // x's entries below its new ones move with the next span.
            unmoved = old;
        }
        for (offset, shift) in self.offsets.iter_mut().zip(&new.offsets) {
            *offset += shift;
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

    type Reference = std::collections::BTreeMap<(u32, u32), u64>;

    /// Applies `batch` to `g` and to `reference`, then checks `g` against
    /// a fresh build of the reference and the returned weight and count.
    fn apply(
        g: &mut ConflictGraph,
        reference: &mut Reference,
        nodes: u32,
        batch: &[(u32, u32, u64)],
    ) {
        let total = g.total_weight();
        let before = reference.len();
        let (added, inserted) = g.update_sorted_edges(nodes, batch);
        reference.extend(batch.iter().map(|&(a, b, w)| ((a, b), w)));
        let edges = reference.iter().map(|(&(a, b), &w)| (a, b, w));
        assert_eq!(
            *g,
            ConflictGraph::from_sorted_edges(nodes, edges),
            "{batch:?}"
        );
        assert_eq!(inserted, reference.len() - before, "{batch:?}");
        assert_eq!(total + added, g.total_weight(), "{batch:?}");
    }

    #[test]
    fn updates_land_in_place_at_every_slice_position() {
        let mut g = ConflictGraph::from_sorted_edges(0, std::iter::empty());
        let mut r = Reference::new();
        // Node growth through an empty batch, then every node's first edge.
        apply(&mut g, &mut r, 3, &[]);
        assert_eq!(g.node_count(), 3);
        apply(&mut g, &mut r, 6, &[(1, 3, 4), (2, 4, 4)]);
        // Weights only: both endpoints' entries move, nothing is inserted.
        apply(&mut g, &mut r, 6, &[(1, 3, 9), (2, 4, 5)]);
        // New pairs at the front, middle and back of node 3's slice.
        apply(&mut g, &mut r, 6, &[(0, 3, 1), (3, 5, 2)]);
        apply(&mut g, &mut r, 6, &[(2, 3, 7)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 5]);
        // One batch that raises and inserts pairs around the same node.
        apply(
            &mut g,
            &mut r,
            7,
            &[(0, 2, 3), (1, 2, 1), (2, 3, 8), (2, 4, 6), (2, 6, 1)],
        );
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4, 6]);
        apply(&mut g, &mut r, 9, &[]);
        assert_eq!(g.degree(8), 0);
    }

    #[test]
    fn seeded_batches_match_a_fresh_build_after_every_batch() {
        let mut lcg: u64 = 7;
        let mut next = |bound: u64| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % bound
        };
        let mut g = ConflictGraph::from_sorted_edges(0, std::iter::empty());
        let mut r = Reference::new();
        let mut nodes = 0u32;
        for _ in 0..300 {
            nodes = (nodes + next(3) as u32).min(40);
            let mut batch = Reference::new();
            for _ in 0..next(25) {
                let (a, b) = (next(40) as u32, next(40) as u32);
                if a < b && b < nodes {
                    let last = r.get(&(a, b)).copied().unwrap_or(0);
                    batch.insert((a, b), last + next(4));
                }
            }
            let batch: Vec<_> = batch.into_iter().map(|((a, b), w)| (a, b, w)).collect();
            apply(&mut g, &mut r, nodes, &batch);
        }
        assert!(r.len() > 300, "the batches filled the graph: {}", r.len());
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn updates_never_drop_nodes() {
        let mut g = ConflictGraph::from_sorted_edges(3, std::iter::empty());
        g.update_sorted_edges(2, &[]);
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
