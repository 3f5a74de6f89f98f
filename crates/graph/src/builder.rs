//! Accumulating builder for [`ConflictGraph`].

use crate::{ConflictGraph, GraphError};

/// Sentinel for an empty table bucket. `u64::MAX` packs the pair
/// `(u32::MAX, u32::MAX)` — a self-loop, which [`GraphBuilder::try_add_edge`]
/// rejects — so it can never collide with a stored key.
const EMPTY: u64 = u64::MAX;

/// Multiplicative (Fibonacci) hash constant: `2^64 / φ`, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Accumulates weighted undirected edges, then compiles them into an
/// immutable CSR [`ConflictGraph`].
///
/// Adding the same edge repeatedly sums the weights. The interleave
/// detector counts every pair in its own per-branch rows, so this table
/// holds only graphs built edge by edge: the naive oracle's and the
/// merged graph of a cumulative profile.
///
/// Internally the edge map is an open-addressed flat table keyed by the
/// packed canonical pair `(min << 32) | max`, with Fibonacci hashing,
/// power-of-two capacity, and linear probing: one cache line per lookup
/// instead of a `HashMap`'s SipHash plus bucket indirection. Iteration
/// order is arbitrary; [`GraphBuilder::build`] sorts adjacency lists, so
/// no output depends on it.
///
/// # Example
///
/// ```
/// use bwsa_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1);
/// b.add_edge(1, 0, 2); // same undirected edge
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: u32,
    /// Packed edge keys, [`EMPTY`] for free buckets. Length is zero or a
    /// power of two.
    keys: Vec<u64>,
    /// Accumulated weight per occupied bucket, parallel to `keys`.
    weights: Vec<u64>,
    /// Occupied bucket count.
    len: usize,
    /// `64 - log2(capacity)`: the Fibonacci hash shift.
    shift: u32,
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    debug_assert!(a < b);
    (u64::from(a) << 32) | u64::from(b)
}

#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

impl GraphBuilder {
    /// Creates a builder for a graph over nodes `0..nodes`.
    pub fn new(nodes: u32) -> Self {
        GraphBuilder {
            nodes,
            ..Self::default()
        }
    }

    /// Creates a builder pre-sized to hold about `edges` distinct edges
    /// without rehashing.
    pub fn with_capacity(nodes: u32, edges: usize) -> Self {
        let mut builder = Self::new(nodes);
        if edges > 0 {
            // Size so `edges` entries stay under the 7/8 load ceiling.
            builder.rehash((edges * 8 / 7 + 1).next_power_of_two().max(16));
        }
        builder
    }

    /// Number of nodes the graph will have.
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Number of distinct edges accumulated so far.
    pub fn edge_count(&self) -> usize {
        self.len
    }

    /// Grows the node count (never shrinks).
    pub fn ensure_nodes(&mut self, nodes: u32) -> &mut Self {
        self.nodes = self.nodes.max(nodes);
        self
    }

    /// Adds `weight` to the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loop) or either node is out of range. Use
    /// [`GraphBuilder::try_add_edge`] for fallible insertion.
    pub fn add_edge(&mut self, a: u32, b: u32, weight: u64) -> &mut Self {
        self.try_add_edge(a, b, weight).expect("invalid edge");
        self
    }

    /// Adds `weight` to the undirected edge `{a, b}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `a == b` and
    /// [`GraphError::NodeOutOfRange`] when either endpoint is at or beyond
    /// the declared node count.
    pub fn try_add_edge(&mut self, a: u32, b: u32, weight: u64) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        for n in [a, b] {
            if n >= self.nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: n,
                    count: self.nodes,
                });
            }
        }
        self.accumulate(pack(a.min(b), a.max(b)), weight);
        Ok(())
    }

    /// Adds `weight` under `key`, growing the table as needed.
    #[inline]
    fn accumulate(&mut self, key: u64, weight: u64) {
        // Keep the load factor at or below 7/8 so probe chains stay short.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.rehash((self.keys.len() * 2).max(16));
        }
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let k = self.keys[i];
            if k == key {
                self.weights[i] += weight;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.weights[i] = weight;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-buckets every occupied entry into a table of `capacity` slots
    /// (a power of two, strictly larger than `len / (7/8)`).
    #[cold]
    fn rehash(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; capacity]);
        let old_weights = std::mem::take(&mut self.weights);
        self.weights = vec![0; capacity];
        self.shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        for (key, weight) in old_keys.into_iter().zip(old_weights) {
            if key == EMPTY {
                continue;
            }
            let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = key;
            self.weights[i] = weight;
        }
    }

    /// Iterates the accumulated edges as `(a, b, weight)` with `a < b`, in
    /// arbitrary order. Sort the result for a deterministic order; casual
    /// consumers should usually [`GraphBuilder::build`] instead.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + Clone + '_ {
        self.keys
            .iter()
            .zip(&self.weights)
            .filter(|&(&k, _)| k != EMPTY)
            .map(|(&k, &w)| {
                let (a, b) = unpack(k);
                (a, b, w)
            })
    }

    /// Compiles the accumulated edges into an immutable CSR graph.
    pub fn build(&self) -> ConflictGraph {
        ConflictGraph::from_edge_iter(self.nodes, self.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_accumulate_across_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5).add_edge(1, 0, 7);
        assert_eq!(b.edge_count(), 1);
        assert_eq!(b.build().edge_weight(0, 1), Some(12));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.try_add_edge(1, 1, 3),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.try_add_edge(0, 2, 3),
            Err(GraphError::NodeOutOfRange { node: 2, count: 2 })
        );
    }

    #[test]
    fn ensure_nodes_grows_only() {
        let mut b = GraphBuilder::new(2);
        b.ensure_nodes(5);
        assert_eq!(b.node_count(), 5);
        b.ensure_nodes(1);
        assert_eq!(b.node_count(), 5);
    }

    #[test]
    fn edges_iterates_canonical_pairs() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 0, 4).add_edge(0, 1, 1).add_edge(1, 0, 2);
        let mut edges: Vec<_> = b.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1, 3), (0, 2, 4)]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn table_grows_through_many_distinct_edges() {
        // Push well past several rehash thresholds and verify nothing is
        // lost or double-counted.
        let n = 200u32;
        let mut b = GraphBuilder::new(n);
        let mut expected = std::collections::HashMap::new();
        for a in 0..n {
            for c in (a + 1)..n.min(a + 9) {
                let w = u64::from(a * 31 + c);
                b.add_edge(a, c, w);
                *expected.entry((a, c)).or_insert(0u64) += w;
            }
        }
        assert_eq!(b.edge_count(), expected.len());
        let mut got: Vec<_> = b.edges().collect();
        got.sort_unstable();
        let mut want: Vec<_> = expected.iter().map(|(&(a, c), &w)| (a, c, w)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn with_capacity_avoids_rehash_and_matches_plain() {
        let mut sized = GraphBuilder::with_capacity(50, 1000);
        let table_before = sized.keys.len();
        let mut plain = GraphBuilder::new(50);
        for i in 0..1000u32 {
            let (a, b) = (i % 50, (i * 7 + 1) % 50);
            if a != b {
                sized.add_edge(a, b, u64::from(i) + 1);
                plain.add_edge(a, b, u64::from(i) + 1);
            }
        }
        assert_eq!(sized.keys.len(), table_before, "no rehash occurred");
        assert_eq!(sized.build(), plain.build());
    }

    #[test]
    fn extreme_node_ids_round_trip() {
        // u32::MAX - 1 and u32::MAX pack adjacent to the EMPTY sentinel;
        // make sure neither collides with it.
        let mut b = GraphBuilder::new(u32::MAX);
        b.add_edge(u32::MAX - 1, 0, 9);
        let edges: Vec<_> = b.edges().collect();
        assert_eq!(edges, vec![(0, u32::MAX - 1, 9)]);
    }
}
