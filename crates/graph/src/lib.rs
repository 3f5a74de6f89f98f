//! Graph substrate for branch working set analysis.
//!
//! The paper summarises branch interleaving as a **conflict graph**: nodes
//! are static conditional branches, an edge means the two branches'
//! executions interleaved, and the edge weight counts how often (§4.1,
//! Figure 2). Working sets are then "completely interconnected subgraphs"
//! (cliques), and *branch allocation* is a graph-coloring assignment of
//! branches to branch-history-table entries, directly analogous to graph
//! coloring register allocation (§5.1).
//!
//! This crate implements that machinery generically over `u32` node ids —
//! it knows nothing about branches, so it is reusable and independently
//! testable:
//!
//! * [`GraphBuilder`] / [`ConflictGraph`] — weighted undirected graphs with
//!   an accumulate-then-compile (hash map → CSR) life cycle and threshold
//!   pruning.
//! * [`clique`] — greedy clique partitioning and capped Bron–Kerbosch
//!   maximal-clique enumeration: the two working-set definitions.
//! * [`coloring`] — Chaitin-style simplify/select K-coloring that *merges*
//!   instead of spilling when colors run out, picking the least-conflict
//!   sharing as the paper prescribes.
//!
//! # Example
//!
//! ```
//! use bwsa_graph::{clique, coloring, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1000);
//! b.add_edge(1, 2, 50);
//! b.add_edge(0, 2, 800);
//! let g = b.build();
//!
//! // Prune incidental conflicts below a threshold (the paper uses 100).
//! let pruned = g.pruned(100);
//! assert_eq!(pruned.edge_count(), 2);
//!
//! // Two colors suffice once the weak edge is gone.
//! let coloring = coloring::color_graph(&pruned, 2, &coloring::ColoringOptions::default());
//! assert_eq!(coloring.conflict_mass, 0);
//!
//! let sets = clique::greedy_clique_partition(&pruned);
//! assert!(!sets.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod builder;
pub mod clique;
pub mod coloring;
pub mod dot;
mod error;
mod graph;

/// Failpoint sites this crate hosts (see [`mod@bwsa_resilience::failpoint`]).
pub mod failpoints {
    /// Fires at the start of every coloring:
    /// [`crate::coloring::try_color_graph`] and
    /// [`crate::coloring::assign_colors`].
    pub const COLOR: &str = "graph.color";
    /// Every site in this crate, for chaos-sweep enumeration.
    pub const SITES: &[&str] = &[COLOR];
}

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::ConflictGraph;
