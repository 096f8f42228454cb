//! Graph partitioners for the Betty GNN training system.
//!
//! Implements the four partitioning strategies evaluated in the paper:
//!
//! * [`RangePartitioner`] — contiguous, equal-size id ranges (§6.1).
//! * [`RandomPartitioner`] — uniformly shuffled equal-size parts (§6.1).
//! * [`MultilevelPartitioner`] — a from-scratch multilevel k-way min-edge-cut
//!   partitioner in the METIS family: heavy-edge-matching coarsening, greedy
//!   graph-growing initial partitioning, and boundary Kernighan–Lin
//!   refinement with a balance constraint. Used both as the "Metis" baseline
//!   and as the cut engine inside Betty's REG partitioning.
//! * [`RegPartitioner`] — Algorithm 1 of the paper: build the
//!   Redundancy-Embedded Graph of a batch's output layer and min-cut it.
//!
//! All partitioners are deterministic given their seed.
//!
//! # Example
//!
//! ```
//! use betty_graph::CsrGraph;
//! use betty_partition::{MultilevelPartitioner, Partitioner};
//!
//! // Two triangles joined by one edge: the min cut separates them.
//! let g = CsrGraph::from_edges(
//!     6,
//!     &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0),
//!       (3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3),
//!       (2, 3), (3, 2)],
//! );
//! let p = MultilevelPartitioner::new(0).partition(&g, 2);
//! assert_eq!(p.edge_cut(&g), 2.0); // one undirected edge, both directions
//! ```

#![deny(missing_docs)]

mod metrics;
mod multilevel;
mod partitioning;
mod reg;
mod simple;

pub use metrics::{input_redundancy, RedundancyReport};
pub use multilevel::{CutHierarchy, MultilevelPartitioner};
pub use partitioning::Partitioning;
pub use reg::{OutputGraphPartitioner, OutputPartitioner, PreparedSplit, RegPartitioner, RegScope};
pub use simple::{RandomPartitioner, RangePartitioner};

use betty_graph::CsrGraph;

/// A k-way graph partitioning strategy.
///
/// Implementations must return a [`Partitioning`] with every node assigned
/// to one of `k` parts; when `graph.num_nodes() >= k`, every part must be
/// non-empty.
pub trait Partitioner {
    /// Human-readable strategy name, used in experiment output.
    fn name(&self) -> &'static str;

    /// Partitions `graph` into `k` parts, balancing total *node weight*
    /// per part.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `node_weights.len() != graph.num_nodes()`.
    fn partition_weighted(
        &self,
        graph: &CsrGraph,
        node_weights: &[f64],
        k: usize,
    ) -> Partitioning;

    /// Partitions `graph` into `k` parts with unit node weights.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn partition(&self, graph: &CsrGraph, k: usize) -> Partitioning {
        self.partition_weighted(graph, &vec![1.0; graph.num_nodes()], k)
    }
}
