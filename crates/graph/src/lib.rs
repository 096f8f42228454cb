//! Graph substrate for the Betty GNN training system.
//!
//! This crate provides everything Betty needs to represent and manipulate
//! graph structure, independent of any neural-network concern:
//!
//! * [`CsrGraph`] — compressed-sparse-row storage for (optionally weighted)
//!   directed graphs, with reverse-view construction and degree queries.
//! * [`Block`] — one level of the multi-level bipartite structure a GNN
//!   batch is made of (the equivalent of a DGL `Block`), with local↔global
//!   index maps.
//! * [`Batch`] — a stack of blocks forming a full multi-level bipartite
//!   batch, plus [`Batch::restrict`] / [`Batch::restrict_all`], the
//!   micro-batch extraction primitive Betty's batch-level partitioning is
//!   built on.
//! * [`sample_batch`] — fanout-bounded neighbor sampling producing a
//!   [`Batch`] from seed (output) nodes.
//! * [`shared_neighbor_graph`] — Gustavson-style sparse `Aᵀ·A` restricted to
//!   destination nodes: the **Redundancy-Embedded Graph** (REG) of the paper.
//! * [`RowAccumulator`] — the branch-free, sort-free row sum the REG build
//!   and the partitioner's coarse levels share.
//! * [`degree`] — degree-distribution statistics (power-law tails,
//!   in-degree bucketing histograms).
//!
//! # Example
//!
//! ```
//! use betty_graph::{CsrGraph, sample_batch};
//! use rand::SeedableRng;
//!
//! // A 4-cycle: 0→1→2→3→0.
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(0);
//! let batch = sample_batch(&g, &[2], &[4, 4], &mut rng);
//! assert_eq!(batch.num_layers(), 2);
//! assert_eq!(batch.output_nodes(), &[2]);
//! ```

#![deny(missing_docs)]

mod batch;
mod bitmap;
mod block;
mod components;
mod csr;
pub mod degree;
mod sampling;
mod spgemm;

pub use batch::Batch;
pub use bitmap::RowAccumulator;
pub use block::Block;
pub use components::{weakly_connected_components, Components};
pub use csr::CsrGraph;
pub use sampling::{sample_batch, sample_batch_in};
pub use spgemm::{dependency_reg, shared_neighbor_graph};

/// Node identifier within a graph (global id).
pub type NodeId = u32;
