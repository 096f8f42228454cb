//! Synthetic datasets for the Betty reproduction.
//!
//! The paper evaluates on Cora, Pubmed, Reddit, ogbn-arxiv and
//! ogbn-products (Table 4). Those datasets are external downloads; this
//! crate substitutes generators that reproduce the *properties Betty's
//! results depend on*:
//!
//! * **power-law in-degree** — drives the in-degree bucketing explosion
//!   (Fig. 9) and the load imbalance Betty's memory-aware partitioning
//!   fixes; produced by preferential attachment.
//! * **community structure** — drives shared-neighbor redundancy (what REG
//!   measures) and gives the Metis baseline something to find; produced by
//!   a planted partition overlay.
//! * **label-correlated features** — make accuracy/convergence curves
//!   (Figs. 4 & 13, Table 5) meaningful: features are noisy community
//!   centroids, so a GNN genuinely learns.
//!
//! [`DatasetSpec`] carries the per-dataset shape constants from Table 4;
//! [`DatasetSpec::generate`] materializes a [`Dataset`] at any scale.
//!
//! # Example
//!
//! ```
//! use betty_data::DatasetSpec;
//!
//! // ogbn-arxiv-like graph at 1% scale.
//! let ds = DatasetSpec::ogbn_arxiv().scaled(0.01).generate(7);
//! assert!(ds.graph.num_nodes() > 1000);
//! assert_eq!(ds.features.rows(), ds.graph.num_nodes());
//! assert!(!ds.train_idx.is_empty());
//! ```

#![deny(missing_docs)]

mod dataset;
pub mod featurestore;
mod generate;
pub mod io;
mod shards;
mod spec;

pub use dataset::{DataError, Dataset};
pub use featurestore::{
    scrub, DenseFeatures, FeatureStoreError, Features, GatherStats, PagedFeatures, ReadFault,
    ScrubReport, StorageFaultHook, StorageIncident, DEFAULT_MAX_IO_RETRIES, META_FILE,
    PARITY_META_FILE,
};
pub use generate::{planted_power_law, PlantedPowerLawConfig};
pub use io::{load_dataset, save_dataset, LoadError};
pub use spec::DatasetSpec;
