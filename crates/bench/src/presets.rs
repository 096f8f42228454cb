//! Bench-scale dataset and configuration constructors.
//!
//! The paper's graphs range from 2.7k (Cora) to 2.45M nodes
//! (ogbn-products); the harness shrinks them so every exhibit regenerates
//! in minutes on a laptop while keeping relative sizes (products > reddit >
//! arxiv > pubmed > cora) and degree structure. Feature dimensions are also
//! reduced — memory *composition*, not raw width, is what the experiments
//! probe — except where a figure sweeps the hidden/feature size itself.

use betty::{ExperimentConfig, ModelKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::gib;
use betty_nn::AggregatorSpec;

use crate::Profile;

/// The five datasets at bench scale, Table 4 order.
pub fn bench_datasets(profile: Profile) -> Vec<Dataset> {
    let specs = [
        (DatasetSpec::cora(), 0.6, 64),
        (DatasetSpec::pubmed(), 0.12, 48),
        (DatasetSpec::reddit(), 0.012, 48),
        (DatasetSpec::ogbn_arxiv(), 0.016, 32),
        (DatasetSpec::ogbn_products(), 0.0018, 32),
    ];
    specs
        .into_iter()
        .map(|(spec, scale, feat)| {
            spec.scaled(profile.scale(scale))
                .with_feature_dim(feat)
                .generate(2024)
        })
        .collect()
}

/// One bench-scale dataset by paper name.
///
/// # Panics
///
/// Panics if `name` is not one of the five presets.
pub fn bench_dataset(name: &str, profile: Profile) -> Dataset {
    bench_datasets(profile)
        .into_iter()
        .find(|d| d.name.starts_with(name))
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// A products-like graph for the Fig. 14–16 / Table 6 family, which the
/// paper runs on ogbn-products with 3-layer fanout (25, 35, 40).
pub fn products_3layer(profile: Profile) -> (Dataset, ExperimentConfig) {
    let ds = DatasetSpec::ogbn_products()
        .scaled(profile.scale(0.0018))
        .with_feature_dim(32)
        .generate(2024);
    let config = ExperimentConfig {
        fanouts: vec![25, 35, 40],
        hidden_dim: 32,
        aggregator: AggregatorSpec::Mean,
        model: ModelKind::GraphSage,
        dropout: 0.0,
        capacity_bytes: gib(24),
        ..ExperimentConfig::default()
    };
    (ds, config)
}

/// The simulated device capacity used by the memory-wall exhibits
/// (Figs. 2 & 10). The paper's RTX 6000 offers 24 GB against ogbn-products
/// (2.45M nodes); our graphs are ~1000× smaller, so the wall is scaled to
/// keep the same *relative* pressure: deep/wide configs overflow it,
/// plain Mean at 2 layers does not. (The LSTM configs overflowed it too
/// while the cell was taped op by op; fused, they are the largest rows of
/// their panels but fit — EXPERIMENTS.md note 6.)
pub fn wall_capacity(profile: Profile) -> usize {
    match profile {
        Profile::Quick => 16 << 20,
        Profile::Full => 64 << 20,
    }
}

/// Shorthand for a SAGE config with the wall capacity.
pub fn wall_config(
    fanouts: Vec<usize>,
    hidden: usize,
    aggregator: AggregatorSpec,
    profile: Profile,
) -> ExperimentConfig {
    ExperimentConfig {
        fanouts,
        hidden_dim: hidden,
        aggregator,
        model: ModelKind::GraphSage,
        dropout: 0.0,
        capacity_bytes: wall_capacity(profile),
        max_partitions: 4096,
        ..ExperimentConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_bench_datasets_in_size_order_extremes() {
        let ds = bench_datasets(Profile::Quick);
        assert_eq!(ds.len(), 5);
        // products (last) is the largest, cora (first) the smallest.
        let sizes: Vec<usize> = ds.iter().map(|d| d.num_nodes()).collect();
        assert!(sizes[4] > sizes[0], "{sizes:?}");
    }

    #[test]
    fn lookup_by_name() {
        let d = bench_dataset("cora", Profile::Quick);
        assert!(d.name.starts_with("cora"));
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_name_panics() {
        bench_dataset("citeseer", Profile::Quick);
    }
}
