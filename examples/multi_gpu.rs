//! Simulated multi-GPU scaling (the paper's §7 future work): Betty's
//! micro-batches are data-parallel by construction, so a device group can
//! split one batch's micro-batches and all-reduce gradients — numerically
//! identical to single-device training.
//!
//! ```sh
//! cargo run --release --bin multi_gpu
//! ```

use betty::{DeviceGroup, ExperimentConfig, Runner, StrategyKind};
use betty_data::DatasetSpec;
use betty_device::gib;
use betty_nn::AggregatorSpec;

fn main() {
    let dataset = DatasetSpec::ogbn_arxiv()
        .scaled(0.02)
        .with_feature_dim(64)
        .generate(3);
    let config = ExperimentConfig {
        fanouts: vec![10, 25],
        hidden_dim: 64,
        aggregator: AggregatorSpec::Lstm, // heavy enough to be worth splitting
        dropout: 0.0,
        capacity_bytes: gib(24),
        ..ExperimentConfig::default()
    };
    let k = 16;
    println!(
        "dataset {}: {} train nodes, K = {k} micro-batches\n",
        dataset.name,
        dataset.train_idx.len()
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>14}",
        "devices", "wall sec", "speedup", "sync ms", "per-dev MiB"
    );
    for devices in [1usize, 2, 4, 8] {
        let mut runner = Runner::new(&dataset, &config, 0);
        let epoch = runner
            .train_epoch_elastic(&dataset, StrategyKind::Betty, k, &DeviceGroup::new(devices))
            .expect("24 GiB is ample");
        println!(
            "{devices:>8} {:>10.3} {:>11.2}x {:>12.3} {:>14.1}",
            epoch.wall_sec(),
            epoch.speedup_vs_serial(),
            epoch.allreduce_sec * 1e3,
            epoch.max_device_peak() as f64 / (1 << 20) as f64,
        );
    }
    println!(
        "\nGradients all-reduce to exactly the single-device accumulation, so \
         accuracy and convergence are untouched; wall time scales with the \
         slowest device's micro-batch queue."
    );
}
