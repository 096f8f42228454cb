//! Property tests for the pooled tensor workspace: recycling value,
//! gradient, and index buffers through the training hot path is pure
//! mechanics — with the pool on or off (`--no-pool`), at any thread
//! width, every per-epoch loss and every final parameter must match bit
//! for bit. Aggregators are exercised individually because each routes
//! through different pooled kernels (fused mean, segment max over a
//! learned transform, bucketed LSTM unrolling).

use betty::{ExperimentConfig, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::gib;
use betty_nn::AggregatorSpec;
use proptest::prelude::*;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

fn config(aggregator: AggregatorSpec, pool: bool) -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator,
        dropout: 0.3,
        capacity_bytes: gib(8),
        pool,
        ..ExperimentConfig::default()
    }
}

/// Two epochs of training (the second runs against a warm pool) →
/// per-epoch loss bits plus the final parameter bits.
fn trajectory(
    ds: &Dataset,
    aggregator: AggregatorSpec,
    pool: bool,
    k: usize,
    seed: u64,
    threads: usize,
) -> (Vec<u64>, Vec<u32>) {
    let mut runner = Runner::new(ds, &config(aggregator, pool), seed);
    let losses: Vec<u64> = betty_runtime::with_threads(threads, || {
        (0..2)
            .map(|_| {
                runner
                    .train_epoch_betty(ds, StrategyKind::Betty, k)
                    .expect("capacity is ample")
                    .loss
                    .to_bits()
            })
            .collect()
    });
    let params: Vec<u32> = runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect();
    (losses, params)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pooling_never_moves_a_bit(
        agg_idx in 0usize..3,
        k_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let aggregator = [
            AggregatorSpec::Mean,
            AggregatorSpec::Pool,
            AggregatorSpec::Lstm,
        ][agg_idx];
        let k = [1usize, 2, 4][k_idx];
        let ds = dataset();
        let reference = trajectory(&ds, aggregator, true, k, seed, 1);
        for pool in [true, false] {
            for threads in [1usize, 4] {
                let run = trajectory(&ds, aggregator, pool, k, seed, threads);
                prop_assert_eq!(
                    &reference.0, &run.0,
                    "losses diverged: {:?} pool={} threads={} k={}",
                    aggregator.name(), pool, threads, k
                );
                prop_assert_eq!(
                    &reference.1, &run.1,
                    "params diverged: {:?} pool={} threads={} k={}",
                    aggregator.name(), pool, threads, k
                );
            }
        }
    }
}

/// Deterministic sweep of every aggregator × micro-batch count the
/// proptest samples from, so CI covers each combination at least once.
#[test]
fn pool_toggle_matrix_is_bit_identical() {
    let ds = dataset();
    for aggregator in [
        AggregatorSpec::Mean,
        AggregatorSpec::Pool,
        AggregatorSpec::Lstm,
    ] {
        for k in [1usize, 2, 4] {
            let pooled = trajectory(&ds, aggregator, true, k, 7, 1);
            let plain = trajectory(&ds, aggregator, false, k, 7, 4);
            assert_eq!(
                pooled, plain,
                "{} k={k}: pooled serial run diverged from unpooled 4-thread run",
                aggregator.name()
            );
        }
    }
}
