//! Parent-identity golden test for training numerics.
//!
//! The hashes below were recorded at the commit *before* the three GEMM
//! variants moved onto one register-tiled micro-kernel, the backward sweep
//! started packing each `Matmul` weight's transpose once, and input
//! features became gradient-free constants. Those changes promise that
//! every loss bit and every parameter bit is unchanged — against the
//! parent, not merely simd against scalar — so any rewrite of the dense
//! kernels or the backward sweep must keep these values.
//!
//! The values pass through `expf`/`tanhf`, so they are pinned to the
//! platform they were recorded on (x86-64 Linux, glibc); run with
//! `GOLDEN_PRINT=1 cargo test -p betty-integration-tests --test
//! golden_training -- --nocapture` to print the table for a new one.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use betty::{ExperimentConfig, ModelKind, Runner, StrategyKind};
use betty_data::DatasetSpec;
use betty_device::gib;
use betty_nn::AggregatorSpec;
use betty_tensor::{with_backend, Backend};

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two epochs at K = 3 on a tiny power-law graph; the hash covers both
/// epoch losses and every parameter bit afterwards. Feature width 20 and
/// hidden width 36 make the LSTM gate product `[n, 40]·[40, 80]` and the
/// dense layers cross the 6×32 and 6×16 tile boundaries with remainders.
fn train_hash(model: ModelKind, aggregator: AggregatorSpec, backend: Backend) -> u64 {
    with_backend(backend, || {
        let ds = DatasetSpec::cora()
            .scaled(0.12)
            .with_feature_dim(20)
            .generate(5);
        let config = ExperimentConfig {
            fanouts: vec![4, 8],
            hidden_dim: 36,
            aggregator,
            model,
            dropout: 0.3,
            capacity_bytes: gib(8),
            ..ExperimentConfig::default()
        };
        let mut runner = Runner::new(&ds, &config, 11);
        let mut words = Vec::new();
        for _ in 0..2 {
            let stats = runner
                .train_epoch_betty(&ds, StrategyKind::Betty, 3)
                .expect("capacity is ample");
            words.push(stats.loss.to_bits());
        }
        for p in runner.trainer().model().params() {
            words.extend(p.value().data().iter().map(|v| u64::from(v.to_bits())));
        }
        fnv1a(words)
    })
}

const GOLDEN: [(&str, ModelKind, AggregatorSpec, u64); 3] = [
    (
        "sage-lstm",
        ModelKind::GraphSage,
        AggregatorSpec::Lstm,
        0x10409bed9eb3f8a1,
    ),
    (
        "sage-mean",
        ModelKind::GraphSage,
        AggregatorSpec::Mean,
        0x3117f5eac27dc7d2,
    ),
    (
        "gat",
        ModelKind::Gat,
        AggregatorSpec::Mean,
        0xc8e85d0322b42bc2,
    ),
];

#[test]
fn two_epochs_match_the_parent_commit_bit_for_bit() {
    for (name, model, aggregator, want) in GOLDEN {
        for backend in [Backend::Scalar, Backend::Simd] {
            let got = train_hash(model, aggregator, backend);
            if std::env::var_os("GOLDEN_PRINT").is_some() {
                println!("(\"{name}\", {backend}) = {got:#018x}");
                continue;
            }
            assert_eq!(
                got, want,
                "{name} on {backend}: loss or parameter bits moved ({got:#018x})"
            );
        }
    }
}
