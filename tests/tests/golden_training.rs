//! Parent-identity golden test for training numerics.
//!
//! The `sage-mean` and `gat` hashes below were recorded at the commit
//! *before* the three GEMM variants moved onto one register-tiled
//! micro-kernel, the backward sweep started packing each `Matmul` weight's
//! transpose once, and input features became gradient-free constants.
//! Those changes promise that every loss bit and every parameter bit is
//! unchanged — against the parent, not merely simd against scalar — so any
//! rewrite of the dense kernels or the backward sweep must keep these
//! values.
//!
//! The `sage-lstm` hash was re-recorded once, when the unrolled cell became
//! the fused sequence op and `tanh`/`sigmoid` became the crate's own
//! rational (`betty_tensor::kernels::tanh`): every bit downstream of an
//! activation moved by round-off, deliberately. What ties the new value to
//! the old behaviour is [`PARENT_LSTM_LOSSES`] — the two epoch losses of
//! the last commit on libm's `tanhf` — which the fused model must still
//! reach to 1e-4.
//!
//! LSTM values no longer pass through libm at all, but every model's loss
//! passes through `expf`/`logf` (log-softmax; GAT's ELU and attention
//! softmax too), so the hashes stay pinned to the platform they were
//! recorded on (x86-64 Linux, glibc); run with `GOLDEN_PRINT=1 cargo test
//! -p betty-integration-tests --test golden_training -- --nocapture` to
//! print the table for a new one.

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
/// epoch losses (also returned) and every parameter bit afterwards.
/// Feature width 20 and hidden width 36 make the LSTM gate product
/// `[n, 40]·[40, 80]` and the dense layers cross the 6×32 and 6×16 tile
/// boundaries with remainders.
fn train_hash(model: ModelKind, aggregator: AggregatorSpec, backend: Backend) -> (u64, [f64; 2]) {
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
        let losses = [(); 2].map(|()| {
            runner
                .train_epoch_betty(&ds, StrategyKind::Betty, 3)
                .expect("capacity is ample")
                .loss
        });
        let mut words: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
        for p in runner.trainer().model().params() {
            words.extend(p.value().data().iter().map(|v| u64::from(v.to_bits())));
        }
        (fnv1a(words), losses)
    })
}

/// The `sage-lstm` epoch losses of the parent commit (unrolled cell, libm
/// `tanhf` and `1/(1+expf(-x))`), both backends.
const PARENT_LSTM_LOSSES: [f64; 2] = [2.4714673161506653, 2.241548717021942];

const GOLDEN: [(&str, ModelKind, AggregatorSpec, u64); 3] = [
    (
        "sage-lstm",
        ModelKind::GraphSage,
        AggregatorSpec::Lstm,
        0xfeb0999faf368a90,
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
            let (got, losses) = train_hash(model, aggregator, backend);
            if aggregator == AggregatorSpec::Lstm {
                for (loss, parent) in losses.iter().zip(PARENT_LSTM_LOSSES) {
                    assert!(
                        (loss - parent).abs() <= 1e-4 * parent,
                        "{name} on {backend}: loss {loss} left the parent's {parent}"
                    );
                }
            }
            if std::env::var_os("GOLDEN_PRINT").is_some() {
                println!("(\"{name}\", {backend}) = {got:#018x}  losses {losses:?}");
                continue;
            }
            assert_eq!(
                got, want,
                "{name} on {backend}: loss or parameter bits moved ({got:#018x})"
            );
        }
    }
}
