//! Golden test for training numerics: two epochs of six models, hashed.
//!
//! The hashes pin every loss bit and every parameter bit, on both
//! backends, against silent change: a rewrite of the dense kernels, the
//! backward sweep or a fused op that promises "bit for bit" must keep
//! them. They have been re-recorded three times, each time for a change
//! that moves round-off on purpose, and each time tied to the behaviour
//! before it by the parent commit's epoch losses
//! ([`Golden::parent_losses`]), which the models must still reach to 1e-5:
//!
//! * `sage-lstm`, when the unrolled cell became the fused sequence op and
//!   `tanh`/`sigmoid` became the crate's own rational
//!   (`betty_tensor::kernels::tanh`): the libm-era losses were
//!   `[2.4714673161506653, 2.241548717021942]`, 3e-8 from the ones below.
//! * all three, when the matmul family went from a multiply and an add
//!   per term (two roundings) to one fused multiply-add, in the scalar
//!   loops and every tile alike. The commit before that one removed the
//!   family's zero-skip branch and passed with the old hashes unedited —
//!   a kept `±0.0` term never moves a finite sum that started at `+0.0` —
//!   so the whole difference is the second rounding: the losses moved by
//!   at most 5.3e-8 relative.
//! * `sage-lstm`, when the aggregator's one sequence op per in-degree
//!   bucket became one packed sequence per layer. The forward pass is
//!   bit for bit the same (the epoch-0 loss is unchanged); `dW`, `db` and
//!   `d src` add the same terms in packed rather than bucketed row order,
//!   which moved the epoch-1 loss by 2.7e-8 relative.
//!
//! Every model's loss passes through libm's `expf`/`logf` (log-softmax;
//! GAT's ELU and attention softmax too), so the hashes stay pinned to the
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

struct Golden {
    name: &'static str,
    model: ModelKind,
    aggregator: AggregatorSpec,
    hash: u64,
    /// The two epoch losses at the last commit whose matmuls rounded
    /// twice per term (both backends). `sage-pool`, `gcn` and `gin` were
    /// pinned after that change; theirs are the losses they were pinned
    /// with. `sage-lstm`'s are those of the last commit that bucketed its
    /// sequences by in-degree.
    parent_losses: [f64; 2],
}

const GOLDEN: [Golden; 6] = [
    Golden {
        name: "sage-lstm",
        model: ModelKind::GraphSage,
        aggregator: AggregatorSpec::Lstm,
        hash: 0x363b5d650b5af43a,
        parent_losses: [2.471467435359955, 2.2415486574172974],
    },
    Golden {
        name: "sage-mean",
        model: ModelKind::GraphSage,
        aggregator: AggregatorSpec::Mean,
        hash: 0xd4e7e9d7ef2474f4,
        parent_losses: [2.779236376285553, 2.5386061668395996],
    },
    Golden {
        name: "gat",
        model: ModelKind::Gat,
        aggregator: AggregatorSpec::Mean,
        hash: 0x1aa754e764a0b2fd,
        parent_losses: [1.9478726387023926, 1.9360283613204956],
    },
    Golden {
        name: "sage-pool",
        model: ModelKind::GraphSage,
        aggregator: AggregatorSpec::Pool,
        hash: 0x41e461b93578b3fb,
        parent_losses: [2.712488830089569, 2.5197341442108154],
    },
    Golden {
        name: "gcn",
        model: ModelKind::Gcn,
        aggregator: AggregatorSpec::Mean,
        hash: 0x595c207d2f877b79,
        parent_losses: [2.1625558137893677, 2.122723877429962],
    },
    Golden {
        name: "gin",
        model: ModelKind::Gin,
        aggregator: AggregatorSpec::Mean,
        hash: 0x0535cfb1c4acdec5,
        parent_losses: [3.6337804198265076, 3.0000107288360596],
    },
];

#[test]
fn two_epochs_match_the_parent_commit_bit_for_bit() {
    for Golden { name, model, aggregator, hash, parent_losses } in GOLDEN {
        for backend in [Backend::Scalar, Backend::Simd] {
            let (got, losses) = train_hash(model, aggregator, backend);
            for (loss, parent) in losses.iter().zip(parent_losses) {
                assert!(
                    (loss - parent).abs() <= 1e-5 * parent,
                    "{name} on {backend}: loss {loss} left the parent's {parent}"
                );
            }
            if std::env::var_os("GOLDEN_PRINT").is_some() {
                println!("(\"{name}\", {backend}) = {got:#018x}  losses {losses:?}");
                continue;
            }
            assert_eq!(
                got, hash,
                "{name} on {backend}: loss or parameter bits moved ({got:#018x})"
            );
        }
    }
}
