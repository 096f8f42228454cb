//! Property tests for end-to-end storage fault tolerance: training over
//! a paged feature store with injected storage chaos — transient read
//! errors retried with seeded, accounted backoff, and scheduled
//! single-byte shard corruption repaired from the XOR parity sidecar —
//! must be bit-identical to the fault-free dense run. Damage beyond what
//! parity can reconstruct must surface as a structured storage error
//! before a single damaged byte reaches the model.

use betty::{EpochStats, ExperimentConfig, RecoveryLog, RunError, Runner, StrategyKind, TrainError};
use betty_data::{
    Dataset, DatasetSpec, FeatureStoreError, ReadFault, StorageFaultHook, StorageIncident,
};
use betty_device::{gib, FaultPlan};
use betty_nn::AggregatorSpec;
use proptest::prelude::*;

/// Rows per on-disk shard: small enough that the cora-scale graph spans
/// dozens of shards and every parity group is really exercised.
const PAGE_ROWS: usize = 8;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

fn config(fault_plan: Option<FaultPlan>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.3,
        capacity_bytes: gib(8),
        fault_plan,
        ..ExperimentConfig::default()
    };
    // Backoff is accounted, never slept, so a deep retry budget is free;
    // it must make exhaustion negligible at the failure rates below.
    cfg.retry.max_io_retries = 25;
    cfg
}

/// The value-determined subset of [`EpochStats`]: everything except
/// wall-clock timings and the fault-accounting counters (`io_retries`,
/// `shards_repaired`, `repair_sec`, `injected_faults`), which are
/// *defined* to differ between a faulted and a fault-free run.
fn value_stats(stats: &EpochStats) -> Vec<u64> {
    vec![
        stats.loss.to_bits(),
        stats.num_steps as u64,
        stats.total_input_nodes as u64,
        stats.total_src_nodes as u64,
        stats.host_bytes as u64,
        stats.oom_retries as u64,
        stats.anomaly_rollbacks as u64,
    ]
}

/// Final parameter bits, for trajectory-equality comparisons.
fn param_bits(runner: &Runner) -> Vec<u32> {
    runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Chaos accounting summed over a trajectory.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Chaos {
    io_retries: u64,
    shards_repaired: u64,
    repair_sec: f64,
}

/// Four recovering epochs over `ds`; returns per-epoch value stats, the
/// final parameter bits, the validation-accuracy bits, and the summed
/// chaos counters.
fn trajectory(
    ds: &Dataset,
    cfg: &ExperimentConfig,
    seed: u64,
    threads: usize,
) -> (Vec<Vec<u64>>, Vec<u32>, u64, Chaos) {
    betty_runtime::with_threads(threads, || {
        let mut runner = Runner::new(ds, cfg, seed);
        let mut log = RecoveryLog::new();
        let mut epochs = Vec::new();
        let mut chaos = Chaos::default();
        for _ in 0..4 {
            let (stats, _k) = runner
                .train_epoch_auto_recovering(ds, StrategyKind::Betty, &mut log)
                .expect("storage chaos within the retry/parity budget is survivable");
            epochs.push(value_stats(&stats));
            chaos.io_retries += stats.io_retries;
            chaos.shards_repaired += stats.shards_repaired;
            chaos.repair_sec += stats.repair_sec;
        }
        let accuracy = runner.evaluate(ds, &ds.val_idx).to_bits();
        let params = param_bits(&runner);
        (epochs, params, accuracy, chaos)
    })
}

/// Spills `ds`'s features into a fresh temp store with `parity`-wide XOR
/// groups, returning the paged dataset and the store dir.
fn paged(ds: &Dataset, tag: &str, parity: usize) -> (Dataset, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("betty-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut paged_ds = ds.clone();
    paged_ds.features = paged_ds
        .features
        .to_paged_with_parity(&dir, PAGE_ROWS, usize::MAX, parity)
        .expect("spilling test features");
    (paged_ds, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A scheduled single-byte shard corruption, repaired mid-run from
    /// the parity sidecar, leaves losses, deterministic epoch stats,
    /// accuracy, and final parameter bits exactly equal to the
    /// fault-free dense run — at 1 and 4 threads.
    #[test]
    fn single_shard_corruption_is_repaired_bit_identically(
        seed in 0u64..500,
        shard in 0usize..8,
    ) {
        let ds = dataset();
        let dense = trajectory(&ds, &config(None), seed, 1);
        prop_assert_eq!(dense.3, Chaos::default(), "the dense run sees no chaos");

        let plan = FaultPlan {
            shard_corrupt: vec![(shard, 1)],
            ..FaultPlan::default()
        };
        for threads in [1usize, 4] {
            let (paged_ds, dir) = paged(&ds, &format!("repair-{seed}-{shard}-{threads}"), 2);
            let chaos = trajectory(&paged_ds, &config(Some(plan.clone())), seed, threads);
            prop_assert_eq!(
                &dense.0, &chaos.0,
                "corrupting shard {} changed the training math at {} threads",
                shard, threads
            );
            prop_assert_eq!(&dense.1, &chaos.1, "final parameter bits diverged");
            prop_assert_eq!(dense.2, chaos.2, "validation accuracy diverged");
            prop_assert_eq!(chaos.3.shards_repaired, 1, "the corruption was repaired exactly once");
            prop_assert!(chaos.3.repair_sec > 0.0, "reconstruction time is accounted");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Transient shard-read failures and stall jitter, retried with
    /// seeded accounted backoff, leave the whole trajectory bit-identical
    /// to the fault-free paged run; only the I/O counters differ.
    #[test]
    fn transient_io_faults_leave_training_bit_identical(
        seed in 0u64..500,
        fault_seed in 0u64..100,
    ) {
        let ds = dataset();
        let (quiet_ds, quiet_dir) = paged(&ds, &format!("quiet-{seed}-{fault_seed}"), 0);
        let quiet = trajectory(&quiet_ds, &config(None), seed, 1);
        prop_assert_eq!(quiet.3, Chaos::default(), "the fault-free run sees no chaos");

        let plan = FaultPlan {
            seed: fault_seed,
            io_failure_rate: 0.3,
            io_stall_rate: 0.3,
            io_stall_sec: 0.002,
            ..FaultPlan::default()
        };
        for threads in [1usize, 4] {
            let (noisy_ds, noisy_dir) =
                paged(&ds, &format!("noisy-{seed}-{fault_seed}-{threads}"), 0);
            let noisy = trajectory(&noisy_ds, &config(Some(plan.clone())), seed, threads);
            prop_assert_eq!(
                &quiet.0, &noisy.0,
                "transient I/O faults changed the training math at {} threads",
                threads
            );
            prop_assert_eq!(&quiet.1, &noisy.1, "final parameter bits diverged");
            prop_assert_eq!(quiet.2, noisy.2, "validation accuracy diverged");
            prop_assert!(noisy.3.io_retries > 0, "a 0.3 failure rate must force retries");
            prop_assert!(noisy.3.repair_sec > 0.0, "retry backoff is accounted, not slept");
            let _ = std::fs::remove_dir_all(&noisy_dir);
        }
        let _ = std::fs::remove_dir_all(&quiet_dir);
    }
}

/// Two corrupt shards in one parity group exceed what XOR can
/// reconstruct: the epoch must abort with a structured storage error
/// naming a shard of the damaged group — before any damaged byte is
/// trained on — and the damage must still be visible to a direct read.
#[test]
fn double_corruption_in_one_group_is_rejected_not_trained_on() {
    betty_runtime::with_threads(1, || {
        let ds = dataset();
        // Shards 0 and 1 share parity group 0 at width 2, and cover rows
        // 0..16 — touched by the very first gather of an epoch, so the
        // failing epoch dies on its first step.
        let plan = FaultPlan {
            shard_corrupt: vec![(0, 1), (1, 1)],
            ..FaultPlan::default()
        };
        let (paged_ds, dir) = paged(&ds, "double", 2);
        let mut runner = Runner::new(&paged_ds, &config(Some(plan)), 3);
        let mut log = RecoveryLog::new();
        let (_, _) = runner
            .train_epoch_auto_recovering(&paged_ds, StrategyKind::Betty, &mut log)
            .expect("epoch 0 runs before the scheduled corruption");
        let before = param_bits(&runner);
        let err = runner
            .train_epoch_auto_recovering(&paged_ds, StrategyKind::Betty, &mut log)
            .expect_err("a doubly-damaged parity group is unrepairable");
        match err {
            RunError::Train(TrainError::Storage { shard, detail, .. }) => {
                assert!(shard <= 1, "the error names a shard of the damaged group: {shard}");
                assert!(detail.contains("group"), "{detail}");
            }
            other => panic!("expected a structured storage error, got {other}"),
        }
        // No optimizer step ran on damaged bytes: the parameters are
        // exactly what the last clean epoch left behind.
        assert_eq!(before, param_bits(&runner), "damaged data reached the optimizer");
        // The store itself still refuses to serve the damaged rows.
        let mut sink = vec![0.0f32; 2 * paged_ds.feature_dim()];
        assert!(
            paged_ds.features.try_gather_into(&[0, PAGE_ROWS], &mut sink).is_err(),
            "damaged rows must stay unreadable until repaired or re-spilled"
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Fails the first `fail_first` attempts of every read of the listed
/// shards; every other read goes through.
struct FlakyShards {
    shards: Vec<usize>,
    fail_first: usize,
}

impl StorageFaultHook for FlakyShards {
    fn check_read(&mut self, shard: usize, attempt: usize) -> ReadFault {
        ReadFault {
            fail: self.shards.contains(&shard) && attempt < self.fail_first,
            stall_sec: 0.0,
        }
    }

    fn backoff_jitter(&mut self) -> f64 {
        0.5
    }
}

/// A gather serves the shards already resident first and pages the rest
/// in after, so a fault can strike when `out` is already half written.
/// Such a call must end in exact values (after retry / parity repair) or
/// in a structured error — never in `Ok` over stale rows — and what it
/// records must not depend on the thread count.
#[test]
fn faults_in_the_page_in_phase_never_yield_a_stale_ok() {
    let ds = dataset();
    let cols = ds.feature_dim();
    // Six shards in three parity groups; 0, 2 and 4 are made resident,
    // so 1, 3 and 5 are reached only after their rows were copied.
    let rows = 6 * PAGE_ROWS;
    let indices: Vec<usize> = (0..rows).rev().chain((0..rows).step_by(3)).collect();
    let resident: Vec<usize> = [0, 2, 4].iter().map(|s| s * PAGE_ROWS).collect();
    let expect = ds.features.gather_rows(&indices);
    let stale = vec![f32::NAN; indices.len() * cols];

    let mut logs = Vec::new();
    for threads in [1usize, 4] {
        betty_runtime::with_threads(threads, || {
            let (paged_ds, dir) = paged(&ds, &format!("phase2-{threads}"), 2);
            let store = &paged_ds.features;
            let warm = |store: &betty_data::Features| {
                store
                    .try_gather_into(&resident, &mut vec![0.0f32; resident.len() * cols])
                    .expect("warming the resident shards")
            };

            // Survivable: shard 3 is corrupt on disk (repairable from its
            // peer 2 and the group's parity), shards 1 and 5 fail transiently.
            warm(store);
            store.corrupt_shard_byte(3).expect("damaging shard 3");
            store.arm_storage_faults(Box::new(FlakyShards {
                shards: vec![1, 5],
                fail_first: 2,
            }));
            let mut out = stale.clone();
            let stats = store
                .try_gather_into(&indices, &mut out)
                .expect("retries and one parity repair are within budget");
            assert_eq!(
                out,
                expect.data(),
                "recovered gather must be exact at {threads} threads"
            );
            assert_eq!(
                (stats.io_retries, stats.shards_repaired, stats.pages_in),
                (4, 1, 3)
            );
            assert_eq!(stats.hits + stats.misses, indices.len() as u64);
            let incidents = store.drain_storage_incidents();
            let order: Vec<(usize, bool)> = incidents
                .iter()
                .map(|i| match i {
                    StorageIncident::IoRetry { shard, .. } => (*shard, false),
                    StorageIncident::ShardRepaired { shard, .. } => (*shard, true),
                })
                .collect();
            assert_eq!(
                order,
                [(1, false), (1, false), (3, true), (5, false), (5, false)],
                "missing shards are paged in ascending order"
            );

            // Unsurvivable, transient: shard 3 never reads. The call has
            // already copied shards 0/2/4 (and paged shard 1) when it fails.
            let (fatal_ds, fatal_dir) = paged(&ds, &format!("phase2-fatal-{threads}"), 2);
            let fatal = &fatal_ds.features;
            warm(fatal);
            fatal.set_max_io_retries(2);
            fatal.arm_storage_faults(Box::new(FlakyShards {
                shards: vec![3],
                fail_first: usize::MAX,
            }));
            let mut out = stale.clone();
            match fatal.try_gather_into(&indices, &mut out) {
                Err(FeatureStoreError::Shard {
                    shard: 3, detail, ..
                }) => {
                    assert!(detail.contains("retry budget 2"), "{detail}");
                }
                other => panic!("expected a structured error naming shard 3, got {other:?}"),
            }
            let exhausted = fatal.drain_storage_incidents();
            // Unsurvivable, corrupt: both members of group 2 are damaged.
            fatal.disarm_storage_faults();
            fatal.corrupt_shard_byte(4).expect("damaging shard 4");
            fatal.corrupt_shard_byte(5).expect("damaging shard 5");
            let mut out = stale.clone();
            match fatal.try_gather_into(&indices, &mut out) {
                Err(FeatureStoreError::Shard {
                    shard: 4, detail, ..
                }) => {
                    assert!(detail.contains("group 2"), "{detail}");
                }
                other => panic!("expected a structured error naming shard 4, got {other:?}"),
            }
            // A failed call leaves the cache usable: the undamaged shards
            // still gather exactly, the damaged ones still refuse.
            let healthy: Vec<usize> = (0..4 * PAGE_ROWS).rev().collect();
            assert_eq!(
                fatal.gather_rows(&healthy),
                ds.features.gather_rows(&healthy)
            );
            assert!(fatal.try_gather_into(&indices, &mut out).is_err());

            logs.push((incidents, exhausted, stats));
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&fatal_dir);
        });
    }
    assert_eq!(
        logs[0], logs[1],
        "incident order and accounting differ across thread counts"
    );
}
