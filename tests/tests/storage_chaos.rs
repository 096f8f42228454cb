//! Storage damage beyond what the store can absorb: two corrupt shards in
//! one parity group surface as a structured storage error before a single
//! damaged byte reaches the model, and a fault that strikes a gather
//! half-way ends in exact values or an error, never in stale rows. That
//! survivable chaos (transient read errors, one repaired shard) leaves
//! training bit-identical is a cell family of `epoch_matrix`.

use betty::{DeviceGroup, ExperimentConfig, RunError, Runner, StrategyKind, TrainError};
use betty_data::{
    Dataset, FeatureStoreError, ReadFault, SeededStorageFaults, StorageFaultHook, StorageIncident,
};
use betty_device::FaultPlan;
use betty_integration_tests::{config, dataset, param_bits, PAGE_ROWS};

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
        let cfg = ExperimentConfig {
            fault_plan: plan,
            ..config()
        };
        let mut runner = Runner::new(&paged_ds, &cfg, 3);
        let group = DeviceGroup::new(1);
        runner
            .train_epoch_elastic(&paged_ds, StrategyKind::Betty, 1, &group)
            .expect("epoch 0 runs before the scheduled corruption");
        let before = param_bits(&runner);
        let err = runner
            .train_epoch_elastic(&paged_ds, StrategyKind::Betty, 1, &group)
            .expect_err("a doubly-damaged parity group is unrepairable");
        match err {
            RunError::Train(TrainError::Storage { shard, detail, .. }) => {
                assert!(
                    shard <= 1,
                    "the error names a shard of the damaged group: {shard}"
                );
                assert!(detail.contains("group"), "{detail}");
            }
            other => panic!("expected a structured storage error, got {other}"),
        }
        // No optimizer step ran on damaged bytes: the parameters are
        // exactly what the last clean epoch left behind.
        assert_eq!(
            before,
            param_bits(&runner),
            "damaged data reached the optimizer"
        );
        // The store itself still refuses to serve the damaged rows.
        let mut sink = vec![0.0f32; 2 * paged_ds.feature_dim()];
        assert!(
            paged_ds
                .features
                .try_gather_into(&[0, PAGE_ROWS], &mut sink)
                .is_err(),
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
            assert_eq!(stats.pages_in, 3);
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
            fatal.arm_storage_faults(Box::<SeededStorageFaults>::default());
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
