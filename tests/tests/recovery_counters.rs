//! The nine per-epoch recovery counts the runs that exercise them
//! produce — OOM retries, injected faults, anomaly rollbacks, devices
//! lost, migrated steps, link retries, stragglers, I/O retries, shards
//! repaired — read from the runner's recovery log. The numbers were
//! recorded from the `EpochStats` fields that once kept copies of these
//! counts; the log must reproduce every one. Never edit them for a
//! refactor.

use betty::{DeviceGroup, ExperimentConfig, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::{gib, FaultPlan};
use betty_integration_tests::LogCounts;
use betty_nn::AggregatorSpec;
use betty_runtime::with_threads;

type Counters = [usize; 9];

/// One epoch's counts, in the order of the module docs.
fn counters(runner: &Runner, epoch: usize) -> Counters {
    let log = LogCounts::of(runner, Some(epoch));
    [
        log.retries,
        log.injected_faults,
        log.anomaly_rollbacks,
        log.devices_lost,
        log.migrated_steps,
        log.link_retries,
        log.stragglers_detected,
        log.io_retries,
        log.shards_repaired,
    ]
}

/// `epochs` epochs of `epoch` on a fresh runner, one thread.
fn run(
    ds: &Dataset,
    cfg: &ExperimentConfig,
    seed: u64,
    epochs: usize,
    mut epoch: impl FnMut(&mut Runner, &Dataset),
) -> Vec<Counters> {
    with_threads(1, || {
        let mut runner = Runner::new(ds, cfg, seed);
        for _ in 0..epochs {
            epoch(&mut runner, ds);
        }
        (0..epochs).map(|e| counters(&runner, e)).collect()
    })
}

/// A group whose straggler detector flags every device that worked: the
/// default threshold compares measured wall clocks, a zero one is exact.
fn group(devices: usize) -> DeviceGroup {
    let mut group = DeviceGroup::new(devices);
    group.straggler_threshold = 0.0;
    group
}

fn elastic(k: usize, devices: usize) -> impl FnMut(&mut Runner, &Dataset) {
    let group = group(devices);
    move |r, ds| {
        r.train_epoch_elastic(ds, StrategyKind::Betty, k, &group)
            .unwrap();
    }
}

fn cora(scale: f64, seed: u64) -> Dataset {
    DatasetSpec::cora()
        .scaled(scale)
        .with_feature_dim(16)
        .generate(seed)
}

fn config(dropout: f32, fault_plan: FaultPlan) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout,
        capacity_bytes: gib(8),
        fault_plan,
        ..ExperimentConfig::default()
    };
    cfg.retry.max_io_retries = 25;
    cfg
}

fn paged(ds: &Dataset, tag: &str) -> (Dataset, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("betty-counters-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut paged = ds.clone();
    paged.features = paged
        .features
        .to_paged_with_parity(&dir, 8, usize::MAX, 2)
        .unwrap();
    (paged, dir)
}

#[test]
fn recovery_counters_are_pinned() {
    let matrix = cora(0.12, 5);
    let mut got: Vec<(&str, Vec<Counters>)> = Vec::new();

    // The two plans of the runner's pinned fault logs.
    let (store, dir) = paged(&matrix, "pinned");
    let storage = FaultPlan {
        seed: 7,
        io_failure_rate: 0.3,
        io_stall_rate: 0.2,
        io_stall_sec: 0.002,
        shard_corrupt: vec![(1, 0)],
        ..FaultPlan::default()
    };
    let mut cfg = config(0.3, storage);
    cfg.retry.max_retries = 8;
    got.push((
        "pinned storage plan",
        run(&store, &cfg, 3, 1, elastic(4, 1)),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let device = FaultPlan {
        seed: 3,
        alloc_failure_rate: 0.004,
        oom_steps: vec![1],
        transfer_stall_rate: 0.5,
        transfer_stall_sec: 0.001,
        nan_loss_steps: vec![6],
        ..FaultPlan::default()
    };
    let mut cfg = config(0.3, device);
    cfg.retry.max_retries = 8;
    got.push((
        "pinned device plan",
        run(&matrix, &cfg, 3, 1, elastic(4, 1)),
    ));

    // The epoch matrix's OOM, NaN and device-failure cells.
    let oom = FaultPlan {
        oom_steps: vec![1],
        ..FaultPlan::default()
    };
    let nan = FaultPlan {
        nan_loss_steps: vec![1],
        ..FaultPlan::default()
    };
    for (devices, oom_cell, nan_cell) in [
        (1, "matrix OOM, 1 device", "matrix NaN, 1 device"),
        (3, "matrix OOM, 3 devices", "matrix NaN, 3 devices"),
    ] {
        let cfg = config(0.0, oom.clone());
        got.push((oom_cell, run(&matrix, &cfg, 17, 3, elastic(4, devices))));
        let cfg = config(0.3, nan.clone());
        got.push((nan_cell, run(&matrix, &cfg, 17, 3, elastic(4, devices))));
    }
    let armed = config(
        0.3,
        FaultPlan {
            device_fail_steps: vec![(0, 0)],
            straggler_factors: vec![(0, 3.0)],
            link_stall_rate: 1.0,
            ..FaultPlan::default()
        },
    );
    got.push((
        "matrix device faults, fixed K",
        run(&matrix, &armed, 17, 3, |r, ds| {
            r.train_epoch_betty(ds, StrategyKind::Betty, 4).unwrap();
        }),
    ));
    got.push((
        "matrix device faults, auto K",
        run(&matrix, &armed, 17, 3, |r, ds| {
            r.train_epoch_auto(ds, StrategyKind::Betty).unwrap();
        }),
    ));

    // A failover on a group of four.
    let failover = config(
        0.0,
        FaultPlan {
            seed: 5,
            device_fail_steps: vec![(1, 0)],
            ..FaultPlan::default()
        },
    );
    got.push((
        "failover",
        run(&cora(0.1, 6), &failover, 21, 1, elastic(8, 4)),
    ));
    let links = config(
        0.0,
        FaultPlan {
            seed: 11,
            device_fail_steps: vec![(1, 1), (3, 0)],
            straggler_factors: vec![(0, 2.0)],
            link_stall_rate: 0.5,
            link_stall_sec: 0.4,
            ..FaultPlan::default()
        },
    );
    got.push((
        "failover, link stalls",
        run(&cora(0.1, 6), &links, 21, 2, elastic(8, 4)),
    ));

    // Storage chaos over four epochs: transient errors, stalls, and a
    // corruption repaired from parity at epoch 1.
    let (store, dir) = paged(&matrix, "chaos");
    let chaos = config(
        0.3,
        FaultPlan {
            seed: 9,
            io_failure_rate: 0.3,
            io_stall_rate: 0.3,
            io_stall_sec: 0.002,
            shard_corrupt: vec![(2, 1)],
            ..FaultPlan::default()
        },
    );
    got.push(("storage chaos", run(&store, &chaos, 11, 4, elastic(1, 1))));
    let _ = std::fs::remove_dir_all(&dir);

    const QUIET: Counters = [0; 9];
    let flagged: Counters = [0, 0, 0, 0, 0, 0, 3, 0, 0];
    let want: Vec<Vec<Counters>> = vec![
        vec![[0, 24, 0, 0, 0, 0, 0, 14, 1]],
        vec![[1, 5, 1, 0, 0, 0, 0, 0, 0]],
        vec![[1, 1, 0, 0, 0, 0, 0, 0, 0], QUIET, QUIET],
        vec![[0, 1, 1, 0, 0, 0, 0, 0, 0], QUIET, QUIET],
        vec![[1, 1, 0, 0, 0, 0, 3, 0, 0], flagged, flagged],
        vec![[0, 1, 1, 0, 0, 0, 3, 0, 0], flagged, flagged],
        vec![QUIET; 3],
        vec![QUIET; 3],
        vec![[0, 1, 0, 1, 2, 0, 3, 0, 0]],
        vec![[0, 2, 0, 2, 5, 0, 3, 0, 0], [0, 3, 0, 2, 5, 1, 3, 0, 0]],
        vec![
            [0, 33, 0, 0, 0, 0, 0, 12, 0],
            [0, 1, 0, 0, 0, 0, 0, 0, 1],
            QUIET,
            QUIET,
        ],
    ];
    assert_eq!(got.len(), want.len());
    for ((name, got), want) in got.iter().zip(&want) {
        assert_eq!(got, want, "{name}");
    }
}
