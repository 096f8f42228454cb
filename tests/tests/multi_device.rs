//! Simulated multi-device training (paper §7 future work): scheduling and
//! equivalence guarantees, including elastic failover.

use betty::{lpt_assignment, DeviceGroup, ExperimentConfig, RecoveryLog, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::{gib, FaultPlan};
use betty_nn::AggregatorSpec;
use proptest::prelude::*;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.1)
        .with_feature_dim(16)
        .generate(6)
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.0,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

#[test]
fn every_micro_batch_is_assigned_and_loss_matches_single_device() {
    let ds = dataset();
    let k = 8;
    let mut single = Runner::new(&ds, &config(), 3);
    let single_stats = single
        .train_epoch_betty(&ds, StrategyKind::Betty, k)
        .unwrap();

    let mut multi = Runner::new(&ds, &config(), 3);
    let epoch = multi
        .train_epoch_multi_device(&ds, StrategyKind::Betty, k, &DeviceGroup::new(4))
        .unwrap();
    assert_eq!(epoch.assignment.len(), epoch.combined.num_steps);
    assert!(epoch.assignment.iter().all(|&d| d < 4));
    // Same seed, same plan, same math: identical epoch loss.
    assert!(
        (epoch.combined.loss - single_stats.loss).abs() < 1e-6,
        "multi {} vs single {}",
        epoch.combined.loss,
        single_stats.loss
    );
}

#[test]
fn model_parameters_identical_to_single_device_after_epoch() {
    // The all-reduce is simulated; the real accumulation is shared — so
    // trained parameters must agree bit-for-bit between runs.
    let ds = dataset();
    let run = |devices: usize| -> f64 {
        let mut runner = Runner::new(&ds, &config(), 9);
        for _ in 0..3 {
            runner
                .train_epoch_multi_device(
                    &ds,
                    StrategyKind::Betty,
                    6,
                    &DeviceGroup::new(devices),
                )
                .unwrap();
        }
        runner.evaluate(&ds, &ds.test_idx)
    };
    let acc1 = run(1);
    let acc4 = run(4);
    assert_eq!(acc1, acc4, "device count must not affect learning");
}

#[test]
fn wall_time_improves_with_devices() {
    let ds = dataset();
    let mut runner = Runner::new(&ds, &config(), 0);
    let one = runner
        .train_epoch_multi_device(&ds, StrategyKind::Betty, 8, &DeviceGroup::new(1))
        .unwrap();
    let four = runner
        .train_epoch_multi_device(&ds, StrategyKind::Betty, 8, &DeviceGroup::new(4))
        .unwrap();
    // Step times are measured, hence noisy from one epoch to the next:
    // compare each epoch's wall time only with the serial sum of its own
    // steps, never across the two runs.
    assert!(four.speedup_vs_serial() > 1.0, "{}", four.speedup_vs_serial());
    assert!((one.speedup_vs_serial() - 1.0).abs() < 1e-9);
    let busiest = four.per_device.iter().map(|d| d.num_steps).max();
    assert!(
        busiest < Some(one.per_device[0].num_steps),
        "busiest of 4 devices ran {busiest:?} of {} steps",
        one.per_device[0].num_steps
    );
}

/// Parameter bits of a runner's model, for exact identity checks.
fn param_bits(runner: &Runner) -> Vec<u32> {
    runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect()
}

/// The headline elastic guarantee: killing devices mid-epoch changes
/// scheduling and timing attribution but never the numerics — losses
/// and post-epoch parameters are bit-identical with and without
/// injected device failures, at 1 and at 4 worker threads.
#[test]
fn failover_is_bit_identical_to_fault_free_run_across_thread_counts() {
    let ds = dataset();
    let faulty = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            seed: 11,
            device_fail_steps: vec![(1, 1), (3, 0)],
            straggler_factors: vec![(0, 2.0)],
            link_stall_rate: 0.5,
            link_stall_sec: 0.4,
            ..FaultPlan::default()
        }),
        ..config()
    };
    let run = |cfg: &ExperimentConfig, threads: usize| {
        betty_runtime::with_threads(threads, || {
            let mut runner = Runner::new(&ds, cfg, 21);
            let mut log = RecoveryLog::new();
            let mut losses = Vec::new();
            for epoch in 0..2 {
                log.set_epoch(epoch);
                let multi = runner
                    .train_epoch_elastic(&ds, StrategyKind::Betty, 8, &DeviceGroup::new(4), &mut log)
                    .unwrap();
                losses.push(multi.combined.loss.to_bits());
            }
            (losses, param_bits(&runner))
        })
    };
    let (clean_losses, clean_params) = run(&config(), 1);
    for threads in [1usize, 4] {
        let (losses, params) = run(&faulty, threads);
        assert_eq!(
            losses, clean_losses,
            "losses must be bit-identical under failover at {threads} threads"
        );
        assert_eq!(
            params, clean_params,
            "parameters must be bit-identical under failover at {threads} threads"
        );
        let (losses, params) = run(&config(), threads);
        assert_eq!(losses, clean_losses, "thread count changed losses");
        assert_eq!(params, clean_params, "thread count changed parameters");
    }
}

#[test]
fn elastic_epoch_reports_failover_in_stats_and_log() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            seed: 5,
            device_fail_steps: vec![(1, 0)],
            ..FaultPlan::default()
        }),
        ..config()
    };
    let mut runner = Runner::new(&ds, &cfg, 21);
    let mut log = RecoveryLog::new();
    let multi = runner
        .train_epoch_elastic(&ds, StrategyKind::Betty, 8, &DeviceGroup::new(4), &mut log)
        .unwrap();
    assert_eq!(multi.combined.devices_lost, 1);
    assert!(multi.combined.migrated_steps > 0, "device 1 died before any step");
    assert_eq!(multi.live_ranks, 3);
    assert_eq!(multi.health[1], betty::DeviceHealth::Failed);
    assert!(multi.assignment.iter().all(|&d| d != 1), "nothing ran on the dead device");
    assert_eq!(log.devices_lost(), 1);
    assert_eq!(log.work_migrations(), 1);
    assert_eq!(log.ring_rebuilds(), 1);
    assert!(multi.failover_overhead_sec() >= 0.0);
}

#[test]
fn elastic_epoch_without_faults_matches_multi_device_path() {
    let ds = dataset();
    let mut plain = Runner::new(&ds, &config(), 7);
    let a = plain
        .train_epoch_multi_device(&ds, StrategyKind::Betty, 6, &DeviceGroup::new(3))
        .unwrap();
    let mut elastic = Runner::new(&ds, &config(), 7);
    let mut log = RecoveryLog::new();
    let b = elastic
        .train_epoch_elastic(&ds, StrategyKind::Betty, 6, &DeviceGroup::new(3), &mut log)
        .unwrap();
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.combined.loss.to_bits(), b.combined.loss.to_bits());
    assert_eq!(b.live_ranks, 3);
    // Straggler detection works off measured wall clocks, so a noisy
    // scheduler may flag one even without injected slowdowns; every
    // *deterministic* failover category must stay silent.
    assert_eq!(log.devices_lost(), 0);
    assert_eq!(log.work_migrations(), 0);
    assert_eq!(log.ring_rebuilds(), 0);
    assert_eq!(log.link_retries(), 0);
    assert_eq!(b.combined.injected_faults, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LPT scheduling properties: every job lands on a real device, and
    /// relabeling devices by any rotation leaves the sorted per-device
    /// load profile (and thus the combined work) unchanged.
    #[test]
    fn lpt_loads_are_invariant_under_device_relabeling(
        work in proptest::collection::vec(1.0f64..100.0, 1..24),
        devices in 1usize..6,
        rotate in 0usize..6,
    ) {
        let assignment = lpt_assignment(&work, devices);
        prop_assert_eq!(assignment.len(), work.len());
        prop_assert!(assignment.iter().all(|&d| d < devices));
        let loads = |assign: &[usize]| {
            let mut l = vec![0.0f64; devices];
            for (job, &d) in assign.iter().enumerate() {
                l[d] += work[job];
            }
            l.sort_by(f64::total_cmp);
            l
        };
        let base = loads(&assignment);
        // Relabel device d → (d + rotate) mod devices: a permutation of
        // the device identities must not change the load profile.
        let relabeled: Vec<usize> = assignment
            .iter()
            .map(|&d| (d + rotate) % devices)
            .collect();
        prop_assert_eq!(base, loads(&relabeled));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Combined epoch stats are a device-agnostic aggregate: identical
    /// bits whatever the group size or worker-thread count.
    #[test]
    fn combined_stats_invariant_under_devices_and_threads(
        devices in 2usize..5,
        threads in 1usize..5,
        k in 4usize..9,
    ) {
        let ds = dataset();
        let run = |devices: usize, threads: usize| {
            betty_runtime::with_threads(threads, || {
                Runner::new(&ds, &config(), 13)
                    .train_epoch_multi_device(&ds, StrategyKind::Betty, k, &DeviceGroup::new(devices))
                    .unwrap()
            })
        };
        let base = run(1, 1);
        let other = run(devices, threads);
        prop_assert_eq!(base.combined.loss.to_bits(), other.combined.loss.to_bits());
        prop_assert_eq!(base.combined.num_steps, other.combined.num_steps);
        prop_assert_eq!(base.combined.total_src_nodes, other.combined.total_src_nodes);
    }
}

#[test]
fn more_devices_than_micro_batches_is_fine() {
    let ds = dataset();
    let mut runner = Runner::new(&ds, &config(), 0);
    let epoch = runner
        .train_epoch_multi_device(&ds, StrategyKind::Betty, 2, &DeviceGroup::new(8))
        .unwrap();
    // Some devices idle; wall time is still the busiest device.
    assert!(epoch.wall_sec() > 0.0);
    assert_eq!(epoch.per_device.len(), 8);
}
