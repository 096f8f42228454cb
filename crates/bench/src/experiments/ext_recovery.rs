//! Extension exhibit: OOM recovery under fault injection.
//!
//! The paper assumes the memory estimator keeps training clear of OOM;
//! this exhibit measures what happens when that assumption breaks. A
//! deterministic [`betty_device::FaultPlan`] injects allocation failures
//! and capacity jitter into the simulated device, and the recovering
//! trainer (an auto-K [`Runner::train_epoch_elastic`] on a group of one)
//! rolls back to the epoch-start checkpoint and escalates K until the
//! epoch fits. Columns:
//! injected faults observed, checkpointed retries consumed, the final K
//! the run settled on, and validation accuracy — which should survive
//! every recoverable scenario (recovery replays the epoch bit-exactly
//! from the snapshot, so accuracy degradation would mean lost state).

use betty::{DeviceGroup, RetryPolicy, Runner, StrategyKind};
use betty_device::FaultPlan;
use betty_nn::AggregatorSpec;

use crate::presets::{bench_dataset, wall_config};
use crate::report::Table;
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let ds = bench_dataset("cora", profile);
    let epochs = profile.epochs(6);
    // The LSTM aggregator is the paper's memory hog (Fig. 2a): against the
    // wall capacity it trains close to the limit, so capacity jitter can
    // actually push a step over the edge. Spurious failures use the lean
    // Mean config — K-escalation shrinks nothing that helps them, so the
    // row shows recovery absorbing transient flakiness (or exhausting the
    // budget when the flakiness persists).
    let scenarios: Vec<(&str, AggregatorSpec, FaultPlan)> = vec![
        ("no faults", AggregatorSpec::Lstm, FaultPlan::default()),
        (
            "scheduled OOM at step 0",
            AggregatorSpec::Lstm,
            FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            },
        ),
        (
            "spurious alloc failures (5%)",
            AggregatorSpec::Mean,
            FaultPlan {
                seed: 99,
                alloc_failure_rate: 0.05,
                ..FaultPlan::default()
            },
        ),
        (
            "capacity jitter (75%)",
            AggregatorSpec::Lstm,
            FaultPlan {
                seed: 7,
                capacity_jitter: 0.75,
                ..FaultPlan::default()
            },
        ),
        // A poisoned loss is not a capacity problem: the numeric sentinel
        // rolls the epoch back to its snapshot and replays it at the same
        // K, and the injection (keyed to the consumed global step) does
        // not re-fire — so the run completes at the fault-free accuracy.
        (
            "NaN loss at step 1",
            AggregatorSpec::Mean,
            FaultPlan {
                nan_loss_steps: vec![1],
                ..FaultPlan::default()
            },
        ),
    ];

    let mut table = Table::new(
        "BENCH_recovery",
        &format!("checkpointed OOM recovery over {epochs} epochs (cora, SAGE)"),
        &["scenario", "faults", "retries", "rollbacks", "final K", "val acc"],
    );
    for (name, aggregator, fault_plan) in scenarios {
        let mut config = wall_config(vec![10, 25], 32, aggregator, profile);
        config.fault_plan = fault_plan;
        config.retry = RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        };
        let mut runner = Runner::new(&ds, &config, 0);
        let mut final_k = 0usize;
        let mut failed = false;
        for _ in 0..epochs {
            let group = DeviceGroup::new(1);
            match runner.train_epoch_elastic(&ds, StrategyKind::Betty, 1, &group) {
                Ok(epoch) => final_k = epoch.assignment.len(),
                Err(e) => {
                    println!("scenario '{name}' did not survive: {e}");
                    failed = true;
                    break;
                }
            }
        }
        let val = runner.evaluate(&ds, &ds.val_idx);
        let log = runner.recovery_log();
        table.row(vec![
            name.to_string(),
            log.injected_faults().to_string(),
            log.oom_retries().to_string(),
            log.anomaly_rollbacks().to_string(),
            if failed {
                "—".to_string()
            } else {
                final_k.to_string()
            },
            format!("{:.1}%", val * 100.0),
        ]);
    }
    table.finish();
    println!(
        "note: every recovery replays the epoch from its checkpoint, so \
         validation accuracy matches the fault-free run wherever the retry \
         budget suffices; only the wasted (rolled-back) work differs."
    );
}
