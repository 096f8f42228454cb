//! Extension exhibit: elastic multi-device failover overhead.
//!
//! For each group size D ∈ {2, 4, 8}, one epoch runs fault-free and
//! then with 1, …, D−1 devices killed mid-epoch (device d dies after
//! completing d micro-batches of its queue). Reported: epoch wall
//! time, the failover overhead versus the fault-free wall time of the
//! same run, micro-batches migrated, and surviving ranks. Losses are
//! bit-identical across every row of a given D — failover only moves
//! *timing*, never numerics.

use betty::{DeviceGroup, Runner, StrategyKind};
use betty_device::FaultPlan;

use crate::presets::products_3layer;
use crate::report::{secs, Table};
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let (ds, mut config) = products_3layer(profile);
    config.capacity_bytes = usize::MAX;
    config.fanouts = vec![10, 15];
    let k = 16;
    let mut table = Table::new(
        "BENCH_elastic",
        &format!("elastic failover overhead, K = {k} micro-batches"),
        &[
            "devices",
            "killed",
            "wall sec",
            "failover overhead sec",
            "migrated",
            "live ranks",
            "loss",
        ],
    );
    for devices in [2usize, 4, 8] {
        for killed in 0..devices {
            let mut cfg = config.clone();
            // Device d dies after completing d steps of its own queue;
            // device 0 always survives to absorb the load. Killing none
            // is the empty plan.
            cfg.fault_plan = FaultPlan {
                device_fail_steps: (1..=killed).map(|d| (d, d)).collect(),
                ..FaultPlan::default()
            };
            let mut runner = Runner::new(&ds, &cfg, 0);
            let epoch = runner
                .train_epoch_elastic(&ds, StrategyKind::Betty, k, &DeviceGroup::new(devices))
                .expect("device 0 always survives");
            table.row(vec![
                devices.to_string(),
                killed.to_string(),
                secs(epoch.wall_sec()),
                secs(epoch.failover_overhead_sec()),
                runner.recovery_log().migrated_steps().to_string(),
                epoch.live_ranks.to_string(),
                format!("{:.6}", epoch.combined.loss),
            ]);
        }
    }
    table.finish();
}
