//! Extension exhibit: simulated multi-GPU scaling (paper §7 future work).
//!
//! Micro-batches from one Betty plan are LPT-scheduled over a device
//! group; gradients ring-all-reduce. Reported: wall time, speed-up versus
//! the serial single-device run, synchronization cost, and the per-device
//! memory requirement (which *falls* with more devices — each holds fewer
//! micro-batches, but the peak is still a single micro-batch, so it is
//! flat; the win is time).

use betty::{DeviceGroup, Runner, StrategyKind};

use crate::presets::products_3layer;
use crate::report::{secs, Table};
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let (ds, mut config) = products_3layer(profile);
    config.capacity_bytes = usize::MAX;
    config.aggregator = betty_nn::AggregatorSpec::Lstm; // worth parallelizing
    config.fanouts = vec![10, 15];
    let k = 16;
    let mut table = Table::new(
        "BENCH_multi_gpu",
        &format!("multi-device scaling, K = {k} micro-batches (LSTM SAGE)"),
        &["devices", "wall sec", "speedup", "sync ms", "busiest-dev steps"],
    );
    for devices in [1usize, 2, 4, 8] {
        let mut runner = Runner::new(&ds, &config, 0);
        let epoch = runner
            .train_epoch_elastic(&ds, StrategyKind::Betty, k, &DeviceGroup::new(devices))
            .expect("unbounded device");
        let busiest = epoch
            .per_device
            .iter()
            .map(|d| d.num_steps)
            .max()
            .unwrap_or(0);
        table.row(vec![
            devices.to_string(),
            secs(epoch.wall_sec()),
            format!("{:.2}x", epoch.speedup_vs_serial()),
            format!("{:.3}", epoch.allreduce_sec * 1e3),
            busiest.to_string(),
        ]);
    }
    table.finish();
}
