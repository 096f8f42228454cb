//! Figure 10: Betty breaks the memory wall of Figure 2.
//!
//! Every Fig. 2 configuration is re-run with memory-aware batch-level
//! partitioning: the planner grows K until the largest estimated
//! micro-batch fits, then one training epoch verifies the *measured* peak
//! stays under capacity. `full MiB` prices the batch that epoch trains:
//! a twin runner with the same config and seed draws it first.

use betty::Runner;
use betty::StrategyKind;

use crate::experiments::fig02;
use crate::presets::{bench_dataset, wall_capacity};
use crate::report::{mib, Table};
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let ds = bench_dataset("ogbn-products", profile);
    let ds_wide = fig02::wide_products(profile);
    let capacity = wall_capacity(profile);
    let mut table = Table::new(
        "fig10",
        &format!(
            "breaking the wall: memory-aware K per Fig. 2 config (capacity {} MiB)",
            mib(capacity)
        ),
        &["panel", "setting", "full MiB", "K", "measured MiB", "fits?"],
    );
    for (panel, setting, config, wide) in fig02::sweep(profile) {
        let data = if wide { &ds_wide } else { &ds };
        let mut twin = Runner::new(data, &config, 0);
        let batch = twin.sample_full_batch(data);
        let full_peak = twin
            .plan_fixed(&batch, StrategyKind::Betty, 1)
            .max_estimated_peak();
        let mut runner = Runner::new(data, &config, 0);
        match runner.train_epoch_auto(data, StrategyKind::Betty) {
            Ok((stats, k)) => {
                // At K = 1 the epoch trains the priced batch whole.
                assert!(
                    k > 1 || full_peak == stats.estimated_peak_bytes,
                    "{setting}: the full batch is priced at {full_peak} B, its K = 1 epoch at {} B",
                    stats.estimated_peak_bytes
                );
                table.row(vec![
                    panel.to_string(),
                    setting,
                    mib(full_peak),
                    k.to_string(),
                    mib(stats.max_peak_bytes),
                    if stats.max_peak_bytes <= capacity {
                        "yes".into()
                    } else {
                        "NO".into()
                    },
                ])
            }
            Err(_) => table.row(vec![
                panel.to_string(),
                setting,
                mib(full_peak),
                "-".into(),
                "-".into(),
                "no fit".into(),
            ]),
        }
    }
    table.finish();
}
