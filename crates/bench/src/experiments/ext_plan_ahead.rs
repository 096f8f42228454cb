//! Extension exhibit: the partition-ahead pipelined epoch scheduler.
//!
//! The paper measures Betty's REG construction + min-cut at ~7.47 ms per
//! batch against range partitioning's 0.03 ms (§6.5, future-work §7:
//! "optimize the REG construction and graph partition to reduce the
//! partitioning overhead"). The `plan_ahead` scheduler removes that
//! overhead from the critical path instead of from the algorithm: while
//! epoch `t` trains, spare `betty-runtime` workers sample and REG-partition
//! epoch `t + 1`, handing the finished plan over at the next epoch
//! boundary.
//!
//! This exhibit sweeps the pipeline depth on the power-law
//! (ogbn-products-like) preset and reports wall time per epoch against two
//! anchors: the synchronous Betty run (depth 0 — what the pipeline must
//! beat) and the range-partitioned run (whose planning cost is already
//! negligible — what the pipeline chases). With depth ≥ 1 and at least two
//! worker threads the Betty rows should close to within a few percent of
//! the range baseline; the residual gap is handoff overhead, not planning.
//!
//! Loss bits are hard-asserted identical across every depth: the pipeline
//! moves work in time, never in value.

use std::time::Instant;

use betty::{Runner, StrategyKind};

use crate::presets::products_3layer;
use crate::report::Table;
use crate::Profile;

/// Fixed partition count for every run in the sweep.
const K: usize = 8;

/// Wall seconds, per-epoch loss bits, and hidden planning seconds for
/// `epochs` fixed-K epochs.
fn run_epochs(
    runner: &mut Runner,
    ds: &betty_data::Dataset,
    strategy: StrategyKind,
    epochs: usize,
) -> (f64, Vec<u64>, f64) {
    let mut losses = Vec::with_capacity(epochs);
    let mut hidden = 0.0f64;
    let started = Instant::now();
    for _ in 0..epochs {
        let stats = runner
            .train_epoch_betty(ds, strategy, K)
            .expect("bench capacity fits the staged plan");
        losses.push(stats.loss.to_bits());
        hidden += stats.plan_ahead_overlap_sec;
    }
    (started.elapsed().as_secs_f64(), losses, hidden)
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Every row runs on the same pool width. At least 4 workers keeps the
    // pipeline live even on narrow CI hosts — determinism is
    // thread-count-invariant, so only the timings (honestly) reflect
    // whether spare cores exist to hide the planning in.
    let workers = cores.max(4);
    betty_runtime::with_threads(workers, || {
        let (ds, base_config) = products_3layer(profile);
        let epochs = profile.epochs(8);

        let mut table = Table::new(
            "BENCH_plan_ahead",
            "partition-ahead pipeline: wall time vs depth (power-law preset)",
            &[
                "strategy",
                "depth",
                "epochs",
                "pipelined",
                "wall (s)",
                "s/epoch",
                "hidden plan (s)",
                "vs range",
                "loss bits",
            ],
        );

        // Range anchor: planning is ~free, so this is the floor the pipeline
        // chases. Depth is irrelevant for it (kept at 0 to stay synchronous).
        let (range_wall, range_losses, _) = run_epochs(
            &mut Runner::new(&ds, &base_config, 0),
            &ds,
            StrategyKind::Range,
            epochs,
        );
        table.row(vec![
            "range".to_string(),
            "0".to_string(),
            epochs.to_string(),
            "no".to_string(),
            format!("{range_wall:.4}"),
            format!("{:.4}", range_wall / epochs as f64),
            "0.0000".to_string(),
            "1.00x".to_string(),
            format!("{:#018x}", range_losses[epochs - 1]),
        ]);

        let mut betty_losses: Option<Vec<u64>> = None;
        for depth in [0usize, 1, 2, 4] {
            let config = betty::ExperimentConfig {
                plan_ahead: depth,
                ..base_config.clone()
            };
            let mut runner = Runner::new(&ds, &config, 0);
            let (wall, losses, hidden) = run_epochs(&mut runner, &ds, StrategyKind::Betty, epochs);
            let live = runner.plan_ahead_active();
            assert_eq!(live, depth > 0, "pipeline liveness must track depth");
            match &betty_losses {
                None => betty_losses = Some(losses.clone()),
                Some(reference) => assert_eq!(
                    reference, &losses,
                    "depth {depth} changed the training math"
                ),
            }
            table.row(vec![
                "betty".to_string(),
                depth.to_string(),
                epochs.to_string(),
                if live { "yes" } else { "no" }.to_string(),
                format!("{wall:.4}"),
                format!("{:.4}", wall / epochs as f64),
                format!("{hidden:.4}"),
                format!("{:.2}x", wall / range_wall.max(1e-12)),
                format!("{:#018x}", losses[epochs - 1]),
            ]);
        }
        table.finish();
    });
    println!(
        "note: every betty row carries identical loss bits (hard-asserted) — \
         the pipeline relocates planning in time, never in value. 'hidden \
         plan (s)' is the sampling + partitioning time that ran under the \
         previous epoch's training instead of on the critical path. With \
         depth >= 1 the betty rows chase the range anchor ({workers} pool \
         threads over {cores} physical cores here; without spare cores the \
         overlap is interleaved, not parallel)."
    );
}
