//! Extension exhibit: partitioning overhead (paper §7 future work:
//! "optimize the REG construction and graph partition to reduce the
//! partitioning overhead").
//!
//! Per strategy and K: time to split the output nodes (REG build + cut for
//! Betty), time to extract the micro-batch block stacks, and the training
//! epoch they enable — showing where Betty's preprocessing sits relative
//! to the compute it saves. Betty's rows also split the partition column
//! into its phases, timed through the public API, and price the cut:
//! REG edge weight kept together that a range split cuts, per
//! millisecond of partitioning.

use std::time::Instant;

use betty::{Runner, StrategyKind};
use betty_graph::dependency_reg;
use betty_partition::{MultilevelPartitioner, Partitioner, RangePartitioner};

use crate::presets::products_3layer;
use crate::report::Table;
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let (ds, mut config) = products_3layer(profile);
    config.capacity_bytes = usize::MAX;
    let ks: &[usize] = match profile {
        Profile::Quick => &[8],
        Profile::Full => &[8, 32],
    };
    let mut table = Table::new(
        "BENCH_overhead",
        "partitioning overhead vs training time (ms)",
        &[
            "K",
            "strategy",
            "partition",
            "extraction",
            "train epoch",
            "reg build",
            "levels",
            "refine+rebalance",
            "cut weight saved per ms",
        ],
    );
    let mut runner = Runner::new(&ds, &config, SEED);
    let batch = runner.sample_full_batch(&ds);
    for &k in ks {
        for strategy in StrategyKind::ALL {
            // Planning is deterministic: the fastest of a few repeats
            // steadies millisecond timings.
            let plan = (0..REPS)
                .map(|_| runner.plan_fixed(&batch, strategy, k))
                .min_by(|a, b| a.partition_sec.total_cmp(&b.partition_sec))
                .expect("REPS > 0");
            let stats = runner
                .train_micro_batches(&ds, &plan.micro_batches)
                .expect("unbounded device");
            let mut row = vec![
                k.to_string(),
                strategy.name().to_string(),
                format!("{:.2}", plan.partition_sec * 1e3),
                format!("{:.2}", plan.extraction_sec * 1e3),
                format!("{:.2}", stats.compute_sec * 1e3),
            ];
            if strategy == StrategyKind::Betty {
                row.extend(betty_phases(&batch, k, plan.partition_sec));
            } else {
                row.extend(std::iter::repeat_n("-".to_string(), 4));
            }
            table.row(row);
        }
    }
    table.finish();

    // Amortization: reuse the output grouping across epochs (the library's
    // cached-plan mode) and compare total wall time over an epoch budget.
    let epochs = profile.epochs(12);
    let mut t2 = Table::new(
        "BENCH_overhead_amortized",
        &format!("plan caching over {epochs} epochs (K = 8, Betty)"),
        &["mode", "partitionings paid", "total sec"],
    );
    for (mode, refresh) in [("fresh every epoch", 1usize), ("cached (refresh 10)", 10)] {
        let mut runner = Runner::new(&ds, &config, 0);
        let started = Instant::now();
        let mut paid = 0usize;
        for _ in 0..epochs {
            let (_, fresh) = runner
                .train_epoch_betty_cached(&ds, StrategyKind::Betty, 8, refresh)
                .expect("unbounded device");
            paid += fresh as usize;
        }
        t2.row(vec![
            mode.to_string(),
            paid.to_string(),
            format!("{:.3}", started.elapsed().as_secs_f64()),
        ]);
    }
    t2.finish();
    println!(
        "note: the last columns split Betty's partition column into its \
         phases. The REG build is the largest on this 3-layer batch and is \
         by now the co-occurrence count itself (the dependant sets are \
         assembled in linear time); the levels, merged and never sorted, are \
         the smallest; refinement — the KL passes that decide the cut — is \
         what grows with K. The cached mode amortizes all three across \
         epochs (the output set never changes), trading marginal redundancy \
         staleness for near-zero partitioning cost."
    );
}

/// Seed of the runner, hence of its Betty strategy's cutter.
const SEED: u64 = 0;
/// Repeats behind the planning timings of the first table (the fastest is
/// shown).
const REPS: usize = 25;

/// The phase columns of a Betty row, in ms: what `Runner::plan_fixed` does
/// for `StrategyKind::Betty`, step by step. A hierarchy builds its levels
/// on the first cut and reuses them on the second, so the second cut at
/// the same `k` is refinement and rebalancing alone and the difference is
/// level building. Then the REG edge weight a range split cuts and Betty's
/// does not, per millisecond of `partition_sec`.
fn betty_phases(batch: &betty_graph::Batch, k: usize, partition_sec: f64) -> Vec<String> {
    let hub_cap = 32; // `RegPartitioner::new`'s
    let (mut reg_build, mut first_cut, mut second_cut) = (f64::MAX, f64::MAX, f64::MAX);
    let mut saved = 0.0;
    for rep in 0..REPS {
        let started = Instant::now();
        let reg = dependency_reg(batch, hub_cap);
        reg_build = reg_build.min(started.elapsed().as_secs_f64());
        let unit_weights = vec![1.0; reg.num_nodes()];
        let mut hierarchy = MultilevelPartitioner::new(SEED).hierarchy(&reg, unit_weights);
        let started = Instant::now();
        let parts = hierarchy.cut(k);
        first_cut = first_cut.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let again = hierarchy.cut(k);
        second_cut = second_cut.min(started.elapsed().as_secs_f64());
        assert_eq!(parts, again, "a hierarchy cuts the same at the same k");
        if rep == 0 {
            let range = RangePartitioner::new().partition(&reg, k);
            saved = range.edge_cut(&reg) - parts.edge_cut(&reg);
        }
    }
    vec![
        format!("{:.2}", reg_build * 1e3),
        format!("{:.2}", (first_cut - second_cut).max(0.0) * 1e3),
        format!("{:.2}", second_cut * 1e3),
        format!("{:.0}", saved / (partition_sec * 1e3)),
    ]
}
