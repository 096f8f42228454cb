//! Extension exhibit: partitioning overhead (paper §7 future work:
//! "optimize the REG construction and graph partition to reduce the
//! partitioning overhead").
//!
//! Per strategy and K: time to split the output nodes (REG build + cut for
//! Betty), time to extract the micro-batch block stacks, and the training
//! epoch they enable — showing where Betty's preprocessing sits relative
//! to the compute it saves. Betty's rows also split the partition column
//! into its phases, timed through the calls the planner makes, and price
//! the cut: REG edge weight kept together that a range split cuts, per
//! millisecond of partitioning.

use std::collections::HashMap;
use std::time::Instant;

use betty::{Runner, StrategyKind};
use betty_graph::{dependency_reg, Batch, NodeId};
use betty_partition::{
    OutputPartitioner, Partitioner, Partitioning, RangePartitioner, RegPartitioner,
};

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
            // steadies millisecond timings. Betty's phases are timed in the
            // same repeats, so they and the column they split share
            // whatever else the machine was doing.
            let mut phases = BettyPhases::default();
            let plan = (0..REPS)
                .map(|_| {
                    if strategy == StrategyKind::Betty {
                        phases.time(&batch, k);
                    }
                    runner.plan_fixed(&batch, strategy, k)
                })
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
                row.extend(phases.columns(&batch, k, plan.partition_sec));
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
        "note: the last columns split Betty's partition column into the \
         calls the planner makes. The REG build is the largest on this \
         3-layer batch and is by now the co-occurrence count itself (the \
         dependant sets are assembled in linear time); the levels start \
         from the REG as it is — already symmetric, so never \
         re-symmetrised — and are merged, never sorted; refinement — the KL \
         passes that decide the cut — reads one connectivity table per \
         level, updated per move rather than recounted per visit. The \
         cached mode amortizes all three across epochs (the output set \
         never changes), trading marginal redundancy staleness for \
         near-zero partitioning cost."
    );
}

/// Seed of the runner, hence of its Betty strategy's cutter.
const SEED: u64 = 0;
/// Repeats behind the planning timings of the first table (the fastest is
/// shown).
const REPS: usize = 25;

/// Betty's partition column split into the calls `Runner::plan_fixed`
/// makes of `RegPartitioner`, fastest of the repeats each: `prepare` builds
/// the REG; the first `split(k)` builds the levels and refines, and a
/// second `split(k)` reuses the levels, so it is refinement and
/// rebalancing alone and the difference is level building.
struct BettyPhases {
    reg_build: f64,
    first_split: f64,
    second_split: f64,
    parts: Vec<Vec<NodeId>>,
}

impl Default for BettyPhases {
    fn default() -> Self {
        Self {
            reg_build: f64::MAX,
            first_split: f64::MAX,
            second_split: f64::MAX,
            parts: Vec::new(),
        }
    }
}

impl BettyPhases {
    /// One repeat of the three calls.
    fn time(&mut self, batch: &Batch, k: usize) {
        let strategy = RegPartitioner::new(SEED);
        let started = Instant::now();
        let mut prepared = strategy.prepare(batch);
        self.reg_build = self.reg_build.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        self.parts = prepared.split(k);
        self.first_split = self.first_split.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let again = prepared.split(k);
        self.second_split = self.second_split.min(started.elapsed().as_secs_f64());
        assert_eq!(
            self.parts, again,
            "a prepared batch splits the same at the same k"
        );
    }

    /// The phase columns of a Betty row, in ms, then the REG edge weight a
    /// range split cuts and Betty's does not, per millisecond of
    /// `partition_sec`.
    fn columns(&self, batch: &Batch, k: usize, partition_sec: f64) -> Vec<String> {
        // The cut as labels of the REG's nodes: the outputs, in order.
        let reg = dependency_reg(batch, 32); // `RegPartitioner::new`'s hub cap
        let local: HashMap<_, _> = batch.output_nodes().iter().zip(0..).collect();
        let mut assignment = vec![0u32; reg.num_nodes()];
        for (part, outputs) in (0..).zip(&self.parts) {
            outputs.iter().for_each(|o| assignment[local[o]] = part);
        }
        let betty = Partitioning::new(assignment, k);
        let range = RangePartitioner::new().partition(&reg, k);
        let saved = range.edge_cut(&reg) - betty.edge_cut(&reg);
        vec![
            format!("{:.2}", self.reg_build * 1e3),
            format!(
                "{:.2}",
                (self.first_split - self.second_split).max(0.0) * 1e3
            ),
            format!("{:.2}", self.second_split * 1e3),
            format!("{:.0}", saved / (partition_sec * 1e3)),
        ]
    }
}
