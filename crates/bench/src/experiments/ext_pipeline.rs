//! Extension exhibit: the deterministic parallel batch-preparation
//! pipeline.
//!
//! Two optimizations share `betty-runtime`'s fork-join seam; this exhibit
//! times the first on its own, then asks what a second thread buys a
//! whole epoch:
//!
//! 1. **Sharded REG construction** — the shared-neighbor / dependency REG
//!    build (`betty-graph::spgemm`) shards destination rows across worker
//!    threads with per-worker sparse accumulators; the merged CSR is
//!    bit-identical for every thread count, so the serial-vs-parallel rows
//!    below are pure wall-clock comparisons of the same output.
//! 2. **Parallel micro-batch materialization** — all `K` restrictions of
//!    the sampled batch run concurrently inside planning.
//! 3. **The thread probe** — alternated pairs of one- and two-thread
//!    epochs at the repo benchmark's `mean2_k8` and `lstm2_k8` shapes, on
//!    one `Runner`: the measurement `betty_runtime::MIN_SHARD_WORK` was
//!    calibrated with (DESIGN.md "The fork-join seam and its gate").
//!
//! Speedup columns depend on real cores: on a single-core host every row
//! hovers near 1.0×. The detected core count is reported with every row
//! so CI artifacts are self-describing.

use std::time::Instant;

use betty::{ExperimentConfig, Runner, StrategyKind};
use betty_data::DatasetSpec;
use betty_graph::dependency_reg;
use betty_nn::AggregatorSpec;
use betty_runtime::with_threads;

use crate::presets::bench_dataset;
use crate::report::Table;
use crate::Profile;

/// Median wall seconds over `reps` runs of `f`.
fn time_sec<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let started = Instant::now();
        out = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out.expect("reps >= 1"))
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let reps = match profile {
        Profile::Quick => 2,
        Profile::Full => 3,
    };

    let mut table = Table::new(
        "BENCH_pipeline",
        "parallel batch-preparation pipeline (REG build + thread probe)",
        &["section", "setting", "time (s)", "baseline (s)", "speedup", "cores"],
    );

    // --- Sharded REG construction, serial vs forced thread counts. ---
    let reg_ds = bench_dataset("reddit", profile);
    let reg_config = ExperimentConfig {
        fanouts: vec![10, 25],
        hidden_dim: 32,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.0,
        ..ExperimentConfig::default()
    };
    let batch = Runner::new(&reg_ds, &reg_config, 0).sample_full_batch(&reg_ds);
    let hub_cap = 32;
    let reg_at = |threads| with_threads(threads, || time_sec(reps, || dependency_reg(&batch, hub_cap)));
    let (serial_sec, serial_reg) = reg_at(1);
    for threads in [2usize, 4, 8] {
        let (par_sec, par_reg) = reg_at(threads);
        assert_eq!(
            serial_reg, par_reg,
            "REG must be bit-identical at {threads} threads"
        );
        table.row(vec![
            "REG build".to_string(),
            format!("{threads} threads"),
            format!("{par_sec:.4}"),
            format!("{serial_sec:.4}"),
            format!("{:.2}x", serial_sec / par_sec.max(1e-12)),
            cores.to_string(),
        ]);
    }

    // --- What a second thread buys an epoch, at the harness's shapes. ---
    let pairs = match profile {
        Profile::Quick => 5,
        Profile::Full => 10,
    };
    for (name, scale, aggregator) in [
        ("mean2_k8", 0.04, AggregatorSpec::Mean),
        ("lstm2_k8", 0.01, AggregatorSpec::Lstm),
    ] {
        let ds = DatasetSpec::ogbn_products().scaled(scale).generate(1);
        let config = ExperimentConfig {
            fanouts: vec![10, 25],
            hidden_dim: 64,
            aggregator,
            dropout: 0.0,
            plan_ahead: 0,
            ..ExperimentConfig::default()
        };
        let mut runner = Runner::new(&ds, &config, 1);
        let mut epoch_at = |threads| {
            with_threads(threads, || {
                let started = Instant::now();
                runner
                    .train_epoch_betty(&ds, StrategyKind::Betty, 8)
                    .expect("default capacity fits the harness batch");
                started.elapsed().as_secs_f64()
            })
        };
        epoch_at(1); // warm-up: pools fill, pages fault in
        epoch_at(2);
        let (mut one, mut two, mut lost) = (Vec::new(), Vec::new(), 0usize);
        for pair in 0..pairs {
            // Alternate which width goes first, so drift favours neither.
            let (a, b) = if pair % 2 == 0 {
                let a = epoch_at(1);
                (a, epoch_at(2))
            } else {
                let b = epoch_at(2);
                (epoch_at(1), b)
            };
            lost += usize::from(b > a);
            one.push(a);
            two.push(b);
        }
        one.sort_by(f64::total_cmp);
        two.sort_by(f64::total_cmp);
        let (one, two) = (one[pairs / 2], two[pairs / 2]);
        table.row(vec![
            format!("epoch {name}"),
            format!("2 threads, lost {lost}/{pairs} pairs"),
            format!("{two:.4}"),
            format!("{one:.4}"),
            format!("{:.2}x", one / two.max(1e-12)),
            cores.to_string(),
        ]);
    }

    table.finish();
    println!(
        "note: REG rows compare identical (bit-equal) outputs; their speedup \
         tracks the physical core count ({cores} detected here)."
    );
}
