//! Property tests for the out-of-core paged feature store: training over
//! disk-resident feature shards must be bit-identical to the dense
//! in-memory backend — same losses, same final parameter bits, same
//! deterministic epoch stats — at any thread count, under any cache
//! budget, through OOM recovery, and across an export/import resume.
//! The only sanctioned differences are the paging counters (the dense
//! backend never misses) and the memory accounting, which must shift by
//! *exactly* the cache reservation, on both the measured and the
//! estimated side of the ledger.

use betty::{DeviceGroup, EpochStats, ExperimentConfig, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec, Features};
use betty_device::{gib, FaultPlan};
use betty_integration_tests::LogCounts;
use betty_nn::AggregatorSpec;
use betty_tensor::DType;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

fn config(fault_plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.3,
        capacity_bytes: gib(8),
        fault_plan,
        ..ExperimentConfig::default()
    }
}

/// The value-determined subset of the last epoch's [`EpochStats`] and
/// recovery counts: everything except wall-clock timings, the paging
/// counters (defined to differ between backends), and the memory
/// accounting (compared separately, exactly).
fn value_stats(runner: &Runner, stats: &EpochStats) -> Vec<u64> {
    let log = LogCounts::of(runner, Some(runner.epochs_run() - 1));
    vec![
        stats.loss.to_bits(),
        stats.num_steps as u64,
        stats.total_input_nodes as u64,
        stats.total_src_nodes as u64,
        stats.host_bytes as u64,
        log.retries as u64,
        log.anomaly_rollbacks as u64,
        log.injected_faults as u64,
    ]
}

/// Final parameter bits, for trajectory-equality comparisons.
fn param_bits(runner: &Runner) -> Vec<u32> {
    runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect()
}

/// One full trajectory over `ds`: three recovering epochs, a mid-run
/// session export, one more epoch, then an import into a *fresh* runner
/// that must replay that last epoch bit-for-bit (the resume path paged
/// training has to survive). Returns the per-epoch value stats, the
/// per-epoch (measured peak, estimated peak) pairs, the validation
/// accuracy bits, the final parameter bits, and the summed paging
/// counters (hits, misses, pages in).
#[allow(clippy::type_complexity)]
fn trajectory(
    ds: &Dataset,
    cfg: &ExperimentConfig,
    seed: u64,
    threads: usize,
) -> (
    Vec<Vec<u64>>,
    Vec<(usize, usize)>,
    u64,
    Vec<u32>,
    (u64, u64, u64),
) {
    betty_runtime::with_threads(threads, || {
        let mut runner = Runner::new(ds, cfg, seed);
        let mut epochs = Vec::new();
        let mut peaks = Vec::new();
        let mut counters = (0u64, 0u64, 0u64);
        let train = |runner: &mut Runner| {
            runner
                .train_epoch_elastic(ds, StrategyKind::Betty, 1, &DeviceGroup::new(1))
                .expect("retry budget covers the single injected OOM")
                .combined
        };
        for _ in 0..3 {
            let stats = train(&mut runner);
            epochs.push(value_stats(&runner, &stats));
            peaks.push((stats.max_peak_bytes, stats.estimated_peak_bytes));
            counters.0 += stats.feature_hits;
            counters.1 += stats.feature_misses;
            counters.2 += stats.feature_pages_in;
        }
        let saved = runner.export_session();
        let live = train(&mut runner);
        epochs.push(value_stats(&runner, &live));
        peaks.push((live.max_peak_bytes, live.estimated_peak_bytes));
        // Resume: a fresh runner over the same (possibly paged) dataset must
        // replay the post-checkpoint epoch bit-identically.
        let mut resumed = Runner::new(ds, cfg, seed);
        resumed
            .import_session(&saved)
            .expect("same config and dataset shape");
        let replay = train(&mut resumed);
        assert_eq!(
            value_stats(&resumed, &replay),
            *epochs.last().unwrap(),
            "the resumed epoch diverged from the uninterrupted run"
        );
        let accuracy = runner.evaluate(ds, &ds.val_idx).to_bits();
        let params = param_bits(&runner);
        (epochs, peaks, accuracy, params, counters)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Paged ≡ dense across cache budgets {starved, unbounded} × threads
    /// {1, 4}, with and without an injected mid-run OOM: identical value
    /// stats, accuracy, and parameter bits; measured and estimated peaks
    /// shifted by exactly the cache reservation.
    #[test]
    fn paged_training_reproduces_dense_bitwise(
        seed in 0u64..500,
        inject_oom in (0u8..2).prop_map(|b| b == 1),
    ) {
        let ds = dataset();
        let total_bytes = ds.features.size_bytes();
        let fault_plan = FaultPlan {
            // Global step 1 lands mid-run: that epoch OOMs, rolls back,
            // and recovery escalates K. The paged store's extra cache
            // alloc must not shift the scheduled fault off its step.
            oom_steps: if inject_oom { vec![1] } else { vec![] },
            ..FaultPlan::default()
        };
        let cfg = config(fault_plan);
        let reference = trajectory(&ds, &cfg, seed, 1);
        prop_assert_eq!(reference.4.1, 0, "the dense backend never misses");

        // 8 rows/shard keeps even the starved budget above one shard.
        let page_rows = 8usize;
        for (label, budget) in [("starved", total_bytes / 16), ("unbounded", usize::MAX)] {
            for threads in [1usize, 4] {
                // A fresh spill per run: a store left warm by the
                // previous run would (legitimately) stop paging, and the
                // exercised-the-machinery assertions below are about a
                // cold cache.
                let dir = std::env::temp_dir().join(format!(
                    "betty-fse-{}-{seed}-{}-{label}-{threads}",
                    std::process::id(),
                    inject_oom
                ));
                let mut paged_ds = ds.clone();
                paged_ds.features = paged_ds
                    .features
                    .to_paged(&dir, page_rows, budget)
                    .expect("spilling test features");
                let reserved = paged_ds.features.cache_reservation_bytes();
                prop_assert_eq!(reserved, budget.min(total_bytes));
                let paged = trajectory(&paged_ds, &cfg, seed, threads);
                prop_assert_eq!(
                    &reference.0, &paged.0,
                    "cache '{}' at {} threads changed the training math (oom: {})",
                    label, threads, inject_oom
                );
                prop_assert_eq!(reference.2, paged.2, "validation accuracy diverged");
                prop_assert_eq!(
                    &reference.3, &paged.3,
                    "final parameter bits diverged ('{}', {} threads)",
                    label, threads
                );
                for (epoch, (&(dm, de), &(pm, pe))) in
                    reference.1.iter().zip(&paged.1).enumerate()
                {
                    prop_assert_eq!(
                        pm, dm + reserved,
                        "epoch {} measured peak must shift by exactly the reservation",
                        epoch
                    );
                    prop_assert_eq!(
                        pe, de + reserved,
                        "epoch {} estimated peak must shift by exactly the reservation",
                        epoch
                    );
                }
                // The trajectory must actually exercise the paging
                // machinery, not degenerate into a dense run.
                prop_assert!(paged.4.2 > 0, "no shard was ever paged in");
                if label == "starved" {
                    // More page-ins than shards exist ⇒ shards were
                    // evicted and re-read: the LRU actually churned.
                    let shards = ds.features.rows().div_ceil(page_rows) as u64;
                    prop_assert!(
                        paged.4.2 > shards,
                        "a starved cache must evict and re-page ({} page-ins over {} shards)",
                        paged.4.2, shards
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A fresh store directory per case (cases of one test run sequentially,
/// tests in parallel — the tag keeps them apart).
fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("betty-fse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Raw bits of gathered values (NaN-safe equality).
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The gathered rows as raw bits.
fn gathered_bits(features: &Features, indices: &[usize]) -> Vec<u32> {
    let mut out = vec![f32::NAN; indices.len() * features.cols()];
    features
        .try_gather_into(indices, &mut out)
        .expect("an undamaged store gathers");
    bits(&out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store-level contract of the shard-grouped gather, for any
    /// geometry, storage width, cache budget and index list (repeats and
    /// arbitrary order included): values equal the dense gather bit for
    /// bit; a call pages in at most the distinct shards it touches; every
    /// row is a hit or a miss; and a repeat of the call under a budget
    /// that holds the touched shards reads nothing.
    #[test]
    fn shard_grouped_gather_pages_each_shard_at_most_once(
        rows in 1usize..200,
        cols in 1usize..6,
        page_rows in 1usize..24,
        budget_kind in 0usize..4,
        dtype_kind in 0usize..3,
        raw_indices in proptest::collection::vec(0usize..1_000_000, 0..300),
        seed in 0u64..1_000,
    ) {
        let dtype = [DType::F32, DType::Bf16, DType::F16][dtype_kind];
        let matrix = betty_tensor::randn(&[rows, cols], &mut Pcg64Mcg::seed_from_u64(seed));
        let dense = Features::dense_with_dtype(matrix, dtype);
        let shard_bytes = page_rows * cols * dtype.bytes_per_value();
        let total = dense.size_bytes();
        let budget = [
            shard_bytes,
            (total / 2).max(shard_bytes),
            total.saturating_sub(shard_bytes).max(shard_bytes),
            usize::MAX,
        ][budget_kind];
        let dir = store_dir("grouped");
        let paged = dense.to_paged(&dir, page_rows, budget).expect("spilling test features");

        let indices: Vec<usize> = raw_indices.iter().map(|r| r % rows).collect();
        let mut touched: Vec<usize> = indices.iter().map(|i| i / page_rows).collect();
        touched.sort_unstable();
        touched.dedup();
        let touched_bytes: usize = touched
            .iter()
            .map(|&s| page_rows.min(rows - s * page_rows) * cols * dtype.bytes_per_value())
            .sum();
        let expect = gathered_bits(&dense, &indices);

        let mut out = vec![f32::NAN; indices.len() * cols];
        let cold = paged.try_gather_into(&indices, &mut out).expect("cold gather");
        prop_assert_eq!(&bits(&out), &expect, "paged gather diverged from dense");
        prop_assert_eq!(cold.pages_in, touched.len() as u64, "cold: one page-in per distinct shard");
        prop_assert_eq!(cold.hits + cold.misses, indices.len() as u64);
        prop_assert_eq!(cold.misses, indices.len() as u64, "nothing was resident");
        let Features::Paged(store) = &paged else { unreachable!("to_paged returns a paged store") };
        prop_assert!(store.cache_held_bytes() <= budget, "the pinned set exceeds its budget");

        let warm = paged.try_gather_into(&indices, &mut out).expect("repeat gather");
        prop_assert_eq!(&bits(&out), &expect, "repeat gather diverged from dense");
        prop_assert_eq!(warm.hits + warm.misses, indices.len() as u64);
        prop_assert!(warm.pages_in <= touched.len() as u64);
        if budget >= touched_bytes {
            prop_assert_eq!(warm.pages_in, 0, "the touched shards fit: nothing to re-read");
            prop_assert_eq!(warm.hits, indices.len() as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cyclic-scan regression. A cache `c` shards short of a working
    /// set that every call touches in full is LRU's worst case when rows
    /// are served in call order: each miss evicts a shard a later row of
    /// the same call needs (about one page-in per ten rows at a 90 %
    /// cache). Served by shard, residents first, every call after the
    /// first pages in exactly `c` shards.
    #[test]
    fn cyclic_full_coverage_gathers_page_exactly_the_shortfall(
        num_shards in 2usize..24,
        page_rows in 1usize..12,
        cols in 1usize..5,
        short in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let short = 1 + (short - 1) % (num_shards - 1); // 1 ..= num_shards − 1
        let rows = num_shards * page_rows; // equal-size shards: the budget is exact
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let dense = Features::dense(betty_tensor::randn(&[rows, cols], &mut rng));
        let budget = (num_shards - short) * page_rows * cols * 4;
        let dir = store_dir("cyclic");
        let paged = dense.to_paged(&dir, page_rows, budget).expect("spilling test features");
        for call in 0..5 {
            let mut indices: Vec<usize> = (0..rows).collect();
            indices.shuffle(&mut rng);
            let mut out = vec![f32::NAN; rows * cols];
            let stats = paged.try_gather_into(&indices, &mut out).expect("gather");
            let want = if call == 0 { num_shards } else { short };
            prop_assert_eq!(
                stats.pages_in, want as u64,
                "call {}: {} shards, cache {} short", call, num_shards, short
            );
            prop_assert_eq!(stats.misses, (want * page_rows) as u64);
            prop_assert_eq!(stats.hits + stats.misses, rows as u64);
            prop_assert_eq!(&bits(&out), &gathered_bits(&dense, &indices));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
