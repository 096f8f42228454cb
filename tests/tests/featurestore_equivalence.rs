//! Property tests for the out-of-core paged feature store at the store
//! level: the shard-grouped gather returns the dense gather's bits for any
//! geometry, storage width, cache budget and index list, and pages each
//! shard in at most once per call. That training over a paged store is
//! bit-identical to the dense run is a cell family of `epoch_matrix`.

use betty_data::Features;
use betty_tensor::DType;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

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
