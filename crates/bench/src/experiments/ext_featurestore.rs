//! Extension exhibit: the out-of-core paged feature store.
//!
//! Betty's heterogeneous-memory story (§2.2) keeps the full feature
//! matrix in host memory and ships one micro-batch at a time to the
//! device. The paged [`betty_data::Features`] store extends that ladder one
//! rung down: features live in row-range shards on disk, and training
//! gathers are served through a pinned hot-set cache whose byte budget is
//! charged to the device ledger's dedicated `feature cache` category.
//!
//! This exhibit sweeps the cache budget on the power-law
//! (ogbn-products-like) preset from a deliberately starved cache to an
//! unbounded one, against the dense in-memory baseline. Two properties
//! are hard-asserted, not just reported:
//!
//! 1. **Value identity** — every paged row carries the exact loss bits of
//!    the dense run. Paging moves bytes, never values.
//! 2. **Exact accounting** — each paged row's measured peak is the dense
//!    peak plus exactly `min(budget, total feature bytes)`, i.e. the
//!    planner's reservation and the ledger agree to the byte.
//!
//! The reported columns show the economics: a starved cache pays for its
//! misses in page-ins and exposed NVMe seconds; once the budget covers
//! the working set the hit rate saturates and the page-in column
//! collapses to the cold first touch. The `pages-in bound` column is the
//! store's contract made checkable: a gather pages each shard at most
//! once, and a step issues one gather, so no budget can push `pages in`
//! past shards × steps — CI asserts it, so a return to per-row paging (or
//! to paging in a micro-batch ahead of its step) fails instead of slowing.

use std::time::Instant;

use betty::{Runner, StrategyKind};

use crate::presets::products_3layer;
use crate::report::Table;
use crate::Profile;

/// Fixed partition count for every run in the sweep.
const K: usize = 8;

/// Aggregate measurements for `epochs` fixed-K epochs on one backend.
struct Run {
    wall: f64,
    losses: Vec<u64>,
    max_peak_bytes: usize,
    /// Gathers issued: one per step.
    store_calls: u64,
    hits: u64,
    misses: u64,
    pages_in: u64,
    page_in_bytes: u64,
    page_in_sec: f64,
}

fn run_epochs(runner: &mut Runner, ds: &betty_data::Dataset, epochs: usize) -> Run {
    let mut run = Run {
        wall: 0.0,
        losses: Vec::with_capacity(epochs),
        max_peak_bytes: 0,
        store_calls: 0,
        hits: 0,
        misses: 0,
        pages_in: 0,
        page_in_bytes: 0,
        page_in_sec: 0.0,
    };
    let started = Instant::now();
    for _ in 0..epochs {
        let stats = runner
            .train_epoch_betty(ds, StrategyKind::Betty, K)
            .expect("bench capacity fits the paged plan");
        run.losses.push(stats.loss.to_bits());
        run.max_peak_bytes = run.max_peak_bytes.max(stats.max_peak_bytes);
        run.store_calls += stats.num_steps as u64;
        run.hits += stats.feature_hits;
        run.misses += stats.feature_misses;
        run.pages_in += stats.feature_pages_in;
        run.page_in_bytes += stats.feature_page_in_bytes;
        run.page_in_sec += stats.page_in_sec;
    }
    run.wall = started.elapsed().as_secs_f64();
    run
}

fn hit_rate(run: &Run) -> f64 {
    let total = run.hits + run.misses;
    if total == 0 {
        1.0
    } else {
        run.hits as f64 / total as f64
    }
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let (ds, config) = products_3layer(profile);
    let epochs = profile.epochs(6);
    let total_bytes = ds.features.size_bytes();
    // Shards sized so even the bench-scale graph needs dozens of pages.
    let page_rows = (ds.num_nodes() / 64).max(1);
    let shards = ds.num_nodes().div_ceil(page_rows) as u64;

    let mut table = Table::new(
        "BENCH_featurestore",
        "out-of-core feature store: cache budget vs epoch time and hit rate (power-law preset)",
        &[
            "store",
            "cache budget",
            "reserved KiB",
            "hit rate",
            "pages in",
            "pages-in bound",
            "paged KiB",
            "page-in (s)",
            "wall (s)",
            "s/epoch",
            "loss bits",
        ],
    );

    // Dense anchor: everything resident, every gather a hit, no ledger
    // reservation. This is the value- and peak-baseline the paged rows
    // are asserted against.
    let dense = run_epochs(&mut Runner::new(&ds, &config, 0), &ds, epochs);
    assert_eq!(dense.misses, 0, "the dense backend never misses");
    table.row(vec![
        "dense".to_string(),
        "-".to_string(),
        "0.0".to_string(),
        "100.0%".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0.0".to_string(),
        "0.0000".to_string(),
        format!("{:.4}", dense.wall),
        format!("{:.4}", dense.wall / epochs as f64),
        format!("{:#018x}", dense.losses[epochs - 1]),
    ]);

    // Starved → comfortable → unbounded cache budgets.
    let sweeps = [
        ("starved", total_bytes / 16),
        ("quarter", total_bytes / 4),
        ("unbounded", usize::MAX),
    ];
    for (label, budget) in sweeps {
        let dir = std::env::temp_dir().join(format!(
            "betty-bench-featurestore-{}-{label}",
            std::process::id()
        ));
        let mut paged_ds = ds.clone();
        paged_ds.features = paged_ds
            .features
            .to_paged(&dir, page_rows, budget)
            .expect("spilling bench features to the temp dir");
        let reserved = paged_ds.features.cache_reservation_bytes();
        assert_eq!(
            reserved,
            budget.min(total_bytes),
            "the reservation is min(budget, total feature bytes)"
        );
        let paged = run_epochs(&mut Runner::new(&paged_ds, &config, 0), &paged_ds, epochs);
        assert_eq!(
            dense.losses, paged.losses,
            "cache budget '{label}' changed the training math"
        );
        assert_eq!(
            paged.max_peak_bytes,
            dense.max_peak_bytes + reserved,
            "cache budget '{label}' must shift the peak by exactly its reservation"
        );
        table.row(vec![
            "paged".to_string(),
            label.to_string(),
            format!("{:.1}", reserved as f64 / 1024.0),
            format!("{:.1}%", hit_rate(&paged) * 100.0),
            paged.pages_in.to_string(),
            (shards * paged.store_calls).to_string(),
            format!("{:.1}", paged.page_in_bytes as f64 / 1024.0),
            format!("{:.4}", paged.page_in_sec),
            format!("{:.4}", paged.wall),
            format!("{:.4}", paged.wall / epochs as f64),
            format!("{:#018x}", paged.losses[epochs - 1]),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    table.finish();
    println!(
        "note: every paged row carries the dense row's loss bits and a peak of \
         exactly dense + min(budget, {total_bytes} feature bytes) — both are \
         hard-asserted, so a silent accounting or gather regression fails the \
         exhibit instead of skewing it. 'page-in (s)' is simulated NVMe time, \
         all of it paid on the critical path; the unbounded row's column is \
         the cold first touch alone."
    );
}
