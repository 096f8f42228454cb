//! Extension exhibit: allocator traffic of the zero-realloc hot path.
//!
//! The trainer keeps one autograd tape alive across micro-batches and
//! recycles every value/gradient buffer through the tape's
//! `betty_tensor::BufferPool`, so a steady-state epoch (same-shaped
//! micro-batches, cached partitioning) rebuilds its forward/backward pass
//! without going back to the heap. This exhibit quantifies that claim and
//! re-checks the correctness contract around it:
//!
//! 1. **Heap-allocation ratio** — identical steady-state epoch loops run
//!    with the pool on and off (`--no-pool`), at 1 and 4 worker threads,
//!    inside the tracking global allocator the `ext_alloc` binary
//!    installs. Pool-off must need ≥ 5× more allocation requests. When
//!    the tracking allocator is not installed (e.g. this exhibit invoked
//!    from `cargo bench --bench paper`, whose process keeps the system
//!    allocator), the ratio columns report `n/a` and only wall-clock and
//!    pool counters are compared.
//! 2. **Bit-identity** — per-epoch losses and final parameters must match
//!    bit-for-bit across all four runs: pooled buffers are fully
//!    overwritten before use and thread count never changes the math, so
//!    pooling is pure mechanics. This is asserted, not just reported.
//! 3. **Pool hit rate** — after a one-epoch warm-up, the measured epochs
//!    must serve at least `STEADY_STATE_HIT_RATE` of buffer requests
//!    from recycled storage. CI's alloc-smoke job re-checks this from the
//!    JSON artifact (`experiments_out/BENCH_alloc.json`).

use std::time::Instant;

use betty::{ExperimentConfig, Runner, StrategyKind};
use betty_testkit::{allocation_calls, installed};

use crate::presets::bench_dataset;
use crate::report::Table;
use crate::Profile;

/// Minimum fraction of workspace requests the warm pool must serve from
/// recycled buffers during the measured (post-warm-up) epochs.
pub(crate) const STEADY_STATE_HIT_RATE: f64 = 0.8;

/// Minimum no-pool/pool heap-allocation ratio on the steady-state loop
/// (only asserted when the tracking allocator is installed).
pub(crate) const MIN_ALLOC_RATIO: f64 = 5.0;

struct RunResult {
    loss_bits: Vec<u64>,
    param_bits: Vec<u32>,
    heap_allocs: u64,
    steps: usize,
    wall_sec: f64,
    hits: u64,
    misses: u64,
    bytes_recycled: u64,
}

/// One steady-state measurement: sample and partition once (batch
/// preparation is outside the pool's scope), warm up for one epoch so the
/// pool's cold misses are paid, then run `epochs` training epochs over the
/// same micro-batches under the allocation counter — the pure forward/
/// backward/optimizer loop the pooled workspace targets.
fn measure(ds: &betty_data::Dataset, pool: bool, epochs: usize, k: usize) -> RunResult {
    let config = ExperimentConfig {
        fanouts: vec![5, 10],
        hidden_dim: 32,
        dropout: 0.0,
        pool,
        ..ExperimentConfig::default()
    };
    let mut runner = Runner::new(ds, &config, 0);
    let batch = runner.sample_full_batch(ds);
    let micros = runner.plan_fixed(&batch, StrategyKind::Betty, k).micro_batches;
    runner
        .train_micro_batches(ds, &micros)
        .expect("default capacity fits the bench batch");

    let mut loss_bits = Vec::with_capacity(epochs);
    let mut steps = 0usize;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut bytes_recycled = 0u64;
    let allocs_before = allocation_calls();
    let started = Instant::now();
    for _ in 0..epochs {
        let stats = runner
            .train_micro_batches(ds, &micros)
            .expect("default capacity fits the bench batch");
        loss_bits.push(stats.loss.to_bits());
        steps += stats.num_steps;
        hits += stats.pool_hits;
        misses += stats.pool_misses;
        bytes_recycled += stats.pool_bytes_recycled;
    }
    let wall_sec = started.elapsed().as_secs_f64();
    let heap_allocs = allocation_calls() - allocs_before;

    let param_bits = runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect();
    RunResult {
        loss_bits,
        param_bits,
        heap_allocs,
        steps,
        wall_sec,
        hits,
        misses,
        bytes_recycled,
    }
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let ds = bench_dataset("ogbn-arxiv", profile);
    let epochs = profile.epochs(8);
    let k = 4usize;
    let counting = installed();
    if !counting {
        println!(
            "ext_alloc: tracking allocator not installed in this process; \
             reporting wall-clock and pool counters only"
        );
    }

    let mut table = Table::new(
        "BENCH_alloc",
        "heap-allocation traffic of the steady-state epoch loop (pool vs --no-pool)",
        &[
            "threads",
            "pool",
            "epochs",
            "steps",
            "heap allocs",
            "allocs/step",
            "wall/step (µs)",
            "hit rate",
            "MiB recycled",
            "alloc ratio",
            "loss+params",
        ],
    );

    for threads in [1usize, 4] {
        let [pooled, plain] = betty_runtime::with_threads(threads, || {
            [true, false].map(|pool| measure(&ds, pool, epochs, k))
        });

        // The determinism contract: pooling and thread count change
        // mechanics only, never a single bit of the math.
        assert_eq!(
            pooled.loss_bits, plain.loss_bits,
            "threads={threads}: pooled losses must be bit-identical to --no-pool"
        );
        assert_eq!(
            pooled.param_bits, plain.param_bits,
            "threads={threads}: pooled parameters must be bit-identical to --no-pool"
        );
        assert_eq!(plain.hits, 0, "a disabled pool must never serve a buffer");

        let total = pooled.hits + pooled.misses;
        let hit_rate = if total == 0 {
            0.0
        } else {
            pooled.hits as f64 / total as f64
        };
        assert!(
            hit_rate >= STEADY_STATE_HIT_RATE,
            "threads={threads}: steady-state hit rate {hit_rate:.3} below {STEADY_STATE_HIT_RATE}"
        );

        let ratio = if counting && pooled.heap_allocs > 0 {
            Some(plain.heap_allocs as f64 / pooled.heap_allocs as f64)
        } else {
            None
        };
        if let Some(r) = ratio {
            assert!(
                r >= MIN_ALLOC_RATIO,
                "threads={threads}: --no-pool made only {r:.2}x more heap allocations \
                 ({} vs {}), expected >= {MIN_ALLOC_RATIO}x",
                plain.heap_allocs,
                pooled.heap_allocs
            );
        }

        for (label, run, ratio_cell) in [
            (
                "on",
                &pooled,
                ratio.map_or("n/a".to_string(), |r| format!("{r:.1}x")),
            ),
            ("off", &plain, "1.0x (baseline)".to_string()),
        ] {
            let run_total = run.hits + run.misses;
            let run_rate = if run_total == 0 {
                0.0
            } else {
                run.hits as f64 / run_total as f64
            };
            table.row(vec![
                threads.to_string(),
                label.to_string(),
                epochs.to_string(),
                run.steps.to_string(),
                if counting {
                    run.heap_allocs.to_string()
                } else {
                    "n/a".to_string()
                },
                if counting && run.steps > 0 {
                    format!("{:.0}", run.heap_allocs as f64 / run.steps as f64)
                } else {
                    "n/a".to_string()
                },
                format!("{:.1}", 1e6 * run.wall_sec / run.steps.max(1) as f64),
                format!("{run_rate:.3}"),
                crate::report::mib(run.bytes_recycled as usize),
                ratio_cell,
                "bit-identical".to_string(),
            ]);
        }
    }
    table.finish();

    kernel_alloc_table(counting);
}

/// Kernel-level companion table: the segment mean/max reductions used to
/// allocate a fresh count/argmax `Vec<usize>` on every call; the pooled
/// `_reusing` variants amortize that to (at most) one growth allocation.
/// Both variants must produce bit-identical output — asserted here — so
/// the drop is pure allocator traffic.
fn kernel_alloc_table(counting: bool) {
    use betty_tensor::{segment, Tensor};

    let (rows, cols, n_segments, calls) = (256usize, 32usize, 64usize, 512usize);
    let values = Tensor::from_vec(
        (0..rows * cols).map(|i| ((i as f32) * 0.61).sin()).collect(),
        &[rows, cols],
    )
    .expect("kernel alloc bench tensor");
    let ids: Vec<usize> = (0..rows).map(|r| (r * 13 + 5) % n_segments).collect();
    let mut out_fresh = vec![0.0f32; n_segments * cols];
    let mut out_reusing = vec![0.0f32; n_segments * cols];

    let mut table = Table::new(
        "BENCH_alloc_kernels",
        "count/argmax buffer allocations: fresh-Vec kernels vs pooled _reusing variants",
        &["kernel", "calls", "fresh allocs", "reusing allocs", "drop"],
    );

    // segment_mean: counts buffer.
    let before = allocation_calls();
    for _ in 0..calls {
        out_fresh.fill(0.0);
        let _counts = segment::segment_mean_into(&values, &ids, &mut out_fresh);
    }
    let fresh_mean = allocation_calls() - before;
    let mut counts = Vec::new();
    let before = allocation_calls();
    for _ in 0..calls {
        out_reusing.fill(0.0);
        segment::segment_mean_into_reusing(&values, &ids, &mut out_reusing, &mut counts);
    }
    let reusing_mean = allocation_calls() - before;
    assert_eq!(
        out_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out_reusing.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "segment_mean _reusing variant must be bit-identical"
    );

    // segment_max: argmax buffer.
    let before = allocation_calls();
    for _ in 0..calls {
        out_fresh.fill(0.0);
        let _argmax = segment::segment_max_into(&values, &ids, &mut out_fresh);
    }
    let fresh_max = allocation_calls() - before;
    let mut argmax = Vec::new();
    let before = allocation_calls();
    for _ in 0..calls {
        out_reusing.fill(0.0);
        segment::segment_max_into_reusing(&values, &ids, &mut out_reusing, &mut argmax);
    }
    let reusing_max = allocation_calls() - before;
    assert_eq!(
        out_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out_reusing.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "segment_max _reusing variant must be bit-identical"
    );

    if counting {
        // One warm-up growth allocation is allowed; per-call traffic must
        // be gone entirely.
        assert!(
            fresh_mean >= calls as u64,
            "fresh segment_mean made only {fresh_mean} allocations over {calls} calls"
        );
        assert!(
            reusing_mean <= 2,
            "reusing segment_mean still allocates per call ({reusing_mean} over {calls})"
        );
        assert!(
            fresh_max >= calls as u64,
            "fresh segment_max made only {fresh_max} allocations over {calls} calls"
        );
        assert!(
            reusing_max <= 2,
            "reusing segment_max still allocates per call ({reusing_max} over {calls})"
        );
    }

    for (kernel, fresh, reusing) in [
        ("segment_mean", fresh_mean, reusing_mean),
        ("segment_max", fresh_max, reusing_max),
    ] {
        table.row(vec![
            kernel.to_string(),
            calls.to_string(),
            if counting { fresh.to_string() } else { "n/a".to_string() },
            if counting { reusing.to_string() } else { "n/a".to_string() },
            if counting && reusing > 0 {
                format!("{:.0}x", fresh as f64 / reusing as f64)
            } else if counting {
                "all".to_string()
            } else {
                "n/a".to_string()
            },
        ]);
    }
    table.finish();
}
