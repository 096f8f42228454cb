//! Extension exhibit: end-to-end storage fault tolerance.
//!
//! The paged feature store (see `ext_featurestore`) moves the feature
//! matrix onto disk — which makes disk failures part of the training
//! fault model. This exhibit arms the seedable storage fault injector
//! against the paged store and sweeps the transient-I/O failure rate
//! against the XOR-parity group width, with a scheduled single-byte
//! shard corruption landing mid-run in every chaos row.
//!
//! One property is hard-asserted per row, not just reported: **losses
//! are bit-identical to the fault-free dense run**. Transient read
//! errors are retried with seeded, *accounted* (never slept) jittered
//! backoff; a corrupt shard is reconstructed bit-identically from its
//! parity group and re-persisted. Neither may perturb a single loss
//! bit — the chaos shows up only in the I/O columns (`retries`,
//! `repaired`, `repair (s)`).
//!
//! The no-parity corruption row demonstrates the failure mode parity
//! exists to remove: the same scheduled corruption that a parity row
//! absorbs silently becomes a structured storage error that aborts the
//! run (asserted, and reported as `aborted` in the table).

use std::time::Instant;

use betty::{RunError, Runner, StrategyKind, TrainError};
use betty_device::FaultPlan;

use crate::presets::products_3layer;
use crate::report::Table;
use crate::Profile;

/// Fixed partition count for every run in the sweep.
const K: usize = 8;

/// Shard scheduled for mid-run corruption, and the epoch it fires before.
const CORRUPT: (usize, usize) = (1, 1);

/// Aggregate measurements for `epochs` fixed-K epochs.
struct Run {
    wall: f64,
    losses: Vec<u64>,
    io_retries: usize,
    shards_repaired: usize,
    repair_sec: f64,
    page_in_sec: f64,
}

fn run_epochs(runner: &mut Runner, ds: &betty_data::Dataset, epochs: usize) -> Run {
    let mut run = Run {
        wall: 0.0,
        losses: Vec::with_capacity(epochs),
        io_retries: 0,
        shards_repaired: 0,
        repair_sec: 0.0,
        page_in_sec: 0.0,
    };
    let started = Instant::now();
    for _ in 0..epochs {
        let stats = runner
            .train_epoch_betty(ds, StrategyKind::Betty, K)
            .expect("bench capacity fits the paged plan");
        run.losses.push(stats.loss.to_bits());
        run.repair_sec += stats.repair_sec;
        run.page_in_sec += stats.page_in_sec;
    }
    run.wall = started.elapsed().as_secs_f64();
    run.io_retries = runner.recovery_log().io_retries();
    run.shards_repaired = runner.recovery_log().shards_repaired();
    run
}

/// A storage fault plan: transient failures + stall jitter at `rate`,
/// plus the scheduled corruption when `corrupt` is set.
fn chaos_plan(rate: f64, corrupt: bool) -> FaultPlan {
    FaultPlan {
        seed: 7,
        io_failure_rate: rate,
        io_stall_rate: rate,
        io_stall_sec: 0.002,
        shard_corrupt: if corrupt { vec![CORRUPT] } else { vec![] },
        ..FaultPlan::default()
    }
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let (ds, config) = products_3layer(profile);
    let epochs = profile.epochs(4);
    let page_rows = (ds.num_nodes() / 64).max(1);

    let mut table = Table::new(
        "BENCH_storage_chaos",
        "storage chaos: I/O fault rate x parity width vs repairs (losses bit-identical, hard-asserted)",
        &[
            "store",
            "fault rate",
            "parity",
            "corrupt",
            "retries",
            "repaired",
            "repair (s)",
            "page-in (s)",
            "wall (s)",
            "loss bits",
        ],
    );

    // Dense anchor: no disk, no faults — the loss-bits baseline every
    // chaos row is asserted against.
    let dense = run_epochs(&mut Runner::new(&ds, &config, 0), &ds, epochs);
    table.row(vec![
        "dense".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "0".to_string(),
        "0".to_string(),
        "0.0000".to_string(),
        "0.0000".to_string(),
        format!("{:.4}", dense.wall),
        format!("{:#018x}", dense.losses[epochs - 1]),
    ]);

    // (label, io fault rate, parity width, scheduled corruption).
    let sweeps: [(&str, f64, usize, bool); 6] = [
        ("quiet", 0.0, 0, false),
        ("faults", 0.2, 0, false),
        ("faults", 0.2, 2, true),
        ("faults", 0.2, 4, true),
        ("storm", 0.5, 2, true),
        ("storm", 0.5, 4, true),
    ];
    for (label, rate, parity, corrupt) in sweeps {
        let dir = std::env::temp_dir().join(format!(
            "betty-bench-storage-chaos-{}-{label}-r{}-p{parity}",
            std::process::id(),
            (rate * 10.0) as usize,
        ));
        let mut paged_ds = ds.clone();
        paged_ds.features = paged_ds
            .features
            .to_paged_with_parity(&dir, page_rows, usize::MAX, parity)
            .expect("spilling bench features to the temp dir");
        let mut chaos_config = config.clone();
        if rate > 0.0 || corrupt {
            chaos_config.fault_plan = chaos_plan(rate, corrupt);
            // Backoff is accounted, never slept, so a deep retry budget
            // costs nothing: at a 0.5 per-read failure rate the sweep
            // performs thousands of reads, and the budget must make
            // exhaustion (p = rate^(budget+1) per read) negligible.
            chaos_config.retry.max_io_retries = 25;
        }
        let paged = run_epochs(
            &mut Runner::new(&paged_ds, &chaos_config, 0),
            &paged_ds,
            epochs,
        );
        assert_eq!(
            dense.losses, paged.losses,
            "storage chaos (rate {rate}, parity {parity}) changed the training math"
        );
        if rate > 0.0 {
            assert!(
                paged.io_retries > 0,
                "a {rate} failure rate must force at least one retry"
            );
        }
        if corrupt {
            assert!(
                paged.shards_repaired >= 1,
                "the scheduled corruption (parity {parity}) must be repaired mid-run"
            );
        }
        table.row(vec![
            "paged".to_string(),
            format!("{rate:.1}"),
            if parity == 0 { "-".into() } else { parity.to_string() },
            if corrupt { "1:1".into() } else { "-".into() },
            paged.io_retries.to_string(),
            paged.shards_repaired.to_string(),
            format!("{:.4}", paged.repair_sec),
            format!("{:.4}", paged.page_in_sec),
            format!("{:.4}", paged.wall),
            format!("{:#018x}", paged.losses[epochs - 1]),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Negative control: the same scheduled corruption with no parity
    // sidecar is *unrepairable*, and must surface as a structured
    // storage error instead of training on damaged bytes.
    let dir = std::env::temp_dir().join(format!(
        "betty-bench-storage-chaos-{}-noparity",
        std::process::id()
    ));
    let mut paged_ds = ds.clone();
    paged_ds.features = paged_ds
        .features
        .to_paged_with_parity(&dir, page_rows, usize::MAX, 0)
        .expect("spilling bench features to the temp dir");
    let mut bare_config = config.clone();
    bare_config.fault_plan = chaos_plan(0.0, true);
    let mut runner = Runner::new(&paged_ds, &bare_config, 0);
    let mut aborted = false;
    for _ in 0..epochs {
        match runner.train_epoch_betty(&paged_ds, StrategyKind::Betty, K) {
            Ok(_) => {}
            Err(RunError::Train(TrainError::Storage { shard, .. })) => {
                assert_eq!(shard, CORRUPT.0, "the corrupted shard is named in the error");
                aborted = true;
                break;
            }
            Err(other) => panic!("expected a storage error, got {other}"),
        }
    }
    assert!(
        aborted,
        "corruption without parity must abort with a structured storage error"
    );
    table.row(vec![
        "paged".to_string(),
        "0.0".to_string(),
        "-".to_string(),
        "1:1".to_string(),
        "0".to_string(),
        "0".to_string(),
        "-".to_string(),
        "-".to_string(),
        "aborted".to_string(),
        "storage error".to_string(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    table.finish();
    println!(
        "note: every completed paged row carries the dense row's loss bits — \
         hard-asserted per row, so a fault-injection path that leaks into the \
         training math fails the exhibit instead of skewing it. Retried reads \
         pay seeded jittered backoff and repairs pay reconstruction transfer \
         time, but both are *accounted* into 'repair (s)', never slept and \
         never mixed into the deterministic stats. The final row shows the \
         counterfactual: the same corruption without a parity sidecar is a \
         structured storage error, not silent damage."
    );
}
