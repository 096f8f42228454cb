//! One oracle, every way into the epoch executor: each public
//! `Runner::train_epoch_*` constructor, at every plan-ahead / group-size
//! setting that must not touch the math, against a single
//! reference run — plus the recovery cells of the matrix that exist only
//! because the constructors share one attempt loop (fixed-K and
//! multi-device OOM recovery, NaN replay on a group).

use betty::{DeviceGroup, DeviceHealth, EpochStats, ExperimentConfig, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::{gib, FaultPlan};
use betty_integration_tests::LogCounts;
use betty_nn::AggregatorSpec;
use betty_runtime::with_threads;

const K: usize = 4;
const EPOCHS: usize = 3;
const SEED: u64 = 17;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

/// Dropout on, so a row that drew the dropout RNG differently (a replay
/// that did not restore it, a step run twice) cannot match.
fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.3,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

/// Everything of a run that must not depend on how the epoch was entered.
#[derive(Debug, PartialEq)]
struct Bits {
    losses: Vec<u64>,
    params: Vec<u32>,
}

struct Run {
    bits: Bits,
    stats: Vec<EpochStats>,
    runner: Runner,
}

fn run(
    ds: &Dataset,
    cfg: &ExperimentConfig,
    mut epoch: impl FnMut(&mut Runner, &Dataset) -> EpochStats,
) -> Run {
    let mut runner = Runner::new(ds, cfg, SEED);
    let stats: Vec<EpochStats> = (0..EPOCHS).map(|_| epoch(&mut runner, ds)).collect();
    let params = runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect();
    Run {
        bits: Bits {
            losses: stats.iter().map(|s| s.loss.to_bits()).collect(),
            params,
        },
        stats,
        runner,
    }
}

/// The oracle: `train_epoch_betty(K)`, one thread, no plan-ahead.
fn reference(ds: &Dataset, base: &ExperimentConfig) -> Run {
    let cfg = ExperimentConfig {
        plan_ahead: 0,
        ..base.clone()
    };
    with_threads(1, || {
        run(ds, &cfg, |r, ds| {
            r.train_epoch_betty(ds, StrategyKind::Betty, K).unwrap()
        })
    })
}

/// How a constructor comes by its micro-batches — which decides what of
/// its bookkeeping is comparable with the oracle's.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Samples and plans: served by the partition-ahead pipeline.
    Planned,
    /// Samples synchronously and owns its cut.
    Cached,
    /// The caller sampled and planned.
    Given,
}

/// One public constructor: a name, its plan source, and how to train one
/// epoch.
type Row = (&'static str, Source, fn(&mut Runner, &Dataset) -> EpochStats);

fn elastic_on(r: &mut Runner, ds: &Dataset, devices: usize) -> EpochStats {
    r.train_epoch_elastic(ds, StrategyKind::Betty, K, &DeviceGroup::new(devices))
        .unwrap()
        .combined
}

const ROWS: [Row; 5] = [
    ("betty", Source::Planned, |r, ds| {
        r.train_epoch_betty(ds, StrategyKind::Betty, K).unwrap()
    }),
    ("elastic n=1", Source::Planned, |r, ds| elastic_on(r, ds, 1)),
    ("elastic n=3", Source::Planned, |r, ds| elastic_on(r, ds, 3)),
    ("betty_cached, every epoch fresh", Source::Cached, |r, ds| {
        let (stats, fresh) = r
            .train_epoch_betty_cached(ds, StrategyKind::Betty, K, 1)
            .unwrap();
        assert!(fresh);
        stats
    }),
    ("micro_batches of plan_fixed", Source::Given, |r, ds| {
        let batch = r.sample_full_batch(ds);
        let plan = r.plan_fixed(&batch, StrategyKind::Betty, K);
        r.train_micro_batches(ds, &plan.micro_batches).unwrap()
    }),
];

#[test]
fn every_constructor_matches_the_reference_at_every_setting() {
    let ds = dataset();
    let oracle = reference(&ds, &config());
    for (name, source, epoch) in ROWS {
        for (plan_ahead, threads) in [(0usize, 1usize), (2, 4)] {
            let cell = format!("{name}, plan-ahead {plan_ahead}");
            let cfg = ExperimentConfig {
                plan_ahead,
                ..config()
            };
            let row = with_threads(threads, || run(&ds, &cfg, epoch));
            assert_eq!(row.bits, oracle.bits, "{cell}");
            for (got, want) in row.stats.iter().zip(&oracle.stats) {
                assert_eq!(got.num_steps, want.num_steps, "{cell}");
                // A step holds only its own micro-batch, whatever the group.
                assert_eq!(got.max_peak_bytes, want.max_peak_bytes, "{cell}");
                // One stats fill-in: every constructor that samples
                // reports the same host staging.
                if source != Source::Given {
                    assert_eq!(got.host_bytes, want.host_bytes, "{cell}");
                }
            }
            let log = row.runner.recovery_log();
            let c = LogCounts::of(&row.runner, None);
            let faulted = c.injected_faults + c.retries + c.anomaly_rollbacks;
            assert_eq!(faulted + c.devices_lost, 0, "{cell}: {}", log.summary());
        }
    }
}

/// A scheduled OOM at global step 1 (epoch 0's second micro-batch) is
/// survived from a *fixed* starting K, on one device and on three — the
/// cells `--k N` and `--k N --devices D` used to die in.
#[test]
fn fixed_k_epoch_recovers_from_an_injected_oom_on_any_group() {
    let ds = dataset();
    // No dropout: the recovered epoch trains at 2K, and only without
    // per-micro-batch masks is that the same loss up to accumulation order.
    let clean_cfg = ExperimentConfig {
        dropout: 0.0,
        ..config()
    };
    let faulty_cfg = ExperimentConfig {
        fault_plan: FaultPlan {
            oom_steps: vec![1],
            ..FaultPlan::default()
        },
        ..clean_cfg.clone()
    };
    let clean = reference(&ds, &clean_cfg);
    for devices in [1usize, 3] {
        let group = DeviceGroup::new(devices);
        let mut ks = Vec::new();
        let row = run(&ds, &faulty_cfg, |r, ds| {
            let epoch = r
                .train_epoch_elastic(ds, StrategyKind::Betty, K, &group)
                .expect("the retry budget covers one injected OOM");
            ks.push(epoch.assignment.len());
            epoch.combined
        });
        let log = row.runner.recovery_log();
        let first = LogCounts::of(&row.runner, Some(0));
        assert_eq!(first.retries, 1, "{devices} devices");
        assert_eq!(first.injected_faults, 1, "{devices} devices");
        let all = LogCounts::of(&row.runner, None);
        assert_eq!((all.oom_retries, all.recoveries), (1, 1), "{}", log.summary());
        assert!(ks[0] > K, "epoch 0 escalated past K = {K}: {ks:?}");
        assert_eq!(ks[1..], [K; EPOCHS - 1], "later epochs start from K again");
        for (got, want) in row.stats.iter().zip(&clean.stats) {
            assert!(
                (got.loss - want.loss).abs() < 1e-4,
                "{devices} devices: recovered loss {} strays from clean loss {}",
                got.loss,
                want.loss
            );
        }
    }
}

/// A poisoned loss at global step 1 is rolled back and replayed: bits
/// equal to a run that never saw it, on one device and on three.
#[test]
fn injected_nan_replays_bit_identically_on_any_group() {
    let ds = dataset();
    let oracle = reference(&ds, &config());
    let faulty_cfg = ExperimentConfig {
        fault_plan: FaultPlan {
            nan_loss_steps: vec![1],
            ..FaultPlan::default()
        },
        ..config()
    };
    for devices in [1usize, 3] {
        let group = DeviceGroup::new(devices);
        let row = run(&ds, &faulty_cfg, |r, ds| {
            r.train_epoch_elastic(ds, StrategyKind::Betty, K, &group)
                .expect("one rollback is in the default budget")
                .combined
        });
        assert_eq!(row.bits, oracle.bits, "{devices} devices");
        let log = row.runner.recovery_log();
        let first = LogCounts::of(&row.runner, Some(0));
        assert_eq!(first.anomaly_rollbacks, 1, "{devices} devices");
        assert_eq!(log.anomaly_rollbacks(), 1, "{}", log.summary());
    }
}

/// Device-level faults belong to the group: the constructors that run on
/// a single implicit device never read them.
#[test]
fn device_faults_do_nothing_to_the_single_device_constructors() {
    let ds = dataset();
    let oracle = reference(&ds, &config());
    let armed = ExperimentConfig {
        fault_plan: FaultPlan {
            device_fail_steps: vec![(0, 0)],
            straggler_factors: vec![(0, 3.0)],
            link_stall_rate: 1.0,
            ..FaultPlan::default()
        },
        ..config()
    };
    for (name, _, epoch) in ROWS.iter().filter(|row| !row.0.starts_with("elastic")) {
        let row = run(&ds, &armed, epoch);
        assert_eq!(row.bits, oracle.bits, "{name}");
        assert!(row.runner.recovery_log().is_empty(), "{name}");
    }
    let row = run(&ds, &armed, |r, ds| {
        let (stats, k) = r.train_epoch_auto(ds, StrategyKind::Betty).unwrap();
        assert_eq!(k, 1, "8 GiB fits the batch whole");
        stats
    });
    assert!(row.runner.recovery_log().is_empty());
}

/// A fault-free group is still a group: under the empty plan
/// `train_epoch_elastic` runs the executor's attribution stage, straggler
/// detector included. The detector reads wall clocks; a zero threshold
/// makes it deterministic — every device that worked is slower than 0×
/// the median.
#[test]
fn multi_device_epoch_runs_the_straggler_detector() {
    let ds = dataset();
    let mut group = DeviceGroup::new(3);
    group.straggler_threshold = 0.0;
    let mut runner = Runner::new(&ds, &config(), SEED);
    let epoch = runner
        .train_epoch_elastic(&ds, StrategyKind::Betty, K, &group)
        .unwrap();
    assert_eq!(LogCounts::of(&runner, None).stragglers_detected, 3);
    assert_eq!(epoch.health, [DeviceHealth::Degraded; 3]);
    assert_eq!(epoch.live_ranks, 3, "degraded devices keep serving");
}
