//! Host crate for the cross-crate integration tests in `tests/`, and the
//! one bit-identity oracle they share: the small dataset and base config,
//! the recovery-log counts, and [`trajectory`], which runs one cell of the
//! epoch matrix (`tests/tests/epoch_matrix.rs`) and returns everything of
//! the run that an optional mechanism must leave unchanged.

use std::sync::atomic::{AtomicUsize, Ordering};

use betty::{DeviceGroup, EpochStats, ExperimentConfig, RecoveryEvent, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec, Features};
use betty_device::{gib, FaultPlan};
use betty_nn::AggregatorSpec;
use betty_runtime::with_threads;
use betty_tensor::{with_backend, Backend};

/// Seed of every matrix run.
pub const SEED: u64 = 17;
/// Epochs before the resumed one; the shard corruption lands in the last.
const EPOCHS: usize = 2;
/// Rows per on-disk shard: the cora-scale graph spans dozens of shards,
/// and even the starved cache holds more than one.
pub const PAGE_ROWS: usize = 8;

/// The small dataset every bit-identity test trains on.
pub fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

/// The base config. Dropout on, so a run that drew the dropout RNG
/// differently (a replay that did not restore it, a step run twice)
/// cannot match.
pub fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.3,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

/// Final parameter bits, for trajectory-equality comparisons.
pub fn param_bits(runner: &Runner) -> Vec<u32> {
    runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect()
}

/// A runner's recovery-log entries counted per kind, over the whole run
/// or one epoch. The log itself keeps only the counts the CLI and the
/// trace report; the tests read the rest from its entries here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogCounts {
    /// Injected faults, device- or store-side.
    pub injected_faults: usize,
    /// OOM-triggered retries.
    pub oom_retries: usize,
    /// Recovery attempts consumed, as `Recovered` / `Exhausted` report them.
    pub retries: usize,
    /// Epochs that completed only after retrying.
    pub recoveries: usize,
    /// Epochs that ran out of retries.
    pub exhausted: usize,
    /// Numeric-anomaly rollbacks.
    pub anomaly_rollbacks: usize,
    /// Runs aborted on an unrecoverable numeric anomaly.
    pub anomaly_aborts: usize,
    /// Devices declared lost.
    pub devices_lost: usize,
    /// LPT work migrations off lost devices.
    pub work_migrations: usize,
    /// Micro-batches migrated off lost devices.
    pub migrated_steps: usize,
    /// Ring-all-reduce rebuilds over surviving ranks.
    pub ring_rebuilds: usize,
    /// Devices flagged as stragglers.
    pub stragglers_detected: usize,
    /// Timed-out all-reduce rounds retried.
    pub link_retries: usize,
    /// Transient shard-read failures absorbed by retry.
    pub io_retries: usize,
    /// Shards reconstructed from parity.
    pub shards_repaired: usize,
}

impl LogCounts {
    /// Counts the entries of `epoch`, or of every epoch when `None`.
    pub fn of(runner: &Runner, epoch: Option<usize>) -> Self {
        let mut c = Self::default();
        let log = runner.recovery_log().entries();
        for entry in log.iter().filter(|e| epoch.is_none_or(|n| e.epoch == n)) {
            match entry.event {
                RecoveryEvent::Fault(_) | RecoveryEvent::StorageFault(_) => c.injected_faults += 1,
                RecoveryEvent::OomRetry { .. } => c.oom_retries += 1,
                RecoveryEvent::Recovered { attempts, .. } => {
                    c.recoveries += 1;
                    c.retries += attempts;
                }
                RecoveryEvent::Exhausted { attempts } => {
                    c.exhausted += 1;
                    c.retries += attempts;
                }
                RecoveryEvent::AnomalyRollback { .. } => c.anomaly_rollbacks += 1,
                RecoveryEvent::AnomalyAbort { .. } => c.anomaly_aborts += 1,
                RecoveryEvent::DeviceLost { .. } => c.devices_lost += 1,
                RecoveryEvent::WorkMigrated { micro_batches, .. } => {
                    c.work_migrations += 1;
                    c.migrated_steps += micro_batches;
                }
                RecoveryEvent::RingRebuilt { .. } => c.ring_rebuilds += 1,
                RecoveryEvent::StragglerDetected { .. } => c.stragglers_detected += 1,
                RecoveryEvent::LinkRetry { .. } => c.link_retries += 1,
                RecoveryEvent::IoRetry { .. } => c.io_retries += 1,
                RecoveryEvent::ShardRepaired { .. } => c.shards_repaired += 1,
                _ => {}
            }
        }
        c
    }
}

/// How a cell enters the epoch executor: one public `Runner` call each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// `train_epoch_betty(K)`.
    Betty,
    /// `train_epoch_elastic(K)` on a group of this many devices.
    Elastic(usize),
    /// `train_epoch_betty_cached(K)`, re-partitioning every epoch.
    Cached,
    /// `train_micro_batches` of the caller's own `plan_fixed(K)`.
    Given,
}

/// Where the features live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// In memory.
    Dense,
    /// Paged, with a cache of a sixteenth of the features.
    Starved,
    /// Paged, with a cache that holds every shard.
    Unbounded,
    /// Paged, unbounded cache, XOR parity over groups of two shards.
    Parity,
}

/// What the run is made to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Nothing: the cell's base fault plan (empty in the matrix).
    Clean,
    /// An OOM at global step 1: the epoch rolls back and `K` escalates.
    Oom,
    /// A NaN loss at global step 1: rolled back and replayed.
    Nan,
    /// Transient shard-read failures and stalls, retried.
    Io,
    /// One shard's byte flipped on disk at epoch 1, repaired from parity.
    Corrupt,
    /// A device failure, a straggler and link stalls on the group.
    Device,
}

/// One point of the epoch matrix: a value on every axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Entry point.
    pub row: Row,
    /// Partition-ahead depth.
    pub plan_ahead: usize,
    /// Pinned worker-thread count.
    pub threads: usize,
    /// Pinned kernel backend.
    pub backend: Backend,
    /// Feature store.
    pub store: Store,
    /// Tracing enabled.
    pub traced: bool,
    /// Neighbor aggregator.
    pub aggregator: AggregatorSpec,
    /// Starting micro-batch count.
    pub k: usize,
    /// Injected faults.
    pub scenario: Scenario,
}

impl Cell {
    /// The reference settings for this cell's aggregator, `K` and
    /// scenario: `train_epoch_betty`, or a group of one under an OOM (whose
    /// recovery re-plans at a larger `K`); dense store, one thread, no
    /// plan-ahead, simd, untraced. Every other scenario has the
    /// clean oracle: a rolled-back NaN step replays bit for bit, storage
    /// faults find no shard on a dense store, and device faults no second
    /// device in a group of one.
    pub fn oracle(&self) -> Cell {
        let (row, scenario) = match self.scenario {
            Scenario::Oom => (Row::Elastic(1), Scenario::Oom),
            _ => (Row::Betty, Scenario::Clean),
        };
        Cell {
            row,
            plan_ahead: 0,
            threads: 1,
            backend: Backend::Simd,
            store: Store::Dense,
            traced: false,
            scenario,
            ..*self
        }
    }

    /// Whether every axis value of the cell can act: plan-ahead needs a
    /// second thread, faults a retry budget (the elastic rows), storage
    /// faults a paged store and corruption parity to repair from, device
    /// faults a group of three.
    pub fn valid(&self) -> bool {
        let elastic = matches!(self.row, Row::Elastic(_));
        let scenario = match self.scenario {
            Scenario::Clean => true,
            Scenario::Oom | Scenario::Nan => elastic,
            Scenario::Io => elastic && self.store != Store::Dense,
            Scenario::Corrupt => elastic && self.store == Store::Parity,
            Scenario::Device => self.row == Row::Elastic(3),
        };
        scenario && (self.plan_ahead == 0 || self.threads > 1)
    }

    /// `base` with this cell's aggregator, depth and fault plan.
    fn config(&self, base: &ExperimentConfig) -> ExperimentConfig {
        let mut cfg = ExperimentConfig {
            aggregator: self.aggregator,
            plan_ahead: self.plan_ahead,
            ..base.clone()
        };
        let plan = match self.scenario {
            Scenario::Clean => return cfg,
            Scenario::Oom => FaultPlan {
                oom_steps: vec![1],
                ..FaultPlan::default()
            },
            Scenario::Nan => FaultPlan {
                nan_loss_steps: vec![1],
                ..FaultPlan::default()
            },
            Scenario::Io => {
                // Backoff is accounted, never slept: a deep budget is free
                // and makes exhaustion at these rates negligible.
                cfg.retry.max_io_retries = 25;
                FaultPlan {
                    seed: 7,
                    io_failure_rate: 0.3,
                    io_stall_rate: 0.3,
                    io_stall_sec: 0.002,
                    ..FaultPlan::default()
                }
            }
            Scenario::Corrupt => FaultPlan {
                shard_corrupt: vec![(3, 1)],
                ..FaultPlan::default()
            },
            Scenario::Device => FaultPlan {
                seed: 11,
                device_fail_steps: vec![(1, 1)],
                straggler_factors: vec![(0, 2.0)],
                link_stall_rate: 0.5,
                link_stall_sec: 0.4,
                ..FaultPlan::default()
            },
        };
        cfg.fault_plan = plan;
        cfg
    }

    /// One epoch through the cell's entry point.
    fn epoch(&self, runner: &mut Runner, ds: &Dataset) -> EpochStats {
        let k = self.k;
        match self.row {
            Row::Betty => runner
                .train_epoch_betty(ds, StrategyKind::Betty, k)
                .unwrap(),
            Row::Elastic(n) => {
                let group = DeviceGroup::new(n);
                let epoch = runner.train_epoch_elastic(ds, StrategyKind::Betty, k, &group);
                epoch
                    .expect("the retry budget covers the scenario")
                    .combined
            }
            Row::Cached => {
                let cached = runner.train_epoch_betty_cached(ds, StrategyKind::Betty, k, 1);
                let (stats, fresh) = cached.unwrap();
                assert!(fresh, "refresh 1 re-partitions every epoch");
                stats
            }
            Row::Given => {
                let batch = runner.sample_full_batch(ds);
                let plan = runner.plan_fixed(&batch, StrategyKind::Betty, k);
                runner.train_micro_batches(ds, &plan.micro_batches).unwrap()
            }
        }
    }

    /// `ds` with its features spilled into a fresh directory as this
    /// cell's store asks, and that directory (`None` for the dense store).
    fn spill(&self, ds: &Dataset) -> (Dataset, Option<std::path::PathBuf>) {
        let total = ds.features.size_bytes();
        let (budget, parity) = match self.store {
            Store::Dense => return (ds.clone(), None),
            Store::Starved => (total / 16, 0),
            Store::Unbounded => (usize::MAX, 0),
            Store::Parity => (usize::MAX, 2),
        };
        static SPILLS: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "betty-matrix-{}-{}",
            std::process::id(),
            SPILLS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut paged = ds.clone();
        paged.features = ds
            .features
            .to_paged_with_parity(&dir, PAGE_ROWS, budget, parity)
            .expect("spilling test features");
        let reserved = paged.features.cache_reservation_bytes();
        assert_eq!(
            reserved,
            budget.min(total),
            "{self:?}: the cache reserves its budget"
        );
        (paged, Some(dir))
    }
}

/// Everything of a cell's run that the oracle pins.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per epoch: loss bits, steps, input nodes, source nodes, host bytes,
    /// measured peak, estimated peak and estimator-drift bits.
    pub epochs: Vec<[u64; 8]>,
    /// Validation accuracy after the first epochs.
    pub accuracy: u64,
    /// Final parameter bits.
    pub params: Vec<u32>,
    /// The run's recovery-log counts, straggler verdicts left out: the
    /// detector compares measured wall clocks, so they are timings.
    pub log: LogCounts,
    /// Feature hits, misses, shards paged in and bytes paged in, summed
    /// over the counted epochs (a rolled-back attempt's included), and the
    /// bytes the cache holds at the end.
    pub paging: [u64; 5],
    /// Storage-recovery seconds, summed.
    pub repair_sec: f64,
    /// Bytes the feature store reserves for its cache.
    pub reserved: u64,
}

fn epoch_bits(s: &EpochStats) -> [u64; 8] {
    [
        s.loss.to_bits(),
        s.num_steps as u64,
        s.total_input_nodes as u64,
        s.total_src_nodes as u64,
        s.host_bytes as u64,
        s.max_peak_bytes as u64,
        s.estimated_peak_bytes as u64,
        s.estimator_drift.to_bits(),
    ]
}

/// Runs `cell` on `ds` from `base`: two epochs, a validation `evaluate`,
/// an `export_session`, a third epoch, and that epoch replayed on a fresh
/// runner after `import_session`. Threads and backend are pinned once,
/// outermost; a paged store is spilled fresh and removed afterwards.
///
/// Asserts on the way what only the run can show: the pipeline is live
/// exactly when a planned row has depth and threads to run it, and
/// `evaluate` resets it; the resumed epoch replays bit for bit; a traced
/// run records a trace.
pub fn trajectory(ds: &Dataset, base: &ExperimentConfig, cell: &Cell) -> Outcome {
    let cfg = cell.config(base);
    let (ds, dir) = cell.spill(ds);
    let ds = &ds;
    let outcome = with_threads(cell.threads, || {
        with_backend(cell.backend, || {
            let mut runner = Runner::new(ds, &cfg, SEED);
            if cell.traced {
                runner.enable_tracing();
            }
            let mut stats: Vec<EpochStats> =
                (0..EPOCHS).map(|_| cell.epoch(&mut runner, ds)).collect();
            // A retry or rollback discards the staged bundles; the next
            // pipelined epoch starts the pipeline again.
            let last = LogCounts::of(&runner, Some(EPOCHS - 1));
            let planned = matches!(cell.row, Row::Betty | Row::Elastic(_));
            let live = planned && cell.plan_ahead > 0 && cell.threads > 1;
            let live = live && last.retries + last.anomaly_rollbacks == 0;
            assert_eq!(
                runner.plan_ahead_active(),
                live,
                "{cell:?}: pipeline liveness"
            );
            let accuracy = runner.evaluate(ds, &ds.val_idx).to_bits();
            assert!(
                !runner.plan_ahead_active(),
                "{cell:?}: evaluate resets the pipeline"
            );
            let saved = runner.export_session();
            stats.push(cell.epoch(&mut runner, ds));
            let mut resumed = Runner::new(ds, &cfg, SEED);
            resumed
                .import_session(&saved)
                .expect("same config and dataset");
            let replay = epoch_bits(&cell.epoch(&mut resumed, ds));
            assert_eq!(
                replay,
                epoch_bits(&stats[EPOCHS]),
                "{cell:?}: resumed epoch"
            );
            assert_eq!(
                param_bits(&resumed),
                param_bits(&runner),
                "{cell:?}: resumed params"
            );
            if cell.traced {
                let trace = runner.take_trace().expect("tracing was enabled");
                assert!(!trace.is_empty(), "{cell:?}: the trace recorded the run");
            }
            let sum = |f: fn(&EpochStats) -> u64| stats.iter().map(f).sum();
            let held = match &ds.features {
                Features::Paged(store) => store.cache_held_bytes() as u64,
                Features::Dense(_) => 0,
            };
            Outcome {
                epochs: stats.iter().map(epoch_bits).collect(),
                accuracy,
                params: param_bits(&runner),
                log: LogCounts {
                    stragglers_detected: 0,
                    ..LogCounts::of(&runner, None)
                },
                paging: [
                    sum(|s| s.feature_hits),
                    sum(|s| s.feature_misses),
                    sum(|s| s.feature_pages_in),
                    sum(|s| s.feature_page_in_bytes),
                    held,
                ],
                repair_sec: stats.iter().map(|s| s.repair_sec).sum(),
                reserved: ds.features.cache_reservation_bytes() as u64,
            }
        })
    });
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}
