//! High-level experiment facade: dataset + config → epochs.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex};

use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_data::{Dataset, StorageIncident};
use betty_device::{
    AggregatorKind, Device, FaultPlan, MemoryEstimate, MemoryEstimator, ModelShape,
    BYTES_PER_VALUE,
};
use betty_graph::{sample_batch_in, Batch, CsrGraph, NodeId};
use betty_nn::{Gat, Gcn, Gin, GnnModel, GraphSage, TrainState};

use betty_trace::{SpanKind, TraceRecorder};

use crate::config::{ExperimentConfig, ModelKind};
use crate::multi::{attribute_epoch, simulate_elastic_schedule, DeviceGroup, MultiDeviceEpoch};
use crate::pipeline::{dataset_key, PipelineSpec, PlanMode, PlanPipeline, StagedBundle};
use crate::planner::{MemoryAwarePlanner, Plan, PlanError};
use crate::recovery::{RecoveryEvent, RecoveryLog, RetryPolicy};
use crate::stats::{EpochStats, StepStats};
use crate::strategy::{build_strategy, StrategyKind};
use crate::trainer::{TrainError, Trainer};
use crate::{aggregator_kind, eval};

/// Failure of a full planning-plus-training epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No partition count satisfied the capacity constraint.
    Plan(PlanError),
    /// A step ran out of device memory and recovery was not attempted
    /// (either the caller used a non-recovering entry point or the
    /// retry budget is zero).
    Train(TrainError),
    /// Recovery was attempted but every retry failed. The chain root
    /// ([`std::error::Error::source`]) is the error from the *first*
    /// failed attempt, preserving what originally went wrong.
    RetryExhausted {
        /// Recovery attempts that were consumed.
        attempts: usize,
        /// The first attempt's error (the original failure).
        source: TrainError,
    },
    /// The numeric-anomaly rollback budget ran out: the sentinel kept
    /// catching a NaN/Inf loss or gradient after restoring the
    /// epoch-start snapshot. Unlike an OOM this is not a capacity
    /// problem, so no amount of re-partitioning can fix it — the run
    /// aborts (the CLI maps this to its own exit code).
    Anomaly {
        /// Rollbacks consumed before giving up.
        rollbacks: usize,
        /// The final, fatal anomaly
        /// ([`TrainError::NumericAnomaly`]).
        source: TrainError,
    },
    /// A durable checkpoint could not be written, read, or applied
    /// (I/O failure, corruption, or a config-fingerprint mismatch).
    Checkpoint(String),
    /// Every device of the elastic group was declared lost with
    /// unfinished work outstanding — there is no survivor to migrate
    /// onto, so the epoch cannot complete (the CLI maps this to its own
    /// exit code).
    DevicesExhausted(crate::multi::DevicesExhausted),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Plan(e) => write!(f, "planning failed: {e}"),
            RunError::Train(e) => write!(f, "training failed: {e}"),
            RunError::RetryExhausted { attempts, source } => write!(
                f,
                "training failed after {attempts} recovery attempts; original error: {source}"
            ),
            RunError::Anomaly { rollbacks, source } => write!(
                f,
                "numeric anomaly persisted after {rollbacks} rollbacks: {source}"
            ),
            RunError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            RunError::DevicesExhausted(e) => write!(f, "elastic group failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Plan(e) => Some(e),
            RunError::Train(e) => Some(e),
            RunError::RetryExhausted { source, .. } => Some(source),
            RunError::Anomaly { source, .. } => Some(source),
            RunError::Checkpoint(_) => None,
            RunError::DevicesExhausted(e) => Some(e),
        }
    }
}

impl From<PlanError> for RunError {
    fn from(e: PlanError) -> Self {
        RunError::Plan(e)
    }
}

impl From<TrainError> for RunError {
    fn from(e: TrainError) -> Self {
        RunError::Train(e)
    }
}

impl RunError {
    /// The step failure behind an executor error, for the entry points
    /// whose signature is [`TrainError`]. They run a fixed, cached or
    /// caller-supplied plan on a fault-free group with no retry budget,
    /// which can fail in no other way.
    fn into_train_error(self) -> TrainError {
        match self {
            RunError::Train(e)
            | RunError::RetryExhausted { source: e, .. }
            | RunError::Anomaly { source: e, .. } => e,
            other => panic!("an epoch with nothing to plan or lose failed before training: {other}"),
        }
    }
}

/// Ties a model, trainer, planner, and sampler together for one experiment.
///
/// Each `train_epoch_*` call re-samples the full training batch (per-epoch
/// neighbor sampling, as DGL does), partitions it with the requested
/// strategy, and trains. They are one epoch executor under different
/// configurations — a plan source, a device group, a fault policy; one
/// device is a group of one, no recovery a zero retry budget (DESIGN.md,
/// "Epoch executor") — and [`Runner::train_epoch_elastic`] is the general
/// one. See the [crate docs](crate) for an example.
pub struct Runner {
    config: ExperimentConfig,
    trainer: Trainer,
    planner: MemoryAwarePlanner,
    in_graph: Arc<CsrGraph>,
    sample_rng: Pcg64Mcg,
    seed: u64,
    cached_parts: Option<CachedParts>,
    /// Combined config + dataset-shape fingerprint captured at
    /// construction, stored into checkpoints so `--resume` rejects a
    /// checkpoint produced against a different dataset (same-config,
    /// different-data used to slip through the config-only fingerprint).
    dataset_fingerprint: u64,
    /// Partition-ahead pipeline staging future epochs' plans on
    /// background workers (`config.plan_ahead > 0` only). `None` means
    /// the next epoch plans synchronously; anything that perturbs the
    /// sampler RNG stream or the staged work's assumptions resets it.
    pipeline: Option<PlanPipeline>,
    /// Where the next auto-K search starts: the last one's `Plan::k`.
    warm_k: Option<usize>,
    epochs_run: usize,
    /// All-reduce link-stall injector, armed once per run from the
    /// config's fault plan so its seeded stream continues across epochs
    /// (mirrors the alloc/transfer injectors owned by the trainer).
    link_faults: Option<betty_device::LinkFaultInjector>,
    /// Storage fault injector shared with the paged feature store's
    /// chaos hook (`None` without storage faults in the plan). The store
    /// calls into it on every shard read; the runner drains its events
    /// into the recovery log at epoch boundaries.
    storage_faults: Option<Arc<Mutex<betty_device::StorageFaultInjector>>>,
    /// Scheduled `(shard, epoch)` payload corruptions from the fault
    /// plan, applied to the on-disk store at the start of the named
    /// epoch (entries are consumed as they fire).
    shard_corrupt: Vec<(usize, usize)>,
}

/// Adapts the device crate's seedable [`betty_device::StorageFaultInjector`]
/// onto the data crate's [`betty_data::StorageFaultHook`] (betty-data
/// cannot depend on betty-device, so the trait lives downstream and this
/// shim lives here).
struct StorageHookAdapter(Arc<Mutex<betty_device::StorageFaultInjector>>);

impl betty_data::StorageFaultHook for StorageHookAdapter {
    fn check_read(&mut self, shard: usize, attempt: usize) -> betty_data::ReadFault {
        let verdict = self
            .0
            .lock()
            .expect("storage fault injector lock poisoned")
            .check_read(shard, attempt);
        betty_data::ReadFault {
            fail: verdict.fail,
            stall_sec: verdict.stall_sec,
        }
    }

    fn backoff_jitter(&mut self) -> f64 {
        self.0
            .lock()
            .expect("storage fault injector lock poisoned")
            .backoff_jitter()
    }
}

/// A reusable output-node assignment from a previous epoch's plan.
///
/// The output set is the training split — identical every epoch — so the
/// grouping from one epoch's REG cut remains *valid* on the next epoch's
/// re-sampled batch (only slightly stale as an optimum). Reusing it
/// amortizes Betty's partitioning overhead (§7 future work).
struct CachedParts {
    strategy: StrategyKind,
    k: usize,
    parts: Vec<Vec<NodeId>>,
    epochs_used: usize,
}

/// Where an epoch's micro-batches come from.
#[derive(Clone, Copy)]
enum PlanSource<'a> {
    /// Sample, then plan — staged ahead by the partition-ahead pipeline
    /// when one is running.
    Planned(PlanMode),
    /// Sample, then regroup by the cached `k`-way cut, which serves
    /// `refresh_every` epochs before it is cut afresh.
    Cached { k: usize, refresh_every: usize },
    /// Caller-built micro-batches: nothing is sampled or planned.
    Given(&'a [Batch]),
}

/// One configuration of [`Runner::run_epoch`]; every public
/// `train_epoch_*` entry point but the mini-batch baseline constructs one.
struct EpochSpec<'a> {
    source: PlanSource<'a>,
    /// One device is a group of one.
    group: &'a DeviceGroup,
    /// No recovery is a zero budget.
    retry: RetryPolicy,
    /// The plan whose `device_fail_steps`, `straggler_factors` and link
    /// stalls hit the group; `None` is a fault-free group.
    device_faults: Option<FaultPlan>,
}

/// What one attempt trains.
struct Work<'a> {
    micro_batches: Cow<'a, [Batch]>,
    /// Eq. 5 estimates parallel to `micro_batches` — empty when nothing
    /// priced *these* micro-batches (caller-supplied, or cut for an
    /// earlier epoch's batch), which leaves the drift fields at 0.
    estimates: Vec<MemoryEstimate>,
}

impl From<Plan> for Work<'_> {
    fn from(plan: Plan) -> Self {
        Work {
            micro_batches: Cow::Owned(plan.micro_batches),
            estimates: plan.estimates,
        }
    }
}

/// The acquire stage's product.
struct Acquired<'a> {
    /// The sampled full batch, which retries re-partition (`None` for
    /// caller-supplied micro-batches).
    sampled: Option<Batch>,
    /// Attempt 0's work.
    work: Result<Work<'a>, PlanError>,
    /// [`EpochStats::plan_ahead_overlap_sec`].
    overlap_sec: f64,
    /// [`EpochStats::plan_ahead_staged_bytes`].
    staged_bytes: usize,
}

impl<'a> Acquired<'a> {
    /// Work acquired on the training thread: nothing was staged ahead.
    fn synchronous(sampled: Option<Batch>, work: Result<Work<'a>, PlanError>) -> Self {
        Acquired {
            sampled,
            work,
            overlap_sec: 0.0,
            staged_bytes: 0,
        }
    }
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("config", &self.config)
            .finish()
    }
}

/// Host bytes staging one epoch: raw features plus the block structure
/// (3 values per edge) of the sampled batch, when there is one, and of
/// every micro-batch.
fn host_staging_bytes(dataset: &Dataset, sampled: Option<&Batch>, micro_batches: &[Batch]) -> usize {
    let edges = sampled.map_or(0, Batch::total_edges)
        + micro_batches.iter().map(Batch::total_edges).sum::<usize>();
    dataset.features.size_bytes() + edges * 3 * BYTES_PER_VALUE
}

/// Records the `partition` and `plan` spans of a planning call that
/// finished at recorder second `finished`, from the wall times the planner
/// measured (`partition_sec` is the REG build + cuts, `extraction_sec` the
/// micro-batch restriction + estimation, each summed over every probe).
fn record_plan_spans(tr: &mut TraceRecorder, plan: &Plan, finished: f64) {
    let start = (finished - plan.extraction_sec - plan.partition_sec).max(0.0);
    tr.record_span(SpanKind::Partition, None, start, plan.partition_sec);
    let extraction_start = start + plan.partition_sec;
    tr.record_span(SpanKind::Plan, None, extraction_start, plan.extraction_sec);
}

/// Per-node LSTM intermediate constant of Eq. 5 for *this* engine: what
/// the fused sequence op (`betty_tensor::Graph::lstm_sequence`) keeps on
/// the tape per neighbor step of one destination, in units of the feature
/// width `d` —
///
/// * the four activated gates `i`, `f`, `g`, `o` (4d),
/// * the cell state `c_t` (d),
/// * the hidden state `h_t` (d; the last step's is the op's output).
///
/// The gathered input `x_t`, `tanh(c_t)` and the gate gradients are
/// recomputed or transient in the backward pass, and nothing else of the
/// cell is ever materialized. The paper's PyTorch constant is 18 and
/// explicitly implementation-dependent (§4.4.3); Table 7 reports our
/// estimation error under this one.
pub const LSTM_TAPE_CONSTANT: usize = 6;

impl Runner {
    /// Builds the model, device, estimator and planner for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`ExperimentConfig::validate`].
    pub fn new(dataset: &Dataset, config: &ExperimentConfig, seed: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        let mut model_rng = Pcg64Mcg::seed_from_u64(seed);
        let model: Box<dyn GnnModel> = match config.model {
            ModelKind::GraphSage => Box::new(GraphSage::new(
                dataset.feature_dim(),
                config.hidden_dim,
                dataset.num_classes,
                config.num_layers(),
                config.aggregator,
                config.dropout,
                &mut model_rng,
            )),
            ModelKind::Gat => Box::new(Gat::new(
                dataset.feature_dim(),
                config.hidden_dim,
                dataset.num_classes,
                config.num_layers(),
                config.num_heads,
                config.dropout,
                &mut model_rng,
            )),
            ModelKind::Gcn => Box::new(Gcn::new(
                dataset.feature_dim(),
                config.hidden_dim,
                dataset.num_classes,
                config.num_layers(),
                config.dropout,
                &mut model_rng,
            )),
            ModelKind::Gin => Box::new(Gin::new(
                dataset.feature_dim(),
                config.hidden_dim,
                dataset.num_classes,
                config.num_layers(),
                config.dropout,
                &mut model_rng,
            )),
        };
        let estimator_aggregator = match config.model {
            ModelKind::GraphSage => aggregator_kind(config.aggregator),
            ModelKind::Gat => AggregatorKind::Attention {
                heads: config.num_heads,
            },
            ModelKind::Gcn => AggregatorKind::Gcn,
            ModelKind::Gin => AggregatorKind::Gin,
        };
        let shape = ModelShape {
            in_dim: dataset.feature_dim(),
            hidden_dim: config.hidden_dim,
            num_classes: dataset.num_classes,
            num_layers: config.num_layers(),
            aggregator: estimator_aggregator,
            params_gnn: model.gnn_param_count(),
            params_agg: model.agg_param_count(),
            dropout: config.dropout > 0.0,
        };
        let estimator = MemoryEstimator::new(shape)
            .with_lstm_constant(LSTM_TAPE_CONSTANT)
            .with_feature_dtype(config.precision)
            .with_activation_dtype(config.precision);
        let planner =
            MemoryAwarePlanner::new(estimator, config.capacity_bytes, config.max_partitions)
                .with_prefetch_staging(config.prefetch)
                .with_feature_cache(dataset.features.cache_reservation_bytes());
        let mut trainer = Trainer::new(
            model,
            config.learning_rate,
            Device::new(config.capacity_bytes),
            seed.wrapping_add(1),
        );
        trainer.set_pooling(config.pool);
        trainer.set_sentinel(config.sentinel);
        trainer.set_precision(config.precision);
        let mut link_faults = None;
        let mut storage_faults = None;
        let mut shard_corrupt = Vec::new();
        if let Some(fault_plan) = &config.fault_plan {
            trainer.arm_faults(fault_plan);
            link_faults = Some(fault_plan.link_injector());
            if fault_plan.has_storage_faults() {
                let injector = Arc::new(Mutex::new(fault_plan.storage_injector()));
                dataset
                    .features
                    .arm_storage_faults(Box::new(StorageHookAdapter(Arc::clone(&injector))));
                storage_faults = Some(injector);
                shard_corrupt = fault_plan.shard_corrupt.clone();
            } else {
                // The store outlives any one runner (datasets are shared);
                // a storage-quiet plan must clear a predecessor's hook so
                // an armed-but-inert run stays byte-identical to no plan.
                dataset.features.disarm_storage_faults();
            }
        } else {
            dataset.features.disarm_storage_faults();
        }
        dataset.features.set_max_io_retries(config.retry.max_io_retries);
        Self {
            config: config.clone(),
            trainer,
            planner,
            in_graph: Arc::new(dataset.graph.reverse()),
            sample_rng: Pcg64Mcg::seed_from_u64(seed.wrapping_add(2)),
            seed,
            cached_parts: None,
            dataset_fingerprint: config.fingerprint_for_dataset(
                dataset.feature_dim(),
                dataset.num_classes,
                dataset.num_nodes(),
            ),
            pipeline: None,
            warm_k: None,
            epochs_run: 0,
            link_faults,
            storage_faults,
            shard_corrupt,
        }
    }

    /// Starts trace recording on the underlying trainer (spans, device
    /// memory timeline, estimator-drift records). Tracing never changes
    /// the math — see [`Trainer::enable_tracing`].
    pub fn enable_tracing(&mut self) {
        self.trainer.enable_tracing();
    }

    /// Stops trace recording, returning everything captured since
    /// [`Runner::enable_tracing`], if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trainer.disable_tracing()
    }

    /// Epoch preamble: stamps the trace recorder with this epoch's
    /// ordinal (so spans and drift records carry monotone epoch ids),
    /// then applies any scheduled shard corruption due this epoch to the
    /// on-disk feature store.
    fn begin_epoch(&mut self, dataset: &Dataset) {
        let epoch = self.epochs_run;
        self.epochs_run += 1;
        if let Some(tr) = self.trainer.trace_mut() {
            tr.set_epoch(epoch);
        }
        self.apply_scheduled_corruption(dataset);
    }

    /// Fires the fault plan's `(shard, epoch)` corruption schedule for
    /// the epoch that just began: flips one payload byte of each named
    /// shard on disk (and evicts it from the page cache), so the next
    /// read genuinely fails its CRC and must repair from parity. A noop
    /// for dense stores (the CLI validates the flag against the backend).
    fn apply_scheduled_corruption(&mut self, dataset: &Dataset) {
        if self.shard_corrupt.is_empty() {
            return;
        }
        let epoch = self.epochs_run - 1; // begin_epoch just bumped it
        let mut remaining = Vec::with_capacity(self.shard_corrupt.len());
        for &(shard, at_epoch) in &self.shard_corrupt {
            if at_epoch != epoch {
                remaining.push((shard, at_epoch));
                continue;
            }
            if dataset.features.corrupt_shard_byte(shard).is_ok() {
                if let Some(inj) = &self.storage_faults {
                    inj.lock()
                        .expect("storage fault injector lock poisoned")
                        .note_corruption(shard, epoch);
                }
            }
        }
        self.shard_corrupt = remaining;
    }

    /// Drains every injected-fault source — the trainer's (allocation,
    /// transfer, NaN), the all-reduce link's and the storage injector's —
    /// and the feature store's retry/repair incidents accumulated since
    /// the last call, into `log` and, when tracing, the trace stream.
    /// Returns how many *injected* fault events were drained (for
    /// [`EpochStats::injected_faults`]).
    fn drain_faults(&mut self, dataset: &Dataset, log: &mut RecoveryLog) -> usize {
        let mut events = self.trainer.drain_fault_events();
        if let Some(link) = self.link_faults.as_mut() {
            events.extend(link.drain_events());
        }
        if let Some(inj) = &self.storage_faults {
            let mut inj = inj.lock().expect("storage fault injector lock poisoned");
            events.extend(inj.drain_events());
        }
        let injected = events.len();
        for event in events {
            if let Some(tr) = self.trainer.trace_mut() {
                let (kind, detail) = event.trace_record();
                tr.record_fault(kind, detail);
            }
            log.record(RecoveryEvent::Fault(event));
        }
        for incident in dataset.features.drain_storage_incidents() {
            match incident {
                StorageIncident::IoRetry {
                    shard,
                    attempt,
                    backoff_sec,
                } => log.record(RecoveryEvent::IoRetry {
                    shard,
                    attempt,
                    backoff_sec,
                }),
                StorageIncident::ShardRepaired {
                    shard,
                    group,
                    repair_bytes,
                } => {
                    let sec = self.trainer.feature_link().time_for(repair_bytes as usize);
                    if let Some(tr) = self.trainer.trace_mut() {
                        let at = tr.now_sec();
                        tr.record_span(SpanKind::StorageRepair, Some(shard), at, sec);
                    }
                    log.record(RecoveryEvent::ShardRepaired { shard, group });
                }
            }
        }
        injected
    }

    /// [`Runner::sample_full_batch`] wrapped in a `sample` span when
    /// tracing.
    fn traced_sample_full_batch(&mut self, dataset: &Dataset) -> Batch {
        if !self.trainer.tracing_enabled() {
            return self.sample_full_batch(dataset);
        }
        let start_sec = self.trainer.trace_mut().map_or(0.0, |t| t.now_sec());
        let wall = std::time::Instant::now();
        let batch = self.sample_full_batch(dataset);
        let dur = wall.elapsed().as_secs_f64();
        if let Some(tr) = self.trainer.trace_mut() {
            tr.record_span(SpanKind::Sample, None, start_sec, dur);
        }
        batch
    }

    /// Plans `batch` on this thread — exactly `k` parts, or from `k` up
    /// against `capacity_bytes`, warm — under `partition` and `plan` spans.
    fn plan_traced(
        &mut self,
        batch: &Batch,
        strategy: StrategyKind,
        mode: PlanMode,
        capacity_bytes: usize,
    ) -> Result<Plan, PlanError> {
        let strategy = build_strategy(strategy, self.seed);
        let (strategy, planner) = (strategy.as_ref(), &self.planner);
        let plan = match mode {
            PlanMode::From(k) => {
                let start = self.warm_k.unwrap_or(k);
                let plan = planner.plan_warm(batch, strategy, k, start, capacity_bytes)?;
                self.warm_k = Some(plan.k);
                plan
            }
            PlanMode::Fixed(_) => mode.plan(planner, batch, strategy, capacity_bytes)?,
        };
        if let Some(tr) = self.trainer.trace_mut() {
            let finished = tr.now_sec();
            record_plan_spans(tr, &plan, finished);
        }
        Ok(plan)
    }

    /// Fills [`EpochStats::estimated_peak_bytes`] /
    /// [`EpochStats::estimator_drift`] from the per-micro-batch
    /// `estimates` and the measured step peaks, and — when tracing — emits
    /// one [`betty_trace::DriftRecord`] per micro-batch. The planner
    /// filters empty parts, so estimates and executed steps align one to
    /// one; work without estimates leaves both fields at 0.
    fn annotate_drift(
        &mut self,
        stats: &mut EpochStats,
        steps: &[StepStats],
        estimates: &[MemoryEstimate],
    ) {
        debug_assert!(estimates.is_empty() || steps.len() == estimates.len());
        // Steps consumed their global ids during the epoch; recover the
        // first one from the trainer's monotone counter.
        let base_step = self.trainer.global_step() - steps.len();
        let mut max_estimated = 0usize;
        let mut worst_ratio = 0.0f64;
        for (i, (step, estimate)) in steps.iter().zip(estimates).enumerate() {
            let estimated = estimate.peak_bytes();
            max_estimated = max_estimated.max(estimated);
            let ratio = step.peak_bytes as f64 / estimated.max(1) as f64;
            worst_ratio = worst_ratio.max(ratio);
            if let Some(tr) = self.trainer.trace_mut() {
                tr.record_drift(base_step + i, estimated, step.peak_bytes);
            }
        }
        stats.estimated_peak_bytes = max_estimated;
        stats.estimator_drift = worst_ratio;
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The underlying trainer (device, transfer model, model).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable trainer access (e.g. to restore a checkpoint into the
    /// model).
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// The memory-aware planner (and its estimator).
    pub fn planner(&self) -> &MemoryAwarePlanner {
        &self.planner
    }

    /// Updates the learning rate mid-training (for LR schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.trainer.set_learning_rate(lr);
    }

    /// Samples the full training batch with the configured fanouts.
    pub fn sample_full_batch(&mut self, dataset: &Dataset) -> Batch {
        // Direct sampling advances the RNG cursor the pipeline's staged
        // batches were drawn ahead of — they are now the wrong stream.
        self.pipeline = None;
        sample_batch_in(
            &self.in_graph,
            &dataset.train_idx,
            &self.config.fanouts,
            &mut self.sample_rng,
        )
    }

    /// Samples a batch for an arbitrary seed set (e.g. mini-batch chunks).
    pub fn sample_batch_for(&mut self, seeds: &[NodeId]) -> Batch {
        self.pipeline = None; // same cursor argument as sample_full_batch
        sample_batch_in(
            &self.in_graph,
            seeds,
            &self.config.fanouts,
            &mut self.sample_rng,
        )
    }

    /// Whether a partition-ahead pipeline is currently alive (staged
    /// work exists or will be requested next epoch). False at
    /// `plan_ahead: 0`, after any invalidation (recovery retry, direct
    /// sampling, evaluation, session import), and under a single worker
    /// thread.
    pub fn plan_ahead_active(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Hands out this epoch's staged bundle from the partition-ahead
    /// pipeline, spawning or replacing the pipeline as needed. `None`
    /// means "plan synchronously": depth 0, a single worker thread, or a
    /// dead driver (a panicked worker); the last case also resets the
    /// pipeline so the synchronous path resumes from the unconsumed RNG
    /// cursor.
    fn pipelined_bundle(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        mode: PlanMode,
    ) -> Option<(StagedBundle, f64, std::time::Instant)> {
        let depth = self.config.plan_ahead;
        if depth == 0 || betty_runtime::configured_threads() <= 1 {
            self.pipeline = None;
            return None;
        }
        let key = dataset_key(dataset);
        if self
            .pipeline
            .as_ref()
            .is_some_and(|p| !p.matches(strategy, mode, key, depth))
        {
            // Strategy/mode/dataset changed between epochs: every staged
            // bundle answers the wrong question. The RNG cursor is safe —
            // it only advances at consumption.
            self.pipeline = None;
        }
        if self.pipeline.is_none() {
            self.pipeline = Some(PlanPipeline::spawn(PipelineSpec {
                graph: Arc::clone(&self.in_graph),
                seeds: Arc::new(dataset.train_idx.clone()),
                fanouts: self.config.fanouts.clone(),
                planner: self.planner.clone(),
                strategy,
                seed: self.seed,
                mode,
                depth,
                rng_state: self.sample_rng.state(),
                dataset_key: key,
                threads: betty_runtime::configured_threads(),
            }));
        }
        let pipeline = self.pipeline.as_mut().expect("just ensured");
        match pipeline.next_bundle() {
            Some((bundle, wait_sec, requested_at)) => {
                // Keep up to `depth` future epochs staged, unless the
                // staged bytes already exceed the device budget (Eq. 5
                // feasibility: shrink pipeline depth before memory
                // pressure can escalate K).
                pipeline.top_up(self.config.capacity_bytes);
                Some((bundle, wait_sec, requested_at))
            }
            None => {
                self.pipeline = None;
                None
            }
        }
    }

    /// Records the trace spans for a consumed staged bundle — back-dated
    /// onto the recorder clock at the instants the background work
    /// actually ran — and returns the planning seconds this epoch hid
    /// off its critical path (`prep time − handoff wait`, clamped at 0).
    ///
    /// The `plan_ahead` span runs from the instant the bundle's request
    /// was issued (on *this* thread, before the overlapped epoch began
    /// training) to the consumption instant, so by construction it
    /// contains every forward/backward span of the epoch that trained
    /// while this bundle was being staged.
    fn consume_bundle_spans(
        &mut self,
        bundle: &StagedBundle,
        wait_sec: f64,
        requested_at: std::time::Instant,
    ) -> f64 {
        let plan_sec = bundle
            .plan
            .as_ref()
            .map_or(0.0, |p| p.partition_sec + p.extraction_sec);
        if let Some(tr) = self.trainer.trace_mut() {
            let window_start = tr.sec_at(requested_at);
            let sample_start = tr.sec_at(bundle.sample_started);
            tr.record_span(SpanKind::Sample, None, sample_start, bundle.sample_sec);
            if let Ok(plan) = &bundle.plan {
                let finished = tr.sec_at(bundle.plan_finished);
                record_plan_spans(tr, plan, finished);
            }
            let now = tr.now_sec();
            tr.record_span(
                SpanKind::PlanAhead,
                None,
                window_start,
                (now - window_start).max(0.0),
            );
        }
        (bundle.sample_sec + plan_sec - wait_sec).max(0.0)
    }

    /// Drops the partition-ahead pipeline because a recovery retry is
    /// about to replan at an escalated `K` / shrunk capacity: the staged
    /// bundles were planned under pre-failure assumptions that just
    /// OOM'd (or preceded a numeric rollback), so they are discarded and
    /// the event is logged. The sampler cursor is unaffected — it only
    /// advances when a bundle is consumed — so the retry (and the
    /// pipeline restart next epoch) continues the exact synchronous
    /// stream.
    fn invalidate_pipeline_for_retry(&mut self, log: &mut RecoveryLog) {
        if let Some(p) = self.pipeline.take() {
            log.record(RecoveryEvent::PlanAheadInvalidated {
                staged: p.in_flight(),
            });
        }
    }

    /// The acquire stage: this epoch's sampled batch and attempt 0's work
    /// from `source`.
    fn acquire<'a>(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        source: PlanSource<'a>,
    ) -> Acquired<'a> {
        match source {
            PlanSource::Planned(mode) => self.acquire_plan(dataset, strategy, mode),
            PlanSource::Cached { k, refresh_every } => {
                self.acquire_cached(dataset, strategy, k, refresh_every)
            }
            PlanSource::Given(micro_batches) => {
                let work = Work {
                    micro_batches: Cow::Borrowed(micro_batches),
                    estimates: Vec::new(),
                };
                Acquired::synchronous(None, Ok(work))
            }
        }
    }

    /// Produces this epoch's batch and plan — from the partition-ahead
    /// pipeline when one is running, synchronously otherwise. Both paths
    /// draw the same batch from the same RNG cursor and plan it with the
    /// same strategy/capacity, so the result is bit-identical; only
    /// where the wall-clock time was spent differs. The staged path also
    /// charges the bundle's transfer bytes to the `plan ahead` ledger
    /// category (released immediately — the charge is an epoch-boundary
    /// feasibility probe, not a persistent residency).
    fn acquire_plan(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        mode: PlanMode,
    ) -> Acquired<'static> {
        if let Some((bundle, wait_sec, requested_at)) =
            self.pipelined_bundle(dataset, strategy, mode)
        {
            let overlap_sec = self.consume_bundle_spans(&bundle, wait_sec, requested_at);
            let staged_bytes = self.trainer.charge_plan_ahead(bundle.staged_bytes);
            // Adopt the post-sample cursor: synchronous sampling (or a
            // restarted pipeline) continues the exact same stream.
            self.sample_rng = Pcg64Mcg::new(bundle.rng_after);
            return Acquired {
                sampled: Some(bundle.batch),
                work: bundle.plan.map(Work::from),
                overlap_sec,
                staged_bytes,
            };
        }
        let batch = self.traced_sample_full_batch(dataset);
        let capacity = self.config.capacity_bytes;
        let plan = self.plan_traced(&batch, strategy, mode, capacity);
        Acquired::synchronous(Some(batch), plan.map(Work::from))
    }

    /// Samples synchronously (resetting any running pipeline), then cuts
    /// the batch `k` ways — or, for up to `refresh_every − 1` epochs after
    /// a cut, regroups it by that cut's output assignment, which stays
    /// *valid* because the output set is the training split every epoch.
    fn acquire_cached(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
        refresh_every: usize,
    ) -> Acquired<'static> {
        let batch = self.traced_sample_full_batch(dataset);
        let reusable = self.cached_parts.as_mut().filter(|c| {
            c.strategy == strategy && c.k == k && c.epochs_used < refresh_every
        });
        if let Some(cache) = reusable {
            cache.epochs_used += 1;
            // The cut's estimates priced an earlier batch, not this
            // re-sampled one: a reuse epoch carries none.
            let work = Work {
                micro_batches: Cow::Owned(batch.restrict_all(&cache.parts)),
                estimates: Vec::new(),
            };
            return Acquired::synchronous(Some(batch), Ok(work));
        }
        let capacity = self.config.capacity_bytes;
        let work = self
            .plan_traced(&batch, strategy, PlanMode::Fixed(k), capacity)
            .map(|plan| {
                self.cached_parts = Some(CachedParts {
                    strategy,
                    k,
                    parts: plan.parts.clone(),
                    epochs_used: 1,
                });
                Work::from(plan)
            });
        Acquired::synchronous(Some(batch), work)
    }

    /// Splits a batch into exactly `k` micro-batches using `strategy`.
    pub fn plan_fixed(&self, batch: &Batch, strategy: StrategyKind, k: usize) -> Plan {
        self.planner
            .plan_fixed(batch, build_strategy(strategy, self.seed).as_ref(), k)
    }

    /// The one epoch executor — Fig. 6's micro-batch workflow around the
    /// §4.4.3 re-partitioning loop (DESIGN.md, "Epoch executor"). One loop
    /// with one `attempt` counter chains four stages: **acquire** the
    /// batch and plan from the spec's source (a retry re-partitions the
    /// same batch from an escalated `K` under compounding headroom),
    /// **schedule** the micro-batches over the group under its scheduled
    /// device failures, **execute** them once on the shared model in plan
    /// order — whatever the schedule, which is why losses and parameters
    /// are bit-identical across group sizes and device faults — and
    /// **attribute** the measured steps to devices ([`attribute_epoch`]).
    /// Injected-fault events are drained into `log` once per attempt, and
    /// the epoch's stats are filled in here and nowhere else.
    fn run_epoch(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        spec: &EpochSpec<'_>,
        log: &mut RecoveryLog,
    ) -> Result<MultiDeviceEpoch, RunError> {
        self.begin_epoch(dataset);
        let (group, policy) = (spec.group, &spec.retry);
        let capacity = self.config.capacity_bytes;
        let max_partitions = self.config.max_partitions;
        let faults = spec.device_faults.as_ref();
        let fail_steps = faults.map_or(&[][..], |f| f.device_fail_steps.as_slice());
        let straggler_factors = faults.map_or(&[][..], |f| f.straggler_factors.as_slice());
        // Staging the next micro-batch's transfer only means something
        // when consecutive micro-batches share a device.
        let prefetch = self.config.prefetch && group.num_devices == 1;
        let Acquired {
            sampled,
            work: mut planned,
            overlap_sec,
            staged_bytes,
        } = self.acquire(dataset, strategy, spec.source);
        // What a retry re-partitions, while its budget lasts. Work that
        // came without its batch (caller-supplied micro-batches) has
        // nothing to re-partition: its first failure is final.
        let retry_batch = |spent: usize, budget: usize| sampled.as_ref().filter(|_| spent < budget);
        // Only a retry ever restores, so a zero budget skips the copy.
        let snapshot = (policy.max_retries > 0 || policy.max_anomaly_retries > 0)
            .then(|| self.trainer.snapshot());
        let mut injected_faults = 0usize;
        let mut attempt = 0usize; // escalations so far: OOM'd attempts, infeasible schedules
        let mut anomaly_rollbacks = 0usize;
        let mut original: Option<TrainError> = None;
        loop {
            let work = match planned {
                Ok(work) => work,
                // A retry planned itself into a corner (headroom or K
                // growth exceeded what max_partitions can satisfy):
                // surface the original OOM, not the planning artifact.
                // A failed first plan has nothing to recover from.
                Err(e) => {
                    let Some(source) = original else {
                        return Err(RunError::Plan(e));
                    };
                    log.record(RecoveryEvent::Exhausted { attempts: attempt });
                    return Err(RunError::RetryExhausted {
                        attempts: attempt,
                        source,
                    });
                }
            };
            let k = work.micro_batches.len();

            // Work proxy: total edges of each micro-batch's block stack.
            let jobs: Vec<f64> = work
                .micro_batches
                .iter()
                .map(|mb| mb.total_edges() as f64)
                .collect();
            let schedule = simulate_elastic_schedule(&jobs, group.num_devices, fail_steps)
                .map_err(|e| {
                    log.record(RecoveryEvent::Exhausted { attempts: attempt });
                    RunError::DevicesExhausted(e)
                })?;
            // Migration never changes a micro-batch's own peak, only who
            // pays it.
            let survivor_capacity = policy.planning_capacity(capacity, attempt + 1);
            let worst_migrated = schedule
                .failovers
                .iter()
                .flat_map(|fo| &fo.migrated)
                .filter_map(|&job| work.estimates.get(job))
                .map(MemoryEstimate::peak_bytes)
                .max()
                .unwrap_or(0);

            let (batch, next_k) = if worst_migrated > survivor_capacity {
                let Some(batch) = retry_batch(attempt, policy.max_retries) else {
                    log.record(RecoveryEvent::Exhausted { attempts: attempt });
                    return Err(RunError::Plan(PlanError::CapacityUnreachable {
                        max_partitions,
                        best_peak: worst_migrated,
                        capacity: survivor_capacity,
                    }));
                };
                attempt += 1;
                (batch, policy.escalate_k(k).min(max_partitions))
            } else {
                let err = match self
                    .trainer
                    .micro_batch_epoch(dataset, &work.micro_batches, prefetch)
                {
                    Ok((mut combined, steps)) => {
                        self.annotate_drift(&mut combined, &steps, &work.estimates);
                        let grad_bytes =
                            self.trainer.model().total_param_count() * BYTES_PER_VALUE;
                        let mut epoch = attribute_epoch(
                            combined,
                            &steps,
                            &jobs,
                            schedule,
                            group,
                            straggler_factors,
                            grad_bytes,
                            faults.and(self.link_faults.as_mut()),
                            log,
                            self.trainer.trace_mut(),
                        );
                        injected_faults += self.drain_faults(dataset, log);
                        if attempt > 0 {
                            log.record(RecoveryEvent::Recovered {
                                attempts: attempt,
                                final_k: k,
                            });
                        }
                        let stats = &mut epoch.combined;
                        stats.host_bytes =
                            host_staging_bytes(dataset, sampled.as_ref(), &work.micro_batches);
                        stats.oom_retries = attempt;
                        stats.anomaly_rollbacks = anomaly_rollbacks;
                        stats.injected_faults += injected_faults;
                        stats.plan_ahead_overlap_sec = overlap_sec;
                        stats.plan_ahead_staged_bytes = staged_bytes;
                        return Ok(epoch);
                    }
                    Err(err) => err,
                };
                self.trainer.release_device();
                injected_faults += self.drain_faults(dataset, log);
                let retry = match err {
                    // A numeric anomaly is not a capacity problem:
                    // restore the snapshot and retry the *same* plan
                    // under its own (small) budget. Injected NaNs
                    // fire once — step indices are monotone — so the
                    // retry replays clean and bit-identical to a
                    // never-faulted epoch; a genuine divergence
                    // reproduces deterministically and aborts once
                    // the budget is spent.
                    TrainError::NumericAnomaly {
                        step,
                        kind,
                        injected,
                    } => {
                        let Some(batch) =
                            retry_batch(anomaly_rollbacks, policy.max_anomaly_retries)
                        else {
                            log.record(RecoveryEvent::AnomalyAbort {
                                rollbacks: anomaly_rollbacks,
                                step,
                                kind,
                            });
                            return Err(RunError::Anomaly {
                                rollbacks: anomaly_rollbacks,
                                source: err,
                            });
                        };
                        anomaly_rollbacks += 1;
                        log.record(RecoveryEvent::AnomalyRollback {
                            attempt: anomaly_rollbacks,
                            step,
                            kind,
                            injected,
                        });
                        (batch, k)
                    }
                    TrainError::StepOom {
                        step,
                        phase,
                        ref source,
                    } => {
                        let Some(batch) = retry_batch(attempt, policy.max_retries) else {
                            if attempt == 0 {
                                // Recovery disabled: the plain training
                                // error.
                                return Err(RunError::Train(err));
                            }
                            log.record(RecoveryEvent::Exhausted { attempts: attempt });
                            return Err(RunError::RetryExhausted {
                                attempts: attempt,
                                source: original.unwrap_or(err),
                            });
                        };
                        attempt += 1;
                        let next_k = policy.escalate_k(k).min(max_partitions);
                        log.record(RecoveryEvent::OomRetry {
                            attempt,
                            step,
                            phase,
                            injected: source.injected,
                            failed_k: k,
                            next_k,
                            planning_capacity: policy.planning_capacity(capacity, attempt),
                        });
                        original.get_or_insert(err);
                        (batch, next_k)
                    }
                    // Storage damage is not a capacity problem:
                    // re-partitioning cannot resurrect a dead shard
                    // (retry/backoff and parity repair already ran
                    // *inside* the store). Abort with the structured
                    // error so the CLI names the shard and offset.
                    TrainError::Storage { .. } => return Err(RunError::Train(err)),
                };
                self.invalidate_pipeline_for_retry(log);
                if let Some(snapshot) = &snapshot {
                    self.trainer.restore(snapshot);
                }
                retry
            };
            planned = self
                .plan_traced(
                    batch,
                    strategy,
                    PlanMode::From(next_k),
                    policy.planning_capacity(capacity, attempt),
                )
                .map(Work::from);
        }
    }

    /// [`Runner::run_epoch`] with nothing to recover from and nothing to
    /// survive: `source` on a fault-free `group` under a zero retry
    /// budget, fault events drained into a scratch log.
    fn run_plain(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        source: PlanSource<'_>,
        group: &DeviceGroup,
    ) -> Result<MultiDeviceEpoch, RunError> {
        let spec = EpochSpec {
            source,
            group,
            retry: RetryPolicy {
                max_retries: 0,
                max_anomaly_retries: 0,
                ..self.config.retry.clone()
            },
            device_faults: None,
        };
        self.run_epoch(dataset, strategy, &spec, &mut RecoveryLog::new())
    }

    /// One epoch of micro-batch training with a fixed partition count.
    ///
    /// With [`ExperimentConfig::plan_ahead`] `> 0` (and more than one
    /// worker thread) the batch and plan come pre-staged from the
    /// partition-ahead pipeline; results are bit-identical to the
    /// synchronous path.
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a micro-batch exceeds capacity.
    pub fn train_epoch_betty(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
    ) -> Result<EpochStats, TrainError> {
        let source = PlanSource::Planned(PlanMode::Fixed(k));
        self.run_plain(dataset, strategy, source, &DeviceGroup::new(1))
            .map(|epoch| epoch.combined)
            .map_err(RunError::into_train_error)
    }

    /// One epoch with memory-aware partition-count selection; returns the
    /// epoch stats and the chosen `K`.
    ///
    /// # Errors
    ///
    /// [`RunError`] if planning or training fails.
    pub fn train_epoch_auto(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
    ) -> Result<(EpochStats, usize), RunError> {
        let source = PlanSource::Planned(PlanMode::From(1));
        self.run_plain(dataset, strategy, source, &DeviceGroup::new(1))
            .map(|epoch| (epoch.combined, epoch.assignment.len()))
            .map_err(|e| match e {
                // No rollback was on offer, so none is reported spent.
                RunError::Anomaly { source, .. } => RunError::Train(source),
                other => other,
            })
    }

    /// Like [`Runner::train_epoch_auto`], but with checkpointed OOM
    /// recovery.
    ///
    /// Before the first attempt the trainable state (parameters,
    /// optimizer moments, dropout RNG) is snapshotted. If a step OOMs —
    /// genuinely or via an armed [`betty_device::FaultPlan`] — the
    /// device's charges are released, any partially accumulated
    /// gradients are discarded with the restored snapshot, and planning
    /// escalates: `K ← max(K + 1, ceil(K · growth))` against a capacity
    /// shrunk by the compounding headroom fraction (see
    /// [`RetryPolicy`](crate::RetryPolicy)). Up to
    /// `config.retry.max_retries` retries are attempted before giving
    /// up. Every injected fault and recovery action is appended to
    /// `log`; the returned stats carry retry/fault counters.
    ///
    /// # Errors
    ///
    /// * [`RunError::Plan`] if the *first* plan fails (nothing to
    ///   recover from);
    /// * [`RunError::Train`] if the first attempt fails and the retry
    ///   budget is zero (recovery disabled);
    /// * [`RunError::RetryExhausted`] once retries run out, carrying
    ///   the original failure as its
    ///   [`source`](std::error::Error::source).
    pub fn train_epoch_auto_recovering(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        log: &mut RecoveryLog,
    ) -> Result<(EpochStats, usize), RunError> {
        let spec = EpochSpec {
            source: PlanSource::Planned(PlanMode::From(1)),
            group: &DeviceGroup::new(1),
            retry: self.config.retry.clone(),
            device_faults: None,
        };
        self.run_epoch(dataset, strategy, &spec, log)
            .map(|epoch| (epoch.combined, epoch.assignment.len()))
    }

    /// Trains one effective batch from pre-built micro-batches (gradient
    /// accumulation + single optimizer step). Benches use this to measure
    /// a specific plan's micro-batches directly.
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a micro-batch exceeds capacity.
    pub fn train_micro_batches(
        &mut self,
        dataset: &Dataset,
        micro_batches: &[Batch],
    ) -> Result<EpochStats, TrainError> {
        // Nothing is partitioned, so the strategy is never consulted.
        let source = PlanSource::Given(micro_batches);
        self.run_plain(dataset, StrategyKind::Betty, source, &DeviceGroup::new(1))
            .map(|epoch| epoch.combined)
            .map_err(RunError::into_train_error)
    }

    /// Like [`Runner::train_epoch_betty`], but reuses the previous epoch's
    /// output-node grouping for up to `refresh_every - 1` epochs before
    /// re-partitioning — amortizing the REG construction + cut cost, which
    /// is valid because the output set (the training split) is identical
    /// across epochs. Returns the epoch stats and whether this epoch paid
    /// for a fresh partitioning.
    ///
    /// This is the degenerate point of the partition-ahead design space:
    /// where [`ExperimentConfig::plan_ahead`] hides each epoch's *own*
    /// partitioning under the previous epoch's compute (exact plans,
    /// overlapped), caching is "depth ∞ with reuse" — it skips the
    /// partitioning entirely and accepts a slightly stale cut. The two
    /// compose trivially: a cached epoch samples synchronously, so it
    /// simply resets any running pipeline.
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a micro-batch exceeds capacity.
    ///
    /// # Panics
    ///
    /// Panics if `refresh_every == 0`.
    pub fn train_epoch_betty_cached(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
        refresh_every: usize,
    ) -> Result<(EpochStats, bool), TrainError> {
        assert!(refresh_every > 0, "refresh_every must be positive");
        let source = PlanSource::Cached { k, refresh_every };
        let epoch = self.run_plain(dataset, strategy, source, &DeviceGroup::new(1));
        // A cut that has served one epoch was made for this one.
        let fresh = self.cached_parts.as_ref().is_some_and(|c| c.epochs_used == 1);
        epoch
            .map(|epoch| (epoch.combined, fresh))
            .map_err(RunError::into_train_error)
    }

    /// One epoch of simulated data-parallel training on a device group
    /// (the paper's multi-GPU future work, §7): micro-batches are
    /// LPT-scheduled across devices by estimated work, gradients are
    /// ring-all-reduced (numerically identical to single-device
    /// accumulation), and the wall time is the slowest device plus the
    /// synchronization cost.
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a micro-batch exceeds capacity.
    pub fn train_epoch_multi_device(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
        group: &DeviceGroup,
    ) -> Result<MultiDeviceEpoch, TrainError> {
        let source = PlanSource::Planned(PlanMode::Fixed(k));
        self.run_plain(dataset, strategy, source, group)
            .map_err(RunError::into_train_error)
    }

    /// One epoch of *elastic* data-parallel training from a starting `k`:
    /// like [`Runner::train_epoch_multi_device`], but with the config's
    /// retry budget, and the group survives the device-level faults of
    /// the armed [`betty_device::FaultPlan`] — scheduled device failures,
    /// per-device straggler slowdowns, and transient all-reduce link
    /// stalls. This is the executor's general configuration (the CLI's
    /// one call): a group of one is the single-device recovering path,
    /// and `k = 1` is auto-K.
    ///
    /// A lost device's unfinished micro-batches migrate onto survivors
    /// before any numerics run; if the migrated load no longer fits the
    /// survivors' headroom budget, or a step OOMs, `K` escalates from `k`
    /// within [`RetryPolicy`](crate::RetryPolicy)'s budget. Numerics are
    /// those of the fault-free path, so losses and parameters are
    /// bit-identical with and without injected device faults (proven by
    /// test). Every failover and recovery decision is appended to `log`
    /// and, when tracing, recorded as `failover`/`link_retry` spans and
    /// fault records.
    ///
    /// # Errors
    ///
    /// * [`RunError::DevicesExhausted`] if every device is lost with
    ///   unfinished work outstanding;
    /// * [`RunError::Plan`] if no `K ≥ k` fits, or the migrated load
    ///   cannot be made to fit survivors within the retry budget;
    /// * [`RunError::Train`], [`RunError::RetryExhausted`] and
    ///   [`RunError::Anomaly`] as
    ///   [`Runner::train_epoch_auto_recovering`].
    ///
    /// # Panics
    ///
    /// Panics if the armed fault plan fails
    /// [`betty_device::FaultPlan::validate_for_devices`] for this
    /// group's size (the CLI validates before construction).
    pub fn train_epoch_elastic(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
        group: &DeviceGroup,
        log: &mut RecoveryLog,
    ) -> Result<MultiDeviceEpoch, RunError> {
        let faults = self.config.fault_plan.clone().unwrap_or_default();
        faults
            .validate_for_devices(group.num_devices)
            .unwrap_or_else(|e| panic!("invalid fault plan for elastic group: {e}"));
        let spec = EpochSpec {
            source: PlanSource::Planned(PlanMode::From(k)),
            group,
            retry: self.config.retry.clone(),
            device_faults: Some(faults),
        };
        self.run_epoch(dataset, strategy, &spec, log)
    }

    /// One epoch of classic mini-batch training over `num_batches` chunks
    /// of the training set (the §3.3/Table 6 baseline).
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a mini-batch exceeds capacity.
    pub fn train_epoch_mini(
        &mut self,
        dataset: &Dataset,
        num_batches: usize,
    ) -> Result<EpochStats, TrainError> {
        self.begin_epoch(dataset);
        // Split as evenly as possible into *exactly* num_batches chunks
        // (plain `chunks(ceil(n/k))` can come up short, e.g. 9 nodes into
        // 4 batches of 3 yields only 3 batches).
        let num_batches = num_batches.max(1).min(dataset.train_idx.len().max(1));
        let n = dataset.train_idx.len();
        let base = n / num_batches;
        let extra = n % num_batches;
        let mut chunks: Vec<Vec<NodeId>> = Vec::with_capacity(num_batches);
        let mut start = 0usize;
        for i in 0..num_batches {
            let len = base + usize::from(i < extra);
            chunks.push(dataset.train_idx[start..start + len].to_vec());
            start += len;
        }
        let batches: Vec<Batch> = chunks
            .iter()
            .map(|c| self.sample_batch_for(c))
            .collect();
        let result = self.trainer.mini_batch_epoch(dataset, &batches);
        let injected_faults = self.drain_faults(dataset, &mut RecoveryLog::new());
        result.map(|stats| EpochStats {
            injected_faults,
            ..stats
        })
    }

    /// Epochs this runner has trained (monotone across every
    /// `train_epoch_*` entry point).
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Captures everything a durable checkpoint needs to resume this
    /// session bit-identically: parameters, Adam moments, both RNG
    /// streams (dropout and neighbor sampling), the epoch/step counters,
    /// and the config fingerprint. Slot meanings are the
    /// [`crate::durable`] constants; fit-level state (loss history,
    /// early-stopping counters) is appended by the caller.
    pub fn export_session(&self) -> TrainState {
        let mut state = TrainState::from_model(self.trainer.model());
        state.adam = Some(self.trainer.export_optimizer_state());
        state.rngs = vec![self.trainer.rng_state(), self.sample_rng.state()];
        state.counters = vec![
            self.epochs_run as u64,
            self.trainer.global_step() as u64,
            self.seed,
        ];
        state.fingerprint = Some(self.dataset_fingerprint);
        state
    }

    /// Restores a session captured by [`Runner::export_session`] onto a
    /// freshly built runner with the *same* config. Fingerprint, slot
    /// and shape checks run before parameters are touched; each piece of
    /// state is itself validated before it mutates anything.
    ///
    /// # Errors
    ///
    /// [`RunError::Checkpoint`] if the checkpoint's config fingerprint
    /// differs from this runner's, or any section's shape does not match
    /// the model.
    pub fn import_session(&mut self, state: &TrainState) -> Result<(), RunError> {
        if let Some(fp) = state.fingerprint {
            let own = self.dataset_fingerprint;
            if fp != own {
                return Err(RunError::Checkpoint(format!(
                    "config/dataset fingerprint mismatch: checkpoint {fp:#018x} vs current \
                     {own:#018x} (the checkpoint was produced by a different experiment or \
                     against a different dataset)"
                )));
            }
        }
        if state.rngs.len() < crate::durable::RUNNER_RNGS {
            return Err(RunError::Checkpoint(format!(
                "checkpoint carries {} RNG states, need {}",
                state.rngs.len(),
                crate::durable::RUNNER_RNGS
            )));
        }
        if state.counters.len() < crate::durable::RUNNER_COUNTERS {
            return Err(RunError::Checkpoint(format!(
                "checkpoint carries {} counters, need {}",
                state.counters.len(),
                crate::durable::RUNNER_COUNTERS
            )));
        }
        let adam = state.adam.as_ref().ok_or_else(|| {
            RunError::Checkpoint("checkpoint has no optimizer state".into())
        })?;
        state
            .apply_params(self.trainer.model_mut())
            .map_err(|e| RunError::Checkpoint(e.to_string()))?;
        self.trainer
            .import_optimizer_state(adam)
            .map_err(RunError::Checkpoint)?;
        self.trainer
            .set_rng_state(state.rngs[crate::durable::RNG_TRAINER]);
        self.sample_rng = Pcg64Mcg::new(state.rngs[crate::durable::RNG_SAMPLER]);
        self.epochs_run = state.counters[crate::durable::CTR_EPOCHS_RUN] as usize;
        self.trainer
            .set_global_step(state.counters[crate::durable::CTR_GLOBAL_STEP] as usize);
        self.seed = state.counters[crate::durable::CTR_SEED];
        // A cached output grouping belongs to the pre-import session —
        // and so does every staged pipeline bundle: its batches were
        // drawn from the pre-import RNG cursor, which the line above
        // just replaced. The pipeline restarts from the imported cursor
        // on the next pipelined epoch.
        self.cached_parts = None;
        self.pipeline = None;
        Ok(())
    }

    /// Accuracy on `nodes` using the configured fanouts for inference.
    pub fn evaluate(&mut self, dataset: &Dataset, nodes: &[NodeId]) -> f64 {
        // Evaluation sampling draws from the same RNG stream the
        // pipeline staged future batches ahead of; keeping those bundles
        // would diverge from a synchronous run, so they are discarded
        // and the pipeline restarts from the post-evaluation cursor.
        self.pipeline = None;
        let fanouts = self.config.fanouts.clone();
        eval::accuracy(
            self.trainer.model(),
            dataset,
            nodes,
            &fanouts,
            &mut self.sample_rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_data::DatasetSpec;
    use betty_device::gib;
    use betty_nn::AggregatorSpec;

    fn dataset() -> Dataset {
        DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(12)
            .generate(4)
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig {
            fanouts: vec![4, 8],
            hidden_dim: 16,
            aggregator: AggregatorSpec::Mean,
            capacity_bytes: gib(4),
            dropout: 0.0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn betty_epoch_runs_and_learns() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let mut first = None;
        let mut last = None;
        for _ in 0..8 {
            let stats = runner
                .train_epoch_betty(&ds, StrategyKind::Betty, 2)
                .unwrap();
            first.get_or_insert(stats.loss);
            last = Some(stats.loss);
        }
        assert!(last.unwrap() < first.unwrap());
    }

    #[test]
    fn auto_planning_picks_k_one_when_everything_fits() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let (_, k) = runner.train_epoch_auto(&ds, StrategyKind::Betty).unwrap();
        assert_eq!(k, 1, "4 GiB fits the tiny batch whole");
    }

    #[test]
    fn auto_planning_splits_under_pressure() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let batch = runner.sample_full_batch(&ds);
        let full_peak = runner
            .plan_fixed(&batch, StrategyKind::Betty, 1)
            .max_estimated_peak();
        let tight = ExperimentConfig {
            capacity_bytes: full_peak - 1,
            ..config()
        };
        let mut tight_runner = Runner::new(&ds, &tight, 0);
        let (stats, k) = tight_runner
            .train_epoch_auto(&ds, StrategyKind::Betty)
            .unwrap();
        assert!(k > 1);
        assert!(stats.max_peak_bytes <= full_peak);
    }

    #[test]
    fn every_auto_plan_equals_the_cold_search_in_fewer_probes() {
        // mean3_auto's shape: a 3-layer mean model at fanouts 25, 35, 40 on
        // a 22 MiB device, where K moves between 4 and 5. Each epoch's batch
        // is planned as an auto-K epoch plans it, then again cold.
        let (mut ks, mut warm_probes, mut cold_probes) = (Vec::new(), 0, 0);
        for seed in [1u64, 2, 3] {
            let ds = DatasetSpec::ogbn_products().scaled(0.01).generate(seed);
            let cfg = ExperimentConfig {
                fanouts: vec![25, 35, 40],
                hidden_dim: 64,
                capacity_bytes: 22 << 20,
                ..config()
            };
            let mut runner = Runner::new(&ds, &cfg, seed);
            let strategy = build_strategy(StrategyKind::Betty, seed);
            for epoch in 0..10 {
                let batch = runner.sample_full_batch(&ds);
                let (auto, capacity) = (PlanMode::From(1), cfg.capacity_bytes);
                let warm = runner.plan_traced(&batch, StrategyKind::Betty, auto, capacity);
                let (warm, cold) = (
                    warm.unwrap(),
                    runner.planner().plan(&batch, strategy.as_ref(), 1).unwrap(),
                );
                let what = format!("seed {seed} epoch {epoch}");
                assert_eq!((warm.k, &warm.parts), (cold.k, &cold.parts), "{what}");
                assert_eq!(runner.warm_k, Some(cold.k), "{what}");
                ks.push(cold.k);
                warm_probes += warm.probes;
                cold_probes += cold.probes;
            }
        }
        // K moved, and every search after a seed's first skipped probes.
        assert!(ks.windows(2).any(|w| w[0] != w[1]), "{ks:?}");
        assert!(warm_probes + ks.len() - 3 <= cold_probes, "{warm_probes} vs {cold_probes}");
    }

    #[test]
    fn gat_runner_trains() {
        let ds = dataset();
        let cfg = ExperimentConfig {
            model: ModelKind::Gat,
            hidden_dim: 16,
            num_heads: 4,
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let stats = runner
            .train_epoch_betty(&ds, StrategyKind::Betty, 2)
            .unwrap();
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn estimator_drift_is_exact_at_every_precision() {
        // Eq. 5 exactness is the planner's contract: the measured step
        // peak must equal the estimate bit-for-bit (drift ratio 1.0), and
        // the half-width byte terms must keep it that way.
        use betty_tensor::DType;
        let ds = dataset();
        for aggregator in [AggregatorSpec::Mean, AggregatorSpec::Sum, AggregatorSpec::Pool] {
            for precision in [DType::F32, DType::Bf16, DType::F16] {
                let cfg = ExperimentConfig {
                    aggregator,
                    precision,
                    ..config()
                };
                let mut runner = Runner::new(&ds, &cfg, 0);
                let stats = runner
                    .train_epoch_betty(&ds, StrategyKind::Betty, 3)
                    .unwrap();
                assert!(stats.loss.is_finite());
                assert_eq!(
                    stats.estimator_drift,
                    1.0,
                    "estimate must match the measured peak exactly for {} under {precision:?}",
                    aggregator.name()
                );
            }
        }
    }

    #[test]
    fn half_precision_training_loss_stays_close_to_f32() {
        // 16-bit storage perturbs activations by ≤ half a ulp per value;
        // over a short run the loss must stay finite and track the f32
        // trajectory within a loose relative tolerance (not bit-exact:
        // that would defeat the point of the quantization).
        use betty_tensor::DType;
        let ds = dataset();
        let loss_at = |precision: DType| {
            let cfg = ExperimentConfig {
                precision,
                ..config()
            };
            let mut runner = Runner::new(&ds, &cfg, 0);
            let mut last = f64::NAN;
            for _ in 0..3 {
                last = runner
                    .train_epoch_betty(&ds, StrategyKind::Betty, 2)
                    .unwrap()
                    .loss;
            }
            last
        };
        let f32_loss = loss_at(DType::F32);
        for precision in [DType::Bf16, DType::F16] {
            let half_loss = loss_at(precision);
            assert!(half_loss.is_finite(), "{precision:?} loss diverged");
            let rel = (half_loss - f32_loss).abs() / f32_loss.abs().max(1e-6);
            assert!(
                rel < 0.05,
                "{precision:?} loss {half_loss} strayed {rel:.3} from f32 loss {f32_loss}"
            );
        }
    }

    #[test]
    fn half_precision_needs_fewer_partitions_on_fixed_budget() {
        // The planner-visible payoff of 16-bit storage: on a power-law
        // graph with a budget that forces the f32 run to split, the bf16
        // run's smaller per-micro-batch footprint admits a strictly
        // smaller K.
        use betty_tensor::DType;
        let ds = DatasetSpec::reddit()
            .scaled(0.002)
            .with_feature_dim(32)
            .generate(11);
        let f32_cfg = ExperimentConfig {
            fanouts: vec![4, 8],
            hidden_dim: 32,
            dropout: 0.0,
            capacity_bytes: gib(4),
            ..ExperimentConfig::default()
        };
        // Budget: below the full-batch f32 peak so K must grow.
        let mut probe = Runner::new(&ds, &f32_cfg, 0);
        let batch = probe.sample_full_batch(&ds);
        let full_peak = probe
            .plan_fixed(&batch, StrategyKind::Betty, 1)
            .max_estimated_peak();
        let budget = full_peak * 3 / 4;
        let tight_f32 = ExperimentConfig {
            capacity_bytes: budget,
            ..f32_cfg.clone()
        };
        let tight_bf16 = ExperimentConfig {
            capacity_bytes: budget,
            precision: DType::Bf16,
            ..f32_cfg
        };
        let (_, k_f32) = Runner::new(&ds, &tight_f32, 0)
            .train_epoch_auto(&ds, StrategyKind::Betty)
            .unwrap();
        let (_, k_bf16) = Runner::new(&ds, &tight_bf16, 0)
            .train_epoch_auto(&ds, StrategyKind::Betty)
            .unwrap();
        assert!(k_f32 > 1, "budget must force the f32 run to split");
        assert!(
            k_bf16 < k_f32,
            "bf16 must need strictly fewer partitions: f32 K={k_f32}, bf16 K={k_bf16}"
        );
    }

    #[test]
    fn evaluate_returns_probability() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let nodes: Vec<_> = ds.val_idx.iter().copied().take(20).collect();
        let acc = runner.evaluate(&ds, &nodes);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn mini_batch_epoch_runs() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let stats = runner.train_epoch_mini(&ds, 4).unwrap();
        assert_eq!(stats.num_steps, 4);
    }

    #[test]
    fn recovering_epoch_escalates_past_an_injected_oom() {
        use crate::recovery::RecoveryLog;
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            }),
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let (stats, k) = runner
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .expect("recovery must rescue the injected OOM");
        assert_eq!(stats.oom_retries, 1);
        assert_eq!(stats.injected_faults, 1);
        assert!(k >= 2, "escalation grows K, got {k}");
        assert_eq!(log.oom_retries(), 1);
        assert_eq!(log.injected_faults(), 1);
        assert_eq!(log.recoveries(), 1);
        assert!(!log.exhausted());
    }

    #[test]
    fn retry_exhaustion_surfaces_the_original_error_chain() {
        use crate::recovery::{RecoveryLog, RetryPolicy};
        use betty_device::{FaultPlan, OomError};
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan {
                alloc_failure_rate: 1.0, // every allocation fails
                ..FaultPlan::default()
            }),
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let err = runner
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .unwrap_err();
        let RunError::RetryExhausted { attempts, .. } = &err else {
            panic!("expected RetryExhausted, got {err:?}");
        };
        assert_eq!(*attempts, 2);
        assert!(log.exhausted());
        // Walk the source() chain down to the original OomError.
        let mut cause: &dyn std::error::Error = &err;
        while let Some(next) = cause.source() {
            cause = next;
        }
        let oom = cause
            .downcast_ref::<OomError>()
            .expect("chain must bottom out in the device OomError");
        assert!(oom.injected);
    }

    #[test]
    fn zero_retry_budget_reports_plain_train_error() {
        use crate::recovery::{RecoveryLog, RetryPolicy};
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            }),
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let err = runner
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .unwrap_err();
        assert!(
            matches!(err, RunError::Train(_)),
            "no retries attempted → plain Train error, got {err:?}"
        );
        assert_eq!(log.oom_retries(), 0);
    }

    #[test]
    fn prefetch_toggle_does_not_change_losses() {
        let ds = dataset();
        let on_cfg = config();
        assert!(on_cfg.prefetch, "prefetch is the default");
        let off_cfg = ExperimentConfig {
            prefetch: false,
            ..config()
        };
        let mut on = Runner::new(&ds, &on_cfg, 0);
        let mut off = Runner::new(&ds, &off_cfg, 0);
        for epoch in 0..3 {
            let a = on.train_epoch_betty(&ds, StrategyKind::Betty, 3).unwrap();
            let b = off.train_epoch_betty(&ds, StrategyKind::Betty, 3).unwrap();
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "epoch {epoch}: prefetch must only change timing"
            );
            assert_eq!(b.prefetch_overlap_sec, 0.0);
            assert!(a.transfer_sec <= b.transfer_sec + 1e-12);
        }
    }

    #[test]
    fn fault_mid_prefetched_epoch_leaves_ledger_drained() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            // Step 0 stages step 1's transfer; the fault then kills step 1,
            // which must drop the staged charge along with everything else.
            fault_plan: Some(FaultPlan {
                oom_steps: vec![1],
                ..FaultPlan::default()
            }),
            ..config()
        };
        assert!(cfg.prefetch);
        let mut runner = Runner::new(&ds, &cfg, 0);
        let err = runner
            .train_epoch_betty(&ds, StrategyKind::Betty, 3)
            .unwrap_err();
        assert!(err.is_injected());
        assert_eq!(
            runner.trainer().device().current_bytes(),
            0,
            "failure in a prefetched epoch must leave no staged charge behind"
        );
        // The next epoch trains through cleanly on the drained device.
        runner.train_epoch_betty(&ds, StrategyKind::Betty, 3).unwrap();
    }

    #[test]
    fn entry_points_without_a_log_still_drain_injected_faults() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan {
                transfer_stall_rate: 1.0,
                ..FaultPlan::default()
            }),
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        // Every micro-batch is one host→device transfer and every
        // transfer stalls: an epoch reports its own steps' worth, never
        // its predecessor's, and leaves nothing queued in the injectors.
        for _ in 0..2 {
            let stats = runner.train_epoch_betty(&ds, StrategyKind::Betty, 3).unwrap();
            assert_eq!(stats.injected_faults, stats.num_steps);
            assert!(runner.trainer_mut().drain_fault_events().is_empty());
        }
        let stats = runner.train_epoch_mini(&ds, 4).unwrap();
        assert_eq!(stats.injected_faults, 4);
        assert!(runner.trainer_mut().drain_fault_events().is_empty());
    }

    #[test]
    fn recovering_epoch_with_prefetch_still_escalates_and_recovers() {
        use crate::recovery::RecoveryLog;
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            }),
            ..config()
        };
        assert!(cfg.prefetch);
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let (stats, _k) = runner
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .expect("recovery must work with prefetch enabled");
        assert_eq!(stats.oom_retries, 1);
        assert_eq!(runner.trainer().device().current_bytes(), 0);
    }

    #[test]
    fn noop_fault_plan_is_byte_identical_to_no_plan() {
        use crate::recovery::RecoveryLog;
        use betty_device::FaultPlan;
        let ds = dataset();
        let clean_cfg = config();
        let armed_cfg = ExperimentConfig {
            // Non-zero seed, all rates zero: armed but inert.
            fault_plan: Some(FaultPlan {
                seed: 1234,
                ..FaultPlan::default()
            }),
            ..config()
        };
        let mut clean = Runner::new(&ds, &clean_cfg, 0);
        let mut armed = Runner::new(&ds, &armed_cfg, 0);
        let mut log = RecoveryLog::new();
        let (a, ka) = clean
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .unwrap();
        let (b, kb) = armed
            .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
            .unwrap();
        assert_eq!(ka, kb);
        assert_eq!(a.max_peak_bytes, b.max_peak_bytes);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert!(log.is_empty());
    }
}
