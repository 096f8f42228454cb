//! High-level experiment facade: dataset + config → epochs.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_data::{Dataset, InjectedStorageFault, SeededStorageFaults, StorageIncident};
use betty_device::{
    AggregatorKind, Device, FaultEvent, FaultPlan, MemoryEstimate, MemoryEstimator, ModelShape,
    StallInjector, BYTES_PER_VALUE,
};
use betty_graph::{sample_batch_in, Batch, CsrGraph, NodeId};
use betty_nn::{Gat, Gcn, Gin, GnnModel, GraphSage, TrainState};

use betty_trace::{SpanKind, TraceRecorder};

use crate::config::{ExperimentConfig, ModelKind};
use crate::multi::{attribute_epoch, simulate_elastic_schedule, DeviceGroup, MultiDeviceEpoch};
use crate::pipeline::{
    dataset_key, plan_batch, sample_next, PipelineSpec, PlanMode, PlanPipeline, StagedBundle,
};
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
    /// Partition-ahead pipeline staging future epochs' plans on its
    /// planner thread (`config.plan_ahead > 0` only). `None` means
    /// the next epoch builds its bundle inline; anything that perturbs the
    /// sampler RNG stream or the staged work's assumptions resets it.
    pipeline: Option<PlanPipeline>,
    /// Where the next memory-aware search starts: the last one's
    /// `Plan::k`, or 1 (the cold search) before there is one.
    warm_k: usize,
    epochs_run: usize,
    /// All-reduce link-stall injector, armed once per run from the
    /// config's fault plan so its seeded stream continues across epochs
    /// (the trainer holds the alloc/transfer injectors, the paged
    /// feature store the storage stream).
    link_faults: StallInjector,
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
    /// The plan whose `device_fail_steps` and `straggler_factors` hit
    /// the group; no device faults is the empty plan.
    faults: &'a FaultPlan,
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
}

impl<'a> Acquired<'a> {
    /// Work acquired on the training thread: nothing was staged ahead.
    fn synchronous(sampled: Option<Batch>, work: Result<Work<'a>, PlanError>) -> Self {
        Acquired {
            sampled,
            work,
            overlap_sec: 0.0,
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
        let (d, h, c, l, p) = (
            dataset.feature_dim(),
            config.hidden_dim,
            dataset.num_classes,
            config.num_layers(),
            config.dropout,
        );
        let rng = &mut Pcg64Mcg::seed_from_u64(seed);
        let (model, estimator_aggregator): (Box<dyn GnnModel>, _) = match config.model {
            ModelKind::GraphSage => (
                Box::new(GraphSage::new(d, h, c, l, config.aggregator, p, rng)),
                aggregator_kind(config.aggregator),
            ),
            ModelKind::Gat => (
                Box::new(Gat::new(d, h, c, l, config.num_heads, p, rng)),
                AggregatorKind::Attention {
                    heads: config.num_heads,
                },
            ),
            ModelKind::Gcn => (Box::new(Gcn::new(d, h, c, l, p, rng)), AggregatorKind::Gcn),
            ModelKind::Gin => (Box::new(Gin::new(d, h, c, l, p, rng)), AggregatorKind::Gin),
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
        let plan = &config.fault_plan;
        trainer.arm_faults(plan);
        // The store outlives any one runner (datasets are shared): arming
        // this run's stream replaces a predecessor's and what it recorded.
        dataset.features.arm_storage_faults(Box::new(SeededStorageFaults::new(
            plan.seed,
            plan.io_failure_rate,
            plan.io_stall_rate,
            plan.io_stall_sec,
            plan.shard_corrupt.clone(),
        )));
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
            warm_k: 1,
            epochs_run: 0,
            link_faults: plan.link_injector(),
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
    /// then lets the feature store apply the shard corruption its fault
    /// stream schedules for this epoch.
    fn begin_epoch(&mut self, dataset: &Dataset) {
        let epoch = self.epochs_run;
        self.epochs_run += 1;
        if let Some(tr) = self.trainer.trace_mut() {
            tr.set_epoch(epoch);
        }
        dataset.features.begin_epoch(epoch);
    }

    /// Drains every injected-fault source — the trainer's (allocation,
    /// transfer, NaN), the all-reduce link's and the feature store's
    /// (scheduled corruption, then failed and stalled reads, in the order
    /// they happened) — and then the store's retry/repair incidents
    /// accumulated since the last call, into `log` and, when tracing, the
    /// trace stream. Returns how many *injected* fault events were
    /// drained (for [`EpochStats::injected_faults`]).
    fn drain_faults(&mut self, dataset: &Dataset, log: &mut RecoveryLog) -> usize {
        let mut events = self.trainer.drain_fault_events();
        events.extend(self.link_faults.drain_events());
        let storage = dataset.features.drain_storage_faults().into_iter();
        events.extend(storage.map(|fault| match fault {
            InjectedStorageFault::ReadFailed { shard, attempt } => {
                FaultEvent::StorageIoError { shard, attempt }
            }
            InjectedStorageFault::ReadStalled { shard, stall_sec } => {
                FaultEvent::StorageStall { shard, stall_sec }
            }
            InjectedStorageFault::Corrupted { shard, epoch } => {
                FaultEvent::ShardCorrupted { shard, epoch }
            }
        }));
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

    /// Depth 0: draws this epoch's batch on this thread, dropping any
    /// pipeline (its staged batches were drawn ahead of this cursor).
    fn sample_here(&mut self, dataset: &Dataset) -> (Batch, Instant, f64) {
        self.pipeline = None;
        let (graph, fanouts) = (&self.in_graph, &self.config.fanouts);
        sample_next(graph, &dataset.train_idx, fanouts, &mut self.sample_rng)
    }

    /// Plans `batch` on this thread in `mode`, a `From` search resuming at
    /// the warm `K` against `capacity_bytes`.
    fn plan_here(
        &self,
        batch: &Batch,
        strategy: StrategyKind,
        mode: PlanMode,
        capacity_bytes: usize,
    ) -> Result<Plan, PlanError> {
        let strategy = build_strategy(strategy, self.seed);
        plan_batch(&self.planner, batch, strategy.as_ref(), mode, self.warm_k, capacity_bytes)
    }

    /// Depth 0: this epoch's bundle, sampled and planned on this thread.
    fn inline_bundle(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        mode: PlanMode,
    ) -> StagedBundle {
        let (batch, sample_started, sample_sec) = self.sample_here(dataset);
        let plan = self.plan_here(&batch, strategy, mode, self.config.capacity_bytes);
        StagedBundle {
            batch,
            plan,
            rng_after: self.sample_rng.state(),
            sample_sec,
            sample_started,
            plan_finished: Instant::now(),
        }
    }

    /// Records a `sample` span over the given start and seconds.
    fn record_sample(&mut self, started: Instant, sec: f64) {
        if let Some(tr) = self.trainer.trace_mut() {
            let start = tr.sec_at(started);
            tr.record_span(SpanKind::Sample, None, start, sec);
        }
    }

    /// Takes over a plan made in `mode` that finished at `finished`: its
    /// `partition` and `plan` spans, and — from a `From` search — its `K`
    /// as where the next search starts.
    fn adopt_plan(&mut self, plan: &Result<Plan, PlanError>, mode: PlanMode, finished: Instant) {
        let Ok(plan) = plan else { return };
        if let PlanMode::From(_) = mode {
            self.warm_k = plan.k;
        }
        if let Some(tr) = self.trainer.trace_mut() {
            let finished = tr.sec_at(finished);
            record_plan_spans(tr, plan, finished);
        }
    }

    /// Takes over a bundle, inline or staged, as if this thread had done
    /// its work: adopts its RNG cursor, records its sample, partition and
    /// plan spans, and sets the warm `K`.
    fn consume(&mut self, bundle: StagedBundle, mode: PlanMode) -> (Batch, Result<Plan, PlanError>) {
        self.sample_rng = Pcg64Mcg::new(bundle.rng_after);
        self.record_sample(bundle.sample_started, bundle.sample_sec);
        self.adopt_plan(&bundle.plan, mode, bundle.plan_finished);
        (bundle.batch, bundle.plan)
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
        self.sample_here(dataset).0
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

    /// Whether a partition-ahead pipeline is currently alive (its
    /// planner thread is staging the coming epochs). False at
    /// `plan_ahead: 0`, after any invalidation (recovery retry, direct
    /// sampling, evaluation, session import), and under a single
    /// configured thread.
    pub fn plan_ahead_active(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Hands out this epoch's staged bundle from the partition-ahead
    /// pipeline, spawning or replacing the pipeline as needed, with the
    /// planning seconds it hid off this epoch's critical path (`prep time −
    /// handoff wait`, clamped at 0). `None` means depth 0: no plan-ahead,
    /// a single configured thread, or a dead (panicked) planner thread;
    /// the last case also resets the pipeline so the inline bundle
    /// resumes from the unconsumed RNG cursor.
    ///
    /// When tracing, records the bundle's `plan_ahead` span. It runs from
    /// the instant the bundle's slot opened (stamped on *this* thread, at
    /// spawn or at an earlier handoff, before the overlapped epoch began
    /// training) to now, so it contains every forward/backward span of
    /// the epoch that trained while this bundle was being staged.
    fn pipelined_bundle(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        mode: PlanMode,
    ) -> Option<(StagedBundle, f64)> {
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
        let pipeline = self.pipeline.get_or_insert_with(|| {
            PlanPipeline::spawn(PipelineSpec {
                graph: Arc::clone(&self.in_graph),
                seeds: Arc::new(dataset.train_idx.clone()),
                fanouts: self.config.fanouts.clone(),
                planner: self.planner.clone(),
                strategy,
                seed: self.seed,
                mode,
                depth,
                rng_state: self.sample_rng.state(),
                start_k: self.warm_k,
                dataset_key: key,
            })
        });
        let Some((bundle, wait_sec, slot_opened)) = pipeline.next_bundle() else {
            self.pipeline = None;
            return None;
        };
        if let Some(tr) = self.trainer.trace_mut() {
            let window_start = tr.sec_at(slot_opened);
            let window = (tr.now_sec() - window_start).max(0.0);
            tr.record_span(SpanKind::PlanAhead, None, window_start, window);
        }
        let plan_sec = bundle
            .plan
            .as_ref()
            .map_or(0.0, |p| p.partition_sec + p.extraction_sec);
        let overlap_sec = (bundle.sample_sec + plan_sec - wait_sec).max(0.0);
        Some((bundle, overlap_sec))
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

    /// Produces this epoch's batch and plan as a bundle — staged by the
    /// partition-ahead pipeline when one is running, built inline (depth
    /// 0) otherwise — and consumes it. Both draw the same batch from the
    /// same RNG cursor and plan it from the same warm `K`, so the result
    /// is bit-identical; only where the wall-clock time was spent differs.
    fn acquire_plan(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        mode: PlanMode,
    ) -> Acquired<'static> {
        let (bundle, overlap_sec) = match self.pipelined_bundle(dataset, strategy, mode) {
            Some(staged) => staged,
            None => (self.inline_bundle(dataset, strategy, mode), 0.0),
        };
        let (batch, plan) = self.consume(bundle, mode);
        Acquired {
            sampled: Some(batch),
            work: plan.map(Work::from),
            overlap_sec,
        }
    }

    /// Samples on this thread (resetting any running pipeline), then cuts
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
        let reusable = self.cached_parts.as_ref().is_some_and(|c| {
            c.strategy == strategy && c.k == k && c.epochs_used < refresh_every
        });
        if !reusable {
            let mode = PlanMode::Fixed(k);
            let bundle = self.inline_bundle(dataset, strategy, mode);
            let (batch, plan) = self.consume(bundle, mode);
            let work = plan.map(|plan| {
                self.cached_parts = Some(CachedParts {
                    strategy,
                    k,
                    parts: plan.parts.clone(),
                    epochs_used: 1,
                });
                Work::from(plan)
            });
            return Acquired::synchronous(Some(batch), work);
        }
        let (batch, started, sec) = self.sample_here(dataset);
        self.record_sample(started, sec);
        let cache = self.cached_parts.as_mut().expect("checked reusable");
        cache.epochs_used += 1;
        // The cut's estimates priced an earlier batch, not this
        // re-sampled one: a reuse epoch carries none.
        let work = Work {
            micro_batches: Cow::Owned(batch.restrict_all(&cache.parts)),
            estimates: Vec::new(),
        };
        Acquired::synchronous(Some(batch), Ok(work))
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
        let (fail_steps, straggler_factors) =
            (&spec.faults.device_fail_steps, &spec.faults.straggler_factors);
        let Acquired {
            sampled,
            work: mut planned,
            overlap_sec,
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
                let err = match self.trainer.micro_batch_epoch(dataset, &work.micro_batches) {
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
                            &mut self.link_faults,
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
            let mode = PlanMode::From(next_k);
            let shrunk = policy.planning_capacity(capacity, attempt);
            let plan = self.plan_here(batch, strategy, mode, shrunk);
            self.adopt_plan(&plan, mode, Instant::now());
            planned = plan.map(Work::from);
        }
    }

    /// [`Runner::run_epoch`] with nothing to recover from and nothing to
    /// survive: `source` on a group of one under a zero retry budget,
    /// fault events drained into a scratch log.
    fn run_plain(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        source: PlanSource<'_>,
    ) -> Result<MultiDeviceEpoch, RunError> {
        let spec = EpochSpec {
            source,
            group: &DeviceGroup::new(1),
            retry: RetryPolicy {
                max_retries: 0,
                max_anomaly_retries: 0,
                ..self.config.retry.clone()
            },
            faults: &FaultPlan::default(),
        };
        self.run_epoch(dataset, strategy, &spec, &mut RecoveryLog::new())
    }

    /// One epoch of micro-batch training with a fixed partition count.
    ///
    /// With [`ExperimentConfig::plan_ahead`] `> 0` (and more than one
    /// configured thread) the batch and plan come pre-staged from the
    /// partition-ahead pipeline; results are bit-identical to the
    /// synchronous path.
    ///
    /// # Errors
    ///
    /// [`RunError::Train`] if a micro-batch exceeds capacity;
    /// [`RunError::Anomaly`] (with no rollback spent) on a numeric anomaly.
    pub fn train_epoch_betty(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
        k: usize,
    ) -> Result<EpochStats, RunError> {
        let source = PlanSource::Planned(PlanMode::Fixed(k));
        self.run_plain(dataset, strategy, source).map(|epoch| epoch.combined)
    }

    /// One epoch with memory-aware partition-count selection; returns the
    /// epoch stats and the chosen `K`.
    ///
    /// # Errors
    ///
    /// [`RunError`] if planning or training fails; with no retry budget a
    /// numeric anomaly is [`RunError::Anomaly`] with `rollbacks: 0`.
    pub fn train_epoch_auto(
        &mut self,
        dataset: &Dataset,
        strategy: StrategyKind,
    ) -> Result<(EpochStats, usize), RunError> {
        let source = PlanSource::Planned(PlanMode::From(1));
        self.run_plain(dataset, strategy, source)
            .map(|epoch| (epoch.combined, epoch.assignment.len()))
    }

    /// Trains one effective batch from pre-built micro-batches (gradient
    /// accumulation + single optimizer step). Benches use this to measure
    /// a specific plan's micro-batches directly.
    ///
    /// # Errors
    ///
    /// As [`Runner::train_epoch_betty`].
    pub fn train_micro_batches(
        &mut self,
        dataset: &Dataset,
        micro_batches: &[Batch],
    ) -> Result<EpochStats, RunError> {
        // Nothing is partitioned, so the strategy is never consulted.
        let source = PlanSource::Given(micro_batches);
        self.run_plain(dataset, StrategyKind::Betty, source).map(|epoch| epoch.combined)
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
    /// As [`Runner::train_epoch_betty`].
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
    ) -> Result<(EpochStats, bool), RunError> {
        assert!(refresh_every > 0, "refresh_every must be positive");
        let source = PlanSource::Cached { k, refresh_every };
        let epoch = self.run_plain(dataset, strategy, source)?;
        // A cut that has served one epoch was made for this one.
        let fresh = self.cached_parts.as_ref().is_some_and(|c| c.epochs_used == 1);
        Ok((epoch.combined, fresh))
    }

    /// One epoch of simulated data-parallel training on a device group
    /// (the paper's multi-GPU future work, §7) from a starting `k`:
    /// micro-batches are LPT-scheduled across devices by estimated work,
    /// gradients are ring-all-reduced (numerically identical to
    /// single-device accumulation), and the wall time is the slowest
    /// device plus the synchronization cost. The group survives the
    /// device-level faults of the config's [`betty_device::FaultPlan`] —
    /// scheduled device failures, per-device straggler slowdowns, and
    /// transient all-reduce link stalls — within the config's retry
    /// budget. This is the executor's general configuration (the CLI's
    /// one call): a group of one is the single-device recovering path,
    /// the empty plan a fault-free group, and `k = 1` is auto-K.
    ///
    /// A lost device's unfinished micro-batches migrate onto survivors
    /// before any numerics run; if the migrated load no longer fits the
    /// survivors' headroom budget, or a step OOMs, the epoch-start snapshot
    /// (parameters, optimizer moments, dropout RNG) is restored and `K`
    /// escalates from `k` — `max(K + 1, ceil(K · growth))` against a
    /// capacity shrunk by compounding headroom — within
    /// [`RetryPolicy`](crate::RetryPolicy)'s budget. Numerics are
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
    /// * [`RunError::Train`] if a step fails and the retry budget is zero
    ///   (recovery disabled), or on storage damage;
    /// * [`RunError::RetryExhausted`] once OOM retries run out, carrying
    ///   the original failure as its
    ///   [`source`](std::error::Error::source);
    /// * [`RunError::Anomaly`] once numeric-anomaly rollbacks run out.
    ///
    /// # Panics
    ///
    /// Panics if the config's fault plan fails
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
        let faults = self.config.fault_plan.clone();
        faults
            .validate_for_devices(group.num_devices)
            .unwrap_or_else(|e| panic!("invalid fault plan for elastic group: {e}"));
        let spec = EpochSpec {
            source: PlanSource::Planned(PlanMode::From(k)),
            group,
            retry: self.config.retry.clone(),
            faults: &faults,
        };
        self.run_epoch(dataset, strategy, &spec, log)
    }

    /// One epoch of classic mini-batch training over `num_batches` chunks
    /// of the training set (the §3.3/Table 6 baseline).
    ///
    /// # Errors
    ///
    /// [`RunError::Train`] if a mini-batch exceeds capacity.
    pub fn train_epoch_mini(
        &mut self,
        dataset: &Dataset,
        num_batches: usize,
    ) -> Result<EpochStats, RunError> {
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
        Ok(EpochStats {
            injected_faults,
            ..result?
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

    /// An auto-K epoch with recovery on a group of one.
    fn recovering_epoch(
        runner: &mut Runner,
        ds: &Dataset,
        log: &mut RecoveryLog,
    ) -> Result<(EpochStats, usize), RunError> {
        runner
            .train_epoch_elastic(ds, StrategyKind::Betty, 1, &DeviceGroup::new(1), log)
            .map(|epoch| (epoch.combined, epoch.assignment.len()))
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
        // mean3_auto's model: a 3-layer mean model at fanouts 25, 35, 40,
        // here on a 16 MiB device, where K moves between 4 and 5 (under
        // mean3_auto's own 22 MiB it is 3 every epoch). Each epoch's batch
        // is planned as an auto-K epoch plans it, then again cold.
        let (mut ks, mut warm_probes, mut cold_probes) = (Vec::new(), 0, 0);
        for seed in [1u64, 2, 3] {
            let ds = DatasetSpec::ogbn_products().scaled(0.01).generate(seed);
            let cfg = ExperimentConfig {
                fanouts: vec![25, 35, 40],
                hidden_dim: 64,
                capacity_bytes: 16 << 20,
                ..config()
            };
            let mut runner = Runner::new(&ds, &cfg, seed);
            let strategy = build_strategy(StrategyKind::Betty, seed);
            for epoch in 0..10 {
                let batch = runner.sample_full_batch(&ds);
                let (auto, capacity) = (PlanMode::From(1), cfg.capacity_bytes);
                let warm = runner.plan_here(&batch, StrategyKind::Betty, auto, capacity);
                runner.adopt_plan(&warm, auto, Instant::now());
                let (warm, cold) = (
                    warm.unwrap(),
                    runner.planner().plan(&batch, strategy.as_ref(), 1).unwrap(),
                );
                let what = format!("seed {seed} epoch {epoch}");
                assert_eq!((warm.k, &warm.parts), (cold.k, &cold.parts), "{what}");
                assert_eq!(runner.warm_k, cold.k, "{what}");
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

    /// Eq. 5's LSTM term follows the layer's one packed sequence op: every
    /// neighbour step — one edge — adds `LSTM_TAPE_CONSTANT · d` tape
    /// values, whether it lengthens a sequence or starts one.
    #[test]
    fn lstm_estimate_charges_the_tape_constant_per_neighbour_step() {
        use betty_device::{AggregatorKind, MemoryEstimator, ModelShape};
        use betty_graph::{Batch, Block};
        let d = 8;
        let estimator = MemoryEstimator::new(ModelShape {
            in_dim: d,
            hidden_dim: 4,
            num_classes: 3,
            num_layers: 1,
            aggregator: AggregatorKind::Lstm,
            params_gnn: 100,
            params_agg: 20,
            dropout: false,
        })
        .with_lstm_constant(LSTM_TAPE_CONSTANT);
        let tape = |edges: &[(u32, u32)]| {
            let batch = Batch::new(vec![Block::new(vec![0, 1], edges)]);
            estimator.estimate(&batch).aggregator_intermediate
        };
        // Destination 1 starts isolated; destination 0 has two neighbours.
        let base = tape(&[(10, 0), (11, 0)]);
        let step_bytes = LSTM_TAPE_CONSTANT * d * 4;
        assert_eq!(tape(&[(10, 0), (11, 0), (12, 1)]) - base, step_bytes, "a new sequence");
        assert_eq!(tape(&[(10, 0), (11, 0), (12, 0)]) - base, step_bytes, "a longer sequence");
        assert_eq!(LSTM_TAPE_CONSTANT, 6, "four gates, the cell and the hidden state");
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
            fault_plan: FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let (stats, k) = recovering_epoch(&mut runner, &ds, &mut log)
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
    fn recovering_epoch_with_prefetch_still_escalates_and_recovers() {
        // The default configuration once staged each successor's transfer;
        // recovery from a fault on the first step must still escalate once
        // and leave no charge of the failed attempt on the ledger.
        use crate::recovery::RecoveryLog;
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let (stats, _k) = recovering_epoch(&mut runner, &ds, &mut log)
            .expect("recovery must work in the default configuration");
        assert_eq!(stats.oom_retries, 1);
        assert_eq!(runner.trainer().device().current_bytes(), 0);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_original_error_chain() {
        use crate::recovery::{RecoveryLog, RetryPolicy};
        use betty_device::{FaultPlan, OomError};
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: FaultPlan {
                alloc_failure_rate: 1.0, // every allocation fails
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let err = recovering_epoch(&mut runner, &ds, &mut log)
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
            fault_plan: FaultPlan {
                oom_steps: vec![0],
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let mut log = RecoveryLog::new();
        let err = recovering_epoch(&mut runner, &ds, &mut log)
            .unwrap_err();
        assert!(
            matches!(err, RunError::Train(_)),
            "no retries attempted → plain Train error, got {err:?}"
        );
        assert_eq!(log.oom_retries(), 0);
    }

    #[test]
    fn fault_mid_epoch_leaves_ledger_drained() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            // Step 0 succeeds; the fault then kills step 1, which must drop
            // its charges along with everything else.
            fault_plan: FaultPlan {
                oom_steps: vec![1],
                ..FaultPlan::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let err = runner
            .train_epoch_betty(&ds, StrategyKind::Betty, 3)
            .unwrap_err();
        assert!(matches!(&err, RunError::Train(e) if e.is_injected()), "{err:?}");
        assert_eq!(
            runner.trainer().device().current_bytes(),
            0,
            "a failed step must leave no charge behind"
        );
        // The next epoch trains through cleanly on the drained device.
        runner.train_epoch_betty(&ds, StrategyKind::Betty, 3).unwrap();
    }

    #[test]
    fn entry_points_without_a_log_still_drain_injected_faults() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: FaultPlan {
                transfer_stall_rate: 1.0,
                ..FaultPlan::default()
            },
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
    fn noop_fault_plan_is_byte_identical_to_no_plan() {
        use crate::recovery::RecoveryLog;
        use betty_device::FaultPlan;
        let ds = dataset();
        let clean_cfg = config();
        let armed_cfg = ExperimentConfig {
            // A zero-rate plan's seed changes nothing: every stream it
            // seeds is drawn from only at a non-zero rate.
            fault_plan: FaultPlan {
                seed: 1234,
                ..FaultPlan::default()
            },
            ..config()
        };
        let mut clean = Runner::new(&ds, &clean_cfg, 0);
        let mut armed = Runner::new(&ds, &armed_cfg, 0);
        let mut log = RecoveryLog::new();
        let (a, ka) = recovering_epoch(&mut clean, &ds, &mut log)
            .unwrap();
        let (b, kb) = recovering_epoch(&mut armed, &ds, &mut log)
            .unwrap();
        assert_eq!(ka, kb);
        assert_eq!(a.max_peak_bytes, b.max_peak_bytes);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert!(log.is_empty());
    }

    /// One epoch's recovery log under `plan`, one line per entry as the
    /// CLI prints it, with the epoch's injected-fault count.
    fn logged_epoch(ds: &Dataset, plan: FaultPlan) -> (Vec<String>, usize) {
        let mut cfg = ExperimentConfig {
            fanouts: vec![4, 8],
            dropout: 0.3,
            capacity_bytes: gib(8),
            fault_plan: plan,
            ..config()
        };
        cfg.retry.max_io_retries = 25;
        cfg.retry.max_retries = 8;
        betty_runtime::with_threads(1, || {
            let mut runner = Runner::new(ds, &cfg, 3);
            let mut log = RecoveryLog::new();
            let epoch = runner
                .train_epoch_elastic(ds, StrategyKind::Betty, 4, &DeviceGroup::new(1), &mut log)
                .unwrap();
            let lines = log.entries().iter().map(|e| format!("{}: {}", e.epoch, e.event));
            (lines.collect(), epoch.combined.injected_faults)
        })
    }

    fn fnv1a(lines: &[String]) -> u64 {
        lines.iter().flat_map(|l| l.bytes().chain([b'\n'])).fold(
            0xcbf2_9ce4_8422_2325,
            |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3),
        )
    }

    /// Two epochs' recovery logs, recorded before the storage stream
    /// moved from a device-crate injector behind an adapter into the
    /// store: every line, in order — trainer events, then the store's
    /// injected faults (the scheduled corruption first), then its retries
    /// and repair — and the injected-fault count. Never edit these for a
    /// refactor.
    #[test]
    fn fault_logs_are_pinned() {
        let ds = DatasetSpec::cora().scaled(0.12).with_feature_dim(16).generate(5);
        let dir = std::env::temp_dir().join(format!("betty-pinned-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut paged = ds.clone();
        paged.features = paged.features.to_paged_with_parity(&dir, 8, usize::MAX, 2).unwrap();
        let storage = FaultPlan {
            seed: 7,
            io_failure_rate: 0.3,
            io_stall_rate: 0.2,
            io_stall_sec: 0.002,
            shard_corrupt: vec![(1, 0)],
            ..FaultPlan::default()
        };
        let (lines, injected) = logged_epoch(&paged, storage);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(lines[0], "0: injected payload corruption of shard 1 before epoch 0");
        assert_eq!(
            (fnv1a(&lines), lines.len(), injected),
            (0xc060_94d6_5112_a42b, 39, 24),
            "{lines:#?}"
        );

        let device = FaultPlan {
            seed: 3,
            alloc_failure_rate: 0.004,
            oom_steps: vec![1],
            transfer_stall_rate: 0.5,
            transfer_stall_sec: 0.001,
            nan_loss_steps: vec![6],
            ..FaultPlan::default()
        };
        // Recorded from the same test with double-buffered prefetch
        // switched off, before that mechanism was removed: the transfers
        // it staged for micro-batches a failed step never reached drew
        // one stall more (9 lines, 6 faults, 0x6a83_77e7_9c2f_b8e2).
        let (lines, injected) = logged_epoch(&ds, device);
        assert_eq!(
            (fnv1a(&lines), lines.len(), injected),
            (0x5008_3ac9_0d4d_27fc, 8, 5),
            "{lines:#?}"
        );
    }
}
