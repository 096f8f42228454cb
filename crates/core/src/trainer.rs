//! Micro-batch and mini-batch training execution (paper §4.2).

use std::fmt;
use std::time::Instant;

use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_data::{Dataset, GatherStats};
use betty_device::{
    AllocationId, Device, FaultEvent, FaultPlan, MemoryCategory, OomError, TransferModel,
    BYTES_PER_VALUE,
};
use betty_graph::Batch;
use betty_nn::{Adam, GnnModel, Optimizer, Param, Session};
use betty_tensor::{DType, PoolStats, Reduction};
use betty_trace::{SpanKind, TraceRecorder};

use crate::accounting::{StepCharges, StepSizes};
use crate::stats::{EpochStats, StepStats};

/// Which part of a training step was executing when a failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Charging static tensors (parameters, optimizer state, blocks,
    /// input features, labels).
    StaticCharge,
    /// Staging the *next* micro-batch's host→device transfer (the
    /// double-buffered prefetch allocation).
    Prefetch,
    /// Charging forward activations (hidden outputs + aggregator
    /// workspace).
    Forward,
    /// Charging backward gradients.
    Backward,
}

impl fmt::Display for StepPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StepPhase::StaticCharge => "static charge",
            StepPhase::Prefetch => "prefetch staging",
            StepPhase::Forward => "forward",
            StepPhase::Backward => "backward",
        })
    }
}

/// What the numeric-anomaly sentinel detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The micro-batch loss evaluated to NaN or ±Inf.
    NonFiniteLoss,
    /// A parameter gradient contained NaN or ±Inf after backward.
    NonFiniteGradient,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnomalyKind::NonFiniteLoss => "non-finite loss",
            AnomalyKind::NonFiniteGradient => "non-finite gradient",
        })
    }
}

/// Training failure.
///
/// Marked `#[non_exhaustive]`: variants may grow. Downstream crates
/// should prefer the [`TrainError::oom`] accessor or match with a
/// wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The simulated device ran out of memory mid-step — what Betty's
    /// memory-aware planning exists to prevent. Carries where the step
    /// failed so recovery can log and escalate precisely.
    StepOom {
        /// Global step index (monotone across the trainer's lifetime,
        /// including failed and retried steps).
        step: usize,
        /// The phase in which the allocation failed.
        phase: StepPhase,
        /// The underlying device error.
        source: OomError,
    },
    /// The numeric-anomaly sentinel caught a NaN/Inf loss or gradient.
    /// Accumulating past it would silently corrupt every later step
    /// (§4.2's gradient-sum equivalence assumes finite terms), so the
    /// step is aborted before the optimizer can consume the poison.
    NumericAnomaly {
        /// Global step index at which the anomaly was detected.
        step: usize,
        /// What was non-finite.
        kind: AnomalyKind,
        /// Whether the anomaly came from an armed
        /// [`FaultPlan::nan_loss_steps`] entry rather than genuine
        /// numeric divergence.
        injected: bool,
    },
    /// The out-of-core feature store failed mid-step in a way retry and
    /// parity repair could not absorb: transient I/O errors exhausted the
    /// retry budget, or more shards in a parity group are damaged than
    /// XOR parity can reconstruct. Carries the failing shard and byte
    /// offset end to end so the CLI message names the damaged file
    /// position. Not a capacity problem — the recovery loop aborts
    /// instead of shrinking micro-batches.
    Storage {
        /// Global step index at which the storage failure surfaced.
        step: usize,
        /// Index of the failing feature shard (0 when the failure is not
        /// shard-specific, e.g. a meta-file problem).
        shard: usize,
        /// Byte offset within the shard file where validation failed
        /// (0 when the failure has no meaningful position).
        offset: u64,
        /// Human-readable failure chain from the feature store.
        detail: String,
    },
}

impl TrainError {
    /// The underlying [`OomError`] for any OOM-class variant (`None` for
    /// numeric anomalies).
    pub fn oom(&self) -> Option<&OomError> {
        match self {
            TrainError::StepOom { source, .. } => Some(source),
            TrainError::NumericAnomaly { .. } | TrainError::Storage { .. } => None,
        }
    }

    /// Whether the failure was injected by an armed
    /// [`FaultPlan`] rather than a genuine capacity shortfall or
    /// numeric divergence.
    pub fn is_injected(&self) -> bool {
        match self {
            TrainError::StepOom { source, .. } => source.injected,
            TrainError::NumericAnomaly { injected, .. } => *injected,
            // A storage failure is terminal damage (or an exhausted retry
            // budget) regardless of whether chaos injection produced it.
            TrainError::Storage { .. } => false,
        }
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::StepOom {
                step,
                phase,
                source,
            } => write!(f, "step {step} failed during {phase}: {source}"),
            TrainError::NumericAnomaly { step, kind, injected } => {
                let origin = if *injected { " (injected)" } else { "" };
                write!(f, "step {step} aborted: {kind}{origin}")
            }
            TrainError::Storage {
                step,
                shard,
                offset,
                detail,
            } => write!(
                f,
                "step {step}: feature shard {shard} failed at byte offset {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::StepOom { source, .. } => Some(source),
            TrainError::NumericAnomaly { .. } | TrainError::Storage { .. } => None,
        }
    }
}

/// Lightweight in-memory checkpoint of everything training mutates:
/// parameter values (and gradients), optimizer moments, and the dropout
/// RNG. Restoring one onto the trainer it was taken from rewinds
/// training exactly — a retried epoch is bit-identical to one that
/// never failed.
#[derive(Debug, Clone)]
pub struct TrainerSnapshot {
    params: Vec<Param>,
    optimizer: Adam,
    rng: Pcg64Mcg,
}

impl TrainerSnapshot {
    /// Number of parameter tensors captured.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Host bytes held by the checkpoint (values + gradients), for
    /// overhead reporting.
    pub fn param_bytes(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.len() * 2 * BYTES_PER_VALUE)
            .sum()
    }
}

/// A prefetched host→device transfer staged for the *next* micro-batch:
/// its bytes already occupy the device (under
/// [`MemoryCategory::PrefetchStaging`]) and only `exposed_sec` of its link
/// time remains on the critical path of the step that consumes it.
#[derive(Debug, Clone, Copy)]
struct StagedTransfer {
    alloc: AllocationId,
    /// Full simulated link seconds the staged transfer took.
    raw_sec: f64,
    /// The portion not hidden behind the staging step's compute.
    exposed_sec: f64,
}

/// How a step's loss feeds the gradient.
enum LossMode {
    /// Sum-reduced loss scaled by `1/effective_batch` — summing gradients
    /// over micro-batches then equals the full-batch mean gradient.
    MicroBatch {
        /// Total output nodes of the *effective* batch.
        effective_batch: usize,
    },
    /// Mean-reduced per batch (classic mini-batch SGD).
    MiniBatch,
}

/// Executes (micro-)batches on the autograd engine while charging every
/// accelerator-resident tensor to the simulated [`Device`].
pub struct Trainer {
    model: Box<dyn GnnModel>,
    optimizer: Adam,
    device: Device,
    transfer: TransferModel,
    /// Simulated NVMe-like link feature shards page in over. Separate
    /// from `transfer` so paged feature stores never perturb the PCIe
    /// link's counters or its armed fault-injector stream — dense and
    /// paged runs draw identical stall sequences on `transfer`.
    feature_link: TransferModel,
    rng: Pcg64Mcg,
    global_step: usize,
    trace: Option<TraceRecorder>,
    /// Persistent autograd workspace: with pooling on, each step resets the
    /// tape in place and rebuilds it from recycled buffers instead of
    /// reallocating the whole forward/backward state.
    session: Session,
    pooling: bool,
    /// Numeric-anomaly sentinel: when on (the default), a NaN/Inf loss or
    /// gradient aborts the step instead of corrupting the accumulation.
    sentinel: bool,
    /// Global steps whose loss is poisoned to NaN (armed from
    /// [`FaultPlan::nan_loss_steps`]); each entry fires once.
    nan_steps: std::collections::BTreeSet<usize>,
    /// NaN-injection events not yet drained into the recovery log.
    nan_events: Vec<FaultEvent>,
    /// Storage dtype for node features and forward activations
    /// ([`ExperimentConfig::precision`](crate::ExperimentConfig)): the
    /// tape quantizes non-leaf activations to this width and the device
    /// ledger charges features/hidden tensors at it.
    precision: DType,
}

impl fmt::Debug for Trainer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trainer")
            .field("device_capacity", &self.device.capacity())
            .field("params", &self.model.total_param_count())
            .finish()
    }
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(model: Box<dyn GnnModel>, learning_rate: f32, device: Device, seed: u64) -> Self {
        Self {
            model,
            optimizer: Adam::new(learning_rate),
            device,
            transfer: TransferModel::pcie3(),
            feature_link: TransferModel::nvme(),
            rng: Pcg64Mcg::seed_from_u64(seed),
            global_step: 0,
            trace: None,
            session: Session::new(),
            pooling: true,
            sentinel: true,
            nan_steps: std::collections::BTreeSet::new(),
            nan_events: Vec::new(),
            precision: DType::F32,
        }
    }

    /// Sets the storage precision for features and activations. Non-leaf
    /// tape values round through the 16-bit grid on every step from here
    /// on (compute still accumulates in f32), and the device ledger
    /// charges input features and per-layer tensors at the narrow width —
    /// exactly what a [`betty_device::MemoryEstimator`] configured with
    /// the same dtypes predicts.
    pub fn set_precision(&mut self, dtype: DType) {
        self.precision = dtype;
        self.session.graph.set_activation_dtype(dtype);
    }

    /// The active storage precision.
    pub fn precision(&self) -> DType {
        self.precision
    }

    /// Turns the numeric-anomaly sentinel on or off. With the sentinel
    /// off, a NaN/Inf loss propagates into the accumulated gradients and
    /// every subsequent update — the historical (silent-corruption)
    /// behaviour, kept as an escape hatch and for demonstrating what the
    /// sentinel prevents.
    pub fn set_sentinel(&mut self, on: bool) {
        self.sentinel = on;
    }

    /// Whether the numeric-anomaly sentinel is active.
    pub fn sentinel(&self) -> bool {
        self.sentinel
    }

    /// Turns the pooled tensor workspace on or off (`--no-pool` escape
    /// hatch). Pooling changes allocator traffic only: losses, gradients,
    /// parameters, and device accounting are bit-identical either way,
    /// because every pooled buffer is fully overwritten before it is read.
    pub fn set_pooling(&mut self, on: bool) {
        self.pooling = on;
        self.session.graph.set_pool_enabled(on);
    }

    /// Whether the pooled workspace is active.
    pub fn pooling(&self) -> bool {
        self.pooling
    }

    /// Cumulative workspace-pool counters (hits, misses, bytes recycled)
    /// since this trainer was created.
    pub fn pool_stats(&self) -> PoolStats {
        self.session.graph.pool_stats()
    }

    /// Starts trace recording: step spans, the device-memory timeline,
    /// and at-peak breakdowns are captured from here on. Tracing never
    /// changes the math — losses, gradients, and RNG consumption are
    /// bit-identical with tracing on or off (only extra bookkeeping runs,
    /// and none at all while disabled).
    pub fn enable_tracing(&mut self) {
        self.device.enable_timeline();
        let mut recorder = TraceRecorder::new();
        recorder.set_run_context(
            betty_tensor::Backend::current().name(),
            self.precision.name(),
        );
        self.trace = Some(recorder);
    }

    /// Stops trace recording, returning the recorder (with everything it
    /// captured) if tracing was enabled.
    pub fn disable_tracing(&mut self) -> Option<TraceRecorder> {
        self.device.disable_timeline();
        self.trace.take()
    }

    /// Whether trace recording is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Mutable access to the active trace recorder, for callers that add
    /// their own spans (sampling, partitioning, planning, allreduce).
    pub fn trace_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.as_mut()
    }

    /// The model being trained.
    pub fn model(&self) -> &dyn GnnModel {
        self.model.as_ref()
    }

    /// Mutable model access (e.g. for evaluation helpers).
    pub fn model_mut(&mut self) -> &mut dyn GnnModel {
        self.model.as_mut()
    }

    /// The simulated device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The transfer model, for bandwidth/latency inspection.
    pub fn transfer(&self) -> &TransferModel {
        &self.transfer
    }

    /// The feature page-in link model (NVMe-like), for inspection.
    pub fn feature_link(&self) -> &TransferModel {
        &self.feature_link
    }

    /// Updates the optimizer's learning rate (for
    /// [`betty_nn::schedule`] schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.optimizer.set_lr(lr);
    }

    /// Global step index the next [`Trainer::micro_batch_epoch`] step
    /// will use. Monotone across epochs and recovery retries — a failed
    /// step consumes its index, so a [`FaultPlan::oom_steps`] entry
    /// fires once per run, not once per retry.
    pub fn global_step(&self) -> usize {
        self.global_step
    }

    /// Overwrites the global step counter — used when resuming a durable
    /// checkpoint, so step-scheduled faults and trace step ids continue
    /// from where the killed run left off.
    pub fn set_global_step(&mut self, step: usize) {
        self.global_step = step;
    }

    /// Raw dropout-RNG state, for durable checkpoints.
    pub fn rng_state(&self) -> u128 {
        self.rng.state()
    }

    /// Restores the dropout RNG to a state captured by
    /// [`Trainer::rng_state`].
    pub fn set_rng_state(&mut self, state: u128) {
        self.rng = Pcg64Mcg::new(state);
    }

    /// Positional snapshot of the optimizer's moments and step counter,
    /// for durable checkpoints (see [`betty_nn::AdamState`]).
    pub fn export_optimizer_state(&self) -> betty_nn::AdamState {
        self.optimizer.export_state(&self.model.params())
    }

    /// Restores optimizer state exported by
    /// [`Trainer::export_optimizer_state`], re-keyed under this process's
    /// parameter ids.
    ///
    /// # Errors
    ///
    /// Returns a message if the entry count or any moment shape does not
    /// match the model (the optimizer is left unchanged).
    pub fn import_optimizer_state(&mut self, state: &betty_nn::AdamState) -> Result<(), String> {
        self.optimizer.import_state(&self.model.params(), state)
    }

    /// Captures an in-memory checkpoint of parameters, optimizer
    /// moments, and the dropout RNG (see [`TrainerSnapshot`]).
    pub fn snapshot(&self) -> TrainerSnapshot {
        TrainerSnapshot {
            params: self.model.params().into_iter().cloned().collect(),
            optimizer: self.optimizer.clone(),
            rng: self.rng.clone(),
        }
    }

    /// Restores a snapshot previously taken from this trainer. The
    /// cloned parameters keep their [`Param::id`]s, so the restored
    /// optimizer moments stay correctly keyed.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's parameter count differs from the
    /// model's (i.e. the snapshot came from a different model).
    pub fn restore(&mut self, snapshot: &TrainerSnapshot) {
        let mut params = self.model.params_mut();
        assert_eq!(
            params.len(),
            snapshot.params.len(),
            "snapshot does not match this trainer's model"
        );
        for (dst, src) in params.iter_mut().zip(&snapshot.params) {
            **dst = src.clone();
        }
        self.optimizer = snapshot.optimizer.clone();
        self.rng = snapshot.rng.clone();
    }

    /// Arms deterministic fault injection on the device (allocation
    /// faults), the transfer link (stalls), and the trainer itself
    /// (NaN-loss poisoning). Replaces any previously armed plan.
    pub fn arm_faults(&mut self, plan: &FaultPlan) {
        self.device.arm_faults(plan.alloc_injector());
        self.transfer.arm_faults(plan.transfer_injector());
        self.nan_steps = plan.nan_loss_steps.iter().copied().collect();
    }

    /// Disarms fault injection on the device, the transfer link, and the
    /// trainer's NaN-loss schedule.
    pub fn disarm_faults(&mut self) {
        self.device.disarm_faults();
        self.transfer.disarm_faults();
        self.nan_steps.clear();
    }

    /// Drains injected-fault events from the device, the transfer link,
    /// and the trainer's NaN-loss poisoner (allocation events first).
    /// [`Runner`](crate::Runner) calls this once per attempt and forwards
    /// what it returns into the recovery log and the trace stream.
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        let mut events = self.device.drain_fault_events();
        events.extend(self.transfer.drain_fault_events());
        events.append(&mut self.nan_events);
        events
    }

    /// Releases every outstanding device charge — post-failure cleanup
    /// before a recovery retry. The peak watermark is preserved so the
    /// aborted step stays visible in memory reports.
    pub fn release_device(&mut self) {
        self.device.free_all();
    }

    /// Charges a partition-ahead staging residency to the device ledger
    /// at the epoch boundary and immediately releases it, returning the
    /// bytes actually charged.
    ///
    /// The charge is a feasibility probe plus timeline bookkeeping: it
    /// makes the pipeline's in-flight plan bytes visible to Eq. 5-style
    /// accounting (and to the memory timeline as the `plan ahead`
    /// category) without persisting into step execution — the first
    /// step's `free_all → reset_peak` boundary wipes it before any step
    /// peak is measured, so `max_peak_bytes` stays bit-identical to a
    /// non-pipelined run. Fault injection is bypassed
    /// ([`betty_device::Device::alloc_unfaulted`]) so an armed
    /// `alloc_failure_rate` stream stays aligned with `--plan-ahead 0`.
    /// A charge that alone exceeds capacity is skipped (returns 0)
    /// rather than failing the epoch — the pipeline's depth governor,
    /// not the trainer, is the backpressure mechanism.
    pub fn charge_plan_ahead(&mut self, bytes: usize) -> usize {
        if bytes == 0 {
            return 0;
        }
        match self.device.alloc_unfaulted(bytes, MemoryCategory::PlanAhead) {
            Ok(id) => {
                self.device.free(id);
                bytes
            }
            Err(_) => 0,
        }
    }

    /// Folds this epoch's workspace-pool activity (counter delta since
    /// `before`) into the epoch stats and, when tracing, the trace stream.
    fn finish_epoch_pool_stats(&mut self, epoch: &mut EpochStats, before: PoolStats) {
        let delta = self.session.graph.pool_stats().delta_since(&before);
        epoch.pool_hits = delta.hits;
        epoch.pool_misses = delta.misses;
        epoch.pool_bytes_recycled = delta.bytes_recycled;
        if let Some(tr) = self.trace.as_mut() {
            tr.record_alloc(self.global_step, delta.hits, delta.misses, delta.bytes_recycled);
            if epoch.feature_hits + epoch.feature_misses > 0 {
                tr.record_featurestore(
                    self.global_step,
                    epoch.feature_hits,
                    epoch.feature_misses,
                    epoch.feature_pages_in,
                    epoch.feature_page_in_bytes,
                );
            }
        }
    }

    /// Returns the persistent tape to its empty state (recycling its
    /// buffers when pooling, or rebuilding it fresh when not), releasing
    /// every `Arc` clone it holds of parameter values. Must run before an
    /// optimizer step: a live tape would force copy-on-write of each
    /// parameter the step touches.
    fn release_tape(&mut self) {
        if self.pooling {
            self.session.reset();
        } else {
            self.session = Session::new();
            self.session.graph.set_pool_enabled(false);
            self.session.graph.set_activation_dtype(self.precision);
        }
    }

    /// Trains one *effective batch* as a sequence of micro-batches with
    /// gradient accumulation: a single optimizer update at the end
    /// (Fig. 6's micro-batch workflow). Returns the epoch aggregate and
    /// the per-micro-batch [`StepStats`] (in `micro_batches` order,
    /// skipping empty ones) — what the multi-device scheduler folds per
    /// device. Passing a single batch is exactly full-batch training.
    ///
    /// With `prefetch`, transfers are double-buffered: while micro-batch
    /// `i` computes, micro-batch `i + 1`'s host→device transfer is staged
    /// on the device (charged under [`MemoryCategory::PrefetchStaging`]),
    /// so only the transfer time not covered by compute stays on the
    /// critical path. Losses, gradients, and RNG consumption are
    /// bit-identical either way — only the timing and the device-memory
    /// schedule differ. The hidden link time is reported in
    /// [`EpochStats::prefetch_overlap_sec`].
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if any micro-batch (including its staging
    /// buffer) exceeds device capacity; every charge, staged or not, is
    /// released before returning and the model is left unstepped.
    pub fn micro_batch_epoch(
        &mut self,
        dataset: &Dataset,
        micro_batches: &[Batch],
        prefetch: bool,
    ) -> Result<(EpochStats, Vec<StepStats>), TrainError> {
        let effective_batch: usize = micro_batches
            .iter()
            .map(|b| b.output_nodes().len())
            .sum();
        let active: Vec<&Batch> = micro_batches
            .iter()
            .filter(|b| !b.output_nodes().is_empty())
            .collect();
        let mode = LossMode::MicroBatch { effective_batch };
        let mut epoch = EpochStats::default();
        let mut steps = Vec::with_capacity(active.len());
        let pool_before = self.session.graph.pool_stats();
        self.model.for_each_param_mut(&mut |p| p.zero_grad());
        let mut staged: Option<StagedTransfer> = None;
        for (i, mb) in active.iter().enumerate() {
            let stage_next = if prefetch { active.get(i + 1).copied() } else { None };
            let (step, staged_out) = self.run_step(dataset, mb, &mode, staged.take(), stage_next)?;
            if let Some(s) = &staged_out {
                epoch.prefetch_overlap_sec += s.raw_sec - s.exposed_sec;
            }
            staged = staged_out;
            epoch.absorb(&step);
            steps.push(step);
        }
        // No gradient was computed when every micro-batch was empty;
        // stepping Adam anyway would advance its timestep and push stale
        // momentum into the parameters.
        if !steps.is_empty() {
            self.release_tape();
            self.optimizer.step(&mut self.model.params_mut());
        }
        self.finish_epoch_pool_stats(&mut epoch, pool_before);
        Ok((epoch, steps))
    }

    /// Classic mini-batch training: an optimizer update after every batch
    /// (the §3.3 baseline whose convergence differs from full batch).
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a batch exceeds device capacity.
    pub fn mini_batch_epoch(
        &mut self,
        dataset: &Dataset,
        batches: &[Batch],
    ) -> Result<EpochStats, TrainError> {
        let mut epoch = EpochStats::default();
        let pool_before = self.session.graph.pool_stats();
        for batch in batches {
            if batch.output_nodes().is_empty() {
                continue;
            }
            self.model.for_each_param_mut(&mut |p| p.zero_grad());
            let (step, _) = self.run_step(dataset, batch, &LossMode::MiniBatch, None, None)?;
            self.release_tape();
            self.optimizer.step(&mut self.model.params_mut());
            epoch.absorb(&step);
        }
        // Report the mean of per-batch mean losses.
        if epoch.num_steps > 0 {
            epoch.loss /= epoch.num_steps as f64;
        }
        self.finish_epoch_pool_stats(&mut epoch, pool_before);
        Ok(epoch)
    }

    /// Executes one batch forward/backward, charging the device.
    ///
    /// `prefetch_in` is this batch's already-staged transfer: its bytes are
    /// on the device and only the exposed fraction of its link time is
    /// still owed. `stage_next` asks the step to stage the following
    /// micro-batch's transfer while this one computes; the returned
    /// [`StagedTransfer`] (if any) stays allocated across the step
    /// boundary and must be fed to the next call as `prefetch_in`. On
    /// error every charge — including any staging buffer — is released,
    /// so the device ledger always reads zero after a failure.
    fn run_step(
        &mut self,
        dataset: &Dataset,
        batch: &Batch,
        mode: &LossMode,
        prefetch_in: Option<StagedTransfer>,
        stage_next: Option<&Batch>,
    ) -> Result<(StepStats, Option<StagedTransfer>), TrainError> {
        let step = self.global_step;
        self.global_step += 1;
        let oom = |phase: StepPhase| move |source: OomError| TrainError::StepOom { step, phase, source };
        let storage = |e: betty_data::FeatureStoreError| match e {
            betty_data::FeatureStoreError::Shard {
                shard,
                offset,
                detail,
            } => TrainError::Storage {
                step,
                shard,
                offset,
                detail,
            },
            other => TrainError::Storage {
                step,
                shard: 0,
                offset: 0,
                detail: other.to_string(),
            },
        };

        let in_dim = dataset.feature_dim();
        let param_values = self.model.total_param_count();
        let opt_values = param_values * self.optimizer.state_values_per_param();
        let sizes = StepSizes::for_batch(batch, in_dim, param_values, opt_values, self.precision)
            .with_feature_cache(dataset.features.cache_reservation_bytes());

        // This batch's staged copy is re-charged below under the regular
        // static categories, so the staging buffer is dropped first.
        if let Some(p) = &prefetch_in {
            self.device.free(p.alloc);
        }
        self.device.free_all();
        self.device.reset_peak();
        self.device.begin_step(step);
        let mut charges = StepCharges::charge_static(&mut self.device, &sizes)
            .map_err(oom(StepPhase::StaticCharge))?;
        // Only the transfer time the previous step's compute did not cover
        // is still owed when the batch was prefetched.
        let transfer_sec = match &prefetch_in {
            Some(p) => p.exposed_sec,
            None => self.transfer.transfer(sizes.transfer_bytes()),
        };
        if let Some(tr) = self.trace.as_mut() {
            // The transfer is simulated, so the span carries the modelled
            // link seconds still owed on this step's critical path.
            let at = tr.now_sec();
            tr.record_span(SpanKind::Transfer, Some(step), at, transfer_sec);
        }
        // Stage the next micro-batch's transfer while this one computes.
        // Its bytes share the device with this step's working set for the
        // whole step, so the charge lands before the forward pass —
        // matching the planner's `prefetch_staging` term in the peak
        // estimate (Eq. 5).
        let mut feature_stats = GatherStats::default();
        let mut staged_out = match stage_next {
            Some(next) => {
                let next_sizes =
                    StepSizes::for_batch(next, in_dim, param_values, opt_values, self.precision);
                let staged_bytes = next_sizes.transfer_bytes();
                let alloc = match self
                    .device
                    .alloc(staged_bytes, MemoryCategory::PrefetchStaging)
                {
                    Ok(id) => id,
                    Err(e) => {
                        charges.release(&mut self.device);
                        return Err(oom(StepPhase::Prefetch)(e));
                    }
                };
                // Page the next micro-batch's feature shards in alongside
                // the staged PCIe bytes: their NVMe seconds join `raw_sec`
                // and are hidden behind this step's compute like the rest
                // of the staged transfer, so the consuming step's gather
                // hits the warm cache.
                let next_idx: Vec<usize> =
                    next.input_nodes().iter().map(|&v| v as usize).collect();
                let warm = match dataset.features.try_prewarm(&next_idx) {
                    Ok(warm) => warm,
                    Err(e) => {
                        self.device.free(alloc);
                        charges.release(&mut self.device);
                        return Err(storage(e));
                    }
                };
                feature_stats.absorb(&warm);
                let raw_sec = self.transfer.transfer(staged_bytes)
                    + self.feature_link.transfer(warm.bytes_in as usize);
                Some(StagedTransfer {
                    alloc,
                    raw_sec,
                    exposed_sec: raw_sec,
                })
            }
            None => None,
        };

        // Reuse the persistent workspace: reset drains the previous step's
        // tape into the buffer pool, so this step's identically-shaped
        // tensors are served without touching the allocator. With pooling
        // off, a fresh session reproduces the historical allocate-per-step
        // behaviour exactly.
        self.release_tape();

        // Host-side feature gather for the micro-batch's input nodes,
        // staged in a pooled scratch buffer (fully overwritten).
        let mut input_idx = self.session.graph.take_indices();
        input_idx.extend(batch.input_nodes().iter().map(|&v| v as usize));
        let mut input_feats = self
            .session
            .graph
            .take_scratch(&[input_idx.len(), dataset.features.cols()]);
        let gather_stats = match dataset
            .features
            .try_gather_into(&input_idx, input_feats.data_mut())
        {
            Ok(stats) => stats,
            Err(e) => {
                self.session.graph.recycle_indices(input_idx);
                if let Some(s) = staged_out.take() {
                    self.device.free(s.alloc);
                }
                charges.release(&mut self.device);
                return Err(storage(e));
            }
        };
        // Shards the prefetcher did not (or could not) keep warm page in
        // on the critical path, over the NVMe-like feature link. Dense
        // stores and warm caches read zero bytes, which the link models
        // as free.
        let page_in_sec = self.feature_link.transfer(gather_stats.bytes_in as usize);
        feature_stats.absorb(&gather_stats);
        self.session.graph.recycle_indices(input_idx);
        let input_bytes = input_feats.size_bytes();
        let mut targets = self.session.graph.take_indices();
        targets.extend(
            batch
                .output_nodes()
                .iter()
                .map(|&v| dataset.labels[v as usize]),
        );

        // Forward.
        let started = Instant::now();
        let sess = &mut self.session;
        let x = sess.graph.constant(input_feats);
        let logits = self
            .model
            .forward(sess, batch.blocks(), x, true, &mut self.rng);
        let loss_var = match mode {
            LossMode::MicroBatch { effective_batch } => {
                let sum = sess.graph.cross_entropy(logits, &targets, Reduction::Sum);
                sess.graph.scale(sum, 1.0 / *effective_batch as f32)
            }
            LossMode::MiniBatch => sess.graph.cross_entropy(logits, &targets, Reduction::Mean),
        };
        sess.graph.recycle_indices(targets);
        // Injected NaN fault: poison the loss *before* backward, so the
        // gradients genuinely carry the corruption the sentinel must
        // catch (with the sentinel off, the poison reaches the optimizer
        // — the silent-corruption failure mode this run demonstrates).
        let injected_nan = self.nan_steps.remove(&step);
        let loss_var = if injected_nan {
            self.nan_events.push(FaultEvent::NanLoss { step });
            sess.graph.scale(loss_var, f32::NAN)
        } else {
            loss_var
        };
        // Forward/backward boundary, read only when tracing so the
        // untraced path does zero extra clock work.
        let forward_sec = self
            .trace
            .as_ref()
            .map(|_| started.elapsed().as_secs_f64());

        // Charge forward activations: named per-layer outputs count as
        // hidden, the rest of the tape as aggregator workspace.
        let hidden_bytes: usize = batch
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let out_dim = if i + 1 == self.model.num_layers() {
                    self.model.num_classes()
                } else {
                    self.model.hidden_dim()
                };
                b.num_dst() * out_dim * self.precision.bytes_per_value()
            })
            .sum();
        let tape_bytes = sess.activation_bytes();
        let aggregator_bytes = tape_bytes
            .saturating_sub(input_bytes)
            .saturating_sub(hidden_bytes);
        if let Err(e) = charges.charge_forward(&mut self.device, hidden_bytes, aggregator_bytes) {
            if let Some(s) = staged_out.take() {
                self.device.free(s.alloc);
            }
            charges.release(&mut self.device);
            return Err(oom(StepPhase::Forward)(e));
        }

        // Backward.
        if let Err(e) = charges.charge_backward(&mut self.device, sizes.params) {
            if let Some(s) = staged_out.take() {
                self.device.free(s.alloc);
            }
            charges.release(&mut self.device);
            return Err(oom(StepPhase::Backward)(e));
        }
        sess.backward(loss_var, self.model.as_mut());
        let compute_sec = started.elapsed().as_secs_f64();
        let loss = sess.graph.value(loss_var).item() as f64;

        // Numeric-anomaly sentinel: a NaN/Inf loss or gradient must not
        // reach the optimizer — one poisoned micro-batch would corrupt
        // the whole accumulated gradient and every later update. The
        // caller rolls back to its last good snapshot.
        if self.sentinel {
            let anomaly = if !loss.is_finite() {
                Some(AnomalyKind::NonFiniteLoss)
            } else if self
                .model
                .params()
                .iter()
                .any(|p| p.grad().data().iter().any(|g| !g.is_finite()))
            {
                Some(AnomalyKind::NonFiniteGradient)
            } else {
                None
            };
            if let Some(kind) = anomaly {
                if let Some(tr) = self.trace.as_mut() {
                    tr.record_anomaly(step, kind.to_string(), injected_nan);
                }
                if let Some(s) = staged_out.take() {
                    self.device.free(s.alloc);
                }
                charges.release(&mut self.device);
                return Err(TrainError::NumericAnomaly {
                    step,
                    kind,
                    injected: injected_nan,
                });
            }
        }

        // Whatever part of the staged transfer this step's compute covered
        // is hidden; only the remainder reaches the next step's critical
        // path.
        if let Some(s) = staged_out.as_mut() {
            s.exposed_sec = (s.raw_sec - compute_sec).max(0.0);
        }

        let peak_bytes = self.device.peak_bytes();
        if let Some(tr) = self.trace.as_mut() {
            let end = tr.now_sec();
            let fwd = forward_sec.unwrap_or(0.0);
            let start = end - compute_sec;
            tr.record_span(SpanKind::Forward, Some(step), start, fwd);
            tr.record_span(SpanKind::Backward, Some(step), start + fwd, compute_sec - fwd);
            // The at-peak snapshot survives frees, so it is still valid
            // here, right before the step's charges are released.
            let breakdown = self
                .device
                .peak_breakdown()
                .into_iter()
                .map(|(c, b)| (c.name(), b))
                .collect();
            tr.record_peak(step, peak_bytes, breakdown);
        }
        charges.release(&mut self.device);
        if self.trace.is_some() {
            let events = self.device.drain_timeline_events();
            if let Some(tr) = self.trace.as_mut() {
                tr.record_mem_events(step, events);
            }
        }
        Ok((
            StepStats {
                loss,
                compute_sec,
                transfer_sec,
                peak_bytes,
                input_nodes: batch.input_nodes().len(),
                total_src_nodes: batch.total_src_nodes(),
                feature_hits: feature_stats.hits,
                feature_misses: feature_stats.misses,
                feature_pages_in: feature_stats.pages_in,
                feature_page_in_bytes: feature_stats.bytes_in,
                page_in_sec,
                io_retries: feature_stats.io_retries,
                shards_repaired: feature_stats.shards_repaired,
                // Repair cost is modelled, never slept: backoff seconds
                // accumulated by the retry path plus the link time of the
                // parity/peer reads that fed reconstruction. Charged via
                // the *pure* `time_for` so repairs can never perturb the
                // feature link's counters or its fault-injector stream.
                repair_sec: feature_stats.backoff_sec
                    + self
                        .feature_link
                        .time_for(feature_stats.repair_bytes as usize),
            },
            staged_out,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_data::DatasetSpec;
    use betty_graph::sample_batch;
    use betty_nn::{AggregatorSpec, GraphSage};
    use betty_partition::{OutputPartitioner, RegPartitioner};

    fn dataset() -> Dataset {
        DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(12)
            .generate(1)
    }

    fn model(ds: &Dataset, seed: u64) -> Box<dyn GnnModel> {
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        Box::new(GraphSage::new(
            ds.feature_dim(),
            16,
            ds.num_classes,
            2,
            AggregatorSpec::Mean,
            0.0,
            &mut rng,
        ))
    }

    fn full_batch(ds: &Dataset, seed: u64) -> Batch {
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        sample_batch(&ds.graph, &ds.train_idx, &[5, 10], &mut rng)
    }

    #[test]
    fn full_batch_epoch_trains() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let first = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap().0;
        assert!(first.loss.is_finite());
        assert!(first.max_peak_bytes > 0);
        let mut last = first;
        for _ in 0..10 {
            last = t
                .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
                .unwrap().0;
        }
        assert!(last.loss < first.loss, "{} -> {}", first.loss, last.loss);
    }

    #[test]
    fn micro_batch_loss_sums_to_full_batch_loss() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let parts = RegPartitioner::new(0).split_outputs(&batch, 4);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();

        let mut t_full = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let full = t_full
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap().0;
        let mut t_micro = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let micro = t_micro.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        // Same initial weights (same seed) → identical effective loss.
        assert!(
            (full.loss - micro.loss).abs() < 1e-4,
            "full {} vs micro {}",
            full.loss,
            micro.loss
        );
    }

    #[test]
    fn micro_batching_reduces_peak_memory() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let parts = RegPartitioner::new(0).split_outputs(&batch, 8);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let full = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap().0;
        let micro = t.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        assert!(
            micro.max_peak_bytes < full.max_peak_bytes,
            "micro {} vs full {}",
            micro.max_peak_bytes,
            full.max_peak_bytes
        );
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::new(10_000), 3);
        match t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false) {
            Err(TrainError::StepOom {
                step,
                phase,
                source,
            }) => {
                assert_eq!(step, 0);
                assert_eq!(phase, StepPhase::StaticCharge);
                assert_eq!(source.capacity, 10_000);
                assert!(!source.injected);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        // No partial charges linger after the failure.
        assert_eq!(t.device().current_bytes(), 0);
    }

    #[test]
    fn global_step_advances_even_across_failures() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::new(10_000), 3);
        assert_eq!(t.global_step(), 0);
        assert!(t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false).is_err());
        assert_eq!(t.global_step(), 1, "a failed step still consumes its index");
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        // Dropout > 0 so the restored RNG actually matters.
        let mut rng = Pcg64Mcg::seed_from_u64(11);
        let m = Box::new(GraphSage::new(
            ds.feature_dim(),
            16,
            ds.num_classes,
            2,
            AggregatorSpec::Mean,
            0.3,
            &mut rng,
        ));
        let mut t = Trainer::new(m, 0.01, Device::unbounded(), 3);
        // Advance so the optimizer has non-trivial moments.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false).unwrap();
        let snap = t.snapshot();
        assert!(snap.num_params() > 0);
        assert!(snap.param_bytes() > 0);
        let a = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap().0;
        t.restore(&snap);
        let b = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap().0;
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "restore must rewind exactly");
    }

    #[test]
    fn injected_fault_is_marked_and_drains_events() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::new(usize::MAX / 2), 3);
        t.arm_faults(&FaultPlan {
            oom_steps: vec![0],
            ..FaultPlan::default()
        });
        let err = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap_err();
        assert!(err.is_injected());
        assert!(err.oom().is_some());
        let events = t.drain_fault_events();
        assert_eq!(events.len(), 1);
        assert!(t.drain_fault_events().is_empty());
        // The very next epoch (step 1) passes: capacity was never short.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false)
            .unwrap();
        t.disarm_faults();
    }

    fn micros_of(batch: &Batch, k: usize) -> Vec<Batch> {
        RegPartitioner::new(0)
            .split_outputs(batch, k)
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect()
    }

    #[test]
    fn prefetched_epoch_losses_bit_identical_to_plain() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        assert!(micros.len() >= 2, "need real double buffering");

        // Dropout > 0 so RNG consumption must line up step for step.
        let dropout_model = |seed: u64| -> Box<dyn GnnModel> {
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            Box::new(GraphSage::new(
                ds.feature_dim(),
                16,
                ds.num_classes,
                2,
                AggregatorSpec::Mean,
                0.3,
                &mut rng,
            ))
        };
        let mut plain = Trainer::new(dropout_model(7), 0.01, Device::unbounded(), 3);
        let mut pre = Trainer::new(dropout_model(7), 0.01, Device::unbounded(), 3);
        for epoch in 0..3 {
            let a = plain.micro_batch_epoch(&ds, &micros, false).unwrap().0;
            let b = pre.micro_batch_epoch(&ds, &micros, true).unwrap().0;
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "epoch {epoch}: prefetch must not change the math"
            );
            assert!(b.prefetch_overlap_sec >= 0.0);
            // The link moved the same bytes either way: exposed + hidden
            // transfer time matches the serial epoch's transfer time.
            assert!(
                (a.transfer_sec - (b.transfer_sec + b.prefetch_overlap_sec)).abs() < 1e-9,
                "epoch {epoch}: {} vs {} + {}",
                a.transfer_sec,
                b.transfer_sec,
                b.prefetch_overlap_sec
            );
        }
        assert_eq!(pre.device().current_bytes(), 0, "no staging buffer lingers");
    }

    #[test]
    fn prefetch_staging_raises_peak_and_is_recharged_next_step() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        assert!(micros.len() >= 2);
        let mut plain = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let (_, plain_steps) = plain.micro_batch_epoch(&ds, &micros, false).unwrap();
        let mut pre = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let (_, pre_steps) = pre
            .micro_batch_epoch(&ds, &micros, true)
            .unwrap();
        // Every step that stages its successor pays for the staged bytes.
        for i in 0..micros.len() - 1 {
            let param_values = pre.model.total_param_count();
            let opt_values = param_values * pre.optimizer.state_values_per_param();
            let staged = StepSizes::for_batch(&micros[i + 1], ds.feature_dim(), param_values, opt_values, DType::F32)
                .transfer_bytes();
            assert_eq!(
                pre_steps[i].peak_bytes,
                plain_steps[i].peak_bytes + staged,
                "step {i} peak must include its successor's staged transfer"
            );
        }
        // The last step stages nothing.
        let last = micros.len() - 1;
        assert_eq!(pre_steps[last].peak_bytes, plain_steps[last].peak_bytes);
    }

    #[test]
    fn oom_mid_prefetch_reports_prefetch_phase_and_drains_ledger() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 2);
        assert!(micros.len() >= 2);
        // Capacity that admits micro-batch 0's statics but not micro-batch
        // 1's staging buffer on top of them: a genuine capacity OOM in the
        // prefetch phase, before any forward work.
        let probe = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let param_values = probe.model.total_param_count();
        let opt_values = param_values * probe.optimizer.state_values_per_param();
        let sizes0 = StepSizes::for_batch(&micros[0], ds.feature_dim(), param_values, opt_values, DType::F32);
        let statics0 = sizes0.params
            + sizes0.optimizer_states
            + sizes0.blocks
            + sizes0.input_features
            + sizes0.labels;
        let staged1 = StepSizes::for_batch(&micros[1], ds.feature_dim(), param_values, opt_values, DType::F32)
            .transfer_bytes();
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::new(statics0 + staged1 - 1), 3);
        match t.micro_batch_epoch(&ds, &micros, true) {
            Err(TrainError::StepOom { step, phase, source }) => {
                assert_eq!(step, 0);
                assert_eq!(phase, StepPhase::Prefetch);
                assert_eq!(source.requested, staged1);
                assert!(!source.injected);
            }
            other => panic!("expected prefetch-phase OOM, got {other:?}"),
        }
        assert_eq!(
            t.device().current_bytes(),
            0,
            "an OOM mid-prefetch must drop the staged charge with the rest"
        );

        // With exactly enough room for statics + staging, the forward
        // charge fails instead — while the staging buffer is live, so the
        // error path must free it too.
        let mut t2 = Trainer::new(model(&ds, 0), 0.01, Device::new(statics0 + staged1), 3);
        match t2.micro_batch_epoch(&ds, &micros, true) {
            Err(TrainError::StepOom { phase, .. }) => assert_eq!(phase, StepPhase::Forward),
            other => panic!("expected forward-phase OOM, got {other:?}"),
        }
        assert_eq!(
            t2.device().current_bytes(),
            0,
            "a forward OOM with a live staging buffer must free it"
        );
    }

    fn param_bits(t: &Trainer) -> Vec<u32> {
        t.model()
            .params()
            .iter()
            .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn all_empty_epoch_leaves_params_bit_identical() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        // Train once so Adam holds non-zero moments — the bug applied
        // stale momentum, which only shows once moments exist.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false).unwrap();
        let before = param_bits(&t);

        // Zero micro-batches, and micro-batches whose output sets are all
        // empty, both mean no gradient: the optimizer must not step.
        let stats = t.micro_batch_epoch(&ds, &[], false).unwrap().0;
        assert_eq!(stats.num_steps, 0);
        let empty = batch.restrict(&[]);
        t.micro_batch_epoch(&ds, std::slice::from_ref(&empty), false).unwrap();
        t.micro_batch_epoch(&ds, &[], true).unwrap();
        t.micro_batch_epoch(&ds, std::slice::from_ref(&empty), true)
            .unwrap();
        assert_eq!(
            before,
            param_bits(&t),
            "an all-empty epoch must leave parameters untouched"
        );

        // A real epoch afterwards still updates them.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false).unwrap();
        assert_ne!(before, param_bits(&t));
    }

    #[test]
    fn tracing_is_bit_identical_and_records_all_phases() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        let mut plain = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let mut traced = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        traced.enable_tracing();
        assert!(traced.tracing_enabled());
        for _ in 0..2 {
            let a = plain.micro_batch_epoch(&ds, &micros, false).unwrap().0;
            let b = traced.micro_batch_epoch(&ds, &micros, false).unwrap().0;
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.num_steps, b.num_steps);
            assert_eq!(a.max_peak_bytes, b.max_peak_bytes);
            assert_eq!(a.transfer_sec.to_bits(), b.transfer_sec.to_bits());
        }
        let trace = traced.disable_tracing().expect("recorder comes back");
        assert!(!traced.tracing_enabled());
        let steps = 2 * micros.len();
        let count_kind = |k: SpanKind| trace.spans().iter().filter(|s| s.kind == k).count();
        assert_eq!(count_kind(SpanKind::Transfer), steps);
        assert_eq!(count_kind(SpanKind::Forward), steps);
        assert_eq!(count_kind(SpanKind::Backward), steps);
        assert_eq!(trace.peaks().len(), steps);
        assert!(!trace.mem_events().is_empty());
        // Each step's peak snapshot decomposes its recorded peak exactly.
        for p in trace.peaks() {
            let sum: usize = p.breakdown.iter().map(|(_, b)| b).sum();
            assert_eq!(sum, p.peak_bytes);
        }
        // Step ids are monotone within the trace.
        let ids: Vec<usize> = trace.peaks().iter().map(|p| p.step).collect();
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn mini_batch_epoch_steps_per_batch() {
        let ds = dataset();
        let mut rng = Pcg64Mcg::seed_from_u64(5);
        let chunks: Vec<Vec<_>> = ds.train_idx.chunks(20).map(|c| c.to_vec()).collect();
        let batches: Vec<Batch> = chunks
            .iter()
            .map(|c| sample_batch(&ds.graph, c, &[5, 10], &mut rng))
            .collect();
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        let stats = t.mini_batch_epoch(&ds, &batches).unwrap();
        assert_eq!(stats.num_steps, batches.len());
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn injected_nan_is_caught_rolled_back_and_replays_bit_identically() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        assert!(micros.len() >= 2);
        let mut clean = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let mut faulty = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        assert!(faulty.sentinel(), "sentinel defaults on");
        let a0 = clean.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        let b0 = faulty.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        assert_eq!(a0.loss.to_bits(), b0.loss.to_bits());

        // Poison the second micro-batch of faulty's next epoch.
        let poison_step = faulty.global_step() + 1;
        faulty.arm_faults(&FaultPlan {
            nan_loss_steps: vec![poison_step],
            ..FaultPlan::default()
        });
        let snap = faulty.snapshot();
        let err = faulty.micro_batch_epoch(&ds, &micros, false).unwrap_err();
        assert!(err.is_injected());
        assert!(err.oom().is_none());
        match &err {
            TrainError::NumericAnomaly { step, kind, injected } => {
                assert_eq!(*step, poison_step);
                assert_eq!(*kind, AnomalyKind::NonFiniteLoss);
                assert!(*injected);
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
        assert_eq!(faulty.device().current_bytes(), 0, "anomaly path drains charges");
        let events = faulty.drain_fault_events();
        assert_eq!(events, vec![FaultEvent::NanLoss { step: poison_step }]);

        // Roll back and retry. The injection already fired (step indices
        // are monotone), so the retried epoch is clean — and bit-identical
        // to the trainer that never saw a fault.
        faulty.restore(&snap);
        let a1 = clean.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        let b1 = faulty.micro_batch_epoch(&ds, &micros, false).unwrap().0;
        assert_eq!(
            a1.loss.to_bits(),
            b1.loss.to_bits(),
            "rollback + retry must be bit-identical to a never-faulted run"
        );
        assert!(b1.loss.is_finite());
    }

    #[test]
    fn sentinel_off_lets_the_poison_through() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        t.set_sentinel(false);
        assert!(!t.sentinel());
        t.arm_faults(&FaultPlan {
            nan_loss_steps: vec![0],
            ..FaultPlan::default()
        });
        // Without the sentinel the epoch "succeeds" with a NaN loss — the
        // silent corruption the sentinel exists to stop.
        let stats = t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), false).unwrap().0;
        assert!(stats.loss.is_nan());
    }

    #[test]
    fn anomaly_mid_prefetch_frees_the_staged_buffer() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        assert!(micros.len() >= 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::unbounded(), 3);
        // Poison the first step: its successor's transfer is already
        // staged when the sentinel fires, and must be freed with the rest.
        t.arm_faults(&FaultPlan {
            nan_loss_steps: vec![0],
            ..FaultPlan::default()
        });
        let err = t.micro_batch_epoch(&ds, &micros, true).unwrap_err();
        assert!(matches!(err, TrainError::NumericAnomaly { step: 0, .. }), "{err:?}");
        assert_eq!(
            t.device().current_bytes(),
            0,
            "anomaly with a live staging buffer must free it"
        );
    }

    #[test]
    fn pool_toggle_is_bit_identical() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let micros = micros_of(&batch, 4);
        let mut pooled = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let mut plain = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        plain.set_pooling(false);
        assert!(pooled.pooling());
        assert!(!plain.pooling());
        for _ in 0..3 {
            let a = pooled.micro_batch_epoch(&ds, &micros, false).unwrap().0;
            let b = plain.micro_batch_epoch(&ds, &micros, false).unwrap().0;
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.max_peak_bytes, b.max_peak_bytes);
            // Only the pooled trainer recycles buffers.
            assert_eq!(b.pool_hits, 0);
            assert_eq!(b.pool_bytes_recycled, 0);
        }
        assert_eq!(
            param_bits(&pooled),
            param_bits(&plain),
            "pooling must not change a single parameter bit"
        );
        let stats = pooled.pool_stats();
        assert!(stats.hits > 0, "steady state must reuse buffers: {stats:?}");
        assert!(stats.bytes_recycled > 0);
    }
}
