//! Micro-batch and mini-batch training execution (paper §4.2).

use std::fmt;
use std::time::Instant;

use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_data::Dataset;
use betty_device::{Device, FaultEvent, FaultPlan, MemoryEstimate, OomError, TransferModel};
use betty_graph::Batch;
use betty_nn::{Adam, GnnModel, Optimizer, Param, Session};
use betty_tensor::{DType, PoolStats, Reduction};
use betty_trace::{EpochStats, SpanKind, StepStats, TraceRecorder};

use crate::accounting::{StepCharges, StepSizes};

/// A trainer's running totals ([`Trainer::totals`]): feature hits, misses,
/// pages in and bytes paged in, and the tape's pool counters.
pub(crate) type Totals = ([u64; 4], PoolStats);

/// Which part of a training step was executing when a failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// Charging static tensors (parameters, optimizer state, blocks,
    /// input features, labels).
    StaticCharge,
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
/// should match with a wildcard arm.
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
/// parameter values (and gradients), optimizer moments, the dropout RNG
/// and how many step records the trace holds. Restoring one onto the
/// trainer it was taken from rewinds training exactly — a retried epoch
/// is bit-identical to one that never failed, and its trace keeps no
/// step of the attempt that was thrown away.
#[derive(Debug, Clone)]
pub(crate) struct TrainerSnapshot {
    params: Vec<Param>,
    optimizer: Adam,
    rng: Pcg64Mcg,
    trace_steps: usize,
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
    pub(crate) device: Device,
    transfer: TransferModel,
    /// Simulated NVMe-like link feature shards page in over. Separate
    /// from `transfer` so paged feature stores never perturb the PCIe
    /// link's counters or its fault-injector stream — dense and paged
    /// runs draw identical stall sequences on `transfer`.
    feature_link: TransferModel,
    rng: Pcg64Mcg,
    global_step: usize,
    trace: Option<TraceRecorder>,
    /// Persistent autograd workspace: each step resets the tape in place
    /// and rebuilds it from recycled buffers instead of reallocating the
    /// whole forward/backward state.
    session: Session,
    /// Feature hits, misses, pages in and bytes paged in of every gather
    /// since the trainer was built, rolled-back attempts' included.
    gathered: [u64; 4],
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
    pub(crate) fn new(model: Box<dyn GnnModel>, learning_rate: f32, device: Device, seed: u64) -> Self {
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
            gathered: [0; 4],
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
    pub(crate) fn set_precision(&mut self, dtype: DType) {
        self.precision = dtype;
        self.session.graph.set_activation_dtype(dtype);
    }

    /// Starts trace recording: step spans, the device-memory timeline on
    /// the recorder's clock, and one record per completed step are
    /// captured from here on. Tracing never changes the math — losses,
    /// gradients, and RNG consumption are bit-identical with tracing on or
    /// off (only extra bookkeeping runs, and none at all while disabled).
    pub(crate) fn enable_tracing(&mut self) {
        let mut recorder = TraceRecorder::new();
        self.device.enable_timeline(recorder.timeline());
        recorder.set_run_context(
            betty_tensor::Backend::current().name(),
            self.precision.name(),
        );
        self.trace = Some(recorder);
    }

    /// Stops trace recording, returning the recorder (with everything it
    /// captured) if tracing was enabled.
    pub(crate) fn disable_tracing(&mut self) -> Option<TraceRecorder> {
        self.device.disable_timeline();
        self.trace.take()
    }

    /// Mutable access to the active trace recorder, for callers that add
    /// spans (sampling, partitioning, planning, allreduce) and epochs.
    pub(crate) fn trace_mut(&mut self) -> Option<&mut TraceRecorder> {
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

    /// The transfer model, for bandwidth/latency inspection.
    pub fn transfer(&self) -> &TransferModel {
        &self.transfer
    }

    /// The feature page-in link model (NVMe-like), for inspection.
    pub(crate) fn feature_link(&self) -> &TransferModel {
        &self.feature_link
    }

    /// Global step index the next [`Trainer::micro_batch_epoch`] step
    /// will use. Monotone across epochs and recovery retries — a failed
    /// step consumes its index, so a [`FaultPlan::oom_steps`] entry
    /// fires once per run, not once per retry.
    pub(crate) fn global_step(&self) -> usize {
        self.global_step
    }

    /// Overwrites the global step counter — used when resuming a durable
    /// checkpoint, so step-scheduled faults and trace step ids continue
    /// from where the killed run left off.
    pub(crate) fn set_global_step(&mut self, step: usize) {
        self.global_step = step;
    }

    /// Raw dropout-RNG state, for durable checkpoints.
    pub(crate) fn rng_state(&self) -> u128 {
        self.rng.state()
    }

    /// Restores the dropout RNG to a state captured by
    /// [`Trainer::rng_state`].
    pub(crate) fn set_rng_state(&mut self, state: u128) {
        self.rng = Pcg64Mcg::new(state);
    }

    /// Positional snapshot of the optimizer's moments and step counter,
    /// for durable checkpoints (see [`betty_nn::AdamState`]).
    pub(crate) fn export_optimizer_state(&self) -> betty_nn::AdamState {
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
    pub(crate) fn import_optimizer_state(&mut self, state: &betty_nn::AdamState) -> Result<(), String> {
        self.optimizer.import_state(&self.model.params(), state)
    }

    /// Captures an in-memory checkpoint of parameters, optimizer
    /// moments, and the dropout RNG (see [`TrainerSnapshot`]).
    pub(crate) fn snapshot(&self) -> TrainerSnapshot {
        TrainerSnapshot {
            params: self.model.params().into_iter().cloned().collect(),
            optimizer: self.optimizer.clone(),
            rng: self.rng.clone(),
            trace_steps: self.trace.as_ref().map_or(0, |tr| tr.steps().len()),
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
    pub(crate) fn restore(&mut self, snapshot: &TrainerSnapshot) {
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
        if let Some(tr) = self.trace.as_mut() {
            tr.truncate_steps(snapshot.trace_steps);
        }
    }

    /// Arms deterministic fault injection on the device (allocation
    /// faults), the transfer link (stalls), and the trainer itself
    /// (NaN-loss poisoning). Replaces the plan armed so far; a new
    /// trainer holds the empty plan.
    pub(crate) fn arm_faults(&mut self, plan: &FaultPlan) {
        self.device.arm_faults(plan.alloc_injector());
        self.transfer.arm_faults(plan.transfer_injector());
        self.nan_steps = plan.nan_loss_steps.iter().copied().collect();
    }

    /// Drains injected-fault events from the device, the transfer link,
    /// and the trainer's NaN-loss poisoner (allocation events first).
    /// [`Runner`](crate::Runner) calls this once per attempt and forwards
    /// what it returns into the recovery log and the trace stream.
    pub(crate) fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        let mut events = self.device.drain_fault_events();
        events.extend(self.transfer.drain_fault_events());
        events.append(&mut self.nan_events);
        events
    }

    /// Releases every outstanding device charge — post-failure cleanup
    /// before a recovery retry. The peak watermark is preserved so the
    /// aborted step stays visible in memory reports.
    pub(crate) fn release_device(&mut self) {
        self.device.free_all();
    }

    /// The monotone running totals an epoch's feature and pool counters
    /// are deltas of: a rollback never resets them.
    pub(crate) fn totals(&self) -> Totals {
        (self.gathered, self.session.graph.pool_stats())
    }

    /// Sets `epoch`'s feature and pool counters to the work done since
    /// `since` was read, every attempt included.
    pub(crate) fn count_since(&self, epoch: &mut EpochStats, since: Totals) {
        let f = |i: usize| self.gathered[i] - since.0[i];
        let pool = self.session.graph.pool_stats().delta_since(&since.1);
        (epoch.feature_hits, epoch.feature_misses) = (f(0), f(1));
        (epoch.feature_pages_in, epoch.feature_page_in_bytes) = (f(2), f(3));
        (epoch.pool_hits, epoch.pool_misses) = (pool.hits, pool.misses);
        epoch.pool_bytes_recycled = pool.bytes_recycled;
    }

    /// Returns the persistent tape to its empty state, recycling its
    /// buffers and releasing every `Arc` clone it holds of parameter
    /// values. Must run before an optimizer step: a live tape would force
    /// copy-on-write of each parameter the step touches.
    fn release_tape(&mut self) {
        self.session.reset();
    }

    /// Trains one *effective batch* as a sequence of micro-batches with
    /// gradient accumulation: a single optimizer update at the end
    /// (Fig. 6's micro-batch workflow). `estimates` is the plan's Eq. 5
    /// estimate of each micro-batch, or empty when nothing priced them;
    /// each step carries its own. Returns the epoch aggregate and
    /// the per-micro-batch [`StepStats`] (in `micro_batches` order,
    /// skipping empty ones) — what the multi-device scheduler folds per
    /// device. Passing a single batch is exactly full-batch training.
    ///
    /// Each step holds only its own micro-batch on the device — one
    /// synchronous transfer, then its own gather — so its measured peak
    /// is exactly its Eq. 5 estimate.
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if any micro-batch exceeds device capacity;
    /// every charge is released before returning and the model is left
    /// unstepped.
    pub(crate) fn micro_batch_epoch(
        &mut self,
        dataset: &Dataset,
        micro_batches: &[Batch],
        estimates: &[MemoryEstimate],
    ) -> Result<(EpochStats, Vec<StepStats>), TrainError> {
        debug_assert!(estimates.is_empty() || estimates.len() == micro_batches.len());
        let effective_batch: usize = micro_batches
            .iter()
            .map(|b| b.output_nodes().len())
            .sum();
        let priced = estimates.iter().map(MemoryEstimate::peak_bytes);
        let active: Vec<(&Batch, usize)> = micro_batches
            .iter()
            .zip(priced.chain(std::iter::repeat(0)))
            .filter(|(b, _)| !b.output_nodes().is_empty())
            .collect();
        let mode = LossMode::MicroBatch { effective_batch };
        let mut epoch = EpochStats::default();
        let mut steps = Vec::with_capacity(active.len());
        let since = self.totals();
        self.model.for_each_param_mut(&mut |p| p.zero_grad());
        for (mb, estimated_bytes) in active {
            let step = self.run_step(dataset, mb, estimated_bytes, &mode)?;
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
        self.count_since(&mut epoch, since);
        Ok((epoch, steps))
    }

    /// Classic mini-batch training: an optimizer update after every batch
    /// (the §3.3 baseline whose convergence differs from full batch).
    ///
    /// # Errors
    ///
    /// [`TrainError::StepOom`] if a batch exceeds device capacity.
    pub(crate) fn mini_batch_epoch(
        &mut self,
        dataset: &Dataset,
        batches: &[Batch],
    ) -> Result<EpochStats, TrainError> {
        let mut epoch = EpochStats::default();
        let since = self.totals();
        for batch in batches {
            if batch.output_nodes().is_empty() {
                continue;
            }
            self.model.for_each_param_mut(&mut |p| p.zero_grad());
            let step = self.run_step(dataset, batch, 0, &LossMode::MiniBatch)?;
            self.release_tape();
            self.optimizer.step(&mut self.model.params_mut());
            epoch.absorb(&step);
        }
        // Report the mean of per-batch mean losses.
        if epoch.num_steps > 0 {
            epoch.loss /= epoch.num_steps as f64;
        }
        self.count_since(&mut epoch, since);
        Ok(epoch)
    }

    /// Executes one batch forward/backward, charging the device, and —
    /// when tracing — records the completed step with its memory events
    /// and at-peak breakdown.
    ///
    /// Every charge goes through one [`StepCharges`], released on one
    /// path whether the step succeeds or fails, so the device ledger
    /// always reads zero between steps.
    fn run_step(
        &mut self,
        dataset: &Dataset,
        batch: &Batch,
        estimated_bytes: usize,
        mode: &LossMode,
    ) -> Result<StepStats, TrainError> {
        let mut charges = StepCharges::default();
        let result = self.charged_step(dataset, batch, estimated_bytes, mode, &mut charges);
        charges.release(&mut self.device);
        if let (Ok(stats), Some(tr)) = (&result, self.trace.as_mut()) {
            tr.record_mem_events(stats.step, self.device.drain_timeline_events());
            // The at-peak snapshot survives the release above.
            let breakdown = self.device.peak_breakdown();
            tr.record_step(*stats, breakdown.into_iter().map(|(c, b)| (c.name(), b)).collect());
        }
        result
    }

    /// The body of [`Trainer::run_step`]: every device charge lands in
    /// `charges`, and every exit, `?` included, leaves the release to the
    /// caller.
    fn charged_step(
        &mut self,
        dataset: &Dataset,
        batch: &Batch,
        estimated_bytes: usize,
        mode: &LossMode,
        charges: &mut StepCharges,
    ) -> Result<StepStats, TrainError> {
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

        self.device.free_all();
        self.device.reset_peak();
        self.device.begin_step(step);
        *charges = StepCharges::charge_static(&mut self.device, &sizes)
            .map_err(oom(StepPhase::StaticCharge))?;
        let transfer_sec = self.transfer.transfer(sizes.transfer_bytes());
        if let Some(tr) = self.trace.as_mut() {
            // The transfer is simulated, so the span carries its modelled
            // link seconds.
            let at = tr.now_sec();
            tr.record_span(SpanKind::Transfer, Some(step), at, transfer_sec);
        }

        // Reuse the persistent workspace: reset drains the previous step's
        // tape into the buffer pool, so this step's identically-shaped
        // tensors are served without touching the allocator.
        self.release_tape();

        // Host-side feature gather for the micro-batch's input nodes,
        // staged in a pooled scratch buffer (fully overwritten).
        let mut input_idx = self.session.graph.take_indices();
        input_idx.extend(batch.input_nodes().iter().map(|&v| v as usize));
        let mut input_feats = self
            .session
            .graph
            .take_scratch(&[input_idx.len(), dataset.features.cols()]);
        let gathered = dataset
            .features
            .try_gather_into(&input_idx, input_feats.data_mut());
        self.session.graph.recycle_indices(input_idx);
        let feature_stats = gathered.map_err(storage)?;
        let f = &feature_stats;
        for (total, n) in self.gathered.iter_mut().zip([f.hits, f.misses, f.pages_in, f.bytes_in]) {
            *total += n;
        }
        // Shards the cache does not hold page in over the NVMe-like
        // feature link. Dense stores and warm caches read zero bytes,
        // which the link models as free.
        let page_in_sec = self.feature_link.transfer(feature_stats.bytes_in as usize);
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
        // catch.
        let injected_nan = self.nan_steps.remove(&step);
        let loss_var = if injected_nan {
            self.nan_events.push(FaultEvent::NanLoss { step });
            sess.graph.scale(loss_var, f32::NAN)
        } else {
            loss_var
        };
        // Forward/backward boundary, read only when tracing so the
        // untraced path does zero extra clock work.
        let forward_done = self.trace.as_ref().map(|_| Instant::now());

        // Charge forward activations: named per-layer outputs count as
        // hidden, the rest of the tape but the parameter leaves (which
        // alias the resident parameters) as aggregator workspace.
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
        let aggregator_bytes = tape_bytes.saturating_sub(input_bytes + hidden_bytes + sizes.params);
        charges
            .charge_forward(&mut self.device, hidden_bytes, aggregator_bytes)
            .map_err(oom(StepPhase::Forward))?;

        // Backward.
        charges
            .charge_backward(&mut self.device, sizes.params)
            .map_err(oom(StepPhase::Backward))?;
        sess.backward(loss_var, self.model.as_mut());
        let compute_sec = started.elapsed().as_secs_f64();
        let loss = sess.graph.value(loss_var).item() as f64;

        // Numeric-anomaly sentinel: a NaN/Inf loss or gradient must not
        // reach the optimizer — one poisoned micro-batch would corrupt
        // the whole accumulated gradient and every later update. The
        // caller rolls back to its last good snapshot.
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
            return Err(TrainError::NumericAnomaly {
                step,
                kind,
                injected: injected_nan,
            });
        }

        if let (Some(tr), Some(forward_done)) = (self.trace.as_mut(), forward_done) {
            let fwd = forward_done.duration_since(started).as_secs_f64();
            tr.record_span(SpanKind::Forward, Some(step), tr.sec_at(started), fwd);
            let backward_start = tr.sec_at(forward_done);
            tr.record_span(SpanKind::Backward, Some(step), backward_start, compute_sec - fwd);
        }
        Ok(StepStats {
            step,
            loss,
            compute_sec,
            transfer_sec,
            peak_bytes: self.device.peak_bytes(),
            estimated_bytes,
            input_nodes: batch.input_nodes().len(),
            total_src_nodes: batch.total_src_nodes(),
            feature_hits: feature_stats.hits,
            feature_misses: feature_stats.misses,
            feature_pages_in: feature_stats.pages_in,
            feature_page_in_bytes: feature_stats.bytes_in,
            page_in_sec,
            // Repair cost is modelled, never slept: backoff seconds
            // accumulated by the retry path plus the link time of the
            // parity/peer reads that fed reconstruction. Charged via the
            // *pure* `time_for` so repairs can never perturb the feature
            // link's counters or its fault-injector stream.
            repair_sec: feature_stats.backoff_sec
                + self
                    .feature_link
                    .time_for(feature_stats.repair_bytes as usize),
        })
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
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap().0;
        assert!(first.loss.is_finite());
        assert!(first.max_peak_bytes > 0);
        let mut last = first;
        for _ in 0..10 {
            last = t
                .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
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
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap().0;
        let mut t_micro = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let micro = t_micro.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
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
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap().0;
        let micro = t.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
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
        match t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[]) {
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
        assert_eq!(t.device.current_bytes(), 0);
    }

    #[test]
    fn global_step_advances_even_across_failures() {
        let ds = dataset();
        let batch = full_batch(&ds, 2);
        let mut t = Trainer::new(model(&ds, 0), 0.01, Device::new(10_000), 3);
        assert_eq!(t.global_step(), 0);
        assert!(t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[]).is_err());
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
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[]).unwrap();
        let snap = t.snapshot();
        assert!(!snap.params.is_empty());
        let a = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap().0;
        t.restore(&snap);
        let b = t
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
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
            .micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap_err();
        assert!(matches!(&err, TrainError::StepOom { source, .. } if source.injected));
        let events = t.drain_fault_events();
        assert_eq!(events.len(), 1);
        assert!(t.drain_fault_events().is_empty());
        // The very next epoch (step 1) passes: capacity was never short.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[])
            .unwrap();
    }

    fn micros_of(batch: &Batch, k: usize) -> Vec<Batch> {
        RegPartitioner::new(0)
            .split_outputs(batch, k)
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect()
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
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[]).unwrap();
        let before = param_bits(&t);

        // Zero micro-batches, and micro-batches whose output sets are all
        // empty, both mean no gradient: the optimizer must not step.
        let stats = t.micro_batch_epoch(&ds, &[], &[]).unwrap().0;
        assert_eq!(stats.num_steps, 0);
        let empty = batch.restrict(&[]);
        t.micro_batch_epoch(&ds, std::slice::from_ref(&empty), &[]).unwrap();
        assert_eq!(
            before,
            param_bits(&t),
            "an all-empty epoch must leave parameters untouched"
        );

        // A real epoch afterwards still updates them.
        t.micro_batch_epoch(&ds, std::slice::from_ref(&batch), &[]).unwrap();
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
        assert!(traced.trace_mut().is_some());
        for _ in 0..2 {
            let a = plain.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
            let b = traced.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.num_steps, b.num_steps);
            assert_eq!(a.max_peak_bytes, b.max_peak_bytes);
            assert_eq!(a.transfer_sec.to_bits(), b.transfer_sec.to_bits());
        }
        let trace = traced.disable_tracing().expect("recorder comes back");
        assert!(traced.trace_mut().is_none());
        let steps = 2 * micros.len();
        let count_kind = |k: SpanKind| trace.spans().iter().filter(|s| s.kind == k).count();
        assert_eq!(count_kind(SpanKind::Transfer), steps);
        assert_eq!(count_kind(SpanKind::Forward), steps);
        assert_eq!(count_kind(SpanKind::Backward), steps);
        assert_eq!(trace.steps().len(), steps);
        assert!(!trace.mem_events().is_empty());
        // Each step's peak snapshot decomposes its recorded peak exactly.
        for r in trace.steps() {
            let sum: usize = r.breakdown.iter().map(|(_, b)| b).sum();
            assert_eq!(sum, r.stats.peak_bytes);
        }
        // Step ids are monotone within the trace.
        let ids: Vec<usize> = trace.steps().iter().map(|r| r.stats.step).collect();
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
        let a0 = clean.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
        let b0 = faulty.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
        assert_eq!(a0.loss.to_bits(), b0.loss.to_bits());

        // Poison the second micro-batch of faulty's next epoch.
        let poison_step = faulty.global_step() + 1;
        faulty.arm_faults(&FaultPlan {
            nan_loss_steps: vec![poison_step],
            ..FaultPlan::default()
        });
        let snap = faulty.snapshot();
        let err = faulty.micro_batch_epoch(&ds, &micros, &[]).unwrap_err();
        assert!(matches!(err, TrainError::NumericAnomaly { injected: true, .. }));
        match &err {
            TrainError::NumericAnomaly { step, kind, injected } => {
                assert_eq!(*step, poison_step);
                assert_eq!(*kind, AnomalyKind::NonFiniteLoss);
                assert!(*injected);
            }
            other => panic!("expected anomaly, got {other:?}"),
        }
        assert_eq!(faulty.device.current_bytes(), 0, "anomaly path drains charges");
        let events = faulty.drain_fault_events();
        assert_eq!(events, vec![FaultEvent::NanLoss { step: poison_step }]);

        // Roll back and retry. The injection already fired (step indices
        // are monotone), so the retried epoch is clean — and bit-identical
        // to the trainer that never saw a fault.
        faulty.restore(&snap);
        let a1 = clean.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
        let b1 = faulty.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
        assert_eq!(
            a1.loss.to_bits(),
            b1.loss.to_bits(),
            "rollback + retry must be bit-identical to a never-faulted run"
        );
        assert!(b1.loss.is_finite());
    }

    /// One epoch warms the pool: every later epoch of the same
    /// micro-batches is served at least 80 % from recycled buffers.
    #[test]
    fn a_warm_pool_serves_the_steady_state() {
        let ds = dataset();
        let micros = micros_of(&full_batch(&ds, 2), 4);
        let mut t = Trainer::new(model(&ds, 7), 0.01, Device::unbounded(), 3);
        let cold = t.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
        assert!(cold.pool_misses > 0, "a cold pool misses");
        for _ in 0..3 {
            let warm = t.micro_batch_epoch(&ds, &micros, &[]).unwrap().0;
            let rate = warm.pool_hits as f64 / (warm.pool_hits + warm.pool_misses) as f64;
            assert!(rate >= 0.8, "steady-state hit rate {rate:.3}");
            assert!(warm.pool_bytes_recycled > 0);
        }
    }
}
