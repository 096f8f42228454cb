//! High-level training loop with validation-based early stopping.

use betty_data::Dataset;
use betty_nn::{LrSchedule, TrainState};

use crate::durable::{
    CheckpointPlan, CTR_BEST_EPOCH, CTR_NEXT_EPOCH, CTR_SINCE_BEST, FLT_BEST_VAL,
};
use crate::multi::DeviceGroup;
use crate::runner::{RunError, Runner};
use crate::stats::EpochStats;
use crate::strategy::StrategyKind;

/// Configuration of [`fit`].
pub struct FitConfig<'a> {
    /// Partitioning strategy for every epoch.
    pub strategy: StrategyKind,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Stop after this many epochs without validation improvement
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
    /// Optional learning-rate schedule applied per epoch.
    pub schedule: Option<&'a dyn LrSchedule>,
    /// Base learning rate the schedule scales (ignored without a
    /// schedule).
    pub base_lr: f32,
    /// Optional durable checkpointing: a full session state is written
    /// atomically after every `every`-th epoch (and the last), so a
    /// killed run can resume bit-identically.
    pub checkpoint: Option<CheckpointPlan>,
    /// Optional session state to resume from (see
    /// [`crate::durable::load_checkpoint_state`]). Training continues at
    /// the checkpoint's next epoch with its loss history, early-stopping
    /// state, RNG streams, and step counters restored.
    pub resume: Option<TrainState>,
}

impl Default for FitConfig<'_> {
    fn default() -> Self {
        Self {
            strategy: StrategyKind::Betty,
            max_epochs: 100,
            patience: Some(10),
            schedule: None,
            base_lr: 3e-3,
            checkpoint: None,
            resume: None,
        }
    }
}

impl std::fmt::Debug for FitConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitConfig")
            .field("strategy", &self.strategy)
            .field("max_epochs", &self.max_epochs)
            .field("patience", &self.patience)
            .field("has_schedule", &self.schedule.is_some())
            .field("checkpoint", &self.checkpoint)
            .field("resuming", &self.resume.is_some())
            .finish()
    }
}

/// Result of a [`fit`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Epochs actually trained *by this call* (a resumed run counts only
    /// the epochs after the checkpoint).
    pub epochs_run: usize,
    /// Best validation accuracy observed.
    pub best_val_accuracy: f64,
    /// Epoch index of the best validation accuracy.
    pub best_epoch: usize,
    /// Whether early stopping triggered before `max_epochs`.
    pub early_stopped: bool,
    /// Per-epoch training stats (this call's epochs only).
    pub history: Vec<EpochStats>,
    /// Per-epoch training losses across the *whole* session, including
    /// epochs trained before a resume — the series durable checkpoints
    /// carry, so an interrupted-and-resumed run can be compared
    /// loss-for-loss against an uninterrupted one.
    pub loss_history: Vec<f64>,
}

/// Trains with memory-aware Betty partitioning until `max_epochs` or
/// validation patience runs out; evaluates on `dataset.val_idx` each epoch.
///
/// Each epoch is an auto-K [`Runner::train_epoch_elastic`] on a group of
/// one, so it runs with checkpointed OOM recovery: mid-step OOMs —
/// genuine or injected by the config's fault plan — roll the model,
/// optimizer and RNG back to the epoch-start snapshot and retry with an
/// escalated plan, up to the config's retry budget. The plan's device
/// faults apply to that group of one: a straggler factor only stretches
/// its simulated time, and a failure of device 0 ends the run with
/// [`RunError::DevicesExhausted`]. Everything that happened — up to the
/// fatal error, when there is one — is in the runner's
/// [`recovery log`](Runner::recovery_log).
///
/// Note: early stopping monitors accuracy only — the *returned* model is
/// the final one (checkpoint the best epoch externally via
/// [`betty_nn::save_checkpoint`] if needed).
///
/// Note on [`ExperimentConfig::plan_ahead`](crate::ExperimentConfig):
/// `fit` evaluates on the validation split after *every* epoch, and
/// evaluation sampling resets the partition-ahead pipeline (it draws
/// from the same RNG stream the staged batches were sampled ahead of).
/// Under `fit`, each epoch's pipeline therefore restarts empty and the
/// overlap is effectively zero — results remain bit-identical, but the
/// speedup only materializes with sparser evaluation cadences (the CLI
/// evaluates every 5th epoch).
///
/// # Errors
///
/// Propagates planning/training failures ([`RunError`]), including
/// [`RunError::RetryExhausted`] when recovery ran out of retries.
///
/// # Panics
///
/// Panics if the config's fault plan names a device other than 0
/// ([`betty_device::FaultPlan::validate_for_devices`]).
pub fn fit(runner: &mut Runner, dataset: &Dataset, config: &FitConfig<'_>) -> Result<FitReport, RunError> {
    if let Some(plan) = &config.checkpoint {
        plan.validate().map_err(RunError::Checkpoint)?;
    }
    let mut best_val = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;
    let mut since_best = 0usize;
    let mut start_epoch = 0usize;
    let mut loss_history: Vec<f64> = Vec::new();
    if let Some(state) = &config.resume {
        runner.import_session(state)?;
        let ctr = |i: usize| state.counters.get(i).copied().unwrap_or(0) as usize;
        start_epoch = ctr(CTR_NEXT_EPOCH);
        best_epoch = ctr(CTR_BEST_EPOCH);
        since_best = ctr(CTR_SINCE_BEST);
        best_val = state
            .floats
            .get(FLT_BEST_VAL)
            .copied()
            .unwrap_or(f64::NEG_INFINITY);
        loss_history = state.history.clone();
    }
    let mut history = Vec::new();
    let mut early_stopped = false;
    let group = DeviceGroup::new(1);
    for epoch in start_epoch..config.max_epochs {
        if let Some(schedule) = config.schedule {
            runner.set_learning_rate(schedule.lr_at(config.base_lr, epoch));
        }
        let stats = runner
            .train_epoch_elastic(dataset, config.strategy, 1, &group)?
            .combined;
        loss_history.push(stats.loss);
        history.push(stats);
        let val = runner.evaluate(dataset, &dataset.val_idx);
        if val > best_val {
            best_val = val;
            best_epoch = epoch;
            since_best = 0;
        } else {
            since_best += 1;
            if let Some(patience) = config.patience {
                if since_best >= patience {
                    early_stopped = true;
                }
            }
        }
        // Saved *after* evaluation, so the captured sampling-RNG state
        // includes the evaluation's consumption and a resumed run
        // replays the exact same stream an uninterrupted run sees.
        if let Some(plan) = &config.checkpoint {
            if plan.due_after(epoch, config.max_epochs) || early_stopped {
                let mut state = runner.export_session();
                state.counters.push((epoch + 1) as u64); // CTR_NEXT_EPOCH
                state.counters.push(best_epoch as u64); // CTR_BEST_EPOCH
                state.counters.push(since_best as u64); // CTR_SINCE_BEST
                state.floats = vec![best_val]; // FLT_BEST_VAL
                state.history = loss_history.clone();
                plan.save(&state, epoch)?;
            }
        }
        if early_stopped {
            break;
        }
    }
    Ok(FitReport {
        epochs_run: history.len(),
        best_val_accuracy: best_val,
        best_epoch,
        early_stopped,
        history,
        loss_history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use betty_data::DatasetSpec;
    use betty_device::gib;
    use betty_nn::{AggregatorSpec, StepDecay};

    fn dataset() -> Dataset {
        DatasetSpec::cora()
            .scaled(0.08)
            .with_feature_dim(12)
            .generate(3)
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig {
            fanouts: vec![4, 6],
            hidden_dim: 12,
            aggregator: AggregatorSpec::Mean,
            dropout: 0.0,
            learning_rate: 1e-2,
            capacity_bytes: gib(4),
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn fit_trains_and_reports() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let report = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 8,
                patience: None,
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.epochs_run, 8);
        assert!(!report.early_stopped);
        assert!(report.best_val_accuracy > 0.0);
        assert!(report.history.last().unwrap().loss < report.history[0].loss);
    }

    #[test]
    fn early_stopping_triggers_with_zero_patience() {
        // Patience 0: stop at the first epoch that fails to improve.
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let report = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 50,
                patience: Some(0),
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert!(report.epochs_run < 50, "must stop early");
        assert!(report.early_stopped);
        assert!(report.best_epoch < report.epochs_run);
    }

    fn param_bits(runner: &Runner) -> Vec<u32> {
        runner
            .trainer()
            .model()
            .params()
            .iter()
            .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn interrupted_and_resumed_fit_is_bit_identical() {
        use crate::durable::{latest_checkpoint, load_checkpoint_state, CheckpointPlan};
        let ds = dataset();
        // Dropout > 0 so the restored trainer RNG stream actually matters.
        let cfg = ExperimentConfig {
            dropout: 0.2,
            ..config()
        };
        let dir = std::env::temp_dir().join(format!("betty-fit-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted baseline: 6 epochs straight through.
        let mut base = Runner::new(&ds, &cfg, 0);
        let baseline = fit(
            &mut base,
            &ds,
            &FitConfig {
                max_epochs: 6,
                patience: None,
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert_eq!(baseline.loss_history.len(), 6);

        // "Killed" run: 3 epochs with per-epoch checkpoints, then gone.
        let mut first = Runner::new(&ds, &cfg, 0);
        fit(
            &mut first,
            &ds,
            &FitConfig {
                max_epochs: 3,
                patience: None,
                checkpoint: Some(CheckpointPlan::new(&dir, 1)),
                ..FitConfig::default()
            },
        )
        .unwrap();

        // Resume in a *fresh* runner — deliberately built with a different
        // seed, as a new process would be free to do: every piece of state
        // that matters must come from the checkpoint, not the constructor.
        let (epoch, path) = latest_checkpoint(&dir).unwrap().expect("checkpoints written");
        assert_eq!(epoch, 2);
        let state = load_checkpoint_state(&path).unwrap();
        let mut resumed = Runner::new(&ds, &cfg, 999);
        let report = fit(
            &mut resumed,
            &ds,
            &FitConfig {
                max_epochs: 6,
                patience: None,
                resume: Some(state),
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.epochs_run, 3, "resume trains only the remaining epochs");
        assert_eq!(report.loss_history.len(), 6);
        for (i, (a, b)) in baseline
            .loss_history
            .iter()
            .zip(&report.loss_history)
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "epoch {i}: resumed loss {b} != uninterrupted loss {a}"
            );
        }
        assert_eq!(
            param_bits(&base),
            param_bits(&resumed),
            "final parameters must be bit-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_different_experiment() {
        let ds = dataset();
        let donor = Runner::new(&ds, &config(), 0);
        let state = donor.export_session();
        let other = ExperimentConfig {
            hidden_dim: 24,
            ..config()
        };
        let mut runner = Runner::new(&ds, &other, 0);
        let err = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 2,
                resume: Some(state),
                ..FitConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_another_precision() {
        // A bf16 run trains a different function than an f32 run (values
        // round through the 16-bit grid), so resuming across precisions
        // must fail the fingerprint check up front.
        use betty_tensor::DType;
        let ds = dataset();
        let donor = Runner::new(&ds, &config(), 0);
        let f32_state = donor.export_session();
        let bf16_cfg = ExperimentConfig {
            precision: DType::Bf16,
            ..config()
        };
        let mut runner = Runner::new(&ds, &bf16_cfg, 0);
        let err = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 2,
                resume: Some(f32_state),
                ..FitConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn injected_nan_rolls_back_and_the_run_completes_finite() {
        use betty_device::FaultPlan;
        let ds = dataset();
        let clean_cfg = config();
        let mut clean = Runner::new(&ds, &clean_cfg, 0);
        let clean_report = fit(
            &mut clean,
            &ds,
            &FitConfig {
                max_epochs: 4,
                patience: None,
                ..FitConfig::default()
            },
        )
        .unwrap();

        let faulty_cfg = ExperimentConfig {
            fault_plan: FaultPlan {
                // Auto planning picks K=1 here, so step == epoch: poison
                // epoch 2's only micro-batch.
                nan_loss_steps: vec![2],
                ..FaultPlan::default()
            },
            ..config()
        };
        let mut faulty = Runner::new(&ds, &faulty_cfg, 0);
        let report = fit(
            &mut faulty,
            &ds,
            &FitConfig {
                max_epochs: 4,
                patience: None,
                ..FitConfig::default()
            },
        )
        .unwrap();
        let log = faulty.recovery_log();
        assert_eq!(log.anomaly_rollbacks(), 1);
        assert_eq!(log.injected_faults(), 1);
        assert!(!log.anomaly_aborted());
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
        assert_eq!(log.of_epoch(2).anomaly_rollbacks(), 1);
        // The injection fired once and was rolled back; every loss matches
        // the never-faulted run bit for bit.
        for (a, b) in clean_report.loss_history.iter().zip(&report.loss_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(param_bits(&clean), param_bits(&faulty));
    }

    #[test]
    fn exhausted_anomaly_budget_aborts_the_run() {
        use crate::recovery::RetryPolicy;
        use betty_device::FaultPlan;
        let ds = dataset();
        let cfg = ExperimentConfig {
            fault_plan: FaultPlan {
                nan_loss_steps: vec![1],
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_anomaly_retries: 0,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let mut runner = Runner::new(&ds, &cfg, 0);
        let err = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 4,
                patience: None,
                ..FitConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, RunError::Anomaly { rollbacks: 0, .. }),
            "{err:?}"
        );
        let log = runner.recovery_log();
        assert!(log.anomaly_aborted());
        assert_eq!(log.anomaly_rollbacks(), 0);
    }

    #[test]
    fn schedule_is_applied() {
        let ds = dataset();
        let mut runner = Runner::new(&ds, &config(), 0);
        let schedule = StepDecay {
            step_epochs: 2,
            gamma: 0.5,
        };
        let report = fit(
            &mut runner,
            &ds,
            &FitConfig {
                max_epochs: 4,
                patience: None,
                schedule: Some(&schedule),
                base_lr: 1e-2,
                ..FitConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.epochs_run, 4);
        assert!(report.history.iter().all(|e| e.loss.is_finite()));
    }
}
