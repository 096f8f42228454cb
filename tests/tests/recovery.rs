//! Fault injection and checkpointed OOM recovery, end to end: a run whose
//! first step OOMs must finish training through automatic K-escalation,
//! recovery must replay the epoch bit-exactly from its checkpoint, and the
//! whole fault/recovery sequence must be deterministic in the fault seed.

use std::error::Error;

use betty::fit::{fit, fit_with_log, FitConfig};
use betty::{ExperimentConfig, RecoveryLog, RetryPolicy, RunError, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::{gib, FaultPlan, OomError};
use betty_nn::AggregatorSpec;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.15)
        .with_feature_dim(24)
        .generate(3)
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![5, 10],
        hidden_dim: 24,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.2,
        learning_rate: 5e-3,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

/// The acceptance scenario: the first training step OOMs (injected), yet
/// `fit` completes by rolling back to the checkpoint and escalating K,
/// logs the retry, and lands within tolerance of the never-faulted run.
#[test]
fn faulted_first_step_recovers_and_matches_clean_accuracy() {
    let ds = dataset();
    let fit_config = FitConfig {
        max_epochs: 10,
        patience: None,
        ..FitConfig::default()
    };

    let mut clean_runner = Runner::new(&ds, &config(), 42);
    let clean = fit(&mut clean_runner, &ds, &fit_config).expect("clean run fits");
    assert!(clean.recovery.is_empty(), "no faults armed, none expected");

    let faulted_config = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            oom_steps: vec![0],
            ..FaultPlan::default()
        }),
        ..config()
    };
    let mut runner = Runner::new(&ds, &faulted_config, 42);
    let report = fit(&mut runner, &ds, &fit_config).expect("recovery must rescue the run");

    assert_eq!(report.epochs_run, 10);
    assert!(
        report.recovery.oom_retries() >= 1,
        "recovery log must record the OOM retry: {}",
        report.recovery.summary()
    );
    assert!(report.recovery.injected_faults() >= 1);
    assert!(!report.recovery.exhausted());
    assert_eq!(report.history[0].oom_retries, 1);
    // Escalation moved epoch 0 to K ≥ 2; gradient accumulation keeps the
    // optimization equivalent, so accuracy stays in family with the
    // clean run.
    let diff = (report.best_val_accuracy - clean.best_val_accuracy).abs();
    assert!(
        diff < 0.15,
        "recovered accuracy {} strays from clean accuracy {}",
        report.best_val_accuracy,
        clean.best_val_accuracy
    );
}

/// The planner's view of capacity can be wrong at runtime: capacity
/// jitter withholds a random slice of the device each step, so the first
/// plan (which fits the estimator) OOMs on the real ledger. Recovery must
/// escalate K against a headroom-shrunk planning capacity until the
/// jittered device fits, and end within tolerance of an unbounded run.
#[test]
fn plan_that_fits_the_estimator_but_not_the_device_is_rescued() {
    // Twice the other scenarios' graph: the batch has to be large beside
    // the resident parameter state for a tenth of the device to hold a
    // micro-batch at all (checked below).
    let ds = DatasetSpec::cora()
        .scaled(0.3)
        .with_feature_dim(24)
        .generate(3);
    // Size the device a whisker above the K = 1 peak: the planner happily
    // plans one micro-batch…
    let mut probe = Runner::new(&ds, &config(), 42);
    let batch = probe.sample_full_batch(&ds);
    let full_peak = probe
        .plan_fixed(&batch, StrategyKind::Betty, 1)
        .max_estimated_peak();
    let capacity_bytes = full_peak + full_peak / 5;
    // The scenario is only solvable if the tenth of the device that jitter
    // never withholds fits the finest plan: otherwise some step of some
    // epoch draws a slice no K survives.
    let finest_peak = probe
        .plan_fixed(&batch, StrategyKind::Betty, ds.train_idx.len())
        .max_estimated_peak();
    assert!(
        finest_peak <= capacity_bytes / 10,
        "no K fits a tenth of the device: {finest_peak} B of {capacity_bytes} B"
    );
    let jittered = ExperimentConfig {
        capacity_bytes,
        // …but the device withholds up to 90% of capacity each step.
        fault_plan: Some(FaultPlan {
            seed: 13,
            capacity_jitter: 0.9,
            ..FaultPlan::default()
        }),
        retry: RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        },
        ..config()
    };
    let fit_config = FitConfig {
        max_epochs: 8,
        patience: None,
        ..FitConfig::default()
    };
    let mut runner = Runner::new(&ds, &jittered, 42);
    let report = fit(&mut runner, &ds, &fit_config).expect("escalation must find a fitting K");
    assert!(
        report.recovery.oom_retries() >= 1,
        "the first plan must have OOMed at runtime: {}",
        report.recovery.summary()
    );

    let unbounded = ExperimentConfig {
        capacity_bytes: gib(64),
        ..config()
    };
    let mut unbounded_runner = Runner::new(&ds, &unbounded, 42);
    let baseline = fit(&mut unbounded_runner, &ds, &fit_config).unwrap();
    let diff = (report.best_val_accuracy - baseline.best_val_accuracy).abs();
    assert!(
        diff < 0.15,
        "rescued accuracy {} strays from unbounded accuracy {}",
        report.best_val_accuracy,
        baseline.best_val_accuracy
    );
}

/// Recovery restores parameters, optimizer moments and the dropout RNG
/// from the snapshot, so the recovered epoch's loss is bit-identical to a
/// never-faulted run trained at the same K from the same state.
#[test]
fn recovered_epoch_is_bit_identical_to_unfaulted_run_at_same_k() {
    let ds = dataset();
    let faulted_config = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            oom_steps: vec![0],
            ..FaultPlan::default()
        }),
        ..config()
    };
    let mut faulted = Runner::new(&ds, &faulted_config, 7);
    let mut log = RecoveryLog::new();
    let (stats, k) = faulted
        .train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log)
        .expect("recovers");
    assert!(k >= 2, "escalation must have raised K, got {k}");
    assert_eq!(stats.oom_retries, 1);

    let mut clean = Runner::new(&ds, &config(), 7);
    let clean_stats = clean
        .train_epoch_betty(&ds, StrategyKind::Betty, k)
        .expect("ample capacity");
    assert_eq!(
        stats.loss.to_bits(),
        clean_stats.loss.to_bits(),
        "recovered loss {} != clean loss {} at K={k}",
        stats.loss,
        clean_stats.loss
    );
    assert_eq!(stats.max_peak_bytes, clean_stats.max_peak_bytes);
    assert_eq!(stats.num_steps, clean_stats.num_steps);
}

/// Same seed + same fault plan ⇒ identical fault/recovery sequence and
/// identical training outcome across two independent runs.
#[test]
fn fault_and_recovery_sequence_is_deterministic() {
    let ds = dataset();
    let faulted_config = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            seed: 99,
            oom_steps: vec![0, 3],
            alloc_failure_rate: 0.01,
            capacity_jitter: 0.2,
            transfer_stall_rate: 0.3,
            transfer_stall_sec: 0.01,
            ..FaultPlan::default()
        }),
        retry: RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        },
        ..config()
    };
    let run = || {
        let mut runner = Runner::new(&ds, &faulted_config, 11);
        let mut log = RecoveryLog::new();
        let mut outcomes = Vec::new();
        for epoch in 0..4 {
            log.set_epoch(epoch);
            match runner.train_epoch_auto_recovering(&ds, StrategyKind::Betty, &mut log) {
                Ok((stats, k)) => outcomes.push(format!("ok {} K={k}", stats.loss.to_bits())),
                Err(e) => {
                    outcomes.push(format!("err {e}"));
                    break;
                }
            }
        }
        (log, outcomes)
    };
    let (log_a, outcomes_a) = run();
    let (log_b, outcomes_b) = run();
    assert!(
        log_a.oom_retries() >= 1,
        "scenario should trigger at least the scheduled recovery: {}",
        log_a.summary()
    );
    assert_eq!(log_a, log_b, "fault/recovery sequences diverged");
    assert_eq!(outcomes_a, outcomes_b);
}

/// Exhausting the retry budget surfaces the *original* OOM at the root of
/// the error chain, with the log marking the exhaustion.
#[test]
fn retry_exhaustion_preserves_original_oom_in_source_chain() {
    let ds = dataset();
    let hopeless = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            alloc_failure_rate: 1.0,
            ..FaultPlan::default()
        }),
        retry: RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        },
        ..config()
    };
    let mut runner = Runner::new(&ds, &hopeless, 0);
    let mut log = RecoveryLog::new();
    let err = fit_with_log(
        &mut runner,
        &ds,
        &FitConfig {
            max_epochs: 3,
            patience: None,
            ..FitConfig::default()
        },
        &mut log,
    )
    .expect_err("every allocation fails");

    assert!(matches!(err, RunError::RetryExhausted { attempts: 2, .. }));
    assert!(log.exhausted(), "log must flag the exhaustion");
    assert_eq!(log.oom_retries(), 2);

    // Walk the chain down to the device-level OOM that started it all.
    let mut cursor: Option<&(dyn Error + 'static)> = err.source();
    let mut found = None;
    while let Some(e) = cursor {
        if let Some(oom) = e.downcast_ref::<OomError>() {
            found = Some(oom.clone());
        }
        cursor = e.source();
    }
    let oom = found.expect("OomError must sit at the chain root");
    assert!(oom.injected, "the original failure was an injected fault");
}

/// An armed fault plan with every rate at zero is a byte-for-byte no-op:
/// identical losses, identical peak bytes, identical validation accuracy,
/// and an empty recovery log.
#[test]
fn inert_fault_plan_is_byte_for_byte_noop() {
    let ds = dataset();
    let armed_config = ExperimentConfig {
        fault_plan: Some(FaultPlan {
            seed: 1234,
            ..FaultPlan::default()
        }),
        ..config()
    };
    let fit_config = FitConfig {
        max_epochs: 6,
        patience: None,
        ..FitConfig::default()
    };
    let mut plain_runner = Runner::new(&ds, &config(), 5);
    let plain = fit(&mut plain_runner, &ds, &fit_config).unwrap();
    let mut armed_runner = Runner::new(&ds, &armed_config, 5);
    let armed = fit(&mut armed_runner, &ds, &fit_config).unwrap();

    assert!(armed.recovery.is_empty());
    assert_eq!(plain.history.len(), armed.history.len());
    for (p, a) in plain.history.iter().zip(&armed.history) {
        assert_eq!(p.loss.to_bits(), a.loss.to_bits());
        assert_eq!(p.max_peak_bytes, a.max_peak_bytes);
        assert_eq!(p.injected_faults, 0);
        assert_eq!(a.injected_faults, 0);
    }
    assert_eq!(plain.best_val_accuracy, armed.best_val_accuracy);
    assert_eq!(
        plain_runner.evaluate(&ds, &ds.test_idx),
        armed_runner.evaluate(&ds, &ds.test_idx)
    );
}
