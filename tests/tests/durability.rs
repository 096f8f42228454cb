//! Property tests of the v2 checkpoint format's corruption resistance:
//! any truncation and any single-bit flip of a valid checkpoint file is
//! rejected by the CRC/format validation with a structured error —
//! never silently loaded, never a panic.

use std::path::PathBuf;

use betty_nn::{load_train_state, save_train_state, AdamState, CheckpointError, TrainState};
use betty_tensor::Tensor;
use proptest::prelude::*;

/// A representative session checkpoint exercising every section type:
/// params, Adam moments, RNG streams, counters, floats, loss history,
/// and the config fingerprint.
fn full_state() -> TrainState {
    let params = vec![
        Tensor::from_vec(vec![0.5, -1.25, 3.0, 0.0, 7.5, -0.125], &[2, 3]).unwrap(),
        Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
    ];
    let moments = params
        .iter()
        .map(|p| Some((Tensor::zeros(p.shape()), Tensor::ones(p.shape()))))
        .collect();
    TrainState {
        adam: Some(AdamState { t: 42, moments }),
        rngs: vec![0x1234_5678_9abc_def1, 0xfeed_beef_0000_0003],
        counters: vec![7, 310, 99],
        floats: vec![0.8125],
        history: vec![2.0, 1.5, 1.25],
        fingerprint: Some(0xdead_beef_cafe_f00d),
        params,
    }
}

/// The canonical serialized bytes of [`full_state`].
fn checkpoint_bytes(dir: &str) -> Vec<u8> {
    let path = tmp(dir, "canonical");
    save_train_state(&full_state(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn tmp(dir: &str, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("betty-durability-{dir}-{name}-{}", std::process::id()))
}

/// Writes `bytes` and asserts loading fails with `Format` (not `Io`,
/// which would mean we never got to validation, and certainly not `Ok`).
fn assert_rejected(dir: &str, bytes: &[u8]) {
    let path = tmp(dir, "mutated");
    std::fs::write(&path, bytes).unwrap();
    let result = load_train_state(&path);
    let _ = std::fs::remove_file(&path);
    match result {
        Err(CheckpointError::Format(_)) => {}
        Err(CheckpointError::Io(e)) => panic!("corruption surfaced as an I/O error: {e}"),
        Ok(_) => panic!("corrupted checkpoint loaded successfully"),
    }
}

#[test]
fn session_import_resets_a_hot_plan_ahead_pipeline() {
    use betty::{ExperimentConfig, Runner, StrategyKind};
    use betty_data::DatasetSpec;

    // Resume-mid-pipeline: importing a session while staged bundles are
    // in flight must discard them (they were sampled from the
    // pre-import RNG cursor) and replay the checkpointed epoch
    // bit-identically to a never-pipelined run.
    betty_runtime::with_threads(4, || {
        let ds = DatasetSpec::cora()
            .scaled(0.1)
            .with_feature_dim(12)
            .generate(6);
        let cfg = ExperimentConfig {
            fanouts: vec![4, 6],
            hidden_dim: 16,
            dropout: 0.2,
            plan_ahead: 3,
            ..ExperimentConfig::default()
        };
        let train = |runner: &mut Runner| {
            runner
                .train_epoch_betty(&ds, StrategyKind::Betty, 3)
                .expect("default capacity is ample")
                .loss
                .to_bits()
        };

        // Reference trajectory: the same schedule without a pipeline.
        let sync_cfg = ExperimentConfig {
            plan_ahead: 0,
            ..cfg.clone()
        };
        let mut sync = Runner::new(&ds, &sync_cfg, 11);
        let sync_losses: Vec<u64> = (0..3).map(|_| train(&mut sync)).collect();

        let mut runner = Runner::new(&ds, &cfg, 11);
        let mut losses = vec![train(&mut runner), train(&mut runner)];
        let saved = runner.export_session();
        losses.push(train(&mut runner)); // epoch 2, bundles staged ahead
        assert!(
            runner.plan_ahead_active(),
            "depth 3 at 4 threads must keep a live pipeline"
        );
        assert_eq!(losses, sync_losses, "pipelined trajectory diverged");

        runner.import_session(&saved).expect("same config, same shapes");
        assert!(
            !runner.plan_ahead_active(),
            "import must invalidate in-flight pipeline state"
        );
        let replayed = train(&mut runner);
        assert_eq!(
            replayed, losses[2],
            "the resumed epoch must replay the checkpointed epoch bit for bit"
        );
    });
}

#[test]
fn resume_falls_back_past_a_corrupt_newest_slot_bit_identically() {
    use betty::{latest_valid_checkpoint, CheckpointPlan, ExperimentConfig, Runner, StrategyKind};
    use betty_data::DatasetSpec;

    // Three valid slots, newest corrupted on disk: resume must skip it,
    // restore from the next-older slot, and retrain the lost epoch to
    // exactly the uninterrupted run's parameters.
    let ds = DatasetSpec::cora()
        .scaled(0.1)
        .with_feature_dim(12)
        .generate(6);
    let cfg = ExperimentConfig {
        fanouts: vec![4, 6],
        hidden_dim: 16,
        dropout: 0.2,
        ..ExperimentConfig::default()
    };
    let param_bits = |runner: &Runner| -> Vec<u32> {
        runner
            .trainer()
            .model()
            .params()
            .iter()
            .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
            .collect()
    };
    let train = |runner: &mut Runner| {
        runner
            .train_epoch_betty(&ds, StrategyKind::Betty, 3)
            .expect("default capacity is ample")
    };

    // Uninterrupted reference: four epochs straight through.
    let mut reference = Runner::new(&ds, &cfg, 11);
    for _ in 0..4 {
        train(&mut reference);
    }

    // Checkpointed run: a slot after each of the four epochs.
    let dir = tmp("fallback", "slots");
    let _ = std::fs::remove_dir_all(&dir);
    let plan = CheckpointPlan::new(&dir, 1);
    let mut live = Runner::new(&ds, &cfg, 11);
    for epoch in 0..4 {
        train(&mut live);
        plan.save(&live.export_session(), epoch).expect("slot saved");
    }
    assert_eq!(param_bits(&reference), param_bits(&live));

    // Silently corrupt the newest slot (epoch 3).
    let newest = dir.join("ckpt-000003.btc");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&newest, bytes).unwrap();

    // Resolution falls back to the epoch-2 slot and names the skipped one.
    let found = latest_valid_checkpoint(&dir)
        .expect("older valid slots remain")
        .expect("the directory holds slots");
    assert_eq!(found.epoch, 2, "fallback lands on the next-older slot");
    assert_eq!(found.skipped, vec![newest], "the corrupt slot is reported");

    // Restoring it and retraining the lost epoch reproduces the
    // uninterrupted parameters bit for bit.
    let mut resumed = Runner::new(&ds, &cfg, 11);
    resumed
        .import_session(&found.state)
        .expect("same config, same shapes");
    assert_eq!(resumed.epochs_run(), 3, "the epoch-2 slot holds three trained epochs");
    train(&mut resumed);
    assert_eq!(
        param_bits(&reference),
        param_bits(&resumed),
        "fallback resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_dataset() {
    use betty::{ExperimentConfig, Runner, RunError, StrategyKind};
    use betty_data::DatasetSpec;

    // The historical bug: `ExperimentConfig::fingerprint` covers only
    // model-shape knobs, so a checkpoint trained on one dataset resumed
    // cleanly onto a *different* dataset as long as the config matched —
    // silently misapplying the optimizer state. The session fingerprint
    // now folds in the dataset shape, so this must be rejected up front.
    let cfg = ExperimentConfig {
        fanouts: vec![3, 5],
        hidden_dim: 8,
        ..ExperimentConfig::default()
    };
    let cora = DatasetSpec::cora()
        .scaled(0.08)
        .with_feature_dim(12)
        .generate(3);
    let mut trained = Runner::new(&cora, &cfg, 7);
    trained
        .train_epoch_betty(&cora, StrategyKind::Betty, 2)
        .expect("default capacity is ample");
    let saved = trained.export_session();

    // Same config, same dataset: loads.
    Runner::new(&cora, &cfg, 7)
        .import_session(&saved)
        .expect("same dataset must resume");

    // Same config, different dataset: rejected with a checkpoint error,
    // not a crash deep inside the model.
    let pubmed = DatasetSpec::pubmed()
        .scaled(0.02)
        .with_feature_dim(12)
        .generate(3);
    match Runner::new(&pubmed, &cfg, 7).import_session(&saved) {
        Err(RunError::Checkpoint(msg)) => {
            assert!(
                msg.contains("fingerprint mismatch"),
                "unexpected rejection: {msg}"
            );
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(()) => panic!("a cross-dataset checkpoint was accepted"),
    }

    // Even the same graph with a different feature width is a different
    // dataset as far as a checkpoint is concerned.
    let wider = DatasetSpec::cora()
        .scaled(0.08)
        .with_feature_dim(24)
        .generate(3);
    assert!(
        matches!(
            Runner::new(&wider, &cfg, 7).import_session(&saved),
            Err(RunError::Checkpoint(_))
        ),
        "a checkpoint from a narrower feature matrix was accepted"
    );
}

#[test]
fn dataset_roundtrips_through_both_feature_backends() {
    use betty_data::{load_dataset, save_dataset, DatasetSpec};

    let ds = DatasetSpec::cora()
        .scaled(0.08)
        .with_feature_dim(12)
        .generate(3);

    // Dense backend: straight save/load.
    let dense_path = tmp("fs-roundtrip", "dense.btd");
    save_dataset(&ds, &dense_path).unwrap();
    let dense_back = load_dataset(&dense_path).unwrap();
    let _ = std::fs::remove_file(&dense_path);
    assert_eq!(dense_back.features, ds.features, "dense features diverged");
    assert_eq!(dense_back.labels, ds.labels);

    // Paged backend: spill to shards, then save the *paged* dataset.
    // The on-disk dataset format stores features densely, so the loaded
    // copy must be logically equal to the original matrix even though
    // the saved dataset served its rows from disk shards.
    let shard_dir = tmp("fs-roundtrip", "shards");
    let mut paged_ds = ds.clone();
    paged_ds.features = paged_ds.features.to_paged(&shard_dir, 16, 4096).unwrap();
    assert!(paged_ds.features.is_paged());
    let paged_path = tmp("fs-roundtrip", "paged.btd");
    save_dataset(&paged_ds, &paged_path).unwrap();
    let paged_back = load_dataset(&paged_path).unwrap();
    let _ = std::fs::remove_file(&paged_path);
    let _ = std::fs::remove_dir_all(&shard_dir);
    assert_eq!(
        paged_back.features, ds.features,
        "features did not survive the spill → save → load round trip"
    );
    assert_eq!(paged_back.labels, ds.labels);
}

#[test]
fn corrupted_feature_shard_is_rejected_on_open() {
    use betty_data::{DatasetSpec, FeatureStoreError, PagedFeatures};

    let ds = DatasetSpec::cora()
        .scaled(0.08)
        .with_feature_dim(12)
        .generate(3);
    let dir = tmp("fs-corrupt", "shards");
    let _ = ds.features.to_paged(&dir, 16, usize::MAX).unwrap();
    let shard = dir.join("shard-00000.bfs");
    let pristine = std::fs::read(&shard).unwrap();
    assert!(
        PagedFeatures::open(&dir, usize::MAX).is_ok(),
        "the untouched store must open"
    );

    let expect_format = |what: &str| {
        match PagedFeatures::open(&dir, usize::MAX) {
            Err(FeatureStoreError::Format(_)) => {}
            Err(FeatureStoreError::Io(e)) => {
                panic!("{what}: corruption surfaced as an I/O error: {e}")
            }
            Err(other) => panic!("{what}: wrong error kind: {other}"),
            Ok(_) => panic!("{what}: corrupted shard opened successfully"),
        }
    };

    // Truncation anywhere — mid-magic, mid-header, mid-payload, mid-CRC —
    // must be caught by the open-time validation.
    for cut in [0, 4, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&shard, &pristine[..cut]).unwrap();
        expect_format("truncation");
    }
    // A single flipped payload bit must fail the shard CRC.
    let mut flipped = pristine.clone();
    let pos = flipped.len() - 5; // inside the payload/CRC tail
    flipped[pos] ^= 1;
    std::fs::write(&shard, &flipped).unwrap();
    expect_format("bit flip");

    std::fs::write(&shard, &pristine).unwrap();
    assert!(
        PagedFeatures::open(&dir, usize::MAX).is_ok(),
        "restoring the pristine bytes must make the store open again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pristine_checkpoint_roundtrips() {
    let path = tmp("roundtrip", "ok");
    let state = full_state();
    save_train_state(&state, &path).unwrap();
    assert_eq!(load_train_state(&path).unwrap(), state);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating a checkpoint at any point — mid-magic, mid-header,
    /// mid-payload, mid-CRC — is always a Format error.
    #[test]
    fn any_truncation_is_rejected(frac in 0.0f64..1.0) {
        let bytes = checkpoint_bytes("trunc");
        let cut = (((bytes.len() as f64) * frac) as usize).min(bytes.len() - 1);
        assert_rejected("trunc", &bytes[..cut]);
    }

    /// Flipping any single bit anywhere in the file is always a Format
    /// error: either the magic/section structure breaks, or a section
    /// CRC no longer matches.
    #[test]
    fn any_single_bit_flip_is_rejected(pos in 0usize..4096, bit in 0usize..8) {
        let mut bytes = checkpoint_bytes("bitflip");
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert_rejected("bitflip", &bytes);
    }
}
