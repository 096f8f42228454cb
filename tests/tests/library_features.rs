//! Library-surface features composing end to end: checkpointing, dataset
//! I/O, and exact full-graph inference.

use betty::{accuracy_full_graph, ExperimentConfig, Runner, StrategyKind};
use betty_data::{load_dataset, save_dataset, DatasetSpec};
use betty_device::gib;
use betty_nn::{load_checkpoint, save_checkpoint, AggregatorSpec, GraphSage};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

fn dataset() -> betty_data::Dataset {
    DatasetSpec::cora()
        .scaled(0.1)
        .with_feature_dim(16)
        .generate(12)
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.0,
        learning_rate: 1e-2,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

#[test]
fn dataset_roundtrips_through_disk_and_trains_identically() {
    let ds = dataset();
    let path = std::env::temp_dir().join(format!("betty-it-ds-{}", std::process::id()));
    save_dataset(&ds, &path).unwrap();
    let loaded = load_dataset(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let run = |d: &betty_data::Dataset| -> f64 {
        let mut runner = Runner::new(d, &config(), 4);
        let mut loss = 0.0;
        for _ in 0..3 {
            loss = runner
                .train_epoch_betty(d, StrategyKind::Betty, 2)
                .unwrap()
                .loss;
        }
        loss
    };
    assert_eq!(run(&ds), run(&loaded), "identical bytes ⇒ identical run");
}

#[test]
fn checkpoint_preserves_full_graph_accuracy() {
    let ds = dataset();
    let mut rng = Pcg64Mcg::seed_from_u64(2);
    let mut model = GraphSage::new(
        ds.feature_dim(),
        16,
        ds.num_classes,
        2,
        AggregatorSpec::Mean,
        0.0,
        &mut rng,
    );
    // Scramble-restore: train a runner? Keep it focused — checkpoint an
    // untrained model, reload into a differently-initialized clone, and
    // verify exact-inference agreement.
    let path = std::env::temp_dir().join(format!("betty-it-ckpt-{}", std::process::id()));
    save_checkpoint(&model, &path).unwrap();
    let mut other = GraphSage::new(
        ds.feature_dim(),
        16,
        ds.num_classes,
        2,
        AggregatorSpec::Mean,
        0.0,
        &mut Pcg64Mcg::seed_from_u64(99),
    );
    let before = accuracy_full_graph(&other, &ds, &ds.test_idx, 64).unwrap();
    load_checkpoint(&mut other, &path).unwrap();
    let _ = std::fs::remove_file(&path);
    let restored = accuracy_full_graph(&other, &ds, &ds.test_idx, 64).unwrap();
    let original = accuracy_full_graph(&model, &ds, &ds.test_idx, 64).unwrap();
    assert_eq!(restored, original, "restored model must match byte-wise");
    // (`before` is almost surely different — two random inits.)
    let _ = before;
    let _ = &mut model;
}
