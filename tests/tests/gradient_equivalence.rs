//! The paper's central correctness claim (§4.2): training K micro-batches
//! with gradient accumulation is mathematically equivalent to full-batch
//! training — for *any* partitioning of the output nodes.

use betty_data::{Dataset, DatasetSpec};
use betty_graph::{sample_batch, Batch};
use betty_nn::{AggregatorSpec, GnnModel, GraphSage, Param, Session};

use betty_partition::{OutputPartitioner, RegPartitioner};
use betty_tensor::{Reduction, Tensor};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.04)
        .with_feature_dim(10)
        .generate(11)
}

fn full_batch(ds: &Dataset) -> Batch {
    let mut rng = Pcg64Mcg::seed_from_u64(1);
    let seeds: Vec<_> = ds.train_idx.iter().copied().take(40).collect();
    sample_batch(&ds.graph, &seeds, &[4, 6], &mut rng)
}

/// Runs forward/backward on `batch` and returns summed gradients per param,
/// with the loss scaled by `1/effective` (Sum reduction).
fn accumulate(
    model: &mut dyn GnnModel,
    ds: &Dataset,
    batches: &[Batch],
    effective: usize,
) -> Vec<Tensor> {
    for p in model.params_mut() {
        p.zero_grad();
    }
    for batch in batches {
        let mut sess = Session::new();
        let idx: Vec<usize> = batch.input_nodes().iter().map(|&v| v as usize).collect();
        let x = sess.graph.leaf(ds.features.gather_rows(&idx));
        let mut rng = Pcg64Mcg::seed_from_u64(0);
        let logits = model.forward(&mut sess, batch.blocks(), x, false, &mut rng);
        let targets = ds.labels_of(batch.output_nodes());
        let sum = sess.graph.cross_entropy(logits, &targets, Reduction::Sum);
        let loss = sess.graph.scale(sum, 1.0 / effective as f32);
        sess.backward(loss, model);
    }
    model.params().iter().map(|p| p.grad().clone()).collect()
}

/// Equivalence for an arbitrary model: accumulate over a REG split and
/// compare against the full batch.
fn check_model_equivalence(model: &mut dyn GnnModel, tol: f32) {
    let ds = dataset();
    let batch = full_batch(&ds);
    let effective = batch.output_nodes().len();
    let full = accumulate(model, &ds, std::slice::from_ref(&batch), effective);
    let parts = RegPartitioner::new(3).split_outputs(&batch, 4);
    let micros: Vec<Batch> = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| batch.restrict(p))
        .collect();
    let micro = accumulate(model, &ds, &micros, effective);
    let gap = max_grad_gap(&full, &micro);
    assert!(gap < tol, "gradient gap {gap} exceeds {tol}");
}

fn max_grad_gap(a: &[Tensor], b: &[Tensor]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            x.data()
                .iter()
                .zip(y.data())
                .map(|(u, v)| (u - v).abs())
                .fold(0.0f32, f32::max)
        })
        .fold(0.0, f32::max)
}

fn check_equivalence(aggregator: AggregatorSpec, k: usize, tol: f32) {
    let ds = dataset();
    let batch = full_batch(&ds);
    let effective = batch.output_nodes().len();
    let mut rng = Pcg64Mcg::seed_from_u64(99);
    let mut model = GraphSage::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        aggregator,
        0.0,
        &mut rng,
    );

    let full_grads = accumulate(&mut model, &ds, std::slice::from_ref(&batch), effective);

    let parts = RegPartitioner::new(3).split_outputs(&batch, k);
    let micros: Vec<Batch> = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| batch.restrict(p))
        .collect();
    assert!(micros.len() > 1, "partitioning must actually split");
    let micro_grads = accumulate(&mut model, &ds, &micros, effective);

    let gap = max_grad_gap(&full_grads, &micro_grads);
    assert!(
        gap < tol,
        "{}, k={k}: gradient gap {gap} exceeds {tol}",
        aggregator.name()
    );
}

#[test]
fn mean_aggregator_k2() {
    check_equivalence(AggregatorSpec::Mean, 2, 2e-5);
}

#[test]
fn mean_aggregator_k5() {
    check_equivalence(AggregatorSpec::Mean, 5, 2e-5);
}

#[test]
fn sum_aggregator_k3() {
    check_equivalence(AggregatorSpec::Sum, 3, 5e-5);
}

#[test]
fn pool_aggregator_k3() {
    check_equivalence(AggregatorSpec::Pool, 3, 5e-5);
}

#[test]
fn lstm_aggregator_k2() {
    check_equivalence(AggregatorSpec::Lstm, 2, 5e-5);
}

#[test]
fn gcn_model_equivalence() {
    let ds = dataset();
    let mut model = betty_nn::Gcn::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        0.0,
        &mut Pcg64Mcg::seed_from_u64(21),
    );
    check_model_equivalence(&mut model, 2e-5);
}

#[test]
fn gin_model_equivalence() {
    let ds = dataset();
    let mut model = betty_nn::Gin::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        0.0,
        &mut Pcg64Mcg::seed_from_u64(22),
    );
    check_model_equivalence(&mut model, 5e-5);
}

#[test]
fn gat_model_equivalence() {
    let ds = dataset();
    let mut model = betty_nn::Gat::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        2,
        0.0,
        &mut Pcg64Mcg::seed_from_u64(23),
    );
    check_model_equivalence(&mut model, 5e-5);
}

#[test]
fn losses_match_too() {
    // Beyond gradients: the scaled micro losses must sum to the full loss.
    let ds = dataset();
    let batch = full_batch(&ds);
    let effective = batch.output_nodes().len();
    let mut rng = Pcg64Mcg::seed_from_u64(5);
    let model = GraphSage::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        AggregatorSpec::Mean,
        0.0,
        &mut rng,
    );
    let loss_of = |b: &Batch| -> f32 {
        let mut sess = Session::new();
        let idx: Vec<usize> = b.input_nodes().iter().map(|&v| v as usize).collect();
        let x = sess.graph.leaf(ds.features.gather_rows(&idx));
        let mut rng = Pcg64Mcg::seed_from_u64(0);
        let logits = model.forward(&mut sess, b.blocks(), x, false, &mut rng);
        let targets = ds.labels_of(b.output_nodes());
        let sum = sess.graph.cross_entropy(logits, &targets, Reduction::Sum);
        let scaled = sess.graph.scale(sum, 1.0 / effective as f32);
        sess.graph.value(scaled).item()
    };
    let full = loss_of(&batch);
    let parts = RegPartitioner::new(3).split_outputs(&batch, 4);
    let micro_sum: f32 = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| loss_of(&batch.restrict(p)))
        .sum();
    assert!(
        (full - micro_sum).abs() < 1e-4,
        "full {full} vs micro sum {micro_sum}"
    );
}

#[test]
fn equivalence_holds_for_any_random_split() {
    // Not just REG: an arbitrary random partition must accumulate to the
    // same gradients (the math does not depend on the partitioner).
    use betty_partition::{OutputGraphPartitioner, RandomPartitioner};
    let ds = dataset();
    let batch = full_batch(&ds);
    let effective = batch.output_nodes().len();
    let mut rng = Pcg64Mcg::seed_from_u64(13);
    let mut model = GraphSage::new(
        ds.feature_dim(),
        8,
        ds.num_classes,
        2,
        AggregatorSpec::Mean,
        0.0,
        &mut rng,
    );
    let full = accumulate(&mut model, &ds, std::slice::from_ref(&batch), effective);
    for seed in 0..3 {
        let parts =
            OutputGraphPartitioner::new(RandomPartitioner::new(seed)).split_outputs(&batch, 4);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        let grads = accumulate(&mut model, &ds, &micros, effective);
        let gap = max_grad_gap(&full, &grads);
        assert!(gap < 2e-5, "seed {seed}: gap {gap}");
    }
}

#[test]
fn optimizer_trajectories_identical() {
    // Full-batch Adam vs micro-batch Adam from identical init: parameter
    // values stay (numerically) identical across several updates.
    use betty_nn::{Adam, Optimizer};
    let ds = dataset();
    let batch = full_batch(&ds);
    let effective = batch.output_nodes().len();
    let make_model = || {
        let mut rng = Pcg64Mcg::seed_from_u64(17);
        GraphSage::new(
            ds.feature_dim(),
            8,
            ds.num_classes,
            2,
            AggregatorSpec::Mean,
            0.0,
            &mut rng,
        )
    };
    let mut full_model = make_model();
    let mut micro_model = make_model();
    let parts = RegPartitioner::new(1).split_outputs(&batch, 3);
    let micros: Vec<Batch> = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| batch.restrict(p))
        .collect();
    let mut opt_full = Adam::new(0.01);
    let mut opt_micro = Adam::new(0.01);
    for _ in 0..3 {
        accumulate(
            &mut full_model,
            &ds,
            std::slice::from_ref(&batch),
            effective,
        );
        opt_full.step(&mut full_model.params_mut());
        accumulate(&mut micro_model, &ds, &micros, effective);
        opt_micro.step(&mut micro_model.params_mut());
    }
    let gap = full_model
        .params()
        .into_iter()
        .zip(micro_model.params())
        .map(|(a, b): (&Param, &Param)| {
            a.value()
                .data()
                .iter()
                .zip(b.value().data())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max)
        })
        .fold(0.0, f32::max);
    assert!(gap < 1e-4, "parameter divergence {gap}");
}
