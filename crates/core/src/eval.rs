//! Model evaluation: sampled inference and accuracy.

use rand::RngCore;

use betty_data::{Dataset, FeatureStoreError};
use betty_graph::{sample_batch_in, CsrGraph, NodeId};
use betty_nn::{GnnModel, Session};
use betty_tensor::segment;

/// Predicts class labels for `nodes` by sampled inference.
///
/// Nodes are processed in chunks of `chunk_size` to bound memory;
/// `fanouts` bounds neighborhood expansion per layer (one entry per model
/// layer). Dropout is disabled.
///
/// **Chunk-size caveat:** `rng` is drawn per chunk, so whenever a fanout
/// actually truncates a neighborhood the sampled neighbor sets — and
/// therefore individual predictions — can differ across `chunk_size`
/// choices (the *distribution* is unchanged, only the draw order). With
/// full fanouts (`usize::MAX` everywhere) no random draw happens and
/// predictions are exactly chunk-size invariant. Use
/// [`predict_full_graph`] when exact, sampling-free inference is
/// required.
///
/// # Panics
///
/// Panics if `fanouts.len()` differs from the model's layer count or
/// `chunk_size == 0`.
pub(crate) fn predict(
    model: &dyn GnnModel,
    dataset: &Dataset,
    nodes: &[NodeId],
    fanouts: &[usize],
    chunk_size: usize,
    mut rng: &mut dyn RngCore,
) -> Vec<usize> {
    assert_eq!(
        fanouts.len(),
        model.num_layers(),
        "one fanout per model layer"
    );
    assert!(chunk_size > 0, "chunk_size must be positive");
    let in_graph: CsrGraph = dataset.graph.reverse();
    let mut predictions = Vec::with_capacity(nodes.len());
    for chunk in nodes.chunks(chunk_size) {
        // `&mut rng` makes the generic parameter the sized `&mut dyn
        // RngCore` rather than the unsized `dyn RngCore`.
        let batch = sample_batch_in(&in_graph, chunk, fanouts, &mut rng);
        let input_idx: Vec<usize> = batch.input_nodes().iter().map(|&v| v as usize).collect();
        let feats = dataset.features.gather_rows(&input_idx);
        let mut sess = Session::new();
        let x = sess.graph.constant(feats);
        let logits = model.forward(&mut sess, batch.blocks(), x, false, rng);
        predictions.extend(sess.graph.value(logits).argmax_rows());
    }
    predictions
}

/// Exact layer-wise full-graph inference: the predicted class of every
/// node in the graph, or the [`FeatureStoreError`] of a paged shard that
/// cannot be read back.
///
/// Computes layer `i`'s output for *every* node (in chunks of `chunk_size`
/// destinations, each with its complete in-neighborhood) before starting
/// layer `i + 1` — the standard way to evaluate sampled-trained GNNs
/// without sampling bias, and the inference analogue of Betty's
/// memory-bounded execution: peak memory is governed by the chunk size,
/// not the graph.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub(crate) fn predict_full_graph(
    model: &dyn GnnModel,
    dataset: &Dataset,
    chunk_size: usize,
) -> Result<Vec<usize>, FeatureStoreError> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n = dataset.num_nodes();
    let in_graph = dataset.graph.reverse();
    // Layer 0 reads the raw features; densifying once keeps the layer
    // loop backend-agnostic (inference is out of the training hot path).
    let mut h = dataset.features.to_dense()?;
    for layer in 0..model.num_layers() {
        let out_dim = if layer + 1 == model.num_layers() {
            model.num_classes()
        } else {
            model.hidden_dim()
        };
        let mut next = betty_tensor::Tensor::zeros(&[n, out_dim]);
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk_size).min(n);
            let dst: Vec<NodeId> = (start as NodeId..end as NodeId).collect();
            let edges: Vec<(NodeId, NodeId)> = dst
                .iter()
                .flat_map(|&v| in_graph.neighbors(v).iter().map(move |&u| (u, v)))
                .collect();
            let block = betty_graph::Block::new(dst, &edges);
            let idx: Vec<usize> = block.src_globals().iter().map(|&v| v as usize).collect();
            let mut sess = Session::new();
            let x = sess.graph.constant(segment::gather_rows(&h, &idx));
            let out = model.forward_layer(&mut sess, layer, &block, x);
            let out_t = sess.graph.value(out);
            let nd = next.data_mut();
            for (row, &global) in block.dst_globals().iter().enumerate() {
                let g = global as usize;
                nd[g * out_dim..(g + 1) * out_dim].copy_from_slice(out_t.row(row));
            }
            start = end;
        }
        h = next;
    }
    Ok(h.argmax_rows())
}

/// Accuracy of `predict_full_graph` on a node subset, or its error.
pub fn accuracy_full_graph(
    model: &dyn GnnModel,
    dataset: &Dataset,
    nodes: &[NodeId],
    chunk_size: usize,
) -> Result<f64, FeatureStoreError> {
    if nodes.is_empty() {
        return Ok(0.0);
    }
    let preds = predict_full_graph(model, dataset, chunk_size)?;
    let correct = nodes
        .iter()
        .filter(|&&v| preds[v as usize] == dataset.labels[v as usize])
        .count();
    Ok(correct as f64 / nodes.len() as f64)
}

/// Fraction of `nodes` whose prediction matches the dataset label.
///
/// # Panics
///
/// Same conditions as [`predict`]; returns 0.0 for an empty node list.
pub(crate) fn accuracy(
    model: &dyn GnnModel,
    dataset: &Dataset,
    nodes: &[NodeId],
    fanouts: &[usize],
    rng: &mut dyn RngCore,
) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let preds = predict(model, dataset, nodes, fanouts, 1024, rng);
    let correct = preds
        .iter()
        .zip(nodes)
        .filter(|&(&p, &v)| p == dataset.labels[v as usize])
        .count();
    correct as f64 / nodes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_data::DatasetSpec;
    use betty_nn::{AggregatorSpec, GraphSage};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    #[test]
    fn untrained_model_predicts_in_range() {
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(8)
            .generate(2);
        let mut rng = Pcg64Mcg::seed_from_u64(0);
        let model = GraphSage::new(8, 8, ds.num_classes, 2, AggregatorSpec::Mean, 0.0, &mut rng);
        let nodes: Vec<_> = ds.val_idx.iter().copied().take(30).collect();
        let preds = predict(&model, &ds, &nodes, &[3, 3], 16, &mut rng);
        assert_eq!(preds.len(), 30);
        assert!(preds.iter().all(|&p| p < ds.num_classes));
        let acc = accuracy(&model, &ds, &nodes, &[3, 3], &mut rng);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn full_graph_inference_matches_full_neighborhood_sampling() {
        // With fanout = ∞ both paths compute the exact same function.
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(8)
            .generate(4);
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        let model =
            GraphSage::new(8, 8, ds.num_classes, 2, AggregatorSpec::Mean, 0.0, &mut rng);
        let nodes: Vec<_> = ds.test_idx.iter().copied().take(25).collect();
        let sampled = predict(
            &model,
            &ds,
            &nodes,
            &[usize::MAX, usize::MAX],
            16,
            &mut rng,
        );
        let full = predict_full_graph(&model, &ds, 64).unwrap();
        for (&node, &s) in nodes.iter().zip(&sampled) {
            assert_eq!(full[node as usize], s, "node {node} disagrees");
        }
    }

    #[test]
    fn full_graph_inference_chunk_size_invariant() {
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(8)
            .generate(4);
        let mut rng = Pcg64Mcg::seed_from_u64(2);
        let model =
            GraphSage::new(8, 8, ds.num_classes, 2, AggregatorSpec::Mean, 0.0, &mut rng);
        let a = predict_full_graph(&model, &ds, 7).unwrap();
        let b = predict_full_graph(&model, &ds, 1000).unwrap();
        assert_eq!(a, b);
        let acc = accuracy_full_graph(&model, &ds, &ds.test_idx, 64).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn sampled_predict_chunk_size_invariant_under_full_fanout() {
        // With full fanouts the sampler keeps every in-edge and consumes
        // no randomness, so chunking must not change any prediction —
        // the intended behaviour `predict`'s caveat pins down. (With
        // truncating fanouts the per-chunk RNG draw order makes
        // predictions legitimately chunk-size dependent.)
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(8)
            .generate(4);
        let mut rng = Pcg64Mcg::seed_from_u64(3);
        let model =
            GraphSage::new(8, 8, ds.num_classes, 2, AggregatorSpec::Mean, 0.0, &mut rng);
        let nodes: Vec<_> = ds.val_idx.iter().copied().take(30).collect();
        let fanouts = [usize::MAX, usize::MAX];
        let mut per_chunk_size = Vec::new();
        for chunk_size in [1, 7, 30, 1000] {
            let mut eval_rng = Pcg64Mcg::seed_from_u64(9);
            per_chunk_size.push(predict(&model, &ds, &nodes, &fanouts, chunk_size, &mut eval_rng));
        }
        for other in &per_chunk_size[1..] {
            assert_eq!(&per_chunk_size[0], other);
        }
    }

    #[test]
    fn empty_nodes_give_zero_accuracy() {
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(8)
            .generate(2);
        let mut rng = Pcg64Mcg::seed_from_u64(0);
        let model = GraphSage::new(8, 8, ds.num_classes, 1, AggregatorSpec::Mean, 0.0, &mut rng);
        assert_eq!(accuracy(&model, &ds, &[], &[3], &mut rng), 0.0);
    }
}
