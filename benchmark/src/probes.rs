//! Probes that time one layer's public API outside the epoch, so the
//! `Runner` under test is never touched: a replica model for the `nn`
//! split, and the `tensor` kernels at the workload's layer-0 shapes.

use std::hint::black_box;
use std::time::Instant;

use betty_data::Dataset;
use betty_graph::Batch;
use betty_nn::{Adam, GnnModel, GraphSage, Optimizer, Session};
use betty_tensor::kernels::{self, AdamCoeffs};
use betty_tensor::{segment, Reduction, Tensor};
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use crate::stats::median;
use crate::workloads::{Workload, HIDDEN_DIM};

fn input_indices(batch: &Batch) -> Vec<usize> {
    batch.input_nodes().iter().map(|&v| v as usize).collect()
}

/// Seconds spent in each phase of one epoch over `micro_batches`, on a
/// benchmark-owned replica of the workload's model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NnSplit {
    /// `GnnModel::forward` plus the loss, all micro-batches.
    pub forward_s: f64,
    /// `Session::backward`, all micro-batches.
    pub backward_s: f64,
    /// One `Adam::step` over the accumulated gradients.
    pub optimizer_s: f64,
    /// `forward_layer(0, …)`, all micro-batches.
    pub layer0_forward_s: f64,
    /// `forward_layer(1, …)`, all micro-batches.
    pub layer1_forward_s: f64,
    /// `forward_layer` of the output layer, all micro-batches.
    pub layer_last_forward_s: f64,
    /// Trainable scalars.
    pub param_count: usize,
}

/// Replays one gradient-accumulated epoch on a replica `GraphSage` built
/// with the public constructors — same shapes and arithmetic as the
/// trainer's step, none of its device accounting.
pub fn nn_split(w: &Workload, dataset: &Dataset, micro_batches: &[Batch], seed: u64) -> NnSplit {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let mut model = GraphSage::new(
        dataset.feature_dim(),
        HIDDEN_DIM,
        dataset.num_classes,
        w.fanouts.len(),
        w.aggregator,
        0.0,
        &mut rng,
    );
    let mut optimizer = Adam::new(w.config().learning_rate);
    let effective_batch: usize = micro_batches.iter().map(|b| b.output_nodes().len()).sum();
    let mut split = NnSplit {
        param_count: model.total_param_count(),
        ..NnSplit::default()
    };
    // One tape per pass shape, so each keeps its buffer pool warm the way
    // the trainer's single tape does.
    let (mut sess, mut layer_sess) = (Session::new(), Session::new());
    model.for_each_param_mut(&mut |p| p.zero_grad());
    for mb in micro_batches {
        let feats = dataset.features.gather_rows(&input_indices(mb));
        let targets = dataset.labels_of(mb.output_nodes());

        sess.reset();
        let forward_input = feats.clone();
        let started = Instant::now();
        let x = sess.graph.leaf(forward_input);
        let logits = model.forward(&mut sess, mb.blocks(), x, true, &mut rng);
        let sum = sess.graph.cross_entropy(logits, &targets, Reduction::Sum);
        let loss = sess.graph.scale(sum, 1.0 / effective_batch as f32);
        split.forward_s += started.elapsed().as_secs_f64();

        let started = Instant::now();
        sess.backward(loss, &mut model);
        split.backward_s += started.elapsed().as_secs_f64();
        black_box(sess.graph.value(loss).item());

        // Layer by layer, each fed the previous layer's output.
        layer_sess.reset();
        let mut h = layer_sess.graph.leaf(feats);
        let last = mb.blocks().len() - 1;
        for (layer, block) in mb.blocks().iter().enumerate() {
            let started = Instant::now();
            h = model.forward_layer(&mut layer_sess, layer, block, h);
            let dur = started.elapsed().as_secs_f64();
            match layer {
                0 => split.layer0_forward_s += dur,
                1 => split.layer1_forward_s += dur,
                _ => {}
            }
            if layer == last {
                split.layer_last_forward_s += dur;
            }
        }
        black_box(layer_sess.graph.value(h).at(0));
    }
    sess.reset();
    let started = Instant::now();
    optimizer.step(&mut model.params_mut());
    split.optimizer_s = started.elapsed().as_secs_f64();
    split
}

/// Throughput of the public kernels at the workload's layer-0 shapes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelRates {
    /// `kernels::matmul`, `[dst, in_dim] × [in_dim, hidden]`.
    pub matmul_gflops: f64,
    /// `segment::fused_gather_segment_sum` over the layer-0 block's edges:
    /// bytes of the gathered rows read plus the segment rows written.
    pub segment_reduce_gbps: f64,
    /// `kernels::adam_step` over a slab of the model's parameter count:
    /// four slabs read, three written.
    pub adam_step_gbps: f64,
}

/// Repeats `f` until `min_seconds` have passed (at least three times) and
/// returns the median seconds of one call.
fn median_call_s(min_seconds: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < min_seconds {
        let call = Instant::now();
        f();
        samples.push(call.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Times the three kernel classes on the first micro-batch's input layer.
pub fn kernel_rates(
    dataset: &Dataset,
    micro_batch: &Batch,
    param_count: usize,
    seed: u64,
) -> KernelRates {
    // Long enough for dozens of calls at these shapes, short next to an epoch.
    const PROBE_SECONDS: f64 = 0.1;
    let block = &micro_batch.blocks()[0];
    let feats = dataset.features.gather_rows(&input_indices(micro_batch));
    let (in_dim, n_dst) = (feats.cols(), block.num_dst());
    let mut rng = Pcg64Mcg::seed_from_u64(seed);

    let a = Tensor::from_vec(feats.data()[..n_dst * in_dim].to_vec(), &[n_dst, in_dim])
        .expect("the destination rows are a prefix of the source rows");
    let b = betty_tensor::randn(&[in_dim, HIDDEN_DIM], &mut rng);
    let mut out = vec![0.0f32; n_dst * HIDDEN_DIM];
    let matmul_s = median_call_s(PROBE_SECONDS, || {
        kernels::matmul_into(black_box(&a), black_box(&b), &mut out);
        black_box(&out);
    });
    let flops = 2.0 * n_dst as f64 * in_dim as f64 * HIDDEN_DIM as f64;

    let gather_ids: Vec<usize> = block
        .edge_src_locals()
        .iter()
        .map(|&s| s as usize)
        .collect();
    let segment_ids: Vec<usize> = block
        .edge_dst_locals()
        .iter()
        .map(|&d| d as usize)
        .collect();
    let mut reduced = vec![0.0f32; n_dst * in_dim];
    let reduce_s = median_call_s(PROBE_SECONDS, || {
        reduced.fill(0.0);
        segment::fused_gather_segment_sum_into(
            black_box(&feats),
            black_box(&gather_ids),
            black_box(&segment_ids),
            &mut reduced,
        );
        black_box(&reduced);
    });
    let reduce_bytes = 4.0 * in_dim as f64 * (gather_ids.len() + n_dst) as f64;

    let n = param_count.max(1);
    let mut value = betty_tensor::randn(&[n], &mut rng);
    let grad = betty_tensor::randn(&[n], &mut rng);
    let (mut m1, mut m2) = (vec![0.0f32; n], vec![0.0f32; n]);
    let coeffs = AdamCoeffs {
        lr: 3e-3,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bias1: 0.1,
        bias2: 0.001,
    };
    let adam_s = median_call_s(PROBE_SECONDS, || {
        kernels::adam_step(
            value.data_mut(),
            black_box(grad.data()),
            &mut m1,
            &mut m2,
            coeffs,
        );
        black_box(&m2);
    });
    let adam_bytes = 4.0 * 7.0 * n as f64;

    KernelRates {
        matmul_gflops: flops / matmul_s / 1e9,
        segment_reduce_gbps: reduce_bytes / reduce_s / 1e9,
        adam_step_gbps: adam_bytes / adam_s / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_call_runs_at_least_three_times() {
        let mut calls = 0;
        let s = median_call_s(0.0, || calls += 1);
        assert_eq!(calls, 3);
        assert!(s >= 0.0);
    }
}
