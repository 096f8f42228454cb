//! The paper's analytical memory model (§4.4.3, Table 3, Eq. 5).
//!
//! Betty's memory-aware re-partitioning needs the peak memory of a
//! micro-batch *before* executing it. The estimate counts eight
//! contributions; items (6) aggregator intermediates and (7) gradients never
//! coexist at full size (intermediates are freed as backprop consumes them),
//! so the peak takes their maximum:
//!
//! ```text
//! peak = (1) params + (2) input features + (3) labels + (4) blocks
//!      + (5) hidden outputs + (8) optimizer states + max((6), (7))
//! ```
//!
//! # What each layer's tape holds
//!
//! Items (5) and (6) together are the autograd tape, and the estimate
//! counts it value for value. A tape keeps what some adjoint reads: every
//! dense map `act(Σ x·W + b)` is one fused op (`Graph::affine`) whose only
//! stored value is its output, so no product, biased product, running sum
//! or pre-activation is ever held. Per layer, over a block with `n`
//! destinations, `s` sources and `e` edges, input width `d` and output
//! width `o` — the layer's output (`n·o`) being item (5), the rest (6):
//!
//! | layer | values besides the `n·o` output |
//! |-------|---------------------------------|
//! | SAGE mean / sum | the aggregate `n·d` (the self term reads `h_dst` in place) |
//! | SAGE pool | gathered messages `e·d`, their activated transform `e·d`, the max `n·d` |
//! | SAGE LSTM | `c·d` per neighbour step, i.e. per edge (Eq. 5; `c` = 5 here: four gates and the cell), the packed sequence's output `n_seq·d` (the last hidden state of each of the `n_seq` destinations with a neighbour), and the final states' placement `n·d` |
//! | GCN | the normalised aggregate `n·d` |
//! | GIN | neighbour sum, gathered `h_dst`, scaled self, their sum (`n·d` each), the MLP's hidden `n·h`, and two f32 scalars (`1`, `1 + ε`) |
//! | GAT | projection `s·p` (`p` = heads × head width `w`); per head: its slice `s·w`, two attention-vector slices `w`, two score halves `s`, five edge-score tensors `e`, gathered and weighted features `2·e·w`, the pooled `n·w`; then the concatenation `n·o` (hidden layers, before the ELU) or `heads − 1` running sums `n·o` (the last layer's mean) |
//!
//! Every layer but the last additionally holds the dropped-out copy of its
//! output (`n·o`) when dropout is on — the mask itself is an op payload,
//! not a tape value. Once per step the tape also holds the loss head's two
//! f32 scalars; the parameters it binds share item (1)'s storage.

use betty_graph::Batch;
use betty_tensor::DType;

use crate::BYTES_PER_VALUE;

/// Values the loss head adds to the tape regardless of batch size: the
/// scalar cross-entropy output and the micro-batch gradient rescale.
const LOSS_TAPE_VALUES: usize = 2;

/// Neighbor-aggregation flavour (Table 1 of the paper), plus attention for
/// GAT models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregatorKind {
    /// Degree-normalized sum of neighbor features.
    Mean,
    /// Unnormalized sum.
    Sum,
    /// Max-pooling over a learned per-neighbor transform.
    Pool,
    /// Sequence LSTM over the neighbor list — the memory-hungry one.
    Lstm,
    /// Multi-head attention (GAT's built-in aggregation).
    Attention {
        /// Number of attention heads.
        heads: usize,
    },
    /// GCN's self-loop, degree-normalised weighted sum ahead of one dense
    /// map.
    Gcn,
    /// GIN's `(1 + ε)·h_v + Σ h_u` ahead of a two-layer MLP.
    Gin,
}

/// Static shape of the GNN being trained — everything the estimator needs
/// that does not depend on the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelShape {
    /// Raw input feature dimension (`H_in`).
    pub in_dim: usize,
    /// Hidden dimension (`h`).
    pub hidden_dim: usize,
    /// Output classes (last layer width).
    pub num_classes: usize,
    /// Number of GNN layers (`n`).
    pub num_layers: usize,
    /// Aggregator used by every layer.
    pub aggregator: AggregatorKind,
    /// Model parameter count excluding the aggregator (`NP_GNN`), in values.
    pub params_gnn: usize,
    /// Aggregator parameter count (`NP_Agg`), in values.
    pub params_agg: usize,
    /// Whether training drops out hidden-layer outputs (`p > 0`): every
    /// layer but the last then also holds the dropped-out copy it feeds
    /// the next one.
    pub dropout: bool,
}

impl ModelShape {
    /// Feature width entering layer `i` (raw features for layer 0).
    pub(crate) fn layer_in_dim(&self, layer: usize) -> usize {
        if layer == 0 {
            self.in_dim
        } else {
            self.hidden_dim
        }
    }

    /// Feature width leaving layer `i` (classes for the last layer).
    pub(crate) fn layer_out_dim(&self, layer: usize) -> usize {
        if layer + 1 == self.num_layers {
            self.num_classes
        } else {
            self.hidden_dim
        }
    }
}

/// Estimated memory of one micro-batch, broken into the paper's eight
/// contributions. All fields are in **bytes**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryEstimate {
    /// (1) model parameters.
    pub parameters: usize,
    /// (2) input node features, `N_in × H_in`.
    pub input_features: usize,
    /// (3) output labels, `N_out`.
    pub labels: usize,
    /// (4) block structure, `3 · E` per block.
    pub blocks: usize,
    /// (5) hidden-layer outputs, `Σ N_i × h_i`.
    pub hidden_outputs: usize,
    /// (6) aggregator intermediates (Eq. 5 for LSTM).
    pub aggregator_intermediate: usize,
    /// (7) parameter gradients.
    pub gradients: usize,
    /// (8) optimizer state (Adam: 2 × parameters).
    pub optimizer_states: usize,
    /// (9) pinned hot-set reservation of an out-of-core feature store:
    /// `min(cache budget, total feature bytes)`, constant across steps.
    /// Zero for dense in-memory features; filled in by a planner built
    /// with feature-cache accounting (the estimator itself cannot know
    /// which backend serves the features).
    pub feature_cache: usize,
}

impl MemoryEstimate {
    /// Contributions resident for the whole step.
    pub(crate) fn stable_bytes(&self) -> usize {
        self.parameters
            + self.input_features
            + self.labels
            + self.blocks
            + self.hidden_outputs
            + self.optimizer_states
            + self.feature_cache
    }

    /// Peak = stable + max(aggregator intermediates, gradients): the two
    /// transient contributions dominate at different phases of the step.
    pub fn peak_bytes(&self) -> usize {
        self.stable_bytes() + self.aggregator_intermediate.max(self.gradients)
    }
}

/// Implements the paper's per-micro-batch memory estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryEstimator {
    shape: ModelShape,
    lstm_values_per_node: usize,
    feature_dtype: DType,
    activation_dtype: DType,
}

impl MemoryEstimator {
    /// Creates an estimator for a model shape.
    ///
    /// The LSTM constant defaults to the paper's 18 intermediate values per
    /// sequence element (Eq. 5); it is implementation-dependent — use
    /// [`MemoryEstimator::with_lstm_constant`] to calibrate to a different
    /// backend. Both storage dtypes default to f32, which reproduces the
    /// paper's byte counts exactly.
    pub fn new(shape: ModelShape) -> Self {
        Self {
            shape,
            lstm_values_per_node: 18,
            feature_dtype: DType::F32,
            activation_dtype: DType::F32,
        }
    }

    /// Overrides the per-node LSTM intermediate constant of Eq. 5.
    pub fn with_lstm_constant(mut self, values_per_node: usize) -> Self {
        self.lstm_values_per_node = values_per_node;
        self
    }

    /// Sets the storage width of input node features: item (2) is charged
    /// at this width (the trainer stages gathered features at the feature
    /// store's dtype).
    pub fn with_feature_dtype(mut self, dtype: DType) -> Self {
        self.feature_dtype = dtype;
        self
    }

    /// Sets the storage width of forward activations: items (5) and the
    /// per-layer share of (6) are charged at this width. Parameter copies
    /// and the loss head stay f32, mirroring the tape (leaves and scalars
    /// are never quantized).
    pub fn with_activation_dtype(mut self, dtype: DType) -> Self {
        self.activation_dtype = dtype;
        self
    }

    /// Estimates the memory of training one (micro-)batch.
    ///
    /// # Panics
    ///
    /// Panics if the batch's layer count differs from the model shape.
    pub fn estimate(&self, batch: &Batch) -> MemoryEstimate {
        let s = &self.shape;
        assert_eq!(
            batch.num_layers(),
            s.num_layers,
            "batch has {} layers but model expects {}",
            batch.num_layers(),
            s.num_layers
        );
        let n_in = batch.input_nodes().len();
        let n_out = batch.output_nodes().len();

        // (4) blocks: 3 values per edge (two endpoints + weight).
        let block_values: usize = batch.blocks().iter().map(|b| b.storage_values()).sum();

        // (5) hidden outputs: each layer's destination count × output width.
        let hidden_values: usize = batch
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| b.num_dst() * s.layer_out_dim(i))
            .sum();

        let params = s.params_gnn + s.params_agg;

        // (6) what each layer's tape holds besides its output, plus the
        // loss head's cross-entropy output and micro-batch rescale. The
        // leaf the tape binds for a parameter aliases item (1).
        let (layer_agg_values, layer_scalars) = batch
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                self.aggregator_values(
                    b,
                    s.layer_in_dim(i),
                    s.layer_out_dim(i),
                    i + 1 == s.num_layers,
                )
            })
            .fold((0, 0), |(v, f), (lv, lf)| (v + lv, f + lf));

        // Storage widths. Per-layer tensors (hidden outputs and aggregator
        // workspace) are stored at the activation width; input features at
        // the feature store's width. The scalars stay f32 — the tape never
        // quantizes scalars — as do items (1), (3), (4), (7), and (8).
        let feat_w = self.feature_dtype.bytes_per_value();
        let act_w = self.activation_dtype.bytes_per_value();
        MemoryEstimate {
            parameters: params * BYTES_PER_VALUE,
            input_features: n_in * s.in_dim * feat_w,
            labels: n_out * BYTES_PER_VALUE,
            blocks: block_values * BYTES_PER_VALUE,
            hidden_outputs: hidden_values * act_w,
            aggregator_intermediate: layer_agg_values * act_w
                + (LOSS_TAPE_VALUES + layer_scalars) * BYTES_PER_VALUE,
            gradients: params * BYTES_PER_VALUE,
            optimizer_states: 2 * params * BYTES_PER_VALUE,
            feature_cache: 0,
        }
    }

    /// What one layer's tape holds besides the layer's output — the
    /// module docs' table, row by row — as `(values at the activation
    /// width, single-element values the tape never narrows)`.
    fn aggregator_values(
        &self,
        block: &betty_graph::Block,
        d: usize,
        o: usize,
        is_last_layer: bool,
    ) -> (usize, usize) {
        let e = block.num_edges();
        let n_dst = block.num_dst();
        let n_src = block.num_src();
        // The copy dropout makes of a hidden layer's output.
        let dropped = if self.shape.dropout && !is_last_layer {
            n_dst * o
        } else {
            0
        };
        // Every SAGE layer is an aggregate `[n_dst, d]` and one fused
        // `act(h_dst·W_self + b_self + agg·W_neigh + b_neigh)` whose
        // output is the layer's: the self term reads the leading rows of
        // the source features where they lie, and neither product, neither
        // biased product, nor their sum is stored.
        let sage_overhead = n_dst * d;
        let layer = match self.shape.aggregator {
            // Mean/Sum run fused (no [E, d] message tensor): the aggregate
            // is all there is. GCN's weighted sum likewise, ahead of its
            // one dense map.
            AggregatorKind::Mean | AggregatorKind::Sum | AggregatorKind::Gcn => sage_overhead,
            // Pool gathers every message and keeps its activated
            // transform for the max's adjoint.
            AggregatorKind::Pool => 2 * e * d + sage_overhead,
            // Eq. 5: Σ_buckets L_i · B_i · d · c — the nodes fed through
            // the LSTM at each in-degree, which sum to one neighbour step
            // per edge — then the layer's one packed sequence's output,
            // which is scattered into the aggregate.
            AggregatorKind::Lstm => {
                let n_seq = (0..n_dst).filter(|&v| block.in_degree(v) > 0).count();
                e * d * self.lstm_values_per_node + n_seq * d + sage_overhead
            }
            // The neighbour sum, the gathered self rows, their `1 + ε`
            // multiple and the combination, then the MLP's hidden layer.
            AggregatorKind::Gin => 4 * n_dst * d + n_dst * self.shape.hidden_dim,
            // Hidden layers concatenate heads (d_head = o / heads) and
            // hold the concatenation under the model's ELU; the final
            // layer mean-merges full-width heads (d_head = o) through
            // `heads − 1` running sums, the scaled last one being its
            // output.
            AggregatorKind::Attention { heads } => {
                let heads = heads.max(1);
                let head_dim = if is_last_layer { o } else { o.div_ceil(heads) };
                let merge = if is_last_layer { heads - 1 } else { 1 };
                n_src * heads * head_dim
                    + heads
                        * (n_src * head_dim
                            + 2 * head_dim
                            + 2 * n_src
                            + 5 * e
                            + 2 * e * head_dim
                            + n_dst * head_dim)
                    + merge * n_dst * o
            }
        };
        // GIN's `1` and `1 + ε`.
        let scalars = match self.shape.aggregator {
            AggregatorKind::Gin => 2,
            _ => 0,
        };
        (layer + dropped, scalars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::{Batch, Block};

    fn shape(agg: AggregatorKind) -> ModelShape {
        ModelShape {
            in_dim: 8,
            hidden_dim: 4,
            num_classes: 3,
            num_layers: 1,
            aggregator: agg,
            params_gnn: 100,
            params_agg: 20,
            dropout: false,
        }
    }

    fn one_layer_batch() -> Batch {
        // 2 outputs, degrees 2 and 1; inputs {0,1,10,11,12}.
        Batch::new(vec![Block::new(vec![0, 1], &[(10, 0), (11, 0), (12, 1)])])
    }

    #[test]
    fn counts_match_hand_computation_mean() {
        let est = MemoryEstimator::new(shape(AggregatorKind::Mean));
        let e = est.estimate(&one_layer_batch());
        assert_eq!(e.parameters, 120 * 4);
        assert_eq!(e.input_features, 5 * 8 * 4);
        assert_eq!(e.labels, 2 * 4);
        assert_eq!(e.blocks, 3 * 3 * 4);
        // One layer, 2 dsts × 3 classes.
        assert_eq!(e.hidden_outputs, 2 * 3 * 4);
        // Mean runs fused and the dense map keeps only its output (item
        // 5): the aggregate n_dst·d = 2·8 = 16 values, plus the 2-value
        // loss head. The parameters the tape binds are item (1).
        assert_eq!(e.aggregator_intermediate, (16 + 2) * 4);
        assert_eq!(e.gradients, 120 * 4);
        assert_eq!(e.optimizer_states, 240 * 4);
    }

    #[test]
    fn lstm_uses_equation_five() {
        let est = MemoryEstimator::new(shape(AggregatorKind::Lstm));
        let e = est.estimate(&one_layer_batch());
        // Buckets: degree 2 × 1 node + degree 1 × 1 node = 3 node-steps.
        // Eq. 5 term = 3 · d(8) · 18; plus the two sequences' final states
        // (2 · 8), their 16-value placement, and the loss head.
        assert_eq!(e.aggregator_intermediate, (3 * 8 * 18 + 16 + 16 + 2) * 4);
    }

    #[test]
    fn lstm_constant_is_tunable() {
        let est = MemoryEstimator::new(shape(AggregatorKind::Lstm)).with_lstm_constant(25);
        let e = est.estimate(&one_layer_batch());
        assert_eq!(e.aggregator_intermediate, (3 * 8 * 25 + 16 + 16 + 2) * 4);
    }

    #[test]
    fn peak_takes_max_of_transients() {
        let mut e = MemoryEstimate {
            aggregator_intermediate: 100,
            gradients: 40,
            ..MemoryEstimate::default()
        };
        assert_eq!(e.peak_bytes(), 100);
        e.gradients = 400;
        assert_eq!(e.peak_bytes(), 400);
    }

    #[test]
    fn lstm_dominates_mean_for_same_batch() {
        let b = one_layer_batch();
        let mean = MemoryEstimator::new(shape(AggregatorKind::Mean)).estimate(&b);
        let lstm = MemoryEstimator::new(shape(AggregatorKind::Lstm)).estimate(&b);
        assert!(lstm.peak_bytes() > mean.peak_bytes());
    }

    #[test]
    #[should_panic(expected = "layers")]
    fn layer_mismatch_rejected() {
        let est = MemoryEstimator::new(ModelShape {
            num_layers: 2,
            ..shape(AggregatorKind::Mean)
        });
        est.estimate(&one_layer_batch());
    }

    #[test]
    fn half_width_dtypes_shrink_only_their_terms() {
        let b = one_layer_batch();
        let f32_est = MemoryEstimator::new(shape(AggregatorKind::Mean)).estimate(&b);
        let bf16 = MemoryEstimator::new(shape(AggregatorKind::Mean))
            .with_feature_dtype(DType::Bf16)
            .with_activation_dtype(DType::Bf16)
            .estimate(&b);
        // Item (2) halves at the feature width.
        assert_eq!(bf16.input_features, 5 * 8 * 2);
        // Item (5) halves at the activation width.
        assert_eq!(bf16.hidden_outputs, 2 * 3 * 2);
        // Item (6): the 16 aggregate values halve; the loss head (2) stays
        // f32.
        assert_eq!(bf16.aggregator_intermediate, 16 * 2 + 2 * 4);
        // Everything else is unchanged — f32 storage throughout.
        assert_eq!(bf16.parameters, f32_est.parameters);
        assert_eq!(bf16.labels, f32_est.labels);
        assert_eq!(bf16.blocks, f32_est.blocks);
        assert_eq!(bf16.gradients, f32_est.gradients);
        assert_eq!(bf16.optimizer_states, f32_est.optimizer_states);
        assert!(bf16.peak_bytes() < f32_est.peak_bytes());

        // f16 charges the same widths as bf16 (both 2-byte storage).
        let f16 = MemoryEstimator::new(shape(AggregatorKind::Mean))
            .with_feature_dtype(DType::F16)
            .with_activation_dtype(DType::F16)
            .estimate(&b);
        assert_eq!(f16, bf16);
    }

    #[test]
    fn dtype_defaults_are_f32() {
        let est = MemoryEstimator::new(shape(AggregatorKind::Mean));
        assert_eq!(est.feature_dtype, DType::F32);
        assert_eq!(est.activation_dtype, DType::F32);
    }

    /// Two layers so one of them is hidden: 3 outputs ← 5 sources ← 6.
    fn two_layer_batch() -> Batch {
        let top = Block::new(vec![0, 1, 2], &[(3, 0), (4, 0), (3, 1)]);
        let bottom = Block::new(top.src_globals().to_vec(), &[(5, 3), (0, 4), (5, 4)]);
        Batch::new(vec![bottom, top])
    }

    #[test]
    fn dropout_charges_each_hidden_layers_copy() {
        let two = |dropout| ModelShape {
            num_layers: 2,
            dropout,
            ..shape(AggregatorKind::Mean)
        };
        let b = two_layer_batch();
        let off = MemoryEstimator::new(two(false)).estimate(&b);
        let on = MemoryEstimator::new(two(true)).estimate(&b);
        // The hidden layer has 5 destinations of width 4; the last layer's
        // logits are never dropped.
        assert_eq!(
            on.aggregator_intermediate - off.aggregator_intermediate,
            5 * 4 * 4
        );
        assert_eq!(
            MemoryEstimate {
                aggregator_intermediate: off.aggregator_intermediate,
                ..on
            },
            off
        );
    }

    #[test]
    fn pool_gcn_gin_and_gat_follow_their_tapes() {
        let b = one_layer_batch(); // n_dst 2, n_src 5, e 3, d 8, o 3
        let layer = |agg| {
            let e = MemoryEstimator::new(shape(agg)).estimate(&b);
            e.aggregator_intermediate / 4 - 2
        };
        // Messages and their activated transform, then the max.
        assert_eq!(layer(AggregatorKind::Pool), 2 * 3 * 8 + 2 * 8);
        assert_eq!(layer(AggregatorKind::Gcn), 2 * 8);
        // Four n·d values, the MLP's hidden n·h, and the two scalars.
        assert_eq!(layer(AggregatorKind::Gin), 4 * 2 * 8 + 2 * 4 + 2);
        // Last layer, two full-width heads: projection 5·6, per head
        // 5·3 + 2·3 + 2·5 + 5·3 + 2·3·3 + 2·3 = 70, one running sum 2·3.
        assert_eq!(
            layer(AggregatorKind::Attention { heads: 2 }),
            30 + 2 * 70 + 6
        );
    }

    #[test]
    fn smaller_micro_batches_estimate_smaller() {
        let batch = one_layer_batch();
        let est = MemoryEstimator::new(shape(AggregatorKind::Mean));
        let micro = batch.restrict(&[0]);
        let full = est.estimate(&batch);
        let part = est.estimate(&micro);
        assert!(part.peak_bytes() < full.peak_bytes());
        assert!(part.input_features < full.input_features);
    }
}
