use betty_graph::Block;
use betty_tensor::{Tensor, VarId};
use rand::{Rng, RngCore};

use crate::gat::HeadMerge;
use crate::{AggregatorSpec, GatConv, GcnConv, GinConv, Param, SageConv, Session};

/// A multi-layer GNN usable by the Betty trainer.
///
/// `forward` consumes one block per layer (input-most first — the
/// [`betty_graph::Batch`] convention) and returns per-output-node logits.
pub trait GnnModel {
    /// Runs the model over the block stack.
    ///
    /// `input_feats` is `[blocks[0].num_src(), in_dim]`; the result is
    /// `[blocks.last().num_dst(), num_classes]`. `training` enables
    /// dropout, which draws masks from `rng`.
    fn forward(
        &self,
        sess: &mut Session,
        blocks: &[Block],
        input_feats: VarId,
        training: bool,
        rng: &mut dyn RngCore,
    ) -> VarId;

    /// All trainable parameters.
    fn params(&self) -> Vec<&Param>;

    /// Mutable access to all trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Visits every trainable parameter mutably, in [`GnnModel::params_mut`]
    /// order, without materializing the parameter list — the training hot
    /// path calls this every micro-batch, so built-in models override it
    /// with an allocation-free walk.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Number of GNN layers (= blocks consumed per forward).
    fn num_layers(&self) -> usize;

    /// Raw input feature dimension.
    fn in_dim(&self) -> usize;

    /// Hidden width.
    fn hidden_dim(&self) -> usize;

    /// Output class count.
    fn num_classes(&self) -> usize;

    /// Runs a single layer over one block (inference mode: activation
    /// applied for non-final layers, no dropout). Enables exact layer-wise
    /// full-graph inference, where layer `i` finishes on every node before
    /// layer `i + 1` starts.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= num_layers()`.
    fn forward_layer(
        &self,
        sess: &mut Session,
        layer: usize,
        block: &Block,
        src_feats: VarId,
    ) -> VarId;

    /// Scalar parameter count excluding aggregators (`NP_GNN`, Table 3).
    fn gnn_param_count(&self) -> usize;

    /// Scalar parameter count of aggregators (`NP_Agg`, Table 3).
    fn agg_param_count(&self) -> usize;

    /// Total scalar parameter count.
    fn total_param_count(&self) -> usize {
        self.gnn_param_count() + self.agg_param_count()
    }
}

fn dropout(sess: &mut Session, x: VarId, p: f32, training: bool, rng: &mut dyn RngCore) -> VarId {
    if !training || p <= 0.0 {
        return x;
    }
    let shape = sess.graph.value(x).shape().to_vec();
    let len: usize = shape.iter().product();
    let mask_data: Vec<f32> = (0..len)
        .map(|_| if rng.gen::<f32>() < p { 0.0 } else { 1.0 })
        .collect();
    let mask = Tensor::from_vec(mask_data, &shape).expect("mask shape");
    sess.graph.dropout_with_mask(x, &mask, p)
}

/// Multi-layer GraphSAGE (the paper's primary model).
#[derive(Debug, Clone)]
pub struct GraphSage {
    layers: Vec<SageConv>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    dropout_p: f32,
}

impl GraphSage {
    /// Builds an `num_layers`-deep GraphSAGE: `in_dim → hidden…hidden →
    /// num_classes`, ReLU + dropout between layers.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        aggregator: AggregatorSpec,
        dropout_p: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        let mut layers = Vec::with_capacity(num_layers);
        for i in 0..num_layers {
            let li = if i == 0 { in_dim } else { hidden_dim };
            let lo = if i + 1 == num_layers { num_classes } else { hidden_dim };
            layers.push(SageConv::new(li, lo, aggregator, rng));
        }
        Self {
            layers,
            in_dim,
            hidden_dim,
            num_classes,
            dropout_p,
        }
    }

    /// The aggregator used by every layer.
    pub fn aggregator_spec(&self) -> AggregatorSpec {
        self.layers[0].aggregator_spec()
    }
}

impl GnnModel for GraphSage {
    fn forward(
        &self,
        sess: &mut Session,
        blocks: &[Block],
        input_feats: VarId,
        training: bool,
        rng: &mut dyn RngCore,
    ) -> VarId {
        assert_eq!(
            blocks.len(),
            self.layers.len(),
            "model expects {} blocks, got {}",
            self.layers.len(),
            blocks.len()
        );
        let mut h = input_feats;
        for (i, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            let hidden = i + 1 < self.layers.len();
            h = layer.forward(sess, block, h, hidden);
            if hidden {
                h = dropout(sess, h, self.dropout_p, training, rng);
            }
        }
        h
    }

    fn forward_layer(
        &self,
        sess: &mut Session,
        layer: usize,
        block: &Block,
        src_feats: VarId,
    ) -> VarId {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        self.layers[layer].forward(sess, block, src_feats, layer + 1 < self.layers.len())
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(SageConv::params).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(SageConv::params_mut).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param_mut(f);
        }
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn gnn_param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(SageConv::gnn_params)
            .map(Param::len)
            .sum()
    }

    fn agg_param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(SageConv::aggregator_params)
            .map(Param::len)
            .sum()
    }
}

/// Multi-layer GCN (Kipf & Welling) with self-loop right normalization;
/// ReLU + dropout between layers.
#[derive(Debug, Clone)]
pub struct Gcn {
    layers: Vec<GcnConv>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    dropout_p: f32,
}

impl Gcn {
    /// Builds an `num_layers`-deep GCN: `in_dim → hidden…hidden →
    /// num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        dropout_p: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        let mut layers = Vec::with_capacity(num_layers);
        for i in 0..num_layers {
            let li = if i == 0 { in_dim } else { hidden_dim };
            let lo = if i + 1 == num_layers { num_classes } else { hidden_dim };
            layers.push(GcnConv::new(li, lo, rng));
        }
        Self {
            layers,
            in_dim,
            hidden_dim,
            num_classes,
            dropout_p,
        }
    }
}

impl GnnModel for Gcn {
    fn forward(
        &self,
        sess: &mut Session,
        blocks: &[Block],
        input_feats: VarId,
        training: bool,
        rng: &mut dyn RngCore,
    ) -> VarId {
        assert_eq!(
            blocks.len(),
            self.layers.len(),
            "model expects {} blocks, got {}",
            self.layers.len(),
            blocks.len()
        );
        let mut h = input_feats;
        for (i, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            let hidden = i + 1 < self.layers.len();
            h = layer.forward(sess, block, h, hidden);
            if hidden {
                h = dropout(sess, h, self.dropout_p, training, rng);
            }
        }
        h
    }

    fn forward_layer(
        &self,
        sess: &mut Session,
        layer: usize,
        block: &Block,
        src_feats: VarId,
    ) -> VarId {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        self.layers[layer].forward(sess, block, src_feats, layer + 1 < self.layers.len())
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(GcnConv::params).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(GcnConv::params_mut).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param_mut(f);
        }
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn gnn_param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    fn agg_param_count(&self) -> usize {
        0
    }
}

/// Multi-layer GIN (sum aggregation + per-layer MLP with learnable ε);
/// ReLU + dropout between layers.
#[derive(Debug, Clone)]
pub struct Gin {
    layers: Vec<GinConv>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    dropout_p: f32,
}

impl Gin {
    /// Builds an `num_layers`-deep GIN: each layer's MLP is
    /// `hidden_dim`-wide.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        dropout_p: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        let mut layers = Vec::with_capacity(num_layers);
        for i in 0..num_layers {
            let li = if i == 0 { in_dim } else { hidden_dim };
            let lo = if i + 1 == num_layers { num_classes } else { hidden_dim };
            layers.push(GinConv::new(li, hidden_dim, lo, rng));
        }
        Self {
            layers,
            in_dim,
            hidden_dim,
            num_classes,
            dropout_p,
        }
    }
}

impl GnnModel for Gin {
    fn forward(
        &self,
        sess: &mut Session,
        blocks: &[Block],
        input_feats: VarId,
        training: bool,
        rng: &mut dyn RngCore,
    ) -> VarId {
        assert_eq!(
            blocks.len(),
            self.layers.len(),
            "model expects {} blocks, got {}",
            self.layers.len(),
            blocks.len()
        );
        let mut h = input_feats;
        for (i, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            let hidden = i + 1 < self.layers.len();
            h = layer.forward(sess, block, h, hidden);
            if hidden {
                h = dropout(sess, h, self.dropout_p, training, rng);
            }
        }
        h
    }

    fn forward_layer(
        &self,
        sess: &mut Session,
        layer: usize,
        block: &Block,
        src_feats: VarId,
    ) -> VarId {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        self.layers[layer].forward(sess, block, src_feats, layer + 1 < self.layers.len())
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(GinConv::params).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(GinConv::params_mut).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param_mut(f);
        }
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn gnn_param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    fn agg_param_count(&self) -> usize {
        0
    }
}

/// Multi-layer GAT: hidden layers concatenate heads, the output layer
/// averages them; ELU + dropout between layers.
#[derive(Debug, Clone)]
pub struct Gat {
    layers: Vec<GatConv>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    num_heads: usize,
    dropout_p: f32,
}

impl Gat {
    /// Builds an `num_layers`-deep GAT. `hidden_dim` is the *total* hidden
    /// width (split across `num_heads` heads).
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0` or `hidden_dim` is not divisible by
    /// `num_heads`.
    pub fn new(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        num_heads: usize,
        dropout_p: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        assert!(
            hidden_dim.is_multiple_of(num_heads),
            "hidden_dim {hidden_dim} must divide into {num_heads} heads"
        );
        let head_dim = hidden_dim / num_heads;
        let mut layers = Vec::with_capacity(num_layers);
        for i in 0..num_layers {
            let li = if i == 0 { in_dim } else { hidden_dim };
            if i + 1 == num_layers {
                layers.push(GatConv::new(li, num_classes, num_heads, HeadMerge::Mean, rng));
            } else {
                layers.push(GatConv::new(li, head_dim, num_heads, HeadMerge::Concat, rng));
            }
        }
        Self {
            layers,
            in_dim,
            hidden_dim,
            num_classes,
            num_heads,
            dropout_p,
        }
    }

    /// Attention heads per layer.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }
}

impl GnnModel for Gat {
    fn forward(
        &self,
        sess: &mut Session,
        blocks: &[Block],
        input_feats: VarId,
        training: bool,
        rng: &mut dyn RngCore,
    ) -> VarId {
        assert_eq!(
            blocks.len(),
            self.layers.len(),
            "model expects {} blocks, got {}",
            self.layers.len(),
            blocks.len()
        );
        let mut h = input_feats;
        for (i, (layer, block)) in self.layers.iter().zip(blocks).enumerate() {
            h = layer.forward(sess, block, h);
            if i + 1 < self.layers.len() {
                h = sess.graph.elu(h, 1.0);
                h = dropout(sess, h, self.dropout_p, training, rng);
            }
        }
        h
    }

    fn forward_layer(
        &self,
        sess: &mut Session,
        layer: usize,
        block: &Block,
        src_feats: VarId,
    ) -> VarId {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        let h = self.layers[layer].forward(sess, block, src_feats);
        if layer + 1 < self.layers.len() {
            sess.graph.elu(h, 1.0)
        } else {
            h
        }
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(GatConv::params).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(GatConv::params_mut).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param_mut(f);
        }
    }

    fn num_layers(&self) -> usize {
        self.layers.len()
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn gnn_param_count(&self) -> usize {
        // GAT's attention vectors are integral to the layer, not a
        // detachable aggregator; all parameters count as GNN parameters.
        self.params().iter().map(|p| p.len()).sum()
    }

    fn agg_param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::Batch;
    use betty_tensor::Reduction;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(77)
    }

    fn two_layer_batch() -> Batch {
        let top = Block::new(vec![0, 1], &[(2, 0), (3, 1)]);
        let bottom = Block::new(top.src_globals().to_vec(), &[(4, 2), (5, 3), (4, 0)]);
        Batch::new(vec![bottom, top])
    }

    #[test]
    fn sage_forward_shapes() {
        let model = GraphSage::new(3, 8, 4, 2, AggregatorSpec::Mean, 0.0, &mut rng());
        let batch = two_layer_batch();
        let mut sess = Session::new();
        let n_in = batch.input_nodes().len();
        let x = sess.graph.leaf(Tensor::ones(&[n_in, 3]));
        let y = model.forward(&mut sess, batch.blocks(), x, false, &mut rng());
        assert_eq!(sess.graph.value(y).shape(), &[2, 4]);
    }

    #[test]
    fn sage_param_counts() {
        let model = GraphSage::new(3, 8, 4, 2, AggregatorSpec::Mean, 0.0, &mut rng());
        // Layer 0: self (3·8 + 8) + neigh (3·8 + 8) = 64; layer 1:
        // (8·4 + 4)·2 = 72 → 136 total, no aggregator params.
        assert_eq!(model.gnn_param_count(), 136);
        assert_eq!(model.agg_param_count(), 0);
        let lstm = GraphSage::new(3, 8, 4, 2, AggregatorSpec::Lstm, 0.0, &mut rng());
        assert!(lstm.agg_param_count() > 0);
        assert_eq!(lstm.total_param_count(), lstm.gnn_param_count() + lstm.agg_param_count());
    }

    #[test]
    fn gat_forward_shapes() {
        let model = Gat::new(3, 8, 4, 2, 2, 0.0, &mut rng());
        let batch = two_layer_batch();
        let mut sess = Session::new();
        let n_in = batch.input_nodes().len();
        let x = sess.graph.leaf(Tensor::ones(&[n_in, 3]));
        let y = model.forward(&mut sess, batch.blocks(), x, false, &mut rng());
        assert_eq!(sess.graph.value(y).shape(), &[2, 4]);
    }

    #[test]
    fn training_step_reduces_loss() {
        use crate::{Adam, Optimizer};
        let mut model = GraphSage::new(3, 8, 2, 2, AggregatorSpec::Mean, 0.0, &mut rng());
        let batch = two_layer_batch();
        let n_in = batch.input_nodes().len();
        let feats = betty_tensor::randn(&[n_in, 3], &mut Pcg64Mcg::seed_from_u64(4));
        let targets = [0usize, 1];
        let mut opt = Adam::new(0.05);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let mut sess = Session::new();
            let x = sess.graph.leaf(feats.clone());
            let logits = model.forward(&mut sess, batch.blocks(), x, true, &mut rng());
            let loss = sess.graph.cross_entropy(logits, &targets, Reduction::Mean);
            losses.push(sess.graph.value(loss).item());
            crate::optim::zero_grads(&mut model.params_mut());
            sess.backward(loss, &mut model);
            opt.step(&mut model.params_mut());
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {losses:?}"
        );
    }

    #[test]
    fn dropout_changes_training_output_only() {
        let model = GraphSage::new(3, 8, 2, 2, AggregatorSpec::Mean, 0.5, &mut rng());
        let batch = two_layer_batch();
        let n_in = batch.input_nodes().len();
        let feats = Tensor::ones(&[n_in, 3]);
        let run = |training: bool, seed: u64| -> Tensor {
            let mut sess = Session::new();
            let x = sess.graph.leaf(feats.clone());
            let y = model.forward(
                &mut sess,
                batch.blocks(),
                x,
                training,
                &mut Pcg64Mcg::seed_from_u64(seed),
            );
            sess.graph.value(y).clone()
        };
        // Inference is deterministic regardless of rng.
        assert_eq!(run(false, 1), run(false, 2));
        // Training with different masks differs (overwhelmingly likely).
        assert_ne!(run(true, 1), run(true, 2));
    }
}
