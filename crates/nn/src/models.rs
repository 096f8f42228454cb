use betty_graph::Block;
use betty_tensor::{Tensor, VarId};
use rand::{Rng, RngCore};

use crate::gat::HeadMerge;
use crate::{AggregatorSpec, GatConv, GcnConv, GinConv, Param, Params, SageConv, Session};

/// One GNN layer: a block's source features in, its destination features
/// out.
pub(crate) trait Conv: Params {
    /// Applies the layer over `block` to source features
    /// `[block.num_src(), in_dim]`, producing `[block.num_dst(), out_dim]`.
    /// A `hidden` layer (every one but a model's last) ends in its
    /// activation — ReLU, or ELU for attention.
    fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId, hidden: bool) -> VarId;

    /// Scalar parameter count of the layer's aggregator (`NP_Agg`,
    /// Table 3); every other parameter is a GNN parameter (`NP_GNN`).
    fn agg_param_count(&self) -> usize {
        0
    }
}

/// A multi-layer GNN usable by the Betty trainer.
///
/// `forward` consumes one block per layer (input-most first — the
/// [`betty_graph::Batch`] convention) and returns per-output-node logits.
/// Parameters are walked in one fixed order ([`GnnModel::visit`]), which
/// the optimizer's moments, checkpoints and gradient accumulation share.
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

    /// Visits every trainable parameter, layer by layer.
    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param));

    /// Visits every trainable parameter mutably, in [`GnnModel::visit`]
    /// order.
    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param));

    /// Number of GNN layers (= blocks consumed per forward).
    fn num_layers(&self) -> usize;

    /// Raw input feature dimension.
    fn in_dim(&self) -> usize;

    /// Hidden width.
    fn hidden_dim(&self) -> usize;

    /// Output class count.
    fn num_classes(&self) -> usize;

    /// Scalar parameter count of aggregators (`NP_Agg`, Table 3).
    fn agg_param_count(&self) -> usize;

    /// All trainable parameters.
    fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        self.visit(&mut |p| out.push(p));
        out
    }

    /// Mutable access to all trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        self.visit_mut(&mut |p| out.push(p));
        out
    }

    /// Visits every trainable parameter mutably without materializing the
    /// parameter list — the training hot path's walk, every micro-batch.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_mut(&mut |p| f(p));
    }

    /// Total scalar parameter count.
    fn total_param_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |p| n += p.len());
        n
    }

    /// Scalar parameter count excluding aggregators (`NP_GNN`, Table 3).
    fn gnn_param_count(&self) -> usize {
        self.total_param_count() - self.agg_param_count()
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

/// A multi-layer GNN: `in_dim → hidden…hidden → num_classes`, one `Conv`
/// per block, dropout after every layer but the last.
#[derive(Debug, Clone)]
pub struct Stack<C> {
    layers: Vec<C>,
    in_dim: usize,
    hidden_dim: usize,
    num_classes: usize,
    dropout_p: f32,
}

/// Multi-layer GraphSAGE (the paper's primary model).
pub type GraphSage = Stack<SageConv>;
/// Multi-layer GCN (Kipf & Welling) with self-loop right normalization.
pub type Gcn = Stack<GcnConv>;
/// Multi-layer GIN (sum aggregation + per-layer MLP with learnable ε).
pub type Gin = Stack<GinConv>;
/// Multi-layer GAT: hidden layers concatenate heads, the output layer
/// averages them.
pub type Gat = Stack<GatConv>;

impl<C> Stack<C> {
    /// Builds layer `i` as `layer(in_dim, out_dim, last)`, input-most first.
    fn build(
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        dropout_p: f32,
        mut layer: impl FnMut(usize, usize, bool) -> C,
    ) -> Self {
        assert!(num_layers > 0, "at least one layer required");
        let layers = (0..num_layers)
            .map(|i| {
                let last = i + 1 == num_layers;
                let li = if i == 0 { in_dim } else { hidden_dim };
                layer(li, if last { num_classes } else { hidden_dim }, last)
            })
            .collect();
        Self {
            layers,
            in_dim,
            hidden_dim,
            num_classes,
            dropout_p,
        }
    }
}

impl GraphSage {
    /// Builds an `num_layers`-deep GraphSAGE with `aggregator` in every
    /// layer.
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
        Self::build(
            in_dim,
            hidden_dim,
            num_classes,
            num_layers,
            dropout_p,
            |i, o, _| SageConv::new(i, o, aggregator, rng),
        )
    }
}

impl Gcn {
    /// Builds an `num_layers`-deep GCN.
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
        Self::build(
            in_dim,
            hidden_dim,
            num_classes,
            num_layers,
            dropout_p,
            |i, o, _| GcnConv::new(i, o, rng),
        )
    }
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
        Self::build(
            in_dim,
            hidden_dim,
            num_classes,
            num_layers,
            dropout_p,
            |i, o, _| GinConv::new(i, hidden_dim, o, rng),
        )
    }
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
        assert!(
            hidden_dim.is_multiple_of(num_heads),
            "hidden_dim {hidden_dim} must divide into {num_heads} heads"
        );
        Self::build(
            in_dim,
            hidden_dim,
            num_classes,
            num_layers,
            dropout_p,
            |i, o, last| {
                if last {
                    GatConv::new(i, o, num_heads, HeadMerge::Mean, rng)
                } else {
                    GatConv::new(i, hidden_dim / num_heads, num_heads, HeadMerge::Concat, rng)
                }
            },
        )
    }
}

impl<C: Conv> GnnModel for Stack<C> {
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

    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        for layer in &self.layers {
            layer.visit(f);
        }
    }

    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        for layer in &mut self.layers {
            layer.visit_mut(f);
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

    fn agg_param_count(&self) -> usize {
        self.layers.iter().map(C::agg_param_count).sum()
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
        assert_eq!(
            lstm.total_param_count(),
            lstm.gnn_param_count() + lstm.agg_param_count()
        );
    }

    /// One model of every kind the runner builds: GraphSAGE with each
    /// aggregator, then GAT, GCN and GIN.
    fn every_kind(seed: u64) -> Vec<(&'static str, Box<dyn GnnModel>)> {
        let mut r = Pcg64Mcg::seed_from_u64(seed);
        let mut kinds: Vec<(&'static str, Box<dyn GnnModel>)> = Vec::new();
        for spec in [
            AggregatorSpec::Mean,
            AggregatorSpec::Sum,
            AggregatorSpec::Pool,
            AggregatorSpec::Lstm,
        ] {
            kinds.push((
                spec.name(),
                Box::new(GraphSage::new(3, 8, 4, 2, spec, 0.0, &mut r)),
            ));
        }
        kinds.push(("gat", Box::new(Gat::new(3, 8, 4, 2, 2, 0.0, &mut r))));
        kinds.push(("gcn", Box::new(Gcn::new(3, 8, 4, 2, 0.0, &mut r))));
        kinds.push(("gin", Box::new(Gin::new(3, 8, 4, 2, 0.0, &mut r))));
        kinds
    }

    /// Every walk of every kind yields one parameter order, the Table 3
    /// split adds up (aggregator parameters only where there is an
    /// aggregator to own them), and a checkpoint of one model restores
    /// into a fresh one of its kind exactly.
    #[test]
    fn every_kind_walks_one_order_and_round_trips() {
        use crate::TrainState;
        for ((name, mut model), (_, mut fresh)) in every_kind(1).into_iter().zip(every_kind(2)) {
            let ids: Vec<u64> = model.params().iter().map(|p| p.id()).collect();
            let ids_mut: Vec<u64> = model.params_mut().iter().map(|p| p.id()).collect();
            let mut walked = Vec::new();
            model.for_each_param_mut(&mut |p| walked.push(p.id()));
            assert_eq!(ids_mut, ids, "{name}");
            assert_eq!(walked, ids, "{name}");

            let total: usize = model.params().iter().map(|p| p.len()).sum();
            assert_eq!(model.total_param_count(), total, "{name}");
            assert_eq!(
                model.gnn_param_count() + model.agg_param_count(),
                total,
                "{name}"
            );
            assert_eq!(
                model.agg_param_count() > 0,
                matches!(name, "pool" | "lstm"),
                "{name}"
            );

            let state = TrainState::from_model(model.as_ref());
            assert_ne!(
                TrainState::from_model(fresh.as_ref()),
                state,
                "{name}: same values"
            );
            state.apply_params(fresh.as_mut()).unwrap();
            assert_eq!(TrainState::from_model(fresh.as_ref()), state, "{name}");
        }
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
            model.for_each_param_mut(&mut |p| p.zero_grad());
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
