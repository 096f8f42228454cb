use betty_graph::Block;
use betty_tensor::VarId;
use rand::Rng;

use crate::{Aggregator, AggregatorSpec, Conv, Linear, Param, Params, Session};

/// One GraphSAGE convolution layer (Hamilton et al., the paper's primary
/// model).
///
/// `out = act(fc_self(h_dst) + fc_neigh(aggregate(h_src)))` — the DGL
/// `SAGEConv` formulation, with the enclosing model's activation folded
/// in: past the aggregator the layer is one fused affine op, so its tape
/// holds the aggregate and the output and nothing in between.
#[derive(Debug, Clone)]
pub struct SageConv {
    fc_self: Linear,
    fc_neigh: Linear,
    aggregator: Aggregator,
}

impl SageConv {
    /// A layer mapping `in_dim → out_dim` with the given aggregator.
    pub(crate) fn new(in_dim: usize, out_dim: usize, spec: AggregatorSpec, rng: &mut impl Rng) -> Self {
        Self {
            fc_self: Linear::new(in_dim, out_dim, rng),
            fc_neigh: Linear::new(in_dim, out_dim, rng),
            aggregator: Aggregator::new(spec, in_dim, rng),
        }
    }
}

impl Conv for SageConv {
    fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId, hidden: bool) -> VarId {
        let h_neigh = self.aggregator.forward(sess, block, src_feats);
        // Destination self-features are the first num_dst source rows
        // (the Block construction guarantees this ordering): the self
        // term reads them where they lie.
        let terms = [
            self.fc_self.term(sess, src_feats),
            self.fc_neigh.term(sess, h_neigh),
        ];
        sess.graph.affine(&terms, block.num_dst(), hidden)
    }

    /// The aggregator's parameters are `NP_Agg` (Table 3); the two linear
    /// maps are the GNN parameters.
    fn agg_param_count(&self) -> usize {
        self.aggregator.num_params()
    }
}

impl Params for SageConv {
    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        self.fc_self.visit(f);
        self.fc_neigh.visit(f);
        self.aggregator.visit(f);
    }

    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.fc_self.visit_mut(f);
        self.fc_neigh.visit_mut(f);
        self.aggregator.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::tests::ParamList;
    use betty_tensor::{Reduction, Tensor};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(21)
    }

    fn block() -> Block {
        Block::new(vec![0, 1], &[(2, 0), (3, 0), (2, 1)])
    }

    #[test]
    fn output_shape() {
        let layer = SageConv::new(3, 5, AggregatorSpec::Mean, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut sess, &block(), x, false);
        assert_eq!(sess.graph.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn param_split_gnn_vs_aggregator() {
        let mean = SageConv::new(3, 5, AggregatorSpec::Mean, &mut rng());
        assert_eq!(mean.params().len(), 4);
        assert_eq!(mean.agg_param_count(), 0);
        let lstm = SageConv::new(3, 5, AggregatorSpec::Lstm, &mut rng());
        assert_eq!(lstm.params().len(), 6);
        // The cell's [(3 + 3), 12] gate weight and 12 biases.
        assert_eq!(lstm.agg_param_count(), 6 * 12 + 12);
        assert_eq!(lstm.num_params() - lstm.agg_param_count(), 2 * (3 * 5 + 5));
    }

    #[test]
    fn all_params_get_gradients() {
        for spec in [
            AggregatorSpec::Mean,
            AggregatorSpec::Sum,
            AggregatorSpec::Pool,
            AggregatorSpec::Lstm,
        ] {
            let mut layer = SageConv::new(2, 3, spec, &mut rng());
            let mut sess = Session::new();
            let x = sess.graph.leaf(betty_tensor::randn(
                &[4, 2],
                &mut Pcg64Mcg::seed_from_u64(3),
            ));
            let y = layer.forward(&mut sess, &block(), x, false);
            let loss = sess.graph.cross_entropy(y, &[0, 1], Reduction::Mean);
            sess.graph.backward(loss);
            for p in layer.params_mut() {
                let var = sess.bind(p);
                assert!(
                    sess.graph.grad(var).is_some(),
                    "{}: param missing grad",
                    spec.name()
                );
            }
        }
    }

    /// Past the aggregator a layer is one op: a SAGE-mean hidden layer
    /// tapes its four parameter leaves, the aggregate and the output —
    /// six nodes whatever the block — and the ledger grows by the
    /// aggregate `n_dst·d` and the output `n_dst·o` at the tape's width.
    #[test]
    fn mean_layer_tapes_the_aggregate_and_the_output_only() {
        use betty_tensor::DType;
        let (d, o) = (5, 3);
        let layer = SageConv::new(d, o, AggregatorSpec::Mean, &mut rng());
        let params: usize = layer.params().iter().map(|p| p.len()).sum();
        let wide = Block::new((0..7).collect(), &[(9, 0), (8, 3), (9, 3), (10, 6), (2, 6)]);
        for b in [block(), wide] {
            for dtype in [DType::F32, DType::Bf16, DType::F16] {
                let mut sess = Session::new();
                sess.graph.set_activation_dtype(dtype);
                let x = sess.graph.leaf(Tensor::ones(&[b.num_src(), d]));
                let (nodes, bytes) = (sess.graph.len(), sess.activation_bytes());
                layer.forward(&mut sess, &b, x, true);
                assert_eq!(sess.graph.len() - nodes, 6);
                let values = b.num_dst() * d + b.num_dst() * o;
                assert_eq!(
                    sess.activation_bytes() - bytes,
                    params * 4 + values * dtype.bytes_per_value(),
                    "{dtype}"
                );
            }
        }
    }

    #[test]
    fn self_features_matter() {
        // Two destinations with identical neighborhoods but different self
        // features must produce different outputs.
        let b = Block::new(vec![0, 1], &[(2, 0), (2, 1)]);
        let layer = SageConv::new(2, 2, AggregatorSpec::Mean, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5], &[3, 2]).unwrap(),
        );
        let y = layer.forward(&mut sess, &b, x, false);
        let v = sess.graph.value(y);
        assert_ne!(v.row(0), v.row(1));
    }
}
