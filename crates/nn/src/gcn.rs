use betty_graph::Block;
use betty_tensor::VarId;
use rand::Rng;

use crate::{Linear, Param, Session};

/// A graph convolution layer (Kipf & Welling) adapted to sampled bipartite
/// blocks.
///
/// Uses self-loop-augmented *right* normalization — every destination
/// averages itself together with its sampled neighbors:
///
/// ```text
/// h'_v = W · ( (h_v + Σ_{u→v} h_u) / (deg(v) + 1) ) + b
/// ```
///
/// (Symmetric normalization needs global degrees, which sampled blocks do
/// not carry; right normalization is the standard mini-batch adaptation.)
/// Aggregation runs on the weighted fused kernel: no `[E, d]` message
/// tensor is materialized.
#[derive(Debug, Clone)]
pub struct GcnConv {
    linear: Linear,
}

impl GcnConv {
    /// A layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            linear: Linear::new(in_dim, out_dim, rng),
        }
    }

    /// Applies the layer over `block`, producing
    /// `[block.num_dst(), out_dim]`, passed through a ReLU when `relu`
    /// (every layer but a model's last).
    pub fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId, relu: bool) -> VarId {
        let n_dst = block.num_dst();
        // Edges plus one self-loop per destination, all weighted
        // 1 / (deg + 1); dst-first source ordering makes the self index
        // equal the dst index.
        let n_edges = block.num_edges();
        let mut gather = Vec::with_capacity(n_edges + n_dst);
        let mut seg = Vec::with_capacity(n_edges + n_dst);
        let mut weights = Vec::with_capacity(n_edges + n_dst);
        for d in 0..n_dst {
            let inv = 1.0 / (block.in_degree(d) + 1) as f32;
            gather.push(d);
            seg.push(d);
            weights.push(inv);
            for &s in block.in_edges(d) {
                gather.push(s as usize);
                seg.push(d);
                weights.push(inv);
            }
        }
        let agg = sess
            .graph
            .fused_neighbor_weighted_sum(src_feats, &gather, &seg, &weights, n_dst);
        self.linear.forward_act(sess, agg, relu)
    }

    /// The layer's parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.linear.params()
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.linear.params_mut()
    }

    /// Visits the layer's parameters without materializing a list.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.linear.for_each_param_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_tensor::{Reduction, Tensor};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(44)
    }

    fn block() -> Block {
        Block::new(vec![0, 1], &[(2, 0), (3, 0), (3, 1)])
    }

    #[test]
    fn output_shape() {
        let layer = GcnConv::new(3, 5, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut sess, &block(), x, false);
        assert_eq!(sess.graph.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn normalization_is_convex_combination() {
        // With identical source features, the normalized aggregate equals
        // the shared feature for every destination regardless of degree.
        let layer = GcnConv::new(2, 2, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::full(&[4, 2], 3.0));
        let y = layer.forward(&mut sess, &block(), x, false);
        let v = sess.graph.value(y);
        assert!(
            v.row(0).iter().zip(v.row(1)).all(|(a, b)| (a - b).abs() < 1e-5),
            "degree must not change a convex combination of equal inputs"
        );
    }

    #[test]
    fn isolated_destination_keeps_self_features() {
        let b = Block::new(vec![0, 1], &[(2, 0)]); // dst 1 isolated
        let layer = GcnConv::new(2, 2, &mut rng());
        let mut sess = Session::new();
        let feats =
            Tensor::from_vec(vec![0.0, 0.0, 5.0, 5.0, 1.0, 1.0], &[3, 2]).unwrap();
        let x = sess.graph.leaf(feats);
        let y = layer.forward(&mut sess, &b, x, false);
        // dst 1 aggregates only itself (5,5); dst 0 averages (0,0) & (1,1).
        // With a shared linear map, outputs must differ.
        let v = sess.graph.value(y);
        assert_ne!(v.row(0), v.row(1));
    }

    #[test]
    fn gradients_flow() {
        let mut layer = GcnConv::new(2, 3, &mut rng());
        let mut sess = Session::new();
        let x = sess
            .graph
            .leaf(betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(5)));
        let y = layer.forward(&mut sess, &block(), x, false);
        let loss = sess.graph.cross_entropy(y, &[0, 1], Reduction::Mean);
        sess.graph.backward(loss);
        assert!(sess.graph.grad(x).unwrap().max_abs() > 0.0);
        for p in layer.params_mut() {
            let var = sess.bind(p);
            assert!(sess.graph.grad(var).is_some());
        }
    }

    #[test]
    fn gcn_gradcheck() {
        let b = block();
        let layer = GcnConv::new(2, 2, &mut rng());
        let input = betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(6));
        let res = betty_tensor::check::check_gradient(&input, |g, x| {
            let mut sess = Session::from_graph(std::mem::take(g));
            let out = layer.forward(&mut sess, &b, x, false);
            let t = sess.graph.tanh(out);
            let loss = sess.graph.sum(t);
            *g = sess.into_graph();
            loss
        });
        assert!(res.passes(2e-2), "{res:?}");
    }
}
