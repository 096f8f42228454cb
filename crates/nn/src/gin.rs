use betty_graph::Block;
use betty_tensor::{Tensor, VarId};
use rand::Rng;

use crate::{Linear, Param, Session};

/// A Graph Isomorphism Network layer (Xu et al., "How Powerful are Graph
/// Neural Networks?" — reference [41] of the paper).
///
/// ```text
/// h'_v = MLP( (1 + ε) · h_v + Σ_{u→v} h_u )
/// ```
///
/// with a learnable `ε` and a two-layer MLP. Sum aggregation runs on the
/// fused kernel (no `[E, d]` messages).
#[derive(Debug, Clone)]
pub struct GinConv {
    eps: Param,
    fc1: Linear,
    fc2: Linear,
}

impl GinConv {
    /// A layer mapping `in_dim → out_dim` through a `hidden`-wide MLP.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            eps: Param::new(Tensor::zeros(&[1])),
            fc1: Linear::new(in_dim, hidden, rng),
            fc2: Linear::new(hidden, out_dim, rng),
        }
    }

    /// Applies the layer over `block`, producing
    /// `[block.num_dst(), out_dim]`, passed through a ReLU when `relu`
    /// (every layer but a model's last).
    pub fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId, relu: bool) -> VarId {
        let edge_src: Vec<usize> = block.edge_src_locals().iter().map(|&s| s as usize).collect();
        let edge_dst: Vec<usize> = block.edge_dst_locals().iter().map(|&d| d as usize).collect();
        let n_dst = block.num_dst();

        let neigh_sum = sess
            .graph
            .fused_neighbor_sum(src_feats, &edge_src, &edge_dst, n_dst);
        // (1 + ε) · h_dst with learnable ε.
        let self_idx: Vec<usize> = (0..n_dst).collect();
        let h_dst = sess.graph.gather_rows(src_feats, &self_idx);
        let eps = sess.bind(&self.eps);
        let one = sess.graph.leaf(Tensor::from_slice(&[1.0]));
        let one_plus_eps = sess.graph.add(one, eps);
        let scaled_self = sess.graph.mul_scalar_var(h_dst, one_plus_eps);
        let combined = sess.graph.add(scaled_self, neigh_sum);

        let hidden = self.fc1.forward_act(sess, combined, true);
        self.fc2.forward_act(sess, hidden, relu)
    }

    /// Current ε value.
    pub fn epsilon(&self) -> f32 {
        self.eps.value().item()
    }

    /// The layer's parameters (ε plus both MLP layers).
    pub fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.eps];
        p.extend(self.fc1.params());
        p.extend(self.fc2.params());
        p
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.eps];
        p.extend(self.fc1.params_mut());
        p.extend(self.fc2.params_mut());
        p
    }

    /// Visits the layer's parameters without materializing a list.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.eps);
        self.fc1.for_each_param_mut(f);
        self.fc2.for_each_param_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_tensor::Reduction;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(55)
    }

    fn block() -> Block {
        Block::new(vec![0, 1], &[(2, 0), (3, 0), (3, 1)])
    }

    #[test]
    fn output_shape_and_param_count() {
        let layer = GinConv::new(3, 8, 5, &mut rng());
        assert_eq!(layer.params().len(), 5); // eps + 2×(W, b)
        assert_eq!(layer.epsilon(), 0.0);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut sess, &block(), x, false);
        assert_eq!(sess.graph.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn epsilon_receives_gradient() {
        let mut layer = GinConv::new(2, 4, 2, &mut rng());
        let mut sess = Session::new();
        let x = sess
            .graph
            .leaf(betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(1)));
        let y = layer.forward(&mut sess, &block(), x, false);
        let loss = sess.graph.cross_entropy(y, &[0, 1], Reduction::Mean);
        sess.graph.backward(loss);
        for (i, p) in layer.params_mut().into_iter().enumerate() {
            let var = sess.bind(p);
            assert!(sess.graph.grad(var).is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn gin_gradcheck() {
        let b = block();
        let layer = GinConv::new(2, 4, 2, &mut rng());
        let input = betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(2));
        let res = betty_tensor::check::check_gradient(&input, |g, x| {
            let mut sess = Session::from_graph(std::mem::take(g));
            let out = layer.forward(&mut sess, &b, x, false);
            let t = sess.graph.tanh(out);
            let loss = sess.graph.sum(t);
            *g = sess.into_graph();
            loss
        });
        assert!(res.passes(3e-2), "{res:?}");
    }

    #[test]
    fn sum_aggregation_distinguishes_multisets() {
        // GIN's selling point: dst with neighbors {2, 2} differs from dst
        // with {2} (sum, not mean).
        let b = Block::new(vec![0, 1], &[(2, 0), (2, 0), (2, 1)]);
        let layer = GinConv::new(2, 4, 2, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0], &[3, 2]).unwrap(),
        );
        let y = layer.forward(&mut sess, &b, x, false);
        let v = sess.graph.value(y);
        assert_ne!(v.row(0), v.row(1));
    }
}
