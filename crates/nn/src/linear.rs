use betty_tensor::{glorot_uniform, AffineTerm, Tensor, VarId};
use rand::Rng;

use crate::{Param, Session};

/// A dense affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Glorot-initialized layer mapping `in_dim → out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(in_dim, out_dim, rng)),
            bias: Param::new(Tensor::zeros(&[out_dim])),
        }
    }

    /// Applies the layer to `[n, in_dim]` variable `x`: one tape node
    /// holding `x·W + b`.
    pub fn forward(&self, sess: &mut Session, x: VarId) -> VarId {
        self.forward_act(sess, x, false)
    }

    /// `x·W + b`, passed through a ReLU when `relu` — still one tape node:
    /// the pre-activation is never stored.
    pub fn forward_act(&self, sess: &mut Session, x: VarId, relu: bool) -> VarId {
        let rows = sess.graph.value(x).rows();
        let term = self.term(sess, x);
        sess.graph.affine(&[term], rows, relu)
    }

    /// This layer's `x·W + b` as one term of a wider
    /// [`betty_tensor::Graph::affine`] call, its parameters bound on `sess`.
    pub(crate) fn term(&self, sess: &mut Session, x: VarId) -> AffineTerm {
        AffineTerm {
            x,
            w: sess.bind(&self.weight),
            bias: Some(sess.bind(&self.bias)),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weight.value().rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weight.value().cols()
    }

    /// The layer's parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameter access.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    /// Visits both parameters without materializing a parameter list.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_tensor::Reduction;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = Pcg64Mcg::seed_from_u64(0);
        let l = Linear::new(3, 5, &mut rng);
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 5);
        assert_eq!(l.num_params(), 20);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[2, 3]));
        let y = l.forward(&mut sess, x);
        assert_eq!(sess.graph.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn gradient_flows_to_both_params() {
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        let l = Linear::new(2, 2, &mut rng);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 2]));
        let y = l.forward(&mut sess, x);
        let loss = sess.graph.cross_entropy(y, &[0, 1, 0, 1], Reduction::Mean);
        sess.graph.backward(loss);
        for p in l.params() {
            let var = sess.bind(p);
            let g = sess.graph.grad(var).expect("param gradient exists");
            assert!(g.max_abs() > 0.0, "zero gradient for a used param");
        }
    }
}
