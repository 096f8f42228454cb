use betty_tensor::{glorot_uniform, Tensor, VarId};
use rand::Rng;

use crate::{Param, Session};

/// A standard LSTM cell with fused gate weights.
///
/// Gates are computed as `[x ‖ h] · W + b` with `W : [(X + H), 4H]` sliced
/// into input/forget/cell/output gates. Used by the LSTM neighbor
/// aggregator, which runs the cell over each destination's neighbor
/// sequence (Fig. 1 of the paper).
#[derive(Debug, Clone)]
pub struct LstmCell {
    weight: Param,
    bias: Param,
    input_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// A cell with input width `input_dim` and state width `hidden_dim`.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(glorot_uniform(input_dim + hidden_dim, 4 * hidden_dim, rng)),
            bias: Param::new(Tensor::zeros(&[4 * hidden_dim])),
            input_dim,
            hidden_dim,
        }
    }

    /// State width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Runs the cell from zero state over `n` equal-length sequences at
    /// once and returns their final hidden states `[n, H]`: at step `t`
    /// sequence `r` consumes row `steps[t * n + r]` of `src` (`[_, X]`).
    /// One tape node, whatever the length
    /// ([`betty_tensor::Graph::lstm_sequence`]).
    pub fn sequence(&self, sess: &mut Session, src: VarId, steps: &[usize], n: usize) -> VarId {
        let w = sess.bind(&self.weight);
        let b = sess.bind(&self.bias);
        sess.graph.lstm_sequence(src, steps, n, w, b)
    }

    /// The cell's parameters.
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
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn cell(seed: u64, x: usize, h: usize) -> LstmCell {
        LstmCell::new(x, h, &mut Pcg64Mcg::seed_from_u64(seed))
    }

    #[test]
    fn sequence_shapes() {
        let c = cell(0, 3, 4);
        assert_eq!(c.num_params(), (3 + 4) * 16 + 16);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[5, 3]));
        let h = c.sequence(&mut sess, x, &[0, 1, 2, 3, 4, 4, 3, 2, 1, 0], 5);
        assert_eq!(sess.graph.value(h).shape(), &[5, 4]);
    }

    #[test]
    fn outputs_bounded_by_tanh_sigmoid() {
        let c = cell(1, 2, 3);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::full(&[2, 2], 10.0));
        let h = c.sequence(&mut sess, x, &[0, 1, 0, 1, 0, 1, 0, 1, 0, 1], 2);
        let hv = sess.graph.value(h);
        assert!(hv.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(hv.all_finite());
    }

    #[test]
    fn gradients_flow_through_every_step() {
        let c = cell(2, 2, 2);
        let mut sess = Session::new();
        let x = sess
            .graph
            .leaf(Tensor::from_vec(vec![0.5, -0.5, 0.25, 1.0, -1.0, 0.75], &[3, 2]).unwrap());
        let h = c.sequence(&mut sess, x, &[0, 1, 2], 1);
        let loss = sess.graph.sum(h);
        sess.graph.backward(loss);
        let w = sess.bind(&c.params()[0].clone());
        let grad = sess.graph.grad(w).expect("weight gradient");
        assert!(grad.max_abs() > 0.0);
        assert!(grad.all_finite());
        // Every step's input row receives gradient, the first included.
        let dx = sess.graph.grad(x).unwrap();
        for r in 0..3 {
            assert!(dx.row(r).iter().any(|&v| v != 0.0), "row {r}");
        }
    }

    #[test]
    fn lstm_gradcheck() {
        // Finite-difference check through two steps w.r.t. the input.
        let c = cell(3, 2, 2);
        let input = betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(9));
        let res = betty_tensor::check::check_gradient(&input, |g, x| {
            let mut sess = Session::from_graph(std::mem::take(g));
            let h = c.sequence(&mut sess, x, &[0, 1, 2, 3], 2);
            let out = sess.graph.sum(h);
            *g = std::mem::take(&mut sess.graph);
            out
        });
        assert!(res.passes(2e-2), "{res:?}");
    }
}
