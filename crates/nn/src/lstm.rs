use betty_tensor::{glorot_uniform, Tensor, VarId};
use rand::Rng;

use crate::{Param, Session};

/// A standard LSTM cell with fused gate weights.
///
/// Gates are computed as `[x ‖ h] · W + b` with `W : [(X + H), 4H]` sliced
/// into input/forget/cell/output gates. Used by the LSTM neighbor
/// aggregator, which unrolls the cell over each destination's neighbor
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

    /// Fresh zero `(h, c)` state for a batch of `n` sequences.
    pub fn zero_state(&self, sess: &mut Session, n: usize) -> (VarId, VarId) {
        let h = sess.graph.zeros_leaf(&[n, self.hidden_dim]);
        let c = sess.graph.zeros_leaf(&[n, self.hidden_dim]);
        (h, c)
    }

    /// One timestep: consumes `x : [n, X]` and state `(h, c)`, returns the
    /// next `(h, c)`.
    pub fn step(&self, sess: &mut Session, x: VarId, h: VarId, c: VarId) -> (VarId, VarId) {
        let hd = self.hidden_dim;
        let w = sess.bind(&self.weight);
        let b = sess.bind(&self.bias);
        let xh = sess.graph.concat_cols(&[x, h]);
        let gates = sess.graph.matmul(xh, w);
        let gates = sess.graph.add_bias(gates, b);
        let i_raw = sess.graph.slice_cols(gates, 0, hd);
        let f_raw = sess.graph.slice_cols(gates, hd, hd);
        let g_raw = sess.graph.slice_cols(gates, 2 * hd, hd);
        let o_raw = sess.graph.slice_cols(gates, 3 * hd, hd);
        let i = sess.graph.sigmoid(i_raw);
        let f = sess.graph.sigmoid(f_raw);
        let g = sess.graph.tanh(g_raw);
        let o = sess.graph.sigmoid(o_raw);
        let fc = sess.graph.mul(f, c);
        let ig = sess.graph.mul(i, g);
        let c_next = sess.graph.add(fc, ig);
        let c_act = sess.graph.tanh(c_next);
        let h_next = sess.graph.mul(o, c_act);
        (h_next, c_next)
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
    fn step_shapes() {
        let c = cell(0, 3, 4);
        assert_eq!(c.num_params(), (3 + 4) * 16 + 16);
        let mut sess = Session::new();
        let (h0, c0) = c.zero_state(&mut sess, 5);
        let x = sess.graph.leaf(Tensor::ones(&[5, 3]));
        let (h1, c1) = c.step(&mut sess, x, h0, c0);
        assert_eq!(sess.graph.value(h1).shape(), &[5, 4]);
        assert_eq!(sess.graph.value(c1).shape(), &[5, 4]);
    }

    #[test]
    fn outputs_bounded_by_tanh_sigmoid() {
        let c = cell(1, 2, 3);
        let mut sess = Session::new();
        let (mut h, mut cc) = c.zero_state(&mut sess, 2);
        let x = sess.graph.leaf(Tensor::full(&[2, 2], 10.0));
        for _ in 0..5 {
            let (nh, nc) = c.step(&mut sess, x, h, cc);
            h = nh;
            cc = nc;
        }
        let hv = sess.graph.value(h);
        assert!(hv.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
        assert!(hv.all_finite());
    }

    #[test]
    fn gradients_flow_through_unrolled_steps() {
        let c = cell(2, 2, 2);
        let mut sess = Session::new();
        let (mut h, mut cc) = c.zero_state(&mut sess, 1);
        let x = sess
            .graph
            .leaf(Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap());
        for _ in 0..3 {
            let (nh, nc) = c.step(&mut sess, x, h, cc);
            h = nh;
            cc = nc;
        }
        let loss = sess.graph.sum(h);
        sess.graph.backward(loss);
        let w = sess.bind(&c.params()[0].clone());
        let grad = sess.graph.grad(w).expect("weight gradient");
        assert!(grad.max_abs() > 0.0);
        assert!(grad.all_finite());
        // Input gradient flows too.
        assert!(sess.graph.grad(x).unwrap().max_abs() > 0.0);
    }

    #[test]
    fn lstm_gradcheck() {
        // Finite-difference check through a 2-step unroll w.r.t. the input.
        let c = cell(3, 2, 2);
        let input = betty_tensor::randn(&[2, 2], &mut Pcg64Mcg::seed_from_u64(9));
        let res = betty_tensor::check::check_gradient(&input, |g, x| {
            let mut sess = Session::from_graph(std::mem::take(g));
            let (h0, c0) = c.zero_state(&mut sess, 2);
            let (h1, c1) = c.step(&mut sess, x, h0, c0);
            let (h2, _) = c.step(&mut sess, h1, h1, c1);
            let out = sess.graph.sum(h2);
            *g = std::mem::take(&mut sess.graph);
            out
        });
        assert!(res.passes(2e-2), "{res:?}");
    }
}
