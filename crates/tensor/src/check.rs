//! Finite-difference gradient checking.
//!
//! Used by the test suites of this crate and `betty-nn` to validate every
//! autograd op and layer against a numerical derivative.

use crate::{Graph, Tensor, VarId};

/// Result of a single gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheck {
    /// Largest absolute difference between analytic and numeric gradients.
    pub(crate) max_abs_err: f32,
    /// Largest relative difference (scaled by magnitude, floored at 1.0).
    pub(crate) max_rel_err: f32,
}

impl GradCheck {
    /// Whether the check passed at the given relative tolerance.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Compares the analytic gradient of `f` at `input` against central finite
/// differences.
///
/// `f` must build a scalar-valued (`[1]`) computation from the leaf it is
/// given, on the graph it is given. The function is invoked `2 * input.len()
/// + 1` times.
///
/// # Panics
///
/// Panics if `f` returns a non-scalar variable.
pub fn check_gradient(input: &Tensor, f: impl Fn(&mut Graph, VarId) -> VarId) -> GradCheck {
    const EPS: f32 = 1e-2;

    let mut g = Graph::new();
    let x = g.leaf(input.clone());
    let y = f(&mut g, x);
    assert_eq!(g.value(y).len(), 1, "gradient check target must be scalar");
    g.backward(y);
    let analytic = g
        .grad(x)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(input.shape()));

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    for i in 0..input.len() {
        let eval = |delta: f32| -> f32 {
            let mut bumped = input.clone();
            bumped.data_mut()[i] += delta;
            let mut g = Graph::new();
            let x = g.leaf(bumped);
            let y = f(&mut g, x);
            g.value(y).item()
        };
        let numeric = (eval(EPS) - eval(-EPS)) / (2.0 * EPS);
        let a = analytic.at(i);
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheck {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::randn;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn input(shape: &[usize], seed: u64) -> Tensor {
        randn(shape, &mut Pcg64Mcg::seed_from_u64(seed))
    }

    #[test]
    fn checks_matmul_chain() {
        let x = input(&[3, 4], 1);
        let res = check_gradient(&x, |g, x| {
            let w = g.leaf(input(&[4, 2], 2));
            let h = g.matmul(x, w);
            let h = g.tanh(h);
            g.sum(h)
        });
        assert!(res.passes(1e-2), "{res:?}");
    }

    #[test]
    fn checks_activations() {
        let x = input(&[2, 5], 3);
        for op in ["relu", "tanh", "elu", "leaky"] {
            let res = check_gradient(&x, |g, x| {
                let a = match op {
                    "relu" => g.relu(x),
                    "tanh" => g.tanh(x),
                    "elu" => g.elu(x, 1.0),
                    _ => g.leaky_relu(x, 0.2),
                };
                g.sum(a)
            });
            // ReLU-family kinks make FD noisy at exactly 0; inputs are
            // random so tolerate slightly more.
            assert!(res.passes(5e-2), "{op}: {res:?}");
        }
    }

    #[test]
    fn checks_segment_softmax_attention_pattern() {
        let scores = input(&[6, 2], 4);
        let seg = [0usize, 0, 1, 1, 1, 2];
        let res = check_gradient(&scores, |g, s| {
            let sm = g.segment_softmax(s, &seg, 3);
            let feats = g.leaf(input(&[6, 2], 5));
            let weighted = g.mul(sm, feats);
            let pooled = g.segment_sum(weighted, &seg, 3);
            g.sum(pooled)
        });
        assert!(res.passes(2e-2), "{res:?}");
    }

    #[test]
    fn checks_cross_entropy() {
        let logits = input(&[4, 3], 6);
        let res = check_gradient(&logits, |g, l| {
            g.cross_entropy(l, &[0, 2, 1, 1], crate::graph::Reduction::Mean)
        });
        assert!(res.passes(1e-2), "{res:?}");
    }

    /// The rows' log-softmax as `cross_entropy` tapes it: one loss per
    /// class, each through `tanh`, so every column reaches the gradient.
    #[test]
    fn checks_log_softmax_rows() {
        let x = input(&[3, 4], 11);
        let res = check_gradient(&x, |g, x| {
            let per_class: Vec<VarId> = (0..4)
                .map(|c| {
                    let ce = g.cross_entropy(x, &[c; 3], crate::graph::Reduction::Mean);
                    g.tanh(ce)
                })
                .collect();
            per_class
                .into_iter()
                .reduce(|a, b| g.add(a, b))
                .expect("four classes")
        });
        assert!(res.passes(2e-2), "{res:?}");
    }

    #[test]
    fn checks_segment_max() {
        let x = input(&[5, 3], 7);
        let res = check_gradient(&x, |g, x| {
            let m = g.segment_max(x, &[0, 1, 0, 1, 2], 3);
            g.sum(m)
        });
        assert!(res.passes(5e-2), "{res:?}");
    }
}
