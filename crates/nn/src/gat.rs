use betty_graph::Block;
use betty_tensor::{glorot_uniform, VarId};
use rand::Rng;

use crate::{Conv, Linear, Param, Params, Session};

/// How a multi-head [`GatConv`] merges its heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadMerge {
    /// Concatenate head outputs (hidden layers): width `heads × out_dim`.
    Concat,
    /// Average head outputs (output layer): width `out_dim`.
    Mean,
}

/// A graph attention convolution (Veličković et al.), the paper's second
/// model.
///
/// Per head `h`: scores `e_{uv} = LeakyReLU(aₗ·Wh_u + aᵣ·Wh_v)` are
/// softmax-normalized over each destination's in-edges and used as weights
/// for summing the transformed source features.
#[derive(Debug, Clone)]
pub struct GatConv {
    fc: Linear,
    attn_l: Param,
    attn_r: Param,
    num_heads: usize,
    head_dim: usize,
    negative_slope: f32,
    merge: HeadMerge,
}

impl GatConv {
    /// A layer with `num_heads` heads of width `head_dim` each.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads == 0` or `head_dim == 0`.
    pub(crate) fn new(
        in_dim: usize,
        head_dim: usize,
        num_heads: usize,
        merge: HeadMerge,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_heads > 0, "at least one attention head required");
        assert!(head_dim > 0, "head dimension must be positive");
        Self {
            fc: Linear::new(in_dim, num_heads * head_dim, rng),
            attn_l: Param::new(glorot_uniform(num_heads * head_dim, 1, rng)),
            attn_r: Param::new(glorot_uniform(num_heads * head_dim, 1, rng)),
            num_heads,
            head_dim,
            negative_slope: 0.2,
            merge,
        }
    }
}

impl Conv for GatConv {
    /// `[block.num_dst(), heads × head_dim]` (concat) or
    /// `[block.num_dst(), head_dim]` (mean), through an ELU when `hidden`.
    fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId, hidden: bool) -> VarId {
        let edge_src: Vec<usize> = block.edge_src_locals().iter().map(|&s| s as usize).collect();
        let edge_dst: Vec<usize> = block.edge_dst_locals().iter().map(|&d| d as usize).collect();
        let n_dst = block.num_dst();

        let z = self.fc.forward(sess, src_feats); // [num_src, heads*dim]
        let mut head_outputs = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let zh = sess.graph.slice_cols(z, h * self.head_dim, self.head_dim);
            // Per-node attention halves: a_l·z and a_r·z (each [n, 1]).
            let al = sess.bind(&self.attn_l);
            let ar = sess.bind(&self.attn_r);
            // Head h's slice of the [heads·dim, 1] attention vectors.
            let rows: Vec<usize> = (h * self.head_dim..(h + 1) * self.head_dim).collect();
            let al_h = sess.graph.gather_rows(al, &rows);
            let ar_h = sess.graph.gather_rows(ar, &rows);
            let el = sess.graph.matmul(zh, al_h); // [num_src, 1]
            let er = sess.graph.matmul(zh, ar_h);
            // Edge scores: source half gathered by edge src, dest half by
            // edge dst (dst locals index the same feature rows — dst-first).
            let el_e = sess.graph.gather_rows(el, &edge_src);
            let er_e = sess.graph.gather_rows(er, &edge_dst);
            let e = sess.graph.add(el_e, er_e);
            let e = sess.graph.leaky_relu(e, self.negative_slope);
            let alpha = sess.graph.segment_softmax(e, &edge_dst, n_dst);
            // Weighted sum of transformed source features.
            let zh_e = sess.graph.gather_rows(zh, &edge_src);
            let weighted = sess.graph.scale_rows_by(zh_e, alpha);
            head_outputs.push(sess.graph.segment_sum(weighted, &edge_dst, n_dst));
        }
        let out = match self.merge {
            HeadMerge::Concat => sess.graph.concat_cols(&head_outputs),
            HeadMerge::Mean => {
                let mut acc = head_outputs[0];
                for &h in &head_outputs[1..] {
                    acc = sess.graph.add(acc, h);
                }
                sess.graph.scale(acc, 1.0 / self.num_heads as f32)
            }
        };
        if hidden {
            sess.graph.elu(out, 1.0)
        } else {
            out
        }
    }
}

impl Params for GatConv {
    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        self.fc.visit(f);
        f(&self.attn_l);
        f(&self.attn_r);
    }

    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        self.fc.visit_mut(f);
        f(&mut self.attn_l);
        f(&mut self.attn_r);
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
        Pcg64Mcg::seed_from_u64(33)
    }

    fn block() -> Block {
        Block::new(vec![0, 1], &[(2, 0), (3, 0), (3, 1)])
    }

    #[test]
    fn concat_output_width() {
        let layer = GatConv::new(3, 4, 2, HeadMerge::Concat, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut sess, &block(), x, false);
        assert_eq!(sess.graph.value(y).shape(), &[2, 8]);
    }

    #[test]
    fn mean_merge_output_width() {
        let layer = GatConv::new(3, 4, 3, HeadMerge::Mean, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 3]));
        let y = layer.forward(&mut sess, &block(), x, false);
        assert_eq!(sess.graph.value(y).shape(), &[2, 4]);
    }

    #[test]
    fn attention_weights_sum_to_one_implicitly() {
        // With identical source features, attention output equals the
        // transformed feature regardless of weights (convexity check).
        let layer = GatConv::new(2, 3, 1, HeadMerge::Concat, &mut rng());
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[4, 2]));
        let y = layer.forward(&mut sess, &block(), x, false);
        let v = sess.graph.value(y);
        // Both destinations aggregate identical rows → identical outputs.
        assert!(v.row(0).iter().zip(v.row(1)).all(|(a, b)| (a - b).abs() < 1e-5));
    }

    #[test]
    fn all_params_receive_grad() {
        let mut layer = GatConv::new(2, 3, 2, HeadMerge::Concat, &mut rng());
        let mut sess = Session::new();
        let x = sess
            .graph
            .leaf(betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(2)));
        let y = layer.forward(&mut sess, &block(), x, false);
        let loss = sess.graph.cross_entropy(y, &[0, 1], Reduction::Mean);
        sess.graph.backward(loss);
        for p in layer.params_mut() {
            let var = sess.bind(p);
            assert!(sess.graph.grad(var).is_some(), "param missing grad");
        }
    }

    #[test]
    #[should_panic(expected = "at least one attention head")]
    fn zero_heads_rejected() {
        GatConv::new(2, 3, 0, HeadMerge::Concat, &mut rng());
    }
}
