//! The fused affine-map kernels behind [`crate::Graph::affine`].
//!
//! `y = act(Σᵢ (xᵢ[..rows]·Wᵢ + bᵢ))` as one op. An op-by-op tape holds a
//! copy of every row prefix, every product, every biased product, their
//! running sum and the activation; the adjoints read none of them — `dWᵢ`
//! needs `xᵢ` (already on the tape), the ReLU mask needs `y` — so here
//! only `y` is ever materialised at full height.
//!
//! Forward walks the output in blocks of [`ROW_BLOCK`] rows. Term 0's
//! product accumulates straight into the block's output rows from zero,
//! every further term's into a scratch block from zero, and while the
//! block is still in cache the epilogue adds
//! `((t₀ + b₀) + (t₁ + b₁)) + …` and activates: per output element the
//! same additions in the same order as `slice_rows → matmul → add_bias →
//! add → relu`, so the value is that composition's bit for bit, on every
//! backend and thread count (rows are independent).
//!
//! Backward runs the composition's own adjoint kernels on the same
//! operands: `dbᵢ` the column sums of the masked output gradient, `dWᵢ =
//! xᵢ[..rows]ᵀ·g′` through the blocked `aᵀ·b`, and `dxᵢ = g′·Wᵢᵀ` against
//! the sweep's packed transpose, written into the leading rows of a
//! zero-filled buffer of `xᵢ`'s shape.

use betty_runtime::Shards;

use crate::kernels;
use crate::pool::BufferPool;
use crate::segment::lane_dispatch;
use crate::Tensor;

/// Output rows finished per pass: a multiple of the GEMM tile's six rows,
/// small enough that the block's output, scratch and operand rows stay in
/// L2 beside the weights at the widths GNN layers use.
const ROW_BLOCK: usize = 96;

/// The operands of one term `x[..rows]·w (+ bias)`.
pub(crate) struct Term<'a> {
    pub x: &'a Tensor,
    pub w: &'a Tensor,
    pub bias: Option<&'a Tensor>,
}

/// Which gradients of one term the sweep asked for.
pub(crate) struct Wanted<'a> {
    /// `w` transposed (`[o, k]`), present exactly when `x` wants a gradient.
    pub wt: Option<&'a Tensor>,
    pub w: bool,
    pub bias: bool,
}

/// Output width of the terms, validated against each other and `rows`.
fn out_dim(terms: &[Term<'_>], rows: usize) -> usize {
    let o = terms
        .first()
        .expect("affine needs at least one term")
        .w
        .cols();
    for (i, t) in terms.iter().enumerate() {
        assert!(
            t.x.rows() >= rows,
            "affine term {i}: input has {} rows, fewer than the {rows} read",
            t.x.rows()
        );
        assert_eq!(
            t.w.shape(),
            &[t.x.cols(), o],
            "affine term {i}: weight must be [{}, {o}]",
            t.x.cols()
        );
        if let Some(b) = t.bias {
            assert_eq!(b.shape(), &[o], "affine term {i}: bias must be [{o}]");
        }
    }
    o
}

/// `act(Σᵢ (xᵢ[..rows]·wᵢ + bᵢ))` as `[rows, o]`. The only buffer whose
/// size grows with `rows` is the result.
pub(crate) fn forward(
    pool: &mut BufferPool,
    terms: &[Term<'_>],
    rows: usize,
    relu: bool,
) -> Tensor {
    let o = out_dim(terms, rows);
    let mut out = pool.scratch(&[rows, o]);
    if out.is_empty() {
        return out;
    }
    let work: usize = terms.iter().map(|t| rows * t.x.cols() * o).sum();
    let shards = Shards::for_work(rows, work);
    // One scratch block per shard, for the products of terms 1…
    let block = if terms.len() > 1 { ROW_BLOCK * o } else { 0 };
    let mut scratch = (block > 0).then(|| pool.scratch(&[shards.count(), block]));
    let scratch_data = scratch.as_mut().map_or(&mut [][..], Tensor::data_mut);
    shards.run(out.data_mut(), o, scratch_data, |range, out_rows, mine| {
        forward_rows(terms, range.start, out_rows, mine, o, relu);
    });
    if let Some(scratch) = scratch {
        pool.give(scratch);
    }
    out
}

/// Output rows `row0..row0 + out.len() / o`, a block at a time. A
/// block's product asks the gate like any other: 96 rows carry a second
/// shard's work only where `k·o` passes 1.4 M (layers ≈ 1 180 wide).
fn forward_rows(
    terms: &[Term<'_>],
    row0: usize,
    out: &mut [f32],
    scratch: &mut [f32],
    o: usize,
    relu: bool,
) {
    for (b, out_block) in out.chunks_mut(ROW_BLOCK * o).enumerate() {
        let (first, m) = (row0 + b * ROW_BLOCK, out_block.len() / o);
        for (i, t) in terms.iter().enumerate() {
            let k = t.x.cols();
            let x = &t.x.data()[first * k..][..m * k];
            let bias = t.bias.map(Tensor::data);
            let act = relu && i + 1 == terms.len();
            if i == 0 {
                out_block.fill(0.0);
                kernels::matmul_acc(x, t.w.data(), out_block, (m, k, o));
                epilogue_dispatch(out_block, None, bias, act);
            } else {
                let product = &mut scratch[..m * o];
                product.fill(0.0);
                kernels::matmul_acc(x, t.w.data(), product, (m, k, o));
                epilogue_dispatch(out_block, Some(product), bias, act);
            }
        }
    }
}

/// Folds one term into the running block: `out += bias` for the term whose
/// product `out` already holds, `out += product + bias` for a later one
/// (the biased term is formed first, as `add_bias` then `add` would), and
/// the activation after the last.
#[inline(always)]
fn epilogue(out: &mut [f32], product: Option<&[f32]>, bias: Option<&[f32]>, relu: bool) {
    match (product, bias) {
        (None, None) => {}
        (None, Some(bias)) => {
            for row in out.chunks_exact_mut(bias.len()) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }
        (Some(product), None) => {
            for (v, &p) in out.iter_mut().zip(product) {
                *v += p;
            }
        }
        (Some(product), Some(bias)) => {
            let rows = out
                .chunks_exact_mut(bias.len())
                .zip(product.chunks_exact(bias.len()));
            for (row, prow) in rows {
                for ((v, &p), &b) in row.iter_mut().zip(prow).zip(bias) {
                    *v += p + b;
                }
            }
        }
    }
    if relu {
        for v in out.iter_mut() {
            *v = v.max(0.0);
        }
    }
}

lane_dispatch!(
    epilogue_dispatch,
    epilogue_avx512,
    epilogue_avx2,
    epilogue(out: &mut [f32], product: Option<&[f32]>, bias: Option<&[f32]>, relu: bool)
);

/// One term's share of the adjoint, from `g`, the gradient of the
/// *pre-activation* sum (the caller has already applied the ReLU mask):
/// pushes the gradients of the term's `x`, `w` and — where it has one —
/// `bias`, in that order, `None` where `wanted` did not ask.
pub(crate) fn backward_term(
    pool: &mut BufferPool,
    t: &Term<'_>,
    wanted: &Wanted<'_>,
    g: &Tensor,
    out: &mut Vec<Option<Tensor>>,
) {
    let (rows, o, k) = (g.rows(), g.cols(), t.x.cols());
    out.push(wanted.wt.map(|wt| {
        // `a·bᵀ` overwrites the rows it is given; the rows past the prefix
        // took no part in the product.
        let mut dx = if t.x.rows() == rows {
            pool.scratch(t.x.shape())
        } else {
            pool.zeros(t.x.shape())
        };
        kernels::a_bt_sharded(
            g.data(),
            t.w.data(),
            Some(wt.data()),
            &mut dx.data_mut()[..rows * k],
            (rows, o, k),
        );
        dx
    }));
    out.push(wanted.w.then(|| {
        let mut dw = pool.zeros(t.w.shape());
        let x = &t.x.data()[..rows * k];
        kernels::matmul_at_b_acc(x, g.data(), dw.data_mut(), (rows, k, o));
        dw
    }));
    if t.bias.is_some() {
        out.push(wanted.bias.then(|| {
            let mut db = pool.scratch(&[o]);
            kernels::sum_rows_into(g, db.data_mut());
            db
        }));
    }
}

#[cfg(test)]
mod tests {
    use betty_runtime::{with_threads, Shards, MIN_SHARD_WORK};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    use crate::backend::with_backend;
    use crate::{check, AffineTerm, Backend, DType, Graph, Tensor, VarId};

    /// The map composed an op at a time — what `betty-nn`'s layers taped
    /// before the fused op existed, and the oracle it is held to. Prefix
    /// copies come first, as a SAGE layer took `h_dst` before aggregating.
    fn composed(g: &mut Graph, terms: &[AffineTerm], rows: usize, relu: bool) -> VarId {
        let xs: Vec<VarId> = terms
            .iter()
            .map(|t| {
                if g.value(t.x).rows() > rows {
                    g.slice_rows(t.x, rows)
                } else {
                    t.x
                }
            })
            .collect();
        let mut sum: Option<VarId> = None;
        for (t, &x) in terms.iter().zip(&xs) {
            let mut term = g.matmul(x, t.w);
            if let Some(b) = t.bias {
                term = g.add_bias(term, b);
            }
            sum = Some(match sum {
                Some(s) => g.add(s, term),
                None => term,
            });
        }
        let sum = sum.expect("at least one term");
        if relu {
            g.relu(sum)
        } else {
            sum
        }
    }

    /// One term's operands; `x: None` reuses the previous term's input.
    struct TermCase {
        x: Option<Tensor>,
        w: Tensor,
        bias: Option<Tensor>,
    }

    struct Case {
        terms: Vec<TermCase>,
        rows: usize,
        relu: bool,
        /// Which operand (in `x, w, bias` order over the terms) is a
        /// gradient-free constant, if any.
        constant: Option<usize>,
        /// Weights of the scalar loss `Σ y ⊙ readout`.
        readout: Tensor,
    }

    /// Normal samples with the small ones flushed to exact zeros, as a ReLU
    /// or dropout output has them.
    fn sparse_randn(shape: &[usize], rng: &mut Pcg64Mcg) -> Tensor {
        let mut t = crate::randn(shape, rng);
        for v in t.data_mut() {
            if v.abs() < 0.25 {
                *v = 0.0;
            }
        }
        t
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        let shape = (0usize..7, 1usize..4, 0usize..4, 0usize..8, 0usize..2);
        let rest = (0usize..3, 0usize..2, 0usize..12, 0u64..u64::MAX);
        (shape, rest).prop_map(
            |((rows, n_terms, o, bias_mask, relu), (extra, share, constant, seed))| {
                let rows = [0, 1, 5, 6, 7, 33, 300][rows];
                let o = [1, 5, 36, 64][o];
                let mut rng = Pcg64Mcg::seed_from_u64(seed);
                let mut terms: Vec<TermCase> = Vec::new();
                for i in 0..n_terms {
                    let shared = i == 1 && share == 1;
                    let k = if shared {
                        terms[0].w.rows()
                    } else {
                        [1, 3, 20, 100][(seed as usize >> (2 * i)) % 4]
                    };
                    // Full height, one row past the prefix, or well past it.
                    let x_rows = rows + [0, 1, 40][(extra + i) % 3];
                    terms.push(TermCase {
                        x: (!shared).then(|| sparse_randn(&[x_rows, k], &mut rng)),
                        w: sparse_randn(&[k, o], &mut rng),
                        bias: (bias_mask >> i & 1 == 1).then(|| crate::randn(&[o], &mut rng)),
                    });
                }
                Case {
                    terms,
                    rows,
                    relu: relu == 1,
                    constant: (constant < 9).then_some(constant),
                    readout: crate::randn(&[rows, o], &mut rng),
                }
            },
        )
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The value, then each operand's gradient (`None` for a constant or a
    /// reused input's second mention), under one implementation.
    fn run(case: &Case, fused: bool) -> Vec<Option<Vec<u32>>> {
        let mut g = Graph::new();
        let mut operands = Vec::new();
        let mut bind = |g: &mut Graph, t: &Tensor| {
            let var = if case.constant == Some(operands.len()) {
                g.constant(t.clone())
            } else {
                g.leaf(t.clone())
            };
            operands.push(Some(var));
            var
        };
        let mut terms: Vec<AffineTerm> = Vec::new();
        for t in &case.terms {
            let x = match &t.x {
                Some(x) => bind(&mut g, x),
                None => terms.last().expect("a term to share with").x,
            };
            let w = bind(&mut g, &t.w);
            let bias = t.bias.as_ref().map(|b| bind(&mut g, b));
            terms.push(AffineTerm { x, w, bias });
        }
        let y = if fused {
            g.affine(&terms, case.rows, case.relu)
        } else {
            composed(&mut g, &terms, case.rows, case.relu)
        };
        let readout = g.constant(case.readout.clone());
        let weighted = g.mul(y, readout);
        let loss = g.sum(weighted);
        g.backward(loss);
        let mut out = vec![Some(bits(g.value(y)))];
        out.extend(operands.iter().map(|v| v.and_then(|v| g.grad(v)).map(bits)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Value and every gradient are the composition's bit for bit, on
        /// both backends and at one and four threads; a constant operand
        /// gets no gradient from either.
        #[test]
        fn fused_map_matches_the_composition(case in arb_case()) {
            let want = run(&case, false);
            for backend in [Backend::Scalar, Backend::Simd] {
                for threads in [1usize, 4] {
                    let got = with_threads(threads, || with_backend(backend, || run(&case, true)));
                    prop_assert_eq!(got.len(), want.len());
                    for (slot, (got, want)) in got.iter().zip(&want).enumerate() {
                        prop_assert_eq!(got, want, "slot {} on {} x{}", slot, backend, threads);
                    }
                }
            }
            if let Some(c) = case.constant.filter(|&c| c + 1 < want.len()) {
                prop_assert!(want[c + 1].is_none(), "constant operand {} got a gradient", c);
            }
        }
    }

    fn dense(shape: &[usize], phase: f32, scale: f32) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len)
            .map(|k| ((k as f32) * 0.61 + phase).sin() * scale)
            .collect();
        Tensor::from_vec(data, shape).expect("sized data")
    }

    /// The SAGE hidden-layer shape at a height the gate grants more than
    /// one shard (asserted): worker shards, each with its own scratch
    /// block, leave every bit where the composition puts it.
    #[test]
    fn sharded_rows_match_the_composition() {
        let (rows, d, o) = (10_501, 100, 64);
        assert!(2 * rows * d * o >= 2 * MIN_SHARD_WORK);
        let case = Case {
            terms: vec![
                TermCase {
                    x: Some(dense(&[rows + 300, d], 0.0, 1.0)),
                    w: dense(&[d, o], 1.0, 0.3),
                    bias: Some(dense(&[o], 2.0, 0.5)),
                },
                TermCase {
                    x: Some(dense(&[rows, d], 3.0, 1.0)),
                    w: dense(&[d, o], 4.0, 0.3),
                    bias: Some(dense(&[o], 5.0, 0.5)),
                },
            ],
            rows,
            relu: true,
            constant: None,
            readout: dense(&[rows, o], 6.0, 1.0),
        };
        let want = run(&case, false);
        for threads in [1usize, 4] {
            let got = with_threads(threads, || {
                assert_eq!(Shards::for_work(rows, 2 * rows * d * o).count() > 1, threads > 1);
                with_backend(Backend::Simd, || run(&case, true))
            });
            assert_eq!(got, want, "{threads} threads");
        }
    }

    /// A SAGE layer's source features feed the self term's prefix *and*
    /// the aggregator (one node per degree bucket under the LSTM). The op
    /// by op layer sliced `h_dst` before it aggregated, so the self term's
    /// gradient was the last of three or more added into the features';
    /// the fused op is taped after the aggregator and must still add last.
    /// A full-height input was never sliced: its gradient joins where the
    /// product's did, between those of the consumers taped around it.
    #[test]
    fn input_gradient_joins_where_the_compositions_did() {
        let (rows, d, o) = (40, 8, 5);
        let run = |past_prefix: usize, fused: bool| {
            let mut g = Graph::new();
            let x = g.leaf(dense(&[rows + past_prefix, d], 0.0, 1.0));
            let w = g.leaf(dense(&[d, o], 1.0, 0.7));
            let term = |x| AffineTerm { x, w, bias: None };
            let prefix = (!fused && past_prefix > 0).then(|| g.slice_rows(x, rows));
            // A consumer on either side of the map, each reaching every
            // prefix row.
            let picks: Vec<usize> = (0..rows).map(|r| (r * 7) % rows).collect();
            let a = g.gather_rows(x, &picks);
            let a = g.scale(a, 0.37);
            let y = if fused {
                g.affine(&[term(x)], rows, true)
            } else {
                composed(&mut g, &[term(prefix.unwrap_or(x))], rows, true)
            };
            let b = g.gather_rows(x, &picks);
            let b = g.tanh(b);
            let (sa, sb, sy) = (g.sum(a), g.sum(b), g.sum(y));
            let loss = g.add(sa, sb);
            let loss = g.add(loss, sy);
            g.backward(loss);
            bits(g.grad(x).expect("reached"))
        };
        for past_prefix in [24, 0] {
            assert_eq!(
                run(past_prefix, true),
                run(past_prefix, false),
                "{past_prefix} rows past"
            );
        }
    }

    /// Central differences with respect to every `x`, `w` and `bias` of a
    /// two-term map that shares nothing, reads a strict prefix and clips.
    #[test]
    fn finite_differences_agree_for_every_operand() {
        let (rows, o) = (3, 4);
        // Away from the ReLU's kink: a bump must not flip a unit.
        let inputs = [
            dense(&[5, 3], 0.3, 1.0),
            dense(&[3, o], 1.1, 0.7),
            dense(&[o], 2.0, 0.3),
            dense(&[rows, 2], 3.3, 1.0),
            dense(&[2, o], 4.1, 0.7),
            dense(&[o], 5.0, 0.3),
        ];
        for relu in [false, true] {
            for wrt in 0..inputs.len() {
                let res = check::check_gradient(&inputs[wrt], |g, var| {
                    let v: [VarId; 6] = std::array::from_fn(|k| {
                        if k == wrt {
                            var
                        } else {
                            g.leaf(inputs[k].clone())
                        }
                    });
                    let terms = [
                        AffineTerm {
                            x: v[0],
                            w: v[1],
                            bias: Some(v[2]),
                        },
                        AffineTerm {
                            x: v[3],
                            w: v[4],
                            bias: Some(v[5]),
                        },
                    ];
                    let y = g.affine(&terms, rows, relu);
                    let readout = g.constant(dense(&[rows, o], 0.7, 1.0));
                    let weighted = g.mul(y, readout);
                    g.sum(weighted)
                });
                assert!(res.passes(2e-2), "relu {relu}, operand {wrt}: {res:?}");
            }
        }
    }

    /// One node, one stored value: the ledger grows by the output alone at
    /// every activation width, however many terms feed it.
    #[test]
    fn tape_holds_the_output_only() {
        let (rows, d, o) = (6, 5, 3);
        for dtype in [DType::F32, DType::Bf16, DType::F16] {
            let mut g = Graph::new();
            g.set_activation_dtype(dtype);
            let x = g.leaf(dense(&[rows + 4, d], 0.0, 1.0));
            let h = g.leaf(dense(&[rows, d], 1.0, 1.0));
            let terms: Vec<AffineTerm> = [(x, 2.0), (h, 3.0)]
                .into_iter()
                .map(|(x, phase)| AffineTerm {
                    x,
                    w: g.leaf(dense(&[d, o], phase, 0.5)),
                    bias: Some(g.leaf(dense(&[o], phase + 0.5, 0.2))),
                })
                .collect();
            let (nodes, before) = (g.len(), g.activation_bytes());
            let y = g.affine(&terms, rows, true);
            assert_eq!(g.len(), nodes + 1);
            assert_eq!(
                g.activation_bytes() - before,
                rows * o * dtype.bytes_per_value(),
                "{dtype}"
            );
            assert!(g
                .value(y)
                .data()
                .iter()
                .all(|&v| dtype.quantize(v) == v && v >= 0.0));
        }
    }

    #[test]
    fn no_rows_is_an_empty_output_with_zero_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(dense(&[4, 3], 0.0, 1.0));
        let w = g.leaf(dense(&[3, 2], 1.0, 1.0));
        let b = g.leaf(dense(&[2], 2.0, 1.0));
        let y = g.affine(
            &[AffineTerm {
                x,
                w,
                bias: Some(b),
            }],
            0,
            true,
        );
        assert_eq!(g.value(y).shape(), &[0, 2]);
        let loss = g.sum(y);
        g.backward(loss);
        for v in [x, w, b] {
            assert_eq!(g.grad(v).expect("reached").max_abs(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "fewer than the 5 read")]
    fn reading_past_the_input_is_rejected() {
        let mut g = Graph::new();
        let x = g.leaf(dense(&[4, 3], 0.0, 1.0));
        let w = g.leaf(dense(&[3, 2], 1.0, 1.0));
        g.affine(&[AffineTerm { x, w, bias: None }], 5, false);
    }
}
