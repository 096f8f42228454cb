//! The fused LSTM-sequence kernels behind [`crate::Graph::lstm_sequence`].
//!
//! `n` sequences of `L` steps run as one op. Step `t` reads row
//! `steps[t * n + r]` of the source features as `x_t` of sequence `r`,
//! and with `W: [X + H, 4H]` split into its row blocks `W[..X]` and
//! `W[X..]` computes
//!
//! ```text
//! i | f | g | o = σ, σ, tanh, σ of (x_t·W[..X] + h_{t-1}·W[X..] + b)
//! c_t = f ⊙ c_{t-1} + i ⊙ g          h_t = o ⊙ tanh(c_t)
//! ```
//!
//! from `h_0 = c_0 = 0`. What is kept for the backward pass is [`Saved`]
//! — six values per step, sequence and state unit, counting the op's own
//! output `h_L` — and nothing else round-trips through memory: `x_t`
//! is gathered again from the source, `tanh(c_t)` is recomputed, and the
//! pre-activation gates, the `[x ‖ h]` concatenation and the gate slices
//! an op-by-op cell tapes never exist. Backwards, only the recurrence is
//! sequential: it leaves the gate gradients of every step in one buffer,
//! and each of `dW[..X]`, `dW[X..]`, `db` and `d src` is then a single
//! product over all `L·n` rows of it.
//!
//! Every accumulator sees the additions an unrolled cell gives it — `x`
//! terms then `h` terms in ascending order from zero, bias last — so the
//! forward value is that cell's, bit for bit.

use crate::backend::Backend;
use crate::dtype::DType;
use crate::kernels::{self, sigmoid, tanh};
use crate::pool::BufferPool;
use crate::segment::{self, lane_dispatch};
use crate::Tensor;

/// What one op keeps for its adjoint, step-major (`t * n + r`) like the
/// `steps` it was given. Stored at the tape's activation width: every
/// element is rounded onto that grid as it is written and the forward
/// pass carries the rounded value on, as a device holding halves would.
pub(crate) struct Saved {
    /// `[L·n, 4H]` activated gates `i | f | g | o`.
    gates: Tensor,
    /// `[L·n, H]` cell states `c_1 … c_L`.
    cells: Tensor,
    /// `[(L−1)·n, H]` hidden states `h_1 … h_{L−1}`; `h_L` is the op's value.
    hidden: Tensor,
}

impl Saved {
    /// Elements held, for the tape's activation ledger.
    pub(crate) fn len(&self) -> usize {
        self.gates.len() + self.cells.len() + self.hidden.len()
    }

    pub(crate) fn recycle_into(self, pool: &mut BufferPool) {
        pool.give(self.gates);
        pool.give(self.cells);
        pool.give(self.hidden);
    }
}

/// Sequence length `L`, input width `X` and state width `H` of a call,
/// validated against each other.
fn dims(src: &Tensor, steps: &[usize], n: usize, w: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let (x, h) = (src.cols(), w.cols() / 4);
    assert!(
        h > 0 && w.cols() == 4 * h,
        "lstm weight must hold four gates, got {:?}",
        w.shape()
    );
    assert_eq!(
        w.rows(),
        x + h,
        "lstm weight must be [{x} + {h}, {}]",
        4 * h
    );
    assert_eq!(b.shape(), &[4 * h], "lstm bias must be [{}]", 4 * h);
    let len = steps.len().checked_div(n).unwrap_or(0);
    assert_eq!(
        steps.len(),
        len * n,
        "lstm steps must hold a source row per sequence per step"
    );
    (len, x, h)
}

/// Runs the sequences forward; returns `h_L` (`[n, H]`, zeros when `L = 0`)
/// and what the adjoint needs.
pub(crate) fn forward(
    pool: &mut BufferPool,
    dtype: DType,
    src: &Tensor,
    steps: &[usize],
    n: usize,
    w: &Tensor,
    b: &Tensor,
) -> (Tensor, Saved) {
    let (len, x, h) = dims(src, steps, n, w, b);
    let (rows, nh) = (len * n, n * h);
    let (wx, wh) = w.data().split_at(x * 4 * h);

    let mut gates = pool.zeros(&[rows, 4 * h]);
    let mut cells = pool.scratch(&[rows, h]);
    let mut hidden = pool.scratch(&[rows.saturating_sub(n), h]);
    let mut out = pool.zeros(&[n, h]);
    let mut x_t = pool.scratch(&[n, x]);
    let c0 = pool.zeros(&[n, h]);
    let cell = match Backend::current() {
        Backend::Scalar => cell_forward,
        Backend::Simd => cell_forward_dispatch,
    };
    for t in 0..len {
        let gates_t = &mut gates.data_mut()[t * 4 * nh..][..4 * nh];
        segment::gather_rows_into(src, &steps[t * n..][..n], x_t.data_mut());
        kernels::matmul_acc(x_t.data(), wx, gates_t, (n, x, 4 * h));
        let (c_done, c_rest) = cells.data_mut().split_at_mut(t * nh);
        let (h_done, h_rest) = hidden.data_mut().split_at_mut(t * nh);
        let c_prev = if t == 0 {
            c0.data()
        } else {
            // `h_0 = 0` is not multiplied: its terms are all `±0.0`, which
            // leave gates that started at `+0.0` bit for bit as they are
            // (a NaN or `∞` in `W[X..]` first shows at `t = 1`).
            let h_prev = &h_done[(t - 1) * nh..];
            kernels::matmul_acc(h_prev, wh, gates_t, (n, h, 4 * h));
            &c_done[(t - 1) * nh..]
        };
        let h_t = if t + 1 < len {
            &mut h_rest[..nh]
        } else {
            out.data_mut()
        };
        cell(gates_t, b.data(), c_prev, &mut c_rest[..nh], h_t, h, dtype);
    }
    pool.give(x_t);
    pool.give(c0);
    (
        out,
        Saved {
            gates,
            cells,
            hidden,
        },
    )
}

/// One step of every sequence, a row at a time so a row's gates are still
/// in cache when its state is updated: activates `gates` (`[n, 4H]`,
/// holding the two products) in place, then writes `c_t` and `h_t`.
#[inline(always)]
fn cell_forward(
    gates: &mut [f32],
    bias: &[f32],
    c_prev: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    hd: usize,
    dtype: DType,
) {
    let rows = gates.chunks_exact_mut(4 * hd).zip(c_prev.chunks_exact(hd));
    for ((g, cp), (c, h)) in rows.zip(c.chunks_exact_mut(hd).zip(h.chunks_exact_mut(hd))) {
        let (sig_if, rest) = g.split_at_mut(2 * hd);
        let (tanh_g, sig_o) = rest.split_at_mut(hd);
        for (v, &b) in sig_if.iter_mut().zip(&bias[..2 * hd]) {
            *v = sigmoid(*v + b);
        }
        for (v, &b) in tanh_g.iter_mut().zip(&bias[2 * hd..3 * hd]) {
            *v = tanh(*v + b);
        }
        for (v, &b) in sig_o.iter_mut().zip(&bias[3 * hd..]) {
            *v = sigmoid(*v + b);
        }
        if dtype != DType::F32 {
            dtype.quantize_slice(g);
        }
        let (i, f, gg, o) = (&g[..hd], &g[hd..2 * hd], &g[2 * hd..3 * hd], &g[3 * hd..]);
        for j in 0..hd {
            c[j] = f[j] * cp[j] + i[j] * gg[j];
        }
        if dtype != DType::F32 {
            dtype.quantize_slice(c);
        }
        for j in 0..hd {
            h[j] = o[j] * tanh(c[j]);
        }
        if dtype != DType::F32 {
            dtype.quantize_slice(h);
        }
    }
}

lane_dispatch!(
    cell_forward_dispatch,
    cell_forward_avx512,
    cell_forward_avx2,
    cell_forward(
        gates: &mut [f32],
        bias: &[f32],
        c_prev: &[f32],
        c: &mut [f32],
        h: &mut [f32],
        hd: usize,
        dtype: DType,
    )
);

/// Back-propagation through time from `g = dL/dh_L`.
///
/// `wt_h` is `W[X..]` transposed (`[4H, H]`) and `wt_x`, present exactly
/// when the source wants a gradient, `W[..X]` transposed (`[4H, X]`): the
/// sweep packs each once for every sequence sharing the weight. The gate
/// gradients of all steps are assembled in one `[L·n, 4H]` buffer by the
/// descending recurrence; `dW`, `db` and `d src` are then each one
/// product over it, accumulated in place in one buffer per gradient.
/// Returns the gradients of `(src, w, b)` in that order, `None` where the
/// caller did not ask.
#[allow(clippy::too_many_arguments)] // the op's operands, each used once
pub(crate) fn backward(
    pool: &mut BufferPool,
    saved: &Saved,
    steps: &[usize],
    n: usize,
    src: &Tensor,
    w: &Tensor,
    g: &Tensor,
    wt_h: &Tensor,
    wt_x: Option<&Tensor>,
    (want_w, want_b): (bool, bool),
) -> [Option<Tensor>; 3] {
    let (x, h) = (src.cols(), w.cols() / 4);
    let len = steps.len().checked_div(n).unwrap_or(0);
    let (rows, nh) = (len * n, n * h);
    let (wx, wh) = w.data().split_at(x * 4 * h);

    let mut dgates = pool.scratch(&[rows, 4 * h]);
    let mut dc = pool.zeros(&[n, h]);
    let mut dh = pool.scratch(&[n, h]);
    dh.data_mut().copy_from_slice(g.data());
    let c0 = pool.zeros(&[n, h]);
    let cell = match Backend::current() {
        Backend::Scalar => cell_backward,
        Backend::Simd => cell_backward_dispatch,
    };
    for t in (0..len).rev() {
        let gates_t = &saved.gates.data()[t * 4 * nh..][..4 * nh];
        let c_t = &saved.cells.data()[t * nh..][..nh];
        let c_prev = if t == 0 {
            c0.data()
        } else {
            &saved.cells.data()[(t - 1) * nh..][..nh]
        };
        let dgates_t = &mut dgates.data_mut()[t * 4 * nh..][..4 * nh];
        cell(gates_t, c_t, c_prev, dh.data(), dc.data_mut(), dgates_t, h);
        if t > 0 {
            let wt_h = Some(wt_h.data());
            kernels::a_bt_sharded(dgates_t, wh, wt_h, dh.data_mut(), (n, 4 * h, h));
        }
    }
    pool.give(dc);
    pool.give(dh);
    pool.give(c0);

    let dw = want_w.then(|| {
        let mut dw = pool.zeros(w.shape());
        let (dwx, dwh) = dw.data_mut().split_at_mut(x * 4 * h);
        let mut xs = pool.scratch(&[rows, x]);
        segment::gather_rows_into(src, steps, xs.data_mut());
        kernels::matmul_at_b_acc(xs.data(), dgates.data(), dwx, (rows, x, 4 * h));
        pool.give(xs);
        // Step `t ≥ 2` multiplied `h_{t-1}`; step 1 multiplied zeros.
        let later = dgates.data().get(4 * nh..).unwrap_or(&[]);
        kernels::matmul_at_b_acc(
            saved.hidden.data(),
            later,
            dwh,
            (rows.saturating_sub(n), h, 4 * h),
        );
        dw
    });
    let db = want_b.then(|| {
        let mut db = pool.scratch(&[4 * h]);
        kernels::sum_rows_into(&dgates, db.data_mut());
        db
    });
    let dsrc = wt_x.map(|wt_x| {
        let mut dxs = pool.scratch(&[rows, x]);
        let wt_x = Some(wt_x.data());
        kernels::a_bt_sharded(
            dgates.data(),
            wx,
            wt_x,
            dxs.data_mut(),
            (rows, 4 * h, x),
        );
        let mut dsrc = pool.zeros(src.shape());
        segment::scatter_add_rows(&mut dsrc, &dxs, steps);
        pool.give(dxs);
        dsrc
    });
    pool.give(dgates);
    [dsrc, dw, db]
}

/// The adjoint of [`cell_forward`] for one step: from `dh = dL/dh_t` and
/// the running `dc = dL/dc_t` (carried in from step `t + 1`) writes the
/// pre-activation gate gradients and leaves `dL/dc_{t-1}` in `dc`.
#[inline(always)]
fn cell_backward(
    gates: &[f32],
    c: &[f32],
    c_prev: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dgates: &mut [f32],
    hd: usize,
) {
    let saved = gates
        .chunks_exact(4 * hd)
        .zip(c.chunks_exact(hd).zip(c_prev.chunks_exact(hd)));
    let grads = dh
        .chunks_exact(hd)
        .zip(dc.chunks_exact_mut(hd).zip(dgates.chunks_exact_mut(4 * hd)));
    for ((g, (c, cp)), (dh, (dc, dg))) in saved.zip(grads) {
        let (i, f, gg, o) = (&g[..hd], &g[hd..2 * hd], &g[2 * hd..3 * hd], &g[3 * hd..]);
        let (di, rest) = dg.split_at_mut(hd);
        let (df, rest) = rest.split_at_mut(hd);
        let (dgg, d_o) = rest.split_at_mut(hd);
        for j in 0..hd {
            let tc = tanh(c[j]);
            let dct = dc[j] + dh[j] * o[j] * (1.0 - tc * tc);
            di[j] = dct * gg[j] * (i[j] * (1.0 - i[j]));
            df[j] = dct * cp[j] * (f[j] * (1.0 - f[j]));
            dgg[j] = dct * i[j] * (1.0 - gg[j] * gg[j]);
            d_o[j] = dh[j] * tc * (o[j] * (1.0 - o[j]));
            dc[j] = dct * f[j];
        }
    }
}

lane_dispatch!(
    cell_backward_dispatch,
    cell_backward_avx512,
    cell_backward_avx2,
    cell_backward(
        gates: &[f32],
        c: &[f32],
        c_prev: &[f32],
        dh: &[f32],
        dc: &mut [f32],
        dgates: &mut [f32],
        hd: usize,
    )
);

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::backend::with_backend;
    use crate::{check, Backend, DType, Graph, Tensor, VarId};

    /// The cell composed an op at a time — what `betty-nn` taped per step
    /// before the fused op existed, and the oracle it is held to.
    fn unrolled(g: &mut Graph, src: VarId, steps: &[usize], n: usize, w: VarId, b: VarId) -> VarId {
        let hd = g.value(w).cols() / 4;
        let mut h = g.zeros_leaf(&[n, hd]);
        let mut c = g.zeros_leaf(&[n, hd]);
        if n == 0 {
            return h;
        }
        for rows in steps.chunks(n) {
            let x = g.gather_rows(src, rows);
            let xh = g.concat_cols(&[x, h]);
            let gates = g.matmul(xh, w);
            let gates = g.add_bias(gates, b);
            let i_raw = g.slice_cols(gates, 0, hd);
            let f_raw = g.slice_cols(gates, hd, hd);
            let g_raw = g.slice_cols(gates, 2 * hd, hd);
            let o_raw = g.slice_cols(gates, 3 * hd, hd);
            let i = g.sigmoid(i_raw);
            let f = g.sigmoid(f_raw);
            let gg = g.tanh(g_raw);
            let o = g.sigmoid(o_raw);
            let fc = g.mul(f, c);
            let ig = g.mul(i, gg);
            c = g.add(fc, ig);
            let c_act = g.tanh(c);
            h = g.mul(o, c_act);
        }
        h
    }

    struct Case {
        src: Tensor,
        w: Tensor,
        b: Tensor,
        /// Weights of the scalar loss `Σ h_L ⊙ readout`.
        readout: Tensor,
        steps: Vec<usize>,
        n: usize,
    }

    /// `h_L` and the gradients of `src`, `w`, `b` under one implementation.
    fn run(case: &Case, fused: bool) -> [Tensor; 4] {
        let mut g = Graph::new();
        let src = g.leaf(case.src.clone());
        let w = g.leaf(case.w.clone());
        let b = g.leaf(case.b.clone());
        let h = if fused {
            g.lstm_sequence(src, &case.steps, case.n, w, b)
        } else {
            unrolled(&mut g, src, &case.steps, case.n, w, b)
        };
        let readout = g.constant(case.readout.clone());
        let weighted = g.mul(h, readout);
        let loss = g.sum(weighted);
        g.backward(loss);
        let grad = |v: VarId, like: &Tensor| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(like.shape()))
        };
        [
            g.value(h).clone(),
            grad(src, &case.src),
            grad(w, &case.w),
            grad(b, &case.b),
        ]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    const SRC_ROWS: usize = 9;

    fn arb_case() -> impl Strategy<Value = Case> {
        let shape = (0usize..6, 0usize..4, 0usize..3, 1usize..7);
        shape.prop_flat_map(|(n, x, h, len)| {
            let n = [0, 1, 5, 6, 7, 33][n];
            // Never equal, so a swapped `X`/`H` cannot cancel out.
            let (x, h) = ([1, 3, 8, 20][x], [2, 5, 36][h]);
            (
                proptest::collection::vec(-2.0f32..2.0, SRC_ROWS * x),
                proptest::collection::vec(-0.6f32..0.6, (x + h) * 4 * h),
                proptest::collection::vec(-0.5f32..0.5, 4 * h),
                proptest::collection::vec(-1.0f32..1.0, n * h),
                // Few source rows: neighbours repeat inside a step.
                proptest::collection::vec(0..SRC_ROWS, len * n),
            )
                .prop_map(move |(src, w, b, readout, steps)| Case {
                    src: Tensor::from_vec(src, &[SRC_ROWS, x]).expect("sized data"),
                    w: Tensor::from_vec(w, &[x + h, 4 * h]).expect("sized data"),
                    b: Tensor::from_vec(b, &[4 * h]).expect("sized data"),
                    readout: Tensor::from_vec(readout, &[n, h]).expect("sized data"),
                    steps,
                    n,
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The forward value is the unrolled cell's bit for bit, every
        /// gradient agrees with its adjoints to 1e-5 of the gradient's
        /// scale, and neither backend nor thread count moves a bit.
        #[test]
        fn fused_sequence_matches_the_unrolled_cell(case in arb_case()) {
            let want = run(&case, false);
            let mut first: Option<Vec<Vec<u32>>> = None;
            for backend in [Backend::Scalar, Backend::Simd] {
                for threads in [1usize, 4] {
                    let got = betty_runtime::with_threads(threads, || with_backend(backend, || run(&case, true)));
                    prop_assert_eq!(bits(&got[0]), bits(&want[0]), "h_L on {} x{}", backend, threads);
                    for (name, (got, want)) in ["src", "w", "b"].iter().zip(got.iter().zip(&want).skip(1)) {
                        let tol = 1e-5 * want.max_abs().max(1.0);
                        prop_assert!(got.approx_eq(want, tol), "d{name} on {backend} x{threads}");
                    }
                    let all: Vec<Vec<u32>> = got.iter().map(bits).collect();
                    let first = first.get_or_insert_with(|| all.clone());
                    prop_assert_eq!(&all, &*first, "{} x{} moved a bit", backend, threads);
                }
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

    /// Central differences through a 3-step sequence with a repeated
    /// neighbour, with respect to each of the op's three inputs.
    #[test]
    fn finite_differences_agree_through_three_steps() {
        let (x, h, n) = (3, 2, 2);
        let steps = [0usize, 2, 1, 1, 3, 0];
        let inputs = [
            dense(&[4, x], 0.3, 1.0),
            dense(&[x + h, 4 * h], 1.1, 0.7),
            dense(&[4 * h], 2.0, 0.3),
        ];
        for wrt in 0..3 {
            let res = check::check_gradient(&inputs[wrt], |g, var| {
                let vars: [VarId; 3] = std::array::from_fn(|k| {
                    if k == wrt {
                        var
                    } else {
                        g.leaf(inputs[k].clone())
                    }
                });
                let hl = g.lstm_sequence(vars[0], &steps, n, vars[1], vars[2]);
                let readout = g.constant(dense(&[n, h], 0.7, 1.0));
                let weighted = g.mul(hl, readout);
                g.sum(weighted)
            });
            assert!(res.passes(2e-2), "input {wrt}: {res:?}");
        }
    }

    /// The ledger charges exactly what the op keeps — six values per step,
    /// sequence and state unit, output included — at the tape's activation
    /// width, and nothing for the gathered inputs.
    #[test]
    fn activation_ledger_counts_the_saved_state_at_every_width() {
        let (x, h, n, len) = (5, 3, 4, 3);
        let steps: Vec<usize> = (0..len * n).map(|k| (k * 5) % 7).collect();
        for dtype in [DType::F32, DType::Bf16, DType::F16] {
            let mut g = Graph::new();
            g.set_activation_dtype(dtype);
            let src = g.leaf(dense(&[7, x], 0.0, 1.0));
            let w = g.leaf(dense(&[x + h, 4 * h], 1.0, 0.5));
            let b = g.leaf(dense(&[4 * h], 2.0, 0.2));
            let before = g.activation_bytes();
            let nodes = g.len();
            let hl = g.lstm_sequence(src, &steps, n, w, b);
            assert_eq!(g.len(), nodes + 1, "one tape node per sequence batch");
            let saved = 4 * len * n * h + len * n * h + (len - 1) * n * h;
            let charged = (saved + g.value(hl).len()) * dtype.bytes_per_value();
            assert_eq!(g.activation_bytes() - before, charged, "{dtype}");
            assert_eq!(charged, 6 * len * n * h * dtype.bytes_per_value());
            // Half widths store every kept value on the 16-bit grid.
            assert!(
                g.value(hl).data().iter().all(|&v| dtype.quantize(v) == v),
                "{dtype}"
            );
            g.reset();
            assert_eq!(g.activation_bytes(), 0);
        }
    }

    #[test]
    fn empty_sequences_are_the_zero_state() {
        let mut g = Graph::new();
        let src = g.leaf(dense(&[3, 2], 0.0, 1.0));
        let w = g.leaf(dense(&[2 + 3, 12], 1.0, 0.5));
        let b = g.leaf(dense(&[12], 2.0, 0.2));
        let h0 = g.lstm_sequence(src, &[], 4, w, b);
        assert_eq!(g.value(h0).shape(), &[4, 3]);
        assert_eq!(g.value(h0).max_abs(), 0.0);
        let none = g.lstm_sequence(src, &[], 0, w, b);
        assert_eq!(g.value(none).shape(), &[0, 3]);
    }
}
