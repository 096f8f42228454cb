//! The fused LSTM-sequence kernels behind [`crate::Graph::lstm_sequence`].
//!
//! Sequences of different lengths run as one op, packed like PyTorch's
//! `PackedSequence`: sorted longest first, step `t` runs the first
//! `sizes[t]` of them (`sizes` non-increasing, `sizes[0] = n`) and reads
//! row `steps[off_t + r]` of the source features as `x_t` of sequence
//! `r`, where `off_t = sizes[0] + … + sizes[t-1]`. A row of the packed
//! layout is one neighbour step. With `W: [X + H, 4H]` split into its row
//! blocks `W[..X]` and `W[X..]` each step computes
//!
//! ```text
//! i | f | g | o = σ, σ, tanh, σ of (x_t·W[..X] + h_{t-1}·W[X..] + b)
//! c_t = f ⊙ c_{t-1} + i ⊙ g          h_t = o ⊙ tanh(c_t)
//! ```
//!
//! from `h_0 = c_0 = 0`, and a sequence's last `h_t` is row `r` of the
//! op's `[n, H]` value, which holds each sequence's latest `h` as it runs.
//! The backward pass keeps [`Saved`], five values per neighbour step and
//! state unit, and nothing else round-trips through memory: `x_t` is
//! gathered again, `tanh(c_t)` and `h_{t-1} = o ⊙ tanh(c_{t-1})` are
//! recomputed, the pre-activation gates and the gate slices an op-by-op
//! cell tapes never exist, and the `[x ‖ h]` rows exist a chunk at a time.
//!
//! Forward, a step runs in chunks of [`CHUNK_ROWS`] rows — gather the
//! chunk's `[x_t ‖ h_{t-1}]` rows, multiply them by the whole `W` into
//! its gates from zero, run the cell — so a chunk's gates are still in
//! cache when the cell reads them. Every accumulator sees the additions
//! an unrolled cell gives it — `x` terms then `h` terms in ascending
//! order from zero, bias last — so the value is that cell's, bit for bit.
//! Backwards, only the recurrence is sequential. It runs each step in the
//! same chunks, so a chunk's gate gradients are still in cache when they
//! go back through `W[X..]ᵀ`, and leaves the gate gradients of every step
//! in one buffer. One ascending walk over it in blocks of
//! [`GRAD_BLOCK_ROWS`] rows then yields `dW`, `db` and `d src` together
//! (`dW` again as one product over `[x_t ‖ h_{t-1}]`), every gradient
//! element taking its rows in ascending packed order.

use crate::backend::Backend;
use crate::dtype::DType;
use crate::kernels::{self, sigmoid, tanh};
use crate::pool::BufferPool;
use crate::segment::{self, lane_dispatch};
use crate::Tensor;

/// Rows of one forward chunk: four 12-row tiles, whose `[48, 4H]` gates
/// stay in L1/L2 from the products to the cell.
const CHUNK_ROWS: usize = 48;

/// Rows of `dgates` the backward walk turns into every gradient at once.
const GRAD_BLOCK_ROWS: usize = 128;

/// What one op keeps for its adjoint, in packed row order like the
/// `steps` it was given. Stored at the tape's activation width: every
/// element is rounded onto that grid as it is written and the forward
/// pass carries the rounded value on, as a device holding halves would.
pub(crate) struct Saved {
    /// `[R, 4H]` activated gates `i | f | g | o`, one row per neighbour step.
    gates: Tensor,
    /// `[R, H]` cell states, one row per neighbour step.
    cells: Tensor,
    /// The activation width, which a rebuilt `h_{t-1}` is rounded to again.
    dtype: DType,
}

impl Saved {
    /// Elements held, for the tape's activation ledger.
    pub(crate) fn len(&self) -> usize {
        self.gates.len() + self.cells.len()
    }

    pub(crate) fn recycle_into(self, pool: &mut BufferPool) {
        pool.give(self.gates);
        pool.give(self.cells);
    }
}

/// Sequence count `n`, input width `X` and state width `H` of a call,
/// validated against each other.
fn dims(src: &Tensor, steps: &[usize], sizes: &[usize], w: &Tensor, b: &Tensor) -> (usize, usize, usize) {
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
    assert!(
        sizes.windows(2).all(|p| p[0] >= p[1]),
        "lstm step sizes must not increase, got {sizes:?}"
    );
    assert_eq!(
        steps.len(),
        sizes.iter().sum::<usize>(),
        "lstm steps must hold a source row per running sequence per step"
    );
    (sizes.first().copied().unwrap_or(0), x, h)
}

/// Runs the sequences forward; returns their last hidden states (`[n, H]`)
/// and what the adjoint needs.
pub(crate) fn forward(
    pool: &mut BufferPool,
    dtype: DType,
    src: &Tensor,
    steps: &[usize],
    sizes: &[usize],
    w: &Tensor,
    b: &Tensor,
) -> (Tensor, Saved) {
    let (n, x, h) = dims(src, steps, sizes, w, b);
    let rows = steps.len();
    let wx = &w.data()[..x * 4 * h];

    let mut gates = pool.scratch(&[rows, 4 * h]);
    let mut cells = pool.scratch(&[rows, h]);
    // Row `r` is sequence `r`'s latest `h`: a chunk copies its rows into
    // its inputs before its cell overwrites them, and no step after a
    // sequence's last writes its row again.
    let mut out = pool.scratch(&[n, h]);
    let mut inputs = pool.scratch(&[CHUNK_ROWS, x + h]);
    let c0 = pool.zeros(&[CHUNK_ROWS, h]);
    let cell = match Backend::current() {
        Backend::Scalar => cell_forward,
        Backend::Simd => cell_forward_dispatch,
    };
    let mut off = 0;
    for (t, &size) in sizes.iter().enumerate() {
        let (c_done, c_now) = cells.data_mut().split_at_mut(off * h);
        for r0 in (0..size).step_by(CHUNK_ROWS) {
            let r1 = size.min(r0 + CHUNK_ROWS);
            let len = r1 - r0;
            let gates_c = &mut gates.data_mut()[(off + r0) * 4 * h..(off + r1) * 4 * h];
            let steps_c = &steps[off + r0..off + r1];
            let h_c = &mut out.data_mut()[r0 * h..r1 * h];
            let c_prev = if t == 0 {
                // `h_0 = 0` is not multiplied: its terms are all `±0.0`,
                // which would leave the sums bit for bit as they are (a
                // NaN or `∞` in `W[X..]` first shows at `t = 1`).
                let x_c = &mut inputs.data_mut()[..len * x];
                gather_inputs(src, steps_c, x_c, x);
                kernels::matmul_set(x_c, wx, gates_c, (len, x, 4 * h));
                &c0.data()[..len * h]
            } else {
                let xh_c = &mut inputs.data_mut()[..len * (x + h)];
                gather_inputs(src, steps_c, xh_c, x + h);
                for (row, h_prev) in xh_c.chunks_exact_mut(x + h).zip(h_c.chunks_exact(h)) {
                    row[x..].copy_from_slice(h_prev);
                }
                kernels::matmul_set(xh_c, w.data(), gates_c, (len, x + h, 4 * h));
                let prev = off - sizes[t - 1];
                &c_done[(prev + r0) * h..(prev + r1) * h]
            };
            cell(gates_c, b.data(), c_prev, &mut c_now[r0 * h..r1 * h], h_c, h, dtype);
        }
        off += size;
    }
    pool.give(inputs);
    pool.give(c0);
    (out, Saved { gates, cells, dtype })
}

/// Row `r` of `out`, `width` values wide, starts with row `steps[r]` of
/// `src`: the `x_t` half of the `[x_t ‖ h_{t-1}]` left operand of one
/// product against the whole weight (all of `[x_t]` against `W[..X]`).
fn gather_inputs(src: &Tensor, steps: &[usize], out: &mut [f32], width: usize) {
    let x = src.cols();
    assert_eq!(out.len(), steps.len() * width, "lstm input rows length mismatch");
    if out.is_empty() {
        return;
    }
    for (row, &s) in out.chunks_exact_mut(width).zip(steps) {
        row[..x].copy_from_slice(src.row(s));
    }
}

/// `h = o ⊙ tanh(c)` of one row, rounded to `dtype`: the cell's last
/// stage, and how the adjoint rebuilds the `h_{t-1}` it multiplied.
#[inline(always)]
fn hidden(o: &[f32], c: &[f32], h: &mut [f32], dtype: DType) {
    for ((h, &o), &c) in h.iter_mut().zip(o).zip(c) {
        *h = o * tanh(c);
    }
    dtype.quantize_slice(h);
}

lane_dispatch!(hidden_dispatch, hidden_avx512, hidden_avx2, hidden(o: &[f32], c: &[f32], h: &mut [f32], dtype: DType));

/// One step of a run of sequences, a row at a time so a row's gates are still
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
        hidden(o, c, h, dtype);
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

/// Back-propagation through time from `g = dL/dh` of every sequence's
/// last step.
///
/// `wt_h` is `W[X..]` transposed (`[4H, H]`) and `wt_x`, present exactly
/// when the source wants a gradient, `W[..X]` transposed (`[4H, X]`): the
/// sweep packs each once for every sequence op sharing the weight. The
/// gate gradients of all steps are assembled in one `[R, 4H]` buffer by
/// the descending recurrence; one ascending walk over it then accumulates
/// `dW`, `db` and `d src`. Returns the gradients of `(src, w, b)` in that
/// order, `None` where the caller did not ask.
#[allow(clippy::too_many_arguments)] // the op's operands, each used once
pub(crate) fn backward(
    pool: &mut BufferPool,
    saved: &Saved,
    steps: &[usize],
    sizes: &[usize],
    src: &Tensor,
    w: &Tensor,
    g: &Tensor,
    wt_h: &Tensor,
    wt_x: Option<&Tensor>,
    (want_w, want_b): (bool, bool),
) -> [Option<Tensor>; 3] {
    let (x, h) = (src.cols(), w.cols() / 4);
    let (n, rows) = (sizes.first().copied().unwrap_or(0), steps.len());

    // Rows `..sizes[t]` of `dh` and `dc` hold step `t`'s incoming
    // gradients as the recurrence reaches it: a sequence that ends at `t`
    // still has its `g` row and a zero `dc`, one that goes on has what
    // step `t + 1` sent back.
    let mut dgates = pool.scratch(&[rows, 4 * h]);
    let mut dc = pool.zeros(&[n, h]);
    let mut dh = pool.scratch(&[n, h]);
    dh.data_mut().copy_from_slice(g.data());
    let c0 = pool.zeros(&[n, h]);
    let cell = match Backend::current() {
        Backend::Scalar => cell_backward,
        Backend::Simd => cell_backward_dispatch,
    };
    let wh = &w.data()[x * 4 * h..];
    let mut off = rows;
    for (t, &size) in sizes.iter().enumerate().rev() {
        off -= size;
        let gates_t = &saved.gates.data()[off * 4 * h..][..size * 4 * h];
        let c_t = &saved.cells.data()[off * h..][..size * h];
        let c_prev = if t == 0 {
            &c0.data()[..size * h]
        } else {
            &saved.cells.data()[(off - sizes[t - 1]) * h..][..size * h]
        };
        let dgates_t = &mut dgates.data_mut()[off * 4 * h..][..size * 4 * h];
        // In chunks, like the forward pass: a chunk's gate gradients are
        // still in cache when they are sent back through `W[X..]ᵀ`.
        for r0 in (0..size).step_by(CHUNK_ROWS) {
            let r1 = size.min(r0 + CHUNK_ROWS);
            let [dh_c, dc_c] = [&mut dh, &mut dc].map(|v| &mut v.data_mut()[r0 * h..r1 * h]);
            let dgates_c = &mut dgates_t[r0 * 4 * h..r1 * 4 * h];
            let gates_c = &gates_t[r0 * 4 * h..r1 * 4 * h];
            cell(gates_c, &c_t[r0 * h..r1 * h], &c_prev[r0 * h..r1 * h], dh_c, dc_c, dgates_c, h);
            if t > 0 {
                kernels::a_bt_sharded(dgates_c, wh, Some(wt_h.data()), dh_c, (r1 - r0, 4 * h, h));
            }
        }
    }
    pool.give(dc);
    pool.give(dh);
    pool.give(c0);

    let mut dw = want_w.then(|| pool.zeros(w.shape()));
    let mut db = want_b.then(|| pool.zeros(&[4 * h]));
    let mut dsrc = wt_x.is_some().then(|| pool.zeros(src.shape()));
    let rebuild = match Backend::current() {
        Backend::Scalar => hidden,
        Backend::Simd => hidden_dispatch,
    };
    // Step `t` and its first packed row, at the row being walked.
    let (mut t, mut off) = (0, 0);
    // A block's `[x ‖ h_{t-1}]` rows for `dW`, then its `d x` rows before
    // they are scattered onto the source.
    let mut block = pool.scratch(&[GRAD_BLOCK_ROWS, x + h]);
    for r0 in (0..rows).step_by(GRAD_BLOCK_ROWS) {
        let r1 = rows.min(r0 + GRAD_BLOCK_ROWS);
        let dgates_b = &dgates.data()[r0 * 4 * h..r1 * 4 * h];
        // `db` first: its sequential read brings the block into cache for
        // the `dW` product, which walks it a 32-column panel at a time.
        if let Some(db) = &mut db {
            for row in dgates_b.chunks_exact(4 * h) {
                for (d, &v) in db.data_mut().iter_mut().zip(row) {
                    *d += v;
                }
            }
        }
        if let Some(dw) = &mut dw {
            // Packed rows `..n` are step 0, which multiplied no `h`: they
            // feed `dW[..X]` alone. Every later row feeds the whole `dW`
            // through its `h_{t-1}`, rebuilt from the row of the step
            // before: row `j` of step `t` follows row `j − sizes[t − 1]`.
            let mid = n.clamp(r0, r1);
            let (first, later) = dgates_b.split_at((mid - r0) * 4 * h);
            let x_b = &mut block.data_mut()[..(mid - r0) * x];
            gather_inputs(src, &steps[r0..mid], x_b, x);
            let dwx = &mut dw.data_mut()[..x * 4 * h];
            kernels::matmul_at_b_acc(x_b, first, dwx, (mid - r0, x, 4 * h));
            let xh_b = &mut block.data_mut()[..(r1 - mid) * (x + h)];
            gather_inputs(src, &steps[mid..r1], xh_b, x + h);
            // Rows past step 0 are walked one by one, in ascending order.
            for (j, row) in (mid..r1).zip(xh_b.chunks_exact_mut(x + h)) {
                if j == off + sizes[t] {
                    (off, t) = (j, t + 1);
                }
                let p = j - sizes[t - 1];
                let o = &saved.gates.data()[(4 * p + 3) * h..][..h];
                rebuild(o, &saved.cells.data()[p * h..][..h], &mut row[x..], saved.dtype);
            }
            kernels::matmul_at_b_acc(xh_b, later, dw.data_mut(), (r1 - mid, x + h, 4 * h));
        }
        if let (Some(dsrc), Some(wt_x)) = (&mut dsrc, wt_x) {
            let wx = &w.data()[..x * 4 * h];
            let dx_b = &mut block.data_mut()[..(r1 - r0) * x];
            kernels::a_bt_sharded(dgates_b, wx, Some(wt_x.data()), dx_b, (r1 - r0, 4 * h, x));
            segment::scatter_add_slice(dsrc.data_mut(), x, dx_b, &steps[r0..r1]);
        }
    }
    pool.give(block);
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
    use crate::kernels::tests::approx_eq;
    use crate::{check, Backend, DType, Graph, Tensor, VarId};

    /// `σ(x) = tanh(x / 2) / 2 + 1 / 2`, the kernels' formula, op by op.
    fn sigmoid(g: &mut Graph, x: VarId) -> VarId {
        let half = g.scale(x, 0.5);
        let t = g.tanh(half);
        let t = g.scale(t, 0.5);
        let c = g.constant(Tensor::full(g.value(x).shape(), 0.5));
        g.add(t, c)
    }

    /// The cell composed an op at a time, one sequence at a time — what
    /// `betty-nn` taped per step before the fused op existed, and the
    /// oracle it is held to. Returns each sequence's last hidden state
    /// (`[1, H]`) in packed order.
    fn unrolled(g: &mut Graph, src: VarId, steps: &[usize], sizes: &[usize], w: VarId, b: VarId) -> Vec<VarId> {
        let hd = g.value(w).cols() / 4;
        let n = sizes.first().copied().unwrap_or(0);
        (0..n)
            .map(|r| {
                let mut h = g.zeros_leaf(&[1, hd]);
                let mut c = g.zeros_leaf(&[1, hd]);
                let mut off = 0;
                for &size in sizes.iter().take_while(|&&size| size > r) {
                    let x = g.gather_rows(src, &[steps[off + r]]);
                    let xh = g.concat_cols(&[x, h]);
                    let gates = g.matmul(xh, w);
                    let gates = g.add_bias(gates, b);
                    let i_raw = g.slice_cols(gates, 0, hd);
                    let f_raw = g.slice_cols(gates, hd, hd);
                    let g_raw = g.slice_cols(gates, 2 * hd, hd);
                    let o_raw = g.slice_cols(gates, 3 * hd, hd);
                    let i = sigmoid(g, i_raw);
                    let f = sigmoid(g, f_raw);
                    let gg = g.tanh(g_raw);
                    let o = sigmoid(g, o_raw);
                    let fc = g.mul(f, c);
                    let ig = g.mul(i, gg);
                    c = g.add(fc, ig);
                    let c_act = g.tanh(c);
                    h = g.mul(o, c_act);
                    off += size;
                }
                h
            })
            .collect()
    }

    struct Case {
        src: Tensor,
        w: Tensor,
        b: Tensor,
        /// Weights of the scalar loss `Σ h ⊙ readout`.
        readout: Tensor,
        steps: Vec<usize>,
        sizes: Vec<usize>,
    }

    /// The last hidden states and the gradients of `src`, `w`, `b` under
    /// one implementation.
    fn run(case: &Case, fused: bool) -> [Tensor; 4] {
        let mut g = Graph::new();
        let src = g.leaf(case.src.clone());
        let w = g.leaf(case.w.clone());
        let b = g.leaf(case.b.clone());
        let readout = g.constant(case.readout.clone());
        let (h, loss) = if fused {
            let h = g.lstm_sequence(src, &case.steps, &case.sizes, w, b);
            let weighted = g.mul(h, readout);
            (g.value(h).clone(), g.sum(weighted))
        } else {
            let finals = unrolled(&mut g, src, &case.steps, &case.sizes, w, b);
            let hd = case.readout.cols();
            let mut rows = Vec::new();
            let mut loss = None;
            for (r, &h) in finals.iter().enumerate() {
                rows.extend_from_slice(g.value(h).data());
                let readout_r = g.constant(Tensor::from_vec(case.readout.row(r).to_vec(), &[1, hd]).expect("one row"));
                let weighted = g.mul(h, readout_r);
                let term = g.sum(weighted);
                loss = Some(loss.map_or(term, |sum| g.add(sum, term)));
            }
            let h = Tensor::from_vec(rows, &[finals.len(), hd]).expect("one row per sequence");
            (h, loss.unwrap_or_else(|| g.zeros_leaf(&[1])))
        };
        g.backward(loss);
        let grad = |v: VarId, like: &Tensor| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(like.shape()))
        };
        [h, grad(src, &case.src), grad(w, &case.w), grad(b, &case.b)]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    const SRC_ROWS: usize = 9;

    /// `sizes` of sequences with these lengths, sorted longest first.
    fn packed_sizes(lens: &[usize]) -> Vec<usize> {
        let longest = lens.iter().copied().max().unwrap_or(0);
        (0..longest).map(|t| lens.iter().filter(|&&l| l > t).count()).collect()
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        let shape = (0usize..6, 0usize..4, 0usize..3, 1usize..7, 0usize..3);
        shape.prop_flat_map(|(n, x, h, longest, uniform)| {
            let n = [0, 1, 5, 6, 7, 33][n];
            // Never equal, so a swapped `X`/`H` cannot cancel out.
            let (x, h) = ([1, 3, 8, 20][x], [2, 5, 36][h]);
            (
                proptest::collection::vec(-2.0f32..2.0, SRC_ROWS * x),
                proptest::collection::vec(-0.6f32..0.6, (x + h) * 4 * h),
                proptest::collection::vec(-0.5f32..0.5, 4 * h),
                proptest::collection::vec(-1.0f32..1.0, n * h),
                // Few source rows: neighbours repeat inside a step.
                proptest::collection::vec(0..SRC_ROWS, longest * n),
                // Ragged lengths with ties and length-1 sequences, or (one
                // case in three) all equal.
                proptest::collection::vec(1..longest + 1, n),
            )
                .prop_map(move |(src, w, b, readout, rows, mut lens)| {
                    if uniform == 0 {
                        lens.fill(longest);
                    }
                    lens.sort_unstable_by(|a, b| b.cmp(a));
                    let sizes = packed_sizes(&lens);
                    let steps = rows[..sizes.iter().sum::<usize>()].to_vec();
                    Case {
                        src: Tensor::from_vec(src, &[SRC_ROWS, x]).expect("sized data"),
                        w: Tensor::from_vec(w, &[x + h, 4 * h]).expect("sized data"),
                        b: Tensor::from_vec(b, &[4 * h]).expect("sized data"),
                        readout: Tensor::from_vec(readout, &[n, h]).expect("sized data"),
                        steps,
                        sizes,
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each sequence's last state is the unrolled cell's bit for bit,
        /// every gradient agrees with its adjoints to 1e-5 of the
        /// gradient's scale, and neither backend nor thread count moves a
        /// bit — over ragged lengths (ties, length-1 sequences, a single
        /// sequence) and uniform ones.
        #[test]
        fn fused_sequence_matches_the_unrolled_cell(case in arb_case()) {
            let want = run(&case, false);
            let mut first: Option<Vec<Vec<u32>>> = None;
            for backend in [Backend::Scalar, Backend::Simd] {
                for threads in [1usize, 4] {
                    let got = betty_runtime::with_threads(threads, || with_backend(backend, || run(&case, true)));
                    prop_assert_eq!(bits(&got[0]), bits(&want[0]), "h on {} x{}", backend, threads);
                    for (name, (got, want)) in ["src", "w", "b"].iter().zip(got.iter().zip(&want).skip(1)) {
                        let tol = 1e-5 * want.max_abs().max(1.0);
                        prop_assert!(approx_eq(got, want, tol), "d{name} on {backend} x{threads}");
                    }
                    let all: Vec<Vec<u32>> = got.iter().map(bits).collect();
                    let first = first.get_or_insert_with(|| all.clone());
                    prop_assert_eq!(&all, &*first, "{} x{} moved a bit", backend, threads);
                }
            }
        }
    }

    /// Steps wider than a forward chunk and a gradient block, with a run of
    /// sequences ending inside a chunk: the packed op against the
    /// unrolled cell as above, at the SAGE-LSTM layer's `X = H` shape.
    #[test]
    fn long_steps_cross_chunk_and_block_boundaries() {
        let (x, h) = (12, 12);
        let lens: Vec<usize> = (0..150).map(|r| 1 + (r * 7 + 3) % 4).collect();
        let mut sorted = lens.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let sizes = packed_sizes(&sorted);
        let rows: usize = sizes.iter().sum();
        let case = Case {
            src: dense(&[40, x], 0.3, 1.0),
            w: dense(&[x + h, 4 * h], 1.1, 0.4),
            b: dense(&[4 * h], 2.0, 0.3),
            readout: dense(&[150, h], 0.7, 1.0),
            steps: (0..rows).map(|k| (k * 13 + 5) % 40).collect(),
            sizes,
        };
        let want = run(&case, false);
        for backend in [Backend::Scalar, Backend::Simd] {
            let got = with_backend(backend, || run(&case, true));
            assert_eq!(bits(&got[0]), bits(&want[0]), "h on {backend}");
            for (name, (got, want)) in ["src", "w", "b"].iter().zip(got.iter().zip(&want).skip(1)) {
                let tol = 1e-5 * want.max_abs().max(1.0);
                assert!(approx_eq(got, want, tol), "d{name} on {backend}");
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

    /// Central differences through sequences of three and two steps with a
    /// repeated neighbour, with respect to each of the op's three inputs.
    #[test]
    fn finite_differences_agree_through_three_steps() {
        let (x, h, n) = (3, 2, 2);
        let (steps, sizes) = ([0usize, 2, 1, 1, 3], [2, 2, 1]);
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
                let hl = g.lstm_sequence(vars[0], &steps, &sizes, vars[1], vars[2]);
                let readout = g.constant(dense(&[n, h], 0.7, 1.0));
                let weighted = g.mul(hl, readout);
                g.sum(weighted)
            });
            assert!(res.passes(2e-2), "input {wrt}: {res:?}");
        }
    }

    /// The ledger charges exactly what the op keeps — five values per
    /// neighbour step and state unit, and the `[n, H]` output — at the
    /// tape's activation width, and nothing for the gathered inputs or the
    /// hidden states the adjoint rebuilds.
    #[test]
    fn activation_ledger_counts_the_saved_state_at_every_width() {
        let (x, h, n) = (5, 3, 4);
        let sizes = [4, 3, 3, 1];
        let len: usize = sizes.iter().sum();
        let steps: Vec<usize> = (0..len).map(|k| (k * 5) % 7).collect();
        for dtype in [DType::F32, DType::Bf16, DType::F16] {
            let mut g = Graph::new();
            g.set_activation_dtype(dtype);
            let src = g.leaf(dense(&[7, x], 0.0, 1.0));
            let w = g.leaf(dense(&[x + h, 4 * h], 1.0, 0.5));
            let b = g.leaf(dense(&[4 * h], 2.0, 0.2));
            let before = g.activation_bytes();
            let nodes = g.len();
            let hl = g.lstm_sequence(src, &steps, &sizes, w, b);
            assert_eq!(g.len(), nodes + 1, "one tape node per sequence batch");
            let saved = 4 * len * h + len * h;
            let charged = (saved + g.value(hl).len()) * dtype.bytes_per_value();
            assert_eq!(g.activation_bytes() - before, charged, "{dtype}");
            assert_eq!(charged, (5 * len + n) * h * dtype.bytes_per_value());
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
        let none = g.lstm_sequence(src, &[], &[], w, b);
        assert_eq!(g.value(none).shape(), &[0, 3]);
        let idle = g.lstm_sequence(src, &[], &[0, 0], w, b);
        assert_eq!(g.value(idle).shape(), &[0, 3]);
        let loss = g.sum(idle);
        g.backward(loss);
        assert_eq!(g.grad(w).map_or(0.0, |d| d.max_abs()), 0.0);
    }
}
