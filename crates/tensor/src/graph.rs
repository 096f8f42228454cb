//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied to its variables in execution
//! order (the *tape*). [`Graph::backward`] walks the tape in reverse and
//! accumulates gradients into every reachable leaf. Each op's adjoint is a
//! boxed closure capturing the (reference-counted, hence cheap) tensors it
//! needs.
//!
//! The engine is deliberately define-by-run: GNN forward passes are shaped by
//! the sampled graph structure, so a new tape per micro-batch is the natural
//! fit (and mirrors how PyTorch/DGL execute the original Betty).
//!
//! Unlike a naive tape, this one owns a [`BufferPool`]: forward values and
//! backward gradients are drawn from size-class free lists, and
//! [`Graph::reset`] drains the finished tape back into the pool instead of
//! freeing it. Micro-batched training replays near-identical shapes every
//! step, so after a warm-up step the tape is rebuilt with almost no heap
//! allocation. Pooled and unpooled execution run the same kernels on the
//! same bytes — every pooled buffer is fully written before it is read — so
//! results are bit-identical either way.

use std::ops::Range;

use crate::affine;
use crate::dtype::DType;
use crate::kernels;
use crate::lstm;
use crate::pool::{BufferPool, PoolStats};
use crate::segment;
use crate::Tensor;

/// Handle to a variable stored on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

/// One term `x[..rows] · w (+ bias)` of [`Graph::affine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineTerm {
    /// `[≥ rows, k]` input; only its leading `rows` rows are read.
    pub x: VarId,
    /// `[k, o]` weight.
    pub w: VarId,
    /// `[o]` bias added to every row of the product, if any.
    pub bias: Option<VarId>,
}

/// Parent list specialized for the common arities so recording an op does
/// not allocate a `Vec` per node.
enum Parents {
    None,
    One(VarId),
    Two(VarId, VarId),
    Many(Vec<VarId>),
}

impl Parents {
    fn from_slice(ids: &[VarId]) -> Self {
        match ids {
            [] => Parents::None,
            [a] => Parents::One(*a),
            [a, b] => Parents::Two(*a, *b),
            _ => Parents::Many(ids.to_vec()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Parents::None => 0,
            Parents::One(_) => 1,
            Parents::Two(..) => 2,
            Parents::Many(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> VarId {
        match (self, i) {
            (Parents::One(a), 0) => *a,
            (Parents::Two(a, _), 0) => *a,
            (Parents::Two(_, b), 1) => *b,
            (Parents::Many(v), _) => v[i],
            _ => panic!("parent index {i} out of range"),
        }
    }
}

/// Pointwise activation recorded by [`Op::Unary`]. Both directions match
/// on the kind once per call, outside the element loop, so each arm is a
/// straight-line loop the compiler vectorises.
#[derive(Clone, Copy)]
enum UnaryKind {
    Relu,
    LeakyRelu(f32),
    Elu(f32),
    Sigmoid,
    Tanh,
}

impl UnaryKind {
    /// `out[k] = f(a[k])`.
    fn apply_into(self, a: &Tensor, out: &mut [f32]) {
        match self {
            UnaryKind::Relu => kernels::map_into(a, out, |x| x.max(0.0)),
            UnaryKind::LeakyRelu(alpha) => {
                kernels::map_into(a, out, |x| if x > 0.0 { x } else { alpha * x })
            }
            UnaryKind::Elu(alpha) => kernels::map_into(a, out, |x| {
                if x > 0.0 {
                    x
                } else {
                    alpha * (x.exp() - 1.0)
                }
            }),
            UnaryKind::Sigmoid => kernels::sigmoid_into(a, out),
            UnaryKind::Tanh => kernels::tanh_into(a, out),
        }
    }

    /// `g[k] *= f'(x[k])`, from the op's input `x` and output `y`
    /// (whichever is cheaper for the particular function).
    fn scale_by_derivative(self, x: &[f32], y: &[f32], g: &mut [f32]) {
        let xy = x.iter().zip(y);
        match self {
            UnaryKind::Relu => {
                for (g, (&x, _)) in g.iter_mut().zip(xy) {
                    *g *= if x > 0.0 { 1.0 } else { 0.0 };
                }
            }
            UnaryKind::LeakyRelu(alpha) => {
                for (g, (&x, _)) in g.iter_mut().zip(xy) {
                    *g *= if x > 0.0 { 1.0 } else { alpha };
                }
            }
            UnaryKind::Elu(alpha) => {
                for (g, (&x, &y)) in g.iter_mut().zip(xy) {
                    *g *= if x > 0.0 { 1.0 } else { y + alpha };
                }
            }
            UnaryKind::Sigmoid => {
                for (g, (_, &y)) in g.iter_mut().zip(xy) {
                    *g *= y * (1.0 - y);
                }
            }
            UnaryKind::Tanh => {
                for (g, (_, &y)) in g.iter_mut().zip(xy) {
                    *g *= 1.0 - y * y;
                }
            }
        }
    }
}

/// The recorded operation of a non-leaf node.
///
/// Unlike a boxed closure, an `Op` is a plain enum: recording it performs no
/// heap allocation beyond its payload, and every payload that does allocate
/// (index lists, auxiliary tensors) is drawn from — and returned to — the
/// tape's [`BufferPool`] so steady-state steps rebuild the tape without
/// touching the allocator. Most adjoints need no payload at all: parent and
/// output values are read back from the tape during the backward sweep.
enum Op {
    Add,
    Sub,
    Mul,
    Scale(f32),
    Unary(UnaryKind),
    /// Payload: the dropout mask pre-scaled by `1/(1-p)`.
    DropoutMask(Tensor),
    Matmul,
    AddBias,
    ScaleRowsBy,
    MulScalarVar,
    ConcatCols,
    ConcatRows,
    SliceCols {
        start: usize,
        len: usize,
    },
    /// Prefix-rows view: the output is the first `rows()` rows of the parent.
    SliceRows,
    Sum,
    GatherRows(Vec<usize>),
    ScatterRows(Vec<usize>),
    SegmentSum(Vec<usize>),
    SegmentMean {
        ids: Vec<usize>,
        /// `[n_segments]`: `1 / max(count, 1)` per segment.
        inv: Tensor,
    },
    SegmentMax {
        /// Row index of each `(segment, column)` winner; `usize::MAX` marks
        /// an empty segment.
        argmax: Vec<usize>,
    },
    FusedSum {
        gather_ids: Vec<usize>,
        segment_ids: Vec<usize>,
    },
    FusedMean {
        gather_ids: Vec<usize>,
        segment_ids: Vec<usize>,
        /// `[n_segments]`: `1 / count` per segment (0 for empty segments).
        inv: Tensor,
    },
    FusedWeightedSum {
        gather_ids: Vec<usize>,
        segment_ids: Vec<usize>,
        /// `[num_edges]` per-edge weights.
        weights: Tensor,
    },
    SegmentSoftmax {
        ids: Vec<usize>,
        n_segments: usize,
    },
    LogSoftmaxRows,
    CrossEntropy {
        /// `[n, classes]` log-softmax of the logits, kept for the adjoint.
        log_probs: Tensor,
        targets: Vec<usize>,
        reduction: Reduction,
    },
    /// Parents `x, w` and — where bit `i` of `biased` is set — `bias` of
    /// each of the `terms` terms in turn; see [`Graph::affine`]. The
    /// output's row count is the number of leading rows read from every
    /// `x`.
    Affine {
        terms: usize,
        biased: u32,
        relu: bool,
    },
    /// Parents `(src, w, b)`; see [`Graph::lstm_sequence`].
    LstmSequence {
        /// Source row of sequence `r` at step `t`, at `t * n + r`.
        steps: Vec<usize>,
        n: usize,
        saved: lstm::Saved,
    },
}

impl Op {
    /// Returns the op's pooled payloads to `pool` when the tape resets.
    /// Payload tensors that still alias a node value are skipped by
    /// [`BufferPool::give`] and simply dropped.
    fn recycle_into(self, pool: &mut BufferPool) {
        match self {
            Op::DropoutMask(t) => pool.give(t),
            Op::GatherRows(idx) | Op::ScatterRows(idx) | Op::SegmentSum(idx) => {
                pool.give_indices(idx);
            }
            Op::SegmentMean { ids, inv } => {
                pool.give_indices(ids);
                pool.give(inv);
            }
            Op::SegmentMax { argmax } => pool.give_indices(argmax),
            Op::FusedSum {
                gather_ids,
                segment_ids,
            } => {
                pool.give_indices(gather_ids);
                pool.give_indices(segment_ids);
            }
            Op::FusedMean {
                gather_ids,
                segment_ids,
                inv,
            } => {
                pool.give_indices(gather_ids);
                pool.give_indices(segment_ids);
                pool.give(inv);
            }
            Op::FusedWeightedSum {
                gather_ids,
                segment_ids,
                weights,
            } => {
                pool.give_indices(gather_ids);
                pool.give_indices(segment_ids);
                pool.give(weights);
            }
            Op::SegmentSoftmax { ids, .. } => pool.give_indices(ids),
            Op::CrossEntropy {
                log_probs, targets, ..
            } => {
                pool.give(log_probs);
                pool.give_indices(targets);
            }
            Op::LstmSequence { steps, saved, .. } => {
                pool.give_indices(steps);
                saved.recycle_into(pool);
            }
            _ => {}
        }
    }

    /// Elements the op keeps for its adjoint that the activation ledger
    /// charges like node values. Only the fused LSTM's state counts: it
    /// stands in for what a dozen nodes per step used to hold, whereas the
    /// other payloads (masks, reciprocal counts, log-probabilities) have
    /// never been on the ledger and the estimator does not model them.
    fn saved_len(&self) -> usize {
        match self {
            Op::LstmSequence { saved, .. } => saved.len(),
            _ => 0,
        }
    }

    /// Whether parent `slot` of node `i` is read as a *strict row prefix*:
    /// the `x` of an affine term with more rows than the output. Such a read
    /// stands for a `slice_rows` taped as soon as `x` existed — before `x`'s
    /// other consumers, as a SAGE layer took `h_dst` before it aggregated —
    /// so its gradient joins `x`'s after every other contribution, when the
    /// sweep reaches `x` itself; a sum of three or more floats depends on
    /// that order. A full-height `x` is a plain product operand and its
    /// gradient joins at this node's turn, as a `matmul`'s does.
    fn reads_prefix(&self, nodes: &[Node], i: usize, slot: usize) -> bool {
        let Op::Affine { terms, biased, .. } = self else {
            return false;
        };
        let node = &nodes[i];
        affine_slots(*terms, *biased)
            .any(|(x, _)| x == slot && nodes[node.parents.get(x).0].value.rows() > node.value.rows())
    }

    /// Adjoint: maps the output gradient `g` of node `i` to one gradient per
    /// parent (in parent order), pushed into `out`; `None` where the op saw
    /// that the parent needs no gradient and skipped the work. Gradients
    /// are drawn from the pool so the backward sweep recycles them, and
    /// `packed` is the sweep's cache of transposed weights (see
    /// [`Graph::backward`]).
    fn backward(
        &self,
        nodes: &[Node],
        i: usize,
        g: &Tensor,
        pool: &mut BufferPool,
        packed: &mut Vec<PackedRows>,
        out: &mut Vec<Option<Tensor>>,
    ) {
        let parent = |j: usize| &nodes[nodes[i].parents.get(j).0].value;
        let value = &nodes[i].value;
        match self {
            Op::Add => {
                out.push(Some(pooled_copy(pool, g)));
                out.push(Some(pooled_copy(pool, g)));
            }
            Op::Sub => {
                out.push(Some(pooled_copy(pool, g)));
                let mut db = pool.scratch(g.shape());
                kernels::map_into(g, db.data_mut(), |x| -x);
                out.push(Some(db));
            }
            Op::Mul => {
                let (av, bv) = (parent(0), parent(1));
                let mut da = pool.scratch(g.shape());
                kernels::zip_map_into(g, bv, da.data_mut(), |x, y| x * y);
                out.push(Some(da));
                let mut db = pool.scratch(g.shape());
                kernels::zip_map_into(g, av, db.data_mut(), |x, y| x * y);
                out.push(Some(db));
            }
            Op::Scale(s) => {
                let s = *s;
                let mut da = pool.scratch(g.shape());
                kernels::map_into(g, da.data_mut(), |x| x * s);
                out.push(Some(da));
            }
            Op::Unary(kind) => {
                let mut o = pooled_copy(pool, g);
                kind.scale_by_derivative(parent(0).data(), value.data(), o.data_mut());
                out.push(Some(o));
            }
            Op::DropoutMask(scaled_mask) => {
                let mut da = pool.scratch(g.shape());
                kernels::zip_map_into(g, scaled_mask, da.data_mut(), |x, y| x * y);
                out.push(Some(da));
            }
            Op::Matmul => {
                let (a, b) = (nodes[i].parents.get(0), nodes[i].parents.get(1));
                let (av, bv) = (parent(0), parent(1));
                out.push(nodes[a.0].needs_grad.then(|| {
                    // dA = g · bᵀ: one transpose of `b` serves every product
                    // against it in this sweep.
                    let slot = packed_rows(packed, pool, b, bv, 0..bv.rows());
                    let mut da = pool.scratch(av.shape());
                    kernels::matmul_a_bt_packed_into(g, bv, &packed[slot].transposed, da.data_mut());
                    da
                }));
                out.push(nodes[b.0].needs_grad.then(|| {
                    let mut db = pool.zeros(bv.shape());
                    kernels::matmul_at_b_into(av, g, db.data_mut());
                    db
                }));
            }
            Op::AddBias => {
                out.push(Some(pooled_copy(pool, g)));
                let mut db = pool.scratch(&[g.cols()]);
                kernels::sum_rows_into(g, db.data_mut());
                out.push(Some(db));
            }
            Op::ScaleRowsBy => {
                let (av, sv) = (parent(0), parent(1));
                let mut da = pool.scratch(g.shape());
                kernels::scale_rows_into(g, sv.data(), da.data_mut());
                out.push(Some(da));
                let (rows, cols) = (av.rows(), av.cols());
                let mut ds = pool.scratch(&[rows, 1]);
                for (r, d) in ds.data_mut().iter_mut().enumerate() {
                    let grow = g.row(r);
                    let arow = av.row(r);
                    *d = (0..cols).map(|c| grow[c] * arow[c]).sum();
                }
                out.push(Some(ds));
            }
            Op::MulScalarVar => {
                let (av, sv) = (parent(0), parent(1));
                let sval = sv.item();
                let mut da = pool.scratch(g.shape());
                kernels::map_into(g, da.data_mut(), |x| x * sval);
                out.push(Some(da));
                let ds: f32 = g
                    .data()
                    .iter()
                    .zip(av.data())
                    .map(|(&x, &y)| x * y)
                    .sum();
                let mut dst = pool.scratch(&[1]);
                dst.data_mut()[0] = ds;
                out.push(Some(dst));
            }
            Op::ConcatCols => {
                let mut offset = 0;
                for j in 0..nodes[i].parents.len() {
                    let w = parent(j).cols();
                    let mut part = pool.scratch(&[g.rows(), w]);
                    kernels::slice_cols_into(g, offset, w, part.data_mut());
                    out.push(Some(part));
                    offset += w;
                }
            }
            Op::ConcatRows => {
                let cols = g.cols();
                let mut offset = 0;
                for j in 0..nodes[i].parents.len() {
                    let h = parent(j).rows();
                    let mut part = pool.scratch(&[h, cols]);
                    part.data_mut()
                        .copy_from_slice(&g.data()[offset * cols..(offset + h) * cols]);
                    out.push(Some(part));
                    offset += h;
                }
            }
            Op::SliceCols { start, len } => {
                let (rows, cols) = (parent(0).rows(), parent(0).cols());
                let mut full = pool.zeros(&[rows, cols]);
                let fd = full.data_mut();
                for r in 0..rows {
                    fd[r * cols + start..r * cols + start + len].copy_from_slice(g.row(r));
                }
                out.push(Some(full));
            }
            Op::SliceRows => {
                let (rows, cols) = (parent(0).rows(), parent(0).cols());
                let head = g.rows() * cols;
                let mut full = pool.zeros(&[rows, cols]);
                full.data_mut()[..head].copy_from_slice(g.data());
                out.push(Some(full));
            }
            Op::Sum => {
                out.push(Some(pool.full(parent(0).shape(), g.item())));
            }
            Op::GatherRows(idx) => {
                let src = parent(0);
                let mut o = pool.zeros(&[src.rows(), src.cols()]);
                segment::scatter_add_rows(&mut o, g, idx);
                out.push(Some(o));
            }
            Op::ScatterRows(idx) => {
                let mut o = pool.scratch(&[idx.len(), g.cols()]);
                segment::gather_rows_into(g, idx, o.data_mut());
                out.push(Some(o));
            }
            Op::SegmentSum(ids) => {
                let mut o = pool.scratch(&[ids.len(), g.cols()]);
                segment::gather_rows_into(g, ids, o.data_mut());
                out.push(Some(o));
            }
            Op::SegmentMean { ids, inv } => {
                let cols = g.cols();
                let mut grad = pool.scratch(&[ids.len(), cols]);
                segment::gather_rows_into(g, ids, grad.data_mut());
                let gd = grad.data_mut();
                let inv = inv.data();
                for (r, &s) in ids.iter().enumerate() {
                    for v in &mut gd[r * cols..(r + 1) * cols] {
                        *v *= inv[s];
                    }
                }
                out.push(Some(grad));
            }
            Op::SegmentMax { argmax } => {
                let src = parent(0);
                let (rows, cols) = (src.rows(), src.cols());
                let n_segments = g.rows();
                let mut o = pool.zeros(&[rows, cols]);
                let od = o.data_mut();
                for s in 0..n_segments {
                    for c in 0..cols {
                        let winner = argmax[s * cols + c];
                        if winner != usize::MAX {
                            od[winner * cols + c] += g.at2(s, c);
                        }
                    }
                }
                out.push(Some(o));
            }
            Op::FusedSum {
                gather_ids,
                segment_ids,
            } => {
                let mut o = pool.zeros(&[parent(0).rows(), g.cols()]);
                segment::fused_gather_segment_sum_backward_into(
                    g,
                    gather_ids,
                    segment_ids,
                    None,
                    o.data_mut(),
                );
                out.push(Some(o));
            }
            Op::FusedMean {
                gather_ids,
                segment_ids,
                inv,
            } => {
                let mut o = pool.zeros(&[parent(0).rows(), g.cols()]);
                segment::fused_gather_segment_sum_backward_into(
                    g,
                    gather_ids,
                    segment_ids,
                    Some(inv.data()),
                    o.data_mut(),
                );
                out.push(Some(o));
            }
            Op::FusedWeightedSum {
                gather_ids,
                segment_ids,
                weights,
            } => {
                let mut o = pool.zeros(&[parent(0).rows(), g.cols()]);
                segment::fused_gather_segment_weighted_sum_backward_into(
                    g,
                    gather_ids,
                    segment_ids,
                    &weights.data()[..gather_ids.len()],
                    o.data_mut(),
                );
                out.push(Some(o));
            }
            Op::SegmentSoftmax { ids, n_segments } => {
                // dX = y ⊙ (g − Σ_seg (g ⊙ y)), per column within a segment.
                let y = value;
                let cols = y.cols();
                let mut gy = pool.scratch(y.shape());
                kernels::zip_map_into(g, y, gy.data_mut(), |x, yv| x * yv);
                let mut sums = pool.zeros(&[*n_segments, cols]);
                segment::segment_sum_into(&gy, ids, sums.data_mut());
                let mut o = pooled_copy(pool, g);
                let od = o.data_mut();
                for (r, &s) in ids.iter().enumerate() {
                    for c in 0..cols {
                        od[r * cols + c] = y.at2(r, c) * (od[r * cols + c] - sums.at2(s, c));
                    }
                }
                pool.give(gy);
                pool.give(sums);
                out.push(Some(o));
            }
            Op::LogSoftmaxRows => {
                let y = value;
                let (rows, cols) = (y.rows(), y.cols());
                let mut o = pooled_copy(pool, g);
                let od = o.data_mut();
                for r in 0..rows {
                    let row_sum: f32 = g.row(r).iter().sum();
                    for c in 0..cols {
                        od[r * cols + c] -= y.at2(r, c).exp() * row_sum;
                    }
                }
                out.push(Some(o));
            }
            Op::CrossEntropy {
                log_probs,
                targets,
                reduction,
            } => {
                let (n, classes) = (log_probs.rows(), log_probs.cols());
                let upstream = g.item();
                let scale = match reduction {
                    Reduction::Mean => upstream / n.max(1) as f32,
                    Reduction::Sum => upstream,
                };
                let mut grad = pool.scratch(log_probs.shape());
                let gd = grad.data_mut();
                kernels::map_into(log_probs, gd, f32::exp);
                for (r, &t) in targets.iter().enumerate() {
                    gd[r * classes + t] -= 1.0;
                }
                for v in gd.iter_mut() {
                    *v *= scale;
                }
                out.push(Some(grad));
            }
            Op::Affine {
                terms,
                biased,
                relu,
            } => {
                let parents = &nodes[i].parents;
                // The mask reads the output: `max(s, 0) > 0` exactly when
                // `s > 0`.
                let masked = relu.then(|| {
                    let mut m = pooled_copy(pool, g);
                    UnaryKind::Relu.scale_by_derivative(value.data(), value.data(), m.data_mut());
                    m
                });
                let g = masked.as_ref().unwrap_or(g);
                for (x, has_bias) in affine_slots(*terms, *biased) {
                    let (xv, wv) = (parents.get(x), parents.get(x + 1));
                    let wt = nodes[xv.0].needs_grad.then(|| {
                        let w = &nodes[wv.0].value;
                        packed_rows(packed, pool, wv, w, 0..w.rows())
                    });
                    let term = affine::Term {
                        x: parent(x),
                        w: parent(x + 1),
                        bias: has_bias.then(|| parent(x + 2)),
                    };
                    let wanted = affine::Wanted {
                        wt: wt.map(|slot| &packed[slot].transposed),
                        w: nodes[wv.0].needs_grad,
                        bias: has_bias && nodes[parents.get(x + 2).0].needs_grad,
                    };
                    affine::backward_term(pool, &term, &wanted, g, out);
                }
                if let Some(m) = masked {
                    pool.give(m);
                }
            }
            Op::LstmSequence { steps, n, saved } => {
                let [src, w, b] = [0, 1, 2].map(|j| nodes[i].parents.get(j));
                let (srcv, wv) = (parent(0), parent(1));
                let x_dim = srcv.cols();
                let wt_h = packed_rows(packed, pool, w, wv, x_dim..wv.rows());
                let wt_x = nodes[src.0]
                    .needs_grad
                    .then(|| packed_rows(packed, pool, w, wv, 0..x_dim));
                out.extend(lstm::backward(
                    pool,
                    saved,
                    steps,
                    *n,
                    srcv,
                    wv,
                    g,
                    &packed[wt_h].transposed,
                    wt_x.map(|slot| &packed[slot].transposed),
                    (nodes[w.0].needs_grad, nodes[b.0].needs_grad),
                ));
            }
        }
    }
}

/// Rows `rows` of variable `var`, transposed: one entry of the backward
/// sweep's pack-once cache. `Matmul` packs its whole right operand; the
/// fused LSTM packs the two row blocks of its weight separately, since a
/// sequence over constant inputs only ever needs the recurrent one.
struct PackedRows {
    var: VarId,
    rows: Range<usize>,
    /// `[value.cols(), rows.len()]`.
    transposed: Tensor,
}

/// Slot of `value[rows]ᵀ` in `packed`, transposing it on first use.
fn packed_rows(
    packed: &mut Vec<PackedRows>,
    pool: &mut BufferPool,
    var: VarId,
    value: &Tensor,
    rows: Range<usize>,
) -> usize {
    if let Some(slot) = packed.iter().position(|p| p.var == var && p.rows == rows) {
        return slot;
    }
    let cols = value.cols();
    let mut transposed = pool.scratch(&[cols, rows.len()]);
    kernels::transpose_slice(
        &value.data()[rows.start * cols..rows.end * cols],
        (rows.len(), cols),
        transposed.data_mut(),
    );
    packed.push(PackedRows {
        var,
        rows,
        transposed,
    });
    packed.len() - 1
}

/// Parent slot of each affine term's `x` (its `w` follows, then its bias
/// when it has one) and whether it has a bias.
fn affine_slots(terms: usize, biased: u32) -> impl Iterator<Item = (usize, bool)> {
    (0..terms).scan(0, move |slot, term| {
        let has_bias = biased >> term & 1 == 1;
        let x = *slot;
        *slot += 2 + usize::from(has_bias);
        Some((x, has_bias))
    })
}

struct Node {
    value: Tensor,
    parents: Parents,
    /// `None` for leaves; otherwise the recorded operation.
    op: Option<Op>,
    /// Whether the backward sweep must produce a gradient here: true for
    /// [`Graph::leaf`], false for [`Graph::constant`], and for an op the
    /// OR over its parents. Never alters a value the sweep does compute.
    needs_grad: bool,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.op.is_none() && matches!(self.parents, Parents::None)
    }

    /// Bytes the node would occupy on a device storing activations at
    /// `dtype`: its value — leaves and scalars are always held at f32
    /// width — plus whatever its op saved for the adjoint
    /// ([`Op::saved_len`]).
    fn stored_bytes(&self, dtype: DType) -> usize {
        let own = if self.is_leaf() || self.value.len() <= 1 {
            self.value.size_bytes()
        } else {
            self.value.len() * dtype.bytes_per_value()
        };
        own + self
            .op
            .as_ref()
            .map_or(0, |op| op.saved_len() * dtype.bytes_per_value())
    }
}

/// Loss reduction mode for [`Graph::cross_entropy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Average the per-example losses.
    #[default]
    Mean,
    /// Sum the per-example losses.
    Sum,
}

/// A dynamic computation tape backed by a [`BufferPool`].
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    pool: BufferPool,
    /// Reused per-node gradient staging for the backward sweep.
    backward_scratch: Vec<Option<Tensor>>,
    /// Transposed weights of the sweep in progress; empty between sweeps
    /// (each sweep returns its packs to the pool, so a pack never outlives
    /// the value it was made from).
    packed_rhs: Vec<PackedRows>,
    /// Gradients of the sweep in progress that wait for their variable's
    /// turn ([`Op::reads_prefix`]), ascending by variable with a variable's
    /// oldest entry last; empty between sweeps.
    parked: Vec<(VarId, Tensor)>,
    /// Incrementally maintained: bumped in `push`, zeroed in `reset`.
    activation_bytes: usize,
    /// Storage width simulated for non-leaf, non-scalar tape values. At
    /// bf16/f16, every such value is rounded onto the 16-bit grid as it is
    /// recorded (so numerics match a device that truly stores halves) and
    /// [`Graph::activation_bytes`] counts it at 2 bytes per element.
    /// Leaves (parameters, gathered inputs) and loss scalars stay f32.
    activation_dtype: DType,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("pool", &self.pool)
            .finish()
    }
}

/// Copies `g` into a pooled buffer. Used where an adjoint is the identity:
/// handing out an `Arc` clone instead would tie the gradient's storage to
/// the tape and defeat recycling.
fn pooled_copy(pool: &mut BufferPool, g: &Tensor) -> Tensor {
    let mut out = pool.scratch(g.shape());
    out.data_mut().copy_from_slice(g.data());
    out
}

impl Graph {
    /// Creates an empty tape with an enabled buffer pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables recorded on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes held by all tape values (forward activations).
    ///
    /// The device simulator uses this to account for activation memory.
    /// Maintained incrementally; debug builds re-derive it from a full scan
    /// to catch drift.
    pub fn activation_bytes(&self) -> usize {
        debug_assert_eq!(
            self.activation_bytes,
            self.nodes
                .iter()
                .map(|n| n.stored_bytes(self.activation_dtype))
                .sum::<usize>(),
            "incremental activation byte counter drifted from full recount"
        );
        self.activation_bytes
    }

    /// Sets the storage width simulated for forward activations.
    ///
    /// Non-leaf, non-scalar values recorded after this call are rounded
    /// onto the dtype's grid (round-to-nearest-even) and accounted at its
    /// width; already-recorded values keep their bits but the byte counter
    /// is recomputed under the new width. Call this on a fresh (or reset)
    /// tape — typically once, when the trainer is built.
    pub fn set_activation_dtype(&mut self, dtype: DType) {
        self.activation_dtype = dtype;
        self.activation_bytes = self.nodes.iter().map(|n| n.stored_bytes(dtype)).sum();
    }

    /// The storage width simulated for forward activations.
    pub fn activation_dtype(&self) -> DType {
        self.activation_dtype
    }

    /// Clears the tape for reuse, retaining buffer capacity.
    ///
    /// Op payloads are dismantled first — auxiliary tensors they hold may
    /// alias node values, which can only be recycled once uniquely owned.
    /// Payload index lists, node values, and gradients then all drain into
    /// the pool, so rebuilding a same-shaped tape performs (almost) no
    /// allocation.
    pub fn reset(&mut self) {
        let Graph {
            nodes, grads, pool, ..
        } = self;
        for node in nodes.iter_mut() {
            if let Some(op) = node.op.take() {
                op.recycle_into(pool);
            }
        }
        for node in nodes.drain(..) {
            pool.give(node.value);
        }
        for g in grads.drain(..).flatten() {
            pool.give(g);
        }
        self.activation_bytes = 0;
    }

    /// Cumulative buffer-pool counters (hits, misses, bytes recycled).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Enables or disables buffer recycling (disabled pools are transparent:
    /// identical kernels and values, fresh allocations).
    pub fn set_pool_enabled(&mut self, enabled: bool) {
        self.pool.set_enabled(enabled);
    }

    /// Whether buffer recycling is on.
    pub fn pool_enabled(&self) -> bool {
        self.pool.enabled()
    }

    /// Takes a pooled buffer with *unspecified contents* for use outside the
    /// tape (e.g. staging gathered input features). The caller must
    /// overwrite every element; hand it back with [`Graph::recycle`].
    pub fn take_scratch(&mut self, shape: &[usize]) -> Tensor {
        self.pool.scratch(shape)
    }

    /// Returns a tensor to this tape's pool for reuse.
    pub fn recycle(&mut self, t: Tensor) {
        self.pool.give(t);
    }

    /// Takes an empty pooled index buffer (e.g. for staging gather indices
    /// or targets); hand it back with [`Graph::recycle_indices`].
    pub fn take_indices(&mut self) -> Vec<usize> {
        self.pool.take_indices()
    }

    /// Returns an index buffer to this tape's pool for reuse.
    pub fn recycle_indices(&mut self, v: Vec<usize>) {
        self.pool.give_indices(v);
    }

    /// Records an op node; it needs a gradient iff one of its parents does.
    fn push(&mut self, value: Tensor, parents: Parents, op: Option<Op>) -> VarId {
        let needs_grad = (0..parents.len()).any(|j| self.nodes[parents.get(j).0].needs_grad);
        self.push_node(value, parents, op, needs_grad)
    }

    fn push_node(
        &mut self,
        mut value: Tensor,
        parents: Parents,
        op: Option<Op>,
        needs_grad: bool,
    ) -> VarId {
        let is_leaf = op.is_none() && matches!(parents, Parents::None);
        if self.activation_dtype != DType::F32 && !is_leaf && value.len() > 1 {
            self.activation_dtype.quantize_slice(value.data_mut());
        }
        let node = Node {
            value,
            parents,
            op,
            needs_grad,
        };
        self.activation_bytes += node.stored_bytes(self.activation_dtype);
        let id = VarId(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Copies `ids` into a pooled index buffer (for op payloads that must
    /// outlive the caller's slice).
    fn pooled_indices(&mut self, ids: &[usize]) -> Vec<usize> {
        let mut v = self.pool.take_indices();
        v.extend_from_slice(ids);
        v
    }

    /// Registers a leaf variable (input or parameter) whose gradient
    /// [`Graph::backward`] computes.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push_node(value, Parents::None, None, true)
    }

    /// Registers a leaf that needs no gradient (e.g. gathered input
    /// features). Same value and tape bytes as [`Graph::leaf`]; the
    /// backward sweep skips every op that only feeds constants and never
    /// accumulates into one, so [`Graph::grad`] of it stays `None`. The
    /// gradients of all other variables are bit-identical either way.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push_node(value, Parents::None, None, false)
    }

    /// [`Graph::leaf`] of a zero-filled tensor drawn from the tape's pool
    /// (e.g. an LSTM's initial state).
    pub fn zeros_leaf(&mut self, shape: &[usize]) -> VarId {
        let value = self.pool.zeros(shape);
        self.leaf(value)
    }

    /// The forward value of a variable.
    pub fn value(&self, v: VarId) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of a variable after [`Graph::backward`], if it was
    /// reached by the backward sweep.
    pub fn grad(&self, v: VarId) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    // ---- elementwise ----

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut value = pool.scratch(nodes[a.0].value.shape());
        kernels::zip_map_into(
            &nodes[a.0].value,
            &nodes[b.0].value,
            value.data_mut(),
            |x, y| x + y,
        );
        self.push(value, Parents::Two(a, b), Some(Op::Add))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut value = pool.scratch(nodes[a.0].value.shape());
        kernels::zip_map_into(
            &nodes[a.0].value,
            &nodes[b.0].value,
            value.data_mut(),
            |x, y| x - y,
        );
        self.push(value, Parents::Two(a, b), Some(Op::Sub))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut value = pool.scratch(nodes[a.0].value.shape());
        kernels::zip_map_into(
            &nodes[a.0].value,
            &nodes[b.0].value,
            value.data_mut(),
            |x, y| x * y,
        );
        self.push(value, Parents::Two(a, b), Some(Op::Mul))
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut value = pool.scratch(nodes[a.0].value.shape());
        kernels::map_into(&nodes[a.0].value, value.data_mut(), |x| x * s);
        self.push(value, Parents::One(a), Some(Op::Scale(s)))
    }

    // ---- activations ----

    fn unary(&mut self, a: VarId, kind: UnaryKind) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut y = pool.scratch(nodes[a.0].value.shape());
        kind.apply_into(&nodes[a.0].value, y.data_mut());
        self.push(y, Parents::One(a), Some(Op::Unary(kind)))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        self.unary(a, UnaryKind::Relu)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: VarId, alpha: f32) -> VarId {
        self.unary(a, UnaryKind::LeakyRelu(alpha))
    }

    /// Exponential linear unit with scale `alpha`.
    pub fn elu(&mut self, a: VarId, alpha: f32) -> VarId {
        self.unary(a, UnaryKind::Elu(alpha))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.unary(a, UnaryKind::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.unary(a, UnaryKind::Tanh)
    }

    /// Inverted-dropout with keep-probability `1 - p`, using the caller's
    /// pre-drawn `mask` of zeros/ones (so training remains deterministic
    /// under a seeded RNG).
    ///
    /// # Panics
    ///
    /// Panics if `mask` shape differs from `a` or `p >= 1.0`.
    pub fn dropout_with_mask(&mut self, a: VarId, mask: &Tensor, p: f32) -> VarId {
        assert!(p < 1.0, "dropout probability must be < 1.0");
        assert_eq!(mask.shape(), self.value(a).shape(), "mask shape mismatch");
        let scale = 1.0 / (1.0 - p);
        let Graph { nodes, pool, .. } = self;
        // Kept by the op payload and recycled at reset.
        let mut scaled_mask = pool.scratch(mask.shape());
        kernels::map_into(mask, scaled_mask.data_mut(), |x| x * scale);
        let mut value = pool.scratch(scaled_mask.shape());
        kernels::zip_map_into(&nodes[a.0].value, &scaled_mask, value.data_mut(), |x, y| {
            x * y
        });
        self.push(value, Parents::One(a), Some(Op::DropoutMask(scaled_mask)))
    }

    // ---- linear algebra ----

    /// Matrix product of rank-2 variables.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
        let mut value = pool.zeros(&[av.rows(), bv.cols()]);
        kernels::matmul_into(av, bv, value.data_mut());
        self.push(value, Parents::Two(a, b), Some(Op::Matmul))
    }

    /// Adds a rank-1 bias to every row of a rank-2 variable.
    pub fn add_bias(&mut self, a: VarId, bias: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let mut value = pool.scratch(nodes[a.0].value.shape());
        kernels::add_row_broadcast_into(
            &nodes[a.0].value,
            &nodes[bias.0].value,
            value.data_mut(),
        );
        self.push(value, Parents::Two(a, bias), Some(Op::AddBias))
    }

    /// The affine map `act(Σᵢ (xᵢ[..rows]·wᵢ + biasᵢ))` as `[rows, o]`,
    /// with `act` the ReLU when `relu` and the identity otherwise, as a
    /// single tape node whose only stored value is the result.
    ///
    /// Every term reads the leading `rows` rows of its `x` in place, so a
    /// layer's destination self-features (a prefix of its source rows)
    /// need no copy. At f32 the value and every gradient equal, bit for
    /// bit, what `slice_rows`, `matmul`, `add_bias`, `add` (terms joined
    /// left to right) and `relu` compose to — without taping the prefix
    /// copies, the products, the biased products, their sums or the
    /// pre-activation. At 16-bit activation widths the one rounding is at
    /// the result. A term whose `x` has more than `rows` rows stands for a
    /// prefix sliced off as soon as `x` existed: the gradient it sends `x`,
    /// zero past `rows`, joins after every other consumer's. A full-height
    /// `x` is an ordinary operand, its gradient joining at this node's turn.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or longer than 32, an `x` has fewer than
    /// `rows` rows, or the shapes disagree.
    pub fn affine(&mut self, terms: &[AffineTerm], rows: usize, relu: bool) -> VarId {
        assert!(
            terms.len() <= u32::BITS as usize,
            "affine takes at most {} terms",
            u32::BITS
        );
        let Graph { nodes, pool, .. } = self;
        let operands: Vec<_> = terms
            .iter()
            .map(|t| affine::Term {
                x: &nodes[t.x.0].value,
                w: &nodes[t.w.0].value,
                bias: t.bias.map(|b| &nodes[b.0].value),
            })
            .collect();
        let value = affine::forward(pool, &operands, rows, relu);
        let mut biased = 0;
        let mut parents = Vec::with_capacity(3 * terms.len());
        for (i, t) in terms.iter().enumerate() {
            parents.extend([t.x, t.w]);
            parents.extend(t.bias);
            biased |= u32::from(t.bias.is_some()) << i;
        }
        self.push(
            value,
            Parents::Many(parents),
            Some(Op::Affine {
                terms: terms.len(),
                biased,
                relu,
            }),
        )
    }

    /// Multiplies each row `r` of `[m, n]` variable `a` by the scalar in row
    /// `r` of `[m, 1]` variable `s` (column broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `[a.rows(), 1]`.
    pub fn scale_rows_by(&mut self, a: VarId, s: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let (av, sv) = (&nodes[a.0].value, &nodes[s.0].value);
        assert_eq!(
            sv.shape(),
            &[av.rows(), 1],
            "row scaler must be [rows, 1], got {:?}",
            sv.shape()
        );
        let mut value = pool.scratch(av.shape());
        kernels::scale_rows_into(av, sv.data(), value.data_mut());
        self.push(value, Parents::Two(a, s), Some(Op::ScaleRowsBy))
    }

    /// Multiplies every element of `a` by the single-element variable `s`
    /// (a *learnable* scalar, e.g. GIN's `1 + ε`).
    ///
    /// # Panics
    ///
    /// Panics if `s` does not hold exactly one element.
    pub fn mul_scalar_var(&mut self, a: VarId, s: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let (av, sv) = (&nodes[a.0].value, &nodes[s.0].value);
        assert_eq!(sv.len(), 1, "scalar variable must hold one element");
        let sval = sv.item();
        let mut value = pool.scratch(av.shape());
        kernels::map_into(av, value.data_mut(), |x| x * sval);
        self.push(value, Parents::Two(a, s), Some(Op::MulScalarVar))
    }

    // ---- shape ----

    /// Horizontal concatenation of rank-2 variables sharing a row count.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts disagree.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let Graph { nodes, pool, .. } = self;
        let rows = nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|&p| nodes[p.0].value.cols()).sum();
        let mut value = pool.scratch(&[rows, total]);
        let vd = value.data_mut();
        let mut offset = 0;
        for &p in parts {
            let t = &nodes[p.0].value;
            let w = t.cols();
            assert_eq!(t.rows(), rows, "concat_cols row count mismatch");
            for r in 0..rows {
                vd[r * total + offset..r * total + offset + w].copy_from_slice(t.row(r));
            }
            offset += w;
        }
        self.push(value, Parents::from_slice(parts), Some(Op::ConcatCols))
    }

    /// Vertical concatenation of rank-2 variables sharing a column count.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts disagree.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let Graph { nodes, pool, .. } = self;
        let cols = nodes[parts[0].0].value.cols();
        let total: usize = parts.iter().map(|&p| nodes[p.0].value.rows()).sum();
        let mut value = pool.scratch(&[total, cols]);
        let vd = value.data_mut();
        let mut offset = 0;
        for &p in parts {
            let t = &nodes[p.0].value;
            assert_eq!(t.cols(), cols, "concat_rows column count mismatch");
            let h = t.rows();
            vd[offset * cols..(offset + h) * cols].copy_from_slice(t.data());
            offset += h;
        }
        self.push(value, Parents::from_slice(parts), Some(Op::ConcatRows))
    }

    /// Extracts columns `[start, start+len)` of a rank-2 variable.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&mut self, a: VarId, start: usize, len: usize) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let av = &nodes[a.0].value;
        let rows = av.rows();
        let mut value = pool.scratch(&[rows, len]);
        kernels::slice_cols_into(av, start, len, value.data_mut());
        self.push(value, Parents::One(a), Some(Op::SliceCols { start, len }))
    }

    /// Takes the first `len` rows of a rank-2 variable (one contiguous
    /// copy — e.g. a block's destination self-features, which lead the
    /// source rows by construction).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the row count.
    pub fn slice_rows(&mut self, a: VarId, len: usize) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let av = &nodes[a.0].value;
        let cols = av.cols();
        assert!(len <= av.rows(), "slice_rows past the end");
        let mut value = pool.scratch(&[len, cols]);
        value.data_mut().copy_from_slice(&av.data()[..len * cols]);
        self.push(value, Parents::One(a), Some(Op::SliceRows))
    }

    // ---- reductions ----

    /// Sum of all elements as a `[1]` tensor.
    pub fn sum(&mut self, a: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let total = nodes[a.0].value.sum_all();
        let mut value = pool.scratch(&[1]);
        value.data_mut()[0] = total;
        self.push(value, Parents::One(a), Some(Op::Sum))
    }

    /// Mean of all elements as a `[1]` tensor.
    pub fn mean(&mut self, a: VarId) -> VarId {
        let n = self.value(a).len() as f32;
        let s = self.sum(a);
        self.scale(s, 1.0 / n)
    }

    // ---- graph aggregation primitives ----

    /// Gathers rows of `src` at `indices` (edge-expansion of node features).
    pub fn gather_rows(&mut self, src: VarId, indices: &[usize]) -> VarId {
        let idx = self.pooled_indices(indices);
        let Graph { nodes, pool, .. } = self;
        let srcv = &nodes[src.0].value;
        let mut value = pool.scratch(&[idx.len(), srcv.cols()]);
        segment::gather_rows_into(srcv, &idx, value.data_mut());
        self.push(value, Parents::One(src), Some(Op::GatherRows(idx)))
    }

    /// Places row `r` of `values` into row `indices[r]` of a fresh
    /// `[n_rows, cols]` output (rows not referenced stay zero).
    ///
    /// # Panics
    ///
    /// Panics if `indices` contains duplicates (the op would otherwise drop
    /// gradient mass silently).
    pub fn scatter_rows(&mut self, values: VarId, indices: &[usize], n_rows: usize) -> VarId {
        let mut seen = self.pool.take_indices();
        seen.resize(n_rows, 0);
        for &i in indices {
            assert!(seen[i] == 0, "scatter_rows requires unique indices, {i} repeats");
            seen[i] = 1;
        }
        self.pool.give_indices(seen);
        let idx = self.pooled_indices(indices);
        let Graph { nodes, pool, .. } = self;
        let cols = nodes[values.0].value.cols();
        let mut value = pool.zeros(&[n_rows, cols]);
        segment::scatter_rows_into(&nodes[values.0].value, &idx, value.data_mut());
        self.push(value, Parents::One(values), Some(Op::ScatterRows(idx)))
    }

    /// Per-segment sum over rows of `values` keyed by `segment_ids`.
    pub fn segment_sum(&mut self, values: VarId, segment_ids: &[usize], n_segments: usize) -> VarId {
        let ids = self.pooled_indices(segment_ids);
        let Graph { nodes, pool, .. } = self;
        let cols = nodes[values.0].value.cols();
        let mut value = pool.zeros(&[n_segments, cols]);
        segment::segment_sum_into(&nodes[values.0].value, &ids, value.data_mut());
        self.push(value, Parents::One(values), Some(Op::SegmentSum(ids)))
    }

    /// Per-segment mean over rows of `values` keyed by `segment_ids`.
    pub fn segment_mean(
        &mut self,
        values: VarId,
        segment_ids: &[usize],
        n_segments: usize,
    ) -> VarId {
        let ids = self.pooled_indices(segment_ids);
        let mut counts = self.pool.take_indices();
        counts.resize(n_segments, 0);
        for &s in &ids {
            assert!(s < n_segments, "segment id {s} >= {n_segments}");
            counts[s] += 1;
        }
        let Graph { nodes, pool, .. } = self;
        let cols = nodes[values.0].value.cols();
        let mut value = pool.zeros(&[n_segments, cols]);
        segment::segment_sum_into(&nodes[values.0].value, &ids, value.data_mut());
        // One spare slot keeps the payload shape non-empty when there are
        // no segments; every element is written either way.
        let mut inv = pool.scratch(&[n_segments.max(1)]);
        let invd = inv.data_mut();
        invd[0] = 1.0;
        for (s, &cnt) in counts.iter().enumerate() {
            invd[s] = 1.0 / cnt.max(1) as f32;
        }
        let vd = value.data_mut();
        for (s, &cnt) in counts.iter().enumerate() {
            if cnt > 1 {
                let scale = 1.0 / cnt as f32;
                for v in &mut vd[s * cols..(s + 1) * cols] {
                    *v *= scale;
                }
            }
        }
        pool.give_indices(counts);
        self.push(
            value,
            Parents::One(values),
            Some(Op::SegmentMean { ids, inv }),
        )
    }

    /// Per-segment elementwise max over rows of `values`.
    pub fn segment_max(&mut self, values: VarId, segment_ids: &[usize], n_segments: usize) -> VarId {
        let mut argmax = self.pool.take_indices();
        let Graph { nodes, pool, .. } = self;
        let vv = &nodes[values.0].value;
        let cols = vv.cols();
        let mut value = pool.scratch(&[n_segments, cols]);
        segment::segment_max_into_reusing(vv, segment_ids, value.data_mut(), &mut argmax);
        self.push(
            value,
            Parents::One(values),
            Some(Op::SegmentMax { argmax }),
        )
    }

    /// Fused neighbor-sum: for each segment (destination), sums the source
    /// rows selected by `gather_ids` whose edge belongs to that segment —
    /// without materializing the `[E, D]` message tensor. This is the
    /// memory-efficient path GNN frameworks use for Sum/Mean aggregation.
    ///
    /// # Panics
    ///
    /// Panics if the index slices disagree in length.
    pub fn fused_neighbor_sum(
        &mut self,
        src: VarId,
        gather_ids: &[usize],
        segment_ids: &[usize],
        n_segments: usize,
    ) -> VarId {
        let g_ids = self.pooled_indices(gather_ids);
        let s_ids = self.pooled_indices(segment_ids);
        let Graph { nodes, pool, .. } = self;
        let srcv = &nodes[src.0].value;
        let mut value = pool.zeros(&[n_segments, srcv.cols()]);
        segment::fused_gather_segment_sum_into(srcv, &g_ids, &s_ids, value.data_mut());
        self.push(
            value,
            Parents::One(src),
            Some(Op::FusedSum {
                gather_ids: g_ids,
                segment_ids: s_ids,
            }),
        )
    }

    /// Fused neighbor-mean: like [`Graph::fused_neighbor_sum`] but
    /// normalized by each segment's in-degree (empty segments stay zero).
    ///
    /// # Panics
    ///
    /// Panics if the index slices disagree in length.
    pub fn fused_neighbor_mean(
        &mut self,
        src: VarId,
        gather_ids: &[usize],
        segment_ids: &[usize],
        n_segments: usize,
    ) -> VarId {
        let g_ids = self.pooled_indices(gather_ids);
        let s_ids = self.pooled_indices(segment_ids);
        let mut counts = self.pool.take_indices();
        counts.resize(n_segments, 0);
        for &s in &s_ids {
            assert!(s < n_segments, "segment id {s} >= {n_segments}");
            counts[s] += 1;
        }
        let Graph { nodes, pool, .. } = self;
        // See `segment_mean` for the spare-slot convention.
        let mut inv = pool.scratch(&[n_segments.max(1)]);
        let invd = inv.data_mut();
        invd[0] = 0.0;
        for (s, &cnt) in counts.iter().enumerate() {
            invd[s] = if cnt == 0 { 0.0 } else { 1.0 / cnt as f32 };
        }
        pool.give_indices(counts);
        let srcv = &nodes[src.0].value;
        let cols = srcv.cols();
        let mut value = pool.zeros(&[n_segments, cols]);
        segment::fused_gather_segment_sum_into(srcv, &g_ids, &s_ids, value.data_mut());
        {
            let vdata = value.data_mut();
            for (s, &scale) in inv.data().iter().take(n_segments).enumerate() {
                for v in &mut vdata[s * cols..(s + 1) * cols] {
                    *v *= scale;
                }
            }
        }
        self.push(
            value,
            Parents::One(src),
            Some(Op::FusedMean {
                gather_ids: g_ids,
                segment_ids: s_ids,
                inv,
            }),
        )
    }

    /// Weighted fused neighbor-sum: like [`Graph::fused_neighbor_sum`] but
    /// each edge contributes `weights[e] · src[gather_ids[e]]` — the kernel
    /// behind degree-normalized aggregations (GCN).
    ///
    /// # Panics
    ///
    /// Panics if the index/weight slices disagree in length.
    pub fn fused_neighbor_weighted_sum(
        &mut self,
        src: VarId,
        gather_ids: &[usize],
        segment_ids: &[usize],
        weights: &[f32],
        n_segments: usize,
    ) -> VarId {
        let g_ids = self.pooled_indices(gather_ids);
        let s_ids = self.pooled_indices(segment_ids);
        let Graph { nodes, pool, .. } = self;
        let mut ws = pool.scratch(&[weights.len().max(1)]);
        ws.data_mut()[0] = 0.0;
        ws.data_mut()[..weights.len()].copy_from_slice(weights);
        let srcv = &nodes[src.0].value;
        let cols = srcv.cols();
        let mut value = pool.zeros(&[n_segments, cols]);
        segment::fused_gather_segment_weighted_sum_into(
            srcv,
            &g_ids,
            &s_ids,
            &ws.data()[..weights.len()],
            value.data_mut(),
        );
        self.push(
            value,
            Parents::One(src),
            Some(Op::FusedWeightedSum {
                gather_ids: g_ids,
                segment_ids: s_ids,
                weights: ws,
            }),
        )
    }

    /// Softmax within each segment (column-wise), used for attention weights.
    pub fn segment_softmax(
        &mut self,
        values: VarId,
        segment_ids: &[usize],
        n_segments: usize,
    ) -> VarId {
        let ids = self.pooled_indices(segment_ids);
        let Graph { nodes, pool, .. } = self;
        let vv = &nodes[values.0].value;
        let mut value = pool.scratch(vv.shape());
        segment::segment_softmax_into(vv, &ids, n_segments, value.data_mut());
        self.push(
            value,
            Parents::One(values),
            Some(Op::SegmentSoftmax { ids, n_segments }),
        )
    }

    /// Row-wise log-softmax (numerically stable).
    ///
    /// Backward: `dX = dY − softmax(X) · rowsum(dY)`.
    pub fn log_softmax_rows(&mut self, a: VarId) -> VarId {
        let Graph { nodes, pool, .. } = self;
        let av = &nodes[a.0].value;
        let mut value = pool.scratch(av.shape());
        kernels::log_softmax_rows_into(av, value.data_mut());
        self.push(value, Parents::One(a), Some(Op::LogSoftmaxRows))
    }

    // ---- recurrent ----

    /// Final hidden state `[n, H]` of an LSTM run over `n` sequences at
    /// once, as a single tape node.
    ///
    /// The sequences all have length `L = steps.len() / n`; at step `t`
    /// sequence `r` reads row `steps[t * n + r]` of `src` (`[_, X]`; rows
    /// may repeat). `w` is `[X + H, 4H]` with the gate columns ordered
    /// `i | f | g | o` and `b` is `[4H]`; state starts at zero. The value
    /// equals, bit for bit, what gathering each step and composing the
    /// cell out of `concat_cols`/`matmul`/`add_bias`/`slice_cols`/
    /// activations gives — without taping any of those intermediates. Per
    /// step, sequence and state unit the op keeps six values (the four
    /// activated gates, the cell state and the hidden state, its own
    /// output included), charged to [`Graph::activation_bytes`] at the
    /// activation width like node values; its adjoint runs the whole
    /// back-propagation through time, accumulating each of `d src`, `dW`
    /// and `db` in one buffer.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree, `steps.len()` is not a multiple of
    /// `n`, or a step names a row outside `src`.
    pub fn lstm_sequence(
        &mut self,
        src: VarId,
        steps: &[usize],
        n: usize,
        w: VarId,
        b: VarId,
    ) -> VarId {
        let steps = self.pooled_indices(steps);
        let Graph {
            nodes,
            pool,
            activation_dtype,
            ..
        } = self;
        let (value, saved) = lstm::forward(
            pool,
            *activation_dtype,
            &nodes[src.0].value,
            &steps,
            n,
            &nodes[w.0].value,
            &nodes[b.0].value,
        );
        self.push(
            value,
            Parents::from_slice(&[src, w, b]),
            Some(Op::LstmSequence { steps, n, saved }),
        )
    }

    // ---- losses ----

    /// Fused softmax cross-entropy against integer class targets.
    ///
    /// Returns a `[1]` loss. With [`Reduction::Mean`] the gradient is
    /// `(softmax - onehot) / N`; with [`Reduction::Sum`] it is unscaled —
    /// the form needed for exact micro-batch gradient accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.rows()` or a target is out of
    /// class range.
    pub fn cross_entropy(&mut self, logits: VarId, targets: &[usize], reduction: Reduction) -> VarId {
        let tg = self.pooled_indices(targets);
        let Graph { nodes, pool, .. } = self;
        let lv = &nodes[logits.0].value;
        let (n, classes) = (lv.rows(), lv.cols());
        assert_eq!(tg.len(), n, "one target per logit row");
        let mut log_probs = pool.scratch(lv.shape());
        kernels::log_softmax_rows_into(lv, log_probs.data_mut());
        let mut total = 0.0f32;
        for (r, &t) in tg.iter().enumerate() {
            assert!(t < classes, "target {t} out of range for {classes} classes");
            total -= log_probs.at2(r, t);
        }
        let loss = match reduction {
            Reduction::Mean => total / n.max(1) as f32,
            Reduction::Sum => total,
        };
        let mut value = pool.scratch(&[1]);
        value.data_mut()[0] = loss;
        self.push(
            value,
            Parents::One(logits),
            Some(Op::CrossEntropy {
                log_probs,
                targets: tg,
                reduction,
            }),
        )
    }

    // ---- backward ----

    /// Runs reverse-mode differentiation from `root` (typically the loss).
    ///
    /// Seeds the root gradient with ones and accumulates into every
    /// reachable variable that needs a gradient (everything downstream of
    /// a [`Graph::leaf`]; see [`Graph::constant`]); query results with
    /// [`Graph::grad`]. Calling `backward` again replaces previous
    /// gradients. Gradient buffers come from (and return to) the tape's
    /// pool, and so does the transpose of each distinct `Matmul` right
    /// operand, which the sweep packs at most once however many products
    /// share it.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not on this tape.
    pub fn backward(&mut self, root: VarId) {
        assert!(root.0 < self.nodes.len(), "root variable not on this tape");
        let Graph {
            nodes,
            grads,
            pool,
            backward_scratch: scratch,
            packed_rhs: packed,
            parked,
            ..
        } = self;
        for g in grads.drain(..).flatten() {
            pool.give(g);
        }
        grads.resize(nodes.len(), None);
        grads[root.0] = Some(pool.full(nodes[root.0].value.shape(), 1.0));
        for i in (0..=root.0).rev() {
            // Every consumer of variable `i` has run: the gradients parked
            // for it ([`Op::reads_prefix`]) join now, oldest first. `parked`
            // is sorted and later variables' entries have landed, so the
            // ones for `i` are at its end.
            while parked.last().is_some_and(|(v, _)| v.0 == i) {
                let (_, pg) = parked.pop().expect("seen by the loop condition");
                accumulate(&mut grads[i], pg, pool);
            }
            let (Some(op), true) = (&nodes[i].op, nodes[i].needs_grad) else {
                continue;
            };
            // Parents always precede their child on the tape, so splitting
            // at `i` lets us read this node's gradient while accumulating
            // into earlier slots.
            let (earlier, rest) = grads.split_at_mut(i);
            let Some(gout) = rest[0].as_ref() else {
                continue;
            };
            op.backward(nodes, i, gout, pool, packed, scratch);
            let parents = &nodes[i].parents;
            debug_assert_eq!(scratch.len(), parents.len(), "one gradient per parent");
            for (idx, pg) in scratch.drain(..).enumerate() {
                let p = parents.get(idx);
                let Some(pg) = pg else {
                    debug_assert!(!nodes[p.0].needs_grad, "op skipped a needed gradient");
                    continue;
                };
                if !nodes[p.0].needs_grad {
                    pool.give(pg);
                    continue;
                }
                debug_assert_eq!(
                    pg.shape(),
                    nodes[p.0].value.shape(),
                    "gradient shape mismatch for parent {p:?} of node {i}"
                );
                if op.reads_prefix(nodes, i, idx) {
                    let at = parked.partition_point(|(v, _)| v.0 < p.0);
                    parked.insert(at, (p, pg));
                } else {
                    accumulate(&mut earlier[p.0], pg, pool);
                }
            }
        }
        debug_assert!(parked.is_empty(), "a parked gradient never landed");
        for pack in packed.drain(..) {
            pool.give(pack.transposed);
        }
    }
}

/// Adds gradient contribution `pg` into `slot`, recycling its buffer.
fn accumulate(slot: &mut Option<Tensor>, pg: Tensor, pool: &mut BufferPool) {
    match slot {
        Some(existing) => {
            existing.add_assign(&pg);
            pool.give(pg);
        }
        None => *slot = Some(pg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn add_mul_backward() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[2.0, 3.0], &[2]));
        let b = g.leaf(t(&[4.0, 5.0], &[2]));
        let c = g.mul(a, b);
        let d = g.add(c, a);
        let loss = g.sum(d);
        g.backward(loss);
        // d = a*b + a → dL/da = b + 1, dL/db = a
        assert_eq!(g.grad(a).unwrap().data(), &[5.0, 6.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_backward_shapes_and_values() {
        let mut g = Graph::new();
        let x = g.leaf(t(&[1.0, 2.0], &[1, 2]));
        let w = g.leaf(t(&[3.0, 4.0, 5.0, 6.0], &[2, 2]));
        let y = g.matmul(x, w);
        let loss = g.sum(y);
        g.backward(loss);
        // dW = xᵀ · 1 = [[1,1],[2,2]]; dx = 1 · Wᵀ = [3+4, 5+6]
        assert_eq!(g.grad(w).unwrap().data(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(g.grad(x).unwrap().data(), &[7.0, 11.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // a used twice: gradient must accumulate.
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.5], &[1]));
        let b = g.add(a, a);
        let loss = g.sum(b);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0]);
    }

    #[test]
    fn cross_entropy_mean_gradient_is_softmax_minus_onehot_over_n() {
        let mut g = Graph::new();
        let logits = g.leaf(t(&[0.0, 0.0, 1.0, 0.0], &[2, 2]));
        let loss = g.cross_entropy(logits, &[0, 1], Reduction::Mean);
        g.backward(loss);
        let grad = g.grad(logits).unwrap();
        // Row 0: softmax = [.5,.5], target 0 → ([.5-1, .5])/2
        assert!((grad.at2(0, 0) + 0.25).abs() < 1e-6);
        assert!((grad.at2(0, 1) - 0.25).abs() < 1e-6);
        // Gradients sum to zero per row.
        assert!((grad.at2(1, 0) + grad.at2(1, 1)).abs() < 1e-6);
    }

    #[test]
    fn sum_reduction_scales_like_n_times_mean() {
        let logits_t = t(&[0.2, -0.3, 0.7, 0.1, 0.5, -0.2], &[2, 3]);
        let targets = [2usize, 0];

        let mut g1 = Graph::new();
        let l1 = g1.leaf(logits_t.clone());
        let loss1 = g1.cross_entropy(l1, &targets, Reduction::Mean);
        g1.backward(loss1);

        let mut g2 = Graph::new();
        let l2 = g2.leaf(logits_t);
        let loss2 = g2.cross_entropy(l2, &targets, Reduction::Sum);
        g2.backward(loss2);

        assert!(
            (g1.value(loss1).item() * 2.0 - g2.value(loss2).item()).abs() < 1e-5,
            "sum = n * mean"
        );
        let scaled = crate::kernels::scale(g2.grad(l2).unwrap(), 0.5);
        assert!(g1.grad(l1).unwrap().approx_eq(&scaled, 1e-6));
    }

    #[test]
    fn segment_ops_backward() {
        let mut g = Graph::new();
        let v = g.leaf(t(&[1.0, 2.0, 3.0], &[3, 1]));
        let s = g.segment_mean(v, &[0, 0, 1], 2);
        let loss = g.sum(s);
        g.backward(loss);
        // Mean over 2 rows → each contributes 1/2; singleton contributes 1.
        assert_eq!(g.grad(v).unwrap().data(), &[0.5, 0.5, 1.0]);
    }

    #[test]
    fn fused_neighbor_ops_match_unfused() {
        let src_t = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let gather = [0usize, 2, 2, 1];
        let seg = [0usize, 0, 1, 1];

        // Fused mean.
        let mut gf = Graph::new();
        let s1 = gf.leaf(src_t.clone());
        let fused = gf.fused_neighbor_mean(s1, &gather, &seg, 3);
        let l1 = gf.sum(fused);
        gf.backward(l1);

        // Unfused reference: gather → segment_mean.
        let mut gu = Graph::new();
        let s2 = gu.leaf(src_t.clone());
        let msgs = gu.gather_rows(s2, &gather);
        let mean = gu.segment_mean(msgs, &seg, 3);
        let l2 = gu.sum(mean);
        gu.backward(l2);

        assert!(gf.value(fused).approx_eq(gu.value(mean), 1e-6));
        assert!(gf
            .grad(s1)
            .unwrap()
            .approx_eq(gu.grad(s2).unwrap(), 1e-6));
        // The fused tape holds strictly fewer activation bytes.
        assert!(gf.activation_bytes() < gu.activation_bytes());

        // Fused sum agrees with gather → segment_sum too.
        let mut gs = Graph::new();
        let s3 = gs.leaf(src_t.clone());
        let fsum = gs.fused_neighbor_sum(s3, &gather, &seg, 3);
        let mut gr = Graph::new();
        let s4 = gr.leaf(src_t);
        let msgs = gr.gather_rows(s4, &gather);
        let rsum = gr.segment_sum(msgs, &seg, 3);
        assert!(gs.value(fsum).approx_eq(gr.value(rsum), 1e-6));
        let ls = gs.sum(fsum);
        gs.backward(ls);
        let lr = gr.sum(rsum);
        gr.backward(lr);
        assert!(gs
            .grad(s3)
            .unwrap()
            .approx_eq(gr.grad(s4).unwrap(), 1e-6));
    }

    #[test]
    fn fused_mean_empty_segment_is_zero() {
        let mut g = Graph::new();
        let s = g.leaf(t(&[1.0, 2.0], &[1, 2]));
        let m = g.fused_neighbor_mean(s, &[0], &[2], 3);
        assert_eq!(g.value(m).row(0), &[0.0, 0.0]);
        assert_eq!(g.value(m).row(2), &[1.0, 2.0]);
    }

    #[test]
    fn gather_backward_scatters() {
        let mut g = Graph::new();
        let src = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let gathered = g.gather_rows(src, &[0, 0, 1]);
        let loss = g.sum(gathered);
        g.backward(loss);
        assert_eq!(g.grad(src).unwrap().data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn scatter_rows_backward_gathers() {
        let mut g = Graph::new();
        let v = g.leaf(t(&[1.0, 2.0], &[2, 1]));
        let s = g.scatter_rows(v, &[2, 0], 3);
        assert_eq!(g.value(s).data(), &[2.0, 0.0, 1.0]);
        let doubled = g.scale(s, 2.0);
        let loss = g.sum(doubled);
        g.backward(loss);
        assert_eq!(g.grad(v).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "unique indices")]
    fn scatter_rows_rejects_duplicates() {
        let mut g = Graph::new();
        let v = g.leaf(t(&[1.0, 2.0], &[2, 1]));
        g.scatter_rows(v, &[0, 0], 2);
    }

    #[test]
    fn slice_concat_roundtrip_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let left = g.slice_cols(a, 0, 1);
        let right = g.slice_cols(a, 1, 1);
        let back = g.concat_cols(&[left, right]);
        let loss = g.sum(back);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn dropout_mask_zeroes_and_rescales() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0, 1.0, 1.0, 1.0], &[4]));
        let mask = t(&[1.0, 0.0, 1.0, 0.0], &[4]);
        let d = g.dropout_with_mask(a, &mask, 0.5);
        assert_eq!(g.value(d).data(), &[2.0, 0.0, 2.0, 0.0]);
        let loss = g.sum(d);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_twice_replaces_grads() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0], &[1]));
        let b = g.scale(a, 3.0);
        let loss = g.sum(b);
        g.backward(loss);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[3.0]);
    }

    #[test]
    fn unreached_vars_have_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(t(&[1.0], &[1]));
        let b = g.leaf(t(&[1.0], &[1]));
        let loss = g.sum(a);
        g.backward(loss);
        assert!(g.grad(b).is_none());
    }

    /// A constant input prunes its adjoints from the sweep; every other
    /// gradient, every value and the tape's byte count stay as with a leaf.
    #[test]
    fn constant_input_gets_no_gradient_and_moves_no_other_bit() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = |constant: bool| {
            let mut g = Graph::new();
            let xv = t(&[0.3, -0.7, 1.1, 0.0, -0.2, 0.9, 0.5, 0.25, -1.5], &[3, 3]);
            let x = if constant { g.constant(xv) } else { g.leaf(xv) };
            let w = g.leaf(t(&[0.5, -1.0, 0.25, 2.0, -0.75, 0.1], &[3, 2]));
            let rows = g.gather_rows(x, &[0, 2, 2, 1]);
            let y = g.matmul(rows, w);
            let h0 = g.zeros_leaf(&[4, 2]);
            let y = g.add(y, h0);
            let act = g.tanh(y);
            let loss = g.sum(act);
            g.backward(loss);
            (
                g.grad(x).map(bits),
                bits(g.grad(w).expect("weight gradient")),
                bits(g.grad(h0).expect("zero state is a leaf")),
                g.value(loss).item().to_bits(),
                g.activation_bytes(),
            )
        };
        let (dx_leaf, rest_leaf) = {
            let r = run(false);
            (r.0, (r.1, r.2, r.3, r.4))
        };
        let (dx_const, rest_const) = {
            let r = run(true);
            (r.0, (r.1, r.2, r.3, r.4))
        };
        assert!(dx_leaf.is_some());
        assert!(dx_const.is_none(), "a constant must not receive a gradient");
        assert_eq!(rest_leaf, rest_const);
    }

    /// One small training-ish step: forward, loss, backward.
    fn run_step(g: &mut Graph) -> (f32, Vec<u32>) {
        let x = g.leaf(t(&[0.3, -0.7, 1.1, 0.4, -0.2, 0.9], &[3, 2]));
        let w = g.leaf(t(&[0.5, -1.0, 0.25, 2.0], &[2, 2]));
        let b = g.leaf(t(&[0.1, -0.1], &[2]));
        let h = g.matmul(x, w);
        let hb = g.add_bias(h, b);
        let act = g.relu(hb);
        let agg = g.fused_neighbor_mean(act, &[0, 1, 2, 2], &[0, 0, 1, 1], 2);
        let loss = g.cross_entropy(agg, &[0, 1], Reduction::Sum);
        g.backward(loss);
        let loss_val = g.value(loss).item();
        let wg: Vec<u32> = g.grad(w).unwrap().data().iter().map(|v| v.to_bits()).collect();
        (loss_val, wg)
    }

    #[test]
    fn reset_recycles_buffers_and_preserves_bits() {
        let mut g = Graph::new();
        let (loss1, wg1) = run_step(&mut g);
        let misses_after_first = g.pool_stats().misses;
        assert!(misses_after_first > 0, "first step must populate the pool");

        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.activation_bytes(), 0);

        let (loss2, wg2) = run_step(&mut g);
        // Identical shapes: the second step must be served from the pool.
        assert_eq!(
            g.pool_stats().misses,
            misses_after_first,
            "steady-state step should not miss the pool"
        );
        assert!(g.pool_stats().hits > 0);
        // And recycling must not perturb a single bit.
        assert_eq!(loss1.to_bits(), loss2.to_bits());
        assert_eq!(wg1, wg2);
    }

    #[test]
    fn pooled_and_unpooled_are_bit_identical() {
        let mut pooled = Graph::new();
        // Warm the pool so the second pooled step runs on recycled buffers.
        run_step(&mut pooled);
        pooled.reset();
        let (loss_p, wg_p) = run_step(&mut pooled);

        let mut plain = Graph::new();
        plain.set_pool_enabled(false);
        let (loss_u, wg_u) = run_step(&mut plain);

        assert_eq!(loss_p.to_bits(), loss_u.to_bits());
        assert_eq!(wg_p, wg_u);
    }

    #[test]
    fn activation_bytes_tracks_incrementally() {
        let mut g = Graph::new();
        assert_eq!(g.activation_bytes(), 0);
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        assert_eq!(g.activation_bytes(), 16);
        let b = g.relu(a);
        assert_eq!(g.activation_bytes(), 32);
        let _ = g.sum(b);
        assert_eq!(g.activation_bytes(), 36);
        g.reset();
        assert_eq!(g.activation_bytes(), 0);
    }

    /// At bf16 width, non-leaf multi-element values are quantized onto the
    /// bf16 grid and counted at 2 bytes/element; leaves and scalars stay
    /// f32 at 4 bytes.
    #[test]
    fn activation_dtype_quantizes_and_halves_byte_accounting() {
        let mut g = Graph::new();
        g.set_activation_dtype(DType::Bf16);
        assert_eq!(g.activation_dtype(), DType::Bf16);

        let a = g.leaf(t(&[1.0, 2.5000123, -3.0, 0.4999], &[2, 2]));
        // Leaf stays exact and full-width.
        assert_eq!(g.value(a).data(), &[1.0, 2.5000123, -3.0, 0.4999]);
        assert_eq!(g.activation_bytes(), 16);

        let b = g.scale(a, 1.0);
        for (&q, &v) in g.value(b).data().iter().zip(g.value(a).data()) {
            assert_eq!(q.to_bits(), DType::Bf16.quantize(v).to_bits());
        }
        // Non-leaf counted at bf16 width: 4 × 2 bytes.
        assert_eq!(g.activation_bytes(), 16 + 8);

        // Loss scalar stays f32 width (4 bytes) and unquantized.
        let s = g.sum(b);
        assert_eq!(g.value(s).len(), 1);
        assert_eq!(g.activation_bytes(), 16 + 8 + 4);

        // Re-widening recomputes the counter over recorded nodes.
        g.set_activation_dtype(DType::F32);
        assert_eq!(g.activation_bytes(), 16 + 16 + 4);
        g.reset();
        assert_eq!(g.activation_bytes(), 0);
    }

    /// A bf16 run is deterministic: identical bits across repeats, and the
    /// backward sweep still produces finite, usable gradients.
    #[test]
    fn activation_dtype_run_is_deterministic_with_gradients() {
        let run = |dtype: DType| {
            let mut g = Graph::new();
            g.set_activation_dtype(dtype);
            let x = g.leaf(t(&[0.3, -1.2, 2.7, 0.01, 5.5, -0.625], &[2, 3]));
            let w = g.leaf(t(&[0.5, -1.0, 0.25, 2.0, 0.125, -0.75], &[3, 2]));
            let y = g.matmul(x, w);
            let r = g.relu(y);
            let loss = g.sum(r);
            g.backward(loss);
            let lb = g.value(loss).data()[0].to_bits();
            let wb: Vec<u32> = g.grad(w).unwrap().data().iter().map(|v| v.to_bits()).collect();
            (lb, wb)
        };
        for dtype in [DType::Bf16, DType::F16] {
            let (l1, g1) = run(dtype);
            let (l2, g2) = run(dtype);
            assert_eq!(l1, l2, "{dtype} loss must be bit-stable across runs");
            assert_eq!(g1, g2, "{dtype} grads must be bit-stable across runs");
            assert!(f32::from_bits(l1).is_finite());
        }
        // And bf16 genuinely differs from f32 on this input (quantization
        // is active, not a no-op).
        let (lf, _) = run(DType::F32);
        let (lb, _) = run(DType::Bf16);
        assert_ne!(lf, lb);
    }

    #[test]
    fn take_scratch_and_recycle_roundtrip() {
        let mut g = Graph::new();
        let mut s = g.take_scratch(&[4, 3]);
        s.fill(1.0);
        g.recycle(s);
        let s2 = g.take_scratch(&[3, 4]);
        assert_eq!(s2.len(), 12);
        assert_eq!(g.pool_stats().hits, 1);
    }
}
