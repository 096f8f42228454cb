//! Non-differentiable dense kernels.
//!
//! These free functions implement the raw math used both directly (e.g. by
//! optimizers and inference paths) and by the autograd [`crate::Graph`] ops.
//! Every kernel comes in two flavours: an allocating form returning a fresh
//! [`Tensor`], and an `_into` form writing into a caller-provided slice so
//! the hot path can reuse pooled buffers (see `crate::BufferPool`). Both
//! flavours run the identical inner loops, so their results are bit
//! identical. Shape validation is by `assert!` with descriptive messages
//! since a shape error is always a programming bug.
//!
//! # The matmul family
//!
//! `a @ b`, `aᵀ @ b` and `a @ bᵀ` each have a scalar reference loop
//! ([`Backend::Scalar`], the oracle every test compares against) and share
//! one register-tiled micro-kernel on [`Backend::Simd`]. One rule for all:
//! an output element starts from its accumulator (`out[i][j]`; `0.0` for
//! `a @ bᵀ`), takes its terms in ascending reduction index (`p`, `r`, `k`),
//! keeps every term, and each step is one correctly rounded
//! `fma(a, b, acc)`. IEEE-754 gives that exactly one result — in a zmm
//! lane, an xmm scalar, aarch64 `fmla` or libm's `fmaf` — so the backends
//! agree by construction, and since a zero element still adds its `±0.0`
//! (against NaN or `∞`, its NaN) neither result nor speed depends on where
//! the data has zeros. The tile keeps the running sums of a block of
//! outputs in registers while it walks the shared dimension once: it
//! changes where a sum lives and how many advance per instruction, not
//! the order of any one of them.
//!
//! On AVX-512 the block is 12 rows × 32 columns in 24 zmm accumulators
//! (`MR512` × `NR512`); a tile whose 32 columns are all live runs
//! unmasked, the last column tile of a row band takes lane masks, and the
//! last row band is a tile of 1–11 rows. The portable tile is 6 × 16.
//! `aᵀ @ b` reduces its shared dimension — the batch, tens of thousands
//! of rows for an LSTM's `dW` — in blocks of `AT_B_ROW_BLOCK` = 128
//! rows, each walked by every column block of the output while it is in
//! L2; the sums stay in `out` between blocks, so the order is unchanged.
//! `a @ bᵀ` and [`matmul_at_b_into`] start their sums at `+0.0` in the
//! tile instead of reading a zeroed output: an `aᵀ @ b` output is
//! weight-shaped and, over a short batch, many times the work.

use betty_runtime::Shards;

use crate::backend::Backend;
use crate::segment::lane_dispatch;
use crate::Tensor;

/// Output-row count per register tile of the portable tiles.
const MR: usize = 6;
/// Output-column count per register tile of the portable tiles (256-bit
/// lanes: two ymm registers per row).
const NR: usize = 16;
/// Output-row count per AVX-512 tile: 24 of the 32 zmm registers hold
/// sums, three more the step's two `b` vectors and one broadcast `a`.
const MR512: usize = 12;
/// Column tile of the AVX-512 tile (two zmm registers per row).
const NR512: usize = 32;
/// Rows of the shared dimension [`matmul_at_b_block_simd`] reduces per
/// pass: at the LSTM gate shape (`b` 400 wide) a block of `b` is 200 KiB,
/// which stays in L2 while every column block of the output walks it.
const AT_B_ROW_BLOCK: usize = 128;

/// A scalar reference loop, compiled with the `fma` instructions where the
/// host has them (aarch64 always does): without the feature enabled
/// `f32::mul_add` is a libm call per element — the same bits, and all an
/// x86-64 without FMA has, at 0.7 instead of 19 GFLOP/s: too slow for an
/// oracle every test runs.
macro_rules! fused_reference {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn reference($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "fma")]
                fn fused($($arg: $ty),*) {
                    debug_assert!(std::arch::is_x86_feature_detected!("fma"));
                    reference($($arg),*);
                }
                if std::arch::is_x86_feature_detected!("fma") {
                    // SAFETY: `fma` was just detected; `fused` is safe code.
                    return unsafe { fused($($arg),*) };
                }
            }
            reference($($arg),*);
        }
    };
}

fused_reference! {
    /// Accumulates `a @ b` into `out`, from `+0.0` when `zero` is set.
    fn matmul_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, zero: bool) {
        if zero {
            out.fill(0.0);
        }
        // Row-major ikj loop order: streams through `b` rows, vectorizes well.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }
}

/// The one register-tiled product behind `a @ b`, `aᵀ @ b` and `a @ bᵀ`
/// on the simd backend: `out[i][j] += Σ_p A(i, p) · b[p][j]` over row-major
/// `b: [k, n]` and `out: [m, n]`, where `A(i, p)` is `a[i * lda + p]`
/// (`AT = false`: `a @ b`) or `a[p * lda + i]` (`AT = true`: `aᵀ @ b`) —
/// both walk memory the tile already has contiguous, so neither product
/// needs a transposed copy.
///
/// Every output element starts from the value already in `out` — or from
/// `+0.0` when `zero` is set, which never reads `out` — and fuses in
/// every one of its products with `p` ascending: the module-level
/// contract of [`matmul_block`] and [`matmul_at_b_block`] as written, and
/// of [`matmul_a_bt_block`] over a transposed `b`. The portable tile is
/// dispatched under AVX2 only together with `fma`; a host with neither
/// tile ISA runs it on libm's `fmaf` (aarch64 natively) — the same bits,
/// slowly.
fn gemm_simd<const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    zero: bool,
) {
    assert_eq!(b.len(), k * n, "gemm right operand length");
    assert_eq!(out.len(), m * n, "gemm output length");
    if m == 0 || k == 0 || n == 0 {
        if zero {
            out.fill(0.0);
        }
        return;
    }
    let (ars, aps) = if AT { (1, lda) } else { (lda, 1) };
    assert!(
        (m - 1) * ars + (k - 1) * aps < a.len(),
        "gemm left operand too short"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected; the asserts above are the
            // slice-length preconditions `gemm_avx512` documents (and
            // debug-asserts, with the feature).
            return unsafe { gemm_avx512(a, (ars, aps), b, out, (m, k, n), zero) };
        }
    }
    if zero {
        out.fill(0.0);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: avx2 and fma were just detected; the body is safe code.
        return unsafe { gemm_avx2::<AT>(a, lda, b, out, (m, k, n)) };
    }
    gemm_tiles::<NR, AT>(a, lda, b, out, (m, k, n));
}

/// [`gemm_tiles`] compiled with AVX2 and FMA codegen enabled so the
/// auto-vectorizer emits 256-bit `vfmadd` lanes for the tile loops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gemm_avx2<const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    dims: (usize, usize, usize),
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    debug_assert!(std::arch::is_x86_feature_detected!("fma"));
    gemm_tiles::<NR, AT>(a, lda, b, out, dims);
}

/// Portable tile driver: safe code the auto-vectorizer turns into
/// `MR`×`NRT` register tiles at whatever lane width the caller enables.
/// Tiles are disjoint, so they may be visited in either order: row block
/// by row block, or — for a transposed left operand — down each column
/// block, which reuses every cache line of `a` (one row of it spans
/// several row blocks) and keeps one `[k, NRT]` panel of `b` hot instead
/// of streaming all of `b` once per row block.
#[inline(always)]
fn gemm_tiles<const NRT: usize, const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    dims: (usize, usize, usize),
) {
    let (m, _, n) = dims;
    if AT {
        for j in (0..n).step_by(NRT) {
            for i in (0..m).step_by(MR) {
                tile::<NRT, AT>(a, lda, b, out, (i, j), dims);
            }
        }
    } else {
        for i in (0..m).step_by(MR) {
            for j in (0..n).step_by(NRT) {
                tile::<NRT, AT>(a, lda, b, out, (i, j), dims);
            }
        }
    }
}

/// The tile of [`gemm_tiles`] whose corner is `out[i][j]`.
#[inline(always)]
fn tile<const NRT: usize, const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    (i, j): (usize, usize),
    (m, k, n): (usize, usize, usize),
) {
    let (ir, jr) = (MR.min(m - i), NRT.min(n - j));
    if ir == MR && jr == NRT {
        tile_full::<NRT, AT>(a, lda, b, out, (i, j), (k, n));
    } else {
        tile_partial::<NRT, AT>(a, lda, b, out, (i, j), (k, n), (ir, jr));
    }
}

/// Full `MR`×`NRT` tile: constant loop bounds so the accumulators live in
/// vector registers. `inline(always)` so the body inherits the caller's
/// enabled target features. Kept apart from [`tile_partial`]: sharing one
/// accumulator array between a full and a partial branch spills it.
#[inline(always)]
fn tile_full<const NRT: usize, const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    (i, j): (usize, usize),
    (k, n): (usize, usize),
) {
    let mut acc = [[0.0f32; NRT]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&out[(i + r) * n + j..][..NRT]);
    }
    // `a @ b`: row slices of exact length `k`, so `arows[r][p]` with
    // `p in 0..k` needs no bounds check inside the hot loop.
    let mut arows: [&[f32]; MR] = [&[]; MR];
    if !AT {
        for (r, arow) in arows.iter_mut().enumerate() {
            *arow = &a[(i + r) * lda..][..k];
        }
    }
    for p in 0..k {
        let brow: &[f32; NRT] = b[p * n + j..][..NRT].try_into().expect("full tile cols");
        let acol: [f32; MR] = if AT {
            a[p * lda + i..][..MR].try_into().expect("full tile rows")
        } else {
            std::array::from_fn(|r| arows[r][p])
        };
        for (accr, av) in acc.iter_mut().zip(acol) {
            for (o, &bv) in accr.iter_mut().zip(brow.iter()) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[(i + r) * n + j..][..NRT].copy_from_slice(accr);
    }
}

/// Edge tile (fewer than `MR` rows and/or `NRT` cols) of [`gemm_tiles`].
#[inline(always)]
fn tile_partial<const NRT: usize, const AT: bool>(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    (i, j): (usize, usize),
    (k, n): (usize, usize),
    (ir, jr): (usize, usize),
) {
    let mut acc = [[0.0f32; NRT]; MR];
    for (r, accr) in acc.iter_mut().enumerate().take(ir) {
        accr[..jr].copy_from_slice(&out[(i + r) * n + j..][..jr]);
    }
    for p in 0..k {
        let brow = &b[p * n + j..][..jr];
        for (r, accr) in acc.iter_mut().enumerate().take(ir) {
            let av = if AT { a[p * lda + i + r] } else { a[(i + r) * lda + p] };
            for (o, &bv) in accr[..jr].iter_mut().zip(brow.iter()) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(ir) {
        out[(i + r) * n + j..][..jr].copy_from_slice(&accr[..jr]);
    }
}

/// AVX-512 tile driver: `MR512`×`NR512` tiles of [`tile_avx512`]. Every
/// tile whose 32 columns are all live runs unmasked; the last column
/// tile of a row band takes lane masks, and a const row count 1..=12 makes
/// the last row band an ordinary tile, so no shape falls back to a slower
/// edge path. Visits tiles in the order [`gemm_tiles`] does (`ars == 1` is
/// the transposed operand).
///
/// # Safety
///
/// The CPU must support `avx512f`, and with `(ars, aps)` the element
/// strides of `A(i, p)`: `b.len() == k * n`, `out.len() == m * n`,
/// `(m - 1) * ars + (k - 1) * aps < a.len()`, and `m, k, n > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(
    a: &[f32],
    (ars, aps): (usize, usize),
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    zero: bool,
) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    debug_assert!(b.len() == k * n && out.len() == m * n);
    debug_assert!((m - 1) * ars + (k - 1) * aps < a.len());
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let lanes = |w: usize| ((1u32 << w.min(16)) - 1) as u16;
    let tile = |i: usize, j: usize| {
        let jr = NR512.min(n - j);
        // In bounds: `i < m`, `j < n`, so each corner is an element of its
        // slice by the preconditions above.
        let t = Tile512 {
            a: a.add(i * ars),
            ars,
            aps,
            b: b.add(j),
            out: out.add(i * n + j),
            k,
            n,
            masks: [lanes(jr), lanes(jr.saturating_sub(16))],
            zero,
        };
        if jr == NR512 {
            tile_rows::<true>(t, m - i);
        } else {
            tile_rows::<false>(t, m - i);
        }
    };
    if ars == 1 {
        for j in (0..n).step_by(NR512) {
            (0..m).step_by(MR512).for_each(|i| tile(i, j));
        }
    } else {
        for i in (0..m).step_by(MR512) {
            (0..n).step_by(NR512).for_each(|j| tile(i, j));
        }
    }
}

/// [`tile_avx512`] over the first `min(rows, MR512)` rows of `t`.
///
/// # Safety
///
/// As [`tile_avx512`] for that many rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_rows<const FULL: bool>(t: Tile512, rows: usize) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f") && rows > 0);
    match rows {
        1 => tile_avx512::<1, FULL>(t),
        2 => tile_avx512::<2, FULL>(t),
        3 => tile_avx512::<3, FULL>(t),
        4 => tile_avx512::<4, FULL>(t),
        5 => tile_avx512::<5, FULL>(t),
        6 => tile_avx512::<6, FULL>(t),
        7 => tile_avx512::<7, FULL>(t),
        8 => tile_avx512::<8, FULL>(t),
        9 => tile_avx512::<9, FULL>(t),
        10 => tile_avx512::<10, FULL>(t),
        11 => tile_avx512::<11, FULL>(t),
        _ => tile_avx512::<MR512, FULL>(t),
    }
}

/// One [`tile_avx512`] invocation: the tile's corner of each operand.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Tile512 {
    /// `A(i, 0)` of the tile's first row; row `r`, step `p` is at
    /// `a + r * ars + p * aps`.
    a: *const f32,
    ars: usize,
    aps: usize,
    /// `b[0][j]` of the tile's first column; row stride `n`.
    b: *const f32,
    /// `out[i][j]`; row stride `n`.
    out: *mut f32,
    k: usize,
    n: usize,
    /// Live lanes of the tile's two 16-column halves (read only when the
    /// tile is not `FULL`).
    masks: [u16; 2],
    /// Start the sums at `+0.0` instead of loading them from `out`.
    zero: bool,
}

/// `MRT`×32 tile held in `2 * MRT` zmm registers across the whole `p`
/// loop, starting from `out` or, when `t.zero`, from `+0.0`: one
/// `vfmadd231ps` per register and step and no test of the operand (a
/// branch here mispredicts on every ReLU or dropout output).
/// A `FULL` tile has all 32 columns live and loads and stores them
/// unmasked; otherwise masked-off lanes are neither loaded nor stored.
///
/// # Safety
///
/// `avx512f` must be available, and for every `r < MRT`, `p < t.k` and
/// live lane `c` (every `c < 32` when `FULL`): `t.a + r * ars + p * aps`,
/// `t.b + p * n + c` and `t.out + r * n + c` must be in bounds of their
/// slices. Addresses of masked-off lanes may lie outside them (hence
/// `wrapping_add` for the second half, whose mask can be empty): a masked
/// load or store does not access those lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const MRT: usize, const FULL: bool>(t: Tile512) {
    use std::arch::x86_64::*;
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    let mut acc = [[_mm512_setzero_ps(); 2]; MRT];
    if !t.zero {
        for (r, accr) in acc.iter_mut().enumerate() {
            for (h, v) in accr.iter_mut().enumerate() {
                let src = t.out.add(r * t.n).wrapping_add(16 * h);
                *v = if FULL {
                    _mm512_loadu_ps(src)
                } else {
                    _mm512_maskz_loadu_ps(t.masks[h], src)
                };
            }
        }
    }
    // A tile of at most 16 columns leaves its second half idle.
    let wide = FULL || t.masks[1] != 0;
    for p in 0..t.k {
        let brow = t.b.add(p * t.n);
        let (b0, b1) = if FULL {
            (_mm512_loadu_ps(brow), _mm512_loadu_ps(brow.add(16)))
        } else {
            let b0 = _mm512_maskz_loadu_ps(t.masks[0], brow);
            (b0, _mm512_maskz_loadu_ps(t.masks[1], brow.wrapping_add(16)))
        };
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*t.a.add(r * t.ars + p * t.aps));
            accr[0] = _mm512_fmadd_ps(av, b0, accr[0]);
            if wide {
                accr[1] = _mm512_fmadd_ps(av, b1, accr[1]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        for (h, &v) in accr.iter().enumerate() {
            let dst = t.out.add(r * t.n).wrapping_add(16 * h);
            if FULL {
                _mm512_storeu_ps(dst, v);
            } else {
                _mm512_mask_storeu_ps(dst, t.masks[h], v);
            }
        }
    }
}

/// [`matmul_block`] through [`gemm_simd`]: `A(i, p) = a[i][p]`.
fn matmul_block_simd(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, zero: bool) {
    gemm_simd::<false>(a, k, b, out, (m, k, n), zero);
}

/// Matrix product `a @ b` for rank-2 tensors, accumulated into `out`,
/// which must be zero-filled `[m*n]`. Large products are sharded over
/// blocks of output rows through [`betty_runtime::Shards`], so the result
/// is bit-identical at every thread count.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `out.len() != m*n`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, k) = (a.rows(), a.cols());
    let (k2, n) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    ab_sharded(a.data(), b.data(), out, (m, k, n), false);
}

/// `out = a @ b` over row-major slices `a: [m, k]`, `b: [k, n]` and
/// `out: [m, n]`, the sums starting from `+0.0` in the tile: the same bits
/// as zero-filling `out` and calling [`matmul_into`], without the pass
/// over it — for operands that are row blocks of larger tensors (an LSTM
/// chunk's gates, an affine op's rows).
pub(crate) fn matmul_set(a: &[f32], b: &[f32], out: &mut [f32], dims: (usize, usize, usize)) {
    ab_sharded(a, b, out, dims, true);
}

/// `a @ b` into `out`, sharded over output rows, the sums starting from
/// `out` or, when `zero` is set, from `+0.0`.
fn ab_sharded(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize), zero: bool) {
    assert_eq!(a.len(), m * k, "matmul left operand length mismatch");
    assert_eq!(b.len(), k * n, "matmul right operand length mismatch");
    assert_eq!(out.len(), m * n, "matmul output length mismatch");
    if out.is_empty() {
        return; // m == 0 or n == 0: nothing to accumulate into
    }
    let block = match Backend::current() {
        Backend::Scalar => matmul_block,
        Backend::Simd => matmul_block_simd,
    };
    Shards::for_work(m, m * k * n).run(out, n, &mut [], |rows, out, _| {
        block(&a[rows.start * k..rows.end * k], b, out, rows.len(), k, n, zero);
    });
}

fused_reference! {
    /// Accumulates `aᵀ @ b` into output rows `i_range` (`out` holds just
    /// those rows), from `+0.0` when `zero` is set.
    ///
    /// The `r` (shared outer dimension) loop stays outermost and ascending,
    /// so each output element sees additions in exactly the serial order no
    /// matter how the `i` range is sharded.
    fn matmul_at_b_block(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        dims: (usize, usize, usize),
        i_range: std::ops::Range<usize>,
        zero: bool,
    ) {
        let (m, ka, n) = dims;
        if zero {
            out.fill(0.0);
        }
        for r in 0..m {
            let arow = &a[r * ka..(r + 1) * ka];
            let brow = &b[r * n..(r + 1) * n];
            for (ii, o_chunk) in out.chunks_mut(n).enumerate().take(i_range.len()) {
                let av = arow[i_range.start + ii];
                for (o, &bv) in o_chunk.iter_mut().zip(brow.iter()) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }
}

/// [`matmul_at_b_block`] through [`gemm_simd`]: `A(i, r) = a[r][i]` read in
/// place (`a[r][i..i + MR512]` is as contiguous as `b[r][j..j + NR512]`),
/// the shared dimension `r` ascending per output element, so every
/// addition is the scalar loop's — whatever output rows `i_range` this
/// shard owns.
fn matmul_at_b_block_simd(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, ka, n): (usize, usize, usize),
    i_range: std::ops::Range<usize>,
    zero: bool,
) {
    // The shared dimension is the batch: walked whole, a tile's panels of
    // `a` and `b` outgrow the cache (an LSTM layer's `dW` reduces over tens
    // of thousands of rows). A tile keeps its sums in `out` between
    // blocks, so blocking `r` adds the same terms in the same order; only
    // the first block may start from zero.
    if m == 0 && zero {
        out.fill(0.0);
    }
    for r0 in (0..m).step_by(AT_B_ROW_BLOCK) {
        let rows = AT_B_ROW_BLOCK.min(m - r0);
        let a_block = &a[r0 * ka + i_range.start..];
        let b_block = &b[r0 * n..][..rows * n];
        let dims = (i_range.len(), rows, n);
        gemm_simd::<true>(a_block, ka, b_block, out, dims, zero && r0 == 0);
    }
}

/// `aᵀ @ b` without materializing the transpose, written into `out` of
/// length `a.cols()*b.cols()` and sharded like [`matmul_into`]. The
/// kernel overwrites every element without reading it, so `out` may hold
/// arbitrary data: the output is weight-shaped and, over a short shared
/// dimension, far larger than the work, so neither the caller nor the
/// kernel pays a pass over it to start from zero.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()` or `out` has the wrong length.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, ka) = (a.rows(), a.cols());
    let (m2, n) = (b.rows(), b.cols());
    assert_eq!(m, m2, "matmul_at_b outer dimension mismatch: {m} vs {m2}");
    at_b_sharded(a.data(), b.data(), out, (m, ka, n), true);
}

/// `out += aᵀ @ b` over row-major slices `a: [m, ka]`, `b: [m, n]` and
/// `out: [ka, n]` — [`matmul_at_b`] accumulating into a row block of
/// a larger gradient.
pub(crate) fn matmul_at_b_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    dims: (usize, usize, usize),
) {
    at_b_sharded(a, b, out, dims, false);
}

/// `aᵀ @ b` into `out`, sharded over output rows, the sums starting from
/// `out` or, when `zero` is set, from `+0.0`.
fn at_b_sharded(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, ka, n): (usize, usize, usize),
    zero: bool,
) {
    assert_eq!(a.len(), m * ka, "matmul_at_b left operand length mismatch");
    assert_eq!(b.len(), m * n, "matmul_at_b right operand length mismatch");
    assert_eq!(out.len(), ka * n, "matmul_at_b output length mismatch");
    if out.is_empty() {
        return; // ka == 0 or n == 0: nothing to accumulate into
    }
    let block = match Backend::current() {
        Backend::Scalar => matmul_at_b_block,
        Backend::Simd => matmul_at_b_block_simd,
    };
    Shards::for_work(ka, m * ka * n).run(out, n, &mut [], |rows, out, _| {
        block(a, b, out, (m, ka, n), rows, zero);
    });
}

fused_reference! {
    /// Computes output rows `[i0, i0 + rows)` of `a @ bᵀ`; rows are fully
    /// independent, so sharding cannot change any result bit.
    fn matmul_a_bt_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize, i0: usize) {
        for (ii, orow) in out.chunks_mut(n).enumerate() {
            let i = i0 + ii;
            let arow = &a[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc = av.mul_add(bv, acc);
                }
                *o = acc;
            }
        }
    }
}

/// [`matmul_a_bt_block`] through [`gemm_simd`] over `bt`, the `[k, n]`
/// transpose of `b` ([`transpose_into`]): accumulators start at `0.0` and
/// `kk` ascends — the scalar dot product's chain per element, a tile of
/// output columns advancing per instruction instead of one scalar.
fn matmul_a_bt_block_simd(a: &[f32], bt: &[f32], out: &mut [f32], k: usize, n: usize, i0: usize) {
    let rows = out.len() / n;
    gemm_simd::<false>(&a[i0 * k..][..rows * k], k, bt, out, (rows, k, n), true);
}

/// Writes the transpose of rank-2 `b` (`[n, k]`) into `out` as row-major
/// `[k, n]` — the packed right operand of [`matmul_a_bt_packed_into`].
///
/// # Panics
///
/// Panics if `out.len() != b.len()`.
pub fn transpose_into(b: &Tensor, out: &mut [f32]) {
    transpose_slice(b.data(), (b.rows(), b.cols()), out);
}

/// [`transpose_into`] over a row-major slice `b: [n, k]`.
pub(crate) fn transpose_slice(b: &[f32], (n, k): (usize, usize), out: &mut [f32]) {
    assert_eq!(b.len(), n * k, "transpose input length mismatch");
    assert_eq!(out.len(), n * k, "transpose output length mismatch");
    for (j, brow) in b.chunks_exact(k.max(1)).enumerate().take(n) {
        for (kk, &v) in brow.iter().enumerate() {
            out[kk * n + j] = v;
        }
    }
}

/// `a @ bᵀ` for `a: [m, k]`, `b: [n, k]`, written into `out` of length
/// `a.rows()*b.rows()`. The kernel overwrites every element, so `out` may
/// hold arbitrary data. The simd backend transposes `b` once per call
/// (callers with many products against one `b` pack it themselves, see
/// [`matmul_a_bt_packed_into`]).
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()` or `out` has the wrong length.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    a_bt_sharded(a.data(), b.data(), None, out, a_bt_dims(a, b));
}

/// [`matmul_a_bt_into`] for a caller that already holds `bt`, the `[k, n]`
/// transpose of `b` written by [`transpose_into`] — the backward sweep packs
/// a weight once and reuses it for every product against it. Both forms
/// are passed because the scalar reference reads `b` and the simd tile
/// reads `bt`; the result is bit-identical to [`matmul_a_bt_into`].
///
/// # Panics
///
/// Panics like [`matmul_a_bt_into`], or if `bt` is not `[b.cols(), b.rows()]`.
pub fn matmul_a_bt_packed_into(a: &Tensor, b: &Tensor, bt: &Tensor, out: &mut [f32]) {
    assert_eq!(bt.shape(), &[b.cols(), b.rows()], "packed transpose shape mismatch");
    a_bt_sharded(a.data(), b.data(), Some(bt.data()), out, a_bt_dims(a, b));
}

/// `(m, k, n)` of `a @ bᵀ` for `a: [m, k]`, `b: [n, k]`.
fn a_bt_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    let (m, k) = (a.rows(), a.cols());
    let (n, k2) = (b.rows(), b.cols());
    assert_eq!(k, k2, "matmul_a_bt inner dimension mismatch: {k} vs {k2}");
    (m, k, n)
}

/// Computes output rows `[i0, i0 + rows)` of `a @ bᵀ` into `out` from `a`
/// and the right operand in the layout its backend reads.
type ABtBlock = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// `out = a @ bᵀ` over row-major slices `a: [m, k]`, `b: [n, k]` and
/// `out: [m, n]`, sharded over output rows; `bt` is `b`'s packed `[k, n]`
/// transpose when the caller already has it.
pub(crate) fn a_bt_sharded(
    a: &[f32],
    b: &[f32],
    bt: Option<&[f32]>,
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    assert_eq!(a.len(), m * k, "matmul_a_bt left operand length mismatch");
    assert_eq!(b.len(), n * k, "matmul_a_bt right operand length mismatch");
    assert_eq!(out.len(), m * n, "matmul_a_bt output length mismatch");
    if out.is_empty() {
        return; // m == 0 or n == 0: nothing to overwrite
    }
    let packed;
    let (block, rhs): (ABtBlock, &[f32]) = match (Backend::current(), bt) {
        (Backend::Scalar, _) => (matmul_a_bt_block, b),
        (Backend::Simd, Some(bt)) => {
            assert_eq!(bt.len(), n * k, "packed transpose length mismatch");
            (matmul_a_bt_block_simd, bt)
        }
        (Backend::Simd, None) => {
            packed = {
                let mut bt = vec![0.0f32; b.len()];
                transpose_slice(b, (n, k), &mut bt);
                bt
            };
            (matmul_a_bt_block_simd, &packed)
        }
    };
    Shards::for_work(m, m * k * n).run(out, n, &mut [], |rows, out, _| {
        block(a, rhs, out, k, n, rows.start);
    });
}

/// Elementwise binary map into `out` (fully overwritten).
///
/// # Panics
///
/// Panics if shapes differ or `out.len() != a.len()`.
pub(crate) fn zip_map_into(a: &Tensor, b: &Tensor, out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
    assert_eq!(out.len(), a.len(), "zip_map output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
}

/// Elementwise unary map.
pub(crate) fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let data = a.data().iter().map(|&x| f(x)).collect();
    Tensor::from_vec(data, a.shape()).expect("map output shape")
}

/// `map` writing into `out` (fully overwritten).
///
/// # Panics
///
/// Panics if `out.len() != a.len()`.
pub fn map_into(a: &Tensor, out: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(out.len(), a.len(), "map output length mismatch");
    for (o, &x) in out.iter_mut().zip(a.data()) {
        *o = f(x);
    }
}

/// Largest magnitude the rational of [`tanh`] is evaluated at. The
/// quotient here is exactly `1.0`, so the clamp is what saturates `±∞`
/// and keeps `|tanh| ≤ 1`.
const TANH_CLAMP: f32 = 7.905_311;

/// Hyperbolic tangent as the ratio of an odd degree-13 and an even degree-6
/// polynomial in the clamped argument (the coefficients Eigen and XLA
/// ship): absolute error below `5e-7` everywhere, exactly odd (the sign
/// only enters through the final factor `x`), `±1` from `TANH_CLAMP`
/// (7.905311) out, NaN in → NaN out.
///
/// This is the crate's only `tanh`: both backends, every lane width and
/// the LSTM kernels call it, so a value never depends on where it was
/// computed. It is branch-free and uses only `× + ÷ min max`, each a
/// multiply *then* an add (never fused) — every operation rounds the same
/// in a scalar register and in any vector lane, which is what lets
/// [`tanh_into`] run it 16 wide and stay bit-identical to one call at a
/// time. The price of a rational over libm is a few units of rounding
/// noise: adjacent arguments may come back a few ulps out of order where
/// the slope of `tanh` is below that noise (`|x| > 4`).
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = x2 * -2.760_768_4e-16 + 2.000_188e-13;
    p = x2 * p + -8.604_672e-11;
    p = x2 * p + 5.122_297_3e-8;
    p = x2 * p + 1.485_722_35e-5;
    p = x2 * p + 6.372_619_5e-4;
    p = x2 * p + 4.893_524_6e-3;
    let mut q = x2 * 1.198_258_4e-6 + 1.185_347_1e-4;
    q = x2 * q + 2.268_434_7e-3;
    q = x2 * q + 4.893_525e-3;
    x * p / q
}

/// Logistic sigmoid as `½ + ½·tanh(x/2)` over the shared [`tanh`]: the
/// same lane-width independence, absolute error below `3e-7`, exactly `0`
/// and `1` beyond `|x| ≈ 15.8`.
#[inline(always)]
pub(crate) fn sigmoid(x: f32) -> f32 {
    0.5 * tanh(0.5 * x) + 0.5
}

#[inline(always)]
fn tanh_lanes(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = tanh(v);
    }
}

#[inline(always)]
fn sigmoid_lanes(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = sigmoid(v);
    }
}

lane_dispatch!(tanh_dispatch, tanh_avx512, tanh_avx2, tanh_lanes(x: &[f32], out: &mut [f32]));
lane_dispatch!(
    sigmoid_dispatch,
    sigmoid_avx512,
    sigmoid_avx2,
    sigmoid_lanes(x: &[f32], out: &mut [f32])
);

/// Elementwise `tanh` of `a` into `out` (fully overwritten), vectorised
/// at the host's widest lanes on [`Backend::Simd`]; the same bits on
/// either backend.
///
/// # Panics
///
/// Panics if `out.len() != a.len()`.
pub fn tanh_into(a: &Tensor, out: &mut [f32]) {
    assert_eq!(out.len(), a.len(), "tanh output length mismatch");
    match Backend::current() {
        Backend::Scalar => tanh_lanes(a.data(), out),
        Backend::Simd => tanh_dispatch(a.data(), out),
    }
}

/// Elementwise `sigmoid` of `a` into `out`; see [`tanh_into`].
///
/// # Panics
///
/// Panics if `out.len() != a.len()`.
pub fn sigmoid_into(a: &Tensor, out: &mut [f32]) {
    assert_eq!(out.len(), a.len(), "sigmoid output length mismatch");
    match Backend::current() {
        Backend::Scalar => sigmoid_lanes(a.data(), out),
        Backend::Simd => sigmoid_dispatch(a.data(), out),
    }
}

/// Scalar multiple.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x * s)
}

/// Adds a length-`n` row vector to every row of an `[m, n]` matrix,
/// writing into `out` (fully overwritten).
///
/// # Panics
///
/// Panics if `bias` is not rank 1 of length `a.cols()` or `out` has the
/// wrong length.
pub(crate) fn add_row_broadcast_into(a: &Tensor, bias: &Tensor, out: &mut [f32]) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(
        bias.shape(),
        &[n],
        "bias must be rank-1 of length {n}, got {:?}",
        bias.shape()
    );
    assert_eq!(out.len(), m * n, "broadcast output length mismatch");
    out.copy_from_slice(a.data());
    let b = bias.data();
    for orow in out.chunks_mut(n) {
        for (o, &bv) in orow.iter_mut().zip(b) {
            *o += bv;
        }
    }
}

/// Column sums of a rank-2 tensor, `[m, n] -> [n]`, written into `out`
/// (zeroed by the kernel first, so `out` may hold arbitrary data).
///
/// # Panics
///
/// Panics if `out.len() != a.cols()`.
pub(crate) fn sum_rows_into(a: &Tensor, out: &mut [f32]) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(out.len(), n, "sum_rows output length mismatch");
    out.fill(0.0);
    for i in 0..m {
        for (o, &v) in out.iter_mut().zip(a.row(i)) {
            *o += v;
        }
    }
}

/// Multiplies each row `i` of `a` by `scalars[i]`, writing into `out`
/// (fully overwritten).
///
/// # Panics
///
/// Panics if `scalars.len() != a.rows()` or `out` has the wrong length.
pub(crate) fn scale_rows_into(a: &Tensor, scalars: &[f32], out: &mut [f32]) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(scalars.len(), m, "one scalar per row required");
    assert_eq!(out.len(), m * n, "scale_rows output length mismatch");
    for ((orow, arow), &s) in out.chunks_mut(n).zip(a.data().chunks(n)).zip(scalars) {
        for (o, &v) in orow.iter_mut().zip(arow) {
            *o = v * s;
        }
    }
}

/// Numerically-stable row-wise log-softmax into `out` (fully
/// overwritten).
///
/// # Panics
///
/// Panics if `out.len() != a.len()`.
pub(crate) fn log_softmax_rows_into(a: &Tensor, out: &mut [f32]) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(out.len(), m * n, "log_softmax output length mismatch");
    for i in 0..m {
        let row = a.row(i);
        let max = row.iter().fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
        let log_z = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for (o, &v) in out[i * n..(i + 1) * n].iter_mut().zip(row) {
            *o = v - log_z;
        }
    }
}

/// Copies columns `[start, start+len)` of a matrix into `out` (fully
/// overwritten).
///
/// # Panics
///
/// Panics if the column range is out of bounds or `out` has the wrong
/// length.
pub(crate) fn slice_cols_into(a: &Tensor, start: usize, len: usize, out: &mut [f32]) {
    let (m, n) = (a.rows(), a.cols());
    assert!(start + len <= n, "column slice {start}..{} > {n}", start + len);
    assert_eq!(out.len(), m * len, "slice output length mismatch");
    for i in 0..m {
        out[i * len..(i + 1) * len].copy_from_slice(&a.row(i)[start..start + len]);
    }
}

/// One Adam update's coefficients: the hyper-parameters plus the step's
/// precomputed bias corrections `1 - βᵗ` (computed once per step, outside
/// the per-element loop).
#[derive(Debug, Clone, Copy)]
pub struct AdamCoeffs {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
    /// `1 - β₁ᵗ` for the current step `t`.
    pub bias1: f32,
    /// `1 - β₂ᵗ` for the current step `t`.
    pub bias2: f32,
}

/// One elementwise Adam update over a parameter slab:
/// `m ← β₁m + (1-β₁)g`, `v ← β₂v + (1-β₂)g²`,
/// `value -= lr·(m/bias1) / (√(v/bias2) + ε)`.
///
/// Every element is independent and every f32 operation (including the
/// hardware-rounded `sqrt` and divide) is identically rounded at any lane
/// width, so the backends are bit-identical by construction; the simd path
/// only widens codegen (AVX-512/AVX2 `vsqrtps`/`vdivps` retire 16/8 lanes
/// where the baseline retires 4).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn adam_step(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    assert_eq!(value.len(), grad.len(), "adam_step grad length mismatch");
    assert_eq!(value.len(), m.len(), "adam_step m length mismatch");
    assert_eq!(value.len(), v.len(), "adam_step v length mismatch");
    match Backend::current() {
        Backend::Scalar => adam_step_inner(value, grad, m, v, c),
        Backend::Simd => adam_step_simd(value, grad, m, v, c),
    }
}

fn adam_step_simd(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: identical safe loop; the feature check above
            // guarantees the instructions are supported, and the callee
            // debug-asserts it.
            unsafe { adam_step_avx512(value, grad, m, v, c) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            unsafe { adam_step_avx2(value, grad, m, v, c) };
            return;
        }
    }
    adam_step_inner(value, grad, m, v, c);
}

/// [`adam_step_inner`] compiled with AVX-512 codegen enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn adam_step_avx512(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx512f"));
    adam_step_inner(value, grad, m, v, c);
}

/// [`adam_step_inner`] compiled with AVX2 codegen enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn adam_step_avx2(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    adam_step_inner(value, grad, m, v, c);
}

#[inline(always)]
fn adam_step_inner(value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32], c: AdamCoeffs) {
    for (((val, &g), mi), vi) in value
        .iter_mut()
        .zip(grad)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
    {
        *mi = c.beta1 * *mi + (1.0 - c.beta1) * g;
        *vi = c.beta2 * *vi + (1.0 - c.beta2) * g * g;
        let m_hat = *mi / c.bias1;
        let v_hat = *vi / c.bias2;
        *val -= c.lr * m_hat / (v_hat.sqrt() + c.eps);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use betty_runtime::{with_threads, MIN_SHARD_WORK};

    use super::*;
    use crate::backend::with_backend;

    // Allocating forms of the `_into` kernels, and the tolerance compare,
    // for the crate's tests.
    pub(crate) fn alloc(shape: &[usize], f: impl FnOnce(&mut [f32])) -> Tensor {
        let mut out = Tensor::zeros(shape);
        f(out.data_mut());
        out
    }

    pub(crate) fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        alloc(&[a.rows(), b.cols()], |o| matmul_into(a, b, o))
    }

    pub(crate) fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
        alloc(&[a.cols(), b.cols()], |o| matmul_at_b_into(a, b, o))
    }

    pub(crate) fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        alloc(&[a.rows(), b.rows()], |o| matmul_a_bt_into(a, b, o))
    }

    pub(crate) fn transpose(a: &Tensor) -> Tensor {
        alloc(&[a.cols(), a.rows()], |o| transpose_into(a, o))
    }

    /// Same shape, and every element within `tol`.
    pub(crate) fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol)
    }

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    /// The simd tiles preserve the scalar per-element accumulation order,
    /// so every f32 result bit must match across backends — for edge shapes, partial
    /// tiles, and every thread count.
    #[test]
    fn simd_matmuls_bit_identical_to_scalar_across_shapes_and_threads() {
        let shapes = [
            (1usize, 1usize, 1usize),
            (1, 7, 5),      // single row
            (4, 16, 16),    // exact full tiles
            (5, 3, 17),     // partial tiles both dims
            (257, 130, 129), // several row blocks, remainders both ways
            (2 * AT_B_ROW_BLOCK + 76, 7, 9), // aᵀ·b reduces over three row blocks
        ];
        for (m, k, n) in shapes {
            let a = big(m, k, 41);
            let b = big(k, n, 42);
            let bt = big(n, k, 43);
            for threads in [1usize, 4] {
                let family = || {
                    (
                        matmul(&a, &b),
                        matmul_at_b(&a, &big(m, n, 44)),
                        matmul_a_bt(&a, &bt),
                    )
                };
                let ((s1, s2, s3), (v1, v2, v3)) = with_threads(threads, || {
                    (with_backend(Backend::Scalar, family), with_backend(Backend::Simd, family))
                });
                assert_eq!(bits(&s1), bits(&v1), "matmul {m}x{k}x{n} threads={threads}");
                assert_eq!(bits(&s2), bits(&v2), "at_b {m}x{k}x{n} threads={threads}");
                assert_eq!(bits(&s3), bits(&v3), "a_bt {m}x{k}x{n} threads={threads}");
            }
        }
    }

    /// `x` and `c` with `fma(x, x, -c) = 2⁻²⁴` but `x * x - c = 0.0`: the
    /// exact square `1 + 2⁻¹¹ + 2⁻²⁴` is a tie that rounds to `c`.
    const FUSED_WITNESS: (f32, f32) = (1.0 + 1.0 / 4096.0, 1.0 + 1.0 / 2048.0);

    /// `is_x86_feature_detected!` picks one tile implementation per host,
    /// so a host with AVX-512 never reaches the portable tiles through the
    /// public API. Drive every implementation this host can run directly
    /// against the scalar loops: full tiles, row and column remainders,
    /// left operands with a fifth and with over half exact zeros, and
    /// operands carrying `±0.0`, NaN and ∞ (NaNs compared as NaN, not by
    /// payload). Then the witness whose fused and multiply-then-add
    /// results differ, so that none of them — the scalar loops included —
    /// can go back to two roundings unnoticed.
    #[test]
    fn every_tile_implementation_matches_the_scalar_loops() {
        type Gemm = fn(&[f32], usize, &[f32], &mut [f32], (usize, usize, usize));
        fn run(name: &str, at: Gemm, ab: Gemm) {
            let shapes = [(1, 1, 1), (6, 9, 16), (7, 3, 17), (13, 40, 33), (25, 70, 95)];
            for ((m, k, n), relu_like) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
                let spike = |t: Tensor, offset: usize| {
                    let mut d = t.data().to_vec();
                    for (i, v) in [0.0, -0.0, f32::NAN, f32::INFINITY].into_iter().enumerate() {
                        let len = d.len();
                        d[(offset + 7 * i) % len] = v;
                    }
                    d
                };
                // A ReLU or dropout output: every other element exactly zero.
                let left = |t: Tensor| if relu_like { half_zeroed(t) } else { t };
                let a = spike(left(big(m, k, 51)), 0);
                let b = spike(big(k, n, 52), 3);
                let g = spike(left(big(m, n, 53)), 5);
                let canon = |v: &[f32]| -> Vec<u32> {
                    v.iter().map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() }).collect()
                };
                let (mut want, mut got) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                matmul_block(&a, &b, &mut want, m, k, n, false);
                ab(&a, k, &b, &mut got, (m, k, n));
                assert_eq!(canon(&want), canon(&got), "{name} a@b {m}x{k}x{n}");

                let (mut want, mut got) = (vec![0.0f32; k * n], vec![0.0f32; k * n]);
                matmul_at_b_block(&a, &g, &mut want, (m, k, n), 0..k, false);
                at(&a, k, &g, &mut got, (k, m, n));
                assert_eq!(canon(&want), canon(&got), "{name} aT@b {m}x{k}x{n}");

                let bt = transpose(&Tensor::from_vec(b.clone(), &[k, n]).unwrap());
                let (mut want, mut got) = (vec![f32::NAN; m * k], vec![0.0f32; m * k]);
                matmul_a_bt_block(&g, &b, &mut want, n, k, 0);
                ab(&g, n, bt.data(), &mut got, (m, n, k));
                assert_eq!(canon(&want), canon(&got), "{name} a@bT {m}x{k}x{n}");
            }

            // `out = 1·(-c) + x·x` over a full tile and both remainders.
            let ((x, c), (m, n)) = (FUSED_WITNESS, (7, 33));
            let a: Vec<f32> = [1.0, x].repeat(m);
            let a_t = [vec![1.0; m], vec![x; m]].concat();
            let b = [vec![-c; n], vec![x; n]].concat();
            let b_t: Vec<f32> = [-c, x].repeat(n);
            type Product<'a> = (&'a str, &'a dyn Fn(&mut [f32]));
            let products: [Product; 5] = [
                ("tile a@b", &|out| ab(&a, 2, &b, out, (m, 2, n))),
                ("tile aT@b", &|out| at(&a_t, m, &b, out, (m, 2, n))),
                ("scalar a@b", &|out| matmul_block(&a, &b, out, m, 2, n, false)),
                ("scalar aT@b", &|out| matmul_at_b_block(&a_t, &b, out, (2, m, n), 0..m, false)),
                ("scalar a@bT", &|out| matmul_a_bt_block(&a, &b_t, out, 2, n, 0)),
            ];
            for (what, product) in products {
                let mut out = vec![0.0f32; m * n];
                product(&mut out);
                let fused = out.iter().all(|v| v.to_bits() == 2f32.powi(-24).to_bits());
                assert!(fused, "{name} {what} rounds twice: {:?}", &out[..2]);
            }
        }
        run("portable", gemm_tiles::<NR, true>, gemm_tiles::<NR, false>);
        // The AVX-512 tile where the host has it.
        run(
            "dispatched",
            |a, lda, b, out, d| gemm_simd::<true>(a, lda, b, out, d, false),
            |a, lda, b, out, d| gemm_simd::<false>(a, lda, b, out, d, false),
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: avx2 and fma were just detected; the bodies are safe code.
            run(
                "avx2+fma",
                |a, lda, b, out, d| unsafe { gemm_avx2::<true>(a, lda, b, out, d) },
                |a, lda, b, out, d| unsafe { gemm_avx2::<false>(a, lda, b, out, d) },
            );
        }
    }

    /// The AVX-512 tile at every row remainder of its 12-row band and at
    /// 32-lane column remainders 0, 4 and 16, through the three products
    /// against the scalar loops: `a·b` accumulating into an output that
    /// already holds values and started from zero, `aᵀ·b` (over more than one
    /// [`AT_B_ROW_BLOCK`], so zero-started then accumulated) and `a·bᵀ`
    /// overwriting outputs full of NaN.
    #[test]
    fn twelve_row_tiles_match_the_scalar_loops_at_every_remainder() {
        let shared = AT_B_ROW_BLOCK + 22;
        for rows in 0..MR512 {
            for cols in [0usize, 4, 16] {
                let (m, n) = (2 * MR512 + rows, 2 * NR512 + cols);
                let (a, b, start) = (big(m, shared, 61), big(shared, n, 62), big(m, n, 63));
                let (at, g, bt) = (big(shared, m, 64), big(shared, n, 65), big(n, shared, 66));
                let run = |backend| {
                    with_backend(backend, || {
                        let mut ab = start.clone();
                        matmul_into(&a, &b, ab.data_mut());
                        let mut ab_set = vec![f32::NAN; m * n];
                        matmul_set(a.data(), b.data(), &mut ab_set, (m, shared, n));
                        let mut atb = vec![f32::NAN; m * n];
                        matmul_at_b_into(&at, &g, &mut atb);
                        let mut abt = vec![f32::NAN; m * n];
                        matmul_a_bt_into(&a, &bt, &mut abt);
                        [bits(&ab), bits2(&ab_set), bits2(&atb), bits2(&abt)]
                    })
                };
                let (want, got) = (run(Backend::Scalar), run(Backend::Simd));
                let products = ["a@b", "a@b from zero", "aT@b", "a@bT"];
                for (what, (want, got)) in products.iter().zip(want.iter().zip(&got)) {
                    assert_eq!(want, got, "{what} {m}x{shared}x{n}");
                }
            }
        }
    }

    /// Degenerate shapes: an empty inner dimension leaves accumulating
    /// kernels at zero and makes every a_bt dot product 0.0.
    #[test]
    fn simd_matmuls_handle_k_zero() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 5]);
        let bt = Tensor::zeros(&[5, 0]);
        for backend in [Backend::Scalar, Backend::Simd] {
            with_backend(backend, || {
                assert_eq!(matmul(&a, &b).data(), &[0.0f32; 15], "{backend}");
                assert_eq!(matmul_a_bt(&a, &bt).data(), &[0.0f32; 15], "{backend}");
                let atb = matmul_at_b(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[0, 5]));
                assert_eq!(atb.data(), &[0.0f32; 15], "{backend}");
            });
        }
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = t(&[2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[2, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[3, 4]);
        assert_eq!(c.row(2), &[8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 0.0, 1.0], &[2, 3]);
        let atb = matmul_at_b(&a, &b);
        assert!(approx_eq(&atb, &matmul(&transpose(&a), &b), 1e-6));
        let abt = matmul_a_bt(&a, &b);
        assert!(approx_eq(&abt, &matmul(&a, &transpose(&b)), 1e-6));
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        let m = 257;
        let k = 130;
        let n = 129;
        let a = Tensor::from_vec((0..m * k).map(|i| (i % 7) as f32 - 3.0).collect(), &[m, k]).unwrap();
        let b = Tensor::from_vec((0..k * n).map(|i| (i % 5) as f32 - 2.0).collect(), &[k, n]).unwrap();
        let big = matmul(&a, &b);
        // Serial reference via the transposed kernel identity.
        let serial = matmul_at_b(&transpose(&a), &b);
        assert!(approx_eq(&big, &serial, 1e-3));
    }

    /// A deterministic, mildly sparse matrix.
    fn big(rows: usize, cols: usize, salt: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                if v.is_multiple_of(5) {
                    0.0
                } else {
                    (v % 17) as f32 / 4.0 - 2.0
                }
            })
            .collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    }

    /// `t` with the elements a multiplicative hash picks — half of them —
    /// set to exactly `0.0`.
    fn half_zeroed(mut t: Tensor) -> Tensor {
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if (i as u32).wrapping_mul(2654435761) >> 31 == 0 {
                *v = 0.0;
            }
        }
        t
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `product()` inline against the same call at four threads, at a
    /// shape the gate grants more than one shard — asserted, so raising
    /// [`MIN_SHARD_WORK`] cannot quietly turn this into serial against
    /// serial. Rows are a multiple of neither the shard count nor the tile.
    fn inline_and_sharded(rows: usize, work: usize, product: impl Fn() -> Tensor) -> Tensor {
        assert!(work >= 2 * MIN_SHARD_WORK);
        let inline = with_threads(1, &product);
        let sharded = with_threads(4, || {
            assert!(Shards::for_work(rows, work).count() > 1);
            product()
        });
        assert_eq!(bits(&inline), bits(&sharded));
        inline
    }

    /// The sharded shape: `a: [M, K]`, `b: [K, N]`.
    const SHARDED: (usize, usize, usize) = (1027, 362, 363);

    #[test]
    fn matmul_at_b_parallel_bit_identical_to_serial() {
        let (m, k, n) = SHARDED;
        let (a, b) = (big(k, m, 1), big(k, n, 2));
        let out = inline_and_sharded(m, m * k * n, || matmul_at_b(&a, &b));
        assert!(approx_eq(&out, &matmul(&transpose(&a), &b), 1e-2));
    }

    #[test]
    fn matmul_a_bt_parallel_bit_identical_to_serial() {
        let (m, k, n) = SHARDED;
        let (a, b) = (big(m, k, 3), big(n, k, 4));
        let out = inline_and_sharded(m, m * k * n, || matmul_a_bt(&a, &b));
        assert!(approx_eq(&out, &matmul(&a, &transpose(&b)), 1e-2));
    }

    #[test]
    fn matmul_parallel_bit_identical_to_serial() {
        let (m, k, n) = SHARDED;
        let (a, b) = (big(m, k, 5), big(k, n, 6));
        inline_and_sharded(m, m * k * n, || matmul(&a, &b));
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let c = alloc(&[2, 2], |o| add_row_broadcast_into(&a, &b, o));
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(alloc(&[2], |o| sum_rows_into(&a, o)).data(), &[4.0, 6.0]);
    }

    #[test]
    fn log_softmax_rows_is_normalized() {
        let a = t(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let ls = alloc(&[2, 3], |o| log_softmax_rows_into(&a, o));
        for i in 0..2 {
            let z: f32 = ls.row(i).iter().map(|&v| v.exp()).sum();
            // f32 resolution near 1000 limits accuracy on the huge-logit row.
            assert!((z - 1.0).abs() < 1e-3, "row {i} sums to {z}");
        }
        // Huge logits do not produce NaN.
        assert!(ls.all_finite());
    }

    /// `slice_cols_into` copies a column range; two slices that split the
    /// columns concatenate back to the input.
    #[test]
    fn concat_and_slice() {
        let h = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 4]);
        let s = alloc(&[2, 2], |o| slice_cols_into(&h, 1, 2, o));
        assert_eq!(s.data(), &[2.0, 3.0, 6.0, 7.0]);
        let left = alloc(&[2, 1], |o| slice_cols_into(&h, 0, 1, o));
        let right = alloc(&[2, 3], |o| slice_cols_into(&h, 1, 3, o));
        let concat: Vec<f32> = (0..2)
            .flat_map(|i| [left.row(i), right.row(i)].concat())
            .collect();
        assert_eq!(concat, h.data());
    }

    #[test]
    fn scale_rows_multiplies_each_row() {
        let a = t(&[1.0, 1.0, 2.0, 2.0], &[2, 2]);
        let s = alloc(&[2, 2], |o| scale_rows_into(&a, &[2.0, 0.5], o));
        assert_eq!(s.data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    // ---- bitwise regressions: block-copy kernels vs. the per-element
    // index loops they replaced ----

    #[test]
    fn row_copy_kernels_bitwise_match_index_loop_reference() {
        let a = big(13, 7, 11);

        // slice_cols reference.
        let fast = alloc(&[13, 4], |o| slice_cols_into(&a, 2, 4, o));
        let mut reference = vec![0.0f32; 13 * 4];
        for i in 0..13 {
            for j in 0..4 {
                reference[i * 4 + j] = a.at2(i, 2 + j);
            }
        }
        assert_eq!(bits(&fast), reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn broadcast_and_scale_rows_bitwise_match_index_loop_reference() {
        let a = big(17, 9, 21);
        let bias = Tensor::from_vec((0..9).map(|i| i as f32 * 0.37 - 1.1).collect(), &[9]).unwrap();
        let fast = alloc(&[17, 9], |o| add_row_broadcast_into(&a, &bias, o));
        let mut reference = a.data().to_vec();
        for i in 0..17 {
            for j in 0..9 {
                reference[i * 9 + j] += bias.at(j);
            }
        }
        assert_eq!(bits(&fast), reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        let scalars: Vec<f32> = (0..17).map(|i| i as f32 * 0.21 - 1.6).collect();
        let fast = alloc(&[17, 9], |o| scale_rows_into(&a, &scalars, o));
        let mut reference = a.data().to_vec();
        for (i, &s) in scalars.iter().enumerate() {
            for v in &mut reference[i * 9..(i + 1) * 9] {
                *v *= s;
            }
        }
        assert_eq!(bits(&fast), reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    /// The `_into` kernels that overwrite `out` give the same bits over a
    /// dirty buffer as the allocating forms (over a zeroed one).
    #[test]
    fn into_variants_bitwise_match_allocating_variants() {
        let a = big(19, 11, 31);
        let c = big(19, 13, 33);
        let mut out = vec![f32::NAN; 11 * 13];
        matmul_at_b_into(&a, &c, &mut out);
        assert_eq!(
            bits(&matmul_at_b(&a, &c)),
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let d = big(7, 11, 34);
        let mut out = vec![f32::NAN; 19 * 7];
        matmul_a_bt_into(&a, &d, &mut out);
        assert_eq!(
            bits(&matmul_a_bt(&a, &d)),
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut out = vec![f32::NAN; a.len()];
        log_softmax_rows_into(&a, &mut out);
        let zeroed = alloc(&[19, 11], |o| log_softmax_rows_into(&a, o));
        assert_eq!(bits(&zeroed), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        let mut out = vec![f32::NAN; 11];
        sum_rows_into(&a, &mut out);
        let zeroed = alloc(&[11], |o| sum_rows_into(&a, o));
        assert_eq!(bits(&zeroed), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    /// Adam updates are elementwise with identically-rounded ops at every
    /// lane width, so value/m/v must match scalar bit-for-bit — across
    /// lengths that exercise full vectors, tails, and the empty slab.
    #[test]
    fn adam_step_bit_identical_across_backends() {
        for len in [0usize, 1, 7, 16, 33, 1000] {
            let grad: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
            let run = |backend| {
                with_backend(backend, || {
                    let mut value: Vec<f32> =
                        (0..len).map(|i| ((i as f32) * 0.11).cos()).collect();
                    let mut m = vec![0.01f32; len];
                    let mut v = vec![0.02f32; len];
                    for t in 1..=3i32 {
                        adam_step(
                            &mut value,
                            &grad,
                            &mut m,
                            &mut v,
                            AdamCoeffs {
                                lr: 0.01,
                                beta1: 0.9,
                                beta2: 0.999,
                                eps: 1e-8,
                                bias1: 1.0 - 0.9f32.powi(t),
                                bias2: 1.0 - 0.999f32.powi(t),
                            },
                        );
                    }
                    (bits2(&value), bits2(&m), bits2(&v))
                })
            };
            assert_eq!(
                run(crate::Backend::Scalar),
                run(crate::Backend::Simd),
                "adam_step diverged at len {len}"
            );
        }
    }

    fn bits2(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A dense grid of [−20, 20] (step 2⁻¹², every point exact in f32)
    /// followed by the edge of the subnormal range on both sides.
    fn activation_grid() -> impl Iterator<Item = f32> {
        let dense = (-(20 << 12)..=(20 << 12)).map(|k| k as f32 / 4096.0);
        let tiny = [1e-45f32, 1e-42, 1e-39, f32::MIN_POSITIVE, 1e-30];
        dense.chain(tiny).chain(tiny.map(|v| -v))
    }

    /// The shared transcendentals against an f64 reference: accuracy, exact
    /// oddness, range, saturation and NaN propagation.
    #[test]
    fn tanh_and_sigmoid_track_the_f64_reference() {
        let (mut worst_tanh, mut worst_sigmoid) = (0.0f64, 0.0f64);
        for x in activation_grid() {
            let (t, s) = (tanh(x), sigmoid(x));
            let xd = f64::from(x);
            worst_tanh = worst_tanh.max((f64::from(t) - xd.tanh()).abs());
            worst_sigmoid = worst_sigmoid.max((f64::from(s) - 1.0 / (1.0 + (-xd).exp())).abs());
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh is not odd at {x}");
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
        }
        assert!(worst_tanh <= 5e-7, "tanh off by {worst_tanh:e}");
        assert!(worst_sigmoid <= 5e-7, "sigmoid off by {worst_sigmoid:e}");
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(sigmoid(0.0), 0.5);
        for big in [TANH_CLAMP, 9.0, 20.0, 1e30, f32::INFINITY] {
            assert_eq!((tanh(big), tanh(-big)), (1.0, -1.0), "tanh(±{big})");
            assert_eq!((sigmoid(2.0 * big), sigmoid(-2.0 * big)), (1.0, 0.0), "sigmoid(±{big})");
        }
        assert!(tanh(f32::NAN).is_nan() && sigmoid(f32::NAN).is_nan());
    }

    /// Monotone wherever the function moves by more than the rational's
    /// rounding noise between neighbouring grid points: every step of 2⁻⁵
    /// across [−6, 6]. (Beyond, values sit within 5e-7 of ±1 and may
    /// trade places by a few ulps — see [`tanh`].)
    #[test]
    fn tanh_and_sigmoid_are_monotone_on_a_grid() {
        let grid: Vec<f32> = (-6 * 32..=6 * 32).map(|k| k as f32 / 32.0).collect();
        for pair in grid.windows(2) {
            assert!(tanh(pair[0]) < tanh(pair[1]), "tanh falls at {}", pair[1]);
            assert!(sigmoid(2.0 * pair[0]) < sigmoid(2.0 * pair[1]), "sigmoid falls at {}", pair[1]);
        }
    }

    /// The slice forms run the element function at whatever lane width
    /// the backend picks — full vectors, tails and the empty slice — and
    /// return its bits.
    #[test]
    fn activation_slices_match_the_element_function_on_both_backends() {
        for len in [0usize, 1, 7, 16, 33, 1000] {
            let a = Tensor::from_vec(
                (0..len).map(|i| ((i as f32) * 0.37).sin() * 9.0).collect(),
                &[len],
            )
            .unwrap();
            let want_tanh: Vec<f32> = a.data().iter().map(|&x| tanh(x)).collect();
            let want_sigmoid: Vec<f32> = a.data().iter().map(|&x| sigmoid(x)).collect();
            for backend in [Backend::Scalar, Backend::Simd] {
                with_backend(backend, || {
                    let mut out = vec![f32::NAN; len];
                    tanh_into(&a, &mut out);
                    assert_eq!(bits2(&out), bits2(&want_tanh), "tanh {backend} len {len}");
                    sigmoid_into(&a, &mut out);
                    assert_eq!(bits2(&out), bits2(&want_sigmoid), "sigmoid {backend} len {len}");
                });
            }
        }
    }
}
