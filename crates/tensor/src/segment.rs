//! Row gather/scatter and segment reductions.
//!
//! These are the irregular kernels that make graph aggregation expressible:
//! an edge list `(src, dst)` turns into `gather_rows` over source features
//! followed by a segment reduction keyed by destination id. Each kernel here
//! has a well-defined adjoint used by the autograd layer.

use crate::backend::Backend;
use crate::Tensor;

/// Pre-pass bounds check: panics on the first out-of-range index with the
/// same message the per-row asserts used to produce, so the copy/accumulate
/// loops that follow can run branch-light.
#[inline]
fn check_gather_ids(indices: &[usize], rows: usize) {
    if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
        panic!("gather index {bad} out of bounds for {rows} rows");
    }
}

/// Pre-pass bounds check for scatter destinations (same message as the old
/// in-loop assert).
#[inline]
fn check_scatter_ids(indices: &[usize], rows: usize) {
    if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
        panic!("scatter index {bad} out of bounds for {rows} rows");
    }
}

/// Pre-pass bounds check for segment ids (same message as the in-loop
/// asserts).
#[inline]
/// Validates gather and segment ids in one fused pass (a running max per
/// slice) and reports whether `segment_ids` is non-decreasing — the CSR
/// destination-major layout the sharded loops exploit. The cold failure
/// paths re-scan to name the offending index. The scan itself runs under
/// [`lane_dispatch`]: the x86-64 baseline has no unsigned-64 max
/// instruction, so wide lanes turn a branchy loop into `vpmaxuq` streams.
fn check_edge_ids(
    gather_ids: &[usize],
    segment_ids: &[usize],
    rows: usize,
    n_segments: usize,
) -> bool {
    let mut scan = EdgeIdScan::default();
    edge_id_scan_dispatch(gather_ids, segment_ids, &mut scan);
    if scan.max_g >= rows && !gather_ids.is_empty() {
        check_gather_ids(gather_ids, rows);
    }
    if scan.max_s >= n_segments && !segment_ids.is_empty() {
        check_segment_ids(segment_ids, n_segments);
    }
    scan.sorted
}

/// Result of the fused id scan: running maxima plus segment-id sortedness.
struct EdgeIdScan {
    max_g: usize,
    max_s: usize,
    sorted: bool,
}

impl Default for EdgeIdScan {
    fn default() -> Self {
        EdgeIdScan { max_g: 0, max_s: 0, sorted: true }
    }
}

/// Hot loop of [`check_edge_ids`].
#[inline(always)]
fn edge_id_scan(gather_ids: &[usize], segment_ids: &[usize], scan: &mut EdgeIdScan) {
    let (mut max_g, mut max_s) = (0usize, 0usize);
    let mut sorted = true;
    let mut prev = 0usize;
    for (&g, &s) in gather_ids.iter().zip(segment_ids) {
        max_g = max_g.max(g);
        max_s = max_s.max(s);
        sorted &= prev <= s;
        prev = s;
    }
    scan.max_g = max_g;
    scan.max_s = max_s;
    scan.sorted = sorted;
}

fn check_segment_ids(segment_ids: &[usize], n_segments: usize) {
    if let Some(&bad) = segment_ids.iter().find(|&&s| s >= n_segments) {
        panic!("segment id {bad} >= {n_segments}");
    }
}

/// Gathers rows of `src` at `indices` into a new `[indices.len(), D]` tensor.
///
/// # Panics
///
/// Panics if `src` is not rank 2 or any index is out of bounds.
pub fn gather_rows(src: &Tensor, indices: &[usize]) -> Tensor {
    let cols = src.cols();
    let mut data = vec![0.0f32; indices.len() * cols];
    gather_rows_into(src, indices, &mut data);
    Tensor::from_vec(data, &[indices.len(), cols]).expect("gather output shape")
}

/// [`gather_rows`] writing into `out` (fully overwritten, row by row with
/// `copy_from_slice`).
///
/// # Panics
///
/// Panics if an index is out of bounds or `out` has the wrong length.
pub fn gather_rows_into(src: &Tensor, indices: &[usize], out: &mut [f32]) {
    let (rows, cols) = (src.rows(), src.cols());
    assert_eq!(out.len(), indices.len() * cols, "gather output length mismatch");
    if cols == 0 {
        return;
    }
    // One pre-pass over the (cache-resident) index slice instead of a
    // bounds assert per copied row.
    check_gather_ids(indices, rows);
    let sdata = src.data();
    for (orow, &i) in out.chunks_mut(cols).zip(indices) {
        orow.copy_from_slice(&sdata[i * cols..(i + 1) * cols]);
    }
}

/// Adds row `r` of `values` into row `indices[r]` of `out`.
///
/// The adjoint of [`gather_rows`]: scattering gradients back to the gathered
/// source rows. Repeated indices accumulate.
///
/// # Panics
///
/// Panics if shapes disagree or any index is out of bounds.
pub fn scatter_add_rows(out: &mut Tensor, values: &Tensor, indices: &[usize]) {
    let cols = out.cols();
    assert_eq!(values.cols(), cols, "scatter column mismatch");
    assert_eq!(values.rows(), indices.len(), "one index per value row");
    let n = out.rows();
    if cols == 0 {
        return;
    }
    // Hoisted pre-pass (see `gather_rows_into`): the accumulate loop adds
    // in exactly the same row order, so output bits are unchanged.
    check_scatter_ids(indices, n);
    let vdata = values.data();
    let odata = out.data_mut();
    for (vrow, &i) in vdata.chunks(cols).zip(indices) {
        for (o, &v) in odata[i * cols..(i + 1) * cols].iter_mut().zip(vrow) {
            *o += v;
        }
    }
}

/// Places row `r` of `values` into row `indices[r]` of a fresh
/// `[n_rows, D]` zero tensor (later writes overwrite earlier ones).
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn scatter_rows(values: &Tensor, indices: &[usize], n_rows: usize) -> Tensor {
    let cols = values.cols();
    let mut out = Tensor::zeros(&[n_rows, cols]);
    scatter_rows_into(values, indices, out.data_mut());
    out
}

/// [`scatter_rows`] writing into `out`, which must be zero-filled
/// `[n_rows * cols]` (rows not referenced are left untouched).
///
/// # Panics
///
/// Panics if an index is out of bounds or lengths disagree.
pub fn scatter_rows_into(values: &Tensor, indices: &[usize], out: &mut [f32]) {
    let cols = values.cols();
    assert_eq!(values.rows(), indices.len(), "one index per value row");
    assert_eq!(out.len() % cols.max(1), 0, "scatter output length mismatch");
    let n_rows = out.len().checked_div(cols).unwrap_or(0);
    for (r, &i) in indices.iter().enumerate() {
        assert!(i < n_rows, "scatter index {i} out of bounds for {n_rows} rows");
        out[i * cols..(i + 1) * cols].copy_from_slice(values.row(r));
    }
}

/// Sums rows of `values` into `n_segments` buckets keyed by `segment_ids`.
///
/// `values` is `[E, D]`, `segment_ids` has length `E`; output is
/// `[n_segments, D]`. Segments with no member are zero.
///
/// # Panics
///
/// Panics if a segment id is `>= n_segments` or lengths disagree.
pub fn segment_sum(values: &Tensor, segment_ids: &[usize], n_segments: usize) -> Tensor {
    let mut out = Tensor::zeros(&[n_segments, values.cols()]);
    segment_sum_into(values, segment_ids, out.data_mut());
    out
}

/// [`segment_sum`] accumulating into `out`, which must be zero-filled
/// `[n_segments * cols]`.
///
/// # Panics
///
/// Panics if a segment id is out of bounds or lengths disagree.
pub fn segment_sum_into(values: &Tensor, segment_ids: &[usize], out: &mut [f32]) {
    let cols = values.cols();
    assert_eq!(values.rows(), segment_ids.len(), "one segment id per row");
    if cols == 0 {
        return;
    }
    let n_segments = out.len() / cols;
    assert_eq!(out.len(), n_segments * cols, "segment_sum output length mismatch");
    for (vrow, &s) in values.data().chunks(cols).zip(segment_ids) {
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        for (o, &v) in out[s * cols..(s + 1) * cols].iter_mut().zip(vrow) {
            *o += v;
        }
    }
}

/// Per-segment mean; empty segments produce zero rows.
///
/// Returns the mean tensor together with the per-segment counts (needed by
/// the backward pass).
pub fn segment_mean(
    values: &Tensor,
    segment_ids: &[usize],
    n_segments: usize,
) -> (Tensor, Vec<usize>) {
    let mut out = Tensor::zeros(&[n_segments, values.cols()]);
    let counts = segment_mean_into(values, segment_ids, out.data_mut());
    (out, counts)
}

/// [`segment_mean`] accumulating into `out`, which must be zero-filled
/// `[n_segments * cols]`; returns the per-segment counts.
///
/// # Panics
///
/// Panics if a segment id is out of bounds or lengths disagree.
pub fn segment_mean_into(values: &Tensor, segment_ids: &[usize], out: &mut [f32]) -> Vec<usize> {
    let mut counts = Vec::new();
    segment_mean_into_reusing(values, segment_ids, out, &mut counts);
    counts
}

/// [`segment_mean_into`] writing the per-segment counts into a
/// caller-provided buffer (cleared and refilled), so a recycled buffer
/// makes the op allocation-free — same pattern as
/// [`segment_max_into_reusing`].
///
/// # Panics
///
/// Panics if a segment id is out of bounds or lengths disagree.
pub fn segment_mean_into_reusing(
    values: &Tensor,
    segment_ids: &[usize],
    out: &mut [f32],
    counts: &mut Vec<usize>,
) {
    let cols = values.cols();
    let n_segments = out.len().checked_div(cols).unwrap_or(0);
    counts.clear();
    counts.resize(n_segments, 0);
    for &s in segment_ids {
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        counts[s] += 1;
    }
    segment_sum_into(values, segment_ids, out);
    for (s, &cnt) in counts.iter().enumerate() {
        if cnt > 1 {
            let inv = 1.0 / cnt as f32;
            for v in &mut out[s * cols..(s + 1) * cols] {
                *v *= inv;
            }
        }
    }
}

/// Per-segment elementwise max.
///
/// Returns the max tensor (empty segments are zero) and, per output cell, the
/// index of the winning input row (`usize::MAX` for empty segments) — the
/// state the backward pass routes gradients through.
pub fn segment_max(
    values: &Tensor,
    segment_ids: &[usize],
    n_segments: usize,
) -> (Tensor, Vec<usize>) {
    let cols = values.cols();
    let mut out = Tensor::zeros(&[n_segments, cols]);
    let argmax = segment_max_into(values, segment_ids, out.data_mut());
    (out, argmax)
}

/// [`segment_max`] writing into `out` (fully overwritten — the kernel
/// seeds every cell with `-∞` first); returns the per-cell argmax.
///
/// # Panics
///
/// Panics if a segment id is out of bounds or lengths disagree.
pub fn segment_max_into(values: &Tensor, segment_ids: &[usize], out: &mut [f32]) -> Vec<usize> {
    let mut argmax = Vec::new();
    segment_max_into_reusing(values, segment_ids, out, &mut argmax);
    argmax
}

/// [`segment_max_into`] writing the argmax into a caller-provided buffer
/// (cleared and refilled), so a recycled buffer makes the op allocation-free.
///
/// # Panics
///
/// Panics if a segment id is out of bounds or lengths disagree.
pub fn segment_max_into_reusing(
    values: &Tensor,
    segment_ids: &[usize],
    out: &mut [f32],
    argmax: &mut Vec<usize>,
) {
    let cols = values.cols();
    assert_eq!(values.rows(), segment_ids.len(), "one segment id per row");
    let n_segments = out.len().checked_div(cols).unwrap_or(0);
    assert_eq!(out.len(), n_segments * cols, "segment_max output length mismatch");
    out.fill(f32::NEG_INFINITY);
    argmax.clear();
    argmax.resize(n_segments * cols, usize::MAX);
    for (r, &s) in segment_ids.iter().enumerate() {
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        let row = values.row(r);
        for c in 0..cols {
            if row[c] > out[s * cols + c] {
                out[s * cols + c] = row[c];
                argmax[s * cols + c] = r;
            }
        }
    }
    for v in out.iter_mut() {
        if *v == f32::NEG_INFINITY {
            *v = 0.0;
        }
    }
}

/// What one gathered element costs in the multiply-adds
/// [`betty_runtime::Shards::for_work`] counts: the fused kernels stream
/// rows at random from memory (1.5–3 G elements/s where a dense product
/// retires 35–50 G multiply-adds/s), but every shard re-scans the whole
/// edge list, so a split halves less than the whole call. Measured with
/// the probe of DESIGN.md "The fork-join seam and its gate" (2 threads
/// against 1, `[n·deg]` edges × `cols`): 10 M elements 1.05×, 40 M
/// 1.02× / 0.67×, 160 M 0.64× — two shards pay from about 33 M elements,
/// a quarter of the dense products' 134 M.
const GATHERED_ELEMENT_WORK: usize = 4;

/// Runs `body(out_chunk, owned_range)` for the simd fused kernels, once
/// per contiguous output-row shard [`betty_runtime::Shards`] grants the
/// call's `edges × cols` gathered elements. Every worker scans the full
/// edge list but touches only rows it owns, so per-element additions
/// happen in edge order no matter the thread count: bit-identical output,
/// no atomics.
fn fused_forward_sharded(
    out: &mut [f32],
    n_rows: usize,
    cols: usize,
    edges: usize,
    body: &(dyn Fn(&mut [f32], std::ops::Range<usize>) + Sync),
) {
    betty_runtime::Shards::for_work(n_rows, GATHERED_ELEMENT_WORK * edges * cols)
        .run(out, cols, &mut [], |range, chunk, _| body(chunk, range));
}

/// Generates `<name>_dispatch`, which runs `<name>` recompiled for the
/// widest SIMD lane set the CPU offers. The body is the identical safe
/// loop in every case — rustc does not contract `a*b + c` into fused
/// multiply-adds, so lane width changes throughput, never rounding —
/// which keeps simd output bit-identical to scalar. Each kernel gets its
/// own named `#[target_feature]` wrapper (not a generic closure
/// trampoline: closure environments block the optimizer from fully
/// vectorizing inside the feature context, measured ~1.5× slower).
macro_rules! lane_dispatch {
    ($dispatch:ident, $avx512:ident, $avx2:ident, $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)] // inherits the kernel signature
        fn $avx512($($arg: $ty),*) {
            $body($($arg),*);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)] // inherits the kernel signature
        fn $avx2($($arg: $ty),*) {
            $body($($arg),*);
        }

        #[allow(clippy::too_many_arguments)] // inherits the kernel signature
        fn $dispatch($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the feature check guarantees the
                    // instructions exist; the wrapper runs ordinary safe
                    // code.
                    unsafe { $avx512($($arg),*) };
                    return;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: as above.
                    unsafe { $avx2($($arg),*) };
                    return;
                }
            }
            $body($($arg),*);
        }
    };
}
pub(crate) use lane_dispatch;

lane_dispatch!(
    edge_id_scan_dispatch,
    edge_id_scan_avx512,
    edge_id_scan_avx2,
    edge_id_scan(gather_ids: &[usize], segment_ids: &[usize], scan: &mut EdgeIdScan)
);

/// Chunk widths (in floats) the run-length fused loops hold in registers:
/// 8 zmm under AVX-512 for wide rows, stepping down to 4 zmm so rows of at
/// least 64 columns still get register accumulation.
const RUN_ACC_WIDE: usize = 128;
/// Narrow chunk width; see [`RUN_ACC_WIDE`].
const RUN_ACC_NARROW: usize = 64;

/// Source-matrix size (bytes) up to which the column-chunked run loop is
/// used even for wide rows. Chunking re-walks each run once per chunk;
/// when the source no longer fits the fast cache levels those strided
/// re-walks cost more than they save, so wider large sources switch to
/// the streaming full-row loop.
const RUN_CHUNK_SRC_BYTES: usize = 2 << 20;

/// How many edges ahead the fused loops prefetch the gathered source row.
/// Gathers are random-access; a short prefetch pipeline hides most of the
/// cache/DRAM latency without flooding the fill buffers.
const PREFETCH_EDGE_DIST: usize = 12;

/// Prefetches `floats` floats (whole cache lines, at most 8) starting
/// `offset` floats into `data`. Uses `wrapping_add` so a tail row shorter
/// than the prefetch window stays sound: prefetch never faults and stray
/// lines are harmless.
#[inline(always)]
fn prefetch_row(data: &[f32], offset: usize, floats: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let lines = floats.div_ceil(16).min(8);
        for l in 0..lines {
            // SAFETY: prefetch is a hint; it cannot fault, and
            // `wrapping_add` keeps the pointer arithmetic defined even
            // when the window runs past the slice.
            unsafe {
                _mm_prefetch(data.as_ptr().wrapping_add(offset + l * 16).cast(), _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, offset, floats);
    }
}

/// One register-accumulated column chunk of a run: loads `out_row[c..c+W]`
/// once, adds every gathered row slice in edge order, stores once.
/// `weights` scales each edge's contribution (`None` for the plain sum);
/// the multiply happens before the add in both backends, so rounding
/// matches scalar exactly.
#[inline(always)]
fn run_chunk_accum<const W: usize>(
    sdata: &[f32],
    run: &[usize],
    run_weights: Option<&[f32]>,
    out_row: &mut [f32],
    c: usize,
    cols: usize,
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&out_row[c..c + W]);
    for (j, &g) in run.iter().enumerate() {
        if j + PREFETCH_EDGE_DIST < run.len() {
            prefetch_row(sdata, run[j + PREFETCH_EDGE_DIST] * cols + c, W);
        }
        let src: &[f32; W] =
            sdata[g * cols + c..g * cols + c + W].try_into().expect("chunk width");
        match run_weights {
            None => {
                for i in 0..W {
                    acc[i] += src[i];
                }
            }
            Some(ws) => {
                let w = ws[j];
                for i in 0..W {
                    acc[i] += w * src[i];
                }
            }
        }
    }
    out_row[c..c + W].copy_from_slice(&acc);
}

/// Shared body of the simd fused (weighted) sum over one owned segment
/// range.
///
/// Blocks sampled from CSR adjacency emit `segment_ids` in non-decreasing
/// destination order (see `edge_dst_locals_non_decreasing` in
/// `betty-graph`), so equal ids arrive in runs. Two strategies, chosen by
/// source size:
///
/// * **run-chunked** (narrow rows, or source within
///   [`RUN_CHUNK_SRC_BYTES`]): the output row is held in registers across
///   each run, [`RUN_ACC_WIDE`]/[`RUN_ACC_NARROW`] columns at a time —
///   memory traffic per element drops from load+load+store to one
///   streaming load.
/// * **full-row** (large wide sources): per-edge sequential row adds so
///   the hardware prefetcher sees whole-row streams, with software
///   prefetch of upcoming gather rows hiding the random-access latency.
///
/// Additions per output element follow edge order in both — the scalar
/// order — so output is bit-identical to the scalar backend.
#[allow(clippy::too_many_arguments)] // flat slices: one arg per kernel operand
#[inline(always)]
fn fused_accum_range(
    sdata: &[f32],
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: Option<&[f32]>,
    sorted: bool,
    out: &mut [f32],
    seg_range: std::ops::Range<usize>,
    cols: usize,
) {
    // CSR-sorted segment ids let each worker binary-search the edge span
    // covering its owned rows instead of scanning the full edge list —
    // total sharded work stays at one pass over the edges.
    let (gather_ids, segment_ids, weights) = if sorted {
        let lo = segment_ids.partition_point(|&s| s < seg_range.start);
        let hi = segment_ids.partition_point(|&s| s < seg_range.end);
        (
            &gather_ids[lo..hi],
            &segment_ids[lo..hi],
            weights.map(|ws| &ws[lo..hi]),
        )
    } else {
        (gather_ids, segment_ids, weights)
    };
    let n_edges = gather_ids.len();
    if cols > RUN_ACC_WIDE && sdata.len() * 4 > RUN_CHUNK_SRC_BYTES {
        for e in 0..n_edges {
            let s = segment_ids[e];
            if s < seg_range.start || s >= seg_range.end {
                continue;
            }
            if e + PREFETCH_EDGE_DIST < n_edges {
                let f = e + PREFETCH_EDGE_DIST;
                let fs = segment_ids[f];
                if fs >= seg_range.start && fs < seg_range.end {
                    prefetch_row(sdata, gather_ids[f] * cols, cols);
                }
            }
            let local = s - seg_range.start;
            let g = gather_ids[e];
            let src_row = &sdata[g * cols..(g + 1) * cols];
            let out_row = &mut out[local * cols..(local + 1) * cols];
            match weights {
                None => {
                    for (o, &v) in out_row.iter_mut().zip(src_row) {
                        *o += v;
                    }
                }
                Some(ws) => {
                    let w = ws[e];
                    for (o, &v) in out_row.iter_mut().zip(src_row) {
                        *o += w * v;
                    }
                }
            }
        }
        return;
    }
    let mut e = 0;
    while e < n_edges {
        let s = segment_ids[e];
        let mut end = e + 1;
        while end < n_edges && segment_ids[end] == s {
            end += 1;
        }
        if s < seg_range.start || s >= seg_range.end {
            e = end;
            continue;
        }
        let local = s - seg_range.start;
        let out_row = &mut out[local * cols..(local + 1) * cols];
        let run = &gather_ids[e..end];
        let run_weights = weights.map(|ws| &ws[e..end]);
        let mut c = 0;
        while c + RUN_ACC_WIDE <= cols {
            run_chunk_accum::<RUN_ACC_WIDE>(sdata, run, run_weights, out_row, c, cols);
            c += RUN_ACC_WIDE;
        }
        while c + RUN_ACC_NARROW <= cols {
            run_chunk_accum::<RUN_ACC_NARROW>(sdata, run, run_weights, out_row, c, cols);
            c += RUN_ACC_NARROW;
        }
        if c < cols {
            for (j, &g) in run.iter().enumerate() {
                let src_row = &sdata[g * cols + c..(g + 1) * cols];
                match run_weights {
                    None => {
                        for (o, &v) in out_row[c..].iter_mut().zip(src_row) {
                            *o += v;
                        }
                    }
                    Some(ws) => {
                        let w = ws[j];
                        for (o, &v) in out_row[c..].iter_mut().zip(src_row) {
                            *o += w * v;
                        }
                    }
                }
            }
        }
        e = end;
    }
}

lane_dispatch!(
    fused_accum_dispatch,
    fused_accum_range_avx512,
    fused_accum_range_avx2,
    fused_accum_range(
        sdata: &[f32],
        gather_ids: &[usize],
        segment_ids: &[usize],
        weights: Option<&[f32]>,
        sorted: bool,
        out: &mut [f32],
        seg_range: std::ops::Range<usize>,
        cols: usize,
    )
);

/// Edge loop of the simd fused-sum backward over one owned source-row
/// range (ownership keyed by gather id: the row being accumulated into).
#[inline(always)]
fn fused_sum_backward_range(
    gdata: &[f32],
    gather_ids: &[usize],
    segment_ids: &[usize],
    segment_scale: Option<&[f32]>,
    out: &mut [f32],
    src_range: std::ops::Range<usize>,
    cols: usize,
) {
    for (&g, &s) in gather_ids.iter().zip(segment_ids) {
        if g < src_range.start || g >= src_range.end {
            continue;
        }
        let local = g - src_range.start;
        let scale = segment_scale.map_or(1.0, |sc| sc[s]);
        let grad_row = &gdata[s * cols..(s + 1) * cols];
        for (o, &v) in out[local * cols..(local + 1) * cols].iter_mut().zip(grad_row) {
            *o += v * scale;
        }
    }
}

/// Edge loop of the simd weighted fused-sum backward over one owned
/// source-row range.
#[inline(always)]
fn fused_weighted_sum_backward_range(
    gdata: &[f32],
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: &[f32],
    out: &mut [f32],
    src_range: std::ops::Range<usize>,
    cols: usize,
) {
    for ((&g, &s), &w) in gather_ids.iter().zip(segment_ids).zip(weights) {
        if g < src_range.start || g >= src_range.end {
            continue;
        }
        let local = g - src_range.start;
        let grad_row = &gdata[s * cols..(s + 1) * cols];
        for (o, &v) in out[local * cols..(local + 1) * cols].iter_mut().zip(grad_row) {
            *o += w * v;
        }
    }
}

lane_dispatch!(
    fused_sum_backward_dispatch,
    fused_sum_backward_range_avx512,
    fused_sum_backward_range_avx2,
    fused_sum_backward_range(
        gdata: &[f32],
        gather_ids: &[usize],
        segment_ids: &[usize],
        segment_scale: Option<&[f32]>,
        out: &mut [f32],
        src_range: std::ops::Range<usize>,
        cols: usize,
    )
);

lane_dispatch!(
    fused_weighted_sum_backward_dispatch,
    fused_weighted_sum_backward_range_avx512,
    fused_weighted_sum_backward_range_avx2,
    fused_weighted_sum_backward_range(
        gdata: &[f32],
        gather_ids: &[usize],
        segment_ids: &[usize],
        weights: &[f32],
        out: &mut [f32],
        src_range: std::ops::Range<usize>,
        cols: usize,
    )
);

/// Fused gather + segment-sum: `out[seg_ids[e]] += src[gather_ids[e]]`
/// without materializing the `[E, D]` message tensor (the moral equivalent
/// of DGL's fused message-passing kernels).
///
/// # Panics
///
/// Panics if index slices disagree in length or contain out-of-bounds ids.
pub fn fused_gather_segment_sum(
    src: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    n_segments: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[n_segments, src.cols()]);
    fused_gather_segment_sum_into(src, gather_ids, segment_ids, out.data_mut());
    out
}

/// [`fused_gather_segment_sum`] accumulating into `out`, which must be
/// zero-filled `[n_segments * cols]`.
///
/// # Panics
///
/// Panics if index slices disagree in length or contain out-of-bounds ids.
pub fn fused_gather_segment_sum_into(
    src: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    out: &mut [f32],
) {
    assert_eq!(gather_ids.len(), segment_ids.len(), "one segment per edge");
    let (rows, cols) = (src.rows(), src.cols());
    if cols == 0 {
        return;
    }
    let n_segments = out.len() / cols;
    assert_eq!(out.len(), n_segments * cols, "fused sum output length mismatch");
    let sdata = src.data();
    if Backend::current() == Backend::Simd {
        let sorted = check_edge_ids(gather_ids, segment_ids, rows, n_segments);
        fused_forward_sharded(out, n_segments, cols, gather_ids.len(), &|out_chunk, range| {
            fused_accum_dispatch(
                sdata,
                gather_ids,
                segment_ids,
                None,
                sorted,
                out_chunk,
                range,
                cols,
            );
        });
        return;
    }
    for (&g, &s) in gather_ids.iter().zip(segment_ids) {
        assert!(g < rows, "gather index {g} out of bounds for {rows} rows");
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        let src_row = &sdata[g * cols..(g + 1) * cols];
        for (o, &v) in out[s * cols..(s + 1) * cols].iter_mut().zip(src_row) {
            *o += v;
        }
    }
}

/// Adjoint of [`fused_gather_segment_sum`] (optionally degree-normalized):
/// scatters `grad[seg_ids[e]] * scale[seg_ids[e]]` back into the source
/// rows, again with no `[E, D]` intermediate.
///
/// # Panics
///
/// Panics if slices disagree in length or ids are out of bounds.
pub fn fused_gather_segment_sum_backward(
    grad: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    segment_scale: Option<&[f32]>,
    n_src_rows: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[n_src_rows, grad.cols()]);
    fused_gather_segment_sum_backward_into(grad, gather_ids, segment_ids, segment_scale, out.data_mut());
    out
}

/// [`fused_gather_segment_sum_backward`] accumulating into `out`, which
/// must be zero-filled `[n_src_rows * cols]`.
///
/// # Panics
///
/// Panics if slices disagree in length or ids are out of bounds.
pub fn fused_gather_segment_sum_backward_into(
    grad: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    segment_scale: Option<&[f32]>,
    out: &mut [f32],
) {
    assert_eq!(gather_ids.len(), segment_ids.len(), "one segment per edge");
    let cols = grad.cols();
    if cols == 0 {
        return;
    }
    let n_src_rows = out.len() / cols;
    assert_eq!(out.len(), n_src_rows * cols, "fused backward output length mismatch");
    let gdata = grad.data();
    if Backend::current() == Backend::Simd {
        if let Some(&bad) = gather_ids.iter().find(|&&g| g >= n_src_rows) {
            panic!("gather index {bad} out of bounds");
        }
        fused_forward_sharded(out, n_src_rows, cols, gather_ids.len(), &|out_chunk, range| {
            fused_sum_backward_dispatch(
                gdata,
                gather_ids,
                segment_ids,
                segment_scale,
                out_chunk,
                range,
                cols,
            );
        });
        return;
    }
    for (&g, &s) in gather_ids.iter().zip(segment_ids) {
        assert!(g < n_src_rows, "gather index {g} out of bounds");
        let scale = segment_scale.map_or(1.0, |sc| sc[s]);
        let grad_row = &gdata[s * cols..(s + 1) * cols];
        for (o, &v) in out[g * cols..(g + 1) * cols].iter_mut().zip(grad_row) {
            *o += v * scale;
        }
    }
}

/// Weighted fused gather + segment-sum:
/// `out[seg_ids[e]] += weights[e] · src[gather_ids[e]]`, with no `[E, D]`
/// intermediate (the kernel behind normalized aggregations such as GCN).
///
/// # Panics
///
/// Panics if slice lengths disagree or ids are out of bounds.
pub fn fused_gather_segment_weighted_sum(
    src: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: &[f32],
    n_segments: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[n_segments, src.cols()]);
    fused_gather_segment_weighted_sum_into(src, gather_ids, segment_ids, weights, out.data_mut());
    out
}

/// [`fused_gather_segment_weighted_sum`] accumulating into `out`, which
/// must be zero-filled `[n_segments * cols]`.
///
/// # Panics
///
/// Panics if slice lengths disagree or ids are out of bounds.
pub fn fused_gather_segment_weighted_sum_into(
    src: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: &[f32],
    out: &mut [f32],
) {
    assert_eq!(gather_ids.len(), segment_ids.len(), "one segment per edge");
    assert_eq!(gather_ids.len(), weights.len(), "one weight per edge");
    let (rows, cols) = (src.rows(), src.cols());
    if cols == 0 {
        return;
    }
    let n_segments = out.len() / cols;
    assert_eq!(out.len(), n_segments * cols, "weighted sum output length mismatch");
    let sdata = src.data();
    if Backend::current() == Backend::Simd {
        let sorted = check_edge_ids(gather_ids, segment_ids, rows, n_segments);
        fused_forward_sharded(out, n_segments, cols, gather_ids.len(), &|out_chunk, range| {
            fused_accum_dispatch(
                sdata,
                gather_ids,
                segment_ids,
                Some(weights),
                sorted,
                out_chunk,
                range,
                cols,
            );
        });
        return;
    }
    for ((&g, &s), &w) in gather_ids.iter().zip(segment_ids).zip(weights) {
        assert!(g < rows, "gather index {g} out of bounds for {rows} rows");
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        let src_row = &sdata[g * cols..(g + 1) * cols];
        for (o, &v) in out[s * cols..(s + 1) * cols].iter_mut().zip(src_row) {
            *o += w * v;
        }
    }
}

/// Adjoint of [`fused_gather_segment_weighted_sum`]:
/// `d_src[gather_ids[e]] += weights[e] · grad[seg_ids[e]]`.
///
/// # Panics
///
/// Panics if slice lengths disagree or ids are out of bounds.
pub fn fused_gather_segment_weighted_sum_backward(
    grad: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: &[f32],
    n_src_rows: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[n_src_rows, grad.cols()]);
    fused_gather_segment_weighted_sum_backward_into(grad, gather_ids, segment_ids, weights, out.data_mut());
    out
}

/// [`fused_gather_segment_weighted_sum_backward`] accumulating into `out`,
/// which must be zero-filled `[n_src_rows * cols]`.
///
/// # Panics
///
/// Panics if slice lengths disagree or ids are out of bounds.
pub fn fused_gather_segment_weighted_sum_backward_into(
    grad: &Tensor,
    gather_ids: &[usize],
    segment_ids: &[usize],
    weights: &[f32],
    out: &mut [f32],
) {
    assert_eq!(gather_ids.len(), segment_ids.len(), "one segment per edge");
    assert_eq!(gather_ids.len(), weights.len(), "one weight per edge");
    let cols = grad.cols();
    if cols == 0 {
        return;
    }
    let n_src_rows = out.len() / cols;
    assert_eq!(out.len(), n_src_rows * cols, "weighted backward output length mismatch");
    let gdata = grad.data();
    if Backend::current() == Backend::Simd {
        if let Some(&bad) = gather_ids.iter().find(|&&g| g >= n_src_rows) {
            panic!("gather index {bad} out of bounds");
        }
        fused_forward_sharded(out, n_src_rows, cols, gather_ids.len(), &|out_chunk, range| {
            fused_weighted_sum_backward_dispatch(
                gdata,
                gather_ids,
                segment_ids,
                weights,
                out_chunk,
                range,
                cols,
            );
        });
        return;
    }
    for ((&g, &s), &w) in gather_ids.iter().zip(segment_ids).zip(weights) {
        assert!(g < n_src_rows, "gather index {g} out of bounds");
        let grad_row = &gdata[s * cols..(s + 1) * cols];
        for (o, &v) in out[g * cols..(g + 1) * cols].iter_mut().zip(grad_row) {
            *o += w * v;
        }
    }
}

/// Numerically-stable softmax within each segment, applied column-wise.
///
/// For attention: `values` is `[E, H]` of per-edge scores, grouped by
/// destination; each column of each segment is normalized independently.
/// Rows in empty segments are untouched by definition (there are none).
pub fn segment_softmax(values: &Tensor, segment_ids: &[usize], n_segments: usize) -> Tensor {
    let mut out = Tensor::zeros(values.shape());
    segment_softmax_into(values, segment_ids, n_segments, out.data_mut());
    out
}

/// [`segment_softmax`] writing into `out`, which must have `values.len()`
/// elements and is fully overwritten (contents on entry are irrelevant).
///
/// # Panics
///
/// Panics if lengths disagree or ids exceed `n_segments`.
pub fn segment_softmax_into(
    values: &Tensor,
    segment_ids: &[usize],
    n_segments: usize,
    out: &mut [f32],
) {
    let cols = values.cols();
    assert_eq!(values.rows(), segment_ids.len(), "one segment id per row");
    assert_eq!(out.len(), values.len(), "segment_softmax output length mismatch");
    // Pass 1: per-segment max.
    let mut max = vec![f32::NEG_INFINITY; n_segments * cols];
    for (r, &s) in segment_ids.iter().enumerate() {
        assert!(s < n_segments, "segment id {s} >= {n_segments}");
        let row = values.row(r);
        for c in 0..cols {
            if row[c] > max[s * cols + c] {
                max[s * cols + c] = row[c];
            }
        }
    }
    // Pass 2: exp and per-segment sums.
    let mut sums = vec![0.0f32; n_segments * cols];
    for (r, &s) in segment_ids.iter().enumerate() {
        let row = values.row(r);
        for c in 0..cols {
            let e = (row[c] - max[s * cols + c]).exp();
            out[r * cols + c] = e;
            sums[s * cols + c] += e;
        }
    }
    // Pass 3: normalize.
    for (r, &s) in segment_ids.iter().enumerate() {
        for c in 0..cols {
            out[r * cols + c] /= sums[s * cols + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use betty_runtime::{with_threads, MIN_SHARD_WORK};

    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn gather_then_scatter_is_degree_scaling() {
        let src = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let g = gather_rows(&src, &[0, 1, 0]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.row(2), &[1.0, 2.0]);
        let mut out = Tensor::zeros(&[2, 2]);
        scatter_add_rows(&mut out, &g, &[0, 1, 0]);
        // Row 0 gathered twice -> scattered back doubled.
        assert_eq!(out.row(0), &[2.0, 4.0]);
        assert_eq!(out.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn scatter_rows_places_and_zeros() {
        let v = t(&[1.0, 1.0, 2.0, 2.0], &[2, 2]);
        let out = scatter_rows(&v, &[2, 0], 3);
        assert_eq!(out.row(0), &[2.0, 2.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
        assert_eq!(out.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn segment_sum_accumulates() {
        let v = t(&[1.0, 10.0, 2.0, 20.0, 3.0, 30.0], &[3, 2]);
        let s = segment_sum(&v, &[1, 1, 0], 3);
        assert_eq!(s.row(0), &[3.0, 30.0]);
        assert_eq!(s.row(1), &[3.0, 30.0]);
        assert_eq!(s.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn segment_mean_divides_by_count() {
        let v = t(&[2.0, 4.0, 6.0], &[3, 1]);
        let (m, counts) = segment_mean(&v, &[0, 0, 1], 2);
        assert_eq!(m.row(0), &[3.0]);
        assert_eq!(m.row(1), &[6.0]);
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn segment_max_tracks_argmax() {
        let v = t(&[1.0, 5.0, 3.0, 2.0], &[4, 1]);
        let (m, arg) = segment_max(&v, &[0, 0, 1, 1], 3);
        assert_eq!(m.row(0), &[5.0]);
        assert_eq!(m.row(1), &[3.0]);
        assert_eq!(m.row(2), &[0.0]); // empty segment
        assert_eq!(arg[0], 1);
        assert_eq!(arg[1], 2);
        assert_eq!(arg[2], usize::MAX);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let v = t(&[1.0, 2.0, 3.0, 100.0, 101.0], &[5, 1]);
        let sm = segment_softmax(&v, &[0, 0, 0, 1, 1], 2);
        let s0: f32 = (0..3).map(|r| sm.at2(r, 0)).sum();
        let s1: f32 = (3..5).map(|r| sm.at2(r, 0)).sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!(sm.all_finite());
        // Larger score gets larger weight.
        assert!(sm.at2(2, 0) > sm.at2(0, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_bounds_checked() {
        let src = t(&[1.0, 2.0], &[1, 2]);
        gather_rows(&src, &[1]);
    }

    /// The fused simd path (segment-ownership sharding + wide-lane row
    /// adds) must reproduce the scalar edge-order accumulation bit for bit
    /// at every thread count: each output row still sees its additions in
    /// edge order, only the scan is restructured.
    #[test]
    fn fused_kernels_bit_identical_across_backends_and_threads() {
        let shapes = [
            (1usize, 1usize, 1usize, 0usize), // single row, no edges
            (5, 3, 4, 11),
            (17, 8, 9, 64),
            (33, 20, 7, 257),
            (65, 70, 9, 513),  // sorted: wide rows, chunk + tail columns
            (40, 130, 11, 400), // unsorted: crosses RUN_ACC_WIDE
            (4099, 128, 1031, SHARDED_EDGES), // sorted, sharded
            (4098, 128, 1031, SHARDED_EDGES), // unsorted, sharded
        ];
        // The last two shapes take more than one shard at four threads, or
        // every row above compares serial against serial.
        const SHARDED_EDGES: usize = 262_147;
        const { assert!(GATHERED_ELEMENT_WORK * SHARDED_EDGES * 128 >= 2 * MIN_SHARD_WORK) };
        for &(rows, cols, n_segments, n_edges) in &shapes {
            let src = salted(rows, cols, 0.41);
            let grad = salted(n_segments, cols, 2.3);
            let gather_ids: Vec<usize> = (0..n_edges).map(|e| (e * 7 + 3) % rows).collect();
            let mut segment_ids: Vec<usize> =
                (0..n_edges).map(|e| (e * 5 + 1) % n_segments).collect();
            if rows % 2 == 1 {
                // Exercise both the CSR-sorted span-narrowed path (runs of
                // equal ids, binary-searched shards) and the unsorted
                // full-scan path across the shape table.
                segment_ids.sort_unstable();
            }
            let weights: Vec<f32> = (0..n_edges).map(|e| (e as f32 * 0.37).cos()).collect();
            let scale: Vec<f32> = (0..n_segments).map(|s| 1.0 / (s + 1) as f32).collect();
            let kernels = || {
                [
                    fused_gather_segment_sum(&src, &gather_ids, &segment_ids, n_segments),
                    fused_gather_segment_weighted_sum(
                        &src, &gather_ids, &segment_ids, &weights, n_segments,
                    ),
                    fused_gather_segment_sum_backward(&grad, &gather_ids, &segment_ids, None, rows),
                    fused_gather_segment_sum_backward(
                        &grad, &gather_ids, &segment_ids, Some(&scale), rows,
                    ),
                    fused_gather_segment_weighted_sum_backward(
                        &grad, &gather_ids, &segment_ids, &weights, rows,
                    ),
                ]
            };
            // The scalar loops never shard: one reference for both widths.
            let want = crate::with_backend(crate::Backend::Scalar, kernels);
            for threads in [1usize, 4] {
                let got = with_threads(threads, || crate::with_backend(crate::Backend::Simd, kernels));
                let names = ["sum", "weighted", "backward", "scaled backward", "weighted backward"];
                for (name, (want, got)) in names.iter().zip(want.iter().zip(&got)) {
                    assert_eq!(bits(want), bits(got), "fused {name} {rows}x{cols} t={threads}");
                }
            }
        }
    }

    /// Irrational-ish values so any reordering or rounding difference
    /// between the block-copy kernels and the old per-element index loops
    /// would show up at the bit level.
    fn salted(rows: usize, cols: usize, salt: f32) -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as f32) * 0.731 + salt).sin() * 3.77)
            .collect();
        Tensor::from_vec(data, &[rows, cols]).expect("salted tensor")
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_copy_kernels_bitwise_match_index_loop_reference() {
        let src = salted(11, 6, 0.13);
        let indices = [3usize, 0, 7, 7, 10, 2];

        // gather_rows: block copy vs element-at-a-time reference.
        let got = gather_rows(&src, &indices);
        let mut want = vec![0.0f32; indices.len() * 6];
        for (r, &i) in indices.iter().enumerate() {
            for c in 0..6 {
                want[r * 6 + c] = src.at2(i, c);
            }
        }
        assert_eq!(bits(&got), want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        // scatter_rows: later writes win, untouched rows stay zero.
        let values = salted(4, 6, 1.9);
        let sc_idx = [2usize, 5, 2, 0];
        let got = scatter_rows(&values, &sc_idx, 8);
        let mut want = [0.0f32; 8 * 6];
        for (r, &i) in sc_idx.iter().enumerate() {
            for c in 0..6 {
                want[i * 6 + c] = values.at2(r, c);
            }
        }
        assert_eq!(bits(&got), want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        // scatter_add_rows: repeated indices accumulate in row order.
        let mut got = Tensor::zeros(&[8, 6]);
        scatter_add_rows(&mut got, &values, &sc_idx);
        let mut want = [0.0f32; 8 * 6];
        for (r, &i) in sc_idx.iter().enumerate() {
            for c in 0..6 {
                want[i * 6 + c] += values.at2(r, c);
            }
        }
        assert_eq!(bits(&got), want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    fn into_variants_bitwise_match_allocating_variants() {
        let src = salted(9, 5, 0.41);
        let g_ids = [0usize, 3, 3, 8, 1, 5];
        let s_ids = [2usize, 0, 2, 1, 1, 0];
        let w: Vec<f32> = (0..6).map(|i| 0.5 + 0.1 * i as f32).collect();

        let sum = fused_gather_segment_sum(&src, &g_ids, &s_ids, 4);
        let mut out = vec![0.0f32; 4 * 5];
        fused_gather_segment_sum_into(&src, &g_ids, &s_ids, &mut out);
        assert_eq!(sum.data(), &out[..]);

        let wsum = fused_gather_segment_weighted_sum(&src, &g_ids, &s_ids, &w, 4);
        out.fill(0.0);
        fused_gather_segment_weighted_sum_into(&src, &g_ids, &s_ids, &w, &mut out);
        assert_eq!(wsum.data(), &out[..]);

        let grad = salted(4, 5, 2.2);
        let scale = [0.5f32, 0.25, 1.0, 2.0];
        let bwd = fused_gather_segment_sum_backward(&grad, &g_ids, &s_ids, Some(&scale), 9);
        let mut bout = vec![0.0f32; 9 * 5];
        fused_gather_segment_sum_backward_into(&grad, &g_ids, &s_ids, Some(&scale), &mut bout);
        assert_eq!(bwd.data(), &bout[..]);

        let wbwd = fused_gather_segment_weighted_sum_backward(&grad, &g_ids, &s_ids, &w, 9);
        bout.fill(0.0);
        fused_gather_segment_weighted_sum_backward_into(&grad, &g_ids, &s_ids, &w, &mut bout);
        assert_eq!(wbwd.data(), &bout[..]);

        // segment_softmax_into fully overwrites: seed with NaN poison.
        let scores = salted(6, 3, 0.07);
        let sm = segment_softmax(&scores, &s_ids, 3);
        let mut sout = vec![f32::NAN; 6 * 3];
        segment_softmax_into(&scores, &s_ids, 3, &mut sout);
        assert_eq!(bits(&sm), sout.iter().map(|v| v.to_bits()).collect::<Vec<_>>());

        // segment_max_into seeds with -inf itself: dirty out is fine.
        let (mx, arg) = segment_max(&scores, &s_ids, 3);
        let mut mout = vec![f32::NAN; 3 * 3];
        let arg2 = segment_max_into(&scores, &s_ids, &mut mout);
        assert_eq!(mx.data(), &mout[..]);
        assert_eq!(arg, arg2);
    }
}
