//! Property tests pinning the backend contract: `Backend::Simd` is a
//! speed knob, never a numerics knob. Every dispatched kernel must be
//! bit-identical to the scalar reference across arbitrary shapes —
//! including the degenerate ones (`k = 0`, `cols = 0`, single-row) —
//! and across worker-thread counts, and the 16-bit storage dtypes must
//! round-trip exactly once quantized.

use betty_tensor::dtype::{f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, bf16_bits_to_f32};
use betty_tensor::{kernels, segment, with_backend, Backend, DType, Graph, Tensor};
use proptest::prelude::*;

/// Strategy: a tensor with the given shape, values in [-4, 4]. Handles
/// zero-sized shapes (an empty data vector is a valid 0-element strategy).
fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("sized data"))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `[rows, cols]` zeros that `f` writes into.
fn alloc(rows: usize, cols: usize, f: impl FnOnce(&mut [f32])) -> Tensor {
    let mut out = Tensor::zeros(&[rows, cols]);
    f(out.data_mut());
    out
}

fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    alloc(a.rows(), b.cols(), |o| kernels::matmul_into(a, b, o))
}

fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    alloc(a.cols(), b.cols(), |o| kernels::matmul_at_b_into(a, b, o))
}

fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    alloc(a.rows(), b.rows(), |o| kernels::matmul_a_bt_into(a, b, o))
}

fn transpose(a: &Tensor) -> Tensor {
    alloc(a.cols(), a.rows(), |o| kernels::transpose_into(a, o))
}

/// [`bits`] with every NaN mapped to one pattern: which of two NaN
/// operands' payloads an add or multiply propagates is the instruction
/// selector's choice, so only *where* NaNs appear is part of the contract.
fn bits_nan_canonical(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

/// Runs `f` under both backends at the given thread count and asserts
/// bit-identical output.
fn assert_backends_agree(threads: usize, f: impl Fn() -> Tensor) {
    let (scalar, simd) = betty_runtime::with_threads(threads, || {
        (with_backend(Backend::Scalar, &f), with_backend(Backend::Simd, &f))
    });
    assert_eq!(
        bits_nan_canonical(&scalar),
        bits_nan_canonical(&simd),
        "backends diverged at {threads} threads"
    );
}

/// A `[rows, cols]` operand of the matmul tests: values in [-2, 2) with
/// about one exact `0.0` in eight, then one `-0.0`, one NaN and one `∞`
/// at seed-chosen positions. The zeros pin the one rule all three
/// products follow — every term is kept, so a zero element that meets NaN
/// or `∞` yields NaN on either side of any product, on both backends.
fn spiked(rows: usize, cols: usize, seed: u64, phase: u64) -> Tensor {
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let v = (i as u64 ^ phase).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            if v.is_multiple_of(8) {
                0.0
            } else {
                ((v >> 8) % 1000) as f32 / 250.0 - 2.0
            }
        })
        .collect();
    for (i, v) in [-0.0, f32::NAN, f32::INFINITY].into_iter().enumerate() {
        if !data.is_empty() {
            let at = (seed.wrapping_add(phase) as usize).wrapping_add(i * 13) % data.len();
            data[at] = v;
        }
    }
    Tensor::from_vec(data, &[rows, cols]).expect("sized data")
}

/// All three products at `m × k × n` (`a: [m, k]`), both thread counts.
fn assert_matmul_family_agrees(m: usize, k: usize, n: usize, seed: u64) {
    let a = spiked(m, k, seed, 0);
    let b = spiked(k, n, seed, 1);
    let bt = spiked(n, k, seed, 2);
    let at = spiked(k, m, seed, 3);
    for threads in [1usize, 4] {
        assert_backends_agree(threads, || matmul(&a, &b));
        assert_backends_agree(threads, || matmul_a_bt(&a, &bt));
        assert_backends_agree(threads, || matmul_at_b(&at, &b));
    }
}

/// The LSTM gate product and its adjoint shapes: several full 6×32 tiles,
/// row and column remainders, and (the last one, asserted) a `dW`-sized
/// product that takes more than one shard at four threads.
#[test]
fn matmul_family_is_bit_identical_at_lstm_shapes() {
    let sharded = (1027, 400, 330);
    assert!(sharded.0 * sharded.1 * sharded.2 >= 2 * betty_runtime::MIN_SHARD_WORK);
    for (m, k, n) in [(17, 200, 400), (102, 400, 200), (6, 128, 256), sharded] {
        assert_matmul_family_agrees(m, k, n, 0x5eed);
    }
}

/// `a·b` three ways — from `a: [m, k]`, `b: [k, n]` and their transposes —
/// through each product of the family, by name.
fn product_three_ways(a: &Tensor, b: &Tensor) -> [(&'static str, Tensor); 3] {
    [
        ("a @ b", matmul(a, b)),
        ("aT @ b", matmul_at_b(&transpose(a), b)),
        ("a @ bT", matmul_a_bt(a, &transpose(b))),
    ]
}

/// A unit a ReLU zeroed, against a corrupt weight row: `0 · NaN` and
/// `0 · ∞` are NaN, and every term is kept, so all three products report
/// it on both backends — the forward `a @ b` and the `dW` product
/// `aᵀ @ b` see a corrupt weight, not only the backward `dX = a @ bᵀ`.
#[test]
fn a_zero_against_a_non_finite_weight_is_nan_in_every_product() {
    for (m, k, n) in [(7usize, 9usize, 33usize), (257, 130, 129)] {
        let (dead, bad, nan_at, inf_at) = (m / 2, k / 3, n / 4, n - 1);
        let finite = |rows, cols, phase| spiked_finite(rows, cols, 0xdead, phase);
        // Row `dead` of `a` is zero, row `bad` of `b` is corrupt: as `aᵀ @ b`
        // sees them, a zero column of its `[k, m]` left operand; as `a @ bᵀ`
        // does, the corrupt values in two rows of its `[n, k]` right operand.
        let mut a = finite(m, k, 0);
        a.data_mut()[dead * k..][..k].fill(0.0);
        let mut b = finite(k, n, 1);
        b.data_mut()[bad * n + nan_at] = f32::NAN;
        b.data_mut()[bad * n + inf_at] = f32::INFINITY;
        for threads in [1usize, 4] {
            for backend in [Backend::Scalar, Backend::Simd] {
                let products = betty_runtime::with_threads(threads, || {
                    with_backend(backend, || product_three_ways(&a, &b))
                });
                for (name, out) in products {
                    let what = format!("{name} {m}x{k}x{n} on {backend}, {threads} threads");
                    for (j, v) in out.row(dead).iter().enumerate() {
                        let corrupt = j == nan_at || j == inf_at;
                        assert_eq!(v.is_nan(), corrupt, "{what}: out[{dead}][{j}] = {v}");
                    }
                }
            }
        }
    }
}

/// Every step of every product is one fused multiply-add: with
/// `x = 1 + 2⁻¹²` the exact square `1 + 2⁻¹¹ + 2⁻²⁴` is a tie that rounds
/// to `c = 1 + 2⁻¹¹`, so `1·(-c) + x·x` is the rounding error `2⁻²⁴` fused
/// and `0.0` as a multiply followed by an add — on both backends, over a
/// full register tile and its row and column remainders.
#[test]
fn every_product_rounds_once_per_term() {
    let (x, c) = (1.0 + 1.0 / 4096.0, 1.0 + 1.0 / 2048.0);
    let (m, n) = (7, 33);
    let tensor = |data: Vec<f32>, shape: [usize; 2]| Tensor::from_vec(data, &shape).expect("sized data");
    let a = tensor([1.0, x].repeat(m), [m, 2]);
    let b = tensor([vec![-c; n], vec![x; n]].concat(), [2, n]);
    for backend in [Backend::Scalar, Backend::Simd] {
        for (name, out) in with_backend(backend, || product_three_ways(&a, &b)) {
            let fused = out.data().iter().all(|v| v.to_bits() == 2f32.powi(-24).to_bits());
            assert!(fused, "{name} on {backend} rounds twice: {:?}", &out.data()[..2]);
        }
    }
}

/// `Graph::backward` packs each `Matmul` weight's transpose once per sweep
/// and skips gradients nobody can read. Neither may move a bit: every
/// gradient must equal the scalar kernels called directly — for a weight
/// shared by two products (one pack, two uses, accumulated `dW`), for a
/// second sweep over the same tape, and for a rebuilt tape whose weight
/// has the same shape but new values (a pack must not outlive its sweep).
#[test]
fn backward_with_packed_weights_matches_the_scalar_kernels_bit_for_bit() {
    let mut g = Graph::new();
    for step in 0..3u64 {
        let x1 = spiked_finite(17, 40, step, 0);
        let x2 = spiked_finite(5, 40, step, 1);
        let w = spiked_finite(40, 70, step, 2);
        let (c1, c2) = (spiked_finite(17, 70, step, 3), spiked_finite(5, 70, step, 4));

        let (dx1, dx2_is_none, dw) = with_backend(Backend::Simd, || {
            g.reset();
            let (x1v, x2v) = (g.leaf(x1.clone()), g.constant(x2.clone()));
            let wv = g.leaf(w.clone());
            let (c1v, c2v) = (g.constant(c1.clone()), g.constant(c2.clone()));
            let (y1, y2) = (g.matmul(x1v, wv), g.matmul(x2v, wv));
            let (l1, l2) = (g.mul(y1, c1v), g.mul(y2, c2v));
            let (s1, s2) = (g.sum(l1), g.sum(l2));
            let loss = g.add(s1, s2);
            g.backward(loss);
            let first = bits(g.grad(wv).expect("weight gradient"));
            g.backward(loss);
            assert_eq!(first, bits(g.grad(wv).unwrap()), "second sweep, step {step}");
            (
                bits(g.grad(x1v).expect("leaf input gradient")),
                g.grad(x2v).is_none() && g.grad(c1v).is_none(),
                first,
            )
        });
        assert!(dx2_is_none, "constants must not receive gradients");

        // d(loss)/dy = c: dX1 = c1·wᵀ; dW = x2ᵀ·c2, then += x1ᵀ·c1 (the
        // sweep meets the later product first).
        let (want_dx1, want_dw) = with_backend(Backend::Scalar, || {
            let mut dw = matmul_at_b(&x2, &c2);
            dw.add_assign(&matmul_at_b(&x1, &c1));
            (matmul_a_bt(&c1, &w), dw)
        });
        assert_eq!(dx1, bits(&want_dx1), "dX at step {step}");
        assert_eq!(dw, bits(&want_dw), "dW at step {step}");
    }
}

/// [`spiked`] without the NaN/∞ (zeros and `-0.0` stay).
fn spiked_finite(rows: usize, cols: usize, seed: u64, phase: u64) -> Tensor {
    let mut t = spiked(rows, cols, seed, phase);
    for v in t.data_mut() {
        if !v.is_finite() {
            *v = 0.5;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The whole matmul family, over shapes that cross the 6×16 and 6×32
    /// register tiles with every remainder, and include `m = 1` (single
    /// row), `k = 0` (empty reduction: output must be exact zeros), and
    /// `n = 0` (empty output).
    #[test]
    fn matmul_family_is_bit_identical_across_backends_and_threads(
        m in 1usize..40,
        k in 0usize..70,
        n in 0usize..100,
        seed in 0u64..u64::MAX,
    ) {
        assert_matmul_family_agrees(m, k, n, seed);
    }

    /// Fused gather+segment-sum over arbitrary (unsorted) edge lists,
    /// plus the `cols = 0` and empty-edge-list degenerate shapes.
    #[test]
    fn fused_gather_segment_is_bit_identical_across_backends_and_threads(
        src in arb_tensor(9, 5),
        edges in proptest::collection::vec((0usize..9, 0usize..6), 0..64),
    ) {
        let gather_ids: Vec<usize> = edges.iter().map(|e| e.0).collect();
        let segment_ids: Vec<usize> = edges.iter().map(|e| e.1).collect();
        for threads in [1usize, 4] {
            assert_backends_agree(threads, || {
                alloc(6, 5, |o| segment::fused_gather_segment_sum_into(&src, &gather_ids, &segment_ids, o))
            });
        }
        // cols = 0: both backends must return an all-zero [6, 0] tensor.
        let empty = arb_narrow(&src);
        assert_backends_agree(1, || {
            alloc(6, 0, |o| segment::fused_gather_segment_sum_into(&empty, &gather_ids, &segment_ids, o))
        });
    }

    /// The vectorized Adam step: hardware sqrt/divide round identically
    /// at every lane width, so the update is bit-identical too.
    #[test]
    fn adam_step_is_bit_identical_across_backends(
        grad in proptest::collection::vec(-2.0f32..2.0, 0..96),
        step in 1u32..50,
    ) {
        let coeffs = kernels::AdamCoeffs {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bias1: 1.0 - 0.9f32.powi(step as i32),
            bias2: 1.0 - 0.999f32.powi(step as i32),
        };
        let run = |backend: Backend| {
            with_backend(backend, || {
                let mut value = vec![1.0f32; grad.len()];
                let mut m1 = vec![0.1f32; grad.len()];
                let mut m2 = vec![0.2f32; grad.len()];
                kernels::adam_step(&mut value, &grad, &mut m1, &mut m2, coeffs);
                (value, m1, m2)
            })
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Simd);
        prop_assert_eq!(as_bits(&scalar.0), as_bits(&simd.0));
        prop_assert_eq!(as_bits(&scalar.1), as_bits(&simd.1));
        prop_assert_eq!(as_bits(&scalar.2), as_bits(&simd.2));
    }

    /// Quantization is idempotent: once a value has been rounded into a
    /// 16-bit storage dtype, encoding and decoding it again is exact.
    #[test]
    fn storage_dtypes_round_trip_exactly_once_quantized(v in -1e4f32..1e4) {
        for dtype in [DType::Bf16, DType::F16] {
            let q = dtype.quantize(v);
            prop_assert_eq!(
                dtype.quantize(q).to_bits(),
                q.to_bits(),
                "{} quantize must be idempotent",
                dtype.name()
            );
            prop_assert_eq!(
                dtype.decode16(dtype.encode16(q)).to_bits(),
                q.to_bits(),
                "{} encode/decode must round-trip quantized values",
                dtype.name()
            );
        }
        // The raw bit converters agree with the DType methods.
        prop_assert_eq!(
            bf16_bits_to_f32(f32_to_bf16_bits(v)).to_bits(),
            DType::Bf16.quantize(v).to_bits()
        );
        prop_assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(v)).to_bits(),
            DType::F16.quantize(v).to_bits()
        );
    }

    /// Round-to-nearest-even keeps the relative quantization error within
    /// half a ulp of the storage format: 2⁻⁸ for bf16 (8 mantissa bits
    /// incl. the hidden one), 2⁻¹¹ for f16, over f16's normal range.
    #[test]
    fn quantization_error_is_bounded_by_half_ulp(v in -6e4f32..6e4) {
        let bf = DType::Bf16.quantize(v);
        prop_assert!((bf - v).abs() <= v.abs() / 256.0, "bf16({v}) = {bf}");
        let hf = DType::F16.quantize(v);
        prop_assert!((hf - v).abs() <= v.abs() / 2048.0, "f16({v}) = {hf}");
    }
}

fn as_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A `[rows, 0]` tensor matching `src`'s row count.
fn arb_narrow(src: &Tensor) -> Tensor {
    Tensor::from_vec(Vec::new(), &[src.rows(), 0]).expect("empty tensor")
}
