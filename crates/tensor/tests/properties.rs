//! Property tests over the dense kernels and autograd engine.

use betty_tensor::{check, kernels, segment, Graph, Tensor};
use proptest::prelude::*;

/// Strategy: a tensor with the given shape, values in [-4, 4].
fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("sized data"))
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

fn transpose(a: &Tensor) -> Tensor {
    alloc(a.cols(), a.rows(), |o| kernels::transpose_into(a, o))
}

fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let sum = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Tensor::from_vec(sum, a.shape()).expect("same shape")
}

/// `Σ a ⊙ b`.
fn dot(a: &Tensor, b: &Tensor) -> f32 {
    a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
}

/// Same shape, and every element within `tol`.
fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_tensor(3, 4),
        b in arb_tensor(4, 2),
        c in arb_tensor(4, 2),
    ) {
        // A(B + C) == AB + AC
        let lhs = matmul(&a, &add(&b, &c));
        let rhs = add(&matmul(&a, &b), &matmul(&a, &c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn transpose_is_involutive(a in arb_tensor(5, 3)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transposed_matmul_variants_agree(a in arb_tensor(3, 5), b in arb_tensor(3, 4)) {
        let atb = alloc(5, 4, |o| kernels::matmul_at_b_into(&a, &b, o));
        let reference = matmul(&transpose(&a), &b);
        prop_assert!(approx_eq(&atb, &reference, 1e-3));
        // x @ yᵀ with x = aᵀ (5×3), y = bᵀ (4×3): result is aᵀ·b (5×4).
        let abt = alloc(5, 4, |o| kernels::matmul_a_bt_into(&transpose(&a), &transpose(&b), o));
        prop_assert!(approx_eq(&abt, &reference, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_tensor(4, 6)) {
        // Row r of `a` is column r of its transpose: one segment of six.
        let mut g = Graph::new();
        let x = g.leaf(transpose(&a));
        let sm = g.segment_softmax(x, &[0; 6], 1);
        let sm = g.value(sm);
        for r in 0..4 {
            let row: Vec<f32> = (0..6).map(|i| sm.data()[i * 4 + r]).collect();
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn gather_scatter_adjoint_identity(
        src in arb_tensor(6, 3),
        idx in proptest::collection::vec(0usize..6, 1..12),
        grad in arb_tensor(6, 3),
    ) {
        // <gather(src, idx), gather(grad_like)> consistency: the adjoint
        // test  <A x, y> == <x, Aᵀ y>  with A = gather by idx.
        let gathered = segment::gather_rows(&src, &idx);
        let y = Tensor::ones(&[idx.len(), 3]);
        let lhs = dot(&gathered, &y);
        let mut scattered = Tensor::zeros(&[6, 3]);
        segment::scatter_add_rows(&mut scattered, &y, &idx);
        let rhs = dot(&src, &scattered);
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
        let _ = grad; // reserved for extended adjoint checks
    }

    #[test]
    fn fused_mean_matches_manual_composition(
        src in arb_tensor(5, 2),
        edges in proptest::collection::vec((0usize..5, 0usize..3), 1..15),
    ) {
        let gather_ids: Vec<usize> = edges.iter().map(|e| e.0).collect();
        let seg_ids: Vec<usize> = edges.iter().map(|e| e.1).collect();
        let mut g1 = Graph::new();
        let x1 = g1.leaf(src.clone());
        let fused = g1.fused_neighbor_mean(x1, &gather_ids, &seg_ids, 3);
        let mut g2 = Graph::new();
        let x2 = g2.leaf(src);
        let msgs = g2.gather_rows(x2, &gather_ids);
        let sums = g2.segment_sum(msgs, &seg_ids, 3);
        let mut counts = [0.0f32; 3];
        seg_ids.iter().for_each(|&s| counts[s] += 1.0);
        let inv = counts.map(|c| 1.0 / c.max(1.0)).to_vec();
        let inv = g2.constant(Tensor::from_vec(inv, &[3, 1]).expect("one per segment"));
        let manual = g2.scale_rows_by(sums, inv);
        prop_assert!(approx_eq(g1.value(fused), g2.value(manual), 1e-4));
        let l1 = g1.sum(fused);
        g1.backward(l1);
        let l2 = g2.sum(manual);
        g2.backward(l2);
        prop_assert!(approx_eq(g1.grad(x1).unwrap(), g2.grad(x2).unwrap(), 1e-4));
    }

    #[test]
    fn autograd_sum_of_tanh_gradcheck(a in arb_tensor(2, 3)) {
        let res = check::check_gradient(&a, |g, x| {
            let t = g.tanh(x);
            g.sum(t)
        });
        prop_assert!(res.passes(2e-2), "{res:?}");
    }

    #[test]
    fn segment_sum_total_is_preserved(
        vals in arb_tensor(7, 2),
        seg in proptest::collection::vec(0usize..4, 7),
    ) {
        let all: Vec<usize> = (0..7).collect();
        let summed = alloc(4, 2, |o| segment::fused_gather_segment_sum_into(&vals, &all, &seg, o));
        prop_assert!(
            (summed.sum_all() - vals.sum_all()).abs() < 1e-3,
            "mass not conserved"
        );
    }

    #[test]
    fn reshape_preserves_sum(a in arb_tensor(4, 6)) {
        let r = a.reshape(&[8, 3]).unwrap();
        prop_assert_eq!(r.sum_all(), a.sum_all());
        prop_assert_eq!(r.data(), a.data());
    }

    #[test]
    fn scale_rows_matches_diagonal_matmul(a in arb_tensor(3, 4), s in proptest::collection::vec(-2.0f32..2.0, 3)) {
        let mut g = Graph::new();
        let (x, by) = (g.leaf(a.clone()), g.constant(Tensor::from_vec(s.clone(), &[3, 1]).expect("one per row")));
        let scaled = g.scale_rows_by(x, by);
        let scaled = g.value(scaled);
        // Equivalent to D·A with D = diag(s).
        let mut d = Tensor::zeros(&[3, 3]);
        for (i, &si) in s.iter().enumerate() {
            d.data_mut()[i * 3 + i] = si;
        }
        let reference = matmul(&d, &a);
        prop_assert!(approx_eq(scaled, &reference, 1e-4));
    }
}
