//! Extension exhibit: ext_kernels. `BETTY_PROFILE=quick` shrinks it.
//!
//! Scalar-vs-SIMD throughput of the runtime-dispatched compute backend,
//! plus the end-to-end training payoff, with the numerics contract
//! asserted rather than assumed:
//!
//! 1. **Kernel throughput** (`BENCH_kernels.json`) — GFLOP/s of the
//!    dense matmul family (`a·b`, `a·bᵀ`, `aᵀ·b` at a dense-layer shape
//!    and at the LSTM gate product `[n, 200]·[200, 400]` with its two
//!    adjoints, n ∈ {16, 1024}), the fused gather+segment-reduce
//!    aggregation kernel, and the vectorized Adam step, each measured
//!    under `Backend::Scalar` and `Backend::Simd` at 1 and 4 worker
//!    threads. The three products share one register tile on the simd
//!    backend, so at one shape the backward products must run within
//!    `MIN_ADJOINT_RATIO` of the forward — a fall back to dot-product
//!    or rank-1 form fails the exhibit instead of only slowing it. Every
//!    term of a product is kept, so speed may not depend on the data:
//!    `a·b` and `aᵀ·b` at the output layer's `[n, 64]·[64, 47]` with half
//!    of the left operand exactly zero (a ReLU or dropout output) must
//!    run within `MIN_ZEROS_RATIO` of their dense twins, and the scalar
//!    reference must clear `MIN_SCALAR_GATE_GFLOPS` at the LSTM gate
//!    shape (it is fused too, and off its `fma` wrapper it is a libm call
//!    per element). Rows that are compared are timed alternately.
//!    The SIMD path must clear `MIN_KERNEL_SPEEDUP` on every row (the
//!    committed artifact shows ≥ 2× for matmul and the fused kernel at
//!    both thread counts on an AVX-512 host; the assertion floor is
//!    deliberately lower so slower CI steppings fail loudly only on real
//!    regressions, not on turbo-bin variance).
//! 2. **Bit-identity** — every kernel's f32 output must match the scalar
//!    reference bit-for-bit before a throughput row is accepted: the
//!    backend is a speed knob, not a numerics knob.
//! 3. **End-to-end** (`BENCH_kernels_epoch.json`) — steady-state epoch
//!    time of a power-law-graph training run under each backend, same
//!    seed. Per-epoch losses must be bit-identical; the SIMD run must be
//!    faster by `MIN_EPOCH_SPEEDUP`.
//! 4. **Activations** (`ext_kernels_activations.json`) — Melem/s of the
//!    crate's own `tanh` / `sigmoid` on each backend, with libm's
//!    `f32::tanh` and `1/(1+exp(-x))` timed in the same run as the
//!    baseline: the simd rows must clear `MIN_ACTIVATION_SPEEDUP`, agree
//!    with the scalar rows bit for bit and with libm to 1e-6.
//! 5. **Fused LSTM** (`ext_kernels_lstm.json`) — nanoseconds per node-step
//!    of `Graph::lstm_sequence` forward + backward at the SAGE-LSTM shape
//!    (`[n, 100]` inputs, `H = 100`) for a small and a large set of
//!    equal-length sequences, a short and a long neighbour sequence, and
//!    `lstm2_k8`'s layer-0 block: 1024 destinations with power-law
//!    degrees up to 25, as one packed call and as the one call per degree
//!    the aggregator used to make — on both backends, weight gradients
//!    bit-identical.
//! 6. **Fused affine map** (`ext_kernels_affine.json`) — `Graph::affine`
//!    against the `slice_rows → matmul → add_bias → add → relu`
//!    composition it replaced, at the two SAGE layer shapes (`[n, 100] →
//!    64` two-term + ReLU, `[n, 64] → 47` two-term), forward and backward
//!    µs and the bytes each leaves on the tape, on both backends: output
//!    and every gradient bit-identical, tape bytes within
//!    `MAX_AFFINE_TAPE_SHARE` of the composition's. CI holds every row
//!    of 1024 rows or more to "no slower than the composition"; a 16-row
//!    step takes 15–95 µs and the two differ by about a microsecond either
//!    way (0.98–1.08×), so those rows are reported without a floor.

use std::time::Instant;

use betty::{ExperimentConfig, Runner, StrategyKind};
use betty_data::DatasetSpec;
use betty_tensor::{kernels, segment, with_backend, AffineTerm, Backend, Graph, Tensor, VarId};

use crate::report::Table;
use crate::Profile;

/// Per-row assertion floor for simd/scalar throughput of the
/// compute-bound kernels (the matmul family and the fused
/// gather+segment kernel). The real numbers on an AVX-512 host are
/// ≥ 2×; the floor is deliberately lower so slower CI steppings fail
/// loudly only on real regressions, not on turbo-bin variance.
pub(crate) const MIN_KERNEL_SPEEDUP: f64 = 1.2;

/// Floor for the Adam step, which is memory-bound (four streams per
/// value), so vectorization buys little beyond saturating bandwidth;
/// the assertion only guards against the simd path regressing.
pub(crate) const MIN_ADAM_SPEEDUP: f64 = 1.0;

/// Floor for the simd GFLOP/s of `matmul_a_bt` and `matmul_at_b`
/// relative to `matmul` at the same shape and thread count. Machine
/// independent: all three run the same tile, so only the tile's
/// per-call set-up separates them (measured 0.85–1.2 on AVX-512 and
/// AVX2); the dot-product and rank-1 forms they replaced sat at 0.25–0.5.
pub(crate) const MIN_ADJOINT_RATIO: f64 = 0.6;

/// Floor for the simd GFLOP/s of a product whose left operand is half
/// exact zeros, relative to the same product over a dense operand. The
/// kernels test no operand, so the two run the same instructions
/// (0.95–1.05 measured); the zero-skip branch this guards against read
/// 0.2 (9 against 50 GFLOP/s: a misprediction every other element).
pub(crate) const MIN_ZEROS_RATIO: f64 = 0.8;

/// Floor for the scalar reference `matmul` at `1024x200x400`, GFLOP/s.
/// Measured ≈ 19 through the `fma` wrapper (≈ 14 as multiply-then-add);
/// `f32::mul_add` compiled without the feature reads 0.7.
pub(crate) const MIN_SCALAR_GATE_GFLOPS: f64 = 10.0;

/// Required end-to-end epoch-time speedup of simd over scalar.
pub(crate) const MIN_EPOCH_SPEEDUP: f64 = 1.05;

/// Floor for the simd rows of the shared `tanh` / `sigmoid` over libm's,
/// timed in the same run. Measured ≈ 35× (`tanh`) and ≈ 9× (`sigmoid`)
/// on AVX-512 — libm is a scalar call per element; a row near 1× means
/// the element function stopped inlining into its lane loop.
pub(crate) const MIN_ACTIVATION_SPEEDUP: f64 = 4.0;

/// Ceiling for the bytes the fused affine op leaves on the tape, as a
/// share of the op-by-op composition's (0.13 and 0.16 at the two shapes
/// timed: the output against a prefix copy, four products and a sum).
pub(crate) const MAX_AFFINE_TAPE_SHARE: f64 = 0.3;

/// One timed kernel invocation set: best-of-`reps` wall seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// [`best_of`] over as many back-to-back calls as fit in a millisecond, at
/// least three: a 30 µs product gets some thirty tries at an undisturbed
/// run, a 3 ms one the three it had (the first call refills the caches
/// the other cases of its group emptied).
fn best_of_a_burst(mut f: impl FnMut()) -> f64 {
    let (mut best, start) = (best_of(3, &mut f), Instant::now());
    while start.elapsed().as_secs_f64() < 1e-3 {
        best = best.min(best_of(1, &mut f));
    }
    best
}

fn dense(rows: usize, cols: usize, phase: f32) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| ((i as f32) * 0.37 + phase).sin())
            .collect(),
        &[rows, cols],
    )
    .unwrap()
}

/// Runs a kernel once into the output buffer it is handed.
type Kernel = Box<dyn FnMut(&mut [f32])>;

struct KernelCase {
    name: &'static str,
    shape: String,
    /// Total floating-point operations of one invocation.
    flops: f64,
    /// Per-case simd/scalar speedup floor.
    min_speedup: f64,
    /// Floor for this case's simd GFLOP/s as a share of another case's in
    /// its group (by position): an adjoint against its forward product, a
    /// half-zero operand against its dense twin.
    paced_by: Option<(usize, f64)>,
    /// The kernel's output buffer, read back for bit-identity checking.
    out: Vec<f32>,
    /// Runs the kernel once into [`Self::out`], clearing it first where
    /// the kernel accumulates (as its callers must).
    run: Kernel,
}

/// `dense(rows, cols, phase)` with the elements a multiplicative hash
/// picks — half of them — set to exactly `0.0`, as a ReLU or dropout
/// output has them.
fn half_zeros(rows: usize, cols: usize, phase: f32) -> Tensor {
    let mut t = dense(rows, cols, phase);
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        if (i as u32).wrapping_mul(2654435761) >> 31 == 0 {
            *v = 0.0;
        }
    }
    t
}

impl KernelCase {
    /// One of the three dense products at `m × k × n` (2·m·k·n flops),
    /// held to the compute-bound speedup floor.
    fn product(
        name: &'static str,
        shape: &str,
        (m, k, n): (usize, usize, usize),
        out_len: usize,
        paced_by: Option<(usize, f64)>,
        run: impl FnMut(&mut [f32]) + 'static,
    ) -> Self {
        KernelCase {
            name,
            shape: shape.to_string(),
            flops: 2.0 * (m * k * n) as f64,
            min_speedup: MIN_KERNEL_SPEEDUP,
            paced_by,
            out: vec![0.0f32; out_len],
            run: Box::new(run),
        }
    }
}

/// The kernel suite at bench shapes: 128-class feature widths and a
/// CSR-sorted (destination-major) edge list, the shapes the trainer's
/// aggregation and dense layers actually run. Each inner list is timed
/// alternately, so the rows [`KernelCase::paced_by`] compares share
/// whatever the clock does meanwhile.
fn kernel_cases(profile: Profile) -> Vec<Vec<KernelCase>> {
    let scale = match profile {
        Profile::Quick => 4,
        Profile::Full => 1,
    };
    let adjoint = Some((0, MIN_ADJOINT_RATIO));
    let mut groups = Vec::new();

    // Dense layer shapes: activations [n, d] × weights [d, o].
    let dims = (2048 / scale, 128, 128);
    let (m, k, n) = dims;
    let shape = format!("{m}x{k}x{n}");
    let (a, b) = (dense(m, k, 0.0), dense(k, n, 1.0));
    let (a2, bt) = (a.clone(), dense(n, k, 1.0)); // transposed right operand
    let (at, b2) = (dense(k, m, 0.0), b.clone()); // transposed left operand
    groups.push(vec![
        KernelCase::product("matmul", &shape, dims, m * n, None, move |out| {
            out.fill(0.0);
            kernels::matmul_into(&a, &b, out);
        }),
        KernelCase::product("matmul_a_bt", &shape, dims, m * n, adjoint, move |out| {
            kernels::matmul_a_bt_into(&a2, &bt, out);
        }),
        KernelCase::product("matmul_at_b", &shape, dims, m * n, adjoint, move |out| {
            kernels::matmul_at_b_into(&at, &b2, out);
        }),
    ]);

    // The SAGE-LSTM gate product `[rows, 200]·[200, 400]` and its two
    // adjoints as the backward sweep runs them: `dX = G·Wᵀ` against a
    // weight transposed once outside the timed region, `dW = Xᵀ·G`. 16
    // rows is a short step or a small batch, 1024 a wide one; neither is
    // scaled by the profile (the remainder tiles are the point).
    let (gk, gn) = (200, 400);
    for rows in [16usize, 1024] {
        let dims = (rows, gk, gn);
        let shape = format!("{rows}x{gk}x{gn}");
        let (x, w, g) = (dense(rows, gk, 0.0), dense(gk, gn, 1.0), dense(rows, gn, 2.0));
        let mut wt = Tensor::zeros(&[gn, gk]);
        kernels::transpose_into(&w, wt.data_mut());
        let (x2, w2, g2) = (x.clone(), w.clone(), g.clone());
        groups.push(vec![
            KernelCase::product("matmul", &shape, dims, rows * gn, None, move |out| {
                out.fill(0.0);
                kernels::matmul_into(&x, &w, out);
            }),
            KernelCase::product("matmul_a_bt", &shape, dims, rows * gk, adjoint, move |out| {
                kernels::matmul_a_bt_packed_into(&g, &w2, &wt, out);
            }),
            KernelCase::product("matmul_at_b", &shape, dims, gk * gn, adjoint, move |out| {
                kernels::matmul_at_b_into(&x2, &g2, out);
            }),
        ]);
    }

    // The output layer's product `[n, 64]·[64, 47]` and its `dW`, each
    // over a dense left operand and over one with half exact zeros (what a
    // hidden layer's ReLU, or dropout, hands it). Not scaled either.
    let (ok, on) = (64, 47);
    for rows in [1024usize, 8192] {
        let dims = (rows, ok, on);
        let shape = format!("{rows}x{ok}x{on}");
        let zeros_shape = format!("{shape} lhs half zeros");
        // A half-zero row is paced by its dense twin, at the given position.
        let twin = |at: usize| Some((at, MIN_ZEROS_RATIO));
        let forward = |x: Tensor| {
            let w = dense(ok, on, 1.0);
            move |out: &mut [f32]| {
                out.fill(0.0);
                kernels::matmul_into(&x, &w, out);
            }
        };
        let weight_grad = |x: Tensor| {
            let g = dense(rows, on, 2.0);
            move |out: &mut [f32]| {
                kernels::matmul_at_b_into(&x, &g, out);
            }
        };
        let (x, relu_x) = (dense(rows, ok, 0.0), half_zeros(rows, ok, 0.0));
        groups.push(vec![
            KernelCase::product("matmul", &shape, dims, rows * on, None, forward(x.clone())),
            KernelCase::product("matmul", &zeros_shape, dims, rows * on, twin(0), forward(relu_x.clone())),
            KernelCase::product("matmul_at_b", &shape, dims, ok * on, None, weight_grad(x)),
            KernelCase::product("matmul_at_b", &zeros_shape, dims, ok * on, twin(2), weight_grad(relu_x)),
        ]);
    }

    // Fused gather + segment-sum at aggregation shapes: E edges gathering
    // rows of a [rows, 128] feature table into CSR-sorted segments.
    let (rows, cols, n_segments, n_edges) = (2048 / scale, 128, 256 / scale, 1_000_000 / scale);
    let src = dense(rows, cols, 2.0);
    let gather_ids: Vec<usize> = (0..n_edges).map(|e| (e * 7919) % rows).collect();
    let mut segment_ids: Vec<usize> = (0..n_edges).map(|e| (e * 104_729) % n_segments).collect();
    segment_ids.sort_unstable();
    groups.push(vec![KernelCase {
        name: "fused_gather_segment",
        shape: format!("E={n_edges} {rows}x{cols} seg={n_segments}"),
        flops: (n_edges * cols) as f64,
        min_speedup: MIN_KERNEL_SPEEDUP,
        paced_by: None,
        out: vec![0.0f32; n_segments * cols],
        run: Box::new(move |out| {
            out.fill(0.0);
            segment::fused_gather_segment_sum_into(&src, &gather_ids, &segment_ids, out);
        }),
    }]);

    // Adam at a realistic parameter-tensor length. ~12 flops/value
    // (moment updates, bias correction, sqrt, divide); the constant only
    // scales the GFLOP/s label, the speedup column is a pure time ratio.
    let len = 1 << 20 >> (scale / 4);
    let grad: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.11).cos()).collect();
    let mut m1 = vec![0.0f32; len];
    let mut m2 = vec![0.0f32; len];
    groups.push(vec![KernelCase {
        name: "adam_step",
        shape: format!("{len} values"),
        flops: 12.0 * len as f64,
        min_speedup: MIN_ADAM_SPEEDUP,
        paced_by: None,
        out: vec![0.0f32; len],
        run: Box::new(move |value| {
            value.fill(1.0);
            m1.fill(0.0);
            m2.fill(0.0);
            kernels::adam_step(
                value,
                &grad,
                &mut m1,
                &mut m2,
                kernels::AdamCoeffs {
                    lr: 1e-3,
                    beta1: 0.9,
                    beta2: 0.999,
                    eps: 1e-8,
                    bias1: 0.1,
                    bias2: 1e-3,
                },
            );
        }),
    }]);

    groups
}

/// The first floor a timed group misses, if any, given each case's best
/// `[scalar, simd]` seconds so far.
fn unmet_floor(group: &[KernelCase], best: &[[f64; 2]], threads: usize) -> Option<String> {
    let simd_rate = |i: usize| group[i].flops / best[i][1] / 1e9;
    group.iter().enumerate().find_map(|(i, case)| {
        let what = format!("{} {} at {threads} threads", case.name, case.shape);
        let speedup = best[i][0] / best[i][1];
        if speedup < case.min_speedup {
            return Some(format!(
                "{what}: simd speedup {speedup:.2}x below the {:.2}x floor",
                case.min_speedup
            ));
        }
        if let Some((pacer, floor)) = case.paced_by {
            if simd_rate(i) < floor * simd_rate(pacer) {
                return Some(format!(
                    "{what}: {:.1} GFLOP/s is below {floor}x the {:.1} of {} {}",
                    simd_rate(i),
                    simd_rate(pacer),
                    group[pacer].name,
                    group[pacer].shape
                ));
            }
        }
        let scalar_rate = case.flops / best[i][0] / 1e9;
        let gate = (case.name, case.shape.as_str()) == ("matmul", "1024x200x400");
        (gate && scalar_rate < MIN_SCALAR_GATE_GFLOPS).then(|| {
            format!(
                "{what}: the scalar reference reads {scalar_rate:.1} GFLOP/s, below \
                 {MIN_SCALAR_GATE_GFLOPS}: is it off its fma wrapper?"
            )
        })
    })
}

fn kernel_table(profile: Profile) {
    // Each round times every case of a group once, in turn. A floor still
    // unmet after `rounds` buys further rounds, up to four times as many:
    // a best-of only improves with tries, so a neighbour's burst on a
    // shared box costs time instead of a failure, while a product that
    // really fell off its tile (0.3×) misses its floor however often it
    // is timed.
    let rounds = match profile {
        Profile::Quick => 2,
        Profile::Full => 5,
    };
    let mut table = Table::new(
        "BENCH_kernels",
        "ext: scalar vs simd kernel throughput (bit-identical f32)",
        &[
            "kernel",
            "shape",
            "threads",
            "scalar GFLOP/s",
            "simd GFLOP/s",
            "speedup",
        ],
    );
    for mut group in kernel_cases(profile) {
        for threads in [1usize, 4] {
            betty_runtime::with_threads(threads, || {
                for case in &mut group {
                    let mut bits_on = |backend| {
                        with_backend(backend, || (case.run)(&mut case.out));
                        bits(&case.out)
                    };
                    assert_eq!(
                        bits_on(Backend::Scalar),
                        bits_on(Backend::Simd),
                        "{} at {} threads: simd must be bit-identical to scalar",
                        case.name,
                        threads
                    );
                }
                let mut best = vec![[f64::MAX; 2]; group.len()];
                let mut miss = None;
                for round in 1..=4 * rounds {
                    for (case, best) in group.iter_mut().zip(&mut best) {
                        for (backend, best) in [Backend::Scalar, Backend::Simd].into_iter().zip(best) {
                            let sec = best_of_a_burst(|| with_backend(backend, || (case.run)(&mut case.out)));
                            *best = best.min(sec);
                        }
                    }
                    miss = unmet_floor(&group, &best, threads);
                    if round >= rounds && miss.is_none() {
                        break;
                    }
                }
                if let Some(miss) = miss {
                    panic!("{miss}");
                }
                for (case, &[scalar_sec, simd_sec]) in group.iter().zip(&best) {
                    table.row(vec![
                        case.name.to_string(),
                        case.shape.clone(),
                        threads.to_string(),
                        format!("{:.2}", case.flops / scalar_sec / 1e9),
                        format!("{:.2}", case.flops / simd_sec / 1e9),
                        format!("{:.2}x", scalar_sec / simd_sec),
                    ]);
                }
            });
        }
    }
    table.finish();
}

/// One steady-state training measurement under a pinned backend: plan
/// once, warm up one epoch, then time `epochs` epochs over the same
/// micro-batches.
fn epoch_time(ds: &betty_data::Dataset, backend: Backend, epochs: usize) -> (f64, Vec<u64>) {
    with_backend(backend, || {
        let config = ExperimentConfig {
            fanouts: vec![5, 10],
            hidden_dim: 64,
            dropout: 0.0,
            ..ExperimentConfig::default()
        };
        let mut runner = Runner::new(ds, &config, 0);
        let batch = runner.sample_full_batch(ds);
        let micros = runner
            .plan_fixed(&batch, StrategyKind::Betty, 4)
            .micro_batches;
        runner
            .train_micro_batches(ds, &micros)
            .expect("default capacity fits the bench batch");
        let mut losses = Vec::new();
        let t0 = Instant::now();
        for _ in 0..epochs {
            let stats = runner
                .train_micro_batches(ds, &micros)
                .expect("warmed epoch must fit");
            losses.push(stats.loss.to_bits());
        }
        (t0.elapsed().as_secs_f64() / epochs as f64, losses)
    })
}

fn epoch_table(profile: Profile) {
    let ds = DatasetSpec::reddit()
        .scaled(match profile {
            Profile::Quick => 0.002,
            Profile::Full => 0.01,
        })
        .with_feature_dim(128)
        .generate(7);
    let epochs = profile.epochs(6);
    let (scalar_sec, scalar_losses) = epoch_time(&ds, Backend::Scalar, epochs);
    let (simd_sec, simd_losses) = epoch_time(&ds, Backend::Simd, epochs);
    assert_eq!(
        scalar_losses, simd_losses,
        "f32 training losses must be bit-identical across backends"
    );
    let speedup = scalar_sec / simd_sec;
    assert!(
        speedup >= MIN_EPOCH_SPEEDUP,
        "end-to-end simd speedup {speedup:.2}x below the {MIN_EPOCH_SPEEDUP:.2}x floor"
    );
    let mut table = Table::new(
        "BENCH_kernels_epoch",
        "ext: end-to-end epoch time, scalar vs simd (losses bit-identical)",
        &[
            "dataset",
            "epochs",
            "scalar s/epoch",
            "simd s/epoch",
            "speedup",
        ],
    );
    table.row(vec![
        format!("{} ({} nodes)", ds.name, ds.num_nodes()),
        epochs.to_string(),
        format!("{scalar_sec:.3}"),
        format!("{simd_sec:.3}"),
        format!("{speedup:.2}x"),
    ]);
    table.finish();
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn activation_table(profile: Profile) {
    let (reps, len) = match profile {
        Profile::Quick => (5, 1 << 18),
        Profile::Full => (15, 1 << 20),
    };
    // Pre-activations as the LSTM gates see them: a few units either side
    // of zero, some saturated.
    let x = Tensor::from_vec(
        (0..len).map(|i| ((i as f32) * 0.37).sin() * 9.0).collect(),
        &[len],
    )
    .unwrap();
    /// Name, libm's element function, this crate's slice kernel.
    type Case = (&'static str, fn(f32) -> f32, fn(&Tensor, &mut [f32]));
    let cases: [Case; 2] = [
        ("tanh", f32::tanh, kernels::tanh_into),
        ("sigmoid", |v| 1.0 / (1.0 + (-v).exp()), kernels::sigmoid_into),
    ];
    let mut table = Table::new(
        "ext_kernels_activations",
        "ext: shared tanh / sigmoid vs libm, same run (backends bit-identical)",
        &[
            "kernel",
            "elements",
            "libm Melem/s",
            "scalar Melem/s",
            "simd Melem/s",
            "speedup",
        ],
    );
    let mut out = vec![0.0f32; len];
    for (name, libm, ours) in cases {
        kernels::map_into(&x, &mut out, libm);
        let reference = out.clone();
        let [scalar, simd] = [Backend::Scalar, Backend::Simd].map(|backend| {
            with_backend(backend, || ours(&x, &mut out));
            out.clone()
        });
        assert_eq!(bits(&scalar), bits(&simd), "{name}: simd must be bit-identical to scalar");
        let worst = simd
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= 1e-6, "{name}: {worst:e} away from libm");
        // Best of `reps` rounds of libm, scalar and simd in turn: load falls on all three alike.
        let [libm_sec, scalar_sec, simd_sec] = (0..reps).fold([f64::MAX; 3], |best, _| {
            let libm_sec = best_of(1, || kernels::map_into(&x, &mut out, libm));
            let scalar_sec = best_of(1, || with_backend(Backend::Scalar, || ours(&x, &mut out)));
            let simd_sec = best_of(1, || with_backend(Backend::Simd, || ours(&x, &mut out)));
            [best[0].min(libm_sec), best[1].min(scalar_sec), best[2].min(simd_sec)]
        });
        let speedup = libm_sec / simd_sec;
        assert!(
            speedup >= MIN_ACTIVATION_SPEEDUP,
            "{name}: {speedup:.1}x over libm is below the {MIN_ACTIVATION_SPEEDUP:.1}x floor"
        );
        let rate = |sec: f64| format!("{:.0}", len as f64 / sec / 1e6);
        table.row(vec![
            name.to_string(),
            len.to_string(),
            rate(libm_sec),
            rate(scalar_sec),
            rate(simd_sec),
            format!("{speedup:.2}x"),
        ]);
    }
    table.finish();
}

/// One packed `Graph::lstm_sequence` call: its source rows and sizes.
type LstmCall = (Vec<usize>, Vec<usize>);

/// One forward + backward of `Graph::lstm_sequence` over each call on a
/// warm tape; returns the weight gradient's bits.
fn lstm_step(g: &mut Graph, operands: &[Tensor; 3], calls: &[LstmCall]) -> Vec<u32> {
    g.reset();
    let [src, w, b] = operands;
    // Gathered input features are gradient-free in training.
    let src = g.constant(src.clone());
    let w = g.leaf(w.clone());
    let b = g.leaf(b.clone());
    let sums: Vec<VarId> = calls
        .iter()
        .map(|(steps, sizes)| {
            let h = g.lstm_sequence(src, steps, sizes, w, b);
            g.sum(h)
        })
        .collect();
    let loss = sums[1..].iter().fold(sums[0], |acc, &s| g.add(acc, s));
    g.backward(loss);
    bits(g.grad(w).expect("weight gradient").data())
}

/// `n` destinations with power-law in-degrees capped at `fanout` (a
/// Pareto tail of exponent 1 sampled at fixed quantiles, as a sampled
/// block of a power-law graph has them), each with its own neighbour
/// list over `src_rows` source rows; returned as one packed call and as
/// one uniform call per distinct degree over the same edges.
fn power_law_calls(n: usize, fanout: usize, src_rows: usize) -> (LstmCall, Vec<LstmCall>) {
    let lists: Vec<Vec<usize>> = (0..n)
        .map(|r| {
            let u = ((r as f64 + 0.5) * 0.618_034).fract();
            let degree = (1.0 / u).floor().clamp(1.0, fanout as f64) as usize;
            (0..degree).map(|t| (r * 7919 + t * 104_729) % src_rows).collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(lists[r].len()));
    let longest = lists[order[0]].len();
    let (mut steps, mut sizes) = (Vec::new(), Vec::new());
    for t in 0..longest {
        let running = order.partition_point(|&r| lists[r].len() > t);
        sizes.push(running);
        steps.extend(order[..running].iter().map(|&r| lists[r][t]));
    }
    let by_degree = (1..=longest)
        .filter_map(|degree| {
            let members: Vec<&Vec<usize>> = lists.iter().filter(|l| l.len() == degree).collect();
            let steps = (0..degree).flat_map(|t| members.iter().map(move |l| l[t])).collect();
            (!members.is_empty()).then(|| (steps, vec![members.len(); degree]))
        })
        .collect();
    ((steps, sizes), by_degree)
}

fn lstm_table(profile: Profile) {
    let reps = match profile {
        Profile::Quick => 5,
        Profile::Full => 15,
    };
    let (width, src_rows) = (100usize, 4096usize);
    let scaled = |t: Tensor, s: f32| kernels::scale(&t, s);
    let operands = [
        dense(src_rows, width, 0.0),
        scaled(dense(2 * width, 4 * width, 1.0), 0.1),
        scaled(dense(1, 4 * width, 2.0), 0.1).reshape(&[4 * width]).unwrap(),
    ];
    let mut table = Table::new(
        "ext_kernels_lstm",
        "ext: fused LSTM sequence, forward + backward (weight gradients bit-identical)",
        &[
            "n",
            "L",
            "calls",
            "scalar ns/node-step",
            "simd ns/node-step",
            "speedup",
        ],
    );
    // Equal lengths (one uniform call), then `lstm2_k8`'s layer-0 shape:
    // power-law degrees up to the fanout 25, packed into one call and
    // run as one call per degree the way the aggregator bucketed them.
    let mut rows: Vec<(usize, String, Vec<LstmCall>)> = Vec::new();
    for n in [16usize, 1024] {
        for len in [5usize, 25] {
            let steps = (0..len * n).map(|k| (k * 7919) % src_rows).collect();
            rows.push((n, len.to_string(), vec![(steps, vec![n; len])]));
        }
    }
    let (packed, by_degree) = power_law_calls(1024, 25, src_rows);
    rows.push((1024, "1-25 packed".into(), vec![packed]));
    rows.push((1024, "1-25 by degree".into(), by_degree));
    betty_runtime::with_threads(1, || {
        let mut g = Graph::new();
        for (n, len, calls) in &rows {
            let [scalar, simd] = [Backend::Scalar, Backend::Simd]
                .map(|backend| with_backend(backend, || lstm_step(&mut g, &operands, calls)));
            assert_eq!(scalar, simd, "lstm n={n} L={len}: simd moved a gradient bit");
        }
        // Rows are timed in rounds, one call of each in turn, so the packed
        // and per-degree rows share whatever the clock does meanwhile.
        let mut best = vec![[f64::MAX; 2]; rows.len()];
        for _ in 0..reps {
            for ((_, _, calls), best) in rows.iter().zip(&mut best) {
                for (backend, best) in [Backend::Scalar, Backend::Simd].into_iter().zip(best) {
                    let sec = with_backend(backend, || best_of(1, || drop(lstm_step(&mut g, &operands, calls))));
                    *best = best.min(sec);
                }
            }
        }
        for ((n, len, calls), &[scalar_sec, simd_sec]) in rows.iter().zip(&best) {
            let node_steps: usize = calls.iter().map(|(steps, _)| steps.len()).sum();
            let speedup = scalar_sec / simd_sec;
            assert!(
                speedup >= MIN_KERNEL_SPEEDUP,
                "lstm n={n} L={len}: simd speedup {speedup:.2}x below the {MIN_KERNEL_SPEEDUP:.2}x floor"
            );
            let per_step = |sec: f64| format!("{:.0}", sec * 1e9 / node_steps as f64);
            table.row(vec![
                n.to_string(),
                len.clone(),
                calls.len().to_string(),
                per_step(scalar_sec),
                per_step(simd_sec),
                format!("{speedup:.2}x"),
            ]);
        }
    });
    table.finish();
}

/// A SAGE layer's dense half composed an op at a time, as `betty-nn`
/// taped it before `Graph::affine`.
fn composed_affine(g: &mut Graph, terms: &[AffineTerm; 2], rows: usize, relu: bool) -> VarId {
    let h_dst = g.slice_rows(terms[0].x, rows);
    let [own, neigh] = [(h_dst, &terms[0]), (terms[1].x, &terms[1])].map(|(x, t)| {
        let product = g.matmul(x, t.w);
        g.add_bias(product, t.bias.expect("both terms are biased"))
    });
    let sum = g.add(own, neigh);
    if relu {
        g.relu(sum)
    } else {
        sum
    }
}

/// What one forward + backward of a SAGE layer's dense half reports.
struct AffineRun {
    forward_sec: f64,
    backward_sec: f64,
    /// Bytes the map's own nodes add to the tape (operand leaves excluded).
    tape_bytes: usize,
    /// The output, then the gradients of both inputs, weights and biases.
    bits: Vec<Vec<u32>>,
}

/// `act(src[..rows]·W₀ + b₀ + agg·W₁ + b₁)` on a warm tape, fused or composed;
/// both inputs want gradients, as a hidden layer's do.
fn affine_step(g: &mut Graph, operands: &[Tensor; 6], rows: usize, relu: bool, fused: bool) -> AffineRun {
    g.reset();
    let v: Vec<VarId> = operands.iter().map(|t| g.leaf(t.clone())).collect();
    let terms = [
        AffineTerm { x: v[0], w: v[1], bias: Some(v[2]) },
        AffineTerm { x: v[3], w: v[4], bias: Some(v[5]) },
    ];
    let before = g.activation_bytes();
    let t0 = Instant::now();
    let y = if fused {
        g.affine(&terms, rows, relu)
    } else {
        composed_affine(g, &terms, rows, relu)
    };
    let forward_sec = t0.elapsed().as_secs_f64();
    let tape_bytes = g.activation_bytes() - before;
    let loss = g.sum(y);
    let t0 = Instant::now();
    g.backward(loss);
    let backward_sec = t0.elapsed().as_secs_f64();
    let mut out = vec![bits(g.value(y).data())];
    out.extend(v.iter().map(|&var| bits(g.grad(var).expect("every operand is a leaf").data())));
    AffineRun { forward_sec, backward_sec, tape_bytes, bits: out }
}

fn affine_table(profile: Profile) {
    let reps = match profile {
        Profile::Quick => 14,
        Profile::Full => 28,
    };
    let mut table = Table::new(
        "ext_kernels_affine",
        "ext: fused affine map vs the op-by-op composition (output and gradients bit-identical)",
        &[
            "shape",
            "n",
            "backend",
            "composed fwd us",
            "fused fwd us",
            "composed bwd us",
            "fused bwd us",
            "composed tape B",
            "fused tape B",
            "speedup",
        ],
    );
    betty_runtime::with_threads(1, || {
        for (d, o, relu) in [(100usize, 64usize, true), (64, 47, false)] {
            for n in [16usize, 1024, 8192] {
                // The self term reads a prefix: half as many sources again.
                let operands = [
                    dense(n + n / 2, d, 0.0),
                    kernels::scale(&dense(d, o, 1.0), 0.1),
                    dense(1, o, 2.0).reshape(&[o]).unwrap(),
                    dense(n, d, 3.0),
                    kernels::scale(&dense(d, o, 4.0), 0.1),
                    dense(1, o, 5.0).reshape(&[o]).unwrap(),
                ];
                let mut reference: Option<Vec<Vec<u32>>> = None;
                for backend in [Backend::Scalar, Backend::Simd] {
                    let mut g = Graph::new();
                    // Best of `reps + 1` each, alternated so that a drifting
                    // clock speed falls on both alike.
                    let [composed, fused] = with_backend(backend, || {
                        let mut best =
                            [false, true].map(|fused| affine_step(&mut g, &operands, n, relu, fused));
                        for _ in 0..reps {
                            for (run, fused) in best.iter_mut().zip([false, true]) {
                                let again = affine_step(&mut g, &operands, n, relu, fused);
                                run.forward_sec = run.forward_sec.min(again.forward_sec);
                                run.backward_sec = run.backward_sec.min(again.backward_sec);
                            }
                        }
                        best
                    });
                    let what = format!("affine [{n}, {d}] -> {o} on {backend}");
                    let reference = reference.get_or_insert_with(|| composed.bits.clone());
                    assert_eq!(&composed.bits, &*reference, "{what}: the backend moved a bit");
                    assert_eq!(&fused.bits, &*reference, "{what}: fusing moved a bit");
                    let share = fused.tape_bytes as f64 / composed.tape_bytes as f64;
                    assert!(
                        share <= MAX_AFFINE_TAPE_SHARE,
                        "{what}: tape share {share:.3} above {MAX_AFFINE_TAPE_SHARE}"
                    );
                    let us = |sec: f64| format!("{:.1}", sec * 1e6);
                    let total = |r: &AffineRun| r.forward_sec + r.backward_sec;
                    table.row(vec![
                        format!("{d}->{o}{}", if relu { "+relu" } else { "" }),
                        n.to_string(),
                        backend.to_string(),
                        us(composed.forward_sec),
                        us(fused.forward_sec),
                        us(composed.backward_sec),
                        us(fused.backward_sec),
                        composed.tape_bytes.to_string(),
                        fused.tape_bytes.to_string(),
                        format!("{:.2}x", total(&composed) / total(&fused)),
                    ]);
                }
            }
        }
    });
    table.finish();
}

/// Runs the exhibit.
pub fn run(profile: Profile) {
    kernel_table(profile);
    activation_table(profile);
    lstm_table(profile);
    affine_table(profile);
    epoch_table(profile);
}
