//! Estimator-vs-ledger agreement (the basis of Table 7) and OOM behaviour
//! (the basis of Figs. 2 and 10).

use betty::{ExperimentConfig, ModelKind, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::gib;
use betty_nn::AggregatorSpec;

fn dataset() -> Dataset {
    DatasetSpec::ogbn_arxiv()
        .scaled(0.003)
        .with_feature_dim(16)
        .generate(8)
}

fn config(aggregator: AggregatorSpec) -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![5, 10],
        hidden_dim: 16,
        aggregator,
        dropout: 0.0,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

/// The planner's estimate and the device ledger's measured peak, in
/// bytes, for each micro-batch.
fn estimates(aggregator: AggregatorSpec, k: usize) -> Vec<(f64, f64)> {
    let ds = dataset();
    let mut runner = Runner::new(&ds, &config(aggregator), 0);
    let batch = runner.sample_full_batch(&ds);
    let plan = runner.plan_fixed(&batch, StrategyKind::Betty, k);
    let mut pairs = Vec::new();
    for (mb, est) in plan.micro_batches.iter().zip(&plan.estimates) {
        // Execute exactly this micro-batch and read the measured peak.
        let mut solo = Runner::new(&ds, &config(aggregator), 0);
        let stats = solo
            .train_micro_batches(&ds, std::slice::from_ref(mb))
            .expect("8 GiB fits the test batch");
        pairs.push((est.peak_bytes() as f64, stats.max_peak_bytes as f64));
    }
    pairs
}

/// Relative error between estimate and measurement for each micro-batch.
fn estimation_errors(aggregator: AggregatorSpec, k: usize) -> Vec<f64> {
    estimates(aggregator, k)
        .into_iter()
        .map(|(predicted, measured)| (predicted - measured).abs() / measured)
        .collect()
}

#[test]
fn mean_estimation_error_is_small() {
    // All of this error is the next micro-batch's prefetch staging, which
    // the plan reserves and a micro-batch run on its own never fills
    // (`solo_run_error_is_the_unfilled_staging_reservation`) — always on
    // the safe side. A mean layer tapes only `d + o` values per
    // destination, so the next batch's inputs are up to a quarter of a
    // solo peak (24.5% here).
    for (predicted, measured) in estimates(AggregatorSpec::Mean, 4) {
        assert!(predicted >= measured, "mean under-estimated: {predicted} < {measured}");
        let err = (predicted - measured) / measured;
        assert!(err < 0.30, "mean-aggregator estimation error {err}");
    }
}

#[test]
fn lstm_estimation_error_within_paper_band() {
    // Table 7 reports < 8% for the LSTM aggregator. The fused sequence op
    // tapes exactly Eq. 5's six values per neighbor step, so what error
    // remains (≤ 5.7% here, 0 on the last micro-batch) is the next
    // micro-batch's prefetch staging, which the plan reserves and a
    // micro-batch run on its own never fills — always on the safe side.
    for (predicted, measured) in estimates(AggregatorSpec::Lstm, 4) {
        assert!(predicted >= measured, "lstm under-estimated: {predicted} < {measured}");
        let err = (predicted - measured) / measured;
        assert!(err < 0.08, "lstm estimation error {err}");
    }
}

#[test]
fn pool_estimation_error_is_bounded() {
    for err in estimation_errors(AggregatorSpec::Pool, 4) {
        assert!(err < 0.20, "pool estimation error {err}");
    }
}

/// What the solo-run comparisons above leave as error is exactly the
/// reservation a solo run cannot fill: without it the estimate is the
/// ledger's peak to the byte, for every aggregator and micro-batch.
#[test]
fn solo_run_error_is_the_unfilled_staging_reservation() {
    let ds = dataset();
    for aggregator in [AggregatorSpec::Mean, AggregatorSpec::Pool, AggregatorSpec::Lstm] {
        let mut runner = Runner::new(&ds, &config(aggregator), 0);
        let batch = runner.sample_full_batch(&ds);
        let plan = runner.plan_fixed(&batch, StrategyKind::Betty, 4);
        for (mb, est) in plan.micro_batches.iter().zip(&plan.estimates) {
            let mut solo = Runner::new(&ds, &config(aggregator), 0);
            let stats = solo
                .train_micro_batches(&ds, std::slice::from_ref(mb))
                .expect("8 GiB fits the test batch");
            assert_eq!(
                est.peak_bytes() - est.prefetch_staging,
                stats.max_peak_bytes,
                "{}",
                aggregator.name()
            );
        }
    }
}

#[test]
fn tight_capacity_triggers_oom_and_betty_rescues_it() {
    // Fig. 2 → Fig. 10 in miniature: full batch OOMs at a capacity that a
    // memory-aware plan satisfies.
    let ds = dataset();
    let mut probe = Runner::new(&ds, &config(AggregatorSpec::Mean), 0);
    let batch = probe.sample_full_batch(&ds);
    let full_peak = probe
        .plan_fixed(&batch, StrategyKind::Betty, 1)
        .max_estimated_peak();
    let quarter_peak = probe
        .plan_fixed(&batch, StrategyKind::Betty, 4)
        .max_estimated_peak();
    assert!(quarter_peak < full_peak);

    let tight = ExperimentConfig {
        capacity_bytes: (full_peak + quarter_peak) / 2,
        ..config(AggregatorSpec::Mean)
    };
    // Full-batch training OOMs…
    let mut full_runner = Runner::new(&ds, &tight, 0);
    match full_runner.train_epoch_betty(&ds, StrategyKind::Betty, 1) {
        Err(e) => assert!(e.oom().is_some(), "expected OOM, got {e:?}"),
        Ok(other) => panic!("expected OOM, got {other:?}"),
    }
    // …while the memory-aware loop finds a K that fits and trains.
    let mut auto_runner = Runner::new(&ds, &tight, 0);
    let (stats, k) = auto_runner
        .train_epoch_auto(&ds, StrategyKind::Betty)
        .expect("memory-aware planning must rescue");
    assert!(k > 1);
    assert!(stats.max_peak_bytes <= tight.capacity_bytes);
}

#[test]
fn gat_runner_memory_accounting_works() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        model: ModelKind::Gat,
        num_heads: 4,
        hidden_dim: 16,
        ..config(AggregatorSpec::Mean)
    };
    let mut runner = Runner::new(&ds, &cfg, 0);
    let batch = runner.sample_full_batch(&ds);
    let plan = runner.plan_fixed(&batch, StrategyKind::Betty, 2);
    // The attention estimator must be in the right ballpark (within 2× of
    // measured) so that planning with GAT is meaningful.
    let stats = runner.train_micro_batches(&ds, &plan.micro_batches).unwrap();
    let est = plan.max_estimated_peak() as f64;
    let meas = stats.max_peak_bytes as f64;
    let ratio = est / meas;
    assert!((0.5..2.0).contains(&ratio), "estimate/measured ratio {ratio}");
}

/// Eq. 5's contract, for every model the runner builds, with dropout off
/// and on and at both storage widths: the estimate itemises the tape
/// value for value, so no micro-batch of a plan measures above it — the
/// planner can trust a plan it accepted — nor below.
#[test]
fn eq5_equals_the_ledger_for_every_model() {
    use betty_tensor::DType;
    let ds = dataset();
    let sage = |aggregator| (ModelKind::GraphSage, aggregator);
    let models = [
        sage(AggregatorSpec::Mean),
        sage(AggregatorSpec::Sum),
        sage(AggregatorSpec::Pool),
        sage(AggregatorSpec::Lstm),
        (ModelKind::Gcn, AggregatorSpec::Mean),
        (ModelKind::Gin, AggregatorSpec::Mean),
        (ModelKind::Gat, AggregatorSpec::Mean),
    ];
    for (model, aggregator) in models {
        for dropout in [0.0, 0.1, 0.5] {
            for precision in [DType::F32, DType::Bf16] {
                let cfg = ExperimentConfig {
                    model,
                    num_heads: 4,
                    dropout,
                    precision,
                    ..config(aggregator)
                };
                let mut runner = Runner::new(&ds, &cfg, 0);
                runner.enable_tracing();
                runner
                    .train_epoch_betty(&ds, StrategyKind::Betty, 4)
                    .expect("8 GiB fits the test batch");
                let trace = runner.take_trace().expect("tracing was on");
                let drift = trace.drift_records();
                assert_eq!(drift.len(), 4);
                for d in drift {
                    assert_eq!(
                        d.measured_bytes,
                        d.estimated_bytes,
                        "{model:?}/{} dropout {dropout} {precision}: step {}",
                        aggregator.name(),
                        d.step
                    );
                }
            }
        }
    }
}
