//! Extension exhibit: the `betty-trace` observability layer.
//!
//! Two claims are exercised end to end and persisted as
//! `experiments_out/BENCH_trace.json`:
//!
//! 1. **Zero-cost when disabled** — a traced run and an untraced run of
//!    the same seed produce bit-identical losses (tracing only adds
//!    bookkeeping, never math). The `loss match` column records the
//!    comparison.
//! 2. **Estimator admissibility** — for the fused Mean/Sum aggregators
//!    (the analytical model of Eq. 5 covers every taped value of every
//!    model kind; these two are the ones shown), every `step` record
//!    must show `estimated_bytes ≥ peak_bytes`: the drift ratio
//!    (measured/estimated) stays ≤ 1.0, so a plan that "fits" really
//!    fits. The worst ratio per configuration lands in the JSON artifact.
//!
//! The exported JSONL trace is also schema-checked with the dependency-free
//! validator (`betty::validate_jsonl`) — the same check CI's trace-smoke
//! job applies to the artifact.

use betty::{ExperimentConfig, Runner, SpanKind, StrategyKind};
use betty_nn::AggregatorSpec;

use crate::presets::bench_dataset;
use crate::report::Table;
use crate::Profile;

/// Runs the exhibit.
pub fn run(profile: Profile) {
    let ds = bench_dataset("ogbn-arxiv", profile);
    let epochs = profile.epochs(4);
    let k = 4usize;

    let mut table = Table::new(
        "BENCH_trace",
        "trace overhead and estimator drift (measured/estimated peak per micro-batch)",
        &[
            "aggregator",
            "epochs",
            "steps",
            "est peak MiB",
            "meas peak MiB",
            "drift ratio",
            "admissible",
            "loss match",
        ],
    );

    let mut combined_jsonl = String::new();
    for aggregator in [AggregatorSpec::Mean, AggregatorSpec::Sum] {
        let config = ExperimentConfig {
            fanouts: vec![5, 10],
            hidden_dim: 32,
            aggregator,
            // Dropout tapes mask tensors the analytical model deliberately
            // excludes; the admissibility claim is for the modelled
            // configuration.
            dropout: 0.0,
            ..ExperimentConfig::default()
        };
        let mut traced = Runner::new(&ds, &config, 0);
        traced.enable_tracing();
        let mut plain = Runner::new(&ds, &config, 0);
        let mut traced_bits = 0u64;
        let mut plain_bits = 0u64;
        let mut est_peak = 0usize;
        let mut meas_peak = 0usize;
        let mut drift = 0.0f64;
        let mut total_steps = 0usize;
        for _ in 0..epochs {
            let a = traced
                .train_epoch_betty(&ds, StrategyKind::Betty, k)
                .expect("default capacity fits the bench batch");
            let b = plain
                .train_epoch_betty(&ds, StrategyKind::Betty, k)
                .expect("default capacity fits the bench batch");
            traced_bits = a.loss.to_bits();
            plain_bits = b.loss.to_bits();
            est_peak = est_peak.max(a.estimated_peak_bytes);
            meas_peak = meas_peak.max(a.max_peak_bytes);
            drift = drift.max(a.estimator_drift);
            total_steps += a.num_steps;
        }
        assert_eq!(
            traced_bits, plain_bits,
            "tracing must not change the training math ({aggregator:?})"
        );

        let trace = traced.take_trace().expect("tracing was enabled");
        assert_eq!(trace.steps().len(), total_steps);
        for r in trace.steps() {
            let s = &r.stats;
            assert!(
                s.estimated_bytes >= s.peak_bytes,
                "{aggregator:?} estimate must be admissible: step {} estimated {} < measured {}",
                s.step,
                s.estimated_bytes,
                s.peak_bytes
            );
        }
        assert!(
            trace
                .spans()
                .iter()
                .any(|s| s.kind == SpanKind::Partition),
            "epoch-level spans must be present"
        );
        combined_jsonl.push_str(&trace.to_jsonl());
        println!("--- {aggregator:?} ---\n{}", trace.summary());

        table.row(vec![
            format!("{aggregator:?}"),
            epochs.to_string(),
            total_steps.to_string(),
            crate::report::mib(est_peak),
            crate::report::mib(meas_peak),
            format!("{drift:.4}"),
            "yes".to_string(),
            "bit-identical".to_string(),
        ]);
    }

    // Schema-check and persist the combined JSONL trace next to the table
    // artifact — the same validation CI applies.
    let lines = betty::validate_jsonl(&combined_jsonl)
        .unwrap_or_else(|(line, msg)| panic!("invalid JSONL at line {line}: {msg}"));
    assert!(lines > 0, "trace export must not be empty");
    if std::fs::create_dir_all("experiments_out").is_ok() {
        let _ = std::fs::write("experiments_out/trace.jsonl", &combined_jsonl);
        println!("wrote experiments_out/trace.jsonl ({lines} events)");
    }

    table.finish();
    println!(
        "note: drift ratio is measured/estimated peak — ≤ 1.0 means the \
         analytical model (Eq. 5) over-approximates safely; it itemises \
         every model kind's tape, dropout included, so 1.0000 is the \
         expected reading (see Table 7 for the other aggregators)."
    );
}
