//! The observability layer end to end: tracing must be invisible to the
//! training math, the JSONL export must be schema-valid, the estimator
//! drift report must certify admissible estimates for the fused
//! aggregators, and the memory timeline must be a consistent replay of the
//! device ledger.

use betty::{
    validate_jsonl, EpochStats, ExperimentConfig, Runner, SpanKind, StrategyKind, TraceRecorder,
};
use betty_data::{Dataset, DatasetSpec};
use betty_nn::AggregatorSpec;

const EPOCHS: usize = 3;
const K: usize = 4;

fn dataset() -> Dataset {
    DatasetSpec::ogbn_arxiv()
        .scaled(0.004)
        .with_feature_dim(16)
        .generate(8)
}

fn config(aggregator: AggregatorSpec) -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![5, 10],
        hidden_dim: 16,
        aggregator,
        dropout: 0.0,
        ..ExperimentConfig::default()
    }
}

/// The deterministic subset of [`EpochStats`] — everything except
/// wall-clock timings, which can never be bit-identical across runs.
fn deterministic_fields(s: &EpochStats) -> (u64, usize, usize, usize, u64, usize) {
    (
        s.loss.to_bits(),
        s.num_steps,
        s.max_peak_bytes,
        s.estimated_peak_bytes,
        s.estimator_drift.to_bits(),
        s.host_bytes,
    )
}

fn traced_run(aggregator: AggregatorSpec) -> (Vec<EpochStats>, TraceRecorder) {
    let ds = dataset();
    let mut runner = Runner::new(&ds, &config(aggregator), 0);
    runner.enable_tracing();
    let stats: Vec<EpochStats> = (0..EPOCHS)
        .map(|_| {
            runner
                .train_epoch_betty(&ds, StrategyKind::Betty, K)
                .expect("default capacity fits the test batch")
        })
        .collect();
    let trace = runner.take_trace().expect("tracing was enabled");
    (stats, trace)
}

#[test]
fn tracing_on_and_off_produce_identical_epoch_stats() {
    let ds = dataset();
    let mut plain = Runner::new(&ds, &config(AggregatorSpec::Mean), 0);
    let (traced_stats, trace) = traced_run(AggregatorSpec::Mean);
    for (epoch, traced) in traced_stats.iter().enumerate() {
        let untraced = plain
            .train_epoch_betty(&ds, StrategyKind::Betty, K)
            .expect("default capacity fits the test batch");
        assert_eq!(
            deterministic_fields(traced),
            deterministic_fields(&untraced),
            "epoch {epoch}: tracing changed the training outcome"
        );
    }
    assert!(!trace.is_empty());
}

#[test]
fn jsonl_export_is_valid_and_covers_every_event_type() {
    let (_, trace) = traced_run(AggregatorSpec::Mean);
    let jsonl = trace.to_jsonl();
    let lines = validate_jsonl(&jsonl)
        .unwrap_or_else(|(line, msg)| panic!("invalid JSONL at line {line}: {msg}"));
    assert_eq!(lines, jsonl.lines().count());
    for needle in [
        "\"type\":\"span\"",
        "\"type\":\"mem\"",
        "\"type\":\"peak\"",
        "\"type\":\"drift\"",
    ] {
        assert!(jsonl.contains(needle), "export is missing {needle} events");
    }
    // Every pipeline phase shows up, each once per epoch or once per step.
    for kind in SpanKind::ALL {
        let count = trace.spans().iter().filter(|s| s.kind == kind).count();
        match kind {
            SpanKind::Sample | SpanKind::Partition | SpanKind::Plan => {
                assert_eq!(count, EPOCHS, "{} spans", kind.name());
            }
            SpanKind::Transfer | SpanKind::Forward | SpanKind::Backward => {
                assert_eq!(count, trace.drift_records().len(), "{} spans", kind.name());
            }
            // Single-device epochs never all-reduce, fail over, or
            // retry a sync link — this run plans synchronously
            // (`plan_ahead: 0`), and with no storage faults armed
            // nothing is ever repaired from parity.
            SpanKind::Allreduce
            | SpanKind::Failover
            | SpanKind::LinkRetry
            | SpanKind::PlanAhead
            | SpanKind::StorageRepair => {
                assert_eq!(count, 0, "{} spans", kind.name());
            }
        }
    }
}

#[test]
fn pipelined_partition_work_overlaps_training_spans() {
    // Partition-ahead in action: epoch e's staging window (the
    // `plan_ahead` span, from sampling start to bundle consumption)
    // must contain epoch e−1's forward/backward spans — the partition
    // work literally ran while the previous epoch trained. And the
    // losses must still match the synchronous run bit for bit.
    let ds = dataset();
    let (losses, trace) = betty_runtime::with_threads(4, || {
        let pipelined_cfg = ExperimentConfig {
            plan_ahead: 2,
            ..config(AggregatorSpec::Mean)
        };
        let mut runner = Runner::new(&ds, &pipelined_cfg, 0);
        runner.enable_tracing();
        let losses: Vec<u64> = (0..EPOCHS)
            .map(|_| {
                runner
                    .train_epoch_betty(&ds, StrategyKind::Betty, K)
                    .expect("default capacity fits the test batch")
                    .loss
                    .to_bits()
            })
            .collect();
        assert!(runner.plan_ahead_active(), "pipeline must be live at depth 2");
        (losses, runner.take_trace().expect("tracing was enabled"))
    });

    let spans = trace.spans();
    let staging: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::PlanAhead)
        .collect();
    // Epoch 0 spawns the pipeline and consumes its first bundle without
    // overlap; epochs 1.. consume bundles staged during the previous
    // epoch.
    assert_eq!(staging.len(), EPOCHS, "one staging window per epoch");
    for window in staging.iter().filter(|s| s.epoch > 0) {
        let trained_before: Vec<_> = spans
            .iter()
            .filter(|s| {
                s.epoch == window.epoch - 1
                    && matches!(s.kind, SpanKind::Forward | SpanKind::Backward)
            })
            .collect();
        assert!(!trained_before.is_empty(), "epoch {} trained", window.epoch - 1);
        for span in trained_before {
            assert!(
                window.start_sec <= span.start_sec
                    && span.start_sec + span.dur_sec
                        <= window.start_sec + window.dur_sec,
                "epoch {}'s staging window [{:.6}, {:.6}] must contain epoch {}'s \
                 {} span [{:.6}, {:.6}]",
                window.epoch,
                window.start_sec,
                window.start_sec + window.dur_sec,
                span.epoch,
                span.kind.name(),
                span.start_sec,
                span.start_sec + span.dur_sec,
            );
        }
    }

    // The staged run's losses are bit-identical to the synchronous one.
    let mut sync = Runner::new(&ds, &config(AggregatorSpec::Mean), 0);
    let sync_losses: Vec<u64> = (0..EPOCHS)
        .map(|_| {
            sync.train_epoch_betty(&ds, StrategyKind::Betty, K)
                .expect("default capacity fits the test batch")
                .loss
                .to_bits()
        })
        .collect();
    assert_eq!(losses, sync_losses, "pipelining changed the math");
}

#[test]
fn drift_report_certifies_admissible_estimates_for_fused_aggregators() {
    for aggregator in [AggregatorSpec::Mean, AggregatorSpec::Sum] {
        let (stats, trace) = traced_run(aggregator);
        assert!(!trace.drift_records().is_empty());
        assert!(
            trace.all_admissible(),
            "{aggregator:?}: worst drift {:.4}",
            trace.max_drift_ratio()
        );
        for (epoch, s) in stats.iter().enumerate() {
            assert!(
                s.estimated_peak_bytes >= s.max_peak_bytes,
                "{aggregator:?} epoch {epoch}: estimated {} < measured {}",
                s.estimated_peak_bytes,
                s.max_peak_bytes
            );
            assert!(s.estimator_drift > 0.0 && s.estimator_drift <= 1.0);
        }
    }
}

#[test]
fn memory_timeline_replays_the_ledger_consistently() {
    let (_, trace) = traced_run(AggregatorSpec::Mean);
    let events = trace.mem_events();
    assert!(!events.is_empty());
    // Sequence numbers are strictly increasing and each event's running
    // total is the previous total plus its delta — the timeline is a
    // gap-free replay of every ledger mutation.
    let mut prev_seq = None;
    let mut prev_total = 0i64;
    for (_, e) in events {
        if let Some(p) = prev_seq {
            assert!(e.seq > p, "seq went backwards: {} after {p}", e.seq);
        }
        assert_eq!(
            prev_total + e.delta_bytes,
            e.total_bytes as i64,
            "running total diverged at seq {}",
            e.seq
        );
        prev_seq = Some(e.seq);
        prev_total = e.total_bytes as i64;
    }
    // The per-step maximum of the timeline's running total is exactly the
    // step peak the recorder captured (with its at-peak category snapshot
    // summing to the same number).
    for peak in trace.peaks() {
        let step = peak.step;
        let step_max = events
            .iter()
            .filter(|(s, _)| *s == step)
            .map(|(_, e)| e.total_bytes)
            .max()
            .expect("peaked step has timeline events");
        assert_eq!(step_max, peak.peak_bytes, "step {step}");
        let breakdown_sum: usize = peak.breakdown.iter().map(|(_, b)| b).sum();
        assert_eq!(breakdown_sum, peak.peak_bytes, "step {step} breakdown");
    }
}
