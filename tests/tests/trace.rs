//! The observability layer end to end: the trace's step and epoch
//! records must be the stats the calls returned, the JSONL export must be
//! schema-valid, the step records must certify admissible estimates for
//! the fused aggregators, and the memory timeline must be a consistent
//! replay of the device ledger. That tracing is invisible to the training
//! math is a cell family of `epoch_matrix`.

use betty::{
    validate_jsonl, DeviceGroup, EpochStats, ExperimentConfig, RecoveryEvent, Runner, SpanKind,
    StrategyKind, TraceRecorder,
};
use betty_data::{Dataset, DatasetSpec};
use betty_device::FaultPlan;
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

/// The fields of [`EpochStats`] that folding the epoch's steps with
/// [`EpochStats::absorb`] determines: no wall-clock timings, and nothing
/// the epoch call adds (host bytes, pool counters, plan-ahead overlap).
fn folded_fields(s: &EpochStats) -> [u64; 11] {
    [
        s.loss.to_bits(),
        s.num_steps as u64,
        s.max_peak_bytes as u64,
        s.estimated_peak_bytes as u64,
        s.estimator_drift.to_bits(),
        s.total_input_nodes as u64,
        s.total_src_nodes as u64,
        s.feature_hits,
        s.feature_misses,
        s.feature_pages_in,
        s.feature_page_in_bytes,
    ]
}

/// The trace is a view of what the epoch calls returned, not a copy kept
/// beside it: each `epoch` record is the [`EpochStats`] its call returned,
/// folding that epoch's `step` records reproduces it bit for bit, and
/// each step's `transfer`, `forward` and `backward` spans are its own
/// timings. Betty epochs carry the plan's estimates; mini-batch epochs,
/// which nothing priced, carry none.
#[test]
fn step_and_epoch_records_are_the_stats_the_calls_returned() {
    let ds = dataset();
    let mut runner = Runner::new(&ds, &config(AggregatorSpec::Mean), 0);
    runner.enable_tracing();
    let mut returned = Vec::new();
    for _ in 0..EPOCHS {
        let betty = runner.train_epoch_betty(&ds, StrategyKind::Betty, K);
        returned.push((betty.expect("default capacity fits the test batch"), false));
        let mini = runner.train_epoch_mini(&ds, K);
        returned.push((mini.expect("default capacity fits the test batch"), true));
    }
    let trace = runner.take_trace().expect("tracing was enabled");
    assert_eq!(trace.epochs().len(), returned.len());
    for (&(epoch, recorded), &(stats, mini)) in trace.epochs().iter().zip(&returned) {
        assert_eq!(
            recorded, stats,
            "epoch {epoch}: the record is the returned stats"
        );
        let mut folded = EpochStats::default();
        for r in trace.steps().iter().filter(|r| r.epoch == epoch) {
            folded.absorb(&r.stats);
        }
        if mini {
            // A mini-batch epoch reports the mean of its batches' losses.
            folded.loss /= folded.num_steps as f64;
            assert_eq!(
                stats.estimated_peak_bytes, 0,
                "epoch {epoch}: nothing priced"
            );
        } else {
            assert!(
                stats.estimated_peak_bytes > 0,
                "epoch {epoch}: the plan priced it"
            );
        }
        assert_eq!(
            folded_fields(&folded),
            folded_fields(&stats),
            "epoch {epoch}"
        );
    }
    let span = |kind: SpanKind, step: usize| {
        let mut matching = trace
            .spans()
            .iter()
            .filter(|s| s.kind == kind && s.step == Some(step));
        let span = matching
            .next()
            .unwrap_or_else(|| panic!("step {step} has no {kind} span"));
        assert!(
            matching.next().is_none(),
            "step {step} has two {kind} spans"
        );
        span.dur_sec
    };
    for r in trace.steps() {
        let s = &r.stats;
        assert_eq!(
            span(SpanKind::Transfer, s.step).to_bits(),
            s.transfer_sec.to_bits()
        );
        let compute = span(SpanKind::Forward, s.step) + span(SpanKind::Backward, s.step);
        assert!(
            (compute - s.compute_sec).abs() <= 1e-9,
            "step {}: forward + backward {compute} against compute {}",
            s.step,
            s.compute_sec
        );
    }
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
        "\"type\":\"step\"",
        "\"type\":\"epoch\"",
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
                assert_eq!(count, trace.steps().len(), "{} spans", kind.name());
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

/// The trace's fault records are the recovery-log entries recorded while
/// tracing — one each, with its epoch, its kind and the line the log
/// prints — and export as schema-valid JSONL. An epoch trained before
/// tracing began contributes none.
#[test]
fn fault_records_are_the_log_entries_recorded_while_tracing() {
    let ds = dataset();
    let cfg = ExperimentConfig {
        fault_plan: FaultPlan {
            transfer_stall_rate: 1.0,
            // Epoch 1's third step: the first traced epoch rolls back.
            nan_loss_steps: vec![K + 2],
            ..FaultPlan::default()
        },
        ..config(AggregatorSpec::Mean)
    };
    let mut runner = Runner::new(&ds, &cfg, 0);
    let group = DeviceGroup::new(1);
    let epoch = |runner: &mut Runner| {
        runner
            .train_epoch_elastic(&ds, StrategyKind::Betty, K, &group)
            .expect("one rollback is in the default budget");
    };
    epoch(&mut runner);
    let untraced = runner.recovery_log().len();
    assert!(untraced > 0, "every transfer of epoch 0 stalled");
    runner.enable_tracing();
    for _ in 1..EPOCHS {
        epoch(&mut runner);
    }
    let trace = runner.take_trace().expect("tracing was enabled");
    let entries = &runner.recovery_log().entries()[untraced..];
    let records: Vec<(usize, &str, String)> = trace
        .fault_records()
        .iter()
        .map(|r| (r.epoch, r.kind.as_str(), r.detail.clone()))
        .collect();
    let logged: Vec<(usize, &str, String)> = entries
        .iter()
        .map(|e| (e.epoch, e.event.kind(), e.event.to_string()))
        .collect();
    assert_eq!(records, logged);
    assert!(entries
        .iter()
        .any(|e| matches!(e.event, RecoveryEvent::AnomalyRollback { .. })));
    assert_eq!(
        records.first().map(|r| r.0),
        Some(1),
        "epoch 0 was not traced"
    );

    let jsonl = trace.to_jsonl();
    validate_jsonl(&jsonl).expect("exported trace must be valid JSONL");
    let faults = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"fault\""))
        .count();
    assert_eq!(faults, entries.len());
    assert!(jsonl.contains("\"kind\":\"anomaly_rollback\""), "{jsonl}");
    assert!(
        !jsonl.contains("\"type\":\"anomaly\""),
        "a caught NaN is a fault record"
    );
}

#[test]
fn pipelined_partition_work_overlaps_training_spans() {
    // Partition-ahead in action: epoch e's staging window (the
    // `plan_ahead` span, from its slot opening to bundle consumption)
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
        assert!(
            runner.plan_ahead_active(),
            "pipeline must be live at depth 2"
        );
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
        assert!(
            !trained_before.is_empty(),
            "epoch {} trained",
            window.epoch - 1
        );
        for span in trained_before {
            assert!(
                window.start_sec <= span.start_sec
                    && span.start_sec + span.dur_sec <= window.start_sec + window.dur_sec,
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
        assert_eq!(trace.steps().len(), EPOCHS * K);
        for r in trace.steps() {
            assert!(
                r.stats.drift().is_some_and(|drift| drift <= 1.0),
                "{aggregator:?} step {}: estimated {} < measured {}",
                r.stats.step,
                r.stats.estimated_bytes,
                r.stats.peak_bytes
            );
        }
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
    for record in trace.steps() {
        let (step, peak) = (record.stats.step, record.stats.peak_bytes);
        let step_max = events
            .iter()
            .filter(|(s, _)| *s == step)
            .map(|(_, e)| e.total_bytes)
            .max()
            .expect("peaked step has timeline events");
        assert_eq!(step_max, peak, "step {step}");
        let breakdown_sum: usize = record.breakdown.iter().map(|(_, b)| b).sum();
        assert_eq!(breakdown_sum, peak, "step {step} breakdown");
    }
}
