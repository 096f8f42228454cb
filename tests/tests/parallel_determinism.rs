//! Property tests for the deterministic parallel pipeline: REG
//! construction, micro-batch materialization and the partition-ahead
//! pipeline must produce byte-identical results regardless of thread
//! count or pipeline depth.

use betty::{DeviceGroup, EpochStats, ExperimentConfig, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec};
use betty_device::{gib, FaultPlan};
use betty_graph::{dependency_reg, sample_batch, shared_neighbor_graph, CsrGraph, NodeId};
use betty_integration_tests::LogCounts;
use betty_nn::AggregatorSpec;
use betty_runtime::with_threads;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

/// Strategy: a random directed graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (10usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(n * 4));
        (Just(n), edges)
    })
}

fn dataset() -> Dataset {
    DatasetSpec::cora()
        .scaled(0.12)
        .with_feature_dim(16)
        .generate(5)
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        fanouts: vec![4, 8],
        hidden_dim: 16,
        aggregator: AggregatorSpec::Mean,
        dropout: 0.3,
        capacity_bytes: gib(8),
        ..ExperimentConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reg_build_is_byte_identical_across_thread_counts(
        (n, edges) in arb_graph(),
        seed in 0u64..1000,
        hub_cap in 4usize..64,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(8)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        let batch = sample_batch(&g, &seeds, &[5, 10], &mut rng);
        let serial = with_threads(1, || dependency_reg(&batch, hub_cap));
        for threads in [2usize, 8] {
            let parallel = with_threads(threads, || dependency_reg(&batch, hub_cap));
            prop_assert_eq!(&serial, &parallel, "REG diverged at {} threads", threads);
        }
        // The per-block co-occurrence kernel must hold the same property on
        // its own (it shards rows differently for small inputs).
        let block = batch.blocks().last().unwrap();
        let base = with_threads(1, || shared_neighbor_graph(block));
        for threads in [2usize, 8] {
            let parallel = with_threads(threads, || shared_neighbor_graph(block));
            prop_assert_eq!(&base, &parallel, "SNG diverged at {} threads", threads);
        }
    }
}

/// The deterministic subset of the last epoch's [`EpochStats`] and
/// recovery counts: everything except wall-clock timings and the
/// plan-ahead accounting extras (overlap, and the log's pipeline
/// invalidations, are *defined* to differ between a pipelined and a
/// synchronous epoch; they describe where time went, not what was
/// computed).
fn deterministic_stats(runner: &Runner, stats: &EpochStats) -> Vec<u64> {
    let log = LogCounts::of(runner, Some(runner.epochs_run() - 1));
    vec![
        stats.loss.to_bits(),
        stats.num_steps as u64,
        stats.max_peak_bytes as u64,
        stats.total_input_nodes as u64,
        stats.total_src_nodes as u64,
        stats.host_bytes as u64,
        log.retries as u64,
        log.anomaly_rollbacks as u64,
        log.injected_faults as u64,
        stats.estimated_peak_bytes as u64,
        stats.estimator_drift.to_bits(),
    ]
}

/// Final parameter bits, for trajectory-equality comparisons.
fn param_bits(runner: &Runner) -> Vec<u32> {
    runner
        .trainer()
        .model()
        .params()
        .iter()
        .flat_map(|p| p.value().data().iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The partition-ahead pipeline must be invisible to the math: for
    /// any depth × thread-count combination — including mid-run
    /// evaluation (which resets the pipeline) and injected OOMs (whose
    /// recovery invalidates staged plans and replans synchronously) —
    /// the per-epoch deterministic stats, the validation accuracy, and
    /// every final parameter bit must match the `plan_ahead: 0` run.
    #[test]
    fn plan_ahead_reproduces_synchronous_runs_bitwise(
        seed in 0u64..500,
        inject_oom in (0u8..2).prop_map(|b| b == 1),
    ) {
        let ds = dataset();
        let fault_plan = FaultPlan {
            // Global step 1 lands mid-run: its epoch OOMs, rolls back,
            // and recovery escalates K — staged plans must be discarded
            // without perturbing the trajectory.
            oom_steps: if inject_oom { vec![1] } else { vec![] },
            ..FaultPlan::default()
        };
        let run = |depth: usize, threads: usize| {
            with_threads(threads, || {
                let cfg = ExperimentConfig {
                    plan_ahead: depth,
                    fault_plan: fault_plan.clone(),
                    ..config()
                };
                let mut runner = Runner::new(&ds, &cfg, seed);
                let group = DeviceGroup::new(1);
                let mut epochs = Vec::new();
                for _ in 0..3 {
                    let epoch = runner
                        .train_epoch_elastic(&ds, StrategyKind::Betty, 1, &group)
                        .expect("retry budget covers the single injected OOM");
                    epochs.push(deterministic_stats(&runner, &epoch.combined));
                }
                assert_eq!(
                    runner.plan_ahead_active(),
                    depth > 0 && threads > 1,
                    "pipeline liveness must track depth and thread count"
                );
                // Evaluation draws from the sampler stream: it must reset
                // the pipeline and still see identical batches.
                let accuracy = runner.evaluate(&ds, &ds.val_idx).to_bits();
                assert!(!runner.plan_ahead_active(), "evaluation must reset the pipeline");
                for _ in 0..2 {
                    let epoch = runner
                        .train_epoch_elastic(&ds, StrategyKind::Betty, 1, &group)
                        .expect("post-evaluation epochs are fault-free");
                    epochs.push(deterministic_stats(&runner, &epoch.combined));
                }
                let params = param_bits(&runner);
                (epochs, accuracy, params)
            })
        };
        let reference = run(0, 1);
        for depth in [0usize, 1, 3] {
            for threads in [1usize, 4] {
                if depth == 0 && threads == 1 {
                    continue;
                }
                let other = run(depth, threads);
                prop_assert_eq!(
                    &reference, &other,
                    "depth {} × {} threads diverged (oom: {})",
                    depth, threads, inject_oom
                );
            }
        }
    }
}

#[test]
fn epoch_losses_invariant_under_thread_override() {
    // End-to-end determinism across the thread-count axis: planning
    // (parallel restrict), REG construction, and the kernels all route
    // through the shared pool, so overriding its width must not move a
    // single bit of the training trajectory.
    let ds = dataset();
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut runner = Runner::new(&ds, &config(), 9);
            (0..3)
                .map(|_| {
                    runner
                        .train_epoch_betty(&ds, StrategyKind::Betty, 4)
                        .expect("capacity is ample")
                        .loss
                        .to_bits()
                })
                .collect::<Vec<u64>>()
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(2), "2-thread run diverged from serial");
    assert_eq!(serial, run(8), "8-thread run diverged from serial");
}
