//! The benchmark's workloads: what each trains, on what graph, and why.
//!
//! Everything here is frozen with the benchmark: a change that claims a
//! gain may not edit it. Sizes were chosen on a 2-core box so an epoch is
//! half a second to two seconds, a run of `run_seconds` holds a dozen to
//! forty-five of them, and the same seed repeats within a few percent (see
//! README.md for what larger graphs did to that).

use std::path::{Path, PathBuf};

use betty::{EpochStats, ExperimentConfig, ModelKind, RunError, Runner, StrategyKind};
use betty_data::{Dataset, DatasetSpec, FeatureStoreError};
use betty_device::gib;
use betty_nn::AggregatorSpec;
use betty_tensor::{Backend, DType};

/// How an epoch picks its partition count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// `Runner::train_epoch_betty` with this `K`.
    Fixed(usize),
    /// `Runner::train_epoch_auto`: the memory-aware loop under the
    /// workload's device capacity.
    Auto,
}

/// Where the node features live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Store {
    /// In memory.
    Dense,
    /// Spilled to shards of `page_rows` rows, with a cache of
    /// `cache_share` × the feature bytes.
    Paged { page_rows: usize, cache_share: f64 },
}

/// One workload: a dataset, a model and an epoch kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name used by `--workload` and in every report.
    pub name: &'static str,
    /// One line on what the workload stresses (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    /// Scale of `DatasetSpec::ogbn_products()`.
    pub scale: f64,
    /// Neighbour aggregator of the GraphSAGE model.
    pub aggregator: AggregatorSpec,
    /// Sampling fanouts, input-most layer first.
    pub fanouts: &'static [usize],
    /// Fixed or memory-aware partition count.
    pub plan: PlanMode,
    /// Simulated device capacity.
    pub capacity_bytes: usize,
    /// Feature backend.
    pub store: Store,
    /// Epochs executed and recorded before timing starts.
    pub warmup_epochs: usize,
    /// Timed epochs every run executes whatever `--seconds` says; the
    /// deterministic metrics (loss, peak bytes, epochs to target) read
    /// only these, so they do not depend on how fast the machine is.
    pub scored_epochs: usize,
    /// "Trained enough": the first epoch whose loss is at or below this
    /// share of epoch 1's loss. Epoch 1 is the first loss the optimizer
    /// has touched; epoch 0 is the random initialisation's, which varies
    /// by a fifth across seeds on the 3-layer model. Each share sits
    /// midway between two epochs' values over a dozen seeds of the seed
    /// commit, about 60 % of the way through the scored epochs, so every
    /// seed crosses it at the same epoch.
    pub target_loss_share: f64,
    /// Largest admissible measured/estimated peak ratio (paper Table 7
    /// allows the LSTM estimate 8 % error; fused mean is exact).
    pub max_estimator_drift: f64,
}

const MIB: usize = 1 << 20;

/// Hidden width of every workload's model.
pub const HIDDEN_DIM: usize = 64;
/// Dependants-set cap of the REG build, as `RegPartitioner::new` sets it.
pub const REG_HUB_CAP: usize = 32;
/// Validation nodes each `Runner::evaluate` call scores.
pub const EVAL_NODES: usize = 2000;
/// `Runner::evaluate` repetitions behind `eval_wall_s`.
pub const EVAL_REPS: usize = 5;
/// Set-ups behind `setup_s`.
pub const SETUP_REPS: usize = 7;

/// The four workloads, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mean2_k8",
            why: "canonical Betty path: 2-layer SAGE-mean at fixed K=8 on 98k nodes; REG build+cut is about half the epoch and forward/backward a third, so partitioning and kernels both show",
            scale: 0.04,
            aggregator: AggregatorSpec::Mean,
            fanouts: &[10, 25],
            plan: PlanMode::Fixed(8),
            capacity_bytes: gib(24),
            store: Store::Dense,
            warmup_epochs: 2,
            scored_epochs: 5,
            target_loss_share: 0.727,
            max_estimator_drift: 1.0,
        },
        Workload {
            name: "mean3_auto",
            why: "memory-aware planning: 3-layer SAGE-mean, fanouts 25,35,40, auto-K under a 22 MiB device; REG+cut+restrict+estimate rerun per probe is most of the epoch, compute a small share",
            scale: 0.01,
            aggregator: AggregatorSpec::Mean,
            fanouts: &[25, 35, 40],
            plan: PlanMode::Auto,
            capacity_bytes: 22 * MIB,
            store: Store::Dense,
            warmup_epochs: 1,
            scored_epochs: 5,
            target_loss_share: 0.836,
            max_estimator_drift: 1.0,
        },
        Workload {
            name: "lstm2_k8",
            why: "the paper's memory-hungry aggregator: 2-layer SAGE-LSTM at K=8; forward+backward is nearly the whole epoch (matmul and elementwise bound), planning a few percent",
            scale: 0.01,
            aggregator: AggregatorSpec::Lstm,
            fanouts: &[10, 25],
            plan: PlanMode::Fixed(8),
            capacity_bytes: gib(24),
            store: Store::Dense,
            warmup_epochs: 1,
            scored_epochs: 5,
            target_loss_share: 0.849,
            max_estimator_drift: 1.08,
        },
        Workload {
            name: "mean2_k8_paged",
            why: "out-of-core features: mean2_k8's model and K with features spilled to 256-row shards and a 90 % cache; gather and page-in dominate, losses must equal the dense run bit for bit",
            scale: 0.01,
            aggregator: AggregatorSpec::Mean,
            fanouts: &[10, 25],
            plan: PlanMode::Fixed(8),
            capacity_bytes: gib(24),
            store: Store::Paged {
                page_rows: 256,
                cache_share: 0.9,
            },
            warmup_epochs: 1,
            scored_epochs: 5,
            target_loss_share: 0.719,
            max_estimator_drift: 1.0,
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` profile: the same workload on a graph small enough
    /// that all four, traced and untraced, finish in seconds. Targets and
    /// capacities are rescaled so every output check still applies.
    pub fn smoke(mut self) -> Self {
        self.scale = if self.scale > 0.02 { 0.004 } else { 0.0015 };
        self.warmup_epochs = 1;
        self.scored_epochs = 2;
        // The one epoch after epoch 1 lowers the loss by a tenth, nowhere
        // near the full profile's target.
        self.target_loss_share = 0.97;
        if self.plan == PlanMode::Auto {
            self.capacity_bytes = 10 * MIB;
        }
        self
    }

    /// The dense twin of a paged workload (identity for dense ones): the
    /// reference its losses are checked against.
    pub fn dense_twin(&self) -> Self {
        Self {
            store: Store::Dense,
            ..self.clone()
        }
    }

    /// The experiment configuration: paper defaults except dropout 0, so
    /// fused-mean estimates are exact and losses are seed-deterministic.
    pub fn config(&self) -> ExperimentConfig {
        ExperimentConfig {
            fanouts: self.fanouts.to_vec(),
            hidden_dim: HIDDEN_DIM,
            aggregator: self.aggregator,
            model: ModelKind::GraphSage,
            dropout: 0.0,
            capacity_bytes: self.capacity_bytes,
            precision: DType::F32,
            plan_ahead: 0,
            ..ExperimentConfig::default()
        }
    }

    /// Generates the dataset for `seed`, spilling features under
    /// `shard_dir` when the workload is paged.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError`] if the shards cannot be written.
    pub fn dataset(&self, seed: u64, shard_dir: &Path) -> Result<Dataset, FeatureStoreError> {
        let mut dataset = DatasetSpec::ogbn_products()
            .scaled(self.scale)
            .generate(seed);
        if let Store::Paged {
            page_rows,
            cache_share,
        } = self.store
        {
            let budget = (dataset.features.size_bytes() as f64 * cache_share) as usize;
            dataset.features = dataset.features.to_paged(shard_dir, page_rows, budget)?;
        }
        Ok(dataset)
    }

    /// One training epoch through the public `Runner` entry point this
    /// workload measures; returns the stats and the `K` trained with.
    ///
    /// # Errors
    ///
    /// [`RunError`] on OOM, an unreachable capacity or a storage failure.
    pub fn train_epoch(
        &self,
        runner: &mut Runner,
        dataset: &Dataset,
    ) -> Result<(EpochStats, usize), RunError> {
        match self.plan {
            PlanMode::Fixed(k) => {
                let stats = runner.train_epoch_betty(dataset, StrategyKind::Betty, k)?;
                Ok((stats, stats.num_steps))
            }
            PlanMode::Auto => runner.train_epoch_auto(dataset, StrategyKind::Betty),
        }
    }
}

/// Worker threads of every timed epoch: one.
///
/// The layers fan out with `std::thread::scope`, a spawn per kernel call,
/// and their parallel sections are short: at two threads on this 2-core
/// shared box the same seed's median epoch read 0.50 s in one process and
/// 0.77 s in the next, in phases of ten seconds that follow where the
/// scheduler wakes the workers, for a mean gain of a few percent. That
/// measures the scheduler. At one thread the same epochs repeat within
/// 2-4 %. What threads buy is kept in view by the traced run's
/// `runtime.threaded_epoch_ratio`, which has no bound.
pub const BENCH_THREADS: usize = 1;

/// Threads of the traced run's threaded comparison: `min(nproc, 4)`.
pub fn comparison_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Pins the process-wide knobs every run shares (closed loop, one
/// process): worker threads and the simd backend.
pub fn pin_process_settings() {
    betty_runtime::set_thread_override(Some(BENCH_THREADS));
    betty_tensor::set_backend_override(Some(Backend::Simd));
}

/// The benchmark's own directory (holds `results/`), fixed at build time:
/// the driver builds inside the checkout it runs in.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where reports, traces and temporary shards go (git-ignored).
pub fn results_dir() -> PathBuf {
    benchmark_dir().join("results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for name in names {
            assert_eq!(find(name).unwrap().name, name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn configs_validate_and_smoke_stays_small() {
        for w in all() {
            w.config().validate().unwrap();
            let smoke = w.clone().smoke();
            smoke.config().validate().unwrap();
            assert!(smoke.scale <= 0.005);
            assert_eq!(smoke.plan, w.plan);
            assert_eq!(smoke.store, w.store);
            assert_eq!(w.dense_twin().store, Store::Dense);
        }
    }
}
