//! **Betty** — batch-level graph partitioning for large-scale GNN training.
//!
//! A from-scratch Rust reproduction of *Betty: Enabling Large-Scale GNN
//! Training with Batch-Level Graph Partitioning* (Yang, Zhang, Dong & Li,
//! ASPLOS 2023). Betty fits large GNN training batches onto a memory-
//! limited accelerator by splitting each multi-level bipartite batch into
//! `K` micro-batches, trained sequentially with gradient accumulation —
//! which is mathematically equivalent to full-batch training — and chooses
//! the split with two techniques:
//!
//! 1. **REG partitioning** ([`betty_partition::RegPartitioner`]): min-cut of
//!    the Redundancy-Embedded Graph, minimizing input nodes duplicated
//!    across micro-batches.
//! 2. **Memory-aware re-partitioning** ([`MemoryAwarePlanner`]): an
//!    analytical estimator predicts each micro-batch's peak memory and `K`
//!    grows until the largest micro-batch fits the device.
//!
//! The [`Trainer`] executes (micro-)batches on the real autograd engine
//! while charging every tensor to a simulated device
//! ([`betty_device::Device`]), so OOM behaviour, memory breakdowns and
//! redundancy-driven compute costs are all measurable. The [`Runner`]
//! drives whole epochs — sample, plan, re-plan until it fits, train with
//! gradient accumulation, one optimizer step — through a single executor
//! that every `train_epoch_*` entry point configures (DESIGN.md, "Epoch
//! executor").
//!
//! # Quickstart
//!
//! ```
//! use betty::{ExperimentConfig, ModelKind, StrategyKind};
//! use betty_data::DatasetSpec;
//! use betty_device::gib;
//! use betty_nn::AggregatorSpec;
//!
//! let dataset = DatasetSpec::cora().scaled(0.1).with_feature_dim(32).generate(0);
//! let config = ExperimentConfig {
//!     fanouts: vec![5, 10],
//!     hidden_dim: 16,
//!     aggregator: AggregatorSpec::Mean,
//!     model: ModelKind::GraphSage,
//!     capacity_bytes: gib(1),
//!     ..ExperimentConfig::default()
//! };
//! let mut runner = betty::Runner::new(&dataset, &config, 0);
//! let epoch = runner.train_epoch_betty(&dataset, StrategyKind::Betty, 2).unwrap();
//! assert!(epoch.loss.is_finite());
//! ```

#![deny(missing_docs)]

mod accounting;
mod config;
pub mod durable;
mod eval;
pub mod fit;
pub mod multi;
mod pipeline;
mod planner;
mod recovery;
mod runner;
mod stats;
mod strategy;
mod trainer;

pub use config::{ExperimentConfig, ModelKind};
pub use durable::{
    latest_checkpoint, latest_valid_checkpoint, load_checkpoint_state, CheckpointPlan,
    CheckpointResolution,
};
pub use eval::{accuracy, accuracy_full_graph, predict, predict_full_graph};
pub use fit::{fit, fit_with_log, FitConfig, FitReport};
pub use multi::{
    lpt_assignment, simulate_elastic_schedule, DeviceGroup, DeviceHealth, DevicesExhausted,
    ElasticSchedule, Failover, MultiDeviceEpoch,
};
pub use planner::{MemoryAwarePlanner, Plan, PlanError};
pub use recovery::{RecoveryEntry, RecoveryEvent, RecoveryLog, RetryPolicy};
pub use runner::{RunError, Runner, LSTM_TAPE_CONSTANT};
pub use stats::{EpochStats, StepStats};
pub use strategy::{build_strategy, StrategyKind};
pub use trainer::{AnomalyKind, StepPhase, TrainError, Trainer, TrainerSnapshot};

// Re-exported observability types (crate `betty-trace`), so trace
// consumers — CLI, benches, tests — need no direct dependency.
pub use betty_trace::{
    validate_jsonl, DriftRecord, FaultRecord, MemEvent, MemTimeline, PeakRecord, SpanKind,
    SpanRecord, TraceRecorder,
};

use betty_device::AggregatorKind;
use betty_nn::AggregatorSpec;

/// Maps the nn-crate aggregator spec onto the device-crate estimator kind.
pub fn aggregator_kind(spec: AggregatorSpec) -> AggregatorKind {
    match spec {
        AggregatorSpec::Mean => AggregatorKind::Mean,
        AggregatorSpec::Sum => AggregatorKind::Sum,
        AggregatorSpec::Pool => AggregatorKind::Pool,
        AggregatorSpec::Lstm => AggregatorKind::Lstm,
    }
}
