use betty_device::{gib, FaultPlan};
use betty_nn::AggregatorSpec;
use betty_tensor::DType;

use crate::recovery::RetryPolicy;

/// Which GNN architecture to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// GraphSAGE (the paper's primary model).
    GraphSage,
    /// Graph attention network (the paper's secondary model).
    Gat,
    /// Graph convolutional network (library extension; not evaluated in
    /// the paper, useful as a lightweight baseline model).
    Gcn,
    /// Graph isomorphism network (library extension; sum aggregation with
    /// a learnable ε and per-layer MLPs).
    Gin,
}

/// Everything that defines one training experiment.
///
/// Mirrors the knobs the paper sweeps: aggregator, layer count (via
/// `fanouts.len()`), hidden width, fanout degrees, and device capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Per-layer sampling fanouts, input-most layer first; the layer count
    /// is `fanouts.len()`. Use `usize::MAX` for full neighborhood.
    pub fanouts: Vec<usize>,
    /// Hidden width of the GNN.
    pub hidden_dim: usize,
    /// Neighbor aggregator (GraphSAGE only; GAT uses attention).
    pub aggregator: AggregatorSpec,
    /// Architecture.
    pub model: ModelKind,
    /// Attention heads (GAT only).
    pub num_heads: usize,
    /// Dropout probability between layers.
    pub dropout: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Simulated accelerator capacity in bytes (the paper's RTX 6000 has
    /// 24 GB).
    pub capacity_bytes: usize,
    /// Upper bound on micro-batch count for memory-aware re-partitioning.
    pub max_partitions: usize,
    /// Deterministic fault-injection schedule, armed at construction onto
    /// the trainer's device and transfer link, the all-reduce link and the
    /// paged feature store. The empty default injects nothing.
    pub fault_plan: FaultPlan,
    /// Recovery policy used by
    /// [`Runner::train_epoch_elastic`](crate::Runner::train_epoch_elastic),
    /// the one epoch call of the CLI's `train` loop.
    pub retry: RetryPolicy,
    /// Partition-ahead pipeline depth: how many future epochs' batches may
    /// be staged or in progress on one background planner thread while
    /// the current epoch trains. `0` (the default) is the classic
    /// synchronous path; any depth degrades to it when only one thread is
    /// configured. Losses, parameters, and deterministic epoch stats are
    /// bit-identical at every depth. The CLI exposes this as
    /// `--plan-ahead`.
    pub plan_ahead: usize,
    /// Storage dtype for node features and forward activations. `F32` is
    /// the paper's configuration; `Bf16`/`F16` store features and
    /// activations at half width (compute still accumulates in f32), which
    /// the memory estimator sees as smaller per-micro-batch footprints and
    /// the REG planner turns into fewer partitions on the same budget.
    /// Changes the trained function (values round through a 16-bit grid),
    /// so it is folded into `ExperimentConfig::fingerprint`. The CLI
    /// exposes this as `--precision`.
    pub precision: DType,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            fanouts: vec![10, 25],
            hidden_dim: 64,
            aggregator: AggregatorSpec::Mean,
            model: ModelKind::GraphSage,
            num_heads: 4,
            dropout: 0.1,
            learning_rate: 3e-3,
            capacity_bytes: gib(24),
            max_partitions: 512,
            fault_plan: FaultPlan::default(),
            retry: RetryPolicy::default(),
            plan_ahead: 0,
            precision: DType::F32,
        }
    }
}

impl ExperimentConfig {
    /// Number of GNN layers (= fanout entries).
    pub(crate) fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.fanouts.is_empty() {
            return Err("at least one layer fanout required".into());
        }
        if self.hidden_dim == 0 {
            return Err("hidden_dim must be positive".into());
        }
        if self.model == ModelKind::Gat && !self.hidden_dim.is_multiple_of(self.num_heads) {
            return Err(format!(
                "hidden_dim {} not divisible by {} heads",
                self.hidden_dim, self.num_heads
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err("dropout must be in [0, 1)".into());
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(format!("learning rate must be positive and finite, got {}", self.learning_rate));
        }
        if self.max_partitions == 0 {
            return Err("max_partitions must be positive".into());
        }
        self.fault_plan
            .validate()
            .map_err(|e| format!("fault plan: {e}"))?;
        self.retry
            .validate()
            .map_err(|e| format!("retry policy: {e}"))?;
        Ok(())
    }

    /// Stable 64-bit fingerprint of the fields that determine the trained
    /// function: architecture, widths, fanouts, dropout, learning rate,
    /// capacity, and partition bound. Stored in checkpoints so `--resume`
    /// can reject a checkpoint produced under a different experiment.
    /// Fault injection and retry knobs are deliberately excluded — they
    /// perturb *how* a run executes, not *what* it computes, and a run
    /// resumed without the fault plan that killed it must still load.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
        for &fanout in &self.fanouts {
            eat(&(fanout as u64).to_le_bytes());
        }
        eat(&(self.hidden_dim as u64).to_le_bytes());
        eat(format!("{:?}", self.aggregator).as_bytes());
        eat(format!("{:?}", self.model).as_bytes());
        eat(&(self.num_heads as u64).to_le_bytes());
        eat(&self.dropout.to_bits().to_le_bytes());
        eat(&self.learning_rate.to_bits().to_le_bytes());
        eat(&(self.capacity_bytes as u64).to_le_bytes());
        eat(&(self.max_partitions as u64).to_le_bytes());
        // Storage precision changes the trained function (activations and
        // features round through a 16-bit grid), so a bf16 resume must
        // reject an f32 checkpoint and vice versa. Folded only when
        // non-default so every f32 checkpoint written before the knob
        // existed keeps its fingerprint.
        if self.precision != DType::F32 {
            eat(b"precision:");
            eat(self.precision.name().as_bytes());
        }
        h
    }

    /// Fingerprint of the config *and* the dataset shape it was trained
    /// against. [`ExperimentConfig::fingerprint`] alone covers only
    /// model-shape knobs, so a checkpoint from Cora would happily resume
    /// onto Pubmed as long as the config matched — the optimizer moments
    /// and parameters would then be silently misapplied (or crash on a
    /// shape mismatch deep inside the model). Folding in `feature_dim`,
    /// `num_classes`, and `num_nodes` makes `--resume` reject a
    /// checkpoint produced against a different dataset up front.
    pub(crate) fn fingerprint_for_dataset(
        &self,
        feature_dim: usize,
        num_classes: usize,
        num_nodes: usize,
    ) -> u64 {
        [feature_dim, num_classes, num_nodes]
            .iter()
            .fold(self.fingerprint(), |h, &v| fnv1a(h, &(v as u64).to_le_bytes()))
    }
}

/// The FNV-1a offset basis: the hash of no bytes.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`. Hand-rolled so a stored value
/// is stable across Rust releases (std's `DefaultHasher` makes no such
/// promise).
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ExperimentConfig::default().validate().unwrap();
        assert_eq!(ExperimentConfig::default().num_layers(), 2);
    }

    #[test]
    fn rejects_bad_fields() {
        let no_layers = ExperimentConfig {
            fanouts: vec![],
            ..ExperimentConfig::default()
        };
        assert!(no_layers.validate().is_err());

        let bad_heads = ExperimentConfig {
            model: ModelKind::Gat,
            hidden_dim: 30,
            num_heads: 4,
            ..ExperimentConfig::default()
        };
        assert!(bad_heads.validate().is_err());

        let bad_dropout = ExperimentConfig {
            dropout: 1.0,
            ..ExperimentConfig::default()
        };
        assert!(bad_dropout.validate().is_err());

        for learning_rate in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let bad_lr = ExperimentConfig {
                learning_rate,
                ..ExperimentConfig::default()
            };
            assert!(bad_lr.validate().unwrap_err().contains("learning rate"), "{learning_rate}");
        }
    }

    #[test]
    fn rejects_bad_fault_and_retry_knobs() {
        let bad_rate = ExperimentConfig {
            fault_plan: FaultPlan {
                alloc_failure_rate: 2.0,
                ..FaultPlan::default()
            },
            ..ExperimentConfig::default()
        };
        assert!(bad_rate.validate().unwrap_err().contains("fault plan"));

        let bad_growth = ExperimentConfig {
            retry: RetryPolicy {
                growth: 0.0,
                ..RetryPolicy::default()
            },
            ..ExperimentConfig::default()
        };
        assert!(bad_growth.validate().unwrap_err().contains("retry policy"));
    }

    #[test]
    fn fingerprint_tracks_model_knobs_not_fault_knobs() {
        let base = ExperimentConfig::default();
        assert_eq!(base.fingerprint(), ExperimentConfig::default().fingerprint());

        let wider = ExperimentConfig {
            hidden_dim: 128,
            ..ExperimentConfig::default()
        };
        assert_ne!(base.fingerprint(), wider.fingerprint());

        let other_model = ExperimentConfig {
            model: ModelKind::Gcn,
            ..ExperimentConfig::default()
        };
        assert_ne!(base.fingerprint(), other_model.fingerprint());

        // Fault/retry/execution knobs must not change the fingerprint: a
        // run resumed without its fault plan still has to load.
        let perturbed = ExperimentConfig {
            fault_plan: FaultPlan {
                alloc_failure_rate: 0.5,
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_retries: 9,
                ..RetryPolicy::default()
            },
            plan_ahead: 3,
            ..ExperimentConfig::default()
        };
        assert_eq!(base.fingerprint(), perturbed.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_storage_precision() {
        let base = ExperimentConfig::default();
        let bf16 = ExperimentConfig {
            precision: DType::Bf16,
            ..ExperimentConfig::default()
        };
        let f16 = ExperimentConfig {
            precision: DType::F16,
            ..ExperimentConfig::default()
        };
        // Each precision trains a different function: all three must be
        // mutually distinguishable so --resume rejects cross-precision
        // checkpoints.
        assert_ne!(base.fingerprint(), bf16.fingerprint());
        assert_ne!(base.fingerprint(), f16.fingerprint());
        assert_ne!(bf16.fingerprint(), f16.fingerprint());
        // The explicit-f32 config hashes as before the knob existed, so
        // pre-existing f32 checkpoints still resume.
        let explicit_f32 = ExperimentConfig {
            precision: DType::F32,
            ..ExperimentConfig::default()
        };
        assert_eq!(base.fingerprint(), explicit_f32.fingerprint());
    }

    #[test]
    fn dataset_fingerprint_tracks_dataset_shape() {
        let cfg = ExperimentConfig::default();
        let base = cfg.fingerprint_for_dataset(128, 40, 1000);
        assert_eq!(base, cfg.fingerprint_for_dataset(128, 40, 1000));
        // Same config, different dataset shape → different fingerprint.
        assert_ne!(base, cfg.fingerprint_for_dataset(500, 40, 1000));
        assert_ne!(base, cfg.fingerprint_for_dataset(128, 3, 1000));
        assert_ne!(base, cfg.fingerprint_for_dataset(128, 40, 999));
        // Config knobs still matter under the combined fingerprint.
        let wider = ExperimentConfig {
            hidden_dim: 128,
            ..ExperimentConfig::default()
        };
        assert_ne!(base, wider.fingerprint_for_dataset(128, 40, 1000));
    }

    /// Every checkpoint stores `fingerprint_for_dataset` and `--resume`
    /// rejects a mismatch, so a refactor that moves either value orphans
    /// every checkpoint written before it. Never edit these.
    #[test]
    fn fingerprints_are_pinned() {
        let bf16 = ExperimentConfig {
            precision: DType::Bf16,
            ..ExperimentConfig::default()
        };
        let pins = [
            ExperimentConfig::default().fingerprint(),
            bf16.fingerprint(),
            ExperimentConfig::default().fingerprint_for_dataset(128, 40, 1000),
        ];
        assert_eq!(
            pins,
            [0xfc14_78ba_dccc_50f1, 0x7473_d5e0_1d9f_045c, 0x6ad5_6d90_af12_70c0],
            "{pins:#x?}"
        );
    }
}
