//! Device-memory accounting for one training step.
//!
//! The trainer executes real tensor math on the host while charging every
//! tensor that would live on the accelerator to the simulated
//! [`Device`]. The charge order reproduces the lifecycle the paper's
//! estimator models (§4.4.3): static tensors first, then forward
//! activations, then — as backprop begins — aggregator intermediates are
//! released while gradients appear, so the recorded peak is
//! `static + hidden + max(aggregator, gradients)`.

use betty_device::{AllocationId, Device, MemoryCategory, OomError, BYTES_PER_VALUE};
use betty_graph::Batch;
use betty_tensor::DType;

/// Per-step sizes, all in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepSizes {
    pub params: usize,
    pub optimizer_states: usize,
    pub blocks: usize,
    pub input_features: usize,
    pub labels: usize,
    pub feature_cache: usize,
}

impl StepSizes {
    /// Sizes for one micro-batch. `feature_dtype` is the storage width of
    /// node features: the device holds (and transfers) them at that width,
    /// so the `input_features` charge — and therefore
    /// [`StepSizes::transfer_bytes`] — shrinks under a 16-bit store,
    /// matching the estimator's item (2). Everything else stays f32.
    pub(crate) fn for_batch(
        batch: &Batch,
        in_dim: usize,
        param_values: usize,
        opt_state_values: usize,
        feature_dtype: DType,
    ) -> Self {
        StepSizes {
            params: param_values * BYTES_PER_VALUE,
            optimizer_states: opt_state_values * BYTES_PER_VALUE,
            blocks: batch
                .blocks()
                .iter()
                .map(|b| b.storage_values() * BYTES_PER_VALUE)
                .sum(),
            input_features: batch.input_nodes().len() * in_dim * feature_dtype.bytes_per_value(),
            labels: batch.output_nodes().len() * BYTES_PER_VALUE,
            feature_cache: 0,
        }
    }

    /// Adds the out-of-core feature store's pinned hot-set reservation
    /// (`Features::cache_reservation_bytes`) to the step's static charges.
    /// Zero (the dense backend) is a no-op, keeping dense runs
    /// bit-identical to the pre-feature-store ledger.
    pub(crate) fn with_feature_cache(mut self, bytes: usize) -> Self {
        self.feature_cache = bytes;
        self
    }

    /// Bytes that must cross the host→device link for this step (model
    /// parameters stay resident; data does not).
    pub(crate) fn transfer_bytes(&self) -> usize {
        self.blocks + self.input_features + self.labels
    }
}

/// Live allocations of one step, so the trainer can stage frees.
#[derive(Debug)]
pub(crate) struct StepCharges {
    statics: Vec<AllocationId>,
    hidden: Option<AllocationId>,
    aggregator: Option<AllocationId>,
    gradients: Option<AllocationId>,
}

impl StepCharges {
    /// Charges the static tensors (params, optimizer state, blocks, input
    /// features, labels). On failure every already-charged static is
    /// rolled back — the ledger is left exactly as found, so recovery
    /// can re-plan against a clean device.
    pub(crate) fn charge_static(device: &mut Device, sizes: &StepSizes) -> Result<Self, OomError> {
        let mut statics = Vec::with_capacity(6);
        for (bytes, cat) in [
            (sizes.params, MemoryCategory::Parameters),
            (sizes.optimizer_states, MemoryCategory::OptimizerStates),
            (sizes.blocks, MemoryCategory::Blocks),
            (sizes.input_features, MemoryCategory::InputFeatures),
            (sizes.labels, MemoryCategory::Labels),
            (sizes.feature_cache, MemoryCategory::FeatureCache),
        ] {
            // The dense backend reserves no cache; skipping the alloc
            // outright (rather than charging 0 bytes) keeps the armed
            // fault injector's per-alloc decision stream identical to
            // the pre-feature-store ledger.
            if cat == MemoryCategory::FeatureCache && bytes == 0 {
                continue;
            }
            match device.alloc(bytes, cat) {
                Ok(id) => statics.push(id),
                Err(e) => {
                    for id in statics {
                        device.free(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            statics,
            hidden: None,
            aggregator: None,
            gradients: None,
        })
    }

    /// Charges forward activations: named hidden outputs plus everything
    /// else on the tape (attributed to the aggregator).
    pub(crate) fn charge_forward(
        &mut self,
        device: &mut Device,
        hidden_bytes: usize,
        aggregator_bytes: usize,
    ) -> Result<(), OomError> {
        self.hidden = Some(device.alloc(hidden_bytes, MemoryCategory::HiddenActivations)?);
        self.aggregator =
            Some(device.alloc(aggregator_bytes, MemoryCategory::AggregatorIntermediate)?);
        Ok(())
    }

    /// Transitions to the backward phase: aggregator intermediates are
    /// consumed while parameter gradients materialize.
    pub(crate) fn charge_backward(
        &mut self,
        device: &mut Device,
        grad_bytes: usize,
    ) -> Result<(), OomError> {
        if let Some(agg) = self.aggregator.take() {
            device.free(agg);
        }
        self.gradients = Some(device.alloc(grad_bytes, MemoryCategory::Gradients)?);
        Ok(())
    }

    /// Releases every remaining allocation of the step.
    pub(crate) fn release(self, device: &mut Device) {
        for id in self.statics {
            device.free(id);
        }
        for id in [self.hidden, self.aggregator, self.gradients]
            .into_iter()
            .flatten()
        {
            device.free(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::Block;

    fn batch() -> Batch {
        Batch::new(vec![Block::new(vec![0, 1], &[(2, 0), (3, 1), (4, 1)])])
    }

    #[test]
    fn sizes_match_hand_count() {
        let s = StepSizes::for_batch(&batch(), 8, 100, 200, DType::F32);
        assert_eq!(s.params, 400);
        assert_eq!(s.optimizer_states, 800);
        assert_eq!(s.blocks, 3 * 3 * 4);
        assert_eq!(s.input_features, 5 * 8 * 4);
        assert_eq!(s.labels, 8);
        assert_eq!(s.transfer_bytes(), 36 + 160 + 8);
    }

    #[test]
    fn half_width_features_shrink_input_and_transfer_only() {
        let f32_sizes = StepSizes::for_batch(&batch(), 8, 100, 200, DType::F32);
        let bf16 = StepSizes::for_batch(&batch(), 8, 100, 200, DType::Bf16);
        assert_eq!(bf16.input_features, 5 * 8 * 2);
        assert_eq!(bf16.transfer_bytes(), f32_sizes.transfer_bytes() - 5 * 8 * 2);
        // Only the feature term is dtype-sensitive.
        assert_eq!(bf16.params, f32_sizes.params);
        assert_eq!(bf16.optimizer_states, f32_sizes.optimizer_states);
        assert_eq!(bf16.blocks, f32_sizes.blocks);
        assert_eq!(bf16.labels, f32_sizes.labels);
    }

    #[test]
    fn lifecycle_peak_is_static_plus_hidden_plus_max_transient() {
        let mut dev = Device::unbounded();
        let sizes = StepSizes::for_batch(&batch(), 8, 100, 200, DType::F32);
        let static_total = sizes.params
            + sizes.optimizer_states
            + sizes.blocks
            + sizes.input_features
            + sizes.labels;
        let mut charges = StepCharges::charge_static(&mut dev, &sizes).unwrap();
        charges.charge_forward(&mut dev, 50, 300).unwrap();
        charges.charge_backward(&mut dev, 120).unwrap();
        // Aggregator (300) > gradients (120): forward dominates the peak.
        assert_eq!(dev.peak_bytes(), static_total + 50 + 300);
        charges.release(&mut dev);
        assert_eq!(dev.current_bytes(), 0);
    }

    #[test]
    fn failed_static_charge_rolls_back_partial_allocations() {
        let sizes = StepSizes::for_batch(&batch(), 8, 100, 200, DType::F32);
        // Params + optimizer states fit; the blocks charge pushes past
        // capacity mid-sequence.
        let mut dev = Device::new(sizes.params + sizes.optimizer_states + 1);
        let err = StepCharges::charge_static(&mut dev, &sizes).unwrap_err();
        assert_eq!(err.requested, sizes.blocks);
        assert_eq!(err.in_use, sizes.params + sizes.optimizer_states);
        assert_eq!(
            dev.current_bytes(),
            0,
            "partially charged statics must be rolled back"
        );
        // The rollback really freed capacity, not just the counter.
        assert!(dev
            .alloc(sizes.params + sizes.optimizer_states, MemoryCategory::Parameters)
            .is_ok());
    }

    #[test]
    fn oom_during_forward_propagates() {
        let sizes = StepSizes::for_batch(&batch(), 8, 100, 200, DType::F32);
        let mut dev = Device::new(sizes.transfer_bytes() + sizes.params + sizes.optimizer_states + 10);
        let mut charges = StepCharges::charge_static(&mut dev, &sizes).unwrap();
        assert!(charges.charge_forward(&mut dev, 50, 300).is_err());
        charges.release(&mut dev);
    }
}
