use std::collections::HashMap;
use std::fmt;

use betty_trace::{MemEvent, MemTimeline};

use crate::fault::{AllocFaultInjector, FaultEvent, FaultPlan};

/// What a device allocation holds — the categories of the paper's memory
/// breakdown (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryCategory {
    /// GNN model weights (excluding the aggregator's own parameters).
    Parameters,
    /// Raw input-node feature rows staged for aggregation.
    InputFeatures,
    /// Output-node labels.
    Labels,
    /// Bipartite block structure (edge endpoints and weights).
    Blocks,
    /// Hidden-layer outputs and other forward activations.
    HiddenActivations,
    /// Aggregator-internal intermediate tensors (large for LSTM).
    AggregatorIntermediate,
    /// Parameter gradients.
    Gradients,
    /// Optimizer state (Adam: first and second moments).
    OptimizerStates,
    /// Pinned hot-set cache of an out-of-core feature store: the byte
    /// budget the paged backend may keep resident, charged as a constant
    /// reservation every step (`min(cache budget, total feature bytes)`)
    /// so the planner's estimate and the ledger agree exactly.
    FeatureCache,
}

impl MemoryCategory {
    /// All categories, in breakdown-report order.
    pub(crate) const ALL: [MemoryCategory; 9] = [
        MemoryCategory::Parameters,
        MemoryCategory::InputFeatures,
        MemoryCategory::Labels,
        MemoryCategory::Blocks,
        MemoryCategory::HiddenActivations,
        MemoryCategory::AggregatorIntermediate,
        MemoryCategory::Gradients,
        MemoryCategory::OptimizerStates,
        MemoryCategory::FeatureCache,
    ];

    /// Stable lowercase name, also used as the `category` field of
    /// timeline events ([`betty_trace::MemEvent`]).
    pub const fn name(&self) -> &'static str {
        match self {
            MemoryCategory::Parameters => "parameters",
            MemoryCategory::InputFeatures => "input features",
            MemoryCategory::Labels => "labels",
            MemoryCategory::Blocks => "blocks",
            MemoryCategory::HiddenActivations => "hidden activations",
            MemoryCategory::AggregatorIntermediate => "aggregator intermediate",
            MemoryCategory::Gradients => "gradients",
            MemoryCategory::OptimizerStates => "optimizer states",
            MemoryCategory::FeatureCache => "feature cache",
        }
    }
}

impl fmt::Display for MemoryCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Handle to a live allocation on a [`Device`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationId(u64);

/// Returned when an allocation would exceed device capacity — the simulated
/// equivalent of CUDA's out-of-memory error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes the failed allocation requested.
    pub requested: usize,
    /// Bytes in use at the time of the failure.
    pub in_use: usize,
    /// Device capacity.
    pub capacity: usize,
    /// Whether the device's [`FaultPlan`] injected this failure rather
    /// than the ledger genuinely running out of room.
    pub injected: bool,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} bytes with {} of {} in use{}",
            self.requested,
            self.in_use,
            self.capacity,
            if self.injected { " (injected fault)" } else { "" }
        )
    }
}

impl std::error::Error for OomError {}

/// A capacity-limited allocation ledger simulating accelerator memory.
///
/// Tracks current and peak usage globally and per [`MemoryCategory`], so
/// experiments can report both OOM behaviour (Figs. 2 & 10) and the memory
/// breakdown (Fig. 3) of a training step.
#[derive(Debug, Clone)]
pub struct Device {
    capacity: usize,
    current: usize,
    peak: usize,
    next_id: u64,
    live: HashMap<u64, (usize, MemoryCategory)>,
    current_by_cat: HashMap<MemoryCategory, usize>,
    peak_snapshot: HashMap<MemoryCategory, usize>,
    /// The armed plan's allocation injector; an empty plan's by default.
    faults: AllocFaultInjector,
    timeline: Option<MemTimeline>,
}

impl Device {
    /// A device with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            current: 0,
            peak: 0,
            next_id: 0,
            live: HashMap::new(),
            current_by_cat: HashMap::new(),
            peak_snapshot: HashMap::new(),
            faults: FaultPlan::default().alloc_injector(),
            timeline: None,
        }
    }

    /// A device that never OOMs (used to *measure* how much memory a
    /// configuration would need).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation would exceed capacity; the
    /// ledger is unchanged in that case.
    pub fn alloc(&mut self, bytes: usize, category: MemoryCategory) -> Result<AllocationId, OomError> {
        if self.faults.check_alloc(bytes, self.current, self.capacity).is_some() {
            return Err(OomError {
                requested: bytes,
                in_use: self.current,
                capacity: self.capacity,
                injected: true,
            });
        }
        if self.current.saturating_add(bytes) > self.capacity {
            return Err(OomError {
                requested: bytes,
                in_use: self.current,
                capacity: self.capacity,
                injected: false,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, (bytes, category));
        self.current += bytes;
        let cat = self.current_by_cat.entry(category).or_insert(0);
        *cat += bytes;
        // Category counters must be up to date before the global-peak
        // check: the snapshot taken here is the breakdown *at the peak
        // instant*, so its parts sum exactly to `peak`.
        if self.current > self.peak {
            self.peak = self.current;
            self.peak_snapshot = self.current_by_cat.clone();
        }
        if let Some(tl) = self.timeline.as_mut() {
            tl.record(self.current, bytes as i64, category.name());
        }
        Ok(AllocationId(id))
    }

    /// Releases an allocation; double-frees are ignored (freeing is
    /// idempotent, matching C-DTOR-FAIL guidance that teardown never fails).
    pub fn free(&mut self, id: AllocationId) {
        if let Some((bytes, category)) = self.live.remove(&id.0) {
            self.current -= bytes;
            if let Some(c) = self.current_by_cat.get_mut(&category) {
                *c -= bytes;
            }
            if let Some(tl) = self.timeline.as_mut() {
                tl.record(self.current, -(bytes as i64), category.name());
            }
        }
    }

    /// Frees every live allocation (end of a micro-batch step).
    pub fn free_all(&mut self) {
        // One aggregate timeline event for the bulk release: iterating
        // `live` would emit events in HashMap order, which is
        // nondeterministic.
        if self.current > 0 {
            let released = self.current as i64;
            if let Some(tl) = self.timeline.as_mut() {
                tl.record(0, -released, "free_all");
            }
        }
        self.current = 0;
        self.live.clear();
        self.current_by_cat.clear();
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> usize {
        self.current
    }

    /// High-water mark since construction or the last
    /// [`Device::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }

    /// Resets peak tracking (global, per-category, and the at-peak
    /// snapshot) to current usage.
    pub fn reset_peak(&mut self) {
        self.peak = self.current;
        self.peak_snapshot = self.current_by_cat.clone();
    }

    /// Bytes per category *at the instant the global peak was reached*,
    /// in `MemoryCategory::ALL` order. The entries sum exactly to
    /// [`Device::peak_bytes`], so the breakdown is a faithful Fig. 3-style
    /// decomposition of the worst moment.
    pub fn peak_breakdown(&self) -> Vec<(MemoryCategory, usize)> {
        MemoryCategory::ALL
            .iter()
            .map(|&c| (c, self.peak_snapshot.get(&c).copied().unwrap_or(0)))
            .collect()
    }

    /// Arms fault injection: subsequent allocations consult `injector`
    /// and may fail with [`OomError::injected`] set. Replaces the
    /// injector held so far.
    pub fn arm_faults(&mut self, injector: AllocFaultInjector) {
        self.faults = injector;
    }

    /// Marks a step boundary for fault injection: re-arms scheduled
    /// step faults and redraws capacity jitter.
    pub fn begin_step(&mut self, step: usize) {
        self.faults.begin_step(step, self.capacity);
    }

    /// Removes and returns the fault events recorded since the last
    /// drain.
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        self.faults.drain_events()
    }

    /// Starts recording into `timeline` (made on the trace recorder's
    /// clock): every subsequent `alloc`/`free`/`free_all` appends a
    /// [`MemEvent`]. Replaces any timeline already being recorded. When no
    /// timeline is enabled (the default) the ledger does no tracing work.
    pub fn enable_timeline(&mut self, timeline: MemTimeline) {
        self.timeline = Some(timeline);
    }

    /// Stops timeline recording, returning the timeline (with any
    /// undrained events) if one was enabled.
    pub fn disable_timeline(&mut self) -> Option<MemTimeline> {
        self.timeline.take()
    }

    /// Removes and returns the timeline events recorded since the last
    /// drain. Empty when no timeline is enabled; sequence numbers keep
    /// growing across drains.
    pub fn drain_timeline_events(&mut self) -> Vec<MemEvent> {
        self.timeline
            .as_mut()
            .map(MemTimeline::drain)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut d = Device::new(1000);
        let a = d.alloc(400, MemoryCategory::Parameters).unwrap();
        let b = d.alloc(500, MemoryCategory::InputFeatures).unwrap();
        assert_eq!(d.current_bytes(), 900);
        assert_eq!(d.peak_bytes(), 900);
        d.free(a);
        assert_eq!(d.current_bytes(), 500);
        assert_eq!(d.peak_bytes(), 900, "peak survives frees");
        d.free(b);
        assert_eq!(d.current_bytes(), 0);
    }

    #[test]
    fn oom_leaves_ledger_unchanged() {
        let mut d = Device::new(100);
        d.alloc(80, MemoryCategory::Blocks).unwrap();
        let err = d.alloc(30, MemoryCategory::Blocks).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.capacity, 100);
        assert_eq!(d.current_bytes(), 80);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn double_free_is_ignored() {
        let mut d = Device::new(100);
        let a = d.alloc(50, MemoryCategory::Labels).unwrap();
        d.free(a);
        d.free(a);
        assert_eq!(d.current_bytes(), 0);
    }

    #[test]
    fn per_category_peaks() {
        let mut d = Device::unbounded();
        let a = d
            .alloc(100, MemoryCategory::AggregatorIntermediate)
            .unwrap();
        d.free(a);
        d.alloc(60, MemoryCategory::Gradients).unwrap();
        // Global peak is 100 (the categories never coexisted), and the
        // breakdown shows what was live at that instant: only the
        // aggregator allocation.
        assert_eq!(d.peak_bytes(), 100);
        let bd: std::collections::HashMap<_, _> = d.peak_breakdown().into_iter().collect();
        assert_eq!(bd[&MemoryCategory::AggregatorIntermediate], 100);
        assert_eq!(bd[&MemoryCategory::Gradients], 0);
        assert_eq!(bd[&MemoryCategory::Labels], 0);
    }

    #[test]
    fn peak_breakdown_sums_to_global_peak() {
        let mut d = Device::unbounded();
        let p = d.alloc(30, MemoryCategory::Parameters).unwrap();
        d.alloc(50, MemoryCategory::Blocks).unwrap();
        let g = d.alloc(20, MemoryCategory::Gradients).unwrap();
        d.free(g);
        d.free(p);
        // Peak (100) happened with all three live.
        assert_eq!(d.peak_bytes(), 100);
        let bd = d.peak_breakdown();
        let sum: usize = bd.iter().map(|(_, b)| b).sum();
        assert_eq!(sum, d.peak_bytes(), "snapshot decomposes the peak exactly");
        let bd: std::collections::HashMap<_, _> = bd.into_iter().collect();
        assert_eq!(bd[&MemoryCategory::Parameters], 30);
        assert_eq!(bd[&MemoryCategory::Blocks], 50);
        assert_eq!(bd[&MemoryCategory::Gradients], 20);
        // reset_peak re-bases the snapshot on current usage (blocks only).
        d.reset_peak();
        assert_eq!(d.peak_bytes(), 50);
        let bd: std::collections::HashMap<_, _> = d.peak_breakdown().into_iter().collect();
        assert_eq!(bd[&MemoryCategory::Blocks], 50);
        assert_eq!(bd[&MemoryCategory::Parameters], 0);
    }

    #[test]
    fn timeline_records_allocs_frees_and_bulk_release() {
        let mut d = Device::new(1000);
        assert!(d.timeline.is_none());
        d.alloc(10, MemoryCategory::Parameters).unwrap(); // before enabling: untraced
        d.enable_timeline(betty_trace::TraceRecorder::new().timeline());
        assert!(d.timeline.is_some());
        let a = d.alloc(100, MemoryCategory::Blocks).unwrap();
        d.free(a);
        d.alloc(40, MemoryCategory::Labels).unwrap();
        d.free_all();
        let events = d.drain_timeline_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].delta_bytes, 100);
        assert_eq!(events[0].total_bytes, 110);
        assert_eq!(events[0].category, "blocks");
        assert_eq!(events[1].delta_bytes, -100);
        assert_eq!(events[2].category, "labels");
        assert_eq!(events[3].category, "free_all");
        assert_eq!(events[3].delta_bytes, -50, "one aggregate event for the bulk release");
        assert_eq!(events[3].total_bytes, 0);
        // Sequence numbers are monotonic and survive draining.
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert!(d.drain_timeline_events().is_empty());
        d.alloc(5, MemoryCategory::Labels).unwrap();
        assert_eq!(d.drain_timeline_events()[0].seq, events[3].seq + 1);
        let tl = d.disable_timeline();
        assert!(tl.is_some());
        assert!(d.timeline.is_none());
        // Disabled again: allocations no longer record.
        d.alloc(5, MemoryCategory::Labels).unwrap();
        assert!(d.drain_timeline_events().is_empty());
    }

    #[test]
    fn reset_peak_tracks_from_current() {
        let mut d = Device::unbounded();
        let a = d.alloc(100, MemoryCategory::Parameters).unwrap();
        d.free(a);
        d.reset_peak();
        assert_eq!(d.peak_bytes(), 0);
        d.alloc(10, MemoryCategory::Parameters).unwrap();
        assert_eq!(d.peak_bytes(), 10);
    }

    #[test]
    fn free_all_clears_everything() {
        let mut d = Device::new(100);
        d.alloc(40, MemoryCategory::Blocks).unwrap();
        d.alloc(40, MemoryCategory::Labels).unwrap();
        d.free_all();
        assert_eq!(d.current_bytes(), 0);
        assert_eq!(d.current_by_cat.get(&MemoryCategory::Blocks).copied().unwrap_or(0), 0);
        // Capacity is available again.
        assert!(d.alloc(100, MemoryCategory::Blocks).is_ok());
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut d = Device::new(64);
        assert!(d.alloc(64, MemoryCategory::Parameters).is_ok());
        assert!(d.alloc(1, MemoryCategory::Parameters).is_err());
    }

    #[test]
    fn genuine_oom_is_not_marked_injected() {
        let mut d = Device::new(100);
        let err = d.alloc(200, MemoryCategory::Blocks).unwrap_err();
        assert!(!err.injected);
        assert!(!err.to_string().contains("injected"));
    }

    #[test]
    fn armed_step_fault_injects_and_ledger_is_untouched() {
        use crate::fault::FaultPlan;
        let mut d = Device::new(1000);
        let plan = FaultPlan {
            oom_steps: vec![0],
            ..FaultPlan::default()
        };
        d.arm_faults(plan.alloc_injector());
        d.begin_step(0);
        let err = d.alloc(10, MemoryCategory::Blocks).unwrap_err();
        assert!(err.injected);
        assert!(err.to_string().contains("injected"));
        assert_eq!(d.current_bytes(), 0, "injected failure allocates nothing");
        // Second allocation of the step proceeds normally.
        assert!(d.alloc(10, MemoryCategory::Blocks).is_ok());
        let events = d.drain_fault_events();
        assert_eq!(events.len(), 1);
        assert!(d.drain_fault_events().is_empty());
    }

    #[test]
    fn unfaulted_alloc_bypasses_injection_but_not_capacity() {
        use crate::fault::FaultPlan;
        let mut d = Device::new(100);
        let plan = FaultPlan {
            oom_steps: vec![1],
            ..FaultPlan::default()
        };
        d.arm_faults(plan.alloc_injector());
        // Step 0 is not scheduled to fault: an armed device allocates
        // there as a disarmed one does.
        d.begin_step(0);
        let id = d.alloc(60, MemoryCategory::Blocks).unwrap();
        assert_eq!(d.current_by_cat.get(&MemoryCategory::Blocks).copied().unwrap_or(0), 60);
        // The genuine capacity check still applies, and its failure is
        // neither marked nor recorded as injected.
        let err = d.alloc(200, MemoryCategory::Blocks).unwrap_err();
        assert!(!err.injected);
        assert_eq!(d.current_bytes(), 60);
        assert!(d.drain_fault_events().is_empty());
        d.free(id);
        // The scheduled step still gets its shot.
        d.begin_step(1);
        assert!(d.alloc(10, MemoryCategory::Blocks).unwrap_err().injected);
        let events = d.drain_fault_events();
        assert_eq!(events.len(), 1, "only the scheduled fault recorded an event");
    }

    #[test]
    fn disarmed_device_never_injects() {
        let mut d = Device::new(1000);
        d.begin_step(0); // the empty plan's injector fires nothing
        assert!(d.alloc(10, MemoryCategory::Blocks).is_ok());
        assert!(d.drain_fault_events().is_empty());
    }
}
