//! Training statistics collected by the trainer.

/// Measurements from executing one (micro-)batch step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Loss contribution (already scaled to the effective batch).
    pub loss: f64,
    /// Wall-clock compute seconds (forward + backward on this host).
    pub compute_sec: f64,
    /// Simulated host→device transfer seconds.
    pub transfer_sec: f64,
    /// Peak device bytes during the step.
    pub peak_bytes: usize,
    /// First-layer input nodes loaded.
    pub input_nodes: usize,
    /// Source nodes summed over every layer (compute volume).
    pub total_src_nodes: usize,
    /// Feature rows served from resident shards (dense backend: every row).
    pub feature_hits: u64,
    /// Feature rows whose shard had to be paged in from disk first.
    pub feature_misses: u64,
    /// Feature shards read from disk for this step.
    pub feature_pages_in: u64,
    /// Bytes of shard payload read from disk for this step.
    pub feature_page_in_bytes: u64,
    /// Simulated seconds spent paging feature shards over the store's
    /// NVMe-like link, for the portion *not* hidden behind compute (the
    /// prefetcher folds hidden page-in time into its overlap instead).
    pub page_in_sec: f64,
    /// Transient shard-read failures absorbed by the retry/backoff path
    /// during this step (0 without injected storage faults).
    pub io_retries: u64,
    /// Shards whose payload failed CRC mid-run and were reconstructed
    /// bit-identically from their XOR parity group.
    pub shards_repaired: u64,
    /// Simulated seconds spent on storage recovery: retry backoff plus
    /// the link time of parity/peer reads feeding shard reconstruction.
    /// Wall-clock-like, excluded from bit-identity comparisons.
    pub repair_sec: f64,
}

/// Aggregated measurements for one epoch (all micro-batches of all batches).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochStats {
    /// Mean training loss over the effective batch.
    pub loss: f64,
    /// Number of micro-batches (or mini-batches) executed.
    pub num_steps: usize,
    /// Total compute seconds.
    pub compute_sec: f64,
    /// Total simulated transfer seconds.
    pub transfer_sec: f64,
    /// Maximum per-step peak device bytes — the number the paper reports
    /// as "max memory consumption".
    pub max_peak_bytes: usize,
    /// Total input nodes loaded (redundancy-inflated).
    pub total_input_nodes: usize,
    /// Total source nodes over all layers and steps.
    pub total_src_nodes: usize,
    /// Host (CPU) bytes staging the epoch: the raw feature matrix plus the
    /// full batch's and micro-batches' block structures. Betty's
    /// heterogeneous-memory story (§2.2): the device only ever holds one
    /// micro-batch; everything else waits in host memory.
    pub host_bytes: usize,
    /// Checkpointed recovery attempts consumed producing this epoch
    /// (0 when the first attempt succeeded, and always from the entry
    /// points that run without a retry budget).
    pub oom_retries: usize,
    /// Injected fault events observed during this epoch (0 without an
    /// armed [`betty_device::FaultPlan`]).
    pub injected_faults: usize,
    /// Numeric-anomaly rollbacks consumed producing this epoch: a NaN/Inf
    /// loss or gradient was caught by the trainer's sentinel and the
    /// trainable state was restored from the epoch-start snapshot (0 from
    /// the entry points that run without a retry budget).
    pub anomaly_rollbacks: usize,
    /// Simulated transfer seconds hidden behind compute by the
    /// double-buffered prefetch executor (0 without prefetch). The epoch's
    /// `transfer_sec` already excludes this, so
    /// `transfer_sec + prefetch_overlap_sec` is what a prefetch-less run
    /// would have paid on the link.
    pub prefetch_overlap_sec: f64,
    /// Wall-clock planning seconds (sampling + REG partitioning +
    /// micro-batch extraction) hidden off the critical path by the
    /// partition-ahead pipeline: the staged bundle's total preparation
    /// time minus whatever wait the consuming epoch still paid at the
    /// handoff. 0 at `--plan-ahead 0` (or one worker thread), and for the
    /// first epoch after a pipeline (re)start, which is effectively
    /// synchronous. Wall-clock: excluded from bit-identity comparisons,
    /// like every other timing field.
    pub plan_ahead_overlap_sec: f64,
    /// Transfer bytes of the staged plan this epoch consumed from the
    /// partition-ahead pipeline, as charged to the device ledger's
    /// `plan ahead` category at the epoch boundary (0 when the epoch
    /// planned synchronously, or when the charge was skipped because it
    /// alone exceeded device capacity).
    pub plan_ahead_staged_bytes: usize,
    /// Largest analytical peak estimate (Eq. 5) over the epoch's
    /// micro-batches, in bytes — the planner's prediction of
    /// `max_peak_bytes`. 0 when the epoch ran without a plan (e.g.
    /// [`crate::Runner::train_micro_batches`] with caller-supplied
    /// batches).
    pub estimated_peak_bytes: usize,
    /// Worst per-micro-batch measured/estimated peak ratio — the
    /// estimator-drift metric. `≤ 1.0` means every estimate was
    /// admissible (safe overestimates); `> 1.0` means the estimator
    /// under-predicted at least one step, the direction that can OOM a
    /// plan that "fits". 0 when the epoch ran without a plan.
    pub estimator_drift: f64,
    /// Tensor-workspace buffers served from the trainer's pool during this
    /// epoch (a hit avoids one heap allocation). 0 when pooling is off.
    pub pool_hits: u64,
    /// Workspace requests the pool had to satisfy with a fresh heap
    /// allocation. In steady state (same-shaped micro-batches) this
    /// approaches 0 and `pool_hits` dominates.
    pub pool_misses: u64,
    /// Bytes handed back out from recycled buffers instead of the heap
    /// (`4 * elements` summed over every pool hit).
    pub pool_bytes_recycled: u64,
    /// Devices of the simulated group declared lost during this epoch
    /// (mid-epoch failures plus all-reduce exhaustion; 0 unless
    /// [`crate::Runner::train_epoch_elastic`] ran under device faults).
    pub devices_lost: usize,
    /// Micro-batches migrated off lost devices onto survivors.
    pub migrated_steps: usize,
    /// Timed-out all-reduce rounds that were retried with backoff.
    pub link_retries: usize,
    /// Devices flagged as stragglers (attributed time per unit work
    /// exceeded the group's threshold over the median device).
    pub stragglers_detected: usize,
    /// Feature rows served from the store's resident set over the epoch.
    /// The dense in-memory backend scores every row as a hit, so
    /// `feature_misses == 0` is the out-of-core story's baseline.
    pub feature_hits: u64,
    /// Feature rows that required paging their shard in from disk.
    pub feature_misses: u64,
    /// Feature shards paged in from disk over the epoch.
    pub feature_pages_in: u64,
    /// Shard payload bytes read from disk over the epoch.
    pub feature_page_in_bytes: u64,
    /// Simulated page-in seconds paid on the critical path (excludes
    /// page-ins hidden behind compute by the prefetcher, which land in
    /// `prefetch_overlap_sec`). Wall-clock-like timing: excluded from
    /// bit-identity comparisons.
    pub page_in_sec: f64,
    /// Transient shard-read failures absorbed by retry/backoff over the
    /// epoch (0 without injected storage faults). Fault-injection
    /// bookkeeping: excluded from bit-identity comparisons.
    pub io_retries: u64,
    /// Shards reconstructed from XOR parity after a mid-run CRC mismatch.
    /// Fault-injection bookkeeping: excluded from bit-identity
    /// comparisons.
    pub shards_repaired: u64,
    /// Simulated storage-recovery seconds (retry backoff + parity/peer
    /// read link time). Wall-clock-like: excluded from bit-identity
    /// comparisons.
    pub repair_sec: f64,
}

impl EpochStats {
    /// Folds a step into the epoch aggregate.
    pub fn absorb(&mut self, step: &StepStats) {
        self.loss += step.loss;
        self.num_steps += 1;
        self.compute_sec += step.compute_sec;
        self.transfer_sec += step.transfer_sec;
        self.max_peak_bytes = self.max_peak_bytes.max(step.peak_bytes);
        self.total_input_nodes += step.input_nodes;
        self.total_src_nodes += step.total_src_nodes;
        self.feature_hits += step.feature_hits;
        self.feature_misses += step.feature_misses;
        self.feature_pages_in += step.feature_pages_in;
        self.feature_page_in_bytes += step.feature_page_in_bytes;
        self.page_in_sec += step.page_in_sec;
        self.io_retries += step.io_retries;
        self.shards_repaired += step.shards_repaired;
        self.repair_sec += step.repair_sec;
    }

    /// Fraction of feature-row requests served without touching disk
    /// (1.0 when nothing was requested — an idle store never misses).
    pub fn feature_hit_rate(&self) -> f64 {
        let total = self.feature_hits + self.feature_misses;
        if total == 0 {
            1.0
        } else {
            self.feature_hits as f64 / total as f64
        }
    }

    /// Epoch wall time: compute plus simulated transfer plus exposed
    /// feature page-in time (zero for the dense in-memory backend) plus
    /// storage-recovery time (zero without faults or corruption).
    pub fn total_sec(&self) -> f64 {
        self.compute_sec + self.transfer_sec + self.page_in_sec + self.repair_sec
    }

    /// The paper's computation-efficiency metric (§6.4): total nodes in all
    /// micro-batches divided by epoch time.
    pub fn computation_efficiency(&self) -> f64 {
        if self.total_sec() == 0.0 {
            0.0
        } else {
            self.total_src_nodes as f64 / self.total_sec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(peak: usize) -> StepStats {
        StepStats {
            loss: 0.5,
            compute_sec: 1.0,
            transfer_sec: 0.5,
            peak_bytes: peak,
            input_nodes: 10,
            total_src_nodes: 30,
            feature_hits: 8,
            feature_misses: 2,
            feature_pages_in: 1,
            feature_page_in_bytes: 256,
            page_in_sec: 0.01,
            io_retries: 2,
            shards_repaired: 1,
            repair_sec: 0.005,
        }
    }

    #[test]
    fn absorb_accumulates_and_maxes() {
        let mut e = EpochStats::default();
        e.absorb(&step(100));
        e.absorb(&step(70));
        assert_eq!(e.num_steps, 2);
        assert_eq!(e.max_peak_bytes, 100);
        assert_eq!(e.total_input_nodes, 20);
        assert_eq!(e.feature_hits, 16);
        assert_eq!(e.feature_misses, 4);
        assert_eq!(e.feature_pages_in, 2);
        assert_eq!(e.feature_page_in_bytes, 512);
        assert!((e.feature_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(EpochStats::default().feature_hit_rate(), 1.0);
        assert_eq!(e.io_retries, 4);
        assert_eq!(e.shards_repaired, 2);
        assert!((e.repair_sec - 0.01).abs() < 1e-12);
        assert!((e.loss - 1.0).abs() < 1e-12);
        assert!(
            (e.total_sec() - 3.03).abs() < 1e-12,
            "page-in and repair time count"
        );
        assert!((e.computation_efficiency() - 60.0 / 3.03).abs() < 1e-9);
    }

    #[test]
    fn efficiency_zero_time_is_zero() {
        assert_eq!(EpochStats::default().computation_efficiency(), 0.0);
    }
}
