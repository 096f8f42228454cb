use crate::fault::{FaultEvent, FaultPlan, StallInjector};

/// Host→device transfer cost model.
///
/// Approximates a PCIe link as fixed per-transfer latency plus
/// bytes/bandwidth — enough to reproduce the *shape* of the paper's data-
/// movement results (Fig. 14): many small micro-batch uploads amortize the
/// link worse than one large full-batch upload.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    bandwidth_bytes_per_sec: f64,
    latency_sec: f64,
    total_bytes: u64,
    /// The armed plan's stall injector; an empty plan's by default.
    faults: StallInjector,
}

impl TransferModel {
    /// A model with the given sustained bandwidth (bytes/s) and fixed
    /// per-transfer latency (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is not positive or `latency_sec`
    /// is negative.
    pub(crate) fn new(bandwidth_bytes_per_sec: f64, latency_sec: f64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        assert!(latency_sec >= 0.0, "latency must be non-negative");
        Self {
            bandwidth_bytes_per_sec,
            latency_sec,
            total_bytes: 0,
            faults: FaultPlan::default().transfer_injector(),
        }
    }

    /// PCIe 3.0 x16-like defaults: ~12 GB/s effective, 10 µs per transfer.
    pub fn pcie3() -> Self {
        Self::new(12.0e9, 10.0e-6)
    }

    /// NVMe-SSD-like defaults for feature page-ins: ~3 GB/s sustained,
    /// 100 µs per request.
    pub fn nvme() -> Self {
        Self::new(3.0e9, 100.0e-6)
    }

    /// Time a single transfer of `bytes` would take, without recording it.
    ///
    /// A zero-byte transfer is free: no data crosses the link, so no
    /// latency is charged (a warm gather's zero-byte page-in costs nothing).
    pub fn time_for(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec
    }

    /// Records a transfer and returns its simulated duration in seconds,
    /// including any injected stall.
    ///
    /// Zero-byte transfers are free and unrecorded: they neither bump the
    /// counters nor consult the fault injector (so skipping an empty
    /// transfer cannot shift the injected-stall RNG stream).
    pub fn transfer(&mut self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let mut t = self.time_for(bytes);
        if let Some(stall) = self.faults.check() {
            t += stall;
        }
        self.total_bytes += bytes as u64;
        t
    }

    /// Total bytes moved so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Arms stall injection: subsequent transfers consult `injector`.
    /// Replaces the injector held so far.
    pub fn arm_faults(&mut self, injector: StallInjector) {
        self.faults = injector;
    }

    /// Removes and returns stall events recorded since the last drain.
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        self.faults.drain_events()
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::pcie3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_latency_plus_bandwidth_term() {
        let m = TransferModel::new(1e9, 1e-3);
        let t = m.time_for(2_000_000_000);
        assert!((t - 2.001).abs() < 1e-9);
    }

    #[test]
    fn accumulates() {
        let mut m = TransferModel::new(1e6, 0.0);
        let t = m.transfer(500_000) + m.transfer(500_000);
        assert_eq!(m.total_bytes(), 1_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfers_are_free_and_unrecorded() {
        let mut m = TransferModel::new(1e6, 0.25);
        assert_eq!(m.time_for(0), 0.0, "no bytes, no latency");
        assert!(m.time_for(1) >= 0.25, "non-empty transfers still pay latency");
        assert_eq!(m.transfer(0), 0.0);
        assert_eq!(m.total_bytes(), 0, "empty transfer must not be counted");
        // An armed injector must not be consulted either — otherwise an
        // empty transfer would consume a stall draw and shift every
        // later stall onto a different transfer.
        let plan = FaultPlan {
            seed: 9,
            transfer_stall_rate: 1.0,
            transfer_stall_sec: 0.5,
            ..FaultPlan::default()
        };
        m.arm_faults(plan.transfer_injector());
        assert_eq!(m.transfer(0), 0.0);
        assert!(m.drain_fault_events().is_empty());
        assert!(m.transfer(1_000) >= 0.5, "the stall lands on the first real transfer");
    }

    #[test]
    fn many_small_transfers_cost_more_than_one_big() {
        let mut small = TransferModel::pcie3();
        let small_sec: f64 = (0..1000).map(|_| small.transfer(1_000)).sum();
        let mut big = TransferModel::pcie3();
        assert!(small_sec > big.transfer(1_000_000));
        assert_eq!(small.total_bytes(), big.total_bytes());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        TransferModel::new(0.0, 0.0);
    }

    #[test]
    fn injected_stalls_add_time_and_are_reported() {
        let plan = FaultPlan {
            seed: 5,
            transfer_stall_rate: 1.0,
            transfer_stall_sec: 0.5,
            ..FaultPlan::default()
        };
        let mut m = TransferModel::new(1e9, 0.0);
        m.arm_faults(plan.transfer_injector());
        let t = m.transfer(1_000);
        assert!(t >= 0.5, "stall must lengthen the transfer, got {t}");
        assert!((t - m.time_for(1_000) - 0.5).abs() < 1e-12);
        assert_eq!(m.drain_fault_events().len(), 1);
        m.arm_faults(FaultPlan::default().transfer_injector());
        let clean = m.transfer(1_000);
        assert!(clean < 0.5, "the empty plan's transfers are stall-free");
    }
}
