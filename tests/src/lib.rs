//! Host crate for the cross-crate integration tests in `tests/`.

use betty::{RecoveryEvent, Runner};

/// A runner's recovery-log entries counted per kind, over the whole run
/// or one epoch. The log itself keeps only the counts the CLI and the
/// trace report; the tests read the rest from its entries here.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LogCounts {
    /// Injected faults, device- or store-side.
    pub injected_faults: usize,
    /// OOM-triggered retries.
    pub oom_retries: usize,
    /// Recovery attempts consumed, as `Recovered` / `Exhausted` report them.
    pub retries: usize,
    /// Epochs that completed only after retrying.
    pub recoveries: usize,
    /// Epochs that ran out of retries.
    pub exhausted: usize,
    /// Numeric-anomaly rollbacks.
    pub anomaly_rollbacks: usize,
    /// Runs aborted on an unrecoverable numeric anomaly.
    pub anomaly_aborts: usize,
    /// Devices declared lost.
    pub devices_lost: usize,
    /// LPT work migrations off lost devices.
    pub work_migrations: usize,
    /// Micro-batches migrated off lost devices.
    pub migrated_steps: usize,
    /// Ring-all-reduce rebuilds over surviving ranks.
    pub ring_rebuilds: usize,
    /// Devices flagged as stragglers.
    pub stragglers_detected: usize,
    /// Timed-out all-reduce rounds retried.
    pub link_retries: usize,
    /// Transient shard-read failures absorbed by retry.
    pub io_retries: usize,
    /// Shards reconstructed from parity.
    pub shards_repaired: usize,
}

impl LogCounts {
    /// Counts the entries of `epoch`, or of every epoch when `None`.
    pub fn of(runner: &Runner, epoch: Option<usize>) -> Self {
        let mut c = Self::default();
        let log = runner.recovery_log().entries();
        for entry in log.iter().filter(|e| epoch.is_none_or(|n| e.epoch == n)) {
            match entry.event {
                RecoveryEvent::Fault(_) | RecoveryEvent::StorageFault(_) => c.injected_faults += 1,
                RecoveryEvent::OomRetry { .. } => c.oom_retries += 1,
                RecoveryEvent::Recovered { attempts, .. } => {
                    c.recoveries += 1;
                    c.retries += attempts;
                }
                RecoveryEvent::Exhausted { attempts } => {
                    c.exhausted += 1;
                    c.retries += attempts;
                }
                RecoveryEvent::AnomalyRollback { .. } => c.anomaly_rollbacks += 1,
                RecoveryEvent::AnomalyAbort { .. } => c.anomaly_aborts += 1,
                RecoveryEvent::DeviceLost { .. } => c.devices_lost += 1,
                RecoveryEvent::WorkMigrated { micro_batches, .. } => {
                    c.work_migrations += 1;
                    c.migrated_steps += micro_batches;
                }
                RecoveryEvent::RingRebuilt { .. } => c.ring_rebuilds += 1,
                RecoveryEvent::StragglerDetected { .. } => c.stragglers_detected += 1,
                RecoveryEvent::LinkRetry { .. } => c.link_retries += 1,
                RecoveryEvent::IoRetry { .. } => c.io_retries += 1,
                RecoveryEvent::ShardRepaired { .. } => c.shards_repaired += 1,
                _ => {}
            }
        }
        c
    }
}
