//! OOM recovery: retry policy, escalation arithmetic, and the log.
//!
//! The paper's memory-aware planner (§4.4.3) picks `K` from an *estimate*
//! of each micro-batch's peak memory. Estimates can be wrong, and real
//! allocators fail for reasons no estimator models (fragmentation,
//! transient driver errors — the faults [`betty_device::FaultPlan`]
//! injects). This module hardens the training loop against both: a
//! mid-step OOM rolls the trainable state back to an epoch-start
//! checkpoint and re-plans with an escalated partition count and a
//! shrunken planning capacity, governed by [`RetryPolicy`]. Every
//! injected fault and every recovery action is recorded in a
//! [`RecoveryLog`] so runs remain auditable and reproducible.

use std::fmt;

use betty_data::InjectedStorageFault;
use betty_device::{AllocFaultKind, FaultEvent};

use crate::trainer::{AnomalyKind, StepPhase};

/// Governs how a failed epoch is retried and how the plan escalates
/// between attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum recovery attempts per epoch before giving up. `0`
    /// disables recovery entirely (the first OOM is fatal).
    pub max_retries: usize,
    /// Partition-count escalation factor: after a failure at `K` the
    /// next attempt plans from `max(K + 1, ceil(K · growth))`.
    pub growth: f64,
    /// Fraction of capacity withheld from the planner per retry,
    /// compounding: attempt `i` plans against
    /// `capacity · (1 - headroom)^i`. Headroom absorbs estimator error —
    /// if the estimate said the failed plan fit, planning against the
    /// full capacity again could reproduce the same failure.
    pub headroom: f64,
    /// Maximum numeric-anomaly rollbacks per epoch before the run
    /// aborts. Unlike OOMs, a non-finite loss or gradient usually
    /// reproduces deterministically, so the budget defaults low: roll
    /// back once (the anomaly may have been injected or transient), then
    /// abort rather than loop on poisoned arithmetic.
    pub max_anomaly_retries: usize,
    /// Maximum retries per *shard read* when the out-of-core feature
    /// store hits a transient I/O error. Each retry backs off with
    /// seeded jitter (modelled, never slept); exhausting the budget
    /// surfaces a structured [`TrainError::Storage`](crate::TrainError)
    /// instead of looping forever on a dead disk.
    pub max_io_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            growth: 2.0,
            headroom: 0.1,
            max_anomaly_retries: 1,
            max_io_retries: betty_data::DEFAULT_MAX_IO_RETRIES,
        }
    }
}

impl RetryPolicy {
    /// Checks the escalation knobs are in range.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.growth.is_finite() || self.growth < 1.0 {
            return Err(format!("retry growth must be ≥ 1, got {}", self.growth));
        }
        if !(0.0..1.0).contains(&self.headroom) {
            return Err(format!(
                "retry headroom must be in [0, 1), got {}",
                self.headroom
            ));
        }
        Ok(())
    }

    /// Next partition count after a failure at `k`. Always strictly
    /// increases so a retry never replays the identical plan.
    pub(crate) fn escalate_k(&self, k: usize) -> usize {
        ((k as f64 * self.growth).ceil() as usize).max(k + 1)
    }

    /// Planning capacity for `attempt` (0 = first try) given the real
    /// device capacity.
    pub(crate) fn planning_capacity(&self, capacity_bytes: usize, attempt: usize) -> usize {
        let scale = (1.0 - self.headroom).powi(attempt as i32);
        ((capacity_bytes as f64 * scale) as usize).max(1)
    }
}

/// One recorded fault or recovery action.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// An injected fault observed by the device or a link.
    Fault(FaultEvent),
    /// An injected fault the paged feature store observed.
    StorageFault(InjectedStorageFault),
    /// A mid-step OOM triggered a checkpointed retry with an escalated
    /// plan.
    OomRetry {
        /// 1-based recovery attempt number within the epoch.
        attempt: usize,
        /// Global step index that failed.
        step: usize,
        /// Phase of the step in which the OOM fired.
        phase: StepPhase,
        /// Whether the OOM was injected by a fault plan.
        injected: bool,
        /// Partition count of the failed plan.
        failed_k: usize,
        /// Partition count the next attempt starts from.
        next_k: usize,
        /// Capacity the next attempt plans against (after headroom
        /// backoff).
        planning_capacity: usize,
    },
    /// A lost device's migrated micro-batch would not fit the survivors'
    /// shrunk planning capacity: the plan escalates before anything runs.
    MigrationEscalation {
        /// 1-based recovery attempt number within the epoch.
        attempt: usize,
        /// Estimated peak of the largest migrated micro-batch.
        needed: usize,
        /// Partition count of the plan that could not be migrated.
        failed_k: usize,
        /// Partition count the next attempt starts from.
        next_k: usize,
        /// Capacity the survivors plan against (after headroom backoff).
        planning_capacity: usize,
    },
    /// A non-finite loss or gradient was caught by the sentinel and the
    /// trainable state was rolled back to the epoch-start snapshot.
    AnomalyRollback {
        /// 1-based rollback attempt number within the epoch.
        attempt: usize,
        /// Global step index at which the anomaly was detected.
        step: usize,
        /// What went non-finite.
        kind: AnomalyKind,
        /// Whether the anomaly came from an injected fault plan.
        injected: bool,
    },
    /// The anomaly-rollback budget ran out; the run aborts rather than
    /// loop on deterministically poisoned arithmetic.
    AnomalyAbort {
        /// Rollbacks that were consumed before giving up.
        rollbacks: usize,
        /// Global step index of the final, fatal anomaly.
        step: usize,
        /// What went non-finite.
        kind: AnomalyKind,
    },
    /// A previously failed epoch completed after retrying.
    Recovered {
        /// Recovery attempts that were consumed.
        attempts: usize,
        /// Partition count of the successful plan.
        final_k: usize,
    },
    /// The retry budget ran out; the epoch failed for good.
    Exhausted {
        /// Recovery attempts that were consumed.
        attempts: usize,
    },
    /// A device of the simulated group was declared lost — mid-epoch
    /// (scheduled failure) or at the all-reduce (link retries
    /// exhausted).
    DeviceLost {
        /// Which device was lost.
        device: usize,
        /// Micro-batches the device completed before it was lost.
        completed_steps: usize,
        /// Surviving ranks after the loss.
        live_ranks: usize,
    },
    /// A lost device's unfinished micro-batches were re-packed onto
    /// survivors with the same LPT heuristic.
    WorkMigrated {
        /// Device the work came from.
        from_device: usize,
        /// Micro-batches that moved.
        micro_batches: usize,
        /// Surviving devices that absorbed them.
        survivors: usize,
    },
    /// The ring all-reduce was rebuilt over the surviving ranks.
    RingRebuilt {
        /// Ranks in the new ring.
        live_ranks: usize,
        /// Modelled synchronization seconds over the new ring.
        allreduce_sec: f64,
    },
    /// A device's attributed time per unit of work exceeded the group's
    /// straggler threshold over the median device.
    StragglerDetected {
        /// The slow device.
        device: usize,
        /// Its slowdown relative to the group median.
        slowdown: f64,
    },
    /// An all-reduce round timed out and was retried after a
    /// seeded-jitter exponential backoff.
    LinkRetry {
        /// 1-based retry attempt within this sync.
        attempt: usize,
        /// Injected stall seconds that tripped the timeout.
        stall_sec: f64,
        /// Backoff waited before the retry, in seconds.
        backoff_sec: f64,
    },
    /// A transient shard-read failure was absorbed by the retry/backoff
    /// page-in path.
    IoRetry {
        /// Index of the shard whose read failed.
        shard: usize,
        /// 1-based retry attempt for this read.
        attempt: usize,
        /// Modelled backoff before the retry, in seconds (never slept).
        backoff_sec: f64,
    },
    /// A shard failed its payload CRC mid-run and was reconstructed
    /// bit-identically from its XOR parity group, then re-persisted.
    ShardRepaired {
        /// Index of the repaired data shard.
        shard: usize,
        /// Parity group the reconstruction read.
        group: usize,
    },
    /// The newest checkpoint slot failed CRC/format validation on resume
    /// and the session restored from the next-older valid slot instead.
    CheckpointFallback {
        /// Corrupt/unreadable slots that were skipped, newest first.
        skipped: Vec<std::path::PathBuf>,
        /// The slot that loaded cleanly.
        used: std::path::PathBuf,
    },
    /// The partition-ahead pipeline was torn down because a rollback made
    /// its staged plans stale: they were computed at the pre-escalation
    /// `K` (and from a sampling-RNG cursor the retry no longer follows).
    /// The retry replans synchronously; the pipeline restarts from the
    /// canonical post-epoch state on the next epoch.
    PlanAheadInvalidated {
        /// Staged bundles that were discarded (finished but unconsumed).
        staged: usize,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryEvent::Fault(FaultEvent::AllocFailure {
                step,
                requested,
                kind,
            }) => {
                let kind = match kind {
                    AllocFaultKind::Spurious => "spurious",
                    AllocFaultKind::StepScheduled => "step-scheduled",
                    AllocFaultKind::CapacityJitter => "capacity-jitter",
                };
                write!(
                    f,
                    "injected {kind} allocation failure at step {step} ({requested} bytes)"
                )
            }
            RecoveryEvent::Fault(FaultEvent::TransferStall {
                transfer_index,
                stall_sec,
            }) => write!(
                f,
                "injected {stall_sec:.3}s stall on transfer {transfer_index}"
            ),
            RecoveryEvent::Fault(FaultEvent::NanLoss { step }) => {
                write!(f, "injected NaN loss at step {step}")
            }
            RecoveryEvent::Fault(FaultEvent::DeviceFail {
                device,
                completed_steps,
            }) => write!(
                f,
                "injected failure of device {device} after {completed_steps} steps"
            ),
            RecoveryEvent::Fault(FaultEvent::LinkStall { round, stall_sec }) => write!(
                f,
                "injected {stall_sec:.3}s stall on all-reduce round {round}"
            ),
            RecoveryEvent::StorageFault(InjectedStorageFault::ReadFailed { shard, attempt }) => write!(
                f,
                "injected transient read error on shard {shard} (attempt {attempt})"
            ),
            RecoveryEvent::StorageFault(InjectedStorageFault::ReadStalled { shard, stall_sec }) => {
                write!(f, "injected {stall_sec:.3}s read stall on shard {shard}")
            }
            RecoveryEvent::StorageFault(InjectedStorageFault::Corrupted { shard, epoch }) => write!(
                f,
                "injected payload corruption of shard {shard} before epoch {epoch}"
            ),
            RecoveryEvent::IoRetry {
                shard,
                attempt,
                backoff_sec,
            } => write!(
                f,
                "shard {shard} read retry {attempt}: transient I/O error; \
                 backing off {backoff_sec:.3}s"
            ),
            RecoveryEvent::ShardRepaired { shard, group } => write!(
                f,
                "shard {shard} failed CRC mid-run; reconstructed bit-identically \
                 from XOR parity group {group} and re-persisted"
            ),
            RecoveryEvent::CheckpointFallback { skipped, used } => write!(
                f,
                "checkpoint fallback: skipped {} corrupt slot(s) ({}); \
                 restored from {}",
                skipped.len(),
                skipped
                    .iter()
                    .map(|p| p.display().to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                used.display()
            ),
            RecoveryEvent::DeviceLost {
                device,
                completed_steps,
                live_ranks,
            } => write!(
                f,
                "device {device} lost after {completed_steps} completed steps; \
                 {live_ranks} ranks remain"
            ),
            RecoveryEvent::WorkMigrated {
                from_device,
                micro_batches,
                survivors,
            } => write!(
                f,
                "migrated {micro_batches} unfinished micro-batches from device \
                 {from_device} onto {survivors} survivors (LPT re-pack)"
            ),
            RecoveryEvent::RingRebuilt {
                live_ranks,
                allreduce_sec,
            } => write!(
                f,
                "ring all-reduce rebuilt over {live_ranks} ranks \
                 ({:.3} ms sync)",
                allreduce_sec * 1e3
            ),
            RecoveryEvent::StragglerDetected { device, slowdown } => write!(
                f,
                "device {device} flagged as straggler ({slowdown:.2}x the \
                 median time per unit work); degraded but still serving"
            ),
            RecoveryEvent::LinkRetry {
                attempt,
                stall_sec,
                backoff_sec,
            } => write!(
                f,
                "all-reduce retry {attempt}: round timed out ({stall_sec:.3}s \
                 stall); backing off {backoff_sec:.3}s"
            ),
            RecoveryEvent::AnomalyRollback {
                attempt,
                step,
                kind,
                injected,
            } => write!(
                f,
                "anomaly rollback {attempt}: {}{kind} at step {step}; \
                 restored epoch-start snapshot",
                if *injected { "injected " } else { "" }
            ),
            RecoveryEvent::AnomalyAbort {
                rollbacks,
                step,
                kind,
            } => write!(
                f,
                "anomaly budget exhausted after {rollbacks} rollbacks: \
                 {kind} at step {step}"
            ),
            RecoveryEvent::OomRetry {
                attempt,
                step,
                phase,
                injected,
                failed_k,
                next_k,
                planning_capacity,
            } => write!(
                f,
                "retry {attempt}: {}OOM at step {step} ({phase}) with K={failed_k}; \
                 escalating to K≥{next_k} against {planning_capacity} bytes",
                if *injected { "injected " } else { "" }
            ),
            RecoveryEvent::MigrationEscalation {
                attempt,
                needed,
                failed_k,
                next_k,
                planning_capacity,
            } => write!(
                f,
                "retry {attempt}: a micro-batch migrated off a lost device needs {needed} \
                 bytes at K={failed_k}, over the survivors' {planning_capacity}; \
                 escalating to K≥{next_k}"
            ),
            RecoveryEvent::Recovered { attempts, final_k } => {
                write!(f, "recovered after {attempts} retries at K={final_k}")
            }
            RecoveryEvent::Exhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            RecoveryEvent::PlanAheadInvalidated { staged } => write!(
                f,
                "partition-ahead pipeline invalidated ({staged} staged plans \
                 discarded); replanning synchronously at the escalated K"
            ),
        }
    }
}

impl RecoveryEvent {
    /// Stable lowercase name, the `kind` of the event's trace record.
    pub const fn kind(&self) -> &'static str {
        match self {
            RecoveryEvent::Fault(fault) => match fault {
                FaultEvent::AllocFailure { .. } => "alloc_failure",
                FaultEvent::TransferStall { .. } => "transfer_stall",
                FaultEvent::NanLoss { .. } => "nan_loss",
                FaultEvent::DeviceFail { .. } => "device_fail",
                FaultEvent::LinkStall { .. } => "link_stall",
            },
            RecoveryEvent::StorageFault(fault) => match fault {
                InjectedStorageFault::ReadFailed { .. } => "storage_io",
                InjectedStorageFault::ReadStalled { .. } => "storage_stall",
                InjectedStorageFault::Corrupted { .. } => "shard_corrupt",
            },
            RecoveryEvent::OomRetry { .. } => "oom_retry",
            RecoveryEvent::MigrationEscalation { .. } => "migration_escalation",
            RecoveryEvent::AnomalyRollback { .. } => "anomaly_rollback",
            RecoveryEvent::AnomalyAbort { .. } => "anomaly_abort",
            RecoveryEvent::Recovered { .. } => "recovered",
            RecoveryEvent::Exhausted { .. } => "exhausted",
            RecoveryEvent::DeviceLost { .. } => "device_lost",
            RecoveryEvent::WorkMigrated { .. } => "work_migrated",
            RecoveryEvent::RingRebuilt { .. } => "ring_rebuilt",
            RecoveryEvent::StragglerDetected { .. } => "straggler",
            RecoveryEvent::LinkRetry { .. } => "link_retry",
            RecoveryEvent::IoRetry { .. } => "io_retry",
            RecoveryEvent::ShardRepaired { .. } => "shard_repaired",
            RecoveryEvent::CheckpointFallback { .. } => "checkpoint_fallback",
            RecoveryEvent::PlanAheadInvalidated { .. } => "plan_ahead_invalidated",
        }
    }
}

/// A [`RecoveryEvent`] stamped with the epoch it occurred in.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEntry {
    /// The runner's epoch ordinal when the event was recorded.
    pub epoch: usize,
    /// What happened.
    pub event: RecoveryEvent,
}

/// Append-only record of every injected fault and recovery action of a
/// run. Each [`crate::Runner`] owns one for its lifetime
/// ([`crate::Runner::recovery_log`]) and stamps it with its own epoch;
/// the counts below are the run's only fault and recovery counters.
#[derive(Debug)]
pub struct RecoveryLog {
    current_epoch: usize,
    entries: Vec<RecoveryEntry>,
}

impl RecoveryLog {
    /// An empty log starting at epoch 0.
    pub(crate) fn new() -> Self {
        RecoveryLog {
            current_epoch: 0,
            entries: Vec::new(),
        }
    }

    /// Sets the epoch stamped onto subsequently recorded events.
    pub(crate) fn set_epoch(&mut self, epoch: usize) {
        self.current_epoch = epoch;
    }

    /// Appends an event at the current epoch.
    pub(crate) fn record(&mut self, event: RecoveryEvent) {
        self.entries.push(RecoveryEntry {
            epoch: self.current_epoch,
            event,
        });
    }

    /// Every recorded entry, in order.
    pub fn entries(&self) -> &[RecoveryEntry] {
        &self.entries
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of injected faults observed.
    pub fn injected_faults(&self) -> usize {
        self.count(|e| matches!(e, RecoveryEvent::Fault(_) | RecoveryEvent::StorageFault(_)))
    }

    /// Number of OOM-triggered retries.
    pub fn oom_retries(&self) -> usize {
        self.count(|e| matches!(e, RecoveryEvent::OomRetry { .. }))
    }

    /// Number of numeric-anomaly rollbacks.
    pub fn anomaly_rollbacks(&self) -> usize {
        self.count(|e| matches!(e, RecoveryEvent::AnomalyRollback { .. }))
    }

    /// Micro-batches migrated off lost devices.
    pub fn migrated_steps(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e.event {
                RecoveryEvent::WorkMigrated { micro_batches, .. } => micro_batches,
                _ => 0,
            })
            .sum()
    }

    /// Number of transient shard-read failures absorbed by retry/backoff.
    pub fn io_retries(&self) -> usize {
        self.count(|e| matches!(e, RecoveryEvent::IoRetry { .. }))
    }

    /// Number of shards reconstructed from XOR parity mid-run.
    pub fn shards_repaired(&self) -> usize {
        self.count(|e| matches!(e, RecoveryEvent::ShardRepaired { .. }))
    }

    fn count(&self, pred: impl Fn(&RecoveryEvent) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(&e.event)).count()
    }

    /// Human-readable multi-line summary: how many entries of each
    /// [`RecoveryEvent::kind`], in order of first appearance, then one
    /// line per entry — what the CLI prints after a faulted run.
    pub fn summary(&self) -> String {
        let mut tally: Vec<(&str, usize)> = Vec::new();
        for entry in &self.entries {
            let kind = entry.event.kind();
            match tally.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => tally.push((kind, 1)),
            }
        }
        let tally: Vec<String> = tally.iter().map(|(kind, n)| format!("{n} {kind}")).collect();
        let mut out = format!("recovery log: {}", tally.join(", "));
        for entry in &self.entries {
            out.push_str(&format!("\n  [epoch {}] {}", entry.epoch, entry.event));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Per-kind counts that only the crate's tests read; the log keeps
    // the ones the CLI and the trace report.
    impl RecoveryLog {
        pub(crate) fn of_epoch(&self, epoch: usize) -> RecoveryLog {
            let entries = self.entries.iter().filter(|e| e.epoch == epoch).cloned().collect();
            RecoveryLog {
                current_epoch: epoch,
                entries,
            }
        }

        pub(crate) fn retries(&self) -> usize {
            self.entries
                .iter()
                .map(|e| match e.event {
                    RecoveryEvent::Recovered { attempts, .. }
                    | RecoveryEvent::Exhausted { attempts } => attempts,
                    _ => 0,
                })
                .sum()
        }

        pub(crate) fn recoveries(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::Recovered { .. }))
        }

        pub(crate) fn anomaly_aborted(&self) -> bool {
            self.count(|e| matches!(e, RecoveryEvent::AnomalyAbort { .. })) > 0
        }

        pub(crate) fn exhausted(&self) -> bool {
            self.count(|e| matches!(e, RecoveryEvent::Exhausted { .. })) > 0
        }

        fn devices_lost(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::DeviceLost { .. }))
        }

        fn work_migrations(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::WorkMigrated { .. }))
        }

        fn ring_rebuilds(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::RingRebuilt { .. }))
        }

        fn stragglers_detected(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::StragglerDetected { .. }))
        }

        fn link_retries(&self) -> usize {
            self.count(|e| matches!(e, RecoveryEvent::LinkRetry { .. }))
        }
    }

    #[test]
    fn default_policy_is_valid() {
        RetryPolicy::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let shrink = RetryPolicy {
            growth: 0.5,
            ..RetryPolicy::default()
        };
        assert!(shrink.validate().unwrap_err().contains("growth"));
        let all_headroom = RetryPolicy {
            headroom: 1.0,
            ..RetryPolicy::default()
        };
        assert!(all_headroom.validate().unwrap_err().contains("headroom"));
    }

    #[test]
    fn escalation_always_strictly_increases() {
        let unit_growth = RetryPolicy {
            growth: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(unit_growth.escalate_k(1), 2);
        assert_eq!(unit_growth.escalate_k(7), 8);
        let double = RetryPolicy::default();
        assert_eq!(double.escalate_k(1), 2);
        assert_eq!(double.escalate_k(3), 6);
    }

    #[test]
    fn planning_capacity_compounds_and_stays_positive() {
        let p = RetryPolicy {
            headroom: 0.5,
            ..RetryPolicy::default()
        };
        assert_eq!(p.planning_capacity(1000, 0), 1000);
        assert_eq!(p.planning_capacity(1000, 1), 500);
        assert_eq!(p.planning_capacity(1000, 2), 250);
        assert_eq!(p.planning_capacity(0, 5), 1, "never hands the planner 0");
    }

    #[test]
    fn log_counts_and_summarizes() {
        let mut log = RecoveryLog::new();
        assert!(log.is_empty());
        log.record(RecoveryEvent::Fault(FaultEvent::AllocFailure {
            step: 0,
            requested: 64,
            kind: AllocFaultKind::StepScheduled,
        }));
        log.record(RecoveryEvent::OomRetry {
            attempt: 1,
            step: 0,
            phase: StepPhase::StaticCharge,
            injected: true,
            failed_k: 1,
            next_k: 2,
            planning_capacity: 900,
        });
        log.set_epoch(1);
        log.record(RecoveryEvent::Recovered {
            attempts: 1,
            final_k: 2,
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.injected_faults(), 1);
        assert_eq!(log.oom_retries(), 1);
        assert_eq!(log.recoveries(), 1);
        assert!(!log.exhausted());
        assert_eq!(log.entries()[2].epoch, 1);
        let summary = log.summary();
        assert!(summary.starts_with("recovery log: 1 alloc_failure, 1 oom_retry, 1 recovered"), "{summary}");
        assert!(summary.contains("[epoch 0]"), "{summary}");
        assert!(summary.contains("escalating to K≥2"), "{summary}");
    }

    #[test]
    fn exhaustion_is_flagged() {
        let mut log = RecoveryLog::new();
        log.record(RecoveryEvent::Exhausted { attempts: 3 });
        assert!(log.exhausted());
        assert!(log.summary().contains("1 exhausted"));
    }

    #[test]
    fn elastic_events_are_counted_and_summarized() {
        let mut log = RecoveryLog::new();
        log.record(RecoveryEvent::Fault(FaultEvent::DeviceFail {
            device: 1,
            completed_steps: 2,
        }));
        log.record(RecoveryEvent::DeviceLost {
            device: 1,
            completed_steps: 2,
            live_ranks: 3,
        });
        log.record(RecoveryEvent::WorkMigrated {
            from_device: 1,
            micro_batches: 4,
            survivors: 3,
        });
        log.record(RecoveryEvent::RingRebuilt {
            live_ranks: 3,
            allreduce_sec: 0.0015,
        });
        log.record(RecoveryEvent::StragglerDetected {
            device: 2,
            slowdown: 2.5,
        });
        log.record(RecoveryEvent::LinkRetry {
            attempt: 1,
            stall_sec: 0.5,
            backoff_sec: 0.05,
        });
        assert_eq!(log.devices_lost(), 1);
        assert_eq!(log.work_migrations(), 1);
        assert_eq!(log.ring_rebuilds(), 1);
        assert_eq!(log.stragglers_detected(), 1);
        assert_eq!(log.link_retries(), 1);
        assert_eq!(log.injected_faults(), 1);
        let summary = log.summary();
        assert!(
            summary.contains("1 device_lost, 1 work_migrated, 1 ring_rebuilt, 1 straggler, 1 link_retry"),
            "{summary}"
        );
        assert!(summary.contains("device 1 lost after 2 completed steps"), "{summary}");
        assert!(summary.contains("migrated 4 unfinished micro-batches"), "{summary}");
        assert!(summary.contains("rebuilt over 3 ranks"), "{summary}");
        assert!(summary.contains("flagged as straggler"), "{summary}");
        assert!(summary.contains("all-reduce retry 1"), "{summary}");
    }

    #[test]
    fn storage_events_are_counted_and_summarized() {
        let mut log = RecoveryLog::new();
        log.record(RecoveryEvent::StorageFault(InjectedStorageFault::ReadFailed {
            shard: 3,
            attempt: 1,
        }));
        log.record(RecoveryEvent::IoRetry {
            shard: 3,
            attempt: 1,
            backoff_sec: 0.005,
        });
        log.record(RecoveryEvent::StorageFault(InjectedStorageFault::Corrupted {
            shard: 2,
            epoch: 1,
        }));
        log.record(RecoveryEvent::ShardRepaired { shard: 2, group: 1 });
        log.record(RecoveryEvent::CheckpointFallback {
            skipped: vec!["/ck/ckpt-000009.btc".into()],
            used: "/ck/ckpt-000007.btc".into(),
        });
        assert_eq!(log.io_retries(), 1);
        assert_eq!(log.shards_repaired(), 1);
        assert_eq!(log.injected_faults(), 2);
        let summary = log.summary();
        assert!(
            summary.contains("1 io_retry, 1 shard_corrupt, 1 shard_repaired, 1 checkpoint_fallback"),
            "{summary}"
        );
        assert!(summary.contains("shard 3 read retry 1"), "{summary}");
        assert!(
            summary.contains("reconstructed bit-identically from XOR parity group 1"),
            "{summary}"
        );
        assert!(summary.contains("restored from /ck/ckpt-000007.btc"), "{summary}");
    }

    #[test]
    fn anomaly_events_are_counted_and_summarized() {
        let mut log = RecoveryLog::new();
        log.record(RecoveryEvent::Fault(FaultEvent::NanLoss { step: 4 }));
        log.record(RecoveryEvent::AnomalyRollback {
            attempt: 1,
            step: 4,
            kind: AnomalyKind::NonFiniteLoss,
            injected: true,
        });
        log.record(RecoveryEvent::AnomalyAbort {
            rollbacks: 1,
            step: 4,
            kind: AnomalyKind::NonFiniteLoss,
        });
        assert_eq!(log.anomaly_rollbacks(), 1);
        assert!(log.anomaly_aborted());
        assert_eq!(log.injected_faults(), 1);
        let summary = log.summary();
        assert!(summary.contains("1 anomaly_rollback, 1 anomaly_abort"), "{summary}");
        assert!(summary.contains("injected NaN loss at step 4"), "{summary}");
        assert!(
            summary.contains("injected non-finite loss at step 4"),
            "{summary}"
        );
    }
}
