//! Deterministic fault injection for the simulated accelerator.
//!
//! Real GNN training jobs die to transient allocator failures, memory
//! fragmentation, and link hiccups that a clean simulation never
//! produces. [`FaultPlan`] describes a reproducible schedule of such
//! faults; armed onto a [`Device`](crate::Device) /
//! [`TransferModel`](crate::TransferModel) pair it injects:
//!
//! * **spurious allocation failures** — an allocation fails even though
//!   capacity is available, at a configured probability per allocation;
//! * **step-scheduled OOMs** — the first allocation of listed step
//!   indices fails deterministically (for targeted regression tests);
//! * **capacity jitter** — a per-step random slice of capacity is
//!   withheld, so allocations near the limit fail early (fragmentation
//!   stand-in);
//! * **transfer stalls** — a transfer takes a configured extra delay at
//!   a configured probability (link contention stand-in).
//!
//! All draws come from a [`Pcg64Mcg`] seeded from [`FaultPlan::seed`],
//! so the same plan over the same workload injects the same faults in
//! the same order on every run. Every injected fault is recorded as a
//! [`FaultEvent`] that the training layer drains into its recovery log.

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use std::collections::BTreeSet;

/// Seed-domain separators so the alloc, transfer, and link streams are
/// independent even though they come from one user-facing seed.
const ALLOC_STREAM_SALT: u64 = 0xA110_C8ED_FA17_0001;
const TRANSFER_STREAM_SALT: u64 = 0x7247_5FE2_FA17_0002;
const LINK_STREAM_SALT: u64 = 0x1141_C057_FA17_0003;
const STORAGE_STREAM_SALT: u64 = 0x5704_A6E1_FA17_0004;

/// A declarative, seedable schedule of injected faults.
///
/// The plan itself is inert configuration (cheap to clone, compare, and
/// log); [`FaultPlan::alloc_injector`] and
/// [`FaultPlan::transfer_injector`] instantiate the stateful runtime
/// injectors that devices arm.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault draws. Two runs with equal plans (including
    /// this seed) and equal workloads observe identical fault sequences.
    pub seed: u64,
    /// Probability in `[0, 1]` that any single allocation spuriously
    /// fails despite available capacity.
    pub alloc_failure_rate: f64,
    /// Step indices whose first allocation deterministically fails
    /// (independent of `alloc_failure_rate`).
    pub oom_steps: Vec<usize>,
    /// Fraction of device capacity in `[0, 1]` that may be withheld
    /// each step: the withheld amount is drawn uniformly from
    /// `[0, capacity_jitter * capacity]` at every step boundary.
    pub capacity_jitter: f64,
    /// Probability in `[0, 1]` that a transfer stalls.
    pub transfer_stall_rate: f64,
    /// Extra seconds a stalled transfer takes.
    pub transfer_stall_sec: f64,
    /// Step indices whose loss is poisoned to NaN before backward
    /// (exercises the trainer's numeric-anomaly sentinel). The poisoning
    /// happens in the trainer, not the device, but lives here so one
    /// `FaultPlan` describes the whole fault schedule.
    pub nan_loss_steps: Vec<usize>,
    /// Device-level failures for elastic multi-device training:
    /// `(device, step)` means device `device` fails after completing
    /// `step` micro-batches from its own queue within an epoch (`0` =
    /// it dies before running anything). Scheduling-layer only — the
    /// interpretation lives in the elastic device group; per-epoch and
    /// deterministic, so chaos runs are replayable.
    pub device_fail_steps: Vec<(usize, usize)>,
    /// Per-device straggler slowdowns: `(device, factor)` multiplies
    /// that device's attributed compute and transfer seconds by
    /// `factor` (must be ≥ 1). Timing-layer only — numerics are
    /// untouched.
    pub straggler_factors: Vec<(usize, f64)>,
    /// Probability in `[0, 1]` that one all-reduce attempt stalls on
    /// the interconnect.
    pub link_stall_rate: f64,
    /// Extra seconds a stalled all-reduce attempt takes. Stalls at or
    /// above the device group's timeout count as a timed-out round and
    /// trigger a backoff retry.
    pub link_stall_sec: f64,
    /// Probability in `[0, 1]` that one physical shard-read attempt in
    /// the paged feature store fails with a transient I/O error. The
    /// store retries with seeded-jitter backoff, so numerics are
    /// untouched unless the retry budget is exhausted.
    pub io_failure_rate: f64,
    /// Probability in `[0, 1]` that a shard read stalls (NVMe hiccup).
    pub io_stall_rate: f64,
    /// Extra simulated seconds a stalled shard read takes. Timing-layer
    /// only — the stall is accounted, never slept.
    pub io_stall_sec: f64,
    /// Scheduled on-disk shard corruption: `(shard, epoch)` flips one
    /// payload byte of feature shard `shard` at the start of epoch
    /// `epoch` (epoch ordinal within the run, starting at 0). The flip
    /// happens in the training layer, which owns the store; it lives
    /// here so one `FaultPlan` describes the whole fault schedule.
    pub shard_corrupt: Vec<(usize, usize)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            alloc_failure_rate: 0.0,
            oom_steps: Vec::new(),
            capacity_jitter: 0.0,
            transfer_stall_rate: 0.0,
            transfer_stall_sec: 0.0,
            nan_loss_steps: Vec::new(),
            device_fail_steps: Vec::new(),
            straggler_factors: Vec::new(),
            link_stall_rate: 0.0,
            link_stall_sec: 0.0,
            io_failure_rate: 0.0,
            io_stall_rate: 0.0,
            io_stall_sec: 0.0,
            shard_corrupt: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// Checks rates and durations are in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("alloc_failure_rate", self.alloc_failure_rate),
            ("capacity_jitter", self.capacity_jitter),
            ("transfer_stall_rate", self.transfer_stall_rate),
            ("link_stall_rate", self.link_stall_rate),
            ("io_failure_rate", self.io_failure_rate),
            ("io_stall_rate", self.io_stall_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        for (name, sec) in [
            ("transfer_stall_sec", self.transfer_stall_sec),
            ("link_stall_sec", self.link_stall_sec),
            ("io_stall_sec", self.io_stall_sec),
        ] {
            if !sec.is_finite() || sec < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {sec}"));
            }
        }
        let mut seen_corrupt = BTreeSet::new();
        for &(shard, epoch) in &self.shard_corrupt {
            if !seen_corrupt.insert((shard, epoch)) {
                return Err(format!(
                    "shard_corrupt entry (shard {shard}, epoch {epoch}) is duplicated"
                ));
            }
        }
        let mut seen_fails = BTreeSet::new();
        for &(device, step) in &self.device_fail_steps {
            if !seen_fails.insert((device, step)) {
                return Err(format!(
                    "device_fail_steps entry (device {device}, step {step}) is duplicated"
                ));
            }
        }
        let mut seen_stragglers = BTreeSet::new();
        for &(device, factor) in &self.straggler_factors {
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!(
                    "straggler_factors entry (device {device}, factor {factor}): \
                     slowdown factor must be finite and ≥ 1"
                ));
            }
            if !seen_stragglers.insert(device) {
                return Err(format!(
                    "straggler_factors entry (device {device}, factor {factor}): \
                     device {device} listed twice"
                ));
            }
        }
        Ok(())
    }

    /// [`FaultPlan::validate`] plus device-index range checks against a
    /// concrete group size — the plan itself does not know how many
    /// devices exist, so callers with a device group re-validate here.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first out-of-range entry.
    pub fn validate_for_devices(&self, num_devices: usize) -> Result<(), String> {
        self.validate()?;
        for &(device, step) in &self.device_fail_steps {
            if device >= num_devices {
                return Err(format!(
                    "device_fail_steps entry (device {device}, step {step}): \
                     device index out of range for {num_devices} devices"
                ));
            }
        }
        for &(device, factor) in &self.straggler_factors {
            if device >= num_devices {
                return Err(format!(
                    "straggler_factors entry (device {device}, factor {factor}): \
                     device index out of range for {num_devices} devices"
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan can never inject anything.
    pub fn is_noop(&self) -> bool {
        self.alloc_failure_rate == 0.0
            && self.oom_steps.is_empty()
            && self.capacity_jitter == 0.0
            && self.transfer_stall_rate == 0.0
            && self.nan_loss_steps.is_empty()
            && self.device_fail_steps.is_empty()
            && self.straggler_factors.is_empty()
            && self.link_stall_rate == 0.0
            && self.io_failure_rate == 0.0
            && self.io_stall_rate == 0.0
            && self.shard_corrupt.is_empty()
    }

    /// Builds the allocation-side injector for this plan.
    pub fn alloc_injector(&self) -> AllocFaultInjector {
        AllocFaultInjector {
            rate: self.alloc_failure_rate,
            jitter_fraction: self.capacity_jitter,
            oom_steps: self.oom_steps.iter().copied().collect(),
            rng: Pcg64Mcg::seed_from_u64(self.seed ^ ALLOC_STREAM_SALT),
            step: 0,
            step_fault_pending: false,
            withheld: 0,
            events: Vec::new(),
        }
    }

    /// Builds the transfer-side injector for this plan.
    pub fn transfer_injector(&self) -> TransferFaultInjector {
        TransferFaultInjector {
            stall_rate: self.transfer_stall_rate,
            stall_sec: self.transfer_stall_sec,
            rng: Pcg64Mcg::seed_from_u64(self.seed ^ TRANSFER_STREAM_SALT),
            transfers_seen: 0,
            events: Vec::new(),
        }
    }

    /// Builds the all-reduce-link injector for this plan. One injector
    /// should live for a whole run so its stream continues across
    /// epochs, mirroring the other injectors.
    pub fn link_injector(&self) -> LinkFaultInjector {
        LinkFaultInjector {
            stall_rate: self.link_stall_rate,
            stall_sec: self.link_stall_sec,
            rng: Pcg64Mcg::seed_from_u64(self.seed ^ LINK_STREAM_SALT),
            rounds_seen: 0,
            events: Vec::new(),
        }
    }

    /// Builds the storage-side injector for this plan. One injector
    /// should live for a whole run so its stream continues across
    /// epochs, mirroring the other injectors.
    pub fn storage_injector(&self) -> StorageFaultInjector {
        StorageFaultInjector {
            failure_rate: self.io_failure_rate,
            stall_rate: self.io_stall_rate,
            stall_sec: self.io_stall_sec,
            rng: Pcg64Mcg::seed_from_u64(self.seed ^ STORAGE_STREAM_SALT),
            events: Vec::new(),
        }
    }

    /// Whether the storage side of the plan can inject anything: shard
    /// reads failing or stalling, or scheduled on-disk corruption.
    pub fn has_storage_faults(&self) -> bool {
        self.io_failure_rate > 0.0 || self.io_stall_rate > 0.0 || !self.shard_corrupt.is_empty()
    }
}

/// Why an injected allocation failure fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocFaultKind {
    /// Random failure drawn against
    /// [`FaultPlan::alloc_failure_rate`].
    Spurious,
    /// Deterministic failure from [`FaultPlan::oom_steps`].
    StepScheduled,
    /// Capacity withheld by jitter made the allocation not fit.
    CapacityJitter,
}

/// One injected fault, as recorded for the recovery log.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// An allocation was made to fail.
    AllocFailure {
        /// Step index active when the fault fired.
        step: usize,
        /// Bytes the allocation requested.
        requested: usize,
        /// Which mechanism fired.
        kind: AllocFaultKind,
    },
    /// A transfer was stalled.
    TransferStall {
        /// Zero-based index of the transfer within this injector's life.
        transfer_index: u64,
        /// Extra seconds added.
        stall_sec: f64,
    },
    /// A step's loss was poisoned to NaN (from
    /// [`FaultPlan::nan_loss_steps`]).
    NanLoss {
        /// Global step index whose loss was poisoned.
        step: usize,
    },
    /// A device of a simulated group failed mid-epoch (from
    /// [`FaultPlan::device_fail_steps`]).
    DeviceFail {
        /// Which device failed.
        device: usize,
        /// Micro-batches the device completed from its queue before
        /// failing.
        completed_steps: usize,
    },
    /// An all-reduce attempt stalled on the interconnect.
    LinkStall {
        /// Zero-based index of the all-reduce attempt within this
        /// injector's life.
        round: u64,
        /// Extra seconds added (or lost to the timeout).
        stall_sec: f64,
    },
    /// A physical shard-read attempt was made to fail with a transient
    /// I/O error (from [`FaultPlan::io_failure_rate`]).
    StorageIoError {
        /// Feature shard whose read failed.
        shard: usize,
        /// Zero-based attempt index for this logical read.
        attempt: usize,
    },
    /// A shard read stalled (from [`FaultPlan::io_stall_rate`]).
    StorageStall {
        /// Feature shard whose read stalled.
        shard: usize,
        /// Extra simulated seconds added.
        stall_sec: f64,
    },
    /// A shard payload byte was flipped on disk (from
    /// [`FaultPlan::shard_corrupt`]).
    ShardCorrupted {
        /// Feature shard that was corrupted.
        shard: usize,
        /// Epoch ordinal at which the flip was applied.
        epoch: usize,
    },
}

impl FaultEvent {
    /// The `(kind, detail)` pair this event is exported as in the
    /// `betty-trace` JSONL stream's `fault` records.
    pub fn trace_record(&self) -> (&'static str, String) {
        match self {
            FaultEvent::AllocFailure {
                step, requested, ..
            } => (
                "alloc_failure",
                format!("step {step}: {requested} bytes denied"),
            ),
            FaultEvent::TransferStall {
                transfer_index,
                stall_sec,
            } => (
                "transfer_stall",
                format!("transfer {transfer_index}: +{stall_sec:.3}s"),
            ),
            FaultEvent::NanLoss { step } => ("nan_loss", format!("step {step}: loss poisoned")),
            FaultEvent::DeviceFail {
                device,
                completed_steps,
            } => (
                "device_fail",
                format!("device {device} after {completed_steps} steps"),
            ),
            FaultEvent::LinkStall { round, stall_sec } => {
                ("link_stall", format!("round {round}: +{stall_sec:.3}s"))
            }
            FaultEvent::StorageIoError { shard, attempt } => (
                "storage_io",
                format!("shard {shard}: transient read error on attempt {attempt}"),
            ),
            FaultEvent::StorageStall { shard, stall_sec } => (
                "storage_stall",
                format!("shard {shard}: +{stall_sec:.3}s read stall"),
            ),
            FaultEvent::ShardCorrupted { shard, epoch } => (
                "shard_corrupt",
                format!("shard {shard}: payload byte flipped before epoch {epoch}"),
            ),
        }
    }
}

/// Runtime state injecting allocation faults into a
/// [`Device`](crate::Device).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocFaultInjector {
    rate: f64,
    jitter_fraction: f64,
    oom_steps: BTreeSet<usize>,
    rng: Pcg64Mcg,
    step: usize,
    step_fault_pending: bool,
    withheld: usize,
    events: Vec<FaultEvent>,
}

impl AllocFaultInjector {
    /// Marks a step boundary: arms any scheduled step fault and redraws
    /// the capacity withheld by jitter for this step.
    pub(crate) fn begin_step(&mut self, step: usize, capacity: usize) {
        self.step = step;
        self.step_fault_pending = self.oom_steps.contains(&step);
        self.withheld = if self.jitter_fraction > 0.0 {
            let max_withheld = self.jitter_fraction * capacity as f64;
            (self.rng.gen::<f64>() * max_withheld) as usize
        } else {
            0
        };
    }

    /// Decides whether the allocation of `bytes` (with `current` in use
    /// of `capacity`) should be made to fail; records the event if so.
    pub(crate) fn check_alloc(
        &mut self,
        bytes: usize,
        current: usize,
        capacity: usize,
    ) -> Option<AllocFaultKind> {
        let kind = if self.step_fault_pending {
            self.step_fault_pending = false;
            Some(AllocFaultKind::StepScheduled)
        } else if self.rate > 0.0 && self.rng.gen_bool(self.rate) {
            Some(AllocFaultKind::Spurious)
        } else if self.withheld > 0
            && current.saturating_add(bytes) > capacity.saturating_sub(self.withheld)
        {
            Some(AllocFaultKind::CapacityJitter)
        } else {
            None
        };
        if let Some(kind) = kind {
            self.events.push(FaultEvent::AllocFailure {
                step: self.step,
                requested: bytes,
                kind,
            });
        }
        kind
    }

    /// Removes and returns every event recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events currently recorded (not yet drained).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Runtime state injecting stalls into a
/// [`TransferModel`](crate::TransferModel).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFaultInjector {
    stall_rate: f64,
    stall_sec: f64,
    rng: Pcg64Mcg,
    transfers_seen: u64,
    events: Vec<FaultEvent>,
}

impl TransferFaultInjector {
    /// Decides whether this transfer stalls; returns the extra seconds
    /// and records the event if so.
    pub(crate) fn check_transfer(&mut self) -> Option<f64> {
        let index = self.transfers_seen;
        self.transfers_seen += 1;
        if self.stall_rate > 0.0 && self.rng.gen_bool(self.stall_rate) {
            self.events.push(FaultEvent::TransferStall {
                transfer_index: index,
                stall_sec: self.stall_sec,
            });
            Some(self.stall_sec)
        } else {
            None
        }
    }

    /// Removes and returns every event recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events currently recorded (not yet drained).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Runtime state injecting stalls into simulated all-reduce rounds.
///
/// Unlike the other injectors this one is consulted by the elastic
/// device-group layer (crate `betty`), so its check method is public.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFaultInjector {
    stall_rate: f64,
    stall_sec: f64,
    rng: Pcg64Mcg,
    rounds_seen: u64,
    events: Vec<FaultEvent>,
}

impl LinkFaultInjector {
    /// Decides whether this all-reduce attempt stalls; returns the
    /// extra seconds and records the event if so. Draws nothing when
    /// the stall rate is zero, so a no-fault plan leaves the generator
    /// untouched.
    pub fn check_round(&mut self) -> Option<f64> {
        let round = self.rounds_seen;
        self.rounds_seen += 1;
        if self.stall_rate > 0.0 && self.rng.gen_bool(self.stall_rate) {
            self.events.push(FaultEvent::LinkStall {
                round,
                stall_sec: self.stall_sec,
            });
            Some(self.stall_sec)
        } else {
            None
        }
    }

    /// Seeded jitter in `[0, 1)` for exponential-backoff delays, drawn
    /// from this injector's own stream so backoff timing is replayable.
    pub fn backoff_jitter(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Removes and returns every event recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events currently recorded (not yet drained).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Verdict for one physical shard-read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageReadFault {
    /// The attempt should fail with a transient I/O error.
    pub fail: bool,
    /// Simulated NVMe stall seconds charged to the attempt.
    pub stall_sec: f64,
}

/// Runtime state injecting storage faults into the paged feature
/// store's shard reads.
///
/// Like [`LinkFaultInjector`] this is consulted from outside the
/// device crate (the training layer adapts it onto the store), so its
/// check methods are public.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaultInjector {
    failure_rate: f64,
    stall_rate: f64,
    stall_sec: f64,
    rng: Pcg64Mcg,
    events: Vec<FaultEvent>,
}

impl StorageFaultInjector {
    /// Decides whether this shard-read attempt fails and/or stalls;
    /// records the event(s) if so. Draws nothing when both rates are
    /// zero, so a no-fault plan leaves the generator untouched.
    pub fn check_read(&mut self, shard: usize, attempt: usize) -> StorageReadFault {
        let mut verdict = StorageReadFault::default();
        if self.failure_rate > 0.0 && self.rng.gen_bool(self.failure_rate) {
            verdict.fail = true;
            self.events.push(FaultEvent::StorageIoError { shard, attempt });
        }
        if self.stall_rate > 0.0 && self.rng.gen_bool(self.stall_rate) {
            verdict.stall_sec = self.stall_sec;
            self.events.push(FaultEvent::StorageStall {
                shard,
                stall_sec: self.stall_sec,
            });
        }
        verdict
    }

    /// Seeded jitter in `[0, 1)` for retry-backoff delays, drawn from
    /// this injector's own stream so backoff timing is replayable.
    pub fn backoff_jitter(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Records a scheduled on-disk corruption applied by the training
    /// layer. Consumes no randomness.
    pub fn note_corruption(&mut self, shard: usize, epoch: usize) {
        self.events.push(FaultEvent::ShardCorrupted { shard, epoch });
    }

    /// Removes and returns every event recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events currently recorded (not yet drained).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            alloc_failure_rate: 0.3,
            oom_steps: vec![2],
            capacity_jitter: 0.5,
            transfer_stall_rate: 0.25,
            transfer_stall_sec: 1e-3,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn validate_accepts_default_and_rejects_bad_rates() {
        assert!(FaultPlan::default().validate().is_ok());
        assert!(plan(1).validate().is_ok());
        let bad = FaultPlan {
            alloc_failure_rate: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad.validate().unwrap_err().contains("alloc_failure_rate"));
        let bad = FaultPlan {
            transfer_stall_sec: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::default().is_noop());
        assert!(!plan(0).is_noop());
        let steps_only = FaultPlan {
            oom_steps: vec![5],
            ..FaultPlan::default()
        };
        assert!(!steps_only.is_noop());
        let nan_only = FaultPlan {
            nan_loss_steps: vec![3],
            ..FaultPlan::default()
        };
        assert!(!nan_only.is_noop());
    }

    #[test]
    fn same_seed_injects_identical_sequences() {
        let run = |seed: u64| {
            let mut inj = plan(seed).alloc_injector();
            let mut outcomes = Vec::new();
            for step in 0..6 {
                inj.begin_step(step, 1000);
                for _ in 0..4 {
                    outcomes.push(inj.check_alloc(200, 300, 1000));
                }
            }
            (outcomes, inj.drain_events())
        };
        let (a_out, a_ev) = run(9);
        let (b_out, b_ev) = run(9);
        assert_eq!(a_out, b_out);
        assert_eq!(a_ev, b_ev);
        let (c_out, _) = run(10);
        assert_ne!(a_out, c_out, "different seeds should diverge");
    }

    #[test]
    fn step_scheduled_fault_fires_once_on_first_alloc() {
        let p = FaultPlan {
            oom_steps: vec![1],
            ..FaultPlan::default()
        };
        let mut inj = p.alloc_injector();
        inj.begin_step(0, 1000);
        assert_eq!(inj.check_alloc(10, 0, 1000), None);
        inj.begin_step(1, 1000);
        assert_eq!(
            inj.check_alloc(10, 0, 1000),
            Some(AllocFaultKind::StepScheduled)
        );
        assert_eq!(inj.check_alloc(10, 0, 1000), None, "fires only once");
        inj.begin_step(2, 1000);
        assert_eq!(inj.check_alloc(10, 0, 1000), None);
        assert_eq!(inj.pending_events(), 1, "counted in place before the drain");
        let events = inj.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            FaultEvent::AllocFailure {
                step: 1,
                requested: 10,
                kind: AllocFaultKind::StepScheduled,
            }
        );
        assert_eq!(inj.pending_events(), 0, "drain empties the queue");
    }

    #[test]
    fn zero_rate_plan_never_draws_or_fires() {
        let mut inj = FaultPlan::default().alloc_injector();
        let pristine = inj.clone();
        for step in 0..10 {
            inj.begin_step(step, 100);
            for _ in 0..8 {
                assert_eq!(inj.check_alloc(50, 40, 100), None);
            }
        }
        assert!(inj.drain_events().is_empty());
        // No randomness consumed: generator state is untouched.
        assert_eq!(inj.rng, pristine.rng);
    }

    #[test]
    fn capacity_jitter_only_bites_near_the_limit() {
        let p = FaultPlan {
            capacity_jitter: 0.5,
            seed: 3,
            ..FaultPlan::default()
        };
        let mut inj = p.alloc_injector();
        let mut jitter_faults = 0;
        for step in 0..64 {
            inj.begin_step(step, 1000);
            // Tiny allocation far from the limit: never faulted.
            assert_eq!(inj.check_alloc(10, 0, 1000), None);
            // Allocation crossing into the withheld band may fault.
            if inj.check_alloc(400, 550, 1000).is_some() {
                jitter_faults += 1;
            }
        }
        assert!(jitter_faults > 0, "expected some jitter faults in 64 steps");
        assert!(jitter_faults < 64, "jitter must not fire every step");
        assert!(inj
            .drain_events()
            .iter()
            .all(|e| matches!(
                e,
                FaultEvent::AllocFailure {
                    kind: AllocFaultKind::CapacityJitter,
                    ..
                }
            )));
    }

    #[test]
    fn validate_names_the_offending_device_fault_entry() {
        let dup = FaultPlan {
            device_fail_steps: vec![(1, 3), (0, 2), (1, 3)],
            ..FaultPlan::default()
        };
        let msg = dup.validate().unwrap_err();
        assert!(msg.contains("(device 1, step 3)"), "{msg}");
        assert!(msg.contains("duplicated"), "{msg}");

        let negative = FaultPlan {
            straggler_factors: vec![(0, 2.0), (2, -0.5)],
            ..FaultPlan::default()
        };
        let msg = negative.validate().unwrap_err();
        assert!(msg.contains("(device 2, factor -0.5)"), "{msg}");

        let twice = FaultPlan {
            straggler_factors: vec![(0, 2.0), (0, 3.0)],
            ..FaultPlan::default()
        };
        assert!(twice.validate().unwrap_err().contains("listed twice"));

        let bad_rate = FaultPlan {
            link_stall_rate: 2.0,
            ..FaultPlan::default()
        };
        assert!(bad_rate.validate().unwrap_err().contains("link_stall_rate"));
    }

    #[test]
    fn validate_for_devices_checks_ranges() {
        let plan = FaultPlan {
            device_fail_steps: vec![(3, 0)],
            straggler_factors: vec![(1, 2.0)],
            ..FaultPlan::default()
        };
        assert!(plan.validate().is_ok(), "plan alone cannot know the group");
        assert!(plan.validate_for_devices(4).is_ok());
        let msg = plan.validate_for_devices(3).unwrap_err();
        assert!(msg.contains("(device 3, step 0)"), "{msg}");
        assert!(msg.contains("out of range for 3 devices"), "{msg}");
        let straggler_oob = FaultPlan {
            straggler_factors: vec![(5, 1.5)],
            ..FaultPlan::default()
        };
        let msg = straggler_oob.validate_for_devices(2).unwrap_err();
        assert!(msg.contains("(device 5, factor 1.5)"), "{msg}");
    }

    #[test]
    fn device_faults_make_the_plan_non_noop() {
        for plan in [
            FaultPlan {
                device_fail_steps: vec![(0, 1)],
                ..FaultPlan::default()
            },
            FaultPlan {
                straggler_factors: vec![(0, 2.0)],
                ..FaultPlan::default()
            },
            FaultPlan {
                link_stall_rate: 0.5,
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_noop(), "{plan:?}");
        }
    }

    #[test]
    fn link_stalls_are_seeded_and_recorded() {
        let run = |seed: u64| {
            let mut inj = FaultPlan {
                seed,
                link_stall_rate: 0.5,
                link_stall_sec: 0.25,
                ..FaultPlan::default()
            }
            .link_injector();
            let stalls: Vec<Option<f64>> = (0..32).map(|_| inj.check_round()).collect();
            let pending = inj.pending_events();
            let events = inj.drain_events();
            assert_eq!((pending, inj.pending_events()), (events.len(), 0));
            (stalls, events)
        };
        let (a, a_ev) = run(11);
        let (b, b_ev) = run(11);
        assert_eq!(a, b);
        assert_eq!(a_ev, b_ev);
        let stalled = a.iter().flatten().count();
        assert!(stalled > 0 && stalled < 32, "rate 0.5 over 32 rounds");
        assert_eq!(a_ev.len(), stalled);
        assert!(a_ev.iter().all(|e| matches!(
            e,
            FaultEvent::LinkStall {
                stall_sec,
                ..
            } if *stall_sec == 0.25
        )));
    }

    #[test]
    fn zero_rate_link_injector_never_draws() {
        let mut inj = FaultPlan::default().link_injector();
        let pristine = inj.clone();
        for _ in 0..16 {
            assert_eq!(inj.check_round(), None);
        }
        assert_eq!(inj.rng, pristine.rng, "no randomness consumed");
    }

    #[test]
    fn storage_faults_are_seeded_and_recorded() {
        let run = |seed: u64| {
            let mut inj = FaultPlan {
                seed,
                io_failure_rate: 0.4,
                io_stall_rate: 0.25,
                io_stall_sec: 2e-3,
                ..FaultPlan::default()
            }
            .storage_injector();
            let verdicts: Vec<StorageReadFault> =
                (0..40).map(|i| inj.check_read(i % 7, 0)).collect();
            let jitter: Vec<u64> = (0..4).map(|_| inj.backoff_jitter().to_bits()).collect();
            let pending = inj.pending_events();
            let events = inj.drain_events();
            assert_eq!((pending, inj.pending_events()), (events.len(), 0));
            (verdicts, jitter, events)
        };
        let (a, a_j, a_ev) = run(13);
        let (b, b_j, b_ev) = run(13);
        assert_eq!(a, b);
        assert_eq!(a_j, b_j);
        assert_eq!(a_ev, b_ev);
        let failed = a.iter().filter(|v| v.fail).count();
        let stalled = a.iter().filter(|v| v.stall_sec > 0.0).count();
        assert!(failed > 0, "rate 0.4 over 40 reads should fail some");
        assert!(stalled > 0, "rate 0.25 over 40 reads should stall some");
        assert_eq!(a_ev.len(), failed + stalled);
        let (c, _, _) = run(14);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn zero_rate_storage_injector_never_draws() {
        let mut inj = FaultPlan::default().storage_injector();
        let pristine = inj.clone();
        for shard in 0..16 {
            assert_eq!(inj.check_read(shard, 0), StorageReadFault::default());
        }
        inj.note_corruption(3, 1);
        assert_eq!(inj.rng, pristine.rng, "no randomness consumed");
        assert_eq!(
            inj.drain_events(),
            vec![FaultEvent::ShardCorrupted { shard: 3, epoch: 1 }]
        );
    }

    #[test]
    fn storage_faults_make_the_plan_non_noop() {
        for plan in [
            FaultPlan {
                io_failure_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                io_stall_rate: 0.1,
                ..FaultPlan::default()
            },
            FaultPlan {
                shard_corrupt: vec![(0, 1)],
                ..FaultPlan::default()
            },
        ] {
            assert!(!plan.is_noop(), "{plan:?}");
            assert!(plan.has_storage_faults(), "{plan:?}");
        }
        assert!(!FaultPlan::default().has_storage_faults());
        assert!(!plan(0).has_storage_faults());
    }

    #[test]
    fn validate_names_the_offending_storage_entry() {
        let dup = FaultPlan {
            shard_corrupt: vec![(2, 1), (0, 0), (2, 1)],
            ..FaultPlan::default()
        };
        let msg = dup.validate().unwrap_err();
        assert!(msg.contains("(shard 2, epoch 1)"), "{msg}");
        assert!(msg.contains("duplicated"), "{msg}");

        let bad_rate = FaultPlan {
            io_failure_rate: -0.5,
            ..FaultPlan::default()
        };
        assert!(bad_rate.validate().unwrap_err().contains("io_failure_rate"));
        let bad_sec = FaultPlan {
            io_stall_sec: f64::INFINITY,
            ..FaultPlan::default()
        };
        assert!(bad_sec.validate().unwrap_err().contains("io_stall_sec"));
    }

    #[test]
    fn transfer_stalls_are_seeded_and_recorded() {
        let run = |seed: u64| {
            let mut inj = plan(seed).transfer_injector();
            let stalls: Vec<Option<f64>> =
                (0..40).map(|_| inj.check_transfer()).collect();
            let pending = inj.pending_events();
            let events = inj.drain_events();
            assert_eq!((pending, inj.pending_events()), (events.len(), 0));
            (stalls, events)
        };
        let (a, a_ev) = run(4);
        let (b, b_ev) = run(4);
        assert_eq!(a, b);
        assert_eq!(a_ev, b_ev);
        let stalled = a.iter().flatten().count();
        assert!(stalled > 0, "rate 0.25 over 40 transfers should stall some");
        assert_eq!(a_ev.len(), stalled);
        assert!(a.iter().flatten().all(|&s| s == 1e-3));
    }
}
