//! Deterministic fault injection for the simulated accelerator.
//!
//! Real GNN training jobs die to transient allocator failures, memory
//! fragmentation, and link hiccups that a clean simulation never
//! produces. [`FaultPlan`] describes a reproducible schedule of such
//! faults. This module is its device half, the injectors a
//! [`Device`](crate::Device), a [`TransferModel`](crate::TransferModel)
//! and the elastic group's interconnect hold:
//!
//! * **spurious allocation failures** at a configured probability;
//! * **step-scheduled OOMs** — the first allocation of listed steps fails;
//! * **capacity jitter** — a per-step random slice of capacity is
//!   withheld, so allocations near the limit fail early (fragmentation
//!   stand-in);
//! * **stalls** — a transfer or an all-reduce round takes a configured
//!   extra delay at a configured probability, through one
//!   [`StallInjector`] type.
//!
//! The paged feature store owns the storage half (`SeededStorageFaults`).
//! No faults is the empty plan, [`FaultPlan::default`]: its injectors
//! draw nothing and fire nothing. Each injector draws from its own
//! stream, seeded from [`FaultPlan::seed`] and a salt, so the same plan
//! over the same workload injects the same faults on every run, and
//! records every injected fault as a [`FaultEvent`] for the recovery log.

use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

use std::collections::BTreeSet;

/// Seed-domain separators so the alloc, transfer, and link streams are
/// independent even though they come from one user-facing seed.
const ALLOC_STREAM_SALT: u64 = 0xA110_C8ED_FA17_0001;
const TRANSFER_STREAM_SALT: u64 = 0x7247_5FE2_FA17_0002;
const LINK_STREAM_SALT: u64 = 0x1141_C057_FA17_0003;

/// A declarative, seedable schedule of injected faults. The default is
/// the empty plan: no faults.
///
/// The plan itself is inert configuration (cheap to clone, compare, and
/// log); [`FaultPlan::alloc_injector`], [`FaultPlan::transfer_injector`]
/// and [`FaultPlan::link_injector`] instantiate the stateful runtime
/// injectors.
#[derive(Debug, Clone, PartialEq, Default)]
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
    /// `epoch` (epoch ordinal within the run, starting at 0). The store
    /// applies it; it lives here so one `FaultPlan` describes the whole
    /// fault schedule.
    pub shard_corrupt: Vec<(usize, usize)>,
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
            && !self.has_storage_faults()
    }

    /// Whether the storage side of the plan can inject anything: shard
    /// reads failing or stalling, or scheduled on-disk corruption.
    pub fn has_storage_faults(&self) -> bool {
        self.io_failure_rate > 0.0 || self.io_stall_rate > 0.0 || !self.shard_corrupt.is_empty()
    }

    /// Builds the allocation-side injector for this plan.
    pub fn alloc_injector(&self) -> AllocFaultInjector {
        AllocFaultInjector {
            rate: self.alloc_failure_rate,
            jitter_fraction: self.capacity_jitter,
            oom_steps: self.oom_steps.iter().copied().collect(),
            step: 0,
            step_fault_pending: false,
            withheld: 0,
            stream: SeededStream::new(self.seed ^ ALLOC_STREAM_SALT),
        }
    }

    /// Builds the host→device transfer stall injector for this plan.
    pub fn transfer_injector(&self) -> StallInjector {
        StallInjector::new(
            StallSite::Transfer,
            self.transfer_stall_rate,
            self.transfer_stall_sec,
            self.seed ^ TRANSFER_STREAM_SALT,
        )
    }

    /// Builds the all-reduce link stall injector for this plan. One
    /// injector should live for a whole run so its stream continues
    /// across epochs, mirroring the other injectors.
    pub fn link_injector(&self) -> StallInjector {
        StallInjector::new(
            StallSite::Link,
            self.link_stall_rate,
            self.link_stall_sec,
            self.seed ^ LINK_STREAM_SALT,
        )
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

/// One injected device, transfer or link fault, as recorded for the
/// recovery log (the paged feature store records its own storage faults,
/// `betty_data::InjectedStorageFault`).
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
}

/// The part every injector shares: one salted PCG stream and the events
/// its injector has fired, awaiting a drain.
#[derive(Debug, Clone, PartialEq)]
struct SeededStream {
    rng: Pcg64Mcg,
    events: Vec<FaultEvent>,
}

impl SeededStream {
    fn new(seed: u64) -> Self {
        SeededStream {
            rng: Pcg64Mcg::seed_from_u64(seed),
            events: Vec::new(),
        }
    }

    /// Draws against `rate`. Draws nothing at rate 0, so an empty plan
    /// leaves the stream untouched.
    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_bool(rate)
    }

    /// A uniform draw in `[0, 1)`.
    fn jitter(&mut self) -> f64 {
        self.rng.gen()
    }

    fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Runtime state injecting allocation faults into a
/// [`Device`](crate::Device).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocFaultInjector {
    rate: f64,
    jitter_fraction: f64,
    oom_steps: BTreeSet<usize>,
    step: usize,
    step_fault_pending: bool,
    withheld: usize,
    stream: SeededStream,
}

impl AllocFaultInjector {
    /// Marks a step boundary: arms any scheduled step fault and redraws
    /// the capacity withheld by jitter for this step.
    pub(crate) fn begin_step(&mut self, step: usize, capacity: usize) {
        self.step = step;
        self.step_fault_pending = self.oom_steps.contains(&step);
        self.withheld = if self.jitter_fraction > 0.0 {
            let max_withheld = self.jitter_fraction * capacity as f64;
            (self.stream.jitter() * max_withheld) as usize
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
        } else if self.stream.fires(self.rate) {
            Some(AllocFaultKind::Spurious)
        } else if self.withheld > 0
            && current.saturating_add(bytes) > capacity.saturating_sub(self.withheld)
        {
            Some(AllocFaultKind::CapacityJitter)
        } else {
            None
        };
        if let Some(kind) = kind {
            self.stream.events.push(FaultEvent::AllocFailure {
                step: self.step,
                requested: bytes,
                kind,
            });
        }
        kind
    }

    /// Removes and returns every event recorded since the last drain.
    pub(crate) fn drain_events(&mut self) -> Vec<FaultEvent> {
        self.stream.drain_events()
    }
}

/// Which link a [`StallInjector`] stalls, and so which event it records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallSite {
    Transfer,
    Link,
}

/// Runtime state injecting stalls into a link: the host→device
/// [`TransferModel`](crate::TransferModel) or the elastic group's
/// all-reduce interconnect. A stall is a rate, a duration and a counter
/// of the attempts seen.
#[derive(Debug, Clone, PartialEq)]
pub struct StallInjector {
    site: StallSite,
    rate: f64,
    stall_sec: f64,
    seen: u64,
    stream: SeededStream,
}

impl StallInjector {
    fn new(site: StallSite, rate: f64, stall_sec: f64, seed: u64) -> Self {
        StallInjector {
            site,
            rate,
            stall_sec,
            seen: 0,
            stream: SeededStream::new(seed),
        }
    }

    /// Decides whether this attempt (a transfer, or an all-reduce round)
    /// stalls; returns the extra seconds and records the event if so.
    /// Draws nothing when the rate is zero.
    pub fn check(&mut self) -> Option<f64> {
        let index = self.seen;
        self.seen += 1;
        if !self.stream.fires(self.rate) {
            return None;
        }
        let stall_sec = self.stall_sec;
        self.stream.events.push(match self.site {
            StallSite::Transfer => FaultEvent::TransferStall {
                transfer_index: index,
                stall_sec,
            },
            StallSite::Link => FaultEvent::LinkStall {
                round: index,
                stall_sec,
            },
        });
        Some(stall_sec)
    }

    /// Seeded jitter in `[0, 1)` for exponential-backoff delays, drawn
    /// from this injector's own stream so backoff timing is replayable.
    pub fn backoff_jitter(&mut self) -> f64 {
        self.stream.jitter()
    }

    /// Removes and returns every event recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        self.stream.drain_events()
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
        assert_eq!(inj.stream.events.len(), 1, "counted in place before the drain");
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
        assert!(inj.stream.events.is_empty(), "drain empties the queue");
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
        assert_eq!(inj.stream, pristine.stream);
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
            let stalls: Vec<Option<f64>> = (0..32).map(|_| inj.check()).collect();
            let pending = inj.stream.events.len();
            let events = inj.drain_events();
            assert_eq!((pending, inj.stream.events.len()), (events.len(), 0));
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
            assert_eq!(inj.check(), None);
        }
        assert_eq!(inj.stream, pristine.stream, "no randomness consumed");
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
            let stalls: Vec<Option<f64>> = (0..40).map(|_| inj.check()).collect();
            let pending = inj.stream.events.len();
            let events = inj.drain_events();
            assert_eq!((pending, inj.stream.events.len()), (events.len(), 0));
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
        assert!(a_ev.iter().all(|e| matches!(e, FaultEvent::TransferStall { .. })));
    }
}
