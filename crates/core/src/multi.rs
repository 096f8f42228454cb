//! Simulated multi-accelerator training — the paper's stated future work
//! ("we plan to extend Betty to multi-GPU training to speed up the
//! training process", §7).
//!
//! Micro-batches are data-parallel by construction: each is self-contained
//! and gradients sum across them. With `D` devices, the scheduler assigns
//! micro-batches to devices (longest-processing-time-first over estimated
//! work), every device accumulates its queue locally, and one ring
//! all-reduce combines gradients before the optimizer step — which is
//! *exactly* the gradient the single-device run computes, so convergence
//! is untouched.
//!
//! Numerics execute for real on the shared model; the multi-device aspect
//! is simulated by attributing each micro-batch's compute/transfer time and
//! peak memory to its assigned device and taking the slowest device as the
//! epoch's wall time.
//!
//! # Elasticity
//!
//! The group survives device-level faults ([`betty_device::FaultPlan`]'s
//! `device_fail_steps`, `straggler_factors`, link stalls): each device
//! carries a [`DeviceHealth`] state, a lost device's unfinished
//! micro-batches are LPT re-packed onto survivors, and the ring
//! all-reduce is rebuilt over the remaining ranks with seeded-jitter
//! exponential backoff on transient link stalls. Because numerics are
//! centralized and failover only changes *scheduling and timing
//! attribution*, losses and parameters are bit-identical with and
//! without injected failures — the headline guarantee, proven by test.

use std::fmt;

use betty_device::{FaultEvent, StallInjector};
use betty_trace::{EpochStats, SpanKind, StepStats, TraceRecorder};

use crate::recovery::{RecoveryEvent, RecoveryLog};

/// Per-device health in the elastic group's state machine.
///
/// Transitions: `Healthy → Degraded` when the straggler detector flags
/// the device (it keeps serving); `Healthy/Degraded → Failed` when a
/// scheduled device fault fires or the all-reduce retry budget runs out
/// with the device holding the timed-out link. Failed devices rejoin at
/// the next epoch boundary (repair model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Serving at expected speed.
    Healthy,
    /// Flagged as a straggler: still serving, but slow.
    Degraded,
    /// Declared lost for the rest of the epoch.
    Failed,
}

impl DeviceHealth {
    /// Stable lowercase name.
    pub(crate) const fn name(&self) -> &'static str {
        match self {
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Failed => "failed",
        }
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the simulated device group.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGroup {
    /// Number of accelerators.
    pub(crate) num_devices: usize,
    /// Sustained all-reduce link bandwidth in bytes/second (NVLink-ish
    /// default: 50 GB/s).
    pub(crate) allreduce_bandwidth: f64,
    /// Heartbeat timeout for one all-reduce round: an injected stall at
    /// or above this declares the round timed out and triggers a
    /// backoff retry (default 100 ms).
    pub allreduce_timeout_sec: f64,
    /// Timed-out sync rounds retried (with exponential backoff) before
    /// a rank is declared lost (default 3).
    pub max_device_retries: usize,
    /// A device whose attributed seconds per unit of work exceed this
    /// multiple of the group median is flagged `Degraded` (default 1.5).
    pub straggler_threshold: f64,
    /// Base delay of the exponential backoff between sync retries;
    /// attempt `i` waits `base · 2^(i−1) · (1 + jitter)` with seeded
    /// jitter in `[0, 1)` (default 50 ms).
    pub(crate) backoff_base_sec: f64,
}

impl DeviceGroup {
    /// A group of `num_devices` with the default interconnect and
    /// elasticity knobs.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0`.
    pub fn new(num_devices: usize) -> Self {
        assert!(num_devices > 0, "at least one device required");
        Self {
            num_devices,
            allreduce_bandwidth: 50.0e9,
            allreduce_timeout_sec: 0.1,
            max_device_retries: 3,
            straggler_threshold: 1.5,
            backoff_base_sec: 0.05,
        }
    }

    /// Ring all-reduce time for `bytes` of gradients over the *current*
    /// ring: each of `live_ranks` ranks moves `2 (R − 1) / R` of the
    /// payload. One survivor needs no synchronization at all, so
    /// `live_ranks <= 1` costs zero — degraded rings get cheaper as
    /// ranks drop out.
    pub(crate) fn allreduce_sec(&self, bytes: usize, live_ranks: usize) -> f64 {
        if live_ranks <= 1 {
            return 0.0;
        }
        let r = live_ranks as f64;
        2.0 * (r - 1.0) / r * bytes as f64 / self.allreduce_bandwidth
    }
}

/// All devices of the group failed — no survivor was left to absorb
/// unfinished work, so the epoch cannot complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicesExhausted {
    /// Devices that had been declared lost when the group ran dry.
    pub(crate) lost: usize,
}

impl fmt::Display for DevicesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "all devices exhausted: {} lost, no survivors to migrate work to",
            self.lost
        )
    }
}

impl std::error::Error for DevicesExhausted {}

/// One device loss and the work migration it forced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Failover {
    /// The device that was lost.
    pub device: usize,
    /// Micro-batches it completed before failing (their host-staged
    /// gradient contributions survive; see DESIGN.md).
    pub completed_steps: usize,
    /// Micro-batch indices migrated onto survivors.
    pub migrated: Vec<usize>,
    /// Ranks remaining after this loss.
    pub live_ranks: usize,
}

/// Deterministic pre-run simulation of an epoch's schedule under
/// scheduled device failures: who runs what, who dies, what migrates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ElasticSchedule {
    /// The fault-free LPT assignment (device per micro-batch).
    pub initial_assignment: Vec<usize>,
    /// The post-failover assignment actually charged for timing.
    pub assignment: Vec<usize>,
    /// Health per device after all scheduled failures.
    pub health: Vec<DeviceHealth>,
    /// Every device loss, in the order it was processed.
    pub failovers: Vec<Failover>,
}

/// Simulates the epoch schedule under `device_fail_steps`: starts from
/// the LPT assignment over `work`, applies each scheduled failure in
/// deterministic `(step, device)` order (only the earliest failure per
/// device matters — the device is already gone for later ones), and LPT
/// re-packs each dead device's unfinished queue onto the survivors.
///
/// Failures are interpreted as "device `d` dies after completing `step`
/// micro-batches of its own queue", which is time-free and therefore
/// exactly replayable. Entries whose device index is out of range are
/// ignored (callers validate with
/// [`betty_device::FaultPlan::validate_for_devices`] first).
///
/// # Errors
///
/// [`DevicesExhausted`] when a failure leaves unfinished work and no
/// surviving device.
pub(crate) fn simulate_elastic_schedule(
    work: &[f64],
    num_devices: usize,
    device_fail_steps: &[(usize, usize)],
) -> Result<ElasticSchedule, DevicesExhausted> {
    let initial_assignment = lpt_assignment(work, num_devices);
    let mut assignment = initial_assignment.clone();
    let mut health = vec![DeviceHealth::Healthy; num_devices];
    let mut failovers = Vec::new();

    // Per-device queues in plan order.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); num_devices];
    for (job, &device) in assignment.iter().enumerate() {
        queues[device].push(job);
    }

    // Earliest scheduled failure per (in-range) device, processed in
    // (step, device) order so runs are replayable.
    let mut first_failure: Vec<(usize, usize)> = Vec::new(); // (step, device)
    for &(device, step) in device_fail_steps {
        if device >= num_devices {
            continue;
        }
        match first_failure.iter_mut().find(|(_, d)| *d == device) {
            Some(entry) if step < entry.0 => entry.0 = step,
            Some(_) => {}
            None => first_failure.push((step, device)),
        }
    }
    first_failure.sort_unstable();

    for (step, device) in first_failure {
        let completed = step.min(queues[device].len());
        let unfinished: Vec<usize> = queues[device].split_off(completed);
        health[device] = DeviceHealth::Failed;
        let survivors: Vec<usize> = (0..num_devices)
            .filter(|&d| health[d] != DeviceHealth::Failed)
            .collect();
        if survivors.is_empty() {
            return Err(DevicesExhausted {
                lost: num_devices,
            });
        }
        // LPT re-pack over the survivors' *current* total load.
        let mut load: Vec<f64> = survivors
            .iter()
            .map(|&d| queues[d].iter().map(|&j| work[j]).sum())
            .collect();
        let mut order = unfinished.clone();
        order.sort_by(|&a, &b| work[b].total_cmp(&work[a]));
        for job in order {
            let slot = (0..survivors.len())
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .expect("survivors is non-empty");
            let target = survivors[slot];
            assignment[job] = target;
            queues[target].push(job);
            load[slot] += work[job];
        }
        failovers.push(Failover {
            device,
            completed_steps: completed,
            migrated: unfinished,
            live_ranks: survivors.len(),
        });
    }

    Ok(ElasticSchedule {
        initial_assignment,
        assignment,
        health,
        failovers,
    })
}

/// Flags devices whose attributed seconds per unit of assigned work
/// exceed `threshold ×` the median ratio across working devices.
/// Returns `(device, slowdown-vs-median)` pairs in device order; never
/// flags when fewer than two devices did work (no peer to compare to).
pub(crate) fn detect_stragglers(
    per_device: &[EpochStats],
    work_per_device: &[f64],
    threshold: f64,
) -> Vec<(usize, f64)> {
    let mut ratios: Vec<(usize, f64)> = per_device
        .iter()
        .zip(work_per_device)
        .enumerate()
        .filter(|(_, (stats, &work))| work > 0.0 && stats.num_steps > 0)
        .map(|(d, (stats, &work))| (d, stats.total_sec() / work))
        .collect();
    if ratios.len() < 2 {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    if median <= 0.0 {
        return Vec::new();
    }
    ratios.retain(|&(_, r)| r > threshold * median);
    ratios
        .into_iter()
        .map(|(d, r)| (d, r / median))
        .collect()
}

/// One timed-out sync round and its backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SyncRetry {
    pub attempt: usize,
    pub stall_sec: f64,
    pub backoff_sec: f64,
}

/// Outcome of the simulated end-of-epoch ring all-reduce.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SyncOutcome {
    /// Total simulated seconds: sync payload plus stalls, timeouts, and
    /// backoffs.
    pub total_sec: f64,
    /// Payload seconds of the final, successful ring (what
    /// `MultiDeviceEpoch::allreduce_sec` reports).
    pub final_ring_sec: f64,
    /// Every timed-out round, in order.
    pub retries: Vec<SyncRetry>,
    /// Ranks declared lost at the sync (retry budget exhausted), in
    /// loss order.
    pub lost_ranks: Vec<usize>,
    /// `(live_ranks, payload_sec)` after each sync-time ring rebuild.
    pub rebuilt: Vec<(usize, f64)>,
}

/// Simulates the gradient all-reduce over `live` rank ids with seeded
/// link stalls: a stall below the group timeout just lengthens the
/// round; a stall at/above it times the round out and is retried after
/// seeded-jitter exponential backoff. When the retry budget runs out
/// the highest surviving rank (the modelled owner of the dead link) is
/// popped from `live` and the ring is rebuilt one rank smaller — a lone
/// survivor needs no sync (and draws nothing from `link`), so this
/// always terminates.
pub(crate) fn simulate_allreduce(
    group: &DeviceGroup,
    grad_bytes: usize,
    live: &mut Vec<usize>,
    link: &mut StallInjector,
) -> SyncOutcome {
    let mut out = SyncOutcome::default();
    loop {
        if live.len() <= 1 {
            out.final_ring_sec = 0.0;
            return out;
        }
        let round_sec = group.allreduce_sec(grad_bytes, live.len());
        let mut attempt = 0usize;
        while attempt <= group.max_device_retries {
            match link.check() {
                Some(stall) if stall >= group.allreduce_timeout_sec => {
                    attempt += 1;
                    let jitter = link.backoff_jitter();
                    let backoff =
                        group.backoff_base_sec * 2f64.powi(attempt as i32 - 1) * (1.0 + jitter);
                    out.total_sec += group.allreduce_timeout_sec + backoff;
                    out.retries.push(SyncRetry {
                        attempt,
                        stall_sec: stall,
                        backoff_sec: backoff,
                    });
                }
                stall => {
                    out.total_sec += round_sec + stall.unwrap_or(0.0);
                    out.final_ring_sec = round_sec;
                    return out;
                }
            }
        }
        // Retry budget exhausted: blame the highest surviving rank and
        // rebuild the ring without it.
        let lost = live.pop().expect("len > 1 checked above");
        out.lost_ranks.push(lost);
        out.rebuilt
            .push((live.len(), group.allreduce_sec(grad_bytes, live.len())));
    }
}

/// Outcome of one multi-device epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDeviceEpoch {
    /// Aggregate over all micro-batches (losses, totals — device-agnostic).
    pub combined: EpochStats,
    /// Per-device aggregates (compute/transfer time, peak memory).
    pub per_device: Vec<EpochStats>,
    /// Which device each micro-batch ran on (post-failover).
    pub assignment: Vec<usize>,
    /// Simulated gradient all-reduce seconds (payload of the final
    /// surviving ring; retry/backoff time is in `sync_overhead_sec`).
    pub allreduce_sec: f64,
    /// Health per device at epoch end. Straggler detection reads
    /// measured wall clocks, so a noisy host can degrade a device of a
    /// fault-free group.
    pub health: Vec<DeviceHealth>,
    /// Ranks alive at epoch end.
    pub live_ranks: usize,
    /// Stalls, timeouts, and backoff waits paid at the sync on top of
    /// `allreduce_sec`.
    pub(crate) sync_overhead_sec: f64,
    /// Wall seconds the epoch would have taken with no faults injected
    /// (fault-free LPT schedule, full ring, no stalls) — the baseline
    /// for `failover_overhead_sec`.
    pub(crate) fault_free_wall_sec: f64,
}

impl MultiDeviceEpoch {
    /// Epoch wall-clock: the slowest device plus gradient
    /// synchronization (payload and any retry/backoff overhead).
    pub fn wall_sec(&self) -> f64 {
        self.per_device
            .iter()
            .map(EpochStats::total_sec)
            .fold(0.0, f64::max)
            + self.allreduce_sec
            + self.sync_overhead_sec
    }

    /// Extra wall seconds paid for surviving the injected faults:
    /// `wall_sec() − fault_free_wall_sec`, floored at zero. Zero on
    /// fault-free runs by construction.
    pub fn failover_overhead_sec(&self) -> f64 {
        (self.wall_sec() - self.fault_free_wall_sec).max(0.0)
    }

    /// Speed-up versus running every micro-batch on one device.
    pub fn speedup_vs_serial(&self) -> f64 {
        let serial = self.combined.total_sec();
        let wall = self.wall_sec();
        if wall == 0.0 {
            1.0
        } else {
            serial / wall
        }
    }

    /// Largest per-device peak bytes (each device needs this much memory).
    pub fn max_device_peak(&self) -> usize {
        self.per_device
            .iter()
            .map(|d| d.max_peak_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// The attribution stage of an epoch, run once its micro-batches have
/// executed: folds the measured `steps` per device along `schedule`
/// (under `straggler_factors`), flags stragglers against the group
/// median, and simulates the ring all-reduce over the surviving ranks
/// with timeout/backoff retries — exhausted retries shed the highest
/// surviving rank and rebuild the ring. Every failover decision, and one
/// injected fault per scheduled device failure, is appended to `log`
/// and, when tracing, recorded as `failover` / `link_retry` spans.
///
/// `work` is the per-micro-batch work proxy the schedule was built from.
/// On a group of one with no faults this folds every step onto device 0
/// and logs nothing: no peer to straggle behind, no ring to synchronize.
#[allow(clippy::too_many_arguments)] // the stage's inputs, each read once
pub(crate) fn attribute_epoch(
    combined: EpochStats,
    steps: &[StepStats],
    work: &[f64],
    schedule: ElasticSchedule,
    group: &DeviceGroup,
    straggler_factors: &[(usize, f64)],
    grad_bytes: usize,
    link: &mut StallInjector,
    log: &mut RecoveryLog,
    mut trace: Option<&mut TraceRecorder>,
) -> MultiDeviceEpoch {
    let d = group.num_devices;
    let per_device = fold_by_device_scaled(steps, &schedule.assignment, d, straggler_factors);
    let baseline = fold_by_device_scaled(steps, &schedule.initial_assignment, d, &[]);
    let fault_free_wall_sec = baseline
        .iter()
        .map(EpochStats::total_sec)
        .fold(0.0, f64::max)
        + group.allreduce_sec(grad_bytes, d);
    let mut health = schedule.health;

    for fo in &schedule.failovers {
        log.record(RecoveryEvent::Fault(FaultEvent::DeviceFail {
            device: fo.device,
            completed_steps: fo.completed_steps,
        }));
        log.record(RecoveryEvent::DeviceLost {
            device: fo.device,
            completed_steps: fo.completed_steps,
            live_ranks: fo.live_ranks,
        });
        log.record(RecoveryEvent::WorkMigrated {
            from_device: fo.device,
            micro_batches: fo.migrated.len(),
            survivors: fo.live_ranks,
        });
        log.record(RecoveryEvent::RingRebuilt {
            live_ranks: fo.live_ranks,
            allreduce_sec: group.allreduce_sec(grad_bytes, fo.live_ranks),
        });
        if let Some(tr) = trace.as_deref_mut() {
            let at = tr.now_sec();
            tr.record_span(SpanKind::Failover, Some(fo.device), at, 0.0);
        }
    }

    // Straggler detection on the attributed (post-failover,
    // slowdown-scaled) timings.
    let mut work_per_device = vec![0.0f64; d];
    for (&device, &job_work) in schedule.assignment.iter().zip(work) {
        work_per_device[device] += job_work;
    }
    let stragglers = detect_stragglers(&per_device, &work_per_device, group.straggler_threshold);
    for &(device, slowdown) in &stragglers {
        if health[device] == DeviceHealth::Healthy {
            health[device] = DeviceHealth::Degraded;
        }
        log.record(RecoveryEvent::StragglerDetected { device, slowdown });
    }

    // Elastic all-reduce over the surviving ranks.
    let mut live: Vec<usize> = (0..d)
        .filter(|&dev| health[dev] != DeviceHealth::Failed)
        .collect();
    let sync = simulate_allreduce(group, grad_bytes, &mut live, link);
    for retry in &sync.retries {
        log.record(RecoveryEvent::LinkRetry {
            attempt: retry.attempt,
            stall_sec: retry.stall_sec,
            backoff_sec: retry.backoff_sec,
        });
        if let Some(tr) = trace.as_deref_mut() {
            let at = tr.now_sec();
            tr.record_span(
                SpanKind::LinkRetry,
                Some(retry.attempt),
                at,
                group.allreduce_timeout_sec + retry.backoff_sec,
            );
        }
    }
    for (&lost, &(ranks, sec)) in sync.lost_ranks.iter().zip(&sync.rebuilt) {
        health[lost] = DeviceHealth::Failed;
        let completed = schedule.assignment.iter().filter(|&&dev| dev == lost).count();
        log.record(RecoveryEvent::DeviceLost {
            device: lost,
            completed_steps: completed,
            live_ranks: ranks,
        });
        log.record(RecoveryEvent::RingRebuilt {
            live_ranks: ranks,
            allreduce_sec: sec,
        });
        if let Some(tr) = trace.as_deref_mut() {
            let at = tr.now_sec();
            tr.record_span(SpanKind::Failover, Some(lost), at, 0.0);
        }
    }
    // A group of one has no ring, hence no all-reduce to show.
    if let Some(tr) = trace.filter(|_| d > 1) {
        // Simulated ring all-reduce: the span carries the modelled
        // synchronization seconds.
        let at = tr.now_sec();
        tr.record_span(SpanKind::Allreduce, None, at, sync.total_sec);
    }

    MultiDeviceEpoch {
        combined,
        per_device,
        assignment: schedule.assignment,
        allreduce_sec: sync.final_ring_sec,
        health,
        live_ranks: live.len(),
        sync_overhead_sec: sync.total_sec - sync.final_ring_sec,
        fault_free_wall_sec,
    }
}

/// Longest-processing-time-first assignment of jobs (by `work`) onto
/// `num_devices` queues; returns a device index per job.
///
/// # Panics
///
/// Panics if `num_devices == 0`.
pub fn lpt_assignment(work: &[f64], num_devices: usize) -> Vec<usize> {
    assert!(num_devices > 0, "at least one device required");
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by(|&a, &b| work[b].total_cmp(&work[a]));
    let mut load = vec![0.0f64; num_devices];
    let mut assignment = vec![0usize; work.len()];
    for job in order {
        let device = (0..num_devices)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("num_devices > 0");
        assignment[job] = device;
        load[device] += work[job];
    }
    assignment
}

/// Folds per-step stats into per-device epoch aggregates, with per-device
/// straggler slowdown factors applied to each step's attributed compute
/// and transfer seconds — the injected fault model for "device d runs f×
/// slower". Losses and memory are untouched: stragglers are slow, not
/// wrong.
pub(crate) fn fold_by_device_scaled(
    steps: &[StepStats],
    assignment: &[usize],
    num_devices: usize,
    straggler_factors: &[(usize, f64)],
) -> Vec<EpochStats> {
    let mut factor = vec![1.0f64; num_devices];
    for &(device, f) in straggler_factors {
        if device < num_devices {
            factor[device] = f;
        }
    }
    let mut per_device = vec![EpochStats::default(); num_devices];
    for (step, &device) in steps.iter().zip(assignment) {
        let mut scaled = *step;
        scaled.compute_sec *= factor[device];
        scaled.transfer_sec *= factor[device];
        per_device[device].absorb(&scaled);
    }
    per_device
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_balances_loads() {
        let work = [10.0, 9.0, 8.0, 1.0, 1.0, 1.0];
        let assignment = lpt_assignment(&work, 3);
        let mut loads = [0.0f64; 3];
        for (job, &d) in assignment.iter().enumerate() {
            loads[d] += work[job];
        }
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min <= 1.0, "{loads:?}");
    }

    #[test]
    fn lpt_single_device_takes_all() {
        let assignment = lpt_assignment(&[3.0, 1.0], 1);
        assert_eq!(assignment, vec![0, 0]);
    }

    #[test]
    fn allreduce_cost_model() {
        let one = DeviceGroup::new(1);
        assert_eq!(one.allreduce_sec(1 << 20, 1), 0.0);
        let four = DeviceGroup::new(4);
        let t = four.allreduce_sec(50_000_000_000, 4); // 50 GB at 50 GB/s
        assert!((t - 1.5).abs() < 1e-9, "2·3/4 of a second-sized payload");
        assert!(four.allreduce_sec(1000, 2) < four.allreduce_sec(1000, 4) + 1e-12);
        // A lone survivor has nobody to sync with, whatever the
        // configured group size (satellite: live-rank-aware cost).
        assert_eq!(four.allreduce_sec(1 << 30, 1), 0.0);
        assert_eq!(four.allreduce_sec(1 << 30, 0), 0.0);
    }

    #[test]
    fn wall_time_is_slowest_device_plus_sync() {
        let mk = |sec: f64| {
            let mut e = EpochStats::default();
            e.absorb(&StepStats {
                loss: 0.0,
                compute_sec: sec,
                transfer_sec: 0.0,
                peak_bytes: 100,
                input_nodes: 1,
                total_src_nodes: 1,
                ..StepStats::default()
            });
            e
        };
        let epoch = MultiDeviceEpoch {
            combined: mk(3.0),
            per_device: vec![mk(2.0), mk(1.0)],
            assignment: vec![0, 1],
            allreduce_sec: 0.5,
            health: vec![DeviceHealth::Healthy; 2],
            live_ranks: 2,
            sync_overhead_sec: 0.0,
            fault_free_wall_sec: 2.5,
        };
        assert!((epoch.wall_sec() - 2.5).abs() < 1e-12);
        assert!((epoch.speedup_vs_serial() - 3.0 / 2.5).abs() < 1e-12);
        assert_eq!(epoch.max_device_peak(), 100);
        assert_eq!(epoch.failover_overhead_sec(), 0.0);
    }

    #[test]
    fn elastic_schedule_migrates_unfinished_work_to_survivors() {
        // Four equal jobs on two devices: LPT gives each device two.
        let work = [1.0, 1.0, 1.0, 1.0];
        let schedule = simulate_elastic_schedule(&work, 2, &[(1, 1)]).unwrap();
        assert_eq!(schedule.initial_assignment.len(), 4);
        assert_eq!(schedule.failovers.len(), 1);
        let fo = &schedule.failovers[0];
        assert_eq!(fo.device, 1);
        assert_eq!(fo.completed_steps, 1, "device 1 finished one step first");
        assert_eq!(fo.migrated.len(), 1, "its second step migrates");
        assert_eq!(fo.live_ranks, 1);
        assert_eq!(schedule.health, vec![DeviceHealth::Healthy, DeviceHealth::Failed]);
        // The migrated job is now charged to the survivor; completed
        // work stays attributed to the dead device.
        for &job in &fo.migrated {
            assert_eq!(schedule.assignment[job], 0);
        }
        let on_dead = schedule.assignment.iter().filter(|&&d| d == 1).count();
        assert_eq!(on_dead, 1, "only the completed step remains on device 1");
    }

    #[test]
    fn elastic_schedule_only_first_failure_per_device_counts() {
        let work = [1.0; 6];
        let a = simulate_elastic_schedule(&work, 3, &[(0, 1), (0, 0)]).unwrap();
        let b = simulate_elastic_schedule(&work, 3, &[(0, 0)]).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.failovers, b.failovers);
    }

    #[test]
    fn elastic_schedule_exhaustion_is_an_error() {
        let err = simulate_elastic_schedule(&[1.0, 1.0], 2, &[(0, 0), (1, 0)]).unwrap_err();
        assert_eq!(err.lost, 2);
        assert!(err.to_string().contains("all devices exhausted"));
    }

    #[test]
    fn straggler_detection_flags_slow_devices_only() {
        let mk = |sec: f64| {
            let mut e = EpochStats::default();
            e.absorb(&StepStats {
                loss: 0.0,
                compute_sec: sec,
                transfer_sec: 0.0,
                peak_bytes: 1,
                input_nodes: 1,
                total_src_nodes: 1,
                ..StepStats::default()
            });
            e
        };
        let per_device = vec![mk(1.0), mk(1.0), mk(4.0)];
        let work = vec![1.0, 1.0, 1.0];
        let flagged = detect_stragglers(&per_device, &work, 1.5);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].0, 2);
        assert!((flagged[0].1 - 4.0).abs() < 1e-9, "4× the median ratio");
        // A single working device has no peers to be slower than.
        assert!(detect_stragglers(&per_device[..1], &work[..1], 1.5).is_empty());
    }

    #[test]
    fn allreduce_simulation_without_faults_is_one_clean_round() {
        let group = DeviceGroup::new(4);
        let mut live = vec![0, 1, 2, 3];
        let mut link = betty_device::FaultPlan::default().link_injector();
        let out = simulate_allreduce(&group, 1 << 20, &mut live, &mut link);
        assert_eq!(live.len(), 4);
        assert!(out.retries.is_empty());
        assert!(out.lost_ranks.is_empty());
        assert!((out.total_sec - group.allreduce_sec(1 << 20, 4)).abs() < 1e-15);
        assert_eq!(out.final_ring_sec, out.total_sec);
    }

    #[test]
    fn allreduce_simulation_sheds_highest_rank_when_retries_exhaust() {
        let mut group = DeviceGroup::new(3);
        group.max_device_retries = 1;
        group.allreduce_timeout_sec = 0.01;
        // Every round stalls for a full second: each ring times out,
        // retries once, then sheds its highest rank until one remains.
        let mut link = betty_device::FaultPlan {
            seed: 7,
            link_stall_rate: 1.0,
            link_stall_sec: 1.0,
            ..betty_device::FaultPlan::default()
        }
        .link_injector();
        let mut live = vec![0, 1, 2];
        let out = simulate_allreduce(&group, 1 << 20, &mut live, &mut link);
        assert_eq!(live, vec![0], "rings shed ranks from the top");
        assert_eq!(out.lost_ranks, vec![2, 1]);
        assert_eq!(out.rebuilt.len(), 2);
        assert_eq!(out.rebuilt[1].1, 0.0, "final ring of one needs no sync");
        assert_eq!(out.retries.len(), 4, "2 attempts per 2 doomed rings");
        assert_eq!(out.final_ring_sec, 0.0);
        assert!(out.total_sec > 0.0, "timeouts and backoffs were charged");
        // Backoff grows exponentially between attempts of one ring.
        assert!(out.retries[1].backoff_sec > out.retries[0].backoff_sec);
    }

    #[test]
    fn scaled_fold_slows_only_the_straggler() {
        let step = StepStats {
            loss: 1.0,
            compute_sec: 1.0,
            transfer_sec: 0.5,
            peak_bytes: 10,
            input_nodes: 1,
            total_src_nodes: 1,
            ..StepStats::default()
        };
        let steps = vec![step, step];
        let folded = fold_by_device_scaled(&steps, &[0, 1], 2, &[(1, 3.0)]);
        assert!((folded[0].total_sec() - 1.5).abs() < 1e-12);
        assert!((folded[1].total_sec() - 4.5).abs() < 1e-12);
        assert_eq!(folded[1].max_peak_bytes, 10, "memory is not scaled");
        assert!((folded[1].loss - 1.0).abs() < 1e-12, "loss is not scaled");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        lpt_assignment(&[1.0], 0);
    }
}
