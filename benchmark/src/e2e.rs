//! The untraced run: end-to-end metrics, wall-clocked around the public
//! `Runner` calls, plus the output checks that need no trace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use betty::{EpochStats, Runner};
use betty_data::Dataset;

use crate::metrics::{Check, RunRecord};
use crate::stats::median;
use crate::workloads::{results_dir, Store, Workload, SETUP_REPS};

/// A per-run directory under `results/` for spilled shards. Removed when
/// the run succeeds; left behind for inspection when it does not.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    /// Reserves `results/tmp-<pid>-<tag>` (created on first use).
    pub fn new(tag: &str) -> Self {
        Self {
            dir: results_dir().join(format!("tmp-{}-{tag}", std::process::id())),
            next: 0,
        }
    }

    /// A fresh sub-directory path for one spill.
    pub fn next_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("shards-{}", self.next))
    }

    /// Deletes everything spilled so far; nothing spilled may still be
    /// open.
    pub fn clear(&self) {
        // Dense workloads never create it.
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Deletes everything spilled by this run.
    pub fn remove(self) {
        self.clear();
    }
}

/// A generated dataset with the `Runner` built over it.
pub struct Prepared {
    /// The program's input.
    pub dataset: Dataset,
    /// The program under test.
    pub runner: Runner,
}

/// One set-up as a user pays it: generate the dataset, spill the shards
/// when the workload is paged, build the `Runner`.
///
/// # Errors
///
/// A message when the shards cannot be written.
pub fn set_up(w: &Workload, seed: u64, scratch: &mut Scratch) -> Result<Prepared, String> {
    let dataset = w
        .dataset(seed, &scratch.next_dir())
        .map_err(|e| format!("{}: spilling features failed: {e}", w.name))?;
    let runner = Runner::new(&dataset, &w.config(), seed);
    Ok(Prepared { dataset, runner })
}

/// One executed epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    /// Wall seconds around the call.
    pub wall_s: f64,
    /// The program's own statistics.
    pub stats: EpochStats,
    /// Micro-batches trained.
    pub k: usize,
}

/// Runs `f`, turning an `Err` or a panic into a message: either way the
/// epoch counts as failed.
pub fn guarded<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .map_or_else(|| "panic".to_owned(), |m| format!("panic: {m}"))),
    }
}

/// Outcome of a sequence of epochs: the ones that completed, in order,
/// and how many were started and failed.
#[derive(Debug, Default)]
pub struct EpochLog {
    /// Completed epochs.
    pub done: Vec<EpochRecord>,
    /// Epochs started.
    pub attempted: usize,
    /// Epochs that errored or panicked.
    pub failed: usize,
}

impl EpochLog {
    /// Runs one epoch through the workload's public entry point.
    pub fn train_one(&mut self, w: &Workload, p: &mut Prepared) {
        self.attempted += 1;
        let started = Instant::now();
        match guarded(|| w.train_epoch(&mut p.runner, &p.dataset)) {
            Ok((stats, k)) => {
                let wall_s = started.elapsed().as_secs_f64();
                println!(
                    "epoch  {:>3} wall {wall_s:.4} s  loss {:.6}  K {k}  peak {} bytes",
                    self.done.len(),
                    stats.loss,
                    stats.max_peak_bytes
                );
                self.done.push(EpochRecord { wall_s, stats, k });
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("{}: epoch {} failed: {e}", w.name, self.attempted - 1);
            }
        }
    }

    /// Warm-up epochs, then timed epochs until both `min_timed` epochs and
    /// `seconds` of timed wall are behind us. Returns the index of the
    /// first timed epoch in `done`.
    pub fn train_for(
        &mut self,
        w: &Workload,
        p: &mut Prepared,
        min_timed: usize,
        seconds: f64,
    ) -> usize {
        for _ in 0..w.warmup_epochs {
            self.train_one(w, p);
        }
        let first_timed = self.done.len();
        let started = Instant::now();
        let mut timed = 0;
        // The failure cap keeps a workload that errors instantly from
        // spinning for the whole window.
        while (timed < min_timed || started.elapsed().as_secs_f64() < seconds) && self.failed < 3 {
            self.train_one(w, p);
            timed += 1;
        }
        first_timed
    }

    /// Losses of the completed epochs.
    pub fn losses(&self) -> Vec<f64> {
        self.done.iter().map(|e| e.stats.loss).collect()
    }
}

/// Checks shared by the traced and the untraced run, over the epochs
/// whose count does not depend on the machine.
pub fn common_checks(w: &Workload, scored: &[EpochRecord]) -> Vec<Check> {
    let losses: Vec<f64> = scored.iter().map(|e| e.stats.loss).collect();
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    let peak = scored
        .iter()
        .map(|e| e.stats.max_peak_bytes)
        .max()
        .unwrap_or(0);
    let drift = scored
        .iter()
        .map(|e| e.stats.estimator_drift)
        .fold(0.0, f64::max);
    vec![
        Check::new(
            "loss_finite_and_decreased",
            losses.iter().all(|l| l.is_finite()) && last < first,
            format!("first {first} last {last}"),
        ),
        Check::new(
            "peak_within_capacity",
            peak <= w.capacity_bytes,
            format!("peak {peak} capacity {}", w.capacity_bytes),
        ),
        Check::new(
            "estimator_drift_admissible",
            drift > 0.0 && drift <= w.max_estimator_drift,
            format!(
                "worst measured/estimated {drift} limit {}",
                w.max_estimator_drift
            ),
        ),
    ]
}

/// Bitwise loss equality, epoch by epoch.
pub fn losses_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The untraced run of one workload.
///
/// # Errors
///
/// A message when set-up fails or too few epochs complete to report on;
/// a run with failed epochs or checks still returns its record, marked
/// incorrect.
pub fn run_e2e(w: &Workload, seed: u64, seconds: f64) -> Result<RunRecord, String> {
    let mut scratch = Scratch::new(w.name);

    // Set-up several times, keeping the last: its median is steadier than
    // one sample, and a later change that moves work into set-up shows.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for rep in 0..SETUP_REPS {
        // Each set-up spills into an empty directory, as a user's does:
        // left in place, the earlier spills' unwritten pages slow each
        // later one (0.22 s for the first, 0.33 s for the fifteenth).
        drop(prepared.take());
        scratch.clear();
        let started = Instant::now();
        let p = set_up(w, seed, &mut scratch)?;
        let wall_s = started.elapsed().as_secs_f64();
        println!("setup  {rep:>3} wall {wall_s:.4} s");
        setup_s.push(wall_s);
        prepared = Some(p);
    }
    let mut p = prepared.expect("SETUP_REPS is positive");

    let mut log = EpochLog::default();
    let first_timed = log.train_for(w, &mut p, w.scored_epochs, seconds);
    let n_scored = w.warmup_epochs + w.scored_epochs;
    if log.done.len() < n_scored {
        return Err(format!(
            "{}: {} of {} epochs failed; too few completed to report on",
            w.name, log.failed, log.attempted
        ));
    }
    let scored = &log.done[..n_scored];
    let timed_walls: Vec<f64> = log.done[first_timed..].iter().map(|e| e.wall_s).collect();

    // The first scored epoch at or under the target. Its cost is counted
    // at the median epoch's wall, not as the literal sum of the epochs
    // before it: one epoch in ten takes two to three times the median
    // (a hard cut), and whether such an epoch falls before the crossing
    // is a property of the seed, not of the code.
    let target_loss = w.target_loss_share * scored[1].stats.loss;
    let epochs_to_target = scored
        .iter()
        .position(|e| e.stats.loss <= target_loss)
        .map(|i| i + 1);
    let epoch_wall = median(&timed_walls);
    let peaks: Vec<f64> = scored
        .iter()
        .map(|e| e.stats.max_peak_bytes as f64)
        .collect();

    let mut checks = common_checks(w, scored);
    checks.push(Check::new(
        "target_loss_reached",
        epochs_to_target.is_some(),
        format!("target {target_loss} losses {:?}", log.losses()),
    ));
    if w.store != Store::Dense {
        let paged_losses: Vec<f64> = scored.iter().map(|e| e.stats.loss).collect();
        let twin = w.dense_twin();
        let mut dense = set_up(&twin, seed, &mut scratch)?;
        let mut dense_log = EpochLog::default();
        for _ in 0..n_scored {
            dense_log.train_one(&twin, &mut dense);
        }
        log.attempted += dense_log.attempted;
        log.failed += dense_log.failed;
        checks.push(Check::new(
            "paged_losses_equal_dense",
            losses_identical(&paged_losses, &dense_log.losses()),
            format!("paged {paged_losses:?} dense {:?}", dense_log.losses()),
        ));
    }

    let record = RunRecord {
        workload: w.name.to_owned(),
        seed,
        traced: false,
        attempted: log.attempted,
        failed: log.failed,
        metrics: vec![
            ("setup_s", median(&setup_s)),
            ("epoch_wall_s", epoch_wall),
            // A run that never reaches the target fails its check; the
            // number is then the whole scored run, a lower bound.
            (
                "time_to_target_loss_s",
                epochs_to_target.unwrap_or(n_scored) as f64 * epoch_wall,
            ),
            // The median epoch's peak: the maximum follows one unlucky
            // cut and spreads 14 % across seeds; the capacity check above
            // still holds every epoch's peak to the device.
            ("peak_device_bytes", median(&peaks)),
            (
                "final_loss_share",
                scored[n_scored - 1].stats.loss / scored[1].stats.loss,
            ),
        ],
        checks,
    };
    if record.correct() {
        scratch.remove();
    }
    Ok(record)
}
