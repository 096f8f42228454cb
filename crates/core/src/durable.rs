//! Durable, crash-safe training sessions: periodic on-disk checkpoints
//! and resume.
//!
//! A [`CheckpointPlan`] names a directory and a cadence; the CLI's epoch
//! loop saves a full [`TrainState`] — parameters, Adam moments, both RNG
//! streams, the step/epoch counters and the config fingerprint — at the
//! end of every `every`-th epoch. Writes go through
//! [`betty_tensor::sealed::write_atomic`], so a checkpoint either exists
//! completely with valid CRCs or not at all; a SIGKILL mid-write leaves
//! the previous checkpoint intact.
//!
//! Resume ([`latest_valid_checkpoint`] + [`Runner::resume`](crate::Runner::resume))
//! restores every piece of state training consumes, so a killed-and-resumed
//! run produces losses and parameters bit-identical to one that was never
//! interrupted.
//!
//! # Slot layout
//!
//! [`TrainState`] stores RNGs and counters positionally; the constants
//! below assign the slots their meaning, all of them owned by
//! [`Runner`](crate::Runner).

use std::path::{Path, PathBuf};

use betty_nn::TrainState;

use crate::runner::RunError;

/// [`TrainState::rngs`] slot of the trainer's dropout RNG.
pub(crate) const RNG_TRAINER: usize = 0;
/// [`TrainState::rngs`] slot of the runner's neighbor-sampling RNG.
pub(crate) const RNG_SAMPLER: usize = 1;
/// Number of RNG slots a [`Runner`](crate::Runner) session carries.
pub(crate) const RUNNER_RNGS: usize = 2;

/// [`TrainState::counters`] slot of the runner's epochs-run counter.
pub(crate) const CTR_EPOCHS_RUN: usize = 0;
/// [`TrainState::counters`] slot of the trainer's global step counter.
pub(crate) const CTR_GLOBAL_STEP: usize = 1;
/// [`TrainState::counters`] slot of the runner's base seed (it feeds the
/// partitioning strategy every epoch, so a resumed session must keep it
/// even when the resuming process was built with a different seed).
pub(crate) const CTR_SEED: usize = 2;
/// Number of counter slots owned by [`Runner`](crate::Runner).
pub(crate) const RUNNER_COUNTERS: usize = 3;

/// Where and how often to write durable checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Directory checkpoints are written into (created if missing).
    pub dir: PathBuf,
    /// Save after every `every`-th epoch (1 = every epoch). The final
    /// epoch is always saved regardless of cadence.
    pub(crate) every: usize,
}

impl CheckpointPlan {
    /// A plan saving into `dir` after every `every`-th epoch.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        Self {
            dir: dir.into(),
            every,
        }
    }

    /// Checks the cadence is usable.
    ///
    /// # Errors
    ///
    /// Returns a message if `every` is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.every == 0 {
            return Err("checkpoint cadence must be ≥ 1".into());
        }
        Ok(())
    }

    /// Whether a checkpoint is due after `epoch` (0-based) completed,
    /// given `max_epochs` total.
    pub fn due_after(&self, epoch: usize, max_epochs: usize) -> bool {
        (epoch + 1).is_multiple_of(self.every.max(1)) || epoch + 1 == max_epochs
    }

    /// Checkpoint file path for the state *after* `epoch` completed.
    pub(crate) fn path_for(&self, epoch: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{:06}.btc", epoch))
    }

    /// Creates the checkpoint directory (and parents) if missing.
    ///
    /// # Errors
    ///
    /// [`RunError::Checkpoint`] if the directory cannot be created.
    pub fn ensure_dir(&self) -> Result<(), RunError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| {
            RunError::Checkpoint(format!(
                "cannot create checkpoint dir {}: {e}",
                self.dir.display()
            ))
        })
    }

    /// Saves `state` as the checkpoint for `epoch`, atomically.
    ///
    /// # Errors
    ///
    /// [`RunError::Checkpoint`] on any I/O failure.
    pub fn save(&self, state: &TrainState, epoch: usize) -> Result<PathBuf, RunError> {
        self.ensure_dir()?;
        let path = self.path_for(epoch);
        betty_nn::save_train_state(state, &path).map_err(|e| {
            RunError::Checkpoint(format!("cannot write {}: {e}", path.display()))
        })?;
        Ok(path)
    }
}

/// Epoch index encoded in a checkpoint filename, if it has the
/// `ckpt-NNNNNN.btc` shape.
fn epoch_of(path: &Path) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".btc")?;
    stem.parse().ok()
}

/// The newest *loadable* checkpoint in a directory, plus every newer
/// slot that had to be skipped because it failed CRC/format validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointResolution {
    /// Epoch index of the slot that loaded cleanly.
    pub epoch: usize,
    /// Path of the slot that loaded cleanly.
    pub path: PathBuf,
    /// The loaded state, ready for [`Runner::import_session`](crate::Runner::import_session).
    pub state: TrainState,
    /// Newer slots skipped because they were unreadable or corrupt,
    /// newest first. Empty when the newest slot was healthy.
    pub skipped: Vec<PathBuf>,
}

/// Finds the newest checkpoint that actually *loads*: walks the slots
/// newest-first, skipping any that are unreadable or fail CRC/format
/// validation, and returns the first healthy one together with the
/// skipped paths (so callers can log a `CheckpointFallback`).
///
/// Returns `Ok(None)` when the directory is missing or holds no
/// `ckpt-NNNNNN.btc` files at all.
///
/// # Errors
///
/// [`RunError::Checkpoint`] if the directory cannot be read, or if slots
/// exist but *every* one of them is corrupt (the error lists each slot
/// and why it was rejected).
pub fn latest_valid_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<CheckpointResolution>, RunError> {
    let dir = dir.as_ref();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(RunError::Checkpoint(format!(
                "cannot read checkpoint dir {}: {e}",
                dir.display()
            )))
        }
    };
    let mut slots: Vec<(usize, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| {
            RunError::Checkpoint(format!("cannot read checkpoint dir {}: {e}", dir.display()))
        })?;
        let path = entry.path();
        if let Some(epoch) = epoch_of(&path) {
            slots.push((epoch, path));
        }
    }
    if slots.is_empty() {
        return Ok(None);
    }
    slots.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    let mut skipped = Vec::new();
    let mut reasons = Vec::new();
    for (epoch, path) in slots {
        match load_checkpoint_state(&path) {
            Ok(state) => {
                return Ok(Some(CheckpointResolution {
                    epoch,
                    path,
                    state,
                    skipped,
                }))
            }
            Err(err) => {
                reasons.push(format!("{}: {err}", path.display()));
                skipped.push(path);
            }
        }
    }
    Err(RunError::Checkpoint(format!(
        "no loadable checkpoint in {}: every slot is corrupt ({})",
        dir.display(),
        reasons.join("; ")
    )))
}

/// Loads a checkpoint file, mapping format/I-O failures onto
/// [`RunError::Checkpoint`].
///
/// # Errors
///
/// [`RunError::Checkpoint`] if the file is missing, unreadable, or fails
/// its CRC/format validation.
pub fn load_checkpoint_state(path: impl AsRef<Path>) -> Result<TrainState, RunError> {
    let path = path.as_ref();
    betty_nn::load_train_state(path)
        .map_err(|e| RunError::Checkpoint(format!("cannot load {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_paths_and_cadence() {
        let plan = CheckpointPlan::new("/tmp/ck", 3);
        plan.validate().unwrap();
        assert!(CheckpointPlan::new("/tmp/ck", 0).validate().is_err());
        assert_eq!(plan.path_for(7).file_name().unwrap(), "ckpt-000007.btc");
        assert!(!plan.due_after(0, 10));
        assert!(plan.due_after(2, 10), "epochs 3, 6, 9, ... are due");
        assert!(plan.due_after(9, 10), "final epoch is always due");
    }

    fn save_slot(dir: &Path, epoch: usize) -> PathBuf {
        let state = TrainState {
            params: vec![betty_tensor::Tensor::ones(&[2, 2])],
            counters: vec![epoch as u64],
            ..TrainState::default()
        };
        CheckpointPlan::new(dir, 1).save(&state, epoch).unwrap()
    }

    fn corrupt_file(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn latest_valid_checkpoint_falls_back_past_corrupt_slots() {
        let dir =
            std::env::temp_dir().join(format!("betty-durable-fb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_valid_checkpoint(&dir).unwrap(), None);

        // Written out of order beside a file that is not a slot: the
        // newest is picked by the epoch in its name.
        for epoch in [3usize, 9, 7] {
            save_slot(&dir, epoch);
        }
        std::fs::write(dir.join("not-a-checkpoint.txt"), b"x").unwrap();
        let healthy = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(healthy.epoch, 9);
        assert!(healthy.skipped.is_empty());

        // Corrupt the newest slot: resolution falls back to epoch 7 and
        // names the skipped path.
        let newest = CheckpointPlan::new(&dir, 1).path_for(9);
        corrupt_file(&newest);
        let fell_back = latest_valid_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(fell_back.epoch, 7);
        assert_eq!(fell_back.state.counters, vec![7]);
        assert_eq!(fell_back.skipped, vec![newest.clone()]);

        // All slots corrupt → a Checkpoint error listing each slot.
        corrupt_file(&CheckpointPlan::new(&dir, 1).path_for(7));
        corrupt_file(&CheckpointPlan::new(&dir, 1).path_for(3));
        let err = latest_valid_checkpoint(&dir).unwrap_err();
        match err {
            RunError::Checkpoint(msg) => {
                assert!(msg.contains("every slot is corrupt"), "{msg}");
                assert!(msg.contains("ckpt-000009.btc"), "{msg}");
                assert!(msg.contains("ckpt-000003.btc"), "{msg}");
            }
            other => panic!("expected Checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_failure_is_a_checkpoint_error() {
        let err = load_checkpoint_state("/nonexistent/nope.btc").unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err:?}");
    }
}
