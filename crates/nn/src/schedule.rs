//! Learning-rate schedules.
//!
//! Convergence experiments (Figs. 4 & 13, Table 5) train with a fixed
//! learning rate like the paper; these schedules are for longer runs.

/// A learning-rate schedule: maps an epoch index to a multiplier of the
/// base learning rate.
pub trait LrSchedule {
    /// Multiplier applied to the base learning rate at `epoch` (0-based).
    fn factor(&self, epoch: usize) -> f32;

    /// Effective learning rate at `epoch`.
    fn lr_at(&self, base_lr: f32, epoch: usize) -> f32 {
        base_lr * self.factor(epoch)
    }
}

/// Step decay: multiply by `gamma` every `step_epochs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    /// Epochs between decays.
    pub step_epochs: usize,
    /// Per-step multiplier (e.g. 0.5 halves the rate).
    pub gamma: f32,
}

impl LrSchedule for StepDecay {
    fn factor(&self, epoch: usize) -> f32 {
        self.gamma.powi((epoch / self.step_epochs.max(1)) as i32)
    }
}

/// Cosine annealing from 1.0 down to `min_factor` over `total_epochs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineAnnealing {
    /// Epoch count of the full schedule.
    pub total_epochs: usize,
    /// Floor multiplier at the end of the schedule.
    pub min_factor: f32,
}

impl LrSchedule for CosineAnnealing {
    fn factor(&self, epoch: usize) -> f32 {
        let t = (epoch as f32 / self.total_epochs.max(1) as f32).min(1.0);
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
        self.min_factor + (1.0 - self.min_factor) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_decay_halves() {
        let s = StepDecay {
            step_epochs: 10,
            gamma: 0.5,
        };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(9), 1.0);
        assert_eq!(s.factor(10), 0.5);
        assert_eq!(s.factor(25), 0.25);
    }

    #[test]
    fn cosine_is_monotone_to_floor() {
        let s = CosineAnnealing {
            total_epochs: 20,
            min_factor: 0.1,
        };
        assert!((s.factor(0) - 1.0).abs() < 1e-6);
        let mut prev = 2.0f32;
        for e in 0..=20 {
            let f = s.factor(e);
            assert!(f <= prev + 1e-6, "not monotone at {e}");
            prev = f;
        }
        assert!((s.factor(20) - 0.1).abs() < 1e-6);
        assert!((s.factor(100) - 0.1).abs() < 1e-6, "clamped past the end");
    }
}
