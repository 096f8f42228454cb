//! Benchmark harness reproducing every table and figure of the Betty paper.
//!
//! Each exhibit of the paper's evaluation (§3 workload analysis and §6) has
//! a module under [`experiments`] and a thin binary under `src/bin/`; the
//! `paper` bench target (`cargo bench --bench paper`) runs every exhibit at
//! quick scale in one go. Raw rows are also written as JSON under
//! `experiments_out/` for EXPERIMENTS.md bookkeeping.
//!
//! Substrates are simulated (see DESIGN.md): graphs are scaled synthetic
//! stand-ins and the device is a byte-accurate ledger, so absolute numbers
//! differ from the paper while orderings, ratios, and crossovers are the
//! reproduction targets.

pub mod experiments;
pub(crate) mod presets;
pub(crate) mod report;

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds per exhibit; used by `cargo bench --bench paper` and CI.
    Quick,
    /// The default for the standalone binaries: minutes per exhibit,
    /// larger graphs and more epochs/seeds.
    Full,
}

impl Profile {
    /// Reads `BETTY_PROFILE=quick|full` (default `full` for binaries).
    pub fn from_env() -> Self {
        match std::env::var("BETTY_PROFILE").as_deref() {
            Ok("quick") => Profile::Quick,
            _ => Profile::Full,
        }
    }

    /// Scales an epoch/iteration count down in quick mode.
    pub(crate) fn epochs(&self, full: usize) -> usize {
        match self {
            Profile::Quick => (full / 4).max(2),
            Profile::Full => full,
        }
    }

    /// Scales a dataset size factor down in quick mode.
    pub(crate) fn scale(&self, full: f64) -> f64 {
        match self {
            Profile::Quick => full * 0.35,
            Profile::Full => full,
        }
    }
}
