//! Runtime-dispatched compute backend selection.
//!
//! Betty ships two implementations of every hot kernel (dense matmuls,
//! the fused gather+segment reductions, the Adam update):
//!
//! * [`Backend::Scalar`] — the original straight-line loops. Kept forever
//!   as the reference: every other path is pinned against it bit-for-bit.
//! * [`Backend::Simd`] — register-tiled loops written so the compiler's
//!   auto-vectorizer emits wide lanes (the vendored toolchain has no
//!   `std::simd`), plus deterministic segment-ownership threading for the
//!   fused aggregation kernels. **Accumulation order per output element
//!   is identical to the scalar path**, so f32 results are bit-identical
//!   across backends — the speedup comes from register accumulation,
//!   operand reuse, and independent FMA chains, never from reassociation.
//!   The matmul family fuses each multiply-add on *both* backends (one
//!   rounding per term, see [`crate::kernels`]); every other kernel
//!   multiplies, then adds, on both.
//!
//! Resolution order (highest priority first):
//!
//! 1. a process-wide override installed via [`set_backend_override`]
//!    (the CLI's `--backend` flag),
//! 2. the `BETTY_BACKEND` environment variable (`scalar` | `simd`),
//! 3. the default, [`Backend::Simd`].
//!
//! The resolved value is a pure function of those inputs — no CPU feature
//! sniffing — so a config is deterministic across machines. 2 and 3 are
//! read once per process; the override is an atomic that wins whenever it
//! is set.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Which implementation of the hot kernels to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Straight-line reference loops (the pre-backend behaviour).
    Scalar,
    /// Register-tiled, auto-vectorizer-friendly loops with the same
    /// per-element accumulation order as `Scalar`.
    #[default]
    Simd,
}

impl Backend {
    /// Stable lowercase name (CLI flag value, trace tag).
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// Parses a [`Backend::name`] string.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "simd" => Some(Backend::Simd),
            _ => None,
        }
    }

    /// Resolves the active backend (override > `BETTY_BACKEND` > simd).
    ///
    /// Every kernel call asks, so the answer costs one atomic load: the
    /// environment (an allocation per read) is resolved once.
    pub fn current() -> Backend {
        static DEFAULT: OnceLock<Backend> = OnceLock::new();
        match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
            OVERRIDE_SCALAR => Backend::Scalar,
            OVERRIDE_SIMD => Backend::Simd,
            _ => *DEFAULT.get_or_init(|| {
                let from_env = std::env::var("BETTY_BACKEND").ok();
                from_env
                    .and_then(|raw| Backend::parse(raw.trim()))
                    .unwrap_or_default()
            }),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const OVERRIDE_NONE: u8 = 0;
const OVERRIDE_SCALAR: u8 = 1;
const OVERRIDE_SIMD: u8 = 2;

/// Process-wide backend override; `OVERRIDE_NONE` means "not set".
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(OVERRIDE_NONE);

/// Installs (or clears, with `None`) a process-wide backend override.
///
/// Takes precedence over `BETTY_BACKEND`. Used by the CLI's `--backend`
/// flag; tests use it to pin scalar-vs-simd comparisons.
pub fn set_backend_override(backend: Option<Backend>) {
    let tag = match backend {
        None => OVERRIDE_NONE,
        Some(Backend::Scalar) => OVERRIDE_SCALAR,
        Some(Backend::Simd) => OVERRIDE_SIMD,
    };
    BACKEND_OVERRIDE.store(tag, Ordering::Relaxed);
}

/// Serialises [`with_backend`] holders: the override is process-wide.
static BACKEND_HOLDER: Mutex<()> = Mutex::new(());

/// Runs `f` with the backend pinned to `backend`, restoring the previous
/// override afterwards (even on panic). Kernels consult
/// [`Backend::current`] at call time, so pinning must bracket the call.
///
/// The override is process-wide and a test binary runs its tests on
/// parallel threads, so holders are serialised: a second `with_backend`
/// waits until the first has restored the override. Do not nest calls on
/// one thread.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            BACKEND_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    // A holder that panicked has already restored the override (`Restore`
    // runs during unwinding), so a poisoned lock guards nothing broken.
    let _held = BACKEND_HOLDER.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(BACKEND_OVERRIDE.load(Ordering::Relaxed));
    set_backend_override(Some(backend));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_round_trip() {
        for b in [Backend::Scalar, Backend::Simd] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("avx512"), None);
    }

    #[test]
    fn override_beats_env_and_default_and_restores() {
        // The first call may well be the one that resolves the default:
        // an override installed after it must still win.
        let unresolved = Backend::current();
        for backend in [Backend::Scalar, Backend::Simd] {
            assert_eq!(with_backend(backend, Backend::current), backend);
        }
        let _held = BACKEND_HOLDER.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(Backend::current(), unresolved);
    }

    #[test]
    fn with_backend_serialises_holders_and_restores_after_a_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || {
                assert_eq!(Backend::current(), Backend::Scalar);
                panic!("body failed");
            })
        });
        assert!(caught.is_err());
        // Two threads pinning opposite backends each see only their own.
        let pinned = |backend| {
            std::thread::spawn(move || {
                (0..200).all(|_| {
                    with_backend(backend, || {
                        std::thread::yield_now();
                        Backend::current() == backend
                    })
                })
            })
        };
        let (scalar, simd) = (pinned(Backend::Scalar), pinned(Backend::Simd));
        assert!(scalar.join().unwrap() && simd.join().unwrap());
        // Nothing in this binary installs a bare override: what is read
        // here is what the holders left behind.
        let _held = BACKEND_HOLDER.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(BACKEND_OVERRIDE.load(Ordering::Relaxed), OVERRIDE_NONE);
    }
}
