//! Simulated accelerator for the Betty reproduction.
//!
//! The paper's experiments run on a 24 GB RTX 6000; every memory number it
//! reports is a byte count of tensors and graph blocks resident on the
//! device. This crate reproduces that accounting without a GPU:
//!
//! * [`Device`] — a capacity-limited allocation ledger with per-category
//!   tracking, peak-watermark recording, and out-of-memory errors. The
//!   trainer registers every tensor it would place on the accelerator; an
//!   allocation pushing `current > capacity` fails exactly where a real GPU
//!   would OOM.
//! * [`TransferModel`] — a PCIe-like host↔device transfer cost model
//!   (latency + bytes/bandwidth), which stands in for the measured "data
//!   movement time" of Fig. 14.
//! * [`MemoryEstimator`] — the paper's analytical model (§4.4.3, Table 3,
//!   Eq. 5) that predicts a micro-batch's peak memory *without executing
//!   it*; this drives memory-aware re-partitioning.
//!
//! # Example
//!
//! ```
//! use betty_device::{Device, MemoryCategory};
//!
//! let mut dev = Device::new(1 << 20); // 1 MiB
//! let a = dev.alloc(512 * 1024, MemoryCategory::InputFeatures)?;
//! assert!(dev.alloc(768 * 1024, MemoryCategory::HiddenActivations).is_err());
//! dev.free(a);
//! assert_eq!(dev.current_bytes(), 0);
//! assert_eq!(dev.peak_bytes(), 512 * 1024);
//! # Ok::<(), betty_device::OomError>(())
//! ```

#![deny(missing_docs)]

mod device;
mod estimator;
mod fault;
mod transfer;

pub use device::{AllocationId, Device, MemoryCategory, OomError};
pub use estimator::{AggregatorKind, MemoryEstimate, MemoryEstimator, ModelShape};
pub use fault::{
    AllocFaultInjector, AllocFaultKind, FaultEvent, FaultPlan, LinkFaultInjector,
    StorageFaultInjector, StorageReadFault, TransferFaultInjector,
};
pub use transfer::TransferModel;

// Re-exported so ledger consumers can drain timelines without a direct
// betty-trace dependency.
pub use betty_trace::{MemEvent, MemTimeline};

/// Bytes per stored value (`f32` everywhere in this reproduction).
pub const BYTES_PER_VALUE: usize = 4;

/// Gibibytes → bytes convenience (the paper quotes capacities in GB).
pub const fn gib(n: usize) -> usize {
    n * (1 << 30)
}
