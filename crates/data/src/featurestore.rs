//! Node-feature storage backends.
//!
//! Betty's Eq. 5 planner bounds *activation* memory, but the node-feature
//! matrix itself was a single dense in-memory [`Tensor`] — capping
//! reachable graph scale at whatever the host can hold. This module puts
//! features behind the [`FeatureStore`] trait with two implementations:
//!
//! * [`DenseFeatures`] — the original in-memory matrix. Zero overhead;
//!   every gather is a hit.
//! * [`PagedFeatures`] — features live on disk as fixed-row shards
//!   (`shard-NNNNN.bfs`, CRC-32-checked like the v2 checkpoint format),
//!   and a byte-budgeted pinned hot-set cache holds the shards the
//!   sampler is actually touching, evicting in least-recently-used order
//!   of the *gather access pattern*.
//!
//! The two backends are **value-identical**: a gather returns the exact
//! same `f32` bits either way, so training through a paged store is
//! bit-identical to training in memory (this is property-tested). Only
//! the accounting differs: the paged store reports cache hits/misses and
//! page-in traffic, which the trainer feeds through its transfer cost
//! model and charges to the `FeatureCache` ledger category.
//!
//! ## Storage dtype
//!
//! Both backends can hold features at a 16-bit storage width
//! ([`DType::Bf16`] / [`DType::F16`]): values are encoded once with
//! round-to-nearest-even and decoded back to f32 on every gather, so the
//! bytes held in memory, in the paged cache, and on disk all halve while
//! compute stays f32. Quantization is idempotent — spilling an
//! already-quantized dense store re-encodes to the identical bits.
//!
//! ## Shard layout
//!
//! ```text
//! meta file "features.meta" (v1 — f32 stores, unchanged on disk):
//!   magic "BTYFMET1" | rows u32 | cols u32 | page_rows u32 | crc32
//! meta file (v2 — written for 16-bit dtypes):
//!   magic "BTYFMET2" | rows u32 | cols u32 | page_rows u32
//!   | dtype tag u32 | crc32
//! shard file "shard-NNNNN.bfs" (one per `page_rows` rows):
//!   v1: magic "BTYFSHD1" | shard u32 | start_row u32 | num_rows u32
//!       | cols u32 | payload (num_rows × cols f32 LE) | crc32
//!   v2: magic "BTYFSHD2" | shard u32 | start_row u32 | num_rows u32
//!       | cols u32 | dtype tag u32 | payload (num_rows × cols u16 LE)
//!       | crc32
//! ```
//!
//! Every file's CRC covers everything after its magic. [`PagedFeatures::open`]
//! verifies every shard (existence, header consistency, full CRC) up
//! front — a truncated or bit-flipped shard is rejected at open with a
//! structured [`FeatureStoreError::Format`], never silently trained on.
//!
//! ## Storage fault tolerance
//!
//! Mid-run, every physical shard read re-validates the full container
//! (magic, header, CRC) instead of trusting the open-time check:
//!
//! * **Transient I/O errors** (real, or injected through an armed
//!   [`StorageFaultHook`]) are retried with seeded-jitter exponential
//!   backoff, bounded by a configurable retry budget. Backoff and stall
//!   seconds are *accounted, never slept* — numerics are untouched.
//! * **On-disk corruption** (CRC mismatch, truncation, even a deleted
//!   shard file) is repaired in place from an **XOR parity group** when
//!   the store was spilled with `parity > 0`: every `parity` consecutive
//!   data shards share one parity shard, so any single damaged member is
//!   reconstructed bit-identically (verified against per-shard payload
//!   CRCs recorded in the parity sidecar) and atomically re-persisted.
//! * Two damaged members in one group — or damage without parity — is a
//!   structured [`FeatureStoreError::Shard`] carrying the shard index
//!   and byte offset, surfaced through the fallible gather path instead
//!   of a panic.
//!
//! Parity sidecar layout (absent unless spilled with `parity > 0`, so
//! plain stores stay byte-identical to the v1/v2 formats):
//!
//! ```text
//! parity meta "parity.meta":
//!   magic "BTYFPMT1" | parity_width u32 | shard_count u32
//!   | payload crc32 per data shard (u32 × shard_count) | crc32
//! parity shard "parity-NNNNN.bfp" (one per group):
//!   magic "BTYFPAR1" | group u32 | first_shard u32 | num_shards u32
//!   | payload_len u32 | XOR of member payloads (zero-padded) | crc32
//! ```
//!
//! [`scrub`] performs the same validation + repair pass offline over a
//! store directory, rebuilding damaged parity shards from intact data
//! shards as well.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use betty_tensor::{crc32, DType, Tensor};

const META_MAGIC: &[u8; 8] = b"BTYFMET1";
const META_MAGIC_V2: &[u8; 8] = b"BTYFMET2";
const SHARD_MAGIC: &[u8; 8] = b"BTYFSHD1";
const SHARD_MAGIC_V2: &[u8; 8] = b"BTYFSHD2";
const PARITY_META_MAGIC: &[u8; 8] = b"BTYFPMT1";
const PARITY_MAGIC: &[u8; 8] = b"BTYFPAR1";
/// File name of the paged-store metadata header inside a store dir
/// (public so offline tools can probe "is this a paged store?").
pub const META_FILE: &str = "features.meta";
/// File name of the optional XOR-parity sidecar metadata.
pub const PARITY_META_FILE: &str = "parity.meta";

/// Default transient-I/O retry budget per logical shard read (the
/// training layer overrides this from `RetryPolicy::max_io_retries`).
pub const DEFAULT_MAX_IO_RETRIES: usize = 3;

/// Base of the simulated exponential retry backoff:
/// `base · 2^attempt · (0.5 + jitter)` seconds, jitter in `[0, 1)`.
const IO_BACKOFF_BASE_SEC: f64 = 5e-3;

// ---------------------------------------------------------------------------
// Errors.

/// Failure opening, writing, or validating a paged feature store.
#[derive(Debug)]
pub enum FeatureStoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A meta or shard file is structurally invalid: bad magic,
    /// truncation, a header inconsistent with the meta file, or a CRC
    /// mismatch.
    Format(String),
    /// A specific shard failed mid-run and could not be brought back:
    /// transient errors exhausted the retry budget, or on-disk damage
    /// could not be repaired from parity.
    Shard {
        /// Index of the failing data shard.
        shard: usize,
        /// Byte offset within the shard file where validation failed
        /// (0 when the failure has no meaningful position, e.g. a
        /// missing file or an exhausted retry budget).
        offset: u64,
        /// What went wrong, including the repair outcome.
        detail: String,
    },
}

impl fmt::Display for FeatureStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureStoreError::Io(e) => write!(f, "feature store i/o error: {e}"),
            FeatureStoreError::Format(msg) => write!(f, "invalid feature store: {msg}"),
            FeatureStoreError::Shard {
                shard,
                offset,
                detail,
            } => write!(
                f,
                "feature shard {shard} failed at byte offset {offset}: {detail}"
            ),
        }
    }
}

impl std::error::Error for FeatureStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FeatureStoreError::Io(e) => Some(e),
            FeatureStoreError::Format(_) | FeatureStoreError::Shard { .. } => None,
        }
    }
}

impl From<io::Error> for FeatureStoreError {
    fn from(e: io::Error) -> Self {
        FeatureStoreError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Gather accounting.

/// Cache accounting for one gather (or prewarm) against a feature store.
///
/// Dense stores report every row as a hit and never page. All counts are
/// deterministic functions of the access sequence, so they are safe to
/// compare across thread counts (they are *not* comparable across
/// backends — that is the point of having them).
///
/// A gather has `hits + misses == indices.len()`; a prewarm copies no
/// row and leaves both at zero. Either way `pages_in` is at most the
/// number of distinct shards the call's rows live on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatherStats {
    /// Rows served from memory (dense) or from a shard that was already
    /// resident when the call began.
    pub hits: u64,
    /// Rows whose shard this call had to page in (every row of that
    /// shard's bucket, not just the first to need it).
    pub misses: u64,
    /// Shard loads performed — at most one per shard per call.
    pub pages_in: u64,
    /// Bytes read from disk by those shard loads.
    pub bytes_in: u64,
    /// Transient-I/O retries performed during shard loads.
    pub io_retries: u64,
    /// Shards reconstructed from XOR parity during shard loads.
    pub shards_repaired: u64,
    /// Bytes re-read from disk (group peers + parity) by reconstructions.
    pub repair_bytes: u64,
    /// Simulated seconds of injected read stalls and retry backoff
    /// (accounted, never slept — numerics are untouched).
    pub backoff_sec: f64,
}

impl GatherStats {
    /// Accumulates another gather's counters into this one.
    pub fn absorb(&mut self, other: &GatherStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.pages_in += other.pages_in;
        self.bytes_in += other.bytes_in;
        self.io_retries += other.io_retries;
        self.shards_repaired += other.shards_repaired;
        self.repair_bytes += other.repair_bytes;
        self.backoff_sec += other.backoff_sec;
    }
}

// ---------------------------------------------------------------------------
// Storage chaos hook.

/// Verdict for one physical shard-read attempt from an armed
/// [`StorageFaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReadFault {
    /// The attempt should fail with a transient I/O error.
    pub fail: bool,
    /// Simulated NVMe stall seconds charged to the attempt.
    pub stall_sec: f64,
}

/// Seedable storage-chaos source consulted before every physical shard
/// read. `betty-data` sits below the fault-injection crate in the
/// dependency order, so the concrete injector (seeded PCG stream in
/// `betty-device`) is adapted onto this trait by the training layer.
pub trait StorageFaultHook: Send {
    /// Verdict for attempt `attempt` (zero-based) of reading `shard`.
    fn check_read(&mut self, shard: usize, attempt: usize) -> ReadFault;

    /// Jitter in `[0, 1)` for the retry backoff, drawn from the hook's
    /// own seeded stream so backoff timing is replayable.
    fn backoff_jitter(&mut self) -> f64;
}

/// One storage-recovery action the store performed, drained by the
/// training layer into its recovery log and trace.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageIncident {
    /// A transient shard-read failure was retried after a simulated
    /// backoff.
    IoRetry {
        /// Shard whose read failed.
        shard: usize,
        /// Zero-based attempt index that failed.
        attempt: usize,
        /// Simulated seconds of backoff before the next attempt.
        backoff_sec: f64,
    },
    /// A damaged shard was reconstructed from its XOR parity group and
    /// re-persisted.
    ShardRepaired {
        /// Shard that was reconstructed.
        shard: usize,
        /// Parity group it belongs to.
        group: usize,
        /// Bytes re-read from disk (peers + parity) to rebuild it.
        repair_bytes: u64,
    },
}

// ---------------------------------------------------------------------------
// The trait.

/// A source of node-feature rows.
///
/// Implementations must be value-identical for the same logical matrix:
/// `gather_into` writes the exact same `f32` bits regardless of backend,
/// so the storage choice can never move a training trajectory. Shared
/// references must be usable from multiple threads (`Sync`); paged
/// backends guard their cache internally.
pub trait FeatureStore: fmt::Debug + Send + Sync {
    /// Number of feature rows (nodes).
    fn rows(&self) -> usize;

    /// Feature dimensionality (columns).
    fn cols(&self) -> usize;

    /// Copies the given rows into `out` (row-major, `indices.len() × cols`)
    /// and reports the cache accounting of the access.
    ///
    /// Paged stores serve the call shard by shard, not row by row: see
    /// [`FeatureStore::try_gather_into`] for the order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != indices.len() * cols`, if an index is out
    /// of range, or (paged stores) if a shard read fails at runtime —
    /// shards are fully validated at open, so this only fires if the
    /// backing files are deleted or the device dies mid-training.
    fn gather_into(&self, indices: &[usize], out: &mut [f32]) -> GatherStats;

    /// Fallible [`FeatureStore::gather_into`]: paged stores surface an
    /// unrecoverable shard failure (retry budget exhausted, unrepairable
    /// corruption) as a structured error instead of panicking. Dense
    /// stores never fail.
    ///
    /// Paged contract: the rows are bucketed by shard; shards already
    /// resident are served first (ascending shard index), missing shards
    /// after (ascending), and every row a shard owes is copied before the
    /// next shard is touched. A shard is therefore paged in **at most
    /// once per call** whatever the cache budget, and an eviction during
    /// the call only ever takes a shard the call is finished with. LRU
    /// order *across* calls is unchanged.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] naming the shard and byte offset. On
    /// `Err` the contents of `out` are unspecified (rows of shards served
    /// before the failure have been written) and must be discarded.
    fn try_gather_into(
        &self,
        indices: &[usize],
        out: &mut [f32],
    ) -> Result<GatherStats, FeatureStoreError> {
        Ok(self.gather_into(indices, out))
    }

    /// Pages in (and pins, subject to the cache budget) every shard the
    /// given rows live on, without copying any row out. Dense stores do
    /// nothing. Prefetchers call this so a later `gather_into` for the
    /// same rows hits memory.
    fn prewarm(&self, indices: &[usize]) -> GatherStats {
        let _ = indices;
        GatherStats::default()
    }

    /// Fallible [`FeatureStore::prewarm`], mirroring
    /// [`FeatureStore::try_gather_into`] — same bucketing, same
    /// residents-first order, at most one page-in per shard.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] naming the shard and byte offset.
    fn try_prewarm(&self, indices: &[usize]) -> Result<GatherStats, FeatureStoreError> {
        Ok(self.prewarm(indices))
    }

    /// Materializes the full matrix as a dense tensor.
    fn to_dense(&self) -> Tensor;

    /// Bytes of host/device memory the store pins for its hot-set cache:
    /// 0 for dense stores, `min(cache budget, total feature bytes)` for
    /// paged ones. The trainer charges exactly this many bytes to the
    /// `FeatureCache` ledger category every step, and the planner adds
    /// the same constant to every estimate — so estimator drift stays
    /// exact.
    fn cache_reservation_bytes(&self) -> usize {
        0
    }

    /// Flat index and value of the first non-finite feature, if any.
    fn find_non_finite(&self) -> Option<(usize, f32)>;
}

// ---------------------------------------------------------------------------
// Dense backend.

/// The original in-memory backend: a dense `[rows, cols]` matrix, held
/// either as an f32 tensor (the default) or as 16-bit encoded values at a
/// half-width storage dtype.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseFeatures {
    storage: DenseStorage,
    cols: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum DenseStorage {
    F32(Tensor),
    Half {
        dtype: DType,
        rows: usize,
        bits: Vec<u16>,
    },
}

impl DenseFeatures {
    /// Wraps a dense f32 tensor (no quantization).
    pub fn new(tensor: Tensor) -> Self {
        let cols = tensor.cols();
        DenseFeatures {
            storage: DenseStorage::F32(tensor),
            cols,
        }
    }

    /// Encodes `tensor` at `dtype` width. `F32` stores the tensor as-is.
    pub fn with_dtype(tensor: Tensor, dtype: DType) -> Self {
        if dtype == DType::F32 {
            return Self::new(tensor);
        }
        let (rows, cols) = (tensor.rows(), tensor.cols());
        let bits = tensor.data().iter().map(|&v| dtype.encode16(v)).collect();
        DenseFeatures {
            storage: DenseStorage::Half { dtype, rows, bits },
            cols,
        }
    }

    /// The storage width of this store.
    pub fn dtype(&self) -> DType {
        match &self.storage {
            DenseStorage::F32(_) => DType::F32,
            DenseStorage::Half { dtype, .. } => *dtype,
        }
    }
}

impl FeatureStore for DenseFeatures {
    fn rows(&self) -> usize {
        match &self.storage {
            DenseStorage::F32(t) => t.rows(),
            DenseStorage::Half { rows, .. } => *rows,
        }
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn gather_into(&self, indices: &[usize], out: &mut [f32]) -> GatherStats {
        match &self.storage {
            DenseStorage::F32(t) => {
                betty_tensor::segment::gather_rows_into(t, indices, out);
            }
            DenseStorage::Half { dtype, rows, bits } => {
                let cols = self.cols;
                assert_eq!(out.len(), indices.len() * cols, "gather output length mismatch");
                for (slot, &idx) in indices.iter().enumerate() {
                    assert!(idx < *rows, "gather index {idx} out of bounds for {rows} rows");
                    let src = &bits[idx * cols..(idx + 1) * cols];
                    for (o, &b) in out[slot * cols..(slot + 1) * cols].iter_mut().zip(src) {
                        *o = dtype.decode16(b);
                    }
                }
            }
        }
        GatherStats {
            hits: indices.len() as u64,
            ..GatherStats::default()
        }
    }

    fn to_dense(&self) -> Tensor {
        match &self.storage {
            DenseStorage::F32(t) => t.clone(),
            DenseStorage::Half { dtype, rows, bits } => {
                let data = bits.iter().map(|&b| dtype.decode16(b)).collect();
                Tensor::from_vec(data, &[*rows, self.cols]).expect("encoded geometry is consistent")
            }
        }
    }

    fn find_non_finite(&self) -> Option<(usize, f32)> {
        match &self.storage {
            DenseStorage::F32(t) => t
                .data()
                .iter()
                .enumerate()
                .find(|(_, v)| !v.is_finite())
                .map(|(i, &v)| (i, v)),
            DenseStorage::Half { dtype, bits, .. } => bits
                .iter()
                .map(|&b| dtype.decode16(b))
                .enumerate()
                .find(|(_, v)| !v.is_finite()),
        }
    }
}

// ---------------------------------------------------------------------------
// Paged backend.

/// One shard's location on disk plus its payload geometry.
#[derive(Debug, Clone)]
struct ShardInfo {
    path: PathBuf,
    start_row: usize,
    num_rows: usize,
}

/// One resident shard's payload at its storage width. Half-width shards
/// stay encoded in the cache — the byte savings the planner budgets for
/// are real in the hot set, not just on disk — and decode per gathered
/// row on the way out.
#[derive(Debug)]
enum ShardPayload {
    F32(Vec<f32>),
    Half(Vec<u16>),
}

impl ShardPayload {
    fn byte_len(&self) -> usize {
        match self {
            ShardPayload::F32(v) => v.len() * 4,
            ShardPayload::Half(v) => v.len() * 2,
        }
    }

    /// Decodes one `cols`-wide row into `out`.
    fn copy_row(&self, dtype: DType, local: usize, cols: usize, out: &mut [f32]) {
        match self {
            ShardPayload::F32(v) => out.copy_from_slice(&v[local * cols..(local + 1) * cols]),
            ShardPayload::Half(v) => {
                for (o, &b) in out.iter_mut().zip(&v[local * cols..(local + 1) * cols]) {
                    *o = dtype.decode16(b);
                }
            }
        }
    }

    /// Decodes the full payload to f32.
    fn to_f32(&self, dtype: DType) -> Vec<f32> {
        match self {
            ShardPayload::F32(v) => v.clone(),
            ShardPayload::Half(v) => v.iter().map(|&b| dtype.decode16(b)).collect(),
        }
    }
}

/// The mutable hot-set cache: resident shard payloads plus LRU bookkeeping.
#[derive(Debug)]
struct CacheState {
    /// Indexed by shard: `(payload, last-touch tick)` while resident.
    resident: Vec<Option<(ShardPayload, u64)>>,
    /// Bytes currently held by `resident` payloads.
    held_bytes: usize,
    /// Monotonic access counter driving LRU order.
    tick: u64,
}

/// XOR parity sidecar contents: group width plus the payload CRC of
/// every data shard (what a reconstruction is verified against).
#[derive(Debug, Clone, PartialEq)]
struct ParityMeta {
    width: usize,
    payload_crcs: Vec<u32>,
}

/// Mutable storage-chaos state: the armed fault hook, the retry budget,
/// and recovery incidents awaiting a drain by the training layer.
struct StorageChaos {
    hook: Option<Box<dyn StorageFaultHook>>,
    max_io_retries: usize,
    incidents: Vec<StorageIncident>,
}

impl Default for StorageChaos {
    fn default() -> Self {
        StorageChaos {
            hook: None,
            max_io_retries: DEFAULT_MAX_IO_RETRIES,
            incidents: Vec::new(),
        }
    }
}

impl fmt::Debug for StorageChaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageChaos")
            .field("armed", &self.hook.is_some())
            .field("max_io_retries", &self.max_io_retries)
            .field("pending_incidents", &self.incidents.len())
            .finish()
    }
}

/// How one validated shard read failed.
enum ShardFailure {
    /// Transient-looking I/O error (worth retrying).
    Io(io::Error),
    /// Structural damage at a byte offset (worth repairing, not retrying).
    Corrupt { offset: u64, detail: String },
}

/// Disk-resident features: fixed-row shards plus a byte-budgeted pinned
/// hot-set cache with LRU eviction in gather access order.
///
/// The shard, not the row, is the unit of a gather or prewarm: one call
/// buckets its rows by shard, serves the shards already resident, then
/// pages in the missing ones, finishing each shard before the next. So a
/// call pages each shard at most once — a cache `c` shards short of a
/// repeated working set costs `c` page-ins per call, not one per row
/// that lands on an evicted shard — and LRU decides only *between* calls.
///
/// The cache is guarded by a mutex; access order (and therefore every
/// hit/miss/eviction decision) is the sequential order of `gather_into`
/// and `prewarm` calls, which the trainer issues from a single thread —
/// so paged accounting is as deterministic as the training loop itself.
#[derive(Debug)]
pub struct PagedFeatures {
    dir: PathBuf,
    rows: usize,
    cols: usize,
    page_rows: usize,
    dtype: DType,
    shards: Vec<ShardInfo>,
    cache_budget_bytes: usize,
    cache: Mutex<CacheState>,
    parity: Option<ParityMeta>,
    chaos: Mutex<StorageChaos>,
}

impl PagedFeatures {
    /// Writes `features` to `dir` as a paged store (meta file + shards of
    /// `page_rows` rows each, all CRC-checksummed and atomically written)
    /// and opens it with the given cache budget.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Io`] if the directory or a file cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows == 0`.
    pub fn spill(
        features: &Tensor,
        dir: impl AsRef<Path>,
        page_rows: usize,
        cache_budget_bytes: usize,
    ) -> Result<Arc<Self>, FeatureStoreError> {
        Self::spill_with_dtype(features, dir, page_rows, cache_budget_bytes, DType::F32)
    }

    /// [`PagedFeatures::spill`] encoding the payloads at `dtype` width.
    ///
    /// `F32` writes the v1 format byte-for-byte; 16-bit dtypes write the
    /// v2 format (u16 payloads, dtype tag in meta and every shard header).
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Io`] if the directory or a file cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows == 0`.
    pub fn spill_with_dtype(
        features: &Tensor,
        dir: impl AsRef<Path>,
        page_rows: usize,
        cache_budget_bytes: usize,
        dtype: DType,
    ) -> Result<Arc<Self>, FeatureStoreError> {
        Self::spill_with_parity(features, dir, page_rows, cache_budget_bytes, dtype, 0)
    }

    /// [`PagedFeatures::spill_with_dtype`] additionally writing an XOR
    /// parity sidecar: every `parity` consecutive data shards get one
    /// parity shard, so any single damaged member of a group can be
    /// reconstructed bit-identically mid-run (or by [`scrub`]).
    ///
    /// `parity == 0` writes no sidecar — the on-disk bytes are exactly
    /// the plain v1/v2 format. `parity == 1` duplicates each shard's
    /// payload (mirroring); larger widths trade redundancy for space.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Io`] if the directory or a file cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows == 0`.
    pub fn spill_with_parity(
        features: &Tensor,
        dir: impl AsRef<Path>,
        page_rows: usize,
        cache_budget_bytes: usize,
        dtype: DType,
        parity: usize,
    ) -> Result<Arc<Self>, FeatureStoreError> {
        assert!(page_rows > 0, "page_rows must be positive");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let (rows, cols) = (features.rows(), features.cols());

        let mut meta = BytesMut::new();
        meta.put_u32_le(rows as u32);
        meta.put_u32_le(cols as u32);
        meta.put_u32_le(page_rows as u32);
        if dtype != DType::F32 {
            meta.put_u32_le(dtype.tag());
        }
        let crc = crc32(&meta);
        let mut meta_file = BytesMut::new();
        meta_file.put_slice(if dtype == DType::F32 { META_MAGIC } else { META_MAGIC_V2 });
        meta_file.put_slice(&meta);
        meta_file.put_u32_le(crc);
        write_atomic(&dir.join(META_FILE), &meta_file)?;

        let num_shards = shard_count(rows, page_rows);
        let mut payload_crcs = Vec::with_capacity(num_shards);
        // Current parity group's running XOR (zero-padded to the widest
        // member payload) and its first member, flushed at group
        // boundaries — shards are written in order, so each group's
        // members are consecutive.
        let mut group_xor: Vec<u8> = Vec::new();
        for shard in 0..num_shards {
            let start_row = shard * page_rows;
            let num_rows = page_rows.min(rows - start_row);
            let mut payload = BytesMut::with_capacity(num_rows * cols * dtype.bytes_per_value());
            for r in start_row..start_row + num_rows {
                for &v in features.row(r) {
                    match dtype {
                        DType::F32 => payload.put_f32_le(v),
                        _ => payload.put_u16_le(dtype.encode16(v)),
                    }
                }
            }
            payload_crcs.push(crc32(&payload));
            let file = encode_shard_file(shard, start_row, num_rows, cols, dtype, &payload);
            write_atomic(&dir.join(shard_name(shard)), &file)?;
            if parity > 0 {
                if shard % parity == 0 {
                    group_xor.clear();
                }
                if payload.len() > group_xor.len() {
                    group_xor.resize(payload.len(), 0);
                }
                for (acc, &b) in group_xor.iter_mut().zip(payload.iter()) {
                    *acc ^= b;
                }
                let last_in_group = shard % parity == parity - 1 || shard == num_shards - 1;
                if last_in_group {
                    let group = shard / parity;
                    let first = group * parity;
                    let file = encode_parity_file(group, first, shard - first + 1, &group_xor);
                    write_atomic(&dir.join(parity_name(group)), &file)?;
                }
            }
        }
        if parity > 0 {
            let mut body = BytesMut::new();
            body.put_u32_le(parity as u32);
            body.put_u32_le(num_shards as u32);
            for &crc in &payload_crcs {
                body.put_u32_le(crc);
            }
            let crc = crc32(&body);
            let mut file = BytesMut::new();
            file.put_slice(PARITY_META_MAGIC);
            file.put_slice(&body);
            file.put_u32_le(crc);
            write_atomic(&dir.join(PARITY_META_FILE), &file)?;
        }
        Self::open(dir, cache_budget_bytes)
    }

    /// Opens a paged store written by [`PagedFeatures::spill`], fully
    /// validating the meta file and **every** shard (magic, header
    /// consistency, CRC over the whole body) so later gathers are
    /// infallible.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Io`] on filesystem problems;
    /// [`FeatureStoreError::Format`] for a missing, truncated,
    /// inconsistent, or bit-flipped file.
    pub fn open(
        dir: impl AsRef<Path>,
        cache_budget_bytes: usize,
    ) -> Result<Arc<Self>, FeatureStoreError> {
        let dir = dir.as_ref().to_path_buf();
        let (rows, cols, page_rows, dtype) = read_meta(&dir)?;

        let num_shards = shard_count(rows, page_rows);
        let mut shards = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let path = dir.join(shard_name(shard));
            let start_row = shard * page_rows;
            let num_rows = page_rows.min(rows - start_row);
            let (got_start, got_rows) =
                validate_shard(&path, shard, cols, dtype).map_err(|e| match e {
                    FeatureStoreError::Format(msg) => {
                        FeatureStoreError::Format(format!("shard {shard}: {msg}"))
                    }
                    other => other,
                })?;
            if got_start != start_row || got_rows != num_rows {
                return Err(FeatureStoreError::Format(format!(
                    "shard {shard}: header says rows {got_start}..{} but meta expects {start_row}..{}",
                    got_start + got_rows,
                    start_row + num_rows
                )));
            }
            shards.push(ShardInfo {
                path,
                start_row,
                num_rows,
            });
        }
        let parity = if dir.join(PARITY_META_FILE).exists() {
            let meta = load_parity_meta(&dir, num_shards)?;
            for group in 0..num_shards.div_ceil(meta.width) {
                read_parity_payload(&dir, group, meta.width, num_shards).map_err(|msg| {
                    FeatureStoreError::Format(format!("parity shard {group}: {msg}"))
                })?;
            }
            Some(meta)
        } else {
            None
        };
        Ok(Arc::new(Self {
            dir,
            rows,
            cols,
            page_rows,
            dtype,
            shards,
            cache_budget_bytes,
            cache: Mutex::new(CacheState {
                resident: (0..num_shards).map(|_| None).collect(),
                held_bytes: 0,
                tick: 0,
            }),
            parity,
            chaos: Mutex::new(StorageChaos::default()),
        }))
    }

    /// Width of the XOR parity groups (data shards per parity shard),
    /// or 0 when the store was spilled without parity.
    pub fn parity_width(&self) -> usize {
        self.parity.as_ref().map_or(0, |p| p.width)
    }

    /// Arms a storage-chaos hook: every subsequent physical shard read
    /// consults it for injected transient failures and stalls. Replaces
    /// any previously armed hook and clears pending incidents, so each
    /// training run starts from a clean chaos stream.
    pub fn arm_storage_faults(&self, hook: Box<dyn StorageFaultHook>) {
        let mut chaos = self.chaos.lock().expect("storage chaos state poisoned");
        chaos.hook = Some(hook);
        chaos.incidents.clear();
    }

    /// Removes any armed storage-chaos hook and clears pending incidents.
    pub fn disarm_storage_faults(&self) {
        let mut chaos = self.chaos.lock().expect("storage chaos state poisoned");
        chaos.hook = None;
        chaos.incidents.clear();
    }

    /// Sets the transient-I/O retry budget per logical shard read.
    pub fn set_max_io_retries(&self, max_io_retries: usize) {
        self.chaos
            .lock()
            .expect("storage chaos state poisoned")
            .max_io_retries = max_io_retries;
    }

    /// Removes and returns every storage-recovery incident recorded
    /// since the last drain.
    pub fn drain_storage_incidents(&self) -> Vec<StorageIncident> {
        std::mem::take(
            &mut self
                .chaos
                .lock()
                .expect("storage chaos state poisoned")
                .incidents,
        )
    }

    /// Flips one payload byte of `shard`'s file on disk (plain
    /// overwrite, simulating bit rot) and evicts the shard from the
    /// hot-set cache so the next access re-reads the damaged bytes.
    /// Returns the absolute byte offset that was flipped.
    ///
    /// Chaos/test helper — this is how scheduled `shard_corrupt` faults
    /// and the scrub exhibits damage a live store deterministically.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Io`] if the file cannot be rewritten;
    /// [`FeatureStoreError::Format`] if the shard has no payload bytes
    /// to flip.
    pub fn corrupt_shard_byte(&self, shard: usize) -> Result<u64, FeatureStoreError> {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        let info = &self.shards[shard];
        let mut bytes = std::fs::read(&info.path)?;
        let header = shard_header_len(self.dtype);
        let payload_len = info.num_rows * self.cols * self.dtype.bytes_per_value();
        if payload_len == 0 {
            return Err(FeatureStoreError::Format(format!(
                "shard {shard} has an empty payload; nothing to corrupt"
            )));
        }
        let offset = header + payload_len / 2;
        bytes[offset] ^= 0x40;
        std::fs::write(&info.path, &bytes)?;
        let mut state = self.cache.lock().expect("feature cache poisoned");
        if let Some((payload, _)) = state.resident[shard].take() {
            state.held_bytes -= payload.byte_len();
        }
        Ok(offset as u64)
    }

    /// The storage width of the shard payloads.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The directory the shards live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rows per shard (the page size).
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configured cache budget, in bytes (not clamped to the total).
    pub fn cache_budget_bytes(&self) -> usize {
        self.cache_budget_bytes
    }

    /// Bytes of shard payload currently resident in the cache.
    pub fn cache_held_bytes(&self) -> usize {
        self.cache.lock().expect("feature cache poisoned").held_bytes
    }

    /// Reads one shard's payload, panicking on unrecoverable failure —
    /// the historical infallible path, kept for direct callers
    /// (`to_dense`, `find_non_finite`). Transient errors are still
    /// retried and corruption still repaired from parity before the
    /// panic fires.
    fn read_shard_payload(&self, shard: usize) -> ShardPayload {
        let mut stats = GatherStats::default();
        self.try_read_shard_payload(shard, &mut stats)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads one shard's payload with full re-validation (magic, header,
    /// CRC), transient-error retry with seeded-jitter backoff, and XOR
    /// parity repair; accumulates retry/repair accounting into `stats`.
    fn try_read_shard_payload(
        &self,
        shard: usize,
        stats: &mut GatherStats,
    ) -> Result<ShardPayload, FeatureStoreError> {
        let mut chaos = self.chaos.lock().expect("storage chaos state poisoned");
        let max_io_retries = chaos.max_io_retries;
        let mut attempt = 0usize;
        loop {
            let verdict = match chaos.hook.as_mut() {
                Some(hook) => hook.check_read(shard, attempt),
                None => ReadFault::default(),
            };
            stats.backoff_sec += verdict.stall_sec;
            let outcome = if verdict.fail {
                Err(ShardFailure::Io(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient read error (attempt {attempt})"),
                )))
            } else {
                self.read_shard_validated(shard)
            };
            match outcome {
                Ok(payload) => return Ok(payload),
                Err(ShardFailure::Io(e)) => {
                    if attempt >= max_io_retries {
                        return Err(FeatureStoreError::Shard {
                            shard,
                            offset: 0,
                            detail: format!(
                                "transient I/O error persisted through {} attempts \
                                 (retry budget {max_io_retries}): {e}",
                                attempt + 1
                            ),
                        });
                    }
                    let jitter = chaos.hook.as_mut().map_or(0.5, |h| h.backoff_jitter());
                    let backoff_sec =
                        IO_BACKOFF_BASE_SEC * (1u64 << attempt.min(32)) as f64 * (0.5 + jitter);
                    stats.io_retries += 1;
                    stats.backoff_sec += backoff_sec;
                    chaos.incidents.push(StorageIncident::IoRetry {
                        shard,
                        attempt,
                        backoff_sec,
                    });
                    attempt += 1;
                }
                Err(ShardFailure::Corrupt { offset, detail }) => {
                    // On-disk damage is not transient: repair from
                    // parity (bit-identical, verified, re-persisted)
                    // or fail structurally.
                    let (payload, repair_bytes) = self.repair_shard(shard, offset, &detail)?;
                    let group = shard / self.parity.as_ref().map_or(1, |p| p.width);
                    stats.shards_repaired += 1;
                    stats.repair_bytes += repair_bytes;
                    chaos.incidents.push(StorageIncident::ShardRepaired {
                        shard,
                        group,
                        repair_bytes,
                    });
                    return Ok(payload);
                }
            }
        }
    }

    /// One physical read of `shard` with full container validation.
    fn read_shard_validated(&self, shard: usize) -> Result<ShardPayload, ShardFailure> {
        let info = &self.shards[shard];
        let bytes = match std::fs::read(&info.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ShardFailure::Corrupt {
                    offset: 0,
                    detail: "shard file missing".into(),
                })
            }
            Err(e) => return Err(ShardFailure::Io(e)),
        };
        match parse_shard(&bytes, shard, self.cols, self.dtype) {
            Ok((start_row, num_rows, payload)) => {
                if start_row != info.start_row || num_rows != info.num_rows {
                    return Err(ShardFailure::Corrupt {
                        offset: SHARD_MAGIC.len() as u64,
                        detail: format!(
                            "header says rows {start_row}..{} but meta expects {}..{}",
                            start_row + num_rows,
                            info.start_row,
                            info.start_row + info.num_rows
                        ),
                    });
                }
                Ok(decode_payload(payload, self.dtype))
            }
            Err((offset, detail)) => Err(ShardFailure::Corrupt { offset, detail }),
        }
    }

    /// Reconstructs `shard`'s payload from its XOR parity group, verifies
    /// it against the recorded payload CRC, re-persists the full shard
    /// container atomically, and returns the payload plus the bytes
    /// re-read from disk to rebuild it.
    fn repair_shard(
        &self,
        shard: usize,
        offset: u64,
        why: &str,
    ) -> Result<(ShardPayload, u64), FeatureStoreError> {
        let fail = |detail: String| FeatureStoreError::Shard {
            shard,
            offset,
            detail,
        };
        let Some(parity) = &self.parity else {
            return Err(fail(format!(
                "{why}; store has no parity sidecar to repair from"
            )));
        };
        let width = parity.width;
        let group = shard / width;
        let first = group * width;
        let members = first..(first + width).min(self.shards.len());
        let (_, _, mut acc) = read_parity_payload(&self.dir, group, width, self.shards.len())
            .map_err(|msg| {
                fail(format!(
                    "{why}; parity shard for group {group} is unusable ({msg})"
                ))
            })?;
        let mut repair_bytes = acc.len() as u64;
        for peer in members {
            if peer == shard {
                continue;
            }
            let path = self.dir.join(shard_name(peer));
            let bytes = std::fs::read(&path).map_err(|e| {
                fail(format!(
                    "{why}; peer shard {peer} in group {group} is also unreadable ({e}) — \
                     XOR parity can repair exactly one shard per group"
                ))
            })?;
            let (_, _, payload) =
                parse_shard(&bytes, peer, self.cols, self.dtype).map_err(|(_, msg)| {
                    fail(format!(
                        "{why}; peer shard {peer} in group {group} is also damaged ({msg}) — \
                         XOR parity can repair exactly one shard per group"
                    ))
                })?;
            repair_bytes += payload.len() as u64;
            for (acc_byte, &b) in acc.iter_mut().zip(payload.iter()) {
                *acc_byte ^= b;
            }
        }
        let info = &self.shards[shard];
        let my_len = info.num_rows * self.cols * self.dtype.bytes_per_value();
        if acc.len() < my_len {
            return Err(fail(format!(
                "{why}; parity payload is {} bytes but shard needs {my_len}",
                acc.len()
            )));
        }
        acc.truncate(my_len);
        if crc32(&acc) != parity.payload_crcs[shard] {
            return Err(fail(format!(
                "{why}; parity reconstruction failed its recorded CRC — \
                 more than one shard in group {group} is damaged"
            )));
        }
        let file = encode_shard_file(
            shard,
            info.start_row,
            info.num_rows,
            self.cols,
            self.dtype,
            &acc,
        );
        write_atomic(&info.path, &file)?;
        Ok((decode_payload(&acc, self.dtype), repair_bytes))
    }

    /// The one gather/prewarm path. Buckets `indices` by shard (a counting
    /// sort over `idx / page_rows`), then hands `serve` each touched
    /// shard's payload, start row and bucket — the positions in `indices`
    /// it owes, in call order — plus whether the shard had to be paged
    /// in: resident shards first, missing shards after, both ascending.
    ///
    /// No load happens until every resident shard has been served, and
    /// the LRU victim of a load (never the shard just loaded, so a single
    /// over-budget shard still serves its bucket) is the stalest resident
    /// shard — one this call did not touch or is finished with. Hence at
    /// most one page-in per shard per call, whatever the budget.
    fn serve_by_shard(
        &self,
        indices: &[usize],
        stats: &mut GatherStats,
        mut serve: impl FnMut(&ShardPayload, usize, &[usize], bool),
    ) -> Result<(), FeatureStoreError> {
        let num_shards = self.shards.len();
        let mut starts = vec![0usize; num_shards + 1];
        for &idx in indices {
            assert!(
                idx < self.rows,
                "row {idx} out of range ({} rows)",
                self.rows
            );
            starts[idx / self.page_rows + 1] += 1;
        }
        for shard in 0..num_shards {
            starts[shard + 1] += starts[shard];
        }
        let mut cursor = starts.clone();
        let mut slots = vec![0usize; indices.len()];
        for (slot, &idx) in indices.iter().enumerate() {
            let shard = idx / self.page_rows;
            slots[cursor[shard]] = slot;
            cursor[shard] += 1;
        }

        let mut state = self.cache.lock().expect("feature cache poisoned");
        let mut missing = Vec::new();
        for shard in 0..num_shards {
            let bucket = &slots[starts[shard]..starts[shard + 1]];
            if bucket.is_empty() {
                continue;
            }
            state.tick += 1;
            let tick = state.tick;
            match &mut state.resident[shard] {
                Some((payload, last)) => {
                    *last = tick;
                    serve(payload, self.shards[shard].start_row, bucket, false);
                }
                None => missing.push(shard),
            }
        }
        for shard in missing {
            let payload = self.try_read_shard_payload(shard, stats)?;
            stats.pages_in += 1;
            stats.bytes_in += payload.byte_len() as u64;
            state.tick += 1;
            state.held_bytes += payload.byte_len();
            let tick = state.tick;
            let (payload, _) = state.resident[shard].insert((payload, tick));
            let bucket = &slots[starts[shard]..starts[shard + 1]];
            serve(payload, self.shards[shard].start_row, bucket, true);
            // Ticks are unique, so the victim is too.
            while state.held_bytes > self.cache_budget_bytes {
                let victim = (0..num_shards)
                    .filter(|&s| s != shard)
                    .filter_map(|s| state.resident[s].as_ref().map(|&(_, last)| (last, s)))
                    .min();
                let Some((_, victim)) = victim else { break };
                let (evicted, _) = state.resident[victim].take().expect("victim is resident");
                state.held_bytes -= evicted.byte_len();
            }
        }
        Ok(())
    }
}

impl FeatureStore for PagedFeatures {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn gather_into(&self, indices: &[usize], out: &mut [f32]) -> GatherStats {
        self.try_gather_into(indices, out)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_gather_into(
        &self,
        indices: &[usize],
        out: &mut [f32],
    ) -> Result<GatherStats, FeatureStoreError> {
        assert_eq!(
            out.len(),
            indices.len() * self.cols,
            "output buffer must be indices.len() × cols"
        );
        let mut stats = GatherStats::default();
        if self.cols == 0 {
            stats.hits = indices.len() as u64;
            return Ok(stats);
        }
        let (cols, dtype) = (self.cols, self.dtype);
        let mut misses = 0u64;
        self.serve_by_shard(
            indices,
            &mut stats,
            |payload, start_row, bucket, paged_in| {
                if paged_in {
                    misses += bucket.len() as u64;
                }
                for &slot in bucket {
                    let local = indices[slot] - start_row;
                    payload.copy_row(dtype, local, cols, &mut out[slot * cols..(slot + 1) * cols]);
                }
            },
        )?;
        stats.misses = misses;
        stats.hits = indices.len() as u64 - misses;
        Ok(stats)
    }

    fn prewarm(&self, indices: &[usize]) -> GatherStats {
        self.try_prewarm(indices).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_prewarm(&self, indices: &[usize]) -> Result<GatherStats, FeatureStoreError> {
        let mut stats = GatherStats::default();
        if self.cols > 0 {
            self.serve_by_shard(indices, &mut stats, |_, _, _, _| {})?;
        }
        Ok(stats)
    }

    fn to_dense(&self) -> Tensor {
        let mut data = vec![0.0f32; self.rows * self.cols];
        for (shard, info) in self.shards.iter().enumerate() {
            let payload = self.read_shard_payload(shard).to_f32(self.dtype);
            let start = info.start_row * self.cols;
            data[start..start + payload.len()].copy_from_slice(&payload);
        }
        Tensor::from_vec(data, &[self.rows, self.cols]).expect("shard geometry is validated")
    }

    fn cache_reservation_bytes(&self) -> usize {
        self.cache_budget_bytes
            .min(self.rows * self.cols * self.dtype.bytes_per_value())
    }

    fn find_non_finite(&self) -> Option<(usize, f32)> {
        for (shard, info) in self.shards.iter().enumerate() {
            let payload = self.read_shard_payload(shard).to_f32(self.dtype);
            if let Some((i, &v)) = payload.iter().enumerate().find(|(_, v)| !v.is_finite()) {
                return Some((info.start_row * self.cols + i, v));
            }
        }
        None
    }
}

fn shard_count(rows: usize, page_rows: usize) -> usize {
    rows.div_ceil(page_rows).max(1)
}

fn shard_name(shard: usize) -> String {
    format!("shard-{shard:05}.bfs")
}

fn parity_name(group: usize) -> String {
    format!("parity-{group:05}.bfp")
}

/// Bytes of magic + header fields before a shard file's payload.
fn shard_header_len(dtype: DType) -> usize {
    let header_words = if dtype == DType::F32 { 4 } else { 5 };
    SHARD_MAGIC.len() + header_words * 4
}

/// Encodes a full shard container (magic, header, payload, CRC) — the
/// single source of the on-disk bytes, used by both the spiller and the
/// parity repairer so reconstruction is byte-identical to the original.
fn encode_shard_file(
    shard: usize,
    start_row: usize,
    num_rows: usize,
    cols: usize,
    dtype: DType,
    payload: &[u8],
) -> BytesMut {
    let mut file = BytesMut::with_capacity(shard_header_len(dtype) + payload.len() + 4);
    file.put_slice(if dtype == DType::F32 {
        SHARD_MAGIC
    } else {
        SHARD_MAGIC_V2
    });
    file.put_u32_le(shard as u32);
    file.put_u32_le(start_row as u32);
    file.put_u32_le(num_rows as u32);
    file.put_u32_le(cols as u32);
    if dtype != DType::F32 {
        file.put_u32_le(dtype.tag());
    }
    file.put_slice(payload);
    let crc = crc32(&file[SHARD_MAGIC.len()..]);
    file.put_u32_le(crc);
    file
}

/// Encodes a parity shard container for `group`.
fn encode_parity_file(group: usize, first_shard: usize, num_shards: usize, xor: &[u8]) -> BytesMut {
    let mut file = BytesMut::with_capacity(PARITY_MAGIC.len() + 4 * 4 + xor.len() + 4);
    file.put_slice(PARITY_MAGIC);
    file.put_u32_le(group as u32);
    file.put_u32_le(first_shard as u32);
    file.put_u32_le(num_shards as u32);
    file.put_u32_le(xor.len() as u32);
    file.put_slice(xor);
    let crc = crc32(&file[PARITY_MAGIC.len()..]);
    file.put_u32_le(crc);
    file
}

/// Decodes raw payload bytes to a cache-resident payload at `dtype`.
fn decode_payload(bytes: &[u8], dtype: DType) -> ShardPayload {
    match dtype {
        DType::F32 => ShardPayload::F32(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
                .collect(),
        ),
        _ => ShardPayload::Half(
            bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().expect("chunk is 2 bytes")))
                .collect(),
        ),
    }
}

/// Parses and fully validates one shard file's bytes (magic, header
/// consistency, CRC over the whole body) in place; returns
/// `(start_row, num_rows, payload)` — the payload borrowed from `bytes`
/// — or `(byte offset, detail)` locating the first structural failure.
fn parse_shard(
    bytes: &[u8],
    expect_shard: usize,
    expect_cols: usize,
    expect_dtype: DType,
) -> Result<(usize, usize, &[u8]), (u64, String)> {
    let header = shard_header_len(expect_dtype);
    if bytes.len() < header + 4 {
        return Err((bytes.len() as u64, "truncated shard file".into()));
    }
    let (magic, rest) = bytes.split_at(SHARD_MAGIC.len());
    let expect_magic: &[u8] = if expect_dtype == DType::F32 {
        SHARD_MAGIC
    } else {
        SHARD_MAGIC_V2
    };
    if magic != expect_magic {
        return Err((0, "shard magic does not match meta version".into()));
    }
    let (body, mut tail) = rest.split_at(rest.len() - 4);
    if crc32(body) != tail.get_u32_le() {
        return Err(((bytes.len() - 4) as u64, "shard CRC mismatch".into()));
    }
    let mut hdr = body;
    let shard = hdr.get_u32_le() as usize;
    let start_row = hdr.get_u32_le() as usize;
    let num_rows = hdr.get_u32_le() as usize;
    let cols = hdr.get_u32_le() as usize;
    if expect_dtype != DType::F32 {
        let tag = hdr.get_u32_le();
        if DType::from_tag(tag) != Some(expect_dtype) {
            return Err((
                (SHARD_MAGIC.len() + 4 * 4) as u64,
                format!("shard dtype tag {tag} does not match meta dtype {expect_dtype}"),
            ));
        }
    }
    if shard != expect_shard {
        return Err((
            SHARD_MAGIC.len() as u64,
            format!("header names shard {shard}, expected {expect_shard}"),
        ));
    }
    if cols != expect_cols {
        return Err((
            (SHARD_MAGIC.len() + 3 * 4) as u64,
            format!("shard has {cols} cols, meta says {expect_cols}"),
        ));
    }
    if hdr.len() != num_rows * cols * expect_dtype.bytes_per_value() {
        return Err((
            header as u64,
            format!(
                "payload is {} bytes, header implies {}",
                hdr.len(),
                num_rows * cols * expect_dtype.bytes_per_value()
            ),
        ));
    }
    Ok((start_row, num_rows, hdr))
}

/// Validates one shard file end to end (version and dtype must match the
/// meta file); returns `(start_row, num_rows)` from its header.
fn validate_shard(
    path: &Path,
    expect_shard: usize,
    expect_cols: usize,
    expect_dtype: DType,
) -> Result<(usize, usize), FeatureStoreError> {
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            FeatureStoreError::Format(format!("missing shard file {}", path.display()))
        } else {
            FeatureStoreError::Io(e)
        }
    })?;
    match parse_shard(&bytes, expect_shard, expect_cols, expect_dtype) {
        Ok((start_row, num_rows, _)) => Ok((start_row, num_rows)),
        Err((_, detail)) => Err(FeatureStoreError::Format(detail)),
    }
}

/// Reads and validates the store's meta file; returns
/// `(rows, cols, page_rows, dtype)`.
fn read_meta(dir: &Path) -> Result<(usize, usize, usize, DType), FeatureStoreError> {
    let meta_bytes = Bytes::from(std::fs::read(dir.join(META_FILE))?);
    let mut buf = meta_bytes.clone();
    if buf.remaining() < META_MAGIC.len() + 3 * 4 + 4 {
        return Err(FeatureStoreError::Format("meta file truncated".into()));
    }
    let magic = buf.split_to(META_MAGIC.len());
    let v2 = match &magic[..] {
        m if m == META_MAGIC => false,
        m if m == META_MAGIC_V2 => true,
        _ => return Err(FeatureStoreError::Format("bad meta magic".into())),
    };
    let body_len = if v2 { 4 * 4 } else { 3 * 4 };
    if buf.remaining() < body_len + 4 {
        return Err(FeatureStoreError::Format("meta file truncated".into()));
    }
    let body = buf.split_to(body_len);
    let stored_crc = buf.get_u32_le();
    if buf.remaining() > 0 {
        return Err(FeatureStoreError::Format("trailing bytes in meta file".into()));
    }
    if crc32(&body) != stored_crc {
        return Err(FeatureStoreError::Format("meta CRC mismatch".into()));
    }
    let mut body = body;
    let rows = body.get_u32_le() as usize;
    let cols = body.get_u32_le() as usize;
    let page_rows = body.get_u32_le() as usize;
    let dtype = if v2 {
        let tag = body.get_u32_le();
        match DType::from_tag(tag) {
            Some(DType::F32) | None => {
                return Err(FeatureStoreError::Format(format!(
                    "meta names invalid 16-bit dtype tag {tag}"
                )))
            }
            Some(d) => d,
        }
    } else {
        DType::F32
    };
    if page_rows == 0 {
        return Err(FeatureStoreError::Format("page_rows is zero".into()));
    }
    Ok((rows, cols, page_rows, dtype))
}

/// Loads and validates the parity sidecar meta for a store with
/// `num_shards` data shards.
fn load_parity_meta(dir: &Path, num_shards: usize) -> Result<ParityMeta, FeatureStoreError> {
    let bytes = Bytes::from(std::fs::read(dir.join(PARITY_META_FILE))?);
    if bytes.len() < PARITY_META_MAGIC.len() + 2 * 4 + 4 {
        return Err(FeatureStoreError::Format("parity meta truncated".into()));
    }
    let mut buf = bytes.clone();
    let magic = buf.split_to(PARITY_META_MAGIC.len());
    if &magic[..] != PARITY_META_MAGIC {
        return Err(FeatureStoreError::Format("bad parity meta magic".into()));
    }
    let body = buf.split_to(buf.remaining() - 4);
    let stored_crc = buf.get_u32_le();
    if crc32(&body) != stored_crc {
        return Err(FeatureStoreError::Format("parity meta CRC mismatch".into()));
    }
    let mut body = body;
    let width = body.get_u32_le() as usize;
    let count = body.get_u32_le() as usize;
    if width == 0 {
        return Err(FeatureStoreError::Format("parity width is zero".into()));
    }
    if count != num_shards || body.remaining() != count * 4 {
        return Err(FeatureStoreError::Format(format!(
            "parity meta covers {count} shards, store has {num_shards}"
        )));
    }
    let payload_crcs = (0..count).map(|_| body.get_u32_le()).collect();
    Ok(ParityMeta {
        width,
        payload_crcs,
    })
}

/// Reads and validates one parity shard; returns
/// `(first_shard, num_shards, xor payload)` or a failure description.
fn read_parity_payload(
    dir: &Path,
    group: usize,
    width: usize,
    total_shards: usize,
) -> Result<(usize, usize, Vec<u8>), String> {
    let path = dir.join(parity_name(group));
    let bytes = std::fs::read(&path).map_err(|e| format!("unreadable: {e}"))?;
    let header = PARITY_MAGIC.len() + 4 * 4;
    if bytes.len() < header + 4 {
        return Err("truncated parity file".into());
    }
    let (magic, rest) = bytes.split_at(PARITY_MAGIC.len());
    if magic != PARITY_MAGIC {
        return Err("bad parity magic".into());
    }
    let (mut body, mut tail) = rest.split_at(rest.len() - 4);
    if crc32(body) != tail.get_u32_le() {
        return Err("parity CRC mismatch".into());
    }
    let got_group = body.get_u32_le() as usize;
    let first_shard = body.get_u32_le() as usize;
    let num_shards = body.get_u32_le() as usize;
    let payload_len = body.get_u32_le() as usize;
    let expect_first = group * width;
    let expect_count = width.min(total_shards - expect_first);
    if got_group != group || first_shard != expect_first || num_shards != expect_count {
        return Err(format!(
            "header names group {got_group} (shards {first_shard}..{}), \
             expected group {group} (shards {expect_first}..{})",
            first_shard + num_shards,
            expect_first + expect_count
        ));
    }
    if body.len() != payload_len {
        return Err(format!(
            "payload is {} bytes, header implies {payload_len}",
            body.len()
        ));
    }
    Ok((first_shard, num_shards, body.to_vec()))
}

// ---------------------------------------------------------------------------
// Offline scrub.

/// Outcome of a [`scrub`] pass over a paged store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Data shards examined (all of them).
    pub shards_checked: usize,
    /// Data shards reconstructed from parity and re-persisted.
    pub shards_repaired: Vec<usize>,
    /// Parity groups examined (0 for stores without a parity sidecar).
    pub parity_checked: usize,
    /// Parity shards rebuilt from intact data shards and re-persisted.
    pub parity_rebuilt: Vec<usize>,
    /// Data shards that remain damaged: no parity sidecar, a damaged
    /// parity shard, or more than one damaged member in their group.
    pub unrepairable: Vec<usize>,
    /// Width of the parity groups (0 when there is no sidecar).
    pub parity_width: usize,
}

impl ScrubReport {
    /// Whether every shard is now valid (repairs count as clean).
    pub fn is_clean(&self) -> bool {
        self.unrepairable.is_empty()
    }
}

/// Verifies every shard and parity file of the paged store in `dir`
/// end to end (magic, header, CRC, parity-sidecar payload CRCs) and
/// repairs what parity allows: a single damaged data shard per group is
/// reconstructed bit-identically and re-persisted, and a damaged parity
/// shard is rebuilt from its intact data shards. Anything else is
/// reported as unrepairable and left untouched.
///
/// # Errors
///
/// [`FeatureStoreError::Io`] / [`FeatureStoreError::Format`] if the
/// meta or parity-meta files themselves are unreadable or invalid —
/// without them nothing can be verified.
pub fn scrub(dir: impl AsRef<Path>) -> Result<ScrubReport, FeatureStoreError> {
    let dir = dir.as_ref();
    let (rows, cols, page_rows, dtype) = read_meta(dir)?;
    let num_shards = shard_count(rows, page_rows);
    let parity = if dir.join(PARITY_META_FILE).exists() {
        Some(load_parity_meta(dir, num_shards)?)
    } else {
        None
    };
    let mut report = ScrubReport {
        shards_checked: num_shards,
        parity_width: parity.as_ref().map_or(0, |p| p.width),
        ..ScrubReport::default()
    };

    let shard_status: Vec<Result<Vec<u8>, String>> = (0..num_shards)
        .map(|shard| {
            let bytes = std::fs::read(dir.join(shard_name(shard)))
                .map_err(|e| format!("unreadable: {e}"))?;
            let start_row = shard * page_rows;
            let num_rows = page_rows.min(rows - start_row);
            let (got_start, got_rows, payload) =
                parse_shard(&bytes, shard, cols, dtype).map_err(|(_, detail)| detail)?;
            if got_start != start_row || got_rows != num_rows {
                return Err("header rows disagree with meta".into());
            }
            if let Some(p) = &parity {
                if crc32(payload) != p.payload_crcs[shard] {
                    return Err("payload CRC does not match parity sidecar".into());
                }
            }
            Ok(payload.to_vec())
        })
        .collect();

    let Some(parity) = parity else {
        for (shard, status) in shard_status.iter().enumerate() {
            if status.is_err() {
                report.unrepairable.push(shard);
            }
        }
        return Ok(report);
    };

    let width = parity.width;
    let num_groups = num_shards.div_ceil(width);
    report.parity_checked = num_groups;
    for group in 0..num_groups {
        let first = group * width;
        let members: Vec<usize> = (first..(first + width).min(num_shards)).collect();
        let bad: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&s| shard_status[s].is_err())
            .collect();
        let parity_payload = read_parity_payload(dir, group, width, num_shards);
        match (bad.len(), parity_payload) {
            (0, Ok(_)) => {}
            (0, Err(_)) => {
                // Every data shard is intact: the parity shard itself
                // is the damaged one — rebuild it.
                let mut xor: Vec<u8> = Vec::new();
                for &member in &members {
                    let payload = shard_status[member].as_ref().expect("member is intact");
                    if payload.len() > xor.len() {
                        xor.resize(payload.len(), 0);
                    }
                    for (acc, &b) in xor.iter_mut().zip(payload.iter()) {
                        *acc ^= b;
                    }
                }
                let file = encode_parity_file(group, first, members.len(), &xor);
                write_atomic(&dir.join(parity_name(group)), &file)?;
                report.parity_rebuilt.push(group);
            }
            (1, Ok((_, _, mut acc))) => {
                let shard = bad[0];
                for &member in &members {
                    if member == shard {
                        continue;
                    }
                    let payload = shard_status[member].as_ref().expect("member is intact");
                    for (acc_byte, &b) in acc.iter_mut().zip(payload.iter()) {
                        *acc_byte ^= b;
                    }
                }
                let start_row = shard * page_rows;
                let num_rows = page_rows.min(rows - start_row);
                let my_len = num_rows * cols * dtype.bytes_per_value();
                if acc.len() < my_len || crc32(&acc[..my_len]) != parity.payload_crcs[shard] {
                    report.unrepairable.push(shard);
                    continue;
                }
                acc.truncate(my_len);
                let file = encode_shard_file(shard, start_row, num_rows, cols, dtype, &acc);
                write_atomic(&dir.join(shard_name(shard)), &file)?;
                report.shards_repaired.push(shard);
            }
            // ≥2 damaged members, or one damaged member plus a damaged
            // parity shard: XOR cannot recover — leave everything as-is.
            (_, _) => report.unrepairable.extend(bad.iter().copied()),
        }
    }
    Ok(report)
}

/// Same-directory atomic write (tmp + fsync + rename), mirroring the
/// dataset and checkpoint writers.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The Dataset-facing wrapper.

/// Node features behind a storage backend.
///
/// This is the concrete type `Dataset` holds: a cheaply cloneable handle
/// over either backend (paged stores are shared through an [`Arc`], so a
/// cloned dataset shares one cache and one set of shard files). All the
/// read paths in the workspace go through this type, so swapping the
/// backend never touches a call site.
#[derive(Debug, Clone)]
pub enum Features {
    /// In-memory dense matrix (the default; zero overhead).
    Dense(DenseFeatures),
    /// Disk-resident shards with a pinned hot-set cache.
    Paged(Arc<PagedFeatures>),
}

impl Features {
    /// Wraps a dense tensor.
    pub fn dense(tensor: Tensor) -> Self {
        Features::Dense(DenseFeatures::new(tensor))
    }

    /// Wraps a dense tensor encoded at `dtype` storage width.
    pub fn dense_with_dtype(tensor: Tensor, dtype: DType) -> Self {
        Features::Dense(DenseFeatures::with_dtype(tensor, dtype))
    }

    /// The storage width of this store's values.
    pub fn dtype(&self) -> DType {
        match self {
            Features::Dense(d) => d.dtype(),
            Features::Paged(p) => p.dtype(),
        }
    }

    /// Re-encodes a dense store at `dtype` width (decode → re-encode, so
    /// converting an already-quantized store is lossless for values the
    /// target dtype represents exactly).
    ///
    /// # Panics
    ///
    /// Panics on a paged store: the shard files' width is fixed at spill
    /// time — choose the dtype *before* calling [`Features::to_paged`].
    pub fn with_dtype(&self, dtype: DType) -> Self {
        match self {
            Features::Dense(d) => Features::dense_with_dtype(d.to_dense(), dtype),
            Features::Paged(_) => {
                panic!("cannot re-encode a paged store; set the dtype before spilling")
            }
        }
    }

    /// Wraps an opened paged store.
    pub fn paged(store: Arc<PagedFeatures>) -> Self {
        Features::Paged(store)
    }

    /// Spills this matrix to `dir` as a paged store and returns a paged
    /// handle over it (the dense copy is dropped by the caller).
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError`] if the shards cannot be written (or, when
    /// called on an already-paged store, re-sharded).
    pub fn to_paged(
        &self,
        dir: impl AsRef<Path>,
        page_rows: usize,
        cache_budget_bytes: usize,
    ) -> Result<Self, FeatureStoreError> {
        self.to_paged_with_parity(dir, page_rows, cache_budget_bytes, 0)
    }

    /// [`Features::to_paged`] additionally writing an XOR parity sidecar
    /// of the given group width (`0` = no parity, the plain format).
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError`] if the shards cannot be written.
    pub fn to_paged_with_parity(
        &self,
        dir: impl AsRef<Path>,
        page_rows: usize,
        cache_budget_bytes: usize,
        parity: usize,
    ) -> Result<Self, FeatureStoreError> {
        let dense = self.to_dense();
        Ok(Features::Paged(PagedFeatures::spill_with_parity(
            &dense,
            dir,
            page_rows,
            cache_budget_bytes,
            self.dtype(),
            parity,
        )?))
    }

    /// The backend as a trait object.
    pub fn store(&self) -> &dyn FeatureStore {
        match self {
            Features::Dense(d) => d,
            Features::Paged(p) => p.as_ref(),
        }
    }

    /// Whether this is the paged backend.
    pub fn is_paged(&self) -> bool {
        matches!(self, Features::Paged(_))
    }

    /// Stable backend name (`"dense"` / `"paged"`).
    pub fn backend_name(&self) -> &'static str {
        match self {
            Features::Dense(_) => "dense",
            Features::Paged(_) => "paged",
        }
    }

    /// Number of feature rows (nodes).
    pub fn rows(&self) -> usize {
        self.store().rows()
    }

    /// Feature dimensionality.
    pub fn cols(&self) -> usize {
        self.store().cols()
    }

    /// Logical size of the feature matrix in bytes at its storage width
    /// (independent of where it is stored — host-side staging accounting
    /// uses this, which is how a 16-bit dtype becomes planner-visible).
    pub fn size_bytes(&self) -> usize {
        self.rows() * self.cols() * self.dtype().bytes_per_value()
    }

    /// See [`FeatureStore::gather_into`].
    pub fn gather_into(&self, indices: &[usize], out: &mut [f32]) -> GatherStats {
        self.store().gather_into(indices, out)
    }

    /// See [`FeatureStore::try_gather_into`].
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] on an unrecoverable shard failure.
    pub fn try_gather_into(
        &self,
        indices: &[usize],
        out: &mut [f32],
    ) -> Result<GatherStats, FeatureStoreError> {
        self.store().try_gather_into(indices, out)
    }

    /// See [`FeatureStore::try_prewarm`].
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] on an unrecoverable shard failure.
    pub fn try_prewarm(&self, indices: &[usize]) -> Result<GatherStats, FeatureStoreError> {
        self.store().try_prewarm(indices)
    }

    /// Arms a storage-chaos hook on a paged store (no-op for dense —
    /// there are no physical reads to fault).
    pub fn arm_storage_faults(&self, hook: Box<dyn StorageFaultHook>) {
        if let Features::Paged(p) = self {
            p.arm_storage_faults(hook);
        }
    }

    /// Removes any armed storage-chaos hook (no-op for dense).
    pub fn disarm_storage_faults(&self) {
        if let Features::Paged(p) = self {
            p.disarm_storage_faults();
        }
    }

    /// Sets the transient-I/O retry budget (no-op for dense).
    pub fn set_max_io_retries(&self, max_io_retries: usize) {
        if let Features::Paged(p) = self {
            p.set_max_io_retries(max_io_retries);
        }
    }

    /// Drains recorded storage-recovery incidents (always empty for
    /// dense stores).
    pub fn drain_storage_incidents(&self) -> Vec<StorageIncident> {
        match self {
            Features::Dense(_) => Vec::new(),
            Features::Paged(p) => p.drain_storage_incidents(),
        }
    }

    /// Parity group width of a paged store (0 for dense or no sidecar).
    pub fn parity_width(&self) -> usize {
        match self {
            Features::Dense(_) => 0,
            Features::Paged(p) => p.parity_width(),
        }
    }

    /// See [`PagedFeatures::corrupt_shard_byte`].
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Format`] for dense stores (no shard files).
    pub fn corrupt_shard_byte(&self, shard: usize) -> Result<u64, FeatureStoreError> {
        match self {
            Features::Dense(_) => Err(FeatureStoreError::Format(
                "dense stores have no shard files to corrupt".into(),
            )),
            Features::Paged(p) => p.corrupt_shard_byte(shard),
        }
    }

    /// Gathers rows into a freshly allocated `[indices.len(), cols]`
    /// tensor, discarding the cache accounting.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[indices.len(), self.cols()]);
        self.store().gather_into(indices, out.data_mut());
        out
    }

    /// See [`FeatureStore::prewarm`].
    pub fn prewarm(&self, indices: &[usize]) -> GatherStats {
        self.store().prewarm(indices)
    }

    /// See [`FeatureStore::to_dense`].
    pub fn to_dense(&self) -> Tensor {
        self.store().to_dense()
    }

    /// See [`FeatureStore::cache_reservation_bytes`].
    pub fn cache_reservation_bytes(&self) -> usize {
        self.store().cache_reservation_bytes()
    }

    /// See [`FeatureStore::find_non_finite`].
    pub fn find_non_finite(&self) -> Option<(usize, f32)> {
        self.store().find_non_finite()
    }

    /// One feature value (row-major). Test/diagnostic convenience; paged
    /// stores pay a single-row gather.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        let mut out = vec![0.0f32; self.cols()];
        self.gather_into(&[row], &mut out);
        out[col]
    }
}

impl From<Tensor> for Features {
    fn from(tensor: Tensor) -> Self {
        Features::dense(tensor)
    }
}

impl PartialEq for Features {
    /// Logical equality: same shape and the same `f32` bits, regardless
    /// of backend (a paged store equals the dense matrix it was spilled
    /// from).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Features::Dense(a), Features::Dense(b)) => a == b,
            (a, b) => {
                a.rows() == b.rows() && a.cols() == b.cols() && a.to_dense() == b.to_dense()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    /// Bytes per `f32` feature value (tests hand-compute f32 budgets).
    const BYTES_PER_VALUE: usize = 4;

    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn tmp_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("betty-fstore-{name}-{}", std::process::id()))
    }

    fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Pcg64Mcg::seed_from_u64(seed);
        betty_tensor::randn(&[rows, cols], &mut rng)
    }

    #[test]
    fn paged_gathers_match_dense_bit_for_bit() {
        let t = matrix(23, 5, 1);
        let dir = tmp_dir("bits");
        let paged = Features::dense(t.clone()).to_paged(&dir, 4, usize::MAX).unwrap();
        let dense = Features::dense(t);
        let indices: Vec<usize> = vec![0, 22, 7, 7, 13, 1, 20];
        let a = dense.gather_rows(&indices);
        let b = paged.gather_rows(&indices);
        assert_eq!(a, b);
        assert_eq!(dense, paged, "logical equality across backends");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_cache_still_returns_exact_values() {
        let t = matrix(40, 3, 2);
        let dir = tmp_dir("tiny-cache");
        // Budget of one shard: every load evicts, yet the call walks the
        // 5 shards once each however its rows are ordered.
        let paged = Features::dense(t.clone())
            .to_paged(&dir, 8, 8 * 3 * BYTES_PER_VALUE)
            .unwrap();
        let indices: Vec<usize> = (0..40).rev().chain(0..40).collect();
        let mut out = vec![0.0f32; indices.len() * 3];
        let stats = paged.gather_into(&indices, &mut out);
        assert_eq!(stats.hits + stats.misses, indices.len() as u64);
        assert_eq!(
            stats.pages_in, 5,
            "one page-in per distinct shard: {stats:?}"
        );
        for (slot, &idx) in indices.iter().enumerate() {
            assert_eq!(&out[slot * 3..(slot + 1) * 3], t.row(idx));
        }
        if let Features::Paged(p) = &paged {
            assert!(p.cache_held_bytes() <= 8 * 3 * BYTES_PER_VALUE);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_pages_each_shard_once() {
        let t = matrix(30, 4, 3);
        let dir = tmp_dir("unbounded");
        let paged = Features::dense(t).to_paged(&dir, 7, usize::MAX).unwrap();
        let indices: Vec<usize> = (0..30).chain(0..30).collect();
        let mut out = vec![0.0f32; indices.len() * 4];
        let stats = paged.gather_into(&indices, &mut out);
        assert_eq!(stats.pages_in, 5, "30 rows / 7 per page = 5 shards");
        let second = paged.gather_into(&indices, &mut out);
        assert_eq!(second.pages_in, 0, "warm cache must not re-page");
        assert_eq!(second.hits, indices.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prewarm_turns_gather_misses_into_hits() {
        let t = matrix(20, 2, 4);
        let dir = tmp_dir("prewarm");
        let paged = Features::dense(t).to_paged(&dir, 5, usize::MAX).unwrap();
        let indices: Vec<usize> = vec![19, 3, 11];
        let warm = paged.prewarm(&indices);
        assert_eq!(warm.pages_in, 3);
        assert!(warm.bytes_in > 0);
        let mut out = vec![0.0f32; indices.len() * 2];
        let stats = paged.gather_into(&indices, &mut out);
        assert_eq!(stats.misses, 0, "prewarmed rows must all hit");
        assert_eq!(stats.hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_reservation_clamps_to_total_bytes() {
        let t = matrix(10, 4, 5);
        let total = 10 * 4 * BYTES_PER_VALUE;
        let dir = tmp_dir("reservation");
        let paged = Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        assert_eq!(paged.cache_reservation_bytes(), total);
        let small = Features::Paged(PagedFeatures::open(&dir, 64).unwrap());
        assert_eq!(small.cache_reservation_bytes(), 64);
        assert_eq!(Features::dense(matrix(4, 4, 0)).cache_reservation_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_rejected_at_open() {
        let t = matrix(12, 3, 6);
        let dir = tmp_dir("trunc");
        Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        let shard = dir.join(shard_name(1));
        let full = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &full[..full.len() - 5]).unwrap();
        let err = PagedFeatures::open(&dir, usize::MAX).unwrap_err();
        assert!(matches!(err, FeatureStoreError::Format(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_shard_fails_crc_at_open() {
        let t = matrix(12, 3, 7);
        let dir = tmp_dir("bitflip");
        Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        let shard = dir.join(shard_name(2));
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&shard, &bytes).unwrap();
        let err = PagedFeatures::open(&dir, usize::MAX).unwrap_err();
        match err {
            FeatureStoreError::Format(msg) => assert!(msg.contains("CRC"), "{msg}"),
            other => panic!("expected Format, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_is_a_format_error() {
        let t = matrix(12, 3, 8);
        let dir = tmp_dir("missing");
        Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        std::fs::remove_file(dir.join(shard_name(0))).unwrap();
        let err = PagedFeatures::open(&dir, usize::MAX).unwrap_err();
        assert!(matches!(err, FeatureStoreError::Format(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_scan_reports_flat_index_on_both_backends() {
        let mut t = matrix(9, 4, 9);
        t.data_mut()[4 * 4 + 2] = f32::NEG_INFINITY;
        let dense = Features::dense(t.clone());
        assert_eq!(dense.find_non_finite().map(|(i, _)| i), Some(18));
        let dir = tmp_dir("nonfinite");
        let paged = dense.to_paged(&dir, 2, usize::MAX).unwrap();
        assert_eq!(paged.find_non_finite().map(|(i, _)| i), Some(18));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_least_recently_gathered_shard() {
        let t = matrix(12, 2, 10);
        let dir = tmp_dir("lru");
        // 3 shards of 4 rows; budget fits exactly 2 shards.
        let budget = 2 * 4 * 2 * BYTES_PER_VALUE;
        let paged = Features::dense(t).to_paged(&dir, 4, budget).unwrap();
        let mut out = vec![0.0f32; 2];
        paged.gather_into(&[0], &mut out); // shard 0 in
        paged.gather_into(&[4], &mut out); // shard 1 in
        paged.gather_into(&[0], &mut out); // shard 0 freshened
        let stats = paged.gather_into(&[8], &mut out); // shard 2 evicts shard 1
        assert_eq!(stats.pages_in, 1);
        let again = paged.gather_into(&[0], &mut out);
        assert_eq!(again.hits, 1, "shard 0 must have survived");
        let reload = paged.gather_into(&[4], &mut out);
        assert_eq!(reload.pages_in, 1, "shard 1 must have been the victim");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bf16 store gathers the dtype-quantized values — identically from
    /// the dense backend, the paged backend, and a fresh re-open of the
    /// shard files — while every byte figure halves.
    #[test]
    fn half_width_store_round_trips_across_backends() {
        for dtype in [DType::Bf16, DType::F16] {
            let t = matrix(23, 6, 42);
            let dense = Features::dense_with_dtype(t.clone(), dtype);
            assert_eq!(dense.dtype(), dtype);
            assert_eq!(dense.size_bytes(), 23 * 6 * 2);

            // Dense gathers return the quantized grid values.
            let indices: Vec<usize> = vec![0, 22, 7, 7, 13, 1, 20];
            let a = dense.gather_rows(&indices);
            for (slot, &idx) in indices.iter().enumerate() {
                for c in 0..6 {
                    assert_eq!(
                        a.at2(slot, c).to_bits(),
                        dtype.quantize(t.at2(idx, c)).to_bits()
                    );
                }
            }

            let dir = tmp_dir(&format!("half-{dtype}"));
            let paged = dense.to_paged(&dir, 4, usize::MAX).unwrap();
            assert_eq!(paged.dtype(), dtype);
            assert_eq!(paged.size_bytes(), 23 * 6 * 2);
            let b = paged.gather_rows(&indices);
            assert_eq!(a, b, "paged {dtype} gather must match dense bit-for-bit");

            // Re-open from disk (v2 meta + shards validate end to end).
            let reopened = Features::Paged(PagedFeatures::open(&dir, usize::MAX).unwrap());
            assert_eq!(reopened.dtype(), dtype);
            assert_eq!(reopened.gather_rows(&indices), a);
            assert_eq!(dense, reopened, "logical equality across backends");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Cache accounting (held bytes, bytes paged in, reservation) tracks
    /// the 16-bit payload width, not f32.
    #[test]
    fn half_width_cache_accounting_uses_two_byte_values() {
        let t = matrix(16, 4, 43);
        let dir = tmp_dir("half-cache");
        let paged = Features::dense_with_dtype(t, DType::Bf16)
            .to_paged(&dir, 4, usize::MAX)
            .unwrap();
        let mut out = vec![0.0f32; 4];
        let stats = paged.gather_into(&[0], &mut out);
        assert_eq!(stats.bytes_in, 4 * 4 * 2, "one 4×4 shard at 2 B/value");
        if let Features::Paged(p) = &paged {
            assert_eq!(p.cache_held_bytes(), 4 * 4 * 2);
        }
        assert_eq!(paged.cache_reservation_bytes(), 16 * 4 * 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Quantization is idempotent, so spilling an already-quantized store
    /// and re-encoding its decoded values is lossless.
    #[test]
    fn requantizing_a_quantized_store_is_identity() {
        let t = matrix(9, 5, 44);
        let once = Features::dense_with_dtype(t, DType::Bf16);
        let twice = once.with_dtype(DType::Bf16);
        assert_eq!(once, twice);
    }

    /// A v1 (f32) store written before the dtype field existed still opens
    /// and reports F32 — and f32 spills still write the v1 format.
    #[test]
    fn f32_spill_remains_v1_format() {
        let t = matrix(8, 3, 45);
        let dir = tmp_dir("v1-compat");
        Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        let meta = std::fs::read(dir.join(META_FILE)).unwrap();
        assert_eq!(&meta[..8], META_MAGIC);
        let shard = std::fs::read(dir.join(shard_name(0))).unwrap();
        assert_eq!(&shard[..8], SHARD_MAGIC);
        let opened = PagedFeatures::open(&dir, usize::MAX).unwrap();
        assert_eq!(opened.dtype(), DType::F32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Deterministic test hook: fails the next `fail_next` read attempts.
    struct FlakyHook {
        fail_next: usize,
    }

    impl StorageFaultHook for FlakyHook {
        fn check_read(&mut self, _shard: usize, _attempt: usize) -> ReadFault {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                ReadFault {
                    fail: true,
                    stall_sec: 1e-3,
                }
            } else {
                ReadFault::default()
            }
        }

        fn backoff_jitter(&mut self) -> f64 {
            0.25
        }
    }

    #[test]
    fn parity_spill_round_trips_and_reports_width() {
        let t = matrix(22, 3, 50);
        let dir = tmp_dir("parity-rt");
        let paged = Features::dense(t.clone())
            .to_paged_with_parity(&dir, 4, usize::MAX, 2)
            .unwrap();
        assert_eq!(paged.parity_width(), 2);
        // 6 shards → parity groups {0,1}, {2,3}, {4,5}.
        for group in 0..3 {
            assert!(dir.join(parity_name(group)).exists(), "group {group}");
        }
        assert!(dir.join(PARITY_META_FILE).exists());
        let indices: Vec<usize> = (0..22).rev().collect();
        assert_eq!(paged.gather_rows(&indices), Features::dense(t).gather_rows(&indices));
        // Re-open validates the sidecar too.
        let reopened = Features::Paged(PagedFeatures::open(&dir, usize::MAX).unwrap());
        assert_eq!(reopened.parity_width(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_corruption_is_repaired_bit_identically_and_re_persisted() {
        let t = matrix(20, 4, 51);
        let dir = tmp_dir("repair-one");
        let paged = Features::dense(t.clone())
            .to_paged_with_parity(&dir, 4, usize::MAX, 2)
            .unwrap();
        let pristine = std::fs::read(dir.join(shard_name(1))).unwrap();
        let offset = paged.corrupt_shard_byte(1).unwrap();
        assert_ne!(std::fs::read(dir.join(shard_name(1))).unwrap(), pristine);
        assert!(offset >= shard_header_len(DType::F32) as u64);

        // Gathering rows of shard 1 repairs it mid-flight.
        let indices: Vec<usize> = (4..8).collect();
        let mut out = vec![0.0f32; indices.len() * 4];
        let stats = paged.try_gather_into(&indices, &mut out).unwrap();
        assert_eq!(stats.shards_repaired, 1);
        assert!(stats.repair_bytes > 0);
        for (slot, &idx) in indices.iter().enumerate() {
            assert_eq!(&out[slot * 4..(slot + 1) * 4], t.row(idx), "row {idx}");
        }
        // Re-persisted bit-identically, and the incident was recorded.
        assert_eq!(std::fs::read(dir.join(shard_name(1))).unwrap(), pristine);
        let incidents = paged.drain_storage_incidents();
        assert!(
            incidents.iter().any(|i| matches!(
                i,
                StorageIncident::ShardRepaired { shard: 1, group: 0, .. }
            )),
            "{incidents:?}"
        );
        assert!(PagedFeatures::open(&dir, usize::MAX).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_shard_is_repaired_from_parity() {
        let t = matrix(12, 3, 52);
        let dir = tmp_dir("repair-missing");
        let paged = Features::dense(t.clone())
            .to_paged_with_parity(&dir, 4, usize::MAX, 3)
            .unwrap();
        let pristine = std::fs::read(dir.join(shard_name(0))).unwrap();
        std::fs::remove_file(dir.join(shard_name(0))).unwrap();
        let got = paged.gather_rows(&[0, 1, 2, 3]);
        assert_eq!(got, Features::dense(t).gather_rows(&[0, 1, 2, 3]));
        assert_eq!(std::fs::read(dir.join(shard_name(0))).unwrap(), pristine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_corruption_in_one_group_is_a_structured_error() {
        let t = matrix(20, 4, 53);
        let dir = tmp_dir("repair-two");
        let paged = Features::dense(t)
            .to_paged_with_parity(&dir, 4, usize::MAX, 2)
            .unwrap();
        paged.corrupt_shard_byte(0).unwrap();
        paged.corrupt_shard_byte(1).unwrap();
        let mut out = vec![0.0f32; 4];
        let err = paged.try_gather_into(&[0], &mut out).unwrap_err();
        match err {
            FeatureStoreError::Shard {
                shard,
                offset,
                detail,
            } => {
                assert_eq!(shard, 0);
                assert!(offset > 0, "CRC mismatch carries the CRC field offset");
                assert!(detail.contains("group"), "{detail}");
            }
            other => panic!("expected Shard, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_without_parity_is_a_structured_error() {
        let t = matrix(12, 3, 54);
        let dir = tmp_dir("no-parity");
        let paged = Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        assert_eq!(paged.parity_width(), 0);
        paged.corrupt_shard_byte(2).unwrap();
        let mut out = vec![0.0f32; 3];
        let err = paged.try_gather_into(&[8], &mut out).unwrap_err();
        match err {
            FeatureStoreError::Shard { shard, detail, .. } => {
                assert_eq!(shard, 2);
                assert!(detail.contains("no parity"), "{detail}");
            }
            other => panic!("expected Shard, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_with_accounted_backoff() {
        let t = matrix(12, 3, 55);
        let dir = tmp_dir("transient");
        let paged = Features::dense(t.clone()).to_paged(&dir, 4, usize::MAX).unwrap();
        paged.arm_storage_faults(Box::new(FlakyHook { fail_next: 2 }));
        let indices = [0, 5, 10];
        let mut out = vec![0.0f32; 9];
        let stats = paged.try_gather_into(&indices, &mut out).unwrap();
        assert_eq!(stats.io_retries, 2);
        assert!(stats.backoff_sec > 0.0, "stalls + backoff are accounted");
        assert_eq!(paged.gather_rows(&indices), Features::dense(t).gather_rows(&indices));
        let incidents = paged.drain_storage_incidents();
        let retries = incidents
            .iter()
            .filter(|i| matches!(i, StorageIncident::IoRetry { .. }))
            .count();
        assert_eq!(retries, 2, "{incidents:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_is_a_structured_error() {
        let t = matrix(12, 3, 56);
        let dir = tmp_dir("exhausted");
        let paged = Features::dense(t).to_paged(&dir, 4, usize::MAX).unwrap();
        paged.set_max_io_retries(1);
        paged.arm_storage_faults(Box::new(FlakyHook { fail_next: 99 }));
        let mut out = vec![0.0f32; 3];
        let err = paged.try_gather_into(&[0], &mut out).unwrap_err();
        match err {
            FeatureStoreError::Shard { shard, detail, .. } => {
                assert_eq!(shard, 0);
                assert!(detail.contains("retry budget 1"), "{detail}");
            }
            other => panic!("expected Shard, got {other:?}"),
        }
        // Disarming clears the chaos stream; the store works again.
        paged.disarm_storage_faults();
        assert!(paged.try_gather_into(&[0], &mut out).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_repairs_shards_and_rebuilds_parity() {
        let t = matrix(24, 3, 57);
        let dir = tmp_dir("scrub-fix");
        let paged = Features::dense(t.clone())
            .to_paged_with_parity(&dir, 4, usize::MAX, 2)
            .unwrap();
        drop(paged);
        // Damage shard 0 (group 0) and the parity shard of group 1.
        let shard0 = dir.join(shard_name(0));
        let mut bytes = std::fs::read(&shard0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&shard0, &bytes).unwrap();
        let parity1 = dir.join(parity_name(1));
        let mut bytes = std::fs::read(&parity1).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&parity1, &bytes).unwrap();

        let report = scrub(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.shards_checked, 6);
        assert_eq!(report.shards_repaired, vec![0]);
        assert_eq!(report.parity_rebuilt, vec![1]);
        assert_eq!(report.parity_width, 2);

        // Everything validates again, values intact.
        let reopened = Features::Paged(PagedFeatures::open(&dir, usize::MAX).unwrap());
        assert_eq!(reopened.to_dense(), t);
        // A second scrub finds nothing to do.
        let again = scrub(&dir).unwrap();
        assert!(again.shards_repaired.is_empty() && again.parity_rebuilt.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_reports_unrepairable_damage() {
        let t = matrix(24, 3, 58);
        let dir = tmp_dir("scrub-dead");
        Features::dense(t)
            .to_paged_with_parity(&dir, 4, usize::MAX, 2)
            .unwrap();
        for shard in [2, 3] {
            let path = dir.join(shard_name(shard));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
        }
        let report = scrub(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.unrepairable, vec![2, 3]);
        assert!(report.shards_repaired.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_cols_gather_is_all_hits() {
        let dir = tmp_dir("zerocols");
        let paged = Features::dense(Tensor::zeros(&[6, 0]))
            .to_paged(&dir, 2, usize::MAX)
            .unwrap();
        let mut out = vec![];
        let stats = paged.gather_into(&[1, 5], &mut out);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.pages_in, 0);
        assert_eq!(paged.cache_reservation_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
