//! Node-feature storage backends.
//!
//! Betty's Eq. 5 planner bounds *activation* memory, but the node-feature
//! matrix itself was a single dense in-memory [`Tensor`] — capping
//! reachable graph scale at whatever the host can hold. [`Features`], the
//! type a `Dataset` holds, is one of two backends:
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
//! ## Store directory layout
//!
//! Every file is sealed by [`betty_tensor::sealed`] — `magic | body |
//! crc32(body)`, written tmp → fsync → rename — so what a kind defines is
//! its body. All header words are little-endian `u32`:
//!
//! ```text
//! meta file "features.meta":
//!   v1 "BTYFMET1" (f32 stores, unchanged on disk):
//!       rows | cols | page_rows
//!   v2 "BTYFMET2" (written for 16-bit dtypes):
//!       rows | cols | page_rows | dtype tag
//! shard file "shard-NNNNN.bfs" (one per `page_rows` rows):
//!   v1 "BTYFSHD1": shard | start_row | num_rows | cols
//!                  | payload (num_rows × cols f32 LE)
//!   v2 "BTYFSHD2": shard | start_row | num_rows | cols | dtype tag
//!                  | payload (num_rows × cols u16 LE)
//! parity meta "parity.meta" (absent unless spilled with `parity > 0`,
//! so plain stores stay byte-identical to the v1/v2 formats):
//!   "BTYFPMT1": parity_width | shard_count
//!               | payload crc32 per data shard (u32 × shard_count)
//! parity shard "parity-NNNNN.bfp" (one per group):
//!   "BTYFPAR1": group | first_shard | num_shards | payload_len
//!               | XOR of member payloads (zero-padded)
//! ```
//!
//! [`PagedFeatures::open`] verifies every file (existence, seal, header
//! against the meta) up front — a truncated or bit-flipped shard is
//! rejected at open with a structured [`FeatureStoreError::Format`],
//! never silently trained on.
//!
//! ## Storage fault tolerance
//!
//! Mid-run, every physical shard read re-validates the whole file instead
//! of trusting the open-time check:
//!
//! * **Transient I/O errors** (real, or injected through an armed
//!   [`StorageFaultHook`]) are retried with seeded-jitter exponential
//!   backoff, bounded by a configurable retry budget. Backoff and stall
//!   seconds are *accounted, never slept* — numerics are untouched.
//! * **On-disk corruption** (CRC mismatch, truncation, even a deleted
//!   shard file) is repaired in place from an **XOR parity group** when
//!   the store was spilled with `parity > 0`: every `parity` consecutive
//!   data shards share one parity shard, so any single damaged member is
//!   reconstructed bit-identically (verified against the payload CRC the
//!   parity meta recorded for it) and atomically re-persisted.
//! * Two damaged members in one group — or damage without parity — is a
//!   structured [`FeatureStoreError::Shard`] carrying the shard index
//!   and byte offset, surfaced through the fallible gather path instead
//!   of a panic.
//!
//! [`scrub`] runs the same validation and the same reconstruction
//! offline over a store directory, one parity group at a time, and also
//! rebuilds damaged parity shards from intact data shards.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use betty_tensor::{DType, Tensor};

use crate::shards::{shard_header_len, write_store, Layout, ShardFailure};
pub use crate::shards::{scrub, ScrubReport, META_FILE, PARITY_META_FILE};

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

    /// Number of feature rows (nodes).
    pub fn rows(&self) -> usize {
        match &self.storage {
            DenseStorage::F32(t) => t.rows(),
            DenseStorage::Half { rows, .. } => *rows,
        }
    }

    /// Feature dimensionality (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Copies the given rows into `out` (row-major, `indices.len() × cols`);
    /// every row is a hit.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != indices.len() * cols` or an index is out of
    /// range.
    pub fn gather_into(&self, indices: &[usize], out: &mut [f32]) -> GatherStats {
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

    /// Materializes the full matrix as a dense f32 tensor.
    pub fn to_dense(&self) -> Tensor {
        match &self.storage {
            DenseStorage::F32(t) => t.clone(),
            DenseStorage::Half { dtype, rows, bits } => {
                let data = bits.iter().map(|&b| dtype.decode16(b)).collect();
                Tensor::from_vec(data, &[*rows, self.cols]).expect("encoded geometry is consistent")
            }
        }
    }

    /// Flat index and value of the first non-finite feature, if any.
    pub fn find_non_finite(&self) -> Option<(usize, f32)> {
        match &self.storage {
            DenseStorage::F32(t) => first_non_finite(t.data().iter().copied()),
            DenseStorage::Half { dtype, bits, .. } => {
                first_non_finite(bits.iter().map(|&b| dtype.decode16(b)))
            }
        }
    }
}

fn first_non_finite(values: impl Iterator<Item = f32>) -> Option<(usize, f32)> {
    values.enumerate().find(|(_, v)| !v.is_finite())
}

// ---------------------------------------------------------------------------
// Paged backend.

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
    layout: Layout,
    cache_budget_bytes: usize,
    cache: Mutex<CacheState>,
    chaos: Mutex<StorageChaos>,
}

impl PagedFeatures {
    /// Writes `features` to `dir` as a paged store — meta file + shards of
    /// `page_rows` rows each, payloads encoded at `dtype` width, all
    /// sealed and atomically written — and opens it with the given cache
    /// budget.
    ///
    /// `F32` writes the v1 format byte-for-byte; 16-bit dtypes write the
    /// v2 format (u16 payloads, dtype tag in meta and every shard header).
    ///
    /// `parity > 0` additionally writes an XOR parity sidecar: every
    /// `parity` consecutive data shards get one parity shard, so any
    /// single damaged member of a group can be reconstructed
    /// bit-identically mid-run (or by [`scrub`]). `parity == 0` writes no
    /// sidecar — the on-disk bytes are exactly the plain v1/v2 format.
    /// `parity == 1` duplicates each shard's payload (mirroring); larger
    /// widths trade redundancy for space.
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
        dtype: DType,
        parity: usize,
    ) -> Result<Arc<Self>, FeatureStoreError> {
        write_store(features, dir.as_ref(), page_rows, dtype, parity)?;
        Self::open(dir, cache_budget_bytes)
    }

    /// Opens a paged store written by [`PagedFeatures::spill`], fully
    /// validating the meta file and **every** shard and parity file
    /// (seal, then header against the meta) so only damage that happens
    /// later can surface mid-run.
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
        let layout = Layout::read(dir.as_ref())?;
        layout.validate()?;
        let resident = (0..layout.num_shards()).map(|_| None).collect();
        Ok(Arc::new(Self {
            layout,
            cache_budget_bytes,
            cache: Mutex::new(CacheState {
                resident,
                held_bytes: 0,
                tick: 0,
            }),
            chaos: Mutex::new(StorageChaos::default()),
        }))
    }

    /// Width of the XOR parity groups (data shards per parity shard),
    /// or 0 when the store was spilled without parity.
    pub fn parity_width(&self) -> usize {
        self.layout.parity_width
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
        assert!(shard < self.num_shards(), "shard {shard} out of range");
        let path = self.layout.shard_path(shard);
        let mut bytes = std::fs::read(&path)?;
        let payload_len = self.layout.payload_len(shard);
        if payload_len == 0 {
            return Err(FeatureStoreError::Format(format!(
                "shard {shard} has an empty payload; nothing to corrupt"
            )));
        }
        let offset = shard_header_len(self.layout.dtype) + payload_len / 2;
        bytes[offset] ^= 0x40;
        std::fs::write(&path, &bytes)?;
        let mut state = self.cache.lock().expect("feature cache poisoned");
        if let Some((payload, _)) = state.resident[shard].take() {
            state.held_bytes -= payload.byte_len();
        }
        Ok(offset as u64)
    }

    /// Number of feature rows (nodes).
    pub fn rows(&self) -> usize {
        self.layout.rows
    }

    /// Feature dimensionality (columns).
    pub fn cols(&self) -> usize {
        self.layout.cols
    }

    /// The storage width of the shard payloads.
    pub fn dtype(&self) -> DType {
        self.layout.dtype
    }

    /// Rows per shard (the page size).
    pub fn page_rows(&self) -> usize {
        self.layout.page_rows
    }

    /// Number of shard files.
    pub fn num_shards(&self) -> usize {
        self.layout.num_shards()
    }

    /// Bytes of shard payload currently resident in the cache.
    pub fn cache_held_bytes(&self) -> usize {
        self.cache.lock().expect("feature cache poisoned").held_bytes
    }

    /// Bytes of host/device memory the store pins for its hot-set cache:
    /// `min(cache budget, total feature bytes)`. The trainer charges
    /// exactly this many bytes to the `FeatureCache` ledger category every
    /// step, and the planner adds the same constant to every estimate — so
    /// estimator drift stays exact.
    pub fn cache_reservation_bytes(&self) -> usize {
        self.cache_budget_bytes
            .min(self.rows() * self.cols() * self.dtype().bytes_per_value())
    }

    /// Reads one shard's payload as f32, panicking on unrecoverable
    /// failure — for the infallible whole-matrix readers (`to_dense`,
    /// `find_non_finite`). Transient errors are still retried and
    /// corruption still repaired from parity before the panic fires.
    fn read_shard_f32(&self, shard: usize) -> Vec<f32> {
        self.try_read_shard_payload(shard, &mut GatherStats::default())
            .unwrap_or_else(|e| panic!("{e}"))
            .to_f32(self.dtype())
    }

    /// Reads one shard's payload with full re-validation (seal, header),
    /// transient-error retry with seeded-jitter backoff, and XOR parity
    /// repair; accumulates retry/repair accounting into `stats`.
    fn try_read_shard_payload(
        &self,
        shard: usize,
        stats: &mut GatherStats,
    ) -> Result<ShardPayload, FeatureStoreError> {
        let dtype = self.dtype();
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
                self.layout
                    .with_payload(shard, |payload| decode_payload(payload, dtype))
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
                    let (payload, repair_bytes) =
                        self.layout.repair_shard(shard, offset, &detail)?;
                    stats.shards_repaired += 1;
                    stats.repair_bytes += repair_bytes;
                    chaos.incidents.push(StorageIncident::ShardRepaired {
                        shard,
                        group: shard / self.parity_width(),
                        repair_bytes,
                    });
                    return Ok(decode_payload(&payload, dtype));
                }
            }
        }
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
        let (num_shards, rows, page_rows) = (self.num_shards(), self.rows(), self.page_rows());
        let mut starts = vec![0usize; num_shards + 1];
        for &idx in indices {
            assert!(idx < rows, "row {idx} out of range ({rows} rows)");
            starts[idx / page_rows + 1] += 1;
        }
        for shard in 0..num_shards {
            starts[shard + 1] += starts[shard];
        }
        let mut cursor = starts.clone();
        let mut slots = vec![0usize; indices.len()];
        for (slot, &idx) in indices.iter().enumerate() {
            let shard = idx / page_rows;
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
                    serve(payload, shard * page_rows, bucket, false);
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
            serve(payload, shard * page_rows, bucket, true);
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

    /// Copies the given rows into `out` (row-major, `indices.len() × cols`)
    /// and reports the cache accounting of the access, surfacing an
    /// unrecoverable shard failure (retry budget exhausted, unrepairable
    /// corruption) as a structured error.
    ///
    /// The rows are bucketed by shard; shards already resident are served
    /// first (ascending shard index), missing shards after (ascending),
    /// and every row a shard owes is copied before the next shard is
    /// touched. A shard is therefore paged in **at most once per call**
    /// whatever the cache budget, and an eviction during the call only
    /// ever takes a shard the call is finished with. LRU order *across*
    /// calls is unchanged.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] naming the shard and byte offset. On
    /// `Err` the contents of `out` are unspecified (rows of shards served
    /// before the failure have been written) and must be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != indices.len() * cols` or an index is out of
    /// range.
    pub fn try_gather_into(
        &self,
        indices: &[usize],
        out: &mut [f32],
    ) -> Result<GatherStats, FeatureStoreError> {
        let (cols, dtype) = (self.cols(), self.dtype());
        assert_eq!(
            out.len(),
            indices.len() * cols,
            "output buffer must be indices.len() × cols"
        );
        let mut stats = GatherStats::default();
        if cols == 0 {
            stats.hits = indices.len() as u64;
            return Ok(stats);
        }
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

    /// Pages in (and pins, subject to the cache budget) every shard the
    /// given rows live on, without copying any row out — same bucketing,
    /// same residents-first order, at most one page-in per shard.
    /// Prefetchers call this so a later gather of the same rows hits
    /// memory.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] naming the shard and byte offset.
    pub fn try_prewarm(&self, indices: &[usize]) -> Result<GatherStats, FeatureStoreError> {
        let mut stats = GatherStats::default();
        if self.cols() > 0 {
            self.serve_by_shard(indices, &mut stats, |_, _, _, _| {})?;
        }
        Ok(stats)
    }

    /// Materializes the full matrix as a dense f32 tensor.
    ///
    /// # Panics
    ///
    /// Panics if a shard is unreadable and cannot be repaired.
    pub fn to_dense(&self) -> Tensor {
        let (rows, cols) = (self.rows(), self.cols());
        let mut data = Vec::with_capacity(rows * cols);
        for shard in 0..self.num_shards() {
            data.extend_from_slice(&self.read_shard_f32(shard));
        }
        Tensor::from_vec(data, &[rows, cols]).expect("shard geometry is validated")
    }

    /// Flat index and value of the first non-finite feature, if any.
    ///
    /// # Panics
    ///
    /// Panics if a shard is unreadable and cannot be repaired.
    pub fn find_non_finite(&self) -> Option<(usize, f32)> {
        (0..self.num_shards()).find_map(|shard| {
            let (at, v) = first_non_finite(self.read_shard_f32(shard).into_iter())?;
            Some((shard * self.page_rows() * self.cols() + at, v))
        })
    }
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
        Ok(Features::Paged(PagedFeatures::spill(
            &dense,
            dir,
            page_rows,
            cache_budget_bytes,
            self.dtype(),
            parity,
        )?))
    }

    /// The paged store behind this handle, if that is the backend. What a
    /// dense store answers to a paged-only question — no cache, no
    /// parity, no physical reads to fault — is the `None` arm, once.
    fn paged(&self) -> Option<&PagedFeatures> {
        match self {
            Features::Dense(_) => None,
            Features::Paged(p) => Some(p),
        }
    }

    /// Whether this is the paged backend.
    pub fn is_paged(&self) -> bool {
        self.paged().is_some()
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
        match self {
            Features::Dense(d) => d.rows(),
            Features::Paged(p) => p.rows(),
        }
    }

    /// Feature dimensionality.
    pub fn cols(&self) -> usize {
        match self {
            Features::Dense(d) => d.cols(),
            Features::Paged(p) => p.cols(),
        }
    }

    /// Logical size of the feature matrix in bytes at its storage width
    /// (independent of where it is stored — host-side staging accounting
    /// uses this, which is how a 16-bit dtype becomes planner-visible).
    pub fn size_bytes(&self) -> usize {
        self.rows() * self.cols() * self.dtype().bytes_per_value()
    }

    /// Copies the given rows into `out` (row-major, `indices.len() × cols`)
    /// and reports the cache accounting of the access. Dense stores never
    /// fail; see [`PagedFeatures::try_gather_into`] for the order a paged
    /// store serves the rows in.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] on an unrecoverable shard failure; the
    /// contents of `out` must then be discarded.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != indices.len() * cols` or an index is out of
    /// range.
    pub fn try_gather_into(
        &self,
        indices: &[usize],
        out: &mut [f32],
    ) -> Result<GatherStats, FeatureStoreError> {
        match self {
            Features::Dense(d) => Ok(d.gather_into(indices, out)),
            Features::Paged(p) => p.try_gather_into(indices, out),
        }
    }

    /// Pages in the shards the given rows live on without copying any
    /// row out ([`PagedFeatures::try_prewarm`]); dense stores do nothing.
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Shard`] on an unrecoverable shard failure.
    pub fn try_prewarm(&self, indices: &[usize]) -> Result<GatherStats, FeatureStoreError> {
        self.paged().map_or(Ok(GatherStats::default()), |p| p.try_prewarm(indices))
    }

    /// Arms a storage-chaos hook on a paged store (no-op for dense —
    /// there are no physical reads to fault).
    pub fn arm_storage_faults(&self, hook: Box<dyn StorageFaultHook>) {
        if let Some(p) = self.paged() {
            p.arm_storage_faults(hook);
        }
    }

    /// Removes any armed storage-chaos hook (no-op for dense).
    pub fn disarm_storage_faults(&self) {
        if let Some(p) = self.paged() {
            p.disarm_storage_faults();
        }
    }

    /// Sets the transient-I/O retry budget (no-op for dense).
    pub fn set_max_io_retries(&self, max_io_retries: usize) {
        if let Some(p) = self.paged() {
            p.set_max_io_retries(max_io_retries);
        }
    }

    /// Drains recorded storage-recovery incidents (always empty for
    /// dense stores).
    pub fn drain_storage_incidents(&self) -> Vec<StorageIncident> {
        self.paged().map_or_else(Vec::new, PagedFeatures::drain_storage_incidents)
    }

    /// Parity group width of a paged store (0 for dense or no sidecar).
    pub fn parity_width(&self) -> usize {
        self.paged().map_or(0, PagedFeatures::parity_width)
    }

    /// See [`PagedFeatures::corrupt_shard_byte`].
    ///
    /// # Errors
    ///
    /// [`FeatureStoreError::Format`] for dense stores (no shard files).
    pub fn corrupt_shard_byte(&self, shard: usize) -> Result<u64, FeatureStoreError> {
        let Some(paged) = self.paged() else {
            return Err(FeatureStoreError::Format(
                "dense stores have no shard files to corrupt".into(),
            ));
        };
        paged.corrupt_shard_byte(shard)
    }

    /// Gathers rows into a freshly allocated `[indices.len(), cols]`
    /// tensor, discarding the cache accounting.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or (paged stores) a shard is
    /// unreadable and cannot be repaired — use
    /// [`Features::try_gather_into`] where that must be survivable.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[indices.len(), self.cols()]);
        self.try_gather_into(indices, out.data_mut())
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Materializes the full matrix as a dense f32 tensor.
    pub fn to_dense(&self) -> Tensor {
        match self {
            Features::Dense(d) => d.to_dense(),
            Features::Paged(p) => p.to_dense(),
        }
    }

    /// Bytes of memory the store pins for its hot-set cache: 0 for dense
    /// stores, [`PagedFeatures::cache_reservation_bytes`] for paged ones.
    pub fn cache_reservation_bytes(&self) -> usize {
        self.paged().map_or(0, PagedFeatures::cache_reservation_bytes)
    }

    /// Flat index and value of the first non-finite feature, if any.
    pub fn find_non_finite(&self) -> Option<(usize, f32)> {
        match self {
            Features::Dense(d) => d.find_non_finite(),
            Features::Paged(p) => p.find_non_finite(),
        }
    }

    /// One feature value (row-major). Test/diagnostic convenience; paged
    /// stores pay a single-row gather.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        self.gather_rows(&[row]).at2(0, col)
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
    use crate::shards::{parity_name, shard_name, META_MAGIC, SHARD_MAGIC};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;
    use std::path::PathBuf;

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
        let stats = paged.try_gather_into(&indices, &mut out).unwrap();
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
        let stats = paged.try_gather_into(&indices, &mut out).unwrap();
        assert_eq!(stats.pages_in, 5, "30 rows / 7 per page = 5 shards");
        let second = paged.try_gather_into(&indices, &mut out).unwrap();
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
        let warm = paged.try_prewarm(&indices).unwrap();
        assert_eq!(warm.pages_in, 3);
        assert!(warm.bytes_in > 0);
        let mut out = vec![0.0f32; indices.len() * 2];
        let stats = paged.try_gather_into(&indices, &mut out).unwrap();
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
        paged.try_gather_into(&[0], &mut out).unwrap(); // shard 0 in
        paged.try_gather_into(&[4], &mut out).unwrap(); // shard 1 in
        paged.try_gather_into(&[0], &mut out).unwrap(); // shard 0 freshened
        let stats = paged.try_gather_into(&[8], &mut out).unwrap(); // shard 2 evicts shard 1
        assert_eq!(stats.pages_in, 1);
        let again = paged.try_gather_into(&[0], &mut out).unwrap();
        assert_eq!(again.hits, 1, "shard 0 must have survived");
        let reload = paged.try_gather_into(&[4], &mut out).unwrap();
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
        let stats = paged.try_gather_into(&[0], &mut out).unwrap();
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
        let stats = paged.try_gather_into(&[1, 5], &mut out).unwrap();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.pages_in, 0);
        assert_eq!(paged.cache_reservation_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
