//! The on-disk half of the paged feature store: the four sealed file
//! kinds, the [`Layout`] that names and sizes them, and the one
//! reconstruction of a damaged shard.
//!
//! Every file is [`seal`]ed and written through [`replace_file`] /
//! [`write_atomic`]; a kind defines only its body, and the bodies are
//! drawn in the [`featurestore`](crate::featurestore) module docs.
//!
//! A store with a damaged shard cannot be opened, so everything here
//! works from a directory and its meta files, not from an open store:
//! [`PagedFeatures::open`](crate::PagedFeatures::open), the live read
//! path and [`scrub`] all read shards through [`Layout::with_payload`]
//! and rebuild them through [`Layout::repair_shard`].

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use betty_tensor::sealed::{replace_file, seal, sync_dir, unseal, write_atomic};
use betty_tensor::{crc32, DType, Tensor};

use crate::featurestore::FeatureStoreError;

pub(crate) const META_MAGIC: &[u8; 8] = b"BTYFMET1";
const META_MAGIC_V2: &[u8; 8] = b"BTYFMET2";
pub(crate) const SHARD_MAGIC: &[u8; 8] = b"BTYFSHD1";
const SHARD_MAGIC_V2: &[u8; 8] = b"BTYFSHD2";
const PARITY_META_MAGIC: &[u8; 8] = b"BTYFPMT1";
const PARITY_MAGIC: &[u8; 8] = b"BTYFPAR1";
/// File name of the paged-store metadata header inside a store dir
/// (public so offline tools can probe "is this a paged store?").
pub const META_FILE: &str = "features.meta";
/// File name of the optional XOR-parity sidecar metadata.
pub const PARITY_META_FILE: &str = "parity.meta";

/// What the header words of a shard and of a parity file hold, for
/// error messages.
const SHARD_WORDS: [&str; 5] = ["shard", "start_row", "num_rows", "cols", "dtype tag"];
const PARITY_WORDS: [&str; 4] = ["group", "first_shard", "num_shards", "payload_len"];

pub(crate) fn shard_name(shard: usize) -> String {
    format!("shard-{shard:05}.bfs")
}

pub(crate) fn parity_name(group: usize) -> String {
    format!("parity-{group:05}.bfp")
}

/// Bytes of magic + header words before a shard file's payload.
pub(crate) fn shard_header_len(dtype: DType) -> usize {
    let header_words = if dtype == DType::F32 { 4 } else { 5 };
    SHARD_MAGIC.len() + header_words * 4
}

fn put_words(out: &mut Vec<u8>, words: impl IntoIterator<Item = usize>) {
    for word in words {
        out.extend_from_slice(&(word as u32).to_le_bytes());
    }
}

/// Splits `N` header words off the front of `body`, or `None` if it is
/// shorter than that.
fn take_words<const N: usize>(body: &[u8]) -> Option<([usize; N], &[u8])> {
    let (head, rest) = body.split_at_checked(N * 4)?;
    let mut words = [0usize; N];
    for (word, chunk) in words.iter_mut().zip(head.chunks_exact(4)) {
        *word = u32::from_le_bytes(chunk.try_into().expect("chunk is 4 bytes")) as usize;
    }
    Some((words, rest))
}

/// XORs `payload` into `acc`, first zero-extending `acc` to its length —
/// the one accumulate loop behind writing, rebuilding and repairing from
/// parity.
fn xor_into(acc: &mut Vec<u8>, payload: &[u8]) {
    if payload.len() > acc.len() {
        acc.resize(payload.len(), 0);
    }
    for (acc_byte, &b) in acc.iter_mut().zip(payload) {
        *acc_byte ^= b;
    }
}

/// Opens a sealed `header | payload` file in place: the seal, then each
/// header word against `header` — what the meta implies this file must
/// say, the one header-vs-meta comparison — then the payload length.
/// Returns the payload borrowed from `bytes`, or `(byte offset, detail)`
/// locating the first failure; `words` names the header words.
fn unseal_payload<'a>(
    bytes: &'a [u8],
    magic: &[u8],
    header: &[u8],
    words: &[&str],
    payload_len: usize,
) -> Result<&'a [u8], (u64, String)> {
    let (_, body) = unseal(bytes, &[magic])?;
    let Some((got, payload)) = body.split_at_checked(header.len()) else {
        return Err((bytes.len() as u64, "header truncated".into()));
    };
    let mut pairs = got.chunks_exact(4).zip(header.chunks_exact(4)).enumerate();
    if let Some((at, (got, want))) = pairs.find(|(_, (got, want))| got != want) {
        let word = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"));
        return Err((
            (magic.len() + at * 4) as u64,
            format!("header {} is {}, meta implies {}", words[at], word(got), word(want)),
        ));
    }
    if payload.len() != payload_len {
        return Err((
            (magic.len() + header.len()) as u64,
            format!("payload is {} bytes, header implies {payload_len}", payload.len()),
        ));
    }
    Ok(payload)
}

/// How one validated shard read failed.
pub(crate) enum ShardFailure {
    /// Transient-looking I/O error (worth retrying).
    Io(io::Error),
    /// Structural damage at a byte offset (worth repairing, not retrying).
    Corrupt { offset: u64, detail: String },
}

/// A store directory and how its meta files say it is cut into shard
/// and parity files.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) dir: PathBuf,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) page_rows: usize,
    pub(crate) dtype: DType,
    /// Data shards per XOR parity shard; 0 = the store has no sidecar.
    pub(crate) parity_width: usize,
    /// With a sidecar, the payload CRC of every data shard — what a
    /// reconstruction is verified against.
    payload_crcs: Vec<u32>,
    /// Data-shard files read through [`Layout::with_payload`].
    shard_reads: AtomicUsize,
}

impl Layout {
    fn new(
        dir: &Path,
        (rows, cols, page_rows, dtype): (usize, usize, usize, DType),
        parity_width: usize,
    ) -> Self {
        Layout {
            dir: dir.to_path_buf(),
            rows,
            cols,
            page_rows,
            dtype,
            parity_width,
            payload_crcs: Vec::new(),
            shard_reads: AtomicUsize::new(0),
        }
    }

    /// Reads and validates `dir`'s meta file and, if present, its parity
    /// meta. No shard is touched.
    pub(crate) fn read(dir: &Path) -> Result<Self, FeatureStoreError> {
        let meta = parse_meta(&std::fs::read(dir.join(META_FILE))?)
            .map_err(FeatureStoreError::Format)?;
        let mut layout = Layout::new(dir, meta, 0);
        match std::fs::read(dir.join(PARITY_META_FILE)) {
            Ok(bytes) => {
                (layout.parity_width, layout.payload_crcs) =
                    parse_parity_meta(&bytes, layout.num_shards())
                        .map_err(FeatureStoreError::Format)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        Ok(layout)
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.rows.div_ceil(self.page_rows).max(1)
    }

    /// `(start_row, num_rows)` of `shard`.
    pub(crate) fn shard_rows(&self, shard: usize) -> (usize, usize) {
        let start_row = shard * self.page_rows;
        (start_row, self.page_rows.min(self.rows - start_row))
    }

    pub(crate) fn payload_len(&self, shard: usize) -> usize {
        self.shard_rows(shard).1 * self.cols * self.dtype.bytes_per_value()
    }

    pub(crate) fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(shard_name(shard))
    }

    /// Number of parity groups (0 without a sidecar).
    fn num_groups(&self) -> usize {
        match self.parity_width {
            0 => 0,
            width => self.num_shards().div_ceil(width),
        }
    }

    /// The data shards of parity group `group`.
    fn members(&self, group: usize) -> std::ops::Range<usize> {
        let width = self.parity_width;
        group * width..((group + 1) * width).min(self.num_shards())
    }

    fn shard_magic(&self) -> &'static [u8] {
        if self.dtype == DType::F32 {
            SHARD_MAGIC
        } else {
            SHARD_MAGIC_V2
        }
    }

    /// The header words `shard`'s file must carry — what the writer puts
    /// and what the reader compares against.
    fn shard_header(&self, shard: usize) -> Vec<u8> {
        let (start_row, num_rows) = self.shard_rows(shard);
        let mut header = Vec::new();
        put_words(&mut header, [shard, start_row, num_rows, self.cols]);
        if self.dtype != DType::F32 {
            put_words(&mut header, [self.dtype.tag() as usize]);
        }
        header
    }

    /// The header words parity shard `group` must carry. Its payload is
    /// as long as its longest member's, and that is the first: only the
    /// store's last shard can be short.
    fn parity_header(&self, group: usize) -> Vec<u8> {
        let members = self.members(group);
        let mut header = Vec::new();
        let payload_len = self.payload_len(members.start);
        put_words(&mut header, [group, members.start, members.len(), payload_len]);
        header
    }

    /// Opens shard `shard`'s file image in place; see [`unseal_payload`].
    fn shard_payload<'a>(&self, shard: usize, bytes: &'a [u8]) -> Result<&'a [u8], (u64, String)> {
        let (magic, header) = (self.shard_magic(), self.shard_header(shard));
        unseal_payload(bytes, magic, &header, &SHARD_WORDS, self.payload_len(shard))
            .map_err(|(offset, detail)| (offset, format!("shard {detail}")))
    }

    /// Opens parity shard `group`'s file image in place.
    fn parity_xor<'a>(&self, group: usize, bytes: &'a [u8]) -> Result<&'a [u8], (u64, String)> {
        let payload_len = self.payload_len(self.members(group).start);
        let header = self.parity_header(group);
        unseal_payload(bytes, PARITY_MAGIC, &header, &PARITY_WORDS, payload_len)
            .map_err(|(offset, detail)| (offset, format!("parity {detail}")))
    }

    /// One physical read of `shard` with full validation; `f` sees the
    /// payload in place, so nothing outlives the call but what `f` keeps.
    pub(crate) fn with_payload<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, ShardFailure> {
        self.shard_reads.fetch_add(1, Ordering::Relaxed);
        let bytes = match std::fs::read(self.shard_path(shard)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(ShardFailure::Corrupt {
                    offset: 0,
                    detail: "shard file missing".into(),
                })
            }
            Err(e) => return Err(ShardFailure::Io(e)),
        };
        self.shard_payload(shard, &bytes)
            .map(f)
            .map_err(|(offset, detail)| ShardFailure::Corrupt { offset, detail })
    }

    /// One validated read of parity shard `group`; `f` sees its XOR
    /// payload in place.
    fn with_parity<T>(&self, group: usize, f: impl FnOnce(&[u8]) -> T) -> Result<T, String> {
        let bytes = std::fs::read(self.dir.join(parity_name(group)))
            .map_err(|e| format!("unreadable: {e}"))?;
        match self.parity_xor(group, &bytes) {
            Ok(xor) => Ok(f(xor)),
            Err((_, detail)) => Err(detail),
        }
    }

    /// Validates every shard and parity file (the open-time check).
    pub(crate) fn validate(&self) -> Result<(), FeatureStoreError> {
        for shard in 0..self.num_shards() {
            self.with_payload(shard, |_| ()).map_err(|e| match e {
                ShardFailure::Io(e) => FeatureStoreError::Io(e),
                ShardFailure::Corrupt { detail, .. } => {
                    FeatureStoreError::Format(format!("shard {shard}: {detail}"))
                }
            })?;
        }
        for group in 0..self.num_groups() {
            self.with_parity(group, |_| ()).map_err(|msg| {
                FeatureStoreError::Format(format!("parity shard {group}: {msg}"))
            })?;
        }
        Ok(())
    }

    /// XORs the payload of every shard in `members` into `acc`; returns
    /// the payload bytes read, or which member could not be used and why.
    fn xor_members(
        &self,
        members: impl Iterator<Item = usize>,
        acc: &mut Vec<u8>,
    ) -> Result<u64, String> {
        let mut bytes_read = 0;
        for member in members {
            let read = |payload: &[u8]| {
                xor_into(acc, payload);
                payload.len() as u64
            };
            bytes_read += self.with_payload(member, read).map_err(|e| match e {
                ShardFailure::Io(e) => format!("shard {member} is also unreadable ({e})"),
                ShardFailure::Corrupt { detail, .. } => {
                    format!("shard {member} is also damaged ({detail})")
                }
            })?;
        }
        Ok(bytes_read)
    }

    /// Reconstructs `shard`'s payload from its XOR parity group (parity
    /// payload ⊕ every peer), verifies it against the payload CRC the
    /// sidecar recorded, re-persists the full shard file atomically, and
    /// returns the payload plus the bytes re-read from disk to rebuild
    /// it. `offset` and `why` describe the damage that prompted the
    /// repair and are carried into the error if it cannot be done.
    pub(crate) fn repair_shard(
        &self,
        shard: usize,
        offset: u64,
        why: &str,
    ) -> Result<(Vec<u8>, u64), FeatureStoreError> {
        let fail = |detail: String| FeatureStoreError::Shard {
            shard,
            offset,
            detail,
        };
        if self.parity_width == 0 {
            return Err(fail(format!(
                "{why}; store has no parity sidecar to repair from"
            )));
        }
        let group = shard / self.parity_width;
        let mut acc = self.with_parity(group, <[u8]>::to_vec).map_err(|msg| {
            fail(format!(
                "{why}; parity shard for group {group} is unusable ({msg})"
            ))
        })?;
        let mut repair_bytes = acc.len() as u64;
        let peers = self.members(group).filter(|&peer| peer != shard);
        repair_bytes += self.xor_members(peers, &mut acc).map_err(|peer| {
            fail(format!(
                "{why}; in group {group} peer {peer} — \
                 XOR parity can repair exactly one shard per group"
            ))
        })?;
        let my_len = self.payload_len(shard);
        if acc.len() < my_len {
            return Err(fail(format!(
                "{why}; parity payload is {} bytes but shard needs {my_len}",
                acc.len()
            )));
        }
        acc.truncate(my_len);
        if crc32(&acc) != self.payload_crcs[shard] {
            return Err(fail(format!(
                "{why}; parity reconstruction failed its recorded CRC — \
                 more than one shard in group {group} is damaged"
            )));
        }
        let mut body = self.shard_header(shard);
        body.extend_from_slice(&acc);
        write_atomic(&self.shard_path(shard), &seal(self.shard_magic(), &body))?;
        Ok((acc, repair_bytes))
    }

    /// Seals parity shard `group` around the XOR of its members.
    fn seal_parity(&self, group: usize, xor: &[u8]) -> Vec<u8> {
        let mut body = self.parity_header(group);
        body.extend_from_slice(xor);
        seal(PARITY_MAGIC, &body)
    }

    /// Rebuilds parity shard `group` from its data shards.
    fn rebuild_parity(&self, group: usize) -> Result<(), FeatureStoreError> {
        let mut xor = Vec::new();
        self.xor_members(self.members(group), &mut xor)
            .map_err(|member| FeatureStoreError::Format(format!("parity group {group}: {member}")))?;
        write_atomic(&self.dir.join(parity_name(group)), &self.seal_parity(group, &xor))?;
        Ok(())
    }
}

/// Writes `features` into `dir` as a paged store: the meta file, one
/// shard per `page_rows` rows at `dtype` width and — when `parity > 0` —
/// one XOR parity shard per `parity` consecutive data shards plus the
/// parity meta. Files are renamed into place one by one and the
/// directory is fsynced once after the last.
pub(crate) fn write_store(
    features: &Tensor,
    dir: &Path,
    page_rows: usize,
    dtype: DType,
    parity: usize,
) -> io::Result<()> {
    assert!(page_rows > 0, "page_rows must be positive");
    std::fs::create_dir_all(dir)?;
    let layout = Layout::new(dir, (features.rows(), features.cols(), page_rows, dtype), parity);
    let num_shards = layout.num_shards();

    let mut meta = Vec::new();
    put_words(&mut meta, [layout.rows, layout.cols, page_rows]);
    let meta_magic = if dtype == DType::F32 {
        META_MAGIC
    } else {
        put_words(&mut meta, [dtype.tag() as usize]);
        META_MAGIC_V2
    };
    replace_file(&dir.join(META_FILE), &seal(meta_magic, &meta))?;

    let mut payload_crcs = Vec::with_capacity(num_shards);
    // Shards are written in order, so a group's members are consecutive:
    // its running XOR is flushed as a parity shard after its last one.
    let mut group_xor: Vec<u8> = Vec::new();
    for shard in 0..num_shards {
        let mut body = layout.shard_header(shard);
        let header = body.len();
        body.reserve(layout.payload_len(shard));
        let (start_row, num_rows) = layout.shard_rows(shard);
        for r in start_row..start_row + num_rows {
            for &v in features.row(r) {
                match dtype {
                    DType::F32 => body.extend_from_slice(&v.to_le_bytes()),
                    _ => body.extend_from_slice(&dtype.encode16(v).to_le_bytes()),
                }
            }
        }
        replace_file(&layout.shard_path(shard), &seal(layout.shard_magic(), &body))?;
        if parity > 0 {
            let payload = &body[header..];
            payload_crcs.push(crc32(payload));
            xor_into(&mut group_xor, payload);
            if shard % parity == parity - 1 || shard == num_shards - 1 {
                let group = shard / parity;
                replace_file(&dir.join(parity_name(group)), &layout.seal_parity(group, &group_xor))?;
                group_xor.clear();
            }
        }
    }
    if parity > 0 {
        let mut body = Vec::with_capacity((2 + num_shards) * 4);
        put_words(&mut body, [parity, num_shards]);
        put_words(&mut body, payload_crcs.iter().map(|&crc| crc as usize));
        replace_file(&dir.join(PARITY_META_FILE), &seal(PARITY_META_MAGIC, &body))?;
    }
    sync_dir(dir);
    Ok(())
}

/// Opens the meta file's bytes; returns `(rows, cols, page_rows, dtype)`.
fn parse_meta(bytes: &[u8]) -> Result<(usize, usize, usize, DType), String> {
    let (version, body) = unseal(bytes, &[META_MAGIC, META_MAGIC_V2])
        .map_err(|(_, detail)| format!("meta {detail}"))?;
    let (Some(([rows, cols, page_rows], rest)), true) =
        (take_words::<3>(body), body.len() == (3 + version) * 4)
    else {
        return Err(format!(
            "meta body is {} bytes, its version holds {}",
            body.len(),
            (3 + version) * 4
        ));
    };
    let dtype = match take_words::<1>(rest) {
        None => DType::F32,
        Some(([tag], _)) => match DType::from_tag(tag as u32) {
            Some(DType::F32) | None => {
                return Err(format!("meta names invalid 16-bit dtype tag {tag}"))
            }
            Some(dtype) => dtype,
        },
    };
    if page_rows == 0 {
        return Err("page_rows is zero".into());
    }
    // Every later size is a product of these; none may wrap.
    if rows.checked_mul(cols).and_then(|n| n.checked_mul(4)).is_none() {
        return Err(format!("meta implies {rows} × {cols} values, too many to address"));
    }
    Ok((rows, cols, page_rows, dtype))
}

/// Opens the parity meta's bytes for a store of `num_shards` data shards;
/// returns `(parity width, payload CRC of every data shard)`.
fn parse_parity_meta(bytes: &[u8], num_shards: usize) -> Result<(usize, Vec<u32>), String> {
    let (_, body) = unseal(bytes, &[PARITY_META_MAGIC])
        .map_err(|(_, detail)| format!("parity meta {detail}"))?;
    let Some(([width, count], crcs)) = take_words::<2>(body) else {
        return Err("parity meta header truncated".into());
    };
    if width == 0 {
        return Err("parity width is zero".into());
    }
    if count != num_shards || crcs.len() % 4 != 0 || crcs.len() / 4 != count {
        return Err(format!(
            "parity meta covers {count} shards, store has {num_shards}"
        ));
    }
    let payload_crcs = crcs
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect();
    Ok((width, payload_crcs))
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
    /// Data-shard files read: every shard once to verify it, plus the
    /// members of each group that had something rebuilt a second time.
    pub shard_reads: usize,
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
/// reconstructed bit-identically and re-persisted — by the same
/// reconstruction the live read path uses — and a damaged parity shard
/// is rebuilt from its intact data shards. Anything else is reported as
/// unrepairable and left untouched.
///
/// The pass walks the store one parity group at a time and keeps no
/// payload past the shard it is looking at, so it runs in the memory of
/// one shard however large the store is.
///
/// # Errors
///
/// [`FeatureStoreError::Io`] / [`FeatureStoreError::Format`] if the
/// meta or parity-meta files themselves are unreadable or invalid —
/// without them nothing can be verified.
pub fn scrub(dir: impl AsRef<Path>) -> Result<ScrubReport, FeatureStoreError> {
    let layout = Layout::read(dir.as_ref())?;
    let num_shards = layout.num_shards();
    let mut report = ScrubReport {
        shards_checked: num_shards,
        parity_width: layout.parity_width,
        parity_checked: layout.num_groups(),
        ..ScrubReport::default()
    };
    let intact = |shard: usize| {
        let matches_sidecar = |payload: &[u8]| {
            let recorded = layout.payload_crcs.get(shard);
            recorded.is_none_or(|&crc| crc == crc32(payload))
        };
        layout.with_payload(shard, matches_sidecar).unwrap_or(false)
    };
    if layout.parity_width == 0 {
        // Without a sidecar (whose CRC list is as long as the store) the
        // meta alone says how many shards exist: believe it only while about
        // half are here, so a lie costs one listing, not an open per shard.
        let names = std::fs::read_dir(&layout.dir)?.flatten().map(|e| e.file_name());
        let present = names.filter(|n| n.to_string_lossy().starts_with("shard-")).count();
        if num_shards > 2 * present + 1 {
            return Err(FeatureStoreError::Format(format!(
                "meta claims {num_shards} shards, the directory holds {present} shard files"
            )));
        }
        report.unrepairable = (0..num_shards).filter(|&s| !intact(s)).collect();
    }
    for group in 0..layout.num_groups() {
        let bad: Vec<usize> = layout.members(group).filter(|&s| !intact(s)).collect();
        match *bad.as_slice() {
            // Every data shard is intact: if anything is damaged it is
            // the parity shard itself.
            [] => {
                if layout.with_parity(group, |_| ()).is_err() {
                    layout.rebuild_parity(group)?;
                    report.parity_rebuilt.push(group);
                }
            }
            [shard] => match layout.repair_shard(shard, 0, "scrub") {
                Ok(_) => report.shards_repaired.push(shard),
                Err(FeatureStoreError::Shard { .. }) => report.unrepairable.push(shard),
                Err(e) => return Err(e),
            },
            // XOR parity cannot recover two members of one group.
            _ => report.unrepairable.extend_from_slice(&bad),
        }
    }
    report.shard_reads = layout.shard_reads.load(Ordering::Relaxed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PagedFeatures;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64Mcg;
    use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // -----------------------------------------------------------------------
    // What the calling thread has allocated: the largest single request and
    // the high-water mark of live bytes since the last `reset`. Thread-local
    // (const-initialised, no destructor, so safe to touch from inside the
    // allocator), which keeps the figures exact while other tests run.

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
        static LIVE: Cell<isize> = const { Cell::new(0) };
        static PEAK: Cell<isize> = const { Cell::new(0) };
    }

    struct Tracking;

    fn track(delta: isize) {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(delta.max(0) as usize)));
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + delta);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the bookkeeping around the
    // calls touches only thread-local `Cell`s and cannot unwind.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
            track(layout.size() as isize);
            // SAFETY: the caller's contract is `System.alloc`'s contract.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
            track(-(layout.size() as isize));
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
            track(new_size as isize);
            track(-(layout.size() as isize));
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: Tracking = Tracking;

    /// Runs `f`; returns its result, the largest single allocation it made
    /// and how far its live bytes rose above where they started.
    fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        LARGEST.with(|l| l.set(0));
        let before = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(before));
        let out = f();
        (out, LARGEST.with(Cell::get), (PEAK.with(Cell::get) - before) as usize)
    }

    // -----------------------------------------------------------------------
    // Fixtures.

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("betty-shards-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn matrix(rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols).map(|i| ((i * 37) % 101) as f32 / 4.0 - 12.0).collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    }

    /// Every file of a store directory, by name.
    fn read_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    fn fnv1a(name: &str) -> u64 {
        name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    // -----------------------------------------------------------------------
    // Mutations.

    const MAGIC_LEN: usize = 8;

    /// How a valid file image is damaged. `Lie` and `Resize` keep the seal
    /// valid: one header word is overwritten, or the body is cut short or
    /// padded, and the CRC recomputed.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mutation {
        BitFlip,
        Truncate,
        Extend,
        Splice,
        Lie,
        Resize,
    }

    /// One mutation of `valid`, drawn from `rng`. `header_words` is how many
    /// u32 words follow the magic; `other` is another valid file to splice
    /// with.
    fn mutate(
        rng: &mut Pcg64Mcg,
        kind: Mutation,
        valid: &[u8],
        header_words: usize,
        other: &[u8],
    ) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        match kind {
            Mutation::BitFlip => {
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            Mutation::Truncate => bytes.truncate(rng.gen_range(0..valid.len())),
            Mutation::Extend => {
                for _ in 0..rng.gen_range(1..17usize) {
                    bytes.push(rng.gen::<u32>() as u8);
                }
            }
            Mutation::Splice => {
                let cut = rng.gen_range(0..valid.len().min(other.len()));
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[cut..]);
            }
            Mutation::Lie => {
                let word = MAGIC_LEN + 4 * rng.gen_range(0..header_words);
                let old = u32::from_le_bytes(bytes[word..word + 4].try_into().unwrap());
                let lie = match rng.gen_range(0..6u32) {
                    0 => 0,
                    1 => u32::MAX,
                    2 => 0x8000_0000,
                    3 => old.wrapping_add(1),
                    4 => old.wrapping_sub(1),
                    _ => rng.gen(),
                };
                bytes[word..word + 4].copy_from_slice(&lie.to_le_bytes());
                let body_end = bytes.len() - 4;
                bytes = seal(&valid[..MAGIC_LEN], &bytes[MAGIC_LEN..body_end]);
            }
            Mutation::Resize => {
                let mut body = valid[MAGIC_LEN..valid.len() - 4].to_vec();
                if rng.gen_bool(0.5) {
                    body.truncate(rng.gen_range(0..body.len()));
                } else {
                    body.resize(body.len() + rng.gen_range(1..9usize), 0);
                }
                bytes = seal(&valid[..MAGIC_LEN], &body);
            }
        }
        bytes
    }

    const MUTATIONS: [Mutation; 6] = [
        Mutation::BitFlip,
        Mutation::Truncate,
        Mutation::Extend,
        Mutation::Splice,
        Mutation::Lie,
        Mutation::Resize,
    ];

    /// Pushes `valid` through `decode` under every truncation up to
    /// `header + 8` bytes and `cases` name-seeded mutations. `decode`
    /// renders an accepted file as comparable bytes; every outcome must be
    /// an `Err`, or an `Ok` equal to the unmutated file's — except that a
    /// `Lie` may decode to something else when `lie_may_decode` (a meta file
    /// that says another shape under a valid seal *is* a valid meta file;
    /// the directory-level test is where that lie is caught). No case may
    /// panic or make an allocation larger than a few of the file.
    fn fuzz_decoder(
        name: &str,
        valid: &[u8],
        header_words: usize,
        other: &[u8],
        lie_may_decode: bool,
        decode: impl Fn(&[u8]) -> Result<Vec<u8>, String>,
    ) {
        let original = decode(valid).expect("the unmutated file decodes");
        let budget = 4 * valid.len() + 4096;
        let run = |what: String, mutated: &[u8], lie: bool| {
            let outcome = catch_unwind(AssertUnwindSafe(|| measured(|| decode(mutated))));
            let Ok((decoded, largest, _)) = outcome else {
                panic!("{name}: decoder panicked on {what}");
            };
            assert!(largest <= budget, "{name}: {what} allocated {largest} bytes at once");
            if let Ok(decoded) = decoded {
                assert!(
                    decoded == original || (lie && lie_may_decode) || mutated == valid,
                    "{name}: {what} decoded to something else"
                );
            }
        };
        for len in 0..=(MAGIC_LEN + 4 * header_words + 8).min(valid.len() - 1) {
            run(format!("truncation to {len} bytes"), &valid[..len], false);
        }
        for case in 0..2000u64 {
            let seed = fnv1a(name) ^ case;
            let mut rng = Pcg64Mcg::seed_from_u64(seed);
            let kind = MUTATIONS[case as usize % MUTATIONS.len()];
            let mutated = mutate(&mut rng, kind, valid, header_words, other);
            run(format!("case {case} ({kind:?}, seed {seed:#x})"), &mutated, kind == Mutation::Lie);
        }
    }

    #[test]
    fn mutated_files_of_every_kind_are_rejected_or_decode_unchanged() {
        for dtype in [DType::F32, DType::Bf16] {
            let dir = tmp_dir(&format!("fuzz-files-{dtype}"));
            write_store(&matrix(37, 5), &dir, 8, dtype, 2).unwrap();
            let layout = Layout::read(&dir).unwrap();
            let file = |name: String| std::fs::read(dir.join(name)).unwrap();
            let (shard0, shard3) = (file(shard_name(0)), file(shard_name(3)));
            let (parity0, parity1) = (file(parity_name(0)), file(parity_name(1)));
            let shard_words = (shard_header_len(dtype) - MAGIC_LEN) / 4;

            // Three maximal words pass every per-word check; their product
            // is what must not be formed.
            let mut huge = Vec::new();
            put_words(&mut huge, [u32::MAX as usize; 3]);
            assert!(parse_meta(&seal(META_MAGIC, &huge)).unwrap_err().contains("too many"));

            fuzz_decoder(&format!("meta/{dtype}"), &file(META_FILE.into()), 3, &shard0, true, |b| {
                parse_meta(b).map(|meta| format!("{meta:?}").into_bytes())
            });
            fuzz_decoder(&format!("shard/{dtype}"), &shard3, shard_words, &shard0, false, |b| {
                let payload = layout.shard_payload(3, b).map_err(|(_, detail)| detail)?;
                Ok(payload.to_vec())
            });
            fuzz_decoder(&format!("parity-meta/{dtype}"), &file(PARITY_META_FILE.into()), 2, &parity0, true, |b| {
                let (_, crcs) = parse_parity_meta(b, layout.num_shards())?;
                Ok(format!("{crcs:?}").into_bytes())
            });
            fuzz_decoder(&format!("parity/{dtype}"), &parity1, 4, &parity0, false, |b| {
                let xor = layout.parity_xor(1, b).map_err(|(_, detail)| detail)?;
                Ok(xor.to_vec())
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Mutates one file of a store directory per case — or deletes it, or
    /// swaps it with another — and runs `open` and `scrub` over the result.
    /// Both must return (never panic, never allocate past a small multiple
    /// of the whole store); an `open` that succeeds must serve the original
    /// values; and after a `scrub` that calls the store clean, `open` must
    /// succeed and serve the original values.
    #[test]
    fn mutated_directories_open_and_scrub_to_a_structured_outcome() {
        let features = matrix(37, 5);
        for (parity, cases) in [(2usize, 160u64), (0, 80)] {
            let name = format!("fuzz-dir-p{parity}");
            let dir = tmp_dir(&name);
            write_store(&features, &dir, 8, DType::F32, parity).unwrap();
            let pristine = read_files(&dir);
            let budget = 16 * pristine.iter().map(|(_, bytes)| bytes.len()).sum::<usize>();
            for case in 0..cases {
                let seed = fnv1a(&name) ^ case;
                let what = format!("{name} case {case} (seed {seed:#x})");
                let mut rng = Pcg64Mcg::seed_from_u64(seed);
                let (victim, bytes) = &pristine[rng.gen_range(0..pristine.len())];
                let (_, other) = &pristine[rng.gen_range(0..pristine.len())];
                let header_words = match victim.as_str() {
                    META_FILE => 3,
                    PARITY_META_FILE => 2,
                    _ => 4,
                };
                let kind = MUTATIONS[rng.gen_range(0..MUTATIONS.len())];
                match rng.gen_range(0..8u32) {
                    0 => std::fs::remove_file(dir.join(victim)).unwrap(),
                    1 => std::fs::write(dir.join(victim), other).unwrap(),
                    _ => {
                        let mutated = mutate(&mut rng, kind, bytes, header_words, other);
                        std::fs::write(dir.join(victim), mutated).unwrap();
                    }
                }

                let serves_original = |store: &PagedFeatures| store.to_dense() == features;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let (opened, open_largest, _) = measured(|| PagedFeatures::open(&dir, usize::MAX));
                    let (scrubbed, scrub_largest, _) = measured(|| scrub(&dir));
                    (opened, scrubbed, open_largest.max(scrub_largest))
                }));
                let Ok((opened, scrubbed, largest)) = outcome else {
                    panic!("{what}: open or scrub panicked on {victim} / {kind:?}");
                };
                assert!(largest <= budget, "{what}: allocated {largest} bytes at once");
                if let Ok(store) = &opened {
                    assert!(serves_original(store), "{what}: opened with other values");
                }
                if scrubbed.is_ok_and(|report| report.is_clean()) {
                    let store = PagedFeatures::open(&dir, usize::MAX)
                        .unwrap_or_else(|e| panic!("{what}: clean after scrub, yet: {e}"));
                    assert!(serves_original(&store), "{what}: scrubbed to other values");
                }

                for (name, bytes) in &pristine {
                    std::fs::write(dir.join(name), bytes).unwrap();
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Without a parity sidecar the meta alone says how many shards exist:
    /// a deleted shard is damage to report, a meta claiming 2³² − 1 shards
    /// over a directory of four is a lie to refuse — in one listing, where
    /// believing it was 2³² failed opens and a list as long.
    #[test]
    fn scrub_refuses_a_meta_claiming_far_more_shards_than_are_present() {
        let dir = tmp_dir("scrub-lying-meta");
        write_store(&matrix(37, 5), &dir, 8, DType::F32, 0).unwrap();
        std::fs::remove_file(dir.join(shard_name(3))).unwrap();
        let report = scrub(&dir).unwrap();
        assert_eq!((report.shards_checked, report.unrepairable), (5, vec![3]));

        let mut meta = Vec::new();
        put_words(&mut meta, [u32::MAX as usize, 5, 1]);
        std::fs::write(dir.join(META_FILE), seal(META_MAGIC, &meta)).unwrap();
        let (outcome, largest, _) = measured(|| scrub(&dir));
        match outcome {
            Err(FeatureStoreError::Format(msg)) => assert!(
                msg.contains("4294967295 shards") && msg.contains("holds 4 shard files"),
                "{msg}"
            ),
            other => panic!("a lying meta must be a format error, got {other:?}"),
        }
        assert!(largest < 4096, "allocated {largest} bytes at once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `scrub` walks a store a group at a time: on 64 shards with one
    /// damaged shard in the last group and a damaged parity file in the
    /// first it reads each shard once, the two damaged groups' members
    /// twice, and at its peak holds less than one group's payloads (the
    /// file being read, the XOR accumulator and a sealed copy on the way
    /// out) — where a pass that materialises every payload first held the
    /// whole store, 16 groups.
    #[test]
    fn scrub_reads_each_shard_once_and_holds_one_group_at_most() {
        let (page_rows, cols, width) = (64usize, 32usize, 4usize);
        let dir = tmp_dir("scrub-walk");
        write_store(&matrix(64 * page_rows, cols), &dir, page_rows, DType::F32, width).unwrap();
        let pristine = read_files(&dir);
        let flip = |name: String| {
            let mut bytes = std::fs::read(dir.join(&name)).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(dir.join(name), bytes).unwrap();
        };
        flip(shard_name(62));
        flip(parity_name(0));

        let (report, _, peak) = measured(|| scrub(&dir).unwrap());
        assert_eq!(report.shards_repaired, vec![62]);
        assert_eq!(report.parity_rebuilt, vec![0]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(
            report.shard_reads,
            64 + (width - 1) + width,
            "every shard once, then shard 62's peers and group 0's members again"
        );
        let group_bytes = width * page_rows * cols * 4;
        assert!(
            peak <= group_bytes,
            "scrub held {peak} bytes at its peak; one group is {group_bytes}, the store {}",
            64 * page_rows * cols * 4
        );
        assert_eq!(read_files(&dir), pristine, "repairs are byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
