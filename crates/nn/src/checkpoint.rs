//! Durable, checksummed model/session checkpoints (format v2).
//!
//! The v2 format supersedes the positional params-only `BTYCKPT1` layout:
//! a checkpoint is now a sequence of independently CRC-checked *sections*,
//! written atomically ([`write_atomic`]), so a crash mid-write
//! can never leave a torn file behind and any corruption — truncation or
//! bit flips anywhere in the file — is rejected deterministically at load
//! time instead of silently restoring garbage parameters.
//!
//! Little-endian binary layout:
//!
//! ```text
//! magic "BTYCKPT2" | u32 section count | sections…
//! section: [u8;4] tag | u32 payload len | payload | u32 crc32(tag+len+payload)
//! ```
//!
//! Sections appear in a fixed canonical order (duplicates and unknown tags
//! are rejected) and the file must end exactly after the last section:
//!
//! | tag    | payload |
//! |--------|---------|
//! | `PRMS` | u32 count; per param: u32 ndim, u32 dims…, f32 data… |
//! | `ADAM` | u64 step count t; u32 count; per param: u8 present, then f32 m…, f32 v… (shapes from `PRMS`) |
//! | `RNGS` | u32 count; per RNG: u128 raw state as two u64 (lo, hi) |
//! | `CTRS` | u32 count; u64 each (epoch/step counters, meaning assigned by the caller) |
//! | `FLTS` | u32 count; f64 bits each (scalar progress such as best validation accuracy) |
//! | `HIST` | u32 count; f64 bits each (per-epoch loss history) |
//! | `CFGF` | u64 config fingerprint |
//!
//! A model-only checkpoint (the CLI's `--checkpoint` / `eval` path) is a
//! v2 file containing just `PRMS`; a training-session checkpoint (the
//! `--checkpoint-dir` / `--resume` path) carries every section. Moments in
//! `ADAM` are stored positionally because [`Param::id`]s are process-local
//! — see [`AdamState`].
//!
//! [`Param::id`]: crate::Param::id

use std::fs;
use std::io;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use betty_tensor::sealed::{seal, unseal, write_atomic};
use betty_tensor::Tensor;

use crate::optim::AdamState;
use crate::GnnModel;

const MAGIC: &[u8; 8] = b"BTYCKPT2";

const TAG_PARAMS: &[u8; 4] = b"PRMS";
const TAG_ADAM: &[u8; 4] = b"ADAM";
const TAG_RNGS: &[u8; 4] = b"RNGS";
const TAG_COUNTERS: &[u8; 4] = b"CTRS";
const TAG_FLOATS: &[u8; 4] = b"FLTS";
const TAG_HISTORY: &[u8; 4] = b"HIST";
const TAG_FINGERPRINT: &[u8; 4] = b"CFGF";

/// Canonical section order; the loader requires strictly increasing ranks,
/// which rejects both duplicates and shuffled sections.
const TAG_ORDER: [&[u8; 4]; 7] = [
    TAG_PARAMS,
    TAG_ADAM,
    TAG_RNGS,
    TAG_COUNTERS,
    TAG_FLOATS,
    TAG_HISTORY,
    TAG_FINGERPRINT,
];

/// Errors from checkpoint loading.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid checkpoint (bad magic, failed CRC,
    /// truncation, trailing bytes) or its contents do not match the
    /// target model.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Format(_) => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// TrainState: everything a resumed session needs.

/// A complete, process-independent snapshot of a training session.
///
/// `betty-nn` defines only the *container*; the meaning of each `rngs` /
/// `counters` / `floats` slot is assigned by the caller (the core crate's
/// durable-session module) via named indices. Empty vectors (and `None`
/// options) simply omit the corresponding section, which is how a
/// model-only checkpoint is represented.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainState {
    /// Parameter values in [`GnnModel::params`] order.
    pub params: Vec<Tensor>,
    /// Optimizer state (moments positional, matching `params`).
    pub adam: Option<AdamState>,
    /// Raw `Pcg64Mcg` states (trainer dropout RNG, sampler RNG, …).
    pub rngs: Vec<u128>,
    /// Monotone progress counters (next epoch, global step, …).
    pub counters: Vec<u64>,
    /// Scalar progress values (best validation accuracy, …).
    pub floats: Vec<f64>,
    /// Per-epoch training-loss history up to the checkpoint.
    pub history: Vec<f64>,
    /// Fingerprint of the experiment configuration that produced this
    /// state; resuming under a different configuration is refused.
    pub fingerprint: Option<u64>,
}

impl TrainState {
    /// A model-only snapshot (parameters, nothing else).
    pub fn from_model(model: &dyn GnnModel) -> Self {
        TrainState {
            params: model.params().iter().map(|p| p.value().clone()).collect(),
            ..TrainState::default()
        }
    }

    /// Restores the parameter values into `model` and zeroes its gradients.
    ///
    /// The model is left unchanged if any count or shape mismatches.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] naming the first mismatched parameter.
    pub fn apply_params(&self, model: &mut dyn GnnModel) -> Result<(), CheckpointError> {
        let expected = model.params().len();
        if self.params.len() != expected {
            return Err(CheckpointError::Format(format!(
                "checkpoint has {} parameters, model has {expected}",
                self.params.len()
            )));
        }
        for (i, (value, p)) in self.params.iter().zip(model.params()).enumerate() {
            if value.shape() != p.value().shape() {
                return Err(CheckpointError::Format(format!(
                    "parameter {i}: checkpoint shape {:?} != model shape {:?}",
                    value.shape(),
                    p.value().shape()
                )));
            }
        }
        for (param, value) in model.params_mut().into_iter().zip(&self.params) {
            *param.value_mut() = value.clone();
            param.zero_grad();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Encoding.

/// A section is a sealed record with an empty magic: `seal` appends the
/// CRC of `tag | len | payload`.
fn push_section(out: &mut BytesMut, tag: &[u8; 4], payload: &[u8]) {
    let mut span = Vec::with_capacity(8 + payload.len());
    span.extend_from_slice(tag);
    span.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    span.extend_from_slice(payload);
    out.put_slice(&seal(&[], &span));
}

fn encode_state(state: &TrainState) -> BytesMut {
    let mut sections: Vec<(&[u8; 4], Vec<u8>)> = Vec::new();

    let mut prms = BytesMut::new();
    prms.put_u32_le(state.params.len() as u32);
    for value in &state.params {
        prms.put_u32_le(value.ndim() as u32);
        for &d in value.shape() {
            prms.put_u32_le(d as u32);
        }
        for &x in value.data() {
            prms.put_f32_le(x);
        }
    }
    sections.push((TAG_PARAMS, prms.to_vec()));

    if let Some(adam) = &state.adam {
        let mut buf = BytesMut::new();
        buf.put_u64_le(adam.t as u64);
        buf.put_u32_le(adam.moments.len() as u32);
        for entry in &adam.moments {
            match entry {
                None => buf.put_u8(0),
                Some((m, v)) => {
                    buf.put_u8(1);
                    for &x in m.data() {
                        buf.put_f32_le(x);
                    }
                    for &x in v.data() {
                        buf.put_f32_le(x);
                    }
                }
            }
        }
        sections.push((TAG_ADAM, buf.to_vec()));
    }

    if !state.rngs.is_empty() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(state.rngs.len() as u32);
        for &s in &state.rngs {
            buf.put_u64_le(s as u64);
            buf.put_u64_le((s >> 64) as u64);
        }
        sections.push((TAG_RNGS, buf.to_vec()));
    }

    if !state.counters.is_empty() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(state.counters.len() as u32);
        for &c in &state.counters {
            buf.put_u64_le(c);
        }
        sections.push((TAG_COUNTERS, buf.to_vec()));
    }

    if !state.floats.is_empty() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(state.floats.len() as u32);
        for &x in &state.floats {
            buf.put_u64_le(x.to_bits());
        }
        sections.push((TAG_FLOATS, buf.to_vec()));
    }

    if !state.history.is_empty() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(state.history.len() as u32);
        for &x in &state.history {
            buf.put_u64_le(x.to_bits());
        }
        sections.push((TAG_HISTORY, buf.to_vec()));
    }

    if let Some(fp) = state.fingerprint {
        let mut buf = BytesMut::new();
        buf.put_u64_le(fp);
        sections.push((TAG_FINGERPRINT, buf.to_vec()));
    }

    let mut out = BytesMut::new();
    out.put_slice(MAGIC);
    out.put_u32_le(sections.len() as u32);
    for (tag, payload) in &sections {
        push_section(&mut out, tag, payload);
    }
    out
}

/// Atomically writes a full session snapshot to `path` in format v2.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn save_train_state(state: &TrainState, path: impl AsRef<Path>) -> io::Result<()> {
    write_atomic(path.as_ref(), &encode_state(state))
}

// ---------------------------------------------------------------------------
// Decoding.

struct Reader {
    buf: Bytes,
}

impl Reader {
    fn need(&self, bytes: usize, what: &str) -> Result<(), CheckpointError> {
        if self.buf.remaining() < bytes {
            return Err(CheckpointError::Format(format!("truncated at {what}")));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8, CheckpointError> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self, what: &str) -> Result<u32, CheckpointError> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    fn f32(&mut self, what: &str) -> Result<f32, CheckpointError> {
        self.need(4, what)?;
        Ok(self.buf.get_f32_le())
    }
}

fn decode_params(r: &mut Reader) -> Result<Vec<Tensor>, CheckpointError> {
    let count = r.u32("param count")? as usize;
    let mut params = Vec::new();
    for i in 0..count {
        let ndim = r.u32("ndim")? as usize;
        if ndim > 8 {
            return Err(CheckpointError::Format(format!(
                "parameter {i}: implausible rank {ndim}"
            )));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r.u32("shape")? as usize);
        }
        let len: usize = shape.iter().product();
        r.need(len * 4, "tensor data")?;
        let data: Vec<f32> = (0..len).map(|_| r.buf.get_f32_le()).collect();
        let tensor = Tensor::from_vec(data, &shape)
            .map_err(|e| CheckpointError::Format(format!("parameter {i}: {e}")))?;
        params.push(tensor);
    }
    Ok(params)
}

fn decode_adam(r: &mut Reader, params: &[Tensor]) -> Result<AdamState, CheckpointError> {
    let t = r.u64("adam t")?;
    if t > i32::MAX as u64 {
        return Err(CheckpointError::Format(format!("implausible adam step count {t}")));
    }
    let count = r.u32("adam moment count")? as usize;
    if count != params.len() {
        return Err(CheckpointError::Format(format!(
            "optimizer state has {count} entries, checkpoint has {} parameters",
            params.len()
        )));
    }
    let mut moments = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        match r.u8("moment presence")? {
            0 => moments.push(None),
            1 => {
                let len = p.len();
                let mut read = |what| -> Result<Tensor, CheckpointError> {
                    let mut data = Vec::with_capacity(len);
                    for _ in 0..len {
                        data.push(r.f32(what)?);
                    }
                    Tensor::from_vec(data, p.shape())
                        .map_err(|e| CheckpointError::Format(format!("moment {i}: {e}")))
                };
                let m = read("adam m")?;
                let v = read("adam v")?;
                moments.push(Some((m, v)));
            }
            other => {
                return Err(CheckpointError::Format(format!(
                    "moment {i}: bad presence byte {other}"
                )))
            }
        }
    }
    Ok(AdamState { t: t as i32, moments })
}

fn decode_state(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    let mut r = Reader { buf: Bytes::from(bytes.to_vec()) };
    r.need(MAGIC.len(), "magic")?;
    if &r.buf.split_to(MAGIC.len())[..] != MAGIC {
        return Err(CheckpointError::Format(
            "bad magic (not a v2 checkpoint)".into(),
        ));
    }
    let section_count = r.u32("section count")? as usize;
    if section_count > TAG_ORDER.len() {
        return Err(CheckpointError::Format(format!(
            "implausible section count {section_count}"
        )));
    }

    let mut state = TrainState::default();
    let mut saw_params = false;
    let mut last_rank: Option<usize> = None;
    for _ in 0..section_count {
        r.need(8, "section header")?;
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&r.buf[..4]);
        let len = (&r.buf[4..8]).get_u32_le() as usize;
        r.need(8 + len + 4, "section payload")?;
        if unseal(&r.buf[..8 + len + 4], &[&[]]).is_err() {
            return Err(CheckpointError::Format(format!(
                "crc mismatch in section {:?}",
                String::from_utf8_lossy(&tag)
            )));
        }
        r.buf.advance(8);
        let payload = r.buf.split_to(len);
        r.buf.advance(4);

        let rank = TAG_ORDER
            .iter()
            .position(|t| **t == tag)
            .ok_or_else(|| {
                CheckpointError::Format(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&tag)
                ))
            })?;
        if let Some(prev) = last_rank {
            if rank <= prev {
                return Err(CheckpointError::Format(format!(
                    "section {:?} out of order or duplicated",
                    String::from_utf8_lossy(&tag)
                )));
            }
        }
        last_rank = Some(rank);

        let mut pr = Reader { buf: payload };
        match &tag {
            t if t == TAG_PARAMS => {
                state.params = decode_params(&mut pr)?;
                saw_params = true;
            }
            t if t == TAG_ADAM => state.adam = Some(decode_adam(&mut pr, &state.params)?),
            t if t == TAG_RNGS => {
                let count = pr.u32("rng count")? as usize;
                for _ in 0..count {
                    let lo = pr.u64("rng state")?;
                    let hi = pr.u64("rng state")?;
                    state.rngs.push((lo as u128) | ((hi as u128) << 64));
                }
            }
            t if t == TAG_COUNTERS => {
                let count = pr.u32("counter count")? as usize;
                for _ in 0..count {
                    state.counters.push(pr.u64("counter")?);
                }
            }
            t if t == TAG_FLOATS => {
                let count = pr.u32("float count")? as usize;
                for _ in 0..count {
                    state.floats.push(f64::from_bits(pr.u64("float")?));
                }
            }
            t if t == TAG_HISTORY => {
                let count = pr.u32("history count")? as usize;
                for _ in 0..count {
                    state.history.push(f64::from_bits(pr.u64("loss")?));
                }
            }
            t if t == TAG_FINGERPRINT => state.fingerprint = Some(pr.u64("fingerprint")?),
            _ => unreachable!("tag validated against TAG_ORDER"),
        }
        if pr.buf.remaining() != 0 {
            return Err(CheckpointError::Format(format!(
                "section {:?} has {} trailing bytes",
                String::from_utf8_lossy(&tag),
                pr.buf.remaining()
            )));
        }
    }
    if r.buf.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after last section",
            r.buf.remaining()
        )));
    }
    if !saw_params {
        return Err(CheckpointError::Format("missing PRMS section".into()));
    }
    Ok(state)
}

/// Reads and validates a v2 checkpoint from `path`.
///
/// Every section's CRC is verified and the file must parse exactly to its
/// end; a truncated, bit-flipped, or trailing-garbage file is always
/// rejected with [`CheckpointError::Format`].
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem problems, otherwise `Format`.
pub fn load_train_state(path: impl AsRef<Path>) -> Result<TrainState, CheckpointError> {
    let bytes = fs::read(path)?;
    decode_state(&bytes)
}

/// Writes a model-only checkpoint (a v2 file with just the `PRMS` section).
///
/// The write is atomic: tmp file + fsync + rename.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn save_checkpoint(model: &dyn GnnModel, path: impl AsRef<Path>) -> io::Result<()> {
    save_train_state(&TrainState::from_model(model), path)
}

/// Restores parameter values from a v2 checkpoint at `path` into `model`.
///
/// Gradients are zeroed. The model is left unchanged if the checkpoint is
/// invalid or mismatched. Extra session sections (optimizer, RNGs, …) are
/// validated but ignored.
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem problems;
/// [`CheckpointError::Format`] when the file is malformed, corrupt, or a
/// parameter count/shape differs from the model's.
pub fn load_checkpoint(
    model: &mut dyn GnnModel,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    load_train_state(path)?.apply_params(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggregatorSpec, GraphSage, Optimizer};
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn model(seed: u64) -> GraphSage {
        GraphSage::new(4, 8, 3, 2, AggregatorSpec::Pool, 0.0, &mut Pcg64Mcg::seed_from_u64(seed))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("betty-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_restores_values() {
        let source = model(1);
        let mut target = model(2);
        assert_ne!(
            source.params()[0].value().data(),
            target.params()[0].value().data()
        );
        let path = tmp("roundtrip");
        save_checkpoint(&source, &path).unwrap();
        load_checkpoint(&mut target, &path).unwrap();
        let _ = std::fs::remove_file(&path);
        for (a, b) in source.params().iter().zip(target.params()) {
            assert_eq!(a.value(), b.value());
        }
    }

    #[test]
    fn full_session_state_roundtrips() {
        let mut m = model(3);
        let mut opt = crate::Adam::new(0.01);
        // Take a couple of steps so moments exist.
        for p in m.params_mut().iter_mut() {
            p.accumulate_grad(&Tensor::ones(p.value().shape()));
        }
        opt.step(&mut m.params_mut());
        let state = TrainState {
            params: m.params().iter().map(|p| p.value().clone()).collect(),
            adam: Some(opt.export_state(&m.params())),
            rngs: vec![u128::MAX - 2, 42],
            counters: vec![7, 1234, 3],
            floats: vec![0.875, -1.5e-9],
            history: vec![2.5, 1.25, 0.625],
            fingerprint: Some(0xDEAD_BEEF_CAFE_F00D),
        };
        let path = tmp("session");
        save_train_state(&state, &path).unwrap();
        let loaded = load_train_state(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, state);
    }

    #[test]
    fn shape_mismatch_rejected_and_model_untouched() {
        let source = model(1);
        let mut other = GraphSage::new(
            5, // different input width
            8,
            3,
            2,
            AggregatorSpec::Pool,
            0.0,
            &mut Pcg64Mcg::seed_from_u64(3),
        );
        let before: Vec<_> = other.params().iter().map(|p| p.value().clone()).collect();
        let path = tmp("mismatch");
        save_checkpoint(&source, &path).unwrap();
        let err = load_checkpoint(&mut other, &path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        for (p, b) in other.params().iter().zip(&before) {
            assert_eq!(p.value(), b, "model mutated on failed load");
        }
    }

    #[test]
    fn garbage_rejected() {
        let path = tmp("garbage");
        std::fs::write(&path, b"junk").unwrap();
        let mut m = model(1);
        let err = load_checkpoint(&mut m, &path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn v1_checkpoints_are_rejected() {
        let path = tmp("v1");
        std::fs::write(&path, b"BTYCKPT1\x00\x00\x00\x00").unwrap();
        let err = load_train_state(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let state = TrainState {
            params: vec![Tensor::from_slice(&[1.0, 2.0, 3.0])],
            adam: Some(AdamState { t: 2, moments: vec![None] }),
            rngs: vec![99],
            counters: vec![1],
            floats: vec![0.5],
            history: vec![1.0],
            fingerprint: Some(17),
        };
        let bytes = encode_state(&state).to_vec();
        assert!(decode_state(&bytes).is_ok());
        for cut in 0..bytes.len() {
            let err = decode_state(&bytes[..cut]).expect_err("truncated load succeeded");
            assert!(matches!(err, CheckpointError::Format(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let state = TrainState {
            params: vec![Tensor::from_slice(&[1.0, -2.0])],
            adam: Some(AdamState {
                t: 1,
                moments: vec![Some((Tensor::zeros(&[2]), Tensor::zeros(&[2])))],
            }),
            rngs: vec![7, 8],
            counters: vec![9],
            floats: vec![3.5],
            history: vec![0.25],
            fingerprint: Some(5),
        };
        let bytes = encode_state(&state).to_vec();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                match decode_state(&corrupt) {
                    Err(CheckpointError::Format(_)) => {}
                    Ok(loaded) => panic!(
                        "bit flip at byte {byte} bit {bit} loaded: {loaded:?}"
                    ),
                    Err(e) => panic!("bit flip at byte {byte} bit {bit}: unexpected {e}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trailing");
        let state = TrainState::from_model(&model(1));
        let mut bytes = encode_state(&state).to_vec();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_train_state(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn atomic_write_leaves_no_tmp_file() {
        let path = tmp("atomic");
        save_checkpoint(&model(1), &path).unwrap();
        let tmp_path = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(path.exists());
        assert!(!tmp_path.exists(), "tmp file left behind");
        let _ = std::fs::remove_file(&path);
    }
}
