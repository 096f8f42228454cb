//! Binary dataset serialization.
//!
//! Generated datasets take seconds to rebuild, but real-world graphs
//! (edge lists + features exported from OGB, say) need a load path. The
//! format is a single little-endian binary file:
//!
//! ```text
//! magic "BTYDATA1" | name | counts | edges (u32 pairs) | labels (u32)
//! | splits (u32 lists) | features (f32 row-major)
//! ```

use std::fs;
use std::io;
use std::path::Path;

use bytes::{BufMut, BytesMut};

use betty_graph::{CsrGraph, NodeId};
use betty_tensor::sealed::{write_atomic, Reader, Truncated};
use betty_tensor::Tensor;

use crate::{DataError, Dataset};

const MAGIC: &[u8; 8] = b"BTYDATA1";

/// Errors from [`load_dataset`].
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid dataset (bad magic, truncation, or
    /// inconsistent counts).
    Format(String),
    /// The file parsed but its content is defective (out-of-range edge
    /// endpoints, non-finite features, split overlap) — see
    /// [`DataError`] for which element is at fault.
    Data(DataError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "dataset i/o error: {e}"),
            LoadError::Format(msg) => write!(f, "invalid dataset file: {msg}"),
            LoadError::Data(e) => write!(f, "invalid dataset: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(_) => None,
            LoadError::Data(e) => Some(e),
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<DataError> for LoadError {
    fn from(e: DataError) -> Self {
        LoadError::Data(e)
    }
}

fn put_u32_slice(buf: &mut BytesMut, values: impl IntoIterator<Item = u32>) {
    for v in values {
        buf.put_u32_le(v);
    }
}

/// Serializes a dataset to `path`, atomically: a crash (or SIGKILL)
/// mid-save leaves either the previous file or the complete new one,
/// never a truncated image.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn save_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(dataset.name.len() as u32);
    buf.put_slice(dataset.name.as_bytes());
    buf.put_u32_le(dataset.num_nodes() as u32);
    buf.put_u32_le(dataset.graph.num_edges() as u32);
    buf.put_u32_le(dataset.feature_dim() as u32);
    buf.put_u32_le(dataset.num_classes as u32);
    buf.put_u32_le(dataset.train_idx.len() as u32);
    buf.put_u32_le(dataset.val_idx.len() as u32);
    buf.put_u32_le(dataset.test_idx.len() as u32);
    for (u, v, _) in dataset.graph.iter_edges() {
        buf.put_u32_le(u);
        buf.put_u32_le(v);
    }
    put_u32_slice(&mut buf, dataset.labels.iter().map(|&l| l as u32));
    put_u32_slice(&mut buf, dataset.train_idx.iter().copied());
    put_u32_slice(&mut buf, dataset.val_idx.iter().copied());
    put_u32_slice(&mut buf, dataset.test_idx.iter().copied());
    // Features always serialize densely, whatever backend the in-memory
    // dataset uses — the file format is backend-agnostic.
    for &f in dataset.features.to_dense().data() {
        buf.put_f32_le(f);
    }
    write_atomic(path.as_ref(), &buf)
}

/// Loads a dataset written by [`save_dataset`].
///
/// # Errors
///
/// [`LoadError::Io`] on filesystem problems, [`LoadError::Format`] when
/// the file is not a valid dataset image.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<Dataset, LoadError> {
    decode_dataset(&fs::read(path)?)
}

impl From<Truncated> for LoadError {
    fn from(t: Truncated) -> Self {
        LoadError::Format(t.0)
    }
}

/// Decodes a [`save_dataset`] image, which must end with its features.
fn decode_dataset(bytes: &[u8]) -> Result<Dataset, LoadError> {
    let mut r = Reader(bytes);
    if r.take(MAGIC.len(), 1, "magic")? != MAGIC {
        return Err(LoadError::Format("bad magic".into()));
    }
    let name_len = r.u32("name length")? as usize;
    let name = String::from_utf8(r.take(name_len, 1, "name")?.to_vec())
        .map_err(|_| LoadError::Format("name is not UTF-8".into()))?;
    let [n, e, d, classes, n_train, n_val, n_test] = r.words("header counts")?;

    let flat_edges = r.u32s(e.saturating_mul(2), "edges")?;
    let edges: Vec<(NodeId, NodeId)> = flat_edges.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let labels: Vec<usize> = r.u32s(n, "labels")?.into_iter().map(|l| l as usize).collect();
    let train_idx = r.u32s(n_train, "train split")?;
    let val_idx = r.u32s(n_val, "val split")?;
    let test_idx = r.u32s(n_test, "test split")?;
    let feats = r.f32s(n.saturating_mul(d), "features")?;
    if !r.0.is_empty() {
        return Err(LoadError::Format(format!("{} bytes after the features", r.0.len())));
    }

    for (i, &(u, v)) in edges.iter().enumerate() {
        if u as usize >= n || v as usize >= n {
            return Err(LoadError::Data(DataError::EdgeOutOfRange {
                edge_index: i,
                src: u,
                dst: v,
                num_nodes: n,
            }));
        }
    }
    let dataset = Dataset {
        name,
        graph: CsrGraph::from_edges(n, &edges),
        features: Tensor::from_vec(feats, &[n, d])
            .map_err(|e| LoadError::Format(e.to_string()))?
            .into(),
        labels,
        num_classes: classes,
        train_idx,
        val_idx,
        test_idx,
    };
    dataset.check()?;
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetSpec;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("betty-io-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = DatasetSpec::cora().scaled(0.05).with_feature_dim(6).generate(1);
        let path = tmp("roundtrip");
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.name, ds.name);
        assert_eq!(loaded.graph, ds.graph);
        assert_eq!(loaded.features, ds.features);
        assert_eq!(loaded.labels, ds.labels);
        assert_eq!(loaded.train_idx, ds.train_idx);
        assert_eq!(loaded.val_idx, ds.val_idx);
        assert_eq!(loaded.test_idx, ds.test_idx);
        assert_eq!(loaded.num_classes, ds.num_classes);
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a dataset").unwrap();
        let err = load_dataset(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let ds = DatasetSpec::cora().scaled(0.05).with_feature_dim(4).generate(2);
        let path = tmp("trunc");
        save_dataset(&ds, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_dataset(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_dataset(tmp("does-not-exist")).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn save_is_atomic_and_leaves_no_tmp_file() {
        let ds = DatasetSpec::cora().scaled(0.05).with_feature_dim(4).generate(5);
        let path = tmp("atomic");
        // Overwrite an existing file to exercise the rename-over path.
        std::fs::write(&path, b"old content").unwrap();
        save_dataset(&ds, &path).unwrap();
        let mut tmp_name = path.file_name().unwrap().to_os_string();
        tmp_name.push(".tmp");
        assert!(
            !path.with_file_name(tmp_name).exists(),
            "temp file must be renamed away"
        );
        let loaded = load_dataset(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.graph, ds.graph);
    }

    /// Byte offset where the edge list starts in a serialized dataset.
    fn edges_offset(ds: &Dataset) -> usize {
        MAGIC.len() + 4 + ds.name.len() + 7 * 4
    }

    #[test]
    fn out_of_range_edge_is_a_structured_data_error() {
        let ds = DatasetSpec::cora().scaled(0.05).with_feature_dim(4).generate(6);
        let path = tmp("bad-edge");
        save_dataset(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Point the second edge's source at a nonexistent node.
        let off = edges_offset(&ds) + 8;
        let bad = (ds.num_nodes() as u32 + 41).to_le_bytes();
        bytes[off..off + 4].copy_from_slice(&bad);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        match err {
            LoadError::Data(DataError::EdgeOutOfRange {
                edge_index,
                src,
                num_nodes,
                ..
            }) => {
                assert_eq!(edge_index, 1);
                assert_eq!(src as usize, ds.num_nodes() + 41);
                assert_eq!(num_nodes, ds.num_nodes());
            }
            other => panic!("expected EdgeOutOfRange, got {other:?}"),
        }
    }

    /// Every truncation, seeded bit flips, and header counts that lie
    /// (`n`, `e`, `d` and the split sizes): no image may panic the decoder
    /// or make it allocate more than a few times the image at once.
    /// Truncations and lies are errors (a lie that repeats the true count
    /// decodes to the original). A flipped bit may decode to another valid
    /// dataset — `BTYDATA1` carries no checksum, and the class count is
    /// not a count of stored values — but never to one of another shape.
    #[test]
    fn fuzzed_images_are_rejected_or_keep_the_original_shape() {
        use crate::shards::tests::measured;
        use rand::{Rng, SeedableRng};
        use rand_pcg::Pcg64Mcg;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let ds = DatasetSpec::cora().scaled(0.03).with_feature_dim(3).generate(8);
        let path = tmp("fuzz");
        save_dataset(&ds, &path).unwrap();
        let valid = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let budget = 4 * valid.len() + 4096;
        let decode = |what: &str, bytes: &[u8]| {
            let outcome = catch_unwind(AssertUnwindSafe(|| measured(|| decode_dataset(bytes))));
            let Ok((decoded, largest, _)) = outcome else {
                panic!("{what}: the decoder panicked");
            };
            assert!(largest <= budget, "{what}: allocated {largest} bytes at once");
            decoded
        };
        let shape = |d: &Dataset| {
            let splits = (d.train_idx.len(), d.val_idx.len(), d.test_idx.len());
            (d.num_nodes(), d.graph.num_edges(), d.feature_dim(), splits)
        };
        let original = |d: &Dataset| {
            (d.name == ds.name && d.graph == ds.graph && d.features == ds.features)
                && (d.labels == ds.labels && d.train_idx == ds.train_idx)
                && (d.val_idx == ds.val_idx && d.test_idx == ds.test_idx)
                && (d.num_classes == ds.num_classes && shape(d) == shape(&ds))
        };
        assert!(original(&decode("the valid image", &valid).unwrap()));

        for len in 0..valid.len() {
            let what = format!("truncation to {len} bytes");
            assert!(decode(&what, &valid[..len]).is_err(), "{what} decoded");
        }
        let mut rng = Pcg64Mcg::seed_from_u64(0xb7da_7a01);
        for case in 0..2000 {
            let mut flipped = valid.clone();
            let bit = rng.gen_range(0..valid.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let what = format!("flip {case} of bit {bit}");
            if let Ok(d) = decode(&what, &flipped) {
                assert_eq!(shape(&d), shape(&ds), "{what} decoded to another shape");
            }
        }
        // The header words after the name: n, e, d, classes, then the
        // three split sizes. Classes is not a count of stored values.
        let words = MAGIC.len() + 4 + ds.name.len();
        for word in [0, 1, 2, 4, 5, 6] {
            let at = words + 4 * word;
            let truth = u32::from_le_bytes(valid[at..at + 4].try_into().unwrap());
            let random: u32 = rng.gen();
            for lie in [0, 1, u32::MAX, 0x8000_0000, truth.wrapping_add(1), truth.wrapping_sub(1), random] {
                let mut lying = valid.clone();
                lying[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                let what = format!("header word {word} = {lie} (truly {truth})");
                match decode(&what, &lying) {
                    Ok(d) => assert!(lie == truth && original(&d), "{what} decoded"),
                    Err(e) => assert!(lie != truth, "{what}: {e}"),
                }
            }
        }
    }

    #[test]
    fn non_finite_feature_is_a_structured_data_error() {
        let ds = DatasetSpec::cora().scaled(0.05).with_feature_dim(4).generate(7);
        let path = tmp("nan-feature");
        save_dataset(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Features are the file's tail: poison the last value.
        let off = bytes.len() - 4;
        bytes[off..].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.to_string().contains("non-finite"), "{err}");
        match err {
            LoadError::Data(DataError::NonFiniteFeature { node, dim, .. }) => {
                assert_eq!(node, ds.num_nodes() - 1);
                assert_eq!(dim, ds.feature_dim() - 1);
            }
            other => panic!("expected NonFiniteFeature, got {other:?}"),
        }
    }
}
