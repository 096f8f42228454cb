//! The on-disk bytes of every durable file the workspace writes, pinned
//! by hash: paged feature stores (meta, data shards, parity shards,
//! parity meta) at both storage widths with and without a sidecar, one
//! dataset file and one session checkpoint.
//!
//! The values were recorded from the writers as they stood before the
//! sealed-file codec existed. A refactor of the codecs must leave every
//! one of them alone; a deliberate format change re-records them with
//! `STORAGE_BYTES_PRINT=1 cargo test -p betty-integration-tests --test
//! storage_bytes -- --nocapture` and says so in the CHANGELOG.

use std::path::{Path, PathBuf};

use betty_data::{save_dataset, Dataset, Features};
use betty_graph::CsrGraph;
use betty_nn::{save_train_state, AdamState, TrainState};
use betty_tensor::{DType, Tensor};

/// FNV-1a, 64-bit. Not `crc32`: a file that ends in the CRC of its own
/// body has the same CRC-32 as every other file of its length and magic
/// (the residue property), which would pin nothing.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("betty-storage-bytes-{name}-{}", std::process::id()))
}

/// A fixed `rows × cols` matrix built from integer arithmetic only (no
/// RNG, no libm): eighths in `[-6, 6]`, so bf16 rounds some and keeps
/// others.
fn fixed_matrix(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 31 + (i / cols) * 17) % 97) as f32 / 8.0 - 6.0 + (i % 7) as f32 / 1024.0)
        .collect();
    Tensor::from_vec(data, &[rows, cols]).unwrap()
}

/// `(file name, hash of its bytes)` for every file in `dir`, by name.
fn dir_checksums(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(&std::fs::read(&path).unwrap()))
        })
        .collect();
    files.sort();
    files
}

fn check(what: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    if std::env::var_os("STORAGE_BYTES_PRINT").is_some() {
        println!("// {what}");
        for (name, hash) in got {
            println!("(\"{name}\", {hash:#018x}),");
        }
        return;
    }
    let want: Vec<(String, u64)> = want.iter().map(|&(n, c)| (n.to_string(), c)).collect();
    assert_eq!(got, want, "{what}: on-disk bytes changed");
}

fn spilled(dtype: DType, parity: usize) -> Vec<(String, u64)> {
    let dir = tmp(&format!("{dtype}-p{parity}"));
    let _ = std::fs::remove_dir_all(&dir);
    Features::dense_with_dtype(fixed_matrix(37, 5), dtype)
        .to_paged_with_parity(&dir, 8, usize::MAX, parity)
        .unwrap();
    let files = dir_checksums(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    files
}

/// Meta file and data shards of the f32 store (v1 format).
const F32_STORE: [(&str, u64); 6] = [
    ("features.meta", 0xf24c2fb3ce4d730c),
    ("shard-00000.bfs", 0xe19a622a320e557d),
    ("shard-00001.bfs", 0x8ac2dab95c02cbe5),
    ("shard-00002.bfs", 0xbf621247afb4be41),
    ("shard-00003.bfs", 0x4116979389f1ef52),
    ("shard-00004.bfs", 0xaea41db85a64e369),
];
/// Its width-2 parity sidecar, in directory order before the shards.
const F32_SIDECAR: [(&str, u64); 4] = [
    ("parity-00000.bfp", 0x1e389f851d49feea),
    ("parity-00001.bfp", 0x0efb0f5c041b9e71),
    ("parity-00002.bfp", 0x9f121dd66f92f4d0),
    ("parity.meta", 0x2ea9978f6b7e16e3),
];
/// Meta file and data shards of the bf16 store (v2 format).
const BF16_STORE: [(&str, u64); 6] = [
    ("features.meta", 0x3e682b9dfe021274),
    ("shard-00000.bfs", 0xcc154fef979fed22),
    ("shard-00001.bfs", 0xab4efe4cb9aa2570),
    ("shard-00002.bfs", 0xb96d99f4bde74137),
    ("shard-00003.bfs", 0xd63e1895bbffb209),
    ("shard-00004.bfs", 0xf186f6f55ad3b403),
];
const BF16_SIDECAR: [(&str, u64); 4] = [
    ("parity-00000.bfp", 0x07085dcdc6af78a6),
    ("parity-00001.bfp", 0x8d5d2f7617cb84ff),
    ("parity-00002.bfp", 0xd384f390650019de),
    ("parity.meta", 0xcc7ba4b2bdd5a4a2),
];

/// A store with a sidecar is the plain store plus the sidecar files: the
/// meta file and every data shard are byte-identical either way.
fn with_sidecar(
    store: &[(&'static str, u64)],
    sidecar: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    let mut files = vec![store[0]];
    files.extend_from_slice(sidecar);
    files.extend_from_slice(&store[1..]);
    files
}

#[test]
fn f32_store_without_parity() {
    check("f32, parity 0", &spilled(DType::F32, 0), &F32_STORE);
}

#[test]
fn f32_store_with_parity() {
    let want = with_sidecar(&F32_STORE, &F32_SIDECAR);
    check("f32, parity 2", &spilled(DType::F32, 2), &want);
}

#[test]
fn bf16_store_without_parity() {
    check("bf16, parity 0", &spilled(DType::Bf16, 0), &BF16_STORE);
}

#[test]
fn bf16_store_with_parity() {
    let want = with_sidecar(&BF16_STORE, &BF16_SIDECAR);
    check("bf16, parity 2", &spilled(DType::Bf16, 2), &want);
}

#[test]
fn dataset_file() {
    let dataset = Dataset {
        name: "pinned".into(),
        graph: CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
        features: fixed_matrix(6, 3).into(),
        labels: vec![0, 1, 2, 0, 1, 2],
        num_classes: 3,
        train_idx: vec![0, 1, 2],
        val_idx: vec![3, 4],
        test_idx: vec![5],
    };
    let path = tmp("dataset.btd");
    save_dataset(&dataset, &path).unwrap();
    let hash = fnv1a(&std::fs::read(&path).unwrap());
    let _ = std::fs::remove_file(&path);
    check(
        "dataset",
        &[("dataset.btd".into(), hash)],
        &[("dataset.btd", 0xc1d68747723534c3)],
    );
}

#[test]
fn checkpoint_file() {
    let params = vec![fixed_matrix(2, 3), Tensor::from_slice(&[1.0, -2.0, 0.5])];
    let moments = vec![Some((Tensor::zeros(&[2, 3]), Tensor::ones(&[2, 3]))), None];
    let state = TrainState {
        adam: Some(AdamState { t: 42, moments }),
        rngs: vec![0x1234_5678_9abc_def1_0fed_cba9_8765_4321, 3],
        counters: vec![7, 310, 99],
        fingerprint: Some(0xdead_beef_cafe_f00d),
        params,
    };
    let path = tmp("session.btc");
    save_train_state(&state, &path).unwrap();
    let hash = fnv1a(&std::fs::read(&path).unwrap());
    let _ = std::fs::remove_file(&path);
    check(
        "checkpoint",
        &[("session.btc".into(), hash)],
        // 0x95dce6e7bb255db0 while the format still had FLTS and HIST.
        &[("session.btc", 0x63ff960d8ad3516e)],
    );
}
