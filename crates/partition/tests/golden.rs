//! Parent-identity golden test for the multilevel cutter.
//!
//! The hashes below were recorded at the commit *before* the cutter moved
//! to a reusable coarsening hierarchy, flat CSR levels and flat swap
//! tables. Every rewrite of `multilevel.rs` must keep them: plans — and
//! with them losses, peak bytes and the chosen K — are promised to be
//! bit-identical across that change. A change that moves them on purpose
//! re-records them with `GOLDEN_PRINT=1 cargo test -p betty-partition
//! --test golden -- --nocapture`.
//!
//! A REG is cut by two paths: the public one, [`dependency_reg`] and then
//! [`Partitioner::partition`], whose level 0 is `A + Aᵀ`, and the
//! runner's, [`RegPartitioner`], whose level 0 is the REG itself. Both must
//! give the same 27 assignments, and the REG bytes both start from are
//! pinned too.

use betty_graph::{dependency_reg, sample_batch, Batch, Block, CsrGraph, NodeId};
use betty_partition::{MultilevelPartitioner, OutputPartitioner, Partitioner, RegPartitioner};
use betty_testkit::{check_golden, fnv1a};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

const CUTTER_SEED: u64 = 17;
const HUB_CAP: usize = 32;

/// FNV-1a of an assignment's little-endian bytes.
fn assignment_hash(labels: &[u32]) -> u64 {
    fnv1a(labels.iter().flat_map(|l| l.to_le_bytes()))
}

/// A batch sampled from a seeded random graph.
fn sampled_batch(seed: u64, fanouts: &[usize]) -> Batch {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let n = 30_000u32;
    let edges: Vec<(NodeId, NodeId)> = (0..6 * n)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|&(u, v)| u != v)
        .collect();
    let graph = CsrGraph::from_edges(n as usize, &edges);
    let seeds: Vec<NodeId> = (0..1200).collect();
    sample_batch(&graph, &seeds, fanouts, &mut rng)
}

/// 400 outputs that share nothing: heavy-edge matching finds no pair, so
/// coarsening stalls at level 0 for every K whose target is below 400.
fn edgeless_batch() -> Batch {
    Batch::new(vec![Block::new((0..400).collect(), &[])])
}

/// `(graph, k, hash)`; `k = 0` stands for `n + 5`.
const GOLDEN: [(&str, usize, u64); 27] = [
    ("two_layer", 1, 0xd0549f149dd63a25),
    ("two_layer", 2, 0x3b06951cfec10135),
    ("two_layer", 3, 0xda599f252b525335),
    ("two_layer", 8, 0x9e8e05b3a7553325),
    ("two_layer", 11, 0xd1b2ace1ad01c6ff),
    ("two_layer", 16, 0xbcd87f84ffbdee96),
    ("two_layer", 64, 0x7934b81650f0bb2e),
    ("two_layer", 300, 0xe4163f080f372735),
    ("two_layer", 0, 0xc93ace1047764641),
    ("three_layer", 1, 0xd0549f149dd63a25),
    ("three_layer", 2, 0x26ecff816ed72775),
    ("three_layer", 3, 0x216446a8565834c5),
    ("three_layer", 8, 0x7cb882be9b3b0e15),
    ("three_layer", 11, 0x7798827aa3ed5402),
    ("three_layer", 16, 0x6f0a170debde7151),
    ("three_layer", 64, 0x7aba212ca2386b34),
    ("three_layer", 300, 0x5b411dc77355291d),
    ("three_layer", 0, 0xc93ace1047764641),
    ("edgeless", 1, 0xa947e50590de8025),
    ("edgeless", 2, 0x1aa1dc4c37a2a6a5),
    ("edgeless", 3, 0x9db6aa32b9f8ad66),
    ("edgeless", 8, 0xf8d18b24c781d805),
    ("edgeless", 11, 0x7686c1e31567f6d5),
    ("edgeless", 16, 0x3e236a32f2f70935),
    ("edgeless", 64, 0x58cb719cb5ee7f05),
    ("edgeless", 300, 0xb2c9cccdf89727c5),
    ("edgeless", 0, 0x6b91a8f621d22881),
];

/// A golden row's `k` column as a part count for `n` outputs.
fn parts_asked(k: usize, n: usize) -> usize {
    if k == 0 {
        n + 5
    } else {
        k
    }
}

fn batches() -> [(&'static str, Batch); 3] {
    [
        ("two_layer", sampled_batch(5, &[5, 5])),
        ("three_layer", sampled_batch(9, &[3, 4, 4])),
        ("edgeless", edgeless_batch()),
    ]
}

fn graphs() -> [(&'static str, CsrGraph); 3] {
    batches().map(|(name, batch)| (name, dependency_reg(&batch, HUB_CAP)))
}

fn assert_golden(actual: &[(&str, usize, u64)]) {
    check_golden("assignments at the parent commit", actual, &GOLDEN, |(name, k, hash)| {
        format!("    ({name:?}, {k}, {hash:#018x}),")
    });
}

#[test]
fn from_scratch_assignments_match_the_parent_commit() {
    let cutter = MultilevelPartitioner::new(CUTTER_SEED);
    let mut actual = Vec::new();
    for (name, reg) in &graphs() {
        for &(_, k, _) in GOLDEN.iter().filter(|row| row.0 == *name) {
            let parts = cutter.partition(reg, parts_asked(k, reg.num_nodes()));
            actual.push((*name, k, assignment_hash(parts.assignment())));
        }
    }
    assert_golden(&actual);
}

/// One hierarchy per graph, cut deepest-first, shallowest-first and with
/// repeats: every cut must still be the from-scratch one.
#[test]
fn shared_hierarchy_assignments_match_the_parent_commit() {
    let cutter = MultilevelPartitioner::new(CUTTER_SEED);
    let mut actual = Vec::new();
    for (name, reg) in &graphs() {
        let rows: Vec<usize> = GOLDEN
            .iter()
            .filter(|row| row.0 == *name)
            .map(|row| row.1)
            .collect();
        let mut hierarchy = cutter.hierarchy(reg, vec![1.0; reg.num_nodes()]);
        let mut hashes = vec![0u64; rows.len()];
        // 16, 2, 300, 1, 8, n+5, 3, 64, 11, then everything again backwards.
        let order = [5usize, 1, 7, 0, 4, 8, 2, 6, 3];
        for &i in order.iter().chain(order.iter().rev()) {
            let hash = assignment_hash(hierarchy.cut(parts_asked(rows[i], reg.num_nodes())).assignment());
            assert!(
                hashes[i] == 0 || hashes[i] == hash,
                "{name}: two cuts at k = {} differ",
                rows[i]
            );
            hashes[i] = hash;
        }
        actual.extend(rows.iter().zip(hashes).map(|(&k, h)| (*name, k, h)));
    }
    assert_golden(&actual);
}

/// The runner's path: [`RegPartitioner`] builds the REG itself and cuts it
/// with the REG as level 0. Its groups, read back as an assignment over
/// the outputs, must hash as the public path's do.
#[test]
fn runner_path_assignments_match_the_parent_commit() {
    let strategy = RegPartitioner::new(CUTTER_SEED).with_hub_cap(HUB_CAP);
    let mut actual = Vec::new();
    for (name, batch) in &batches() {
        let outputs = batch.blocks().last().expect("one block at least").dst_globals();
        let local: std::collections::HashMap<NodeId, u32> =
            outputs.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        for &(_, k, _) in GOLDEN.iter().filter(|row| row.0 == *name) {
            let mut labels = vec![u32::MAX; outputs.len()];
            let groups = strategy.split_outputs(batch, parts_asked(k, outputs.len()));
            for (part, group) in groups.iter().enumerate() {
                for v in group {
                    labels[local[v] as usize] = part as u32;
                }
            }
            actual.push((*name, k, assignment_hash(&labels)));
        }
    }
    assert_golden(&actual);
}

/// `(graph, nodes, nnz, hash)`: FNV-1a of each REG's row offsets (`u64`),
/// column indices and weight bits (`u32`), little-endian.
const REG_GOLDEN: [(&str, usize, usize, u64); 3] = [
    ("two_layer", 1200, 33344, 0xbce77a9f5ff878a1),
    ("three_layer", 1200, 202684, 0x98b4fd1021367c6a),
    ("edgeless", 400, 0, 0xb4d0eb00f5e333c5),
];

#[test]
fn reg_bytes_match_the_parent_commit() {
    let actual: Vec<(&str, usize, usize, u64)> = graphs()
        .iter()
        .map(|(name, reg)| {
            let rows = 0..reg.num_nodes() as u32;
            let mut end = 0u64;
            let indptr = std::iter::once(0u64).chain(rows.clone().map(|u| {
                end += reg.neighbors(u).len() as u64;
                end
            }));
            let indices = rows.clone().flat_map(|u| reg.neighbors(u).iter().copied());
            let weights = rows.flat_map(|u| {
                let ws = reg.neighbor_weights(u).expect("a REG is weighted");
                ws.iter().map(|w| w.to_bits())
            });
            let bytes = indptr
                .flat_map(u64::to_le_bytes)
                .chain(indices.chain(weights).flat_map(u32::to_le_bytes));
            (*name, reg.num_nodes(), reg.num_edges(), fnv1a(bytes))
        })
        .collect();
    check_golden("REG bytes at the parent commit", &actual, &REG_GOLDEN, |(name, n, nnz, hash)| {
        format!("    ({name:?}, {n}, {nnz}, {hash:#018x}),")
    });
}
