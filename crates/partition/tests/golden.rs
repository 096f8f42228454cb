//! Parent-identity golden test for the multilevel cutter.
//!
//! The hashes below were recorded at the commit *before* the cutter moved
//! to a reusable coarsening hierarchy, flat CSR levels and flat swap
//! tables. Every rewrite of `multilevel.rs` must keep them: plans — and
//! with them losses, peak bytes and the chosen K — are promised to be
//! bit-identical across that change. A change that moves them on purpose
//! re-records them with `GOLDEN_PRINT=1 cargo test -p betty-partition
//! --test golden -- --nocapture`.

use betty_graph::{dependency_reg, sample_batch, Batch, Block, CsrGraph, NodeId};
use betty_partition::{MultilevelPartitioner, Partitioner};
use betty_testkit::{check_golden, fnv1a};
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;

const CUTTER_SEED: u64 = 17;
const HUB_CAP: usize = 32;

/// FNV-1a of an assignment's little-endian bytes.
fn assignment_hash(labels: &[u32]) -> u64 {
    fnv1a(labels.iter().flat_map(|l| l.to_le_bytes()))
}

/// The REG of a batch sampled from a seeded random graph.
fn sampled_reg(seed: u64, fanouts: &[usize]) -> CsrGraph {
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let n = 30_000u32;
    let edges: Vec<(NodeId, NodeId)> = (0..6 * n)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .filter(|&(u, v)| u != v)
        .collect();
    let graph = CsrGraph::from_edges(n as usize, &edges);
    let seeds: Vec<NodeId> = (0..1200).collect();
    dependency_reg(&sample_batch(&graph, &seeds, fanouts, &mut rng), HUB_CAP)
}

/// 400 outputs that share nothing: heavy-edge matching finds no pair, so
/// coarsening stalls at level 0 for every K whose target is below 400.
fn edgeless_reg() -> CsrGraph {
    let batch = Batch::new(vec![Block::new((0..400).collect(), &[])]);
    let reg = dependency_reg(&batch, HUB_CAP);
    assert_eq!(reg.num_edges(), 0);
    reg
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

/// A golden row's `k` column as a part count for `reg`.
fn parts_asked(k: usize, reg: &CsrGraph) -> usize {
    if k == 0 {
        reg.num_nodes() + 5
    } else {
        k
    }
}

fn graphs() -> [(&'static str, CsrGraph); 3] {
    [
        ("two_layer", sampled_reg(5, &[5, 5])),
        ("three_layer", sampled_reg(9, &[3, 4, 4])),
        ("edgeless", edgeless_reg()),
    ]
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
            let parts = cutter.partition(reg, parts_asked(k, reg));
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
            let hash = assignment_hash(hierarchy.cut(parts_asked(rows[i], reg)).assignment());
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
