//! Property tests over the partitioning stack: random graphs in, paper
//! invariants out.

use std::collections::HashSet;

use betty_graph::{sample_batch, shared_neighbor_graph, Batch, Block, CsrGraph, NodeId};
use betty_partition::{
    input_redundancy, MultilevelPartitioner, OutputPartitioner, Partitioner, RandomPartitioner,
    RangePartitioner, RegPartitioner, RegScope,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

/// Strategy: a random directed graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (10usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(n * 4));
        (Just(n), edges)
    })
}

/// Strategy: a batch big enough that its REG coarsens — a few hundred
/// outputs sampled two layers deep from a random graph.
fn arb_coarsenable_batch() -> impl Strategy<Value = Batch> {
    (150usize..400, 0u64..1 << 32).prop_flat_map(|(n, seed)| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), (n * 3)..(n * 6)).prop_map(
            move |edges| {
                let g = CsrGraph::from_edges(n, &edges);
                let seeds: Vec<NodeId> = (0..(n * 3 / 4) as NodeId).collect();
                let mut rng = Pcg64Mcg::seed_from_u64(seed);
                sample_batch(&g, &seeds, &[4, 6], &mut rng)
            },
        )
    })
}

/// `Batch::restrict` as it was defined before the K-way restrict: each
/// block rebuilt by `Block::new` from the edges into the needed nodes.
fn reference_restrict(batch: &Batch, part: &[NodeId]) -> Batch {
    let mut needed = part.to_vec();
    let mut blocks = Vec::new();
    for block in batch.blocks().iter().rev() {
        let keep: HashSet<NodeId> = needed.iter().copied().collect();
        let edges: Vec<(NodeId, NodeId)> = block
            .iter_global_edges()
            .filter(|(_, d)| keep.contains(d))
            .collect();
        let sub = Block::new(needed, &edges);
        needed = sub.src_globals().to_vec();
        blocks.push(sub);
    }
    blocks.reverse();
    Batch::new(blocks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prepared_splits_equal_fresh_splits_in_any_order(
        batch in arb_coarsenable_batch(),
        ks in proptest::collection::vec(1usize..24, 4..9),
    ) {
        for scope in [RegScope::LastLayer, RegScope::FullDependency] {
            let strategy = RegPartitioner::new(3).with_scope(scope);
            let mut prepared = strategy.prepare(&batch);
            // The drawn order, then the same Ks again backwards: deeper
            // levels get built after shallower cuts used the hierarchy,
            // and every K is asked at least twice.
            for &k in ks.iter().chain(ks.iter().rev()) {
                prop_assert_eq!(
                    prepared.split(k),
                    strategy.split_outputs(&batch, k),
                    "{:?} k={} of {:?}", scope, k, ks
                );
            }
        }
    }

    #[test]
    fn k_way_restrict_equals_one_restrict_per_part(
        batch in arb_coarsenable_batch(),
        k in 2usize..9,
    ) {
        let mut parts = RegPartitioner::new(1).split_outputs(&batch, k);
        // Not in output order; one part a lone hub; one part empty.
        for part in &mut parts {
            part.reverse();
        }
        let top = batch.blocks().last().unwrap();
        let hub = (0..top.num_dst()).max_by_key(|&d| top.in_degree(d)).unwrap();
        parts.push(vec![top.dst_globals()[hub]]);
        parts.push(Vec::new());
        let micros = batch.restrict_all(&parts);
        prop_assert_eq!(micros.len(), parts.len());
        for (micro, part) in micros.iter().zip(&parts) {
            prop_assert_eq!(micro, &reference_restrict(&batch, part));
            prop_assert_eq!(micro, &batch.restrict(part));
        }
    }
}

#[test]
#[should_panic(expected = "duplicate output node 1")]
fn k_way_restrict_rejects_a_duplicate_before_a_later_stranger() {
    let batch = Batch::new(vec![Block::new(vec![0, 1, 2], &[(5, 0), (5, 1), (6, 2)])]);
    batch.restrict_all(&[vec![1, 1, 9]]);
}

#[test]
#[should_panic(expected = "9 is not an output node")]
fn k_way_restrict_rejects_a_non_output() {
    let batch = Batch::new(vec![Block::new(vec![0, 1, 2], &[(5, 0), (5, 1), (6, 2)])]);
    batch.restrict_all(&[vec![0, 9]]);
}

#[test]
fn k_way_restrict_rejects_a_bad_part_among_good_ones() {
    let batch = Batch::new(vec![Block::new(vec![0, 1, 2], &[(5, 0), (5, 1), (6, 2)])]);
    let outcome =
        std::panic::catch_unwind(|| batch.restrict_all(&[vec![0], vec![1, 2], vec![2, 2]]));
    assert!(outcome.is_err());
    // All parts good: the failed call left nothing behind.
    let good = batch.restrict_all(&[vec![0], vec![2, 1]]);
    assert_eq!(good[1].output_nodes(), &[2, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multilevel_partition_is_complete_and_nonempty((n, edges) in arb_graph(), k in 2usize..6) {
        let g = CsrGraph::from_edges(n, &edges);
        let p = MultilevelPartitioner::new(0).partition(&g, k);
        prop_assert_eq!(p.assignment().len(), n);
        let parts = p.parts();
        prop_assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), n);
        if n >= k {
            prop_assert!(parts.iter().all(|part| !part.is_empty()));
        }
    }

    #[test]
    fn edge_cut_is_consistent_with_assignment((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let p = MultilevelPartitioner::new(1).partition(&g, k);
        // Recompute the cut by hand.
        let manual: f64 = edges
            .iter()
            .filter(|&&(u, v)| p.assignment()[u as usize] != p.assignment()[v as usize])
            .count() as f64;
        prop_assert_eq!(p.edge_cut(&g), manual);
    }

    #[test]
    fn reg_weights_match_brute_force_shared_neighbors((n, edges) in arb_graph()) {
        // Build a one-layer batch over a few seeds and check REG weights.
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(6)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(7);
        let batch = sample_batch(&g, &seeds, &[usize::MAX], &mut rng);
        let block = batch.blocks().last().unwrap();
        let reg = shared_neighbor_graph(block);
        for i in 0..block.num_dst() {
            let src_i: HashSet<u32> = block.in_edges(i).iter().copied().collect();
            for j in 0..block.num_dst() {
                if i == j { continue; }
                let src_j: HashSet<u32> = block.in_edges(j).iter().copied().collect();
                let expected = src_i.intersection(&src_j).count() as f32;
                let actual = reg
                    .neighbors(i as u32)
                    .iter()
                    .position(|&v| v == j as u32)
                    .map(|p| reg.neighbor_weights(i as u32).unwrap()[p])
                    .unwrap_or(0.0);
                prop_assert_eq!(actual, expected, "pair ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn micro_batches_partition_outputs_exactly((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(12)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(3);
        let batch = sample_batch(&g, &seeds, &[3, 5], &mut rng);
        for strategy in [
            Box::new(RegPartitioner::new(2)) as Box<dyn OutputPartitioner>,
            Box::new(betty_partition::OutputGraphPartitioner::new(RangePartitioner::new())),
            Box::new(betty_partition::OutputGraphPartitioner::new(RandomPartitioner::new(5))),
        ] {
            let parts = strategy.split_outputs(&batch, k);
            // Disjoint union equals the full output set.
            let mut all: Vec<NodeId> = parts.iter().flatten().copied().collect();
            let unique: HashSet<NodeId> = all.iter().copied().collect();
            prop_assert_eq!(unique.len(), all.len(), "{}: overlap", strategy.name());
            all.sort_unstable();
            let mut expected = batch.output_nodes().to_vec();
            expected.sort_unstable();
            prop_assert_eq!(all, expected, "{}: coverage", strategy.name());
        }
    }

    #[test]
    fn restricted_micro_batches_are_self_contained((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(10)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(9);
        let batch = sample_batch(&g, &seeds, &[4, 4], &mut rng);
        let parts = RegPartitioner::new(0).split_outputs(&batch, k);
        for part in parts.iter().filter(|p| !p.is_empty()) {
            let micro = batch.restrict(part);
            prop_assert!(micro.validate().is_ok());
            // Every kept destination keeps its complete sampled in-edge
            // set: per-dst degree matches the full batch's top block.
            let full_top = batch.blocks().last().unwrap();
            let micro_top = micro.blocks().last().unwrap();
            for (local, &gid) in micro_top.dst_globals().iter().enumerate() {
                let full_local = full_top
                    .dst_globals()
                    .iter()
                    .position(|&v| v == gid)
                    .unwrap();
                prop_assert_eq!(
                    micro_top.in_degree(local),
                    full_top.in_degree(full_local),
                    "dst {} lost edges", gid
                );
            }
        }
    }

    #[test]
    fn redundancy_is_at_least_unique_count((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(10)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(4);
        let batch = sample_batch(&g, &seeds, &[3], &mut rng);
        let parts = RegPartitioner::new(0).split_outputs(&batch, k);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        let report = input_redundancy(&micros);
        prop_assert!(report.total_input_nodes >= report.unique_input_nodes);
        prop_assert!(report.redundancy_ratio() >= 1.0);
        // The union of micro-batch inputs equals the full batch's inputs.
        let mut union: HashSet<NodeId> = HashSet::new();
        for m in &micros {
            union.extend(m.input_nodes().iter().copied());
        }
        let full: HashSet<NodeId> = batch.input_nodes().iter().copied().collect();
        prop_assert_eq!(union, full);
    }
}

#[test]
fn betty_beats_random_redundancy_on_community_batches() {
    // Deterministic end-check of the Fig. 16 direction at test scale.
    let ds = betty_data::DatasetSpec::ogbn_arxiv()
        .scaled(0.004)
        .with_feature_dim(8)
        .generate(2);
    let mut rng = Pcg64Mcg::seed_from_u64(1);
    let seeds: Vec<NodeId> = ds.train_idx.iter().copied().take(120).collect();
    let batch = sample_batch(&ds.graph, &seeds, &[6, 8], &mut rng);
    let measure = |strategy: &dyn OutputPartitioner| {
        let parts = strategy.split_outputs(&batch, 8);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        input_redundancy(&micros).redundant_nodes()
    };
    let betty = measure(&RegPartitioner::new(0));
    let random = measure(&betty_partition::OutputGraphPartitioner::new(
        RandomPartitioner::new(0),
    ));
    assert!(
        betty < random,
        "betty {betty} redundant nodes vs random {random}"
    );
}
