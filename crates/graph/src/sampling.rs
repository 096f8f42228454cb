//! Fanout-bounded neighbor sampling (DGL `MultiLayerNeighborSampler`
//! equivalent).

use std::cell::Cell;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Batch, Block, CsrGraph, NodeId};

thread_local! {
    /// The block builds' local-index scratch ([`Block::with_stamps`]): one
    /// `u32` per node of the largest graph this thread has sampled, all
    /// `u32::MAX` between calls. Kept so that a call costs what it samples,
    /// not the size of the graph — evaluation samples one small batch per
    /// chunk. A call takes it out and puts it back when it is done, so one
    /// that panics half-way drops its dirty copy instead of returning it.
    static STAMP: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

/// Samples a multi-level bipartite [`Batch`] for `seeds` from `graph`.
///
/// `graph` is the raw input graph with edges `u → v` meaning "`v` aggregates
/// from `u`"; sampling therefore draws from each destination's *in*-
/// neighborhood. `fanouts[i]` bounds the in-degree of layer `i`'s block
/// (`fanouts[0]` is the input-most layer, matching the DGL convention);
/// use `usize::MAX` for full (no-sampling) aggregation.
///
/// Sampling proceeds output-to-input: the seed set is the top block's
/// destination set, and each block's source set becomes the next block's
/// destination set — establishing the stacking invariant [`Batch`] requires.
///
/// Neighbors are drawn without replacement when the in-degree exceeds the
/// fanout; otherwise all in-edges are kept.
///
/// # Panics
///
/// Panics if `fanouts` is empty, `seeds` is empty or contains duplicates,
/// or a seed is out of range.
pub fn sample_batch(
    graph: &CsrGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    rng: &mut impl Rng,
) -> Batch {
    // Sampling needs in-neighbors: operate on the reverse graph's out-lists.
    sample_batch_in(&graph.reverse(), seeds, fanouts, rng)
}

/// Like [`sample_batch`], but takes the *in-neighbor* graph directly
/// (`in_graph.neighbors(v)` lists the nodes `v` aggregates from).
///
/// Callers that sample many batches per epoch should reverse the raw graph
/// once and use this entry point to avoid the O(E) reversal per batch.
///
/// # Panics
///
/// Same conditions as [`sample_batch`].
pub fn sample_batch_in(
    in_graph: &CsrGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    rng: &mut impl Rng,
) -> Batch {
    assert!(!fanouts.is_empty(), "at least one layer fanout required");
    assert!(!seeds.is_empty(), "at least one seed node required");
    let mut blocks: Vec<Block> = Vec::with_capacity(fanouts.len());
    let mut dst: Vec<NodeId> = seeds.to_vec();
    // Clean on entry, between layers and on return.
    let mut stamp = STAMP.take();
    if stamp.len() < in_graph.num_nodes() {
        stamp.resize(in_graph.num_nodes(), u32::MAX);
    }
    // Iteration is output-to-input, so `rev_idx` 0 is the topmost layer
    // (whose destinations are the seeds) and the original fanout index
    // names the layer in diagnostics.
    for (rev_idx, &fanout) in fanouts.iter().rev().enumerate() {
        let layer = fanouts.len() - 1 - rev_idx;
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for &v in &dst {
            // Only the top layer's destinations are seeds; below that they
            // are sampled sources, which can only be out of range if the
            // graph itself is inconsistent.
            assert!(
                (v as usize) < in_graph.num_nodes(),
                "layer {layer} destination node {v} out of bounds for {} nodes{}",
                in_graph.num_nodes(),
                if layer + 1 == fanouts.len() {
                    " (bad seed)"
                } else {
                    ""
                }
            );
            let in_neighbors = in_graph.neighbors(v);
            if in_neighbors.len() <= fanout {
                edges.extend(in_neighbors.iter().map(|&u| (u, v)));
            } else {
                // Without-replacement sample of `fanout` in-neighbors.
                let sample: Vec<NodeId> = in_neighbors
                    .choose_multiple(rng, fanout)
                    .copied()
                    .collect();
                edges.extend(sample.into_iter().map(|u| (u, v)));
            }
        }
        let block = Block::with_stamps(dst, &edges, &mut stamp);
        dst = block.src_globals().to_vec();
        blocks.push(block);
    }
    STAMP.set(stamp);
    blocks.reverse();
    Batch::new(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(42)
    }

    /// Star: node 0 aggregated from by everyone; 1..=9 point at 0.
    fn star() -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = (1..10).map(|u| (u, 0)).collect();
        CsrGraph::from_edges(10, &edges)
    }

    #[test]
    fn full_fanout_keeps_all_in_edges() {
        let g = star();
        let b = sample_batch(&g, &[0], &[usize::MAX], &mut rng());
        assert_eq!(b.num_layers(), 1);
        assert_eq!(b.blocks()[0].in_degree(0), 9);
        assert_eq!(b.blocks()[0].num_src(), 10);
    }

    #[test]
    fn fanout_bounds_in_degree() {
        let g = star();
        let b = sample_batch(&g, &[0], &[3], &mut rng());
        assert_eq!(b.blocks()[0].in_degree(0), 3);
        // Sampled without replacement: sources are distinct.
        let srcs = b.blocks()[0].in_edges(0);
        let mut unique = srcs.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn two_layer_stacking_invariant() {
        // Chain 0→1→2 plus 3→1.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)]);
        let b = sample_batch(&g, &[2], &[10, 10], &mut rng());
        b.validate().unwrap();
        assert_eq!(b.output_nodes(), &[2]);
        // Layer above: dst {2}, src {2, 1}. Layer below: dst {2, 1},
        // src {2, 1, 0, 3} (node 2 itself has in-neighbor 1 at level 0 too).
        assert_eq!(b.blocks()[1].src_globals(), &[2, 1]);
        let mut inputs = b.input_nodes().to_vec();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn isolated_seed_yields_empty_block() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let b = sample_batch(&g, &[2], &[5], &mut rng());
        assert_eq!(b.blocks()[0].num_edges(), 0);
        assert_eq!(b.blocks()[0].num_src(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = star();
        let b1 = sample_batch(&g, &[0], &[4], &mut Pcg64Mcg::seed_from_u64(7));
        let b2 = sample_batch(&g, &[0], &[4], &mut Pcg64Mcg::seed_from_u64(7));
        assert_eq!(b1, b2);
    }

    #[test]
    fn fanout_order_is_input_first() {
        // Hub 0 ← {1..9}; also 1 ← {2,3}. Seeds {0}. fanouts = [2, MAX]:
        // the OUTPUT layer gets MAX (all 9 in-edges), the input layer 2.
        let mut edges: Vec<(NodeId, NodeId)> = (1..10).map(|u| (u, 0)).collect();
        edges.push((2, 1));
        edges.push((3, 1));
        let g = CsrGraph::from_edges(10, &edges);
        let b = sample_batch(&g, &[0], &[2, usize::MAX], &mut rng());
        assert_eq!(b.blocks()[1].in_degree(0), 9, "output layer unsampled");
        // Input-most layer: node 1 is a dst there with in-degree ≤ 2.
        let bottom = &b.blocks()[0];
        let pos = bottom
            .dst_globals()
            .iter()
            .position(|&v| v == 1)
            .expect("node 1 is a level-0 destination");
        assert!(bottom.in_degree(pos) <= 2);
    }

    /// The stamp scratch outlives a call. A panic inside a block build (a
    /// repeated seed, caught here) must not hand its stamps to the thread's
    /// next call, and a small graph after a large one meets a scratch
    /// longer than it needs.
    #[test]
    fn scratch_survives_a_panicking_call_and_a_change_of_graph() {
        let sample = || sample_batch(&star(), &[0, 3], &[4, 4], &mut rng());
        let want = std::thread::spawn(sample).join().expect("a clean thread samples");
        let hub: Vec<(NodeId, NodeId)> = (1..50).map(|u| (u, 0)).collect();
        sample_batch(&CsrGraph::from_edges(50, &hub), &[0, 49], &[5], &mut rng());
        let repeated = || sample_batch(&star(), &[3, 0, 3], &[4], &mut rng());
        assert!(std::panic::catch_unwind(repeated).is_err());
        assert_eq!(sample(), want);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        sample_batch(&star(), &[], &[3], &mut rng());
    }

    #[test]
    #[should_panic(expected = "layer 1 destination node 99 out of bounds for 10 nodes (bad seed)")]
    fn out_of_range_seed_names_the_top_layer() {
        // Two fanouts → the seed layer is layer 1 (the topmost).
        sample_batch(&star(), &[99], &[3, 3], &mut rng());
    }
}
