use std::collections::HashMap;

use crate::{Block, NodeId};

/// A full GNN batch: the multi-level bipartite structure of §4.2.2.
///
/// `blocks[0]` is the *input-most* layer (largest source set) and
/// `blocks[num_layers() - 1]` the *output* layer whose destinations are the
/// labelled training nodes. The stacking invariant — layer `i`'s
/// destinations are exactly layer `i+1`'s sources — is established by
/// [`crate::sample_batch`] and preserved by [`Batch::restrict`];
/// [`Batch::validate`] checks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    blocks: Vec<Block>,
}

impl Batch {
    /// Wraps pre-built blocks into a batch.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or the stacking invariant does not hold.
    pub fn new(blocks: Vec<Block>) -> Self {
        assert!(!blocks.is_empty(), "a batch needs at least one block");
        let batch = Self { blocks };
        batch
            .validate()
            .unwrap_or_else(|e| panic!("invalid block stack: {e}"));
        batch
    }

    /// The per-layer blocks, input-most first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of GNN layers this batch feeds.
    pub fn num_layers(&self) -> usize {
        self.blocks.len()
    }

    /// Global ids of the input nodes (whose raw features are loaded).
    pub fn input_nodes(&self) -> &[NodeId] {
        self.blocks[0].src_globals()
    }

    /// Global ids of the output (labelled) nodes.
    pub fn output_nodes(&self) -> &[NodeId] {
        self.blocks
            .last()
            .expect("batch is never empty")
            .dst_globals()
    }

    /// Total source nodes summed over every layer — the paper's
    /// "total number of nodes in all micro-batches" unit used by the
    /// computation-efficiency metric (§6.4) and Table 6.
    pub fn total_src_nodes(&self) -> usize {
        self.blocks.iter().map(Block::num_src).sum()
    }

    /// Total edges over all blocks.
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(Block::num_edges).sum()
    }

    /// Checks the stacking invariant.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated layer boundary.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.blocks.len().saturating_sub(1) {
            let below = self.blocks[i].dst_globals();
            let above = self.blocks[i + 1].src_globals();
            if below != above {
                return Err(format!(
                    "layer {i} dst set ({} nodes) != layer {} src set ({} nodes)",
                    below.len(),
                    i + 1,
                    above.len()
                ));
            }
        }
        Ok(())
    }

    /// Extracts the micro-batch induced by a subset of output nodes — the
    /// core of Betty's batch-level partitioning (§4.2.3, and the artifact's
    /// `block_dataloader.py`): the one-part case of [`Batch::restrict_all`].
    ///
    /// # Panics
    ///
    /// Panics if `output_subset` contains a node that is not an output node
    /// of this batch, or duplicates.
    pub fn restrict(&self, output_subset: &[NodeId]) -> Batch {
        self.restrict_all(&[output_subset])
            .pop()
            .expect("one part in, one micro-batch out")
    }

    /// The micro-batch of each part, in part order, materialized on up to
    /// [`betty_runtime::configured_threads`] workers when
    /// [`betty_runtime::Shards::for_work`] says the restricted edges are
    /// worth it (the result does not depend on the thread count).
    ///
    /// Walks the bipartite stack from the output layer downward, keeping at
    /// each level exactly the in-edges of the destinations needed above, so
    /// every result is a self-contained batch over its part. Blocks store
    /// their edges by destination, so a part costs its own micro-batch's
    /// size, not the whole batch's; edge order and first-seen source order
    /// follow the batch's.
    ///
    /// # Panics
    ///
    /// Panics if a part contains a node that is not an output node of the
    /// batch, or duplicates.
    pub fn restrict_all<P: AsRef<[NodeId]> + Sync>(&self, parts: &[P]) -> Vec<Batch> {
        // The work is the restricted edges; a split covering the outputs
        // restricts every edge of the batch at least once.
        let shards = betty_runtime::Shards::for_work(parts.len(), self.total_edges());
        self.restrict_sharded(parts, shards.count())
    }

    /// [`Batch::restrict_all`] on `shards` contiguous ranges of parts.
    fn restrict_sharded<P: AsRef<[NodeId]> + Sync>(
        &self,
        parts: &[P],
        shards: usize,
    ) -> Vec<Batch> {
        let output_local: HashMap<NodeId, u32> = self
            .output_nodes()
            .iter()
            .enumerate()
            .map(|(local, &v)| (v, local as u32))
            .collect();
        let ranges = betty_runtime::shard_ranges(parts.len(), shards);
        betty_runtime::map_ranges(ranges, |_, range| {
            // Per-block scratch of `Block::restrict`, shared by a worker's parts.
            let mut marks: Vec<Vec<u32>> = self
                .blocks
                .iter()
                .map(|b| vec![u32::MAX; b.num_src()])
                .collect();
            range
                .map(|i| self.restrict_one(parts[i].as_ref(), &output_local, &mut marks))
                .collect::<Vec<Batch>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn restrict_one(
        &self,
        part: &[NodeId],
        output_local: &HashMap<NodeId, u32>,
        marks: &mut [Vec<u32>],
    ) -> Batch {
        let top = self.blocks.len() - 1;
        let mut needed = Vec::with_capacity(part.len());
        for &v in part {
            let Some(&local) = output_local.get(&v) else {
                panic!("{v} is not an output node");
            };
            assert!(
                marks[top][local as usize] == u32::MAX,
                "duplicate output node {v}"
            );
            marks[top][local as usize] = 0;
            needed.push(local);
        }
        let mut sub_blocks: Vec<Block> = Vec::with_capacity(self.blocks.len());
        for (block, mark) in self.blocks.iter().zip(marks.iter_mut()).rev() {
            // A block's sources are the destinations of the block below.
            let (sub, kept) = block.restrict(&needed, mark);
            needed = kept;
            sub_blocks.push(sub);
        }
        sub_blocks.reverse();
        let micro = Batch { blocks: sub_blocks };
        debug_assert!(micro.validate().is_ok(), "restriction keeps the stack");
        micro
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// Two-layer batch modelled on the paper's Figure 7: output nodes
    /// {8, 5}; level-2 sources {4, 5, 7, 8, 11}; level-1 expands one hop
    /// further.
    fn fig7_batch() -> Batch {
        let top = Block::new(vec![8, 5], &[(4, 8), (5, 8), (7, 8), (11, 8), (4, 5), (9, 5)]);
        let mid_dst = top.src_globals().to_vec(); // [8,5,4,7,11,9]
        let mid = Block::new(
            mid_dst,
            &[
                (3, 4),
                (5, 4),
                (8, 4),
                (6, 7),
                (8, 7),
                (10, 11),
                (4, 8),
                (5, 8),
                (4, 5),
                (2, 9),
            ],
        );
        Batch::new(vec![mid, top])
    }

    #[test]
    fn accessors() {
        let b = fig7_batch();
        assert_eq!(b.num_layers(), 2);
        assert_eq!(b.output_nodes(), &[8, 5]);
        assert!(b.input_nodes().len() >= 6);
        assert_eq!(b.total_edges(), 16);
        assert_eq!(
            b.total_src_nodes(),
            b.blocks()[0].num_src() + b.blocks()[1].num_src()
        );
    }

    #[test]
    fn validate_catches_broken_stack() {
        let top = Block::new(vec![1], &[(2, 1)]);
        let bottom = Block::new(vec![9], &[]);
        let batch = Batch { blocks: vec![bottom, top] };
        assert!(batch.validate().is_err());
    }

    #[test]
    fn restrict_single_output() {
        let b = fig7_batch();
        let micro = b.restrict(&[8]);
        assert_eq!(micro.output_nodes(), &[8]);
        micro.validate().unwrap();
        // Top block keeps only edges into 8.
        assert_eq!(micro.blocks()[1].num_edges(), 4);
        // Node 9 (a neighbor only of 5) must not appear anywhere.
        assert!(!micro.input_nodes().contains(&9));
        assert!(!micro.blocks()[1].src_globals().contains(&9));
    }

    #[test]
    fn restrict_preserves_all_in_edges_of_kept_dsts() {
        let b = fig7_batch();
        let micro = b.restrict(&[5]);
        // Output 5 keeps both of its in-edges.
        assert_eq!(micro.blocks()[1].num_edges(), 2);
        // Its sources {5, 4, 9} become mid-level dsts with all their edges.
        let mid = &micro.blocks()[0];
        let dsts = mid.dst_globals().to_vec();
        assert_eq!(dsts, vec![5, 4, 9]);
        for (d, expect_deg) in [(0usize, 1usize), (1, 3), (2, 1)] {
            assert_eq!(mid.in_degree(d), expect_deg, "dst {d}");
        }
    }

    #[test]
    fn restrict_to_everything_is_identity_on_structure() {
        let b = fig7_batch();
        let full = b.restrict(b.output_nodes());
        assert_eq!(full.output_nodes(), b.output_nodes());
        assert_eq!(full.total_edges(), b.total_edges());
        // Same node sets per layer (order may differ).
        for (orig, rest) in b.blocks().iter().zip(full.blocks()) {
            let mut a: Vec<_> = orig.src_globals().to_vec();
            let mut c: Vec<_> = rest.src_globals().to_vec();
            a.sort_unstable();
            c.sort_unstable();
            assert_eq!(a, c);
        }
    }

    #[test]
    fn micro_batches_cover_disjoint_outputs() {
        let b = fig7_batch();
        let m1 = b.restrict(&[8]);
        let m2 = b.restrict(&[5]);
        // Disjoint output union = full output set.
        let mut outs: Vec<NodeId> = m1
            .output_nodes()
            .iter()
            .chain(m2.output_nodes())
            .copied()
            .collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![5, 8]);
        // Redundancy exists: shared sources appear in both micro-batches.
        let s1: HashSet<_> = m1.input_nodes().iter().copied().collect();
        let s2: HashSet<_> = m2.input_nodes().iter().copied().collect();
        assert!(s1.intersection(&s2).count() > 0);
    }

    #[test]
    fn sharded_restriction_matches_one_shard_exactly() {
        let b = fig7_batch();
        let parts: [&[NodeId]; 3] = [&[5], &[8, 5], &[8]];
        let serial = b.restrict_sharded(&parts, 1);
        assert_eq!(serial, b.restrict_all(&parts));
        for shards in [2, 3, 8] {
            assert_eq!(b.restrict_sharded(&parts, shards), serial, "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "not an output node")]
    fn restrict_rejects_non_output() {
        fig7_batch().restrict(&[4]);
    }

    #[test]
    #[should_panic(expected = "duplicate output node")]
    fn restrict_rejects_duplicates() {
        fig7_batch().restrict(&[8, 8]);
    }
}
