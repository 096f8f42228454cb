use std::collections::HashMap;

use crate::NodeId;

/// One level of a multi-level bipartite batch (a DGL-`Block` equivalent).
///
/// A block is a bipartite graph from *source* nodes (feature providers) to
/// *destination* nodes (aggregation targets). Following the DGL convention,
/// the first `num_dst` source nodes **are** the destination nodes — a
/// destination's own features are always available to the layer (needed by
/// e.g. GraphSAGE's self-concatenation).
///
/// Edges are stored grouped by destination, giving O(1) access to each
/// destination's in-edge list — the access pattern both aggregation and
/// in-degree bucketing need.
///
/// All node identity bookkeeping (the paper's "index mapping" dictionaries,
/// §5) lives here: `edge_src`/`edge_dst` are *local* indices, and
/// [`Block::src_globals`]/[`Block::dst_globals`] map locals back to raw-graph
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Global ids of source nodes; the first `num_dst` equal the dst ids.
    src_globals: Vec<NodeId>,
    num_dst: usize,
    /// Per-edge local source index, grouped by destination.
    edge_src: Vec<u32>,
    /// Per-edge local destination index, non-decreasing.
    edge_dst: Vec<u32>,
    /// CSR offsets over destinations into `edge_src`/`edge_dst`.
    dst_indptr: Vec<usize>,
}

impl Block {
    /// Builds a block from destination global ids and `(src, dst)` edges in
    /// global ids.
    ///
    /// Source locals are assigned dst-first (in `dst_globals` order), then
    /// in first-seen edge order.
    ///
    /// # Panics
    ///
    /// Panics if `dst_globals` contains duplicates or an edge's destination
    /// is not in `dst_globals`.
    pub fn new(dst_globals: Vec<NodeId>, edges: &[(NodeId, NodeId)]) -> Self {
        let num_dst = dst_globals.len();
        let mut local: HashMap<NodeId, u32> = HashMap::with_capacity(num_dst + edges.len());
        for (i, &g) in dst_globals.iter().enumerate() {
            let prev = local.insert(g, i as u32);
            assert!(prev.is_none(), "duplicate destination node {g}");
        }
        let mut src_globals = dst_globals;
        let mut locals = Vec::with_capacity(edges.len());
        for &(s, d) in edges {
            let d_local = *local
                .get(&d)
                .unwrap_or_else(|| panic!("edge destination {d} not in dst set"));
            // A local past the destinations is a source met earlier.
            assert!(
                (d_local as usize) < num_dst,
                "edge destination {d} not in dst set"
            );
            let s_local = *local.entry(s).or_insert_with(|| {
                src_globals.push(s);
                (src_globals.len() - 1) as u32
            });
            locals.push((s_local, d_local));
        }
        Self::from_locals(src_globals, num_dst, &locals)
    }

    /// [`Block::new`] without hashing, for a caller that knows the id
    /// range: `stamp` has an entry for every node of the graph the ids come
    /// from, all `u32::MAX` on entry and again on return, and holds each
    /// node's local index in between. The sampler builds every block of
    /// every epoch through here.
    ///
    /// # Panics
    ///
    /// As [`Block::new`], or if an id is outside `stamp`; `stamp` is left
    /// dirty by a panic.
    pub(crate) fn with_stamps(
        dst_globals: Vec<NodeId>,
        edges: &[(NodeId, NodeId)],
        stamp: &mut [u32],
    ) -> Self {
        let num_dst = dst_globals.len();
        for (i, &g) in dst_globals.iter().enumerate() {
            assert!(stamp[g as usize] == u32::MAX, "duplicate destination node {g}");
            stamp[g as usize] = i as u32;
        }
        let mut src_globals = dst_globals;
        let mut locals = Vec::with_capacity(edges.len());
        for &(s, d) in edges {
            let d_local = stamp[d as usize];
            // A stamp past the destinations is a source met earlier.
            assert!(
                (d_local as usize) < num_dst,
                "edge destination {d} not in dst set"
            );
            let slot = &mut stamp[s as usize];
            if *slot == u32::MAX {
                *slot = src_globals.len() as u32;
                src_globals.push(s);
            }
            locals.push((*slot, d_local));
        }
        for &g in &src_globals {
            stamp[g as usize] = u32::MAX;
        }
        Self::from_locals(src_globals, num_dst, &locals)
    }

    /// Lays out `(src, dst)` edges, already in local indices, grouped by
    /// destination and in the order given within each: a stable counting
    /// sort (the identity when edges arrive grouped, as the sampler's do).
    fn from_locals(src_globals: Vec<NodeId>, num_dst: usize, locals: &[(u32, u32)]) -> Self {
        let mut dst_indptr = vec![0usize; num_dst + 1];
        for &(_, d_local) in locals {
            dst_indptr[d_local as usize + 1] += 1;
        }
        for d in 0..num_dst {
            dst_indptr[d + 1] += dst_indptr[d];
        }
        let mut next = dst_indptr.clone();
        let mut edge_src = vec![0u32; locals.len()];
        let mut edge_dst = vec![0u32; locals.len()];
        for &(s_local, d_local) in locals {
            let at = &mut next[d_local as usize];
            edge_src[*at] = s_local;
            edge_dst[*at] = d_local;
            *at += 1;
        }
        Self {
            src_globals,
            num_dst,
            edge_src,
            edge_dst,
            dst_indptr,
        }
    }

    /// The sub-block induced by the destinations `needed` (local indices,
    /// duplicate-free), which become the new destinations in that order;
    /// also returns the kept sources' local indices in new-local order.
    /// Equals [`Block::new`] over `needed`'s global ids and this block's
    /// edges into them, in this block's edge order.
    ///
    /// `mark` is scratch of `num_src` entries, all `u32::MAX` on return, and
    /// on entry too except possibly at `needed`.
    pub(crate) fn restrict(&self, needed: &[u32], mark: &mut [u32]) -> (Block, Vec<u32>) {
        // Destinations take the first locals.
        let mut kept = needed.to_vec();
        for (new, &d) in needed.iter().enumerate() {
            mark[d as usize] = new as u32;
        }
        // The other sources take theirs as this block's edge order first
        // meets them, i.e. by ascending old destination.
        let mut by_old = needed.to_vec();
        by_old.sort_unstable();
        for &d in &by_old {
            for &s in self.in_edges(d as usize) {
                if mark[s as usize] == u32::MAX {
                    mark[s as usize] = kept.len() as u32;
                    kept.push(s);
                }
            }
        }
        let num_edges = needed.iter().map(|&d| self.in_degree(d as usize)).sum();
        let mut edge_src = Vec::with_capacity(num_edges);
        let mut edge_dst = Vec::with_capacity(num_edges);
        let mut dst_indptr = Vec::with_capacity(needed.len() + 1);
        dst_indptr.push(0);
        for (new, &d) in needed.iter().enumerate() {
            let sources = self.in_edges(d as usize);
            edge_src.extend(sources.iter().map(|&s| mark[s as usize]));
            edge_dst.extend(std::iter::repeat_n(new as u32, sources.len()));
            dst_indptr.push(edge_src.len());
        }
        let src_globals = kept
            .iter()
            .map(|&old| {
                mark[old as usize] = u32::MAX;
                self.src_globals[old as usize]
            })
            .collect();
        let block = Self {
            src_globals,
            num_dst: needed.len(),
            edge_src,
            edge_dst,
            dst_indptr,
        };
        (block, kept)
    }

    /// Number of source nodes (destinations included).
    pub fn num_src(&self) -> usize {
        self.src_globals.len()
    }

    /// Number of destination nodes.
    pub fn num_dst(&self) -> usize {
        self.num_dst
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Global ids of all source nodes; the first [`Block::num_dst`] entries
    /// are the destination nodes.
    pub fn src_globals(&self) -> &[NodeId] {
        &self.src_globals
    }

    /// Global ids of the destination nodes.
    pub fn dst_globals(&self) -> &[NodeId] {
        &self.src_globals[..self.num_dst]
    }

    /// Per-edge local source indices, grouped by destination.
    pub fn edge_src_locals(&self) -> &[u32] {
        &self.edge_src
    }

    /// Per-edge local destination indices (non-decreasing).
    pub fn edge_dst_locals(&self) -> &[u32] {
        &self.edge_dst
    }

    /// Local source indices of the in-edges of destination `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= num_dst`.
    pub fn in_edges(&self, d: usize) -> &[u32] {
        assert!(d < self.num_dst, "destination {d} out of bounds");
        &self.edge_src[self.dst_indptr[d]..self.dst_indptr[d + 1]]
    }

    /// In-degree of destination `d`.
    pub fn in_degree(&self, d: usize) -> usize {
        self.in_edges(d).len()
    }

    /// Iterates edges as `(src_global, dst_global)`.
    pub fn iter_global_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edge_src
            .iter()
            .zip(self.edge_dst.iter())
            .map(move |(&s, &d)| (self.src_globals[s as usize], self.src_globals[d as usize]))
    }

    /// Groups destinations by in-degree for bucketed aggregation, clamping
    /// degrees above `max_bucket` into the final bucket (DGL's "in-degree
    /// bucketing", the source of the paper's *bucketing explosion*, §4.4.2).
    ///
    /// Returns `max_bucket + 1` buckets; bucket `i < max_bucket` holds
    /// destinations of in-degree exactly `i`, and bucket `max_bucket` holds
    /// the long tail (`in-degree >= max_bucket`).
    pub fn degree_buckets(&self, max_bucket: usize) -> Vec<Vec<u32>> {
        let mut buckets = vec![Vec::new(); max_bucket + 1];
        for d in 0..self.num_dst {
            let deg = self.in_degree(d).min(max_bucket);
            buckets[deg].push(d as u32);
        }
        buckets
    }

    /// Groups destinations by *exact* in-degree: map from degree to the
    /// destinations with that degree (used by the LSTM aggregator, which
    /// processes equal-length neighbor sequences together).
    pub fn exact_degree_buckets(&self) -> Vec<(usize, Vec<u32>)> {
        let mut map: HashMap<usize, Vec<u32>> = HashMap::new();
        for d in 0..self.num_dst {
            map.entry(self.in_degree(d)).or_default().push(d as u32);
        }
        let mut out: Vec<(usize, Vec<u32>)> = map.into_iter().collect();
        out.sort_unstable_by_key(|(deg, _)| *deg);
        out
    }

    /// The paper's block-size measure (§4.4.3 item 4): each edge is two node
    /// ids plus a weight, i.e. `3 · |E|` stored values.
    pub fn storage_values(&self) -> usize {
        3 * self.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn sample_block() -> Block {
        // dst = {8, 5}; edges into 8 from {4,5,7,11}, into 5 from {4,9}.
        Block::new(
            vec![8, 5],
            &[(4, 8), (5, 8), (7, 8), (11, 8), (4, 5), (9, 5)],
        )
    }

    #[test]
    fn dst_first_src_ordering() {
        let b = sample_block();
        assert_eq!(b.num_dst(), 2);
        assert_eq!(b.dst_globals(), &[8, 5]);
        // dst nodes lead the src list, then first-seen order.
        assert_eq!(b.src_globals(), &[8, 5, 4, 7, 11, 9]);
        assert_eq!(b.num_src(), 6);
        assert_eq!(b.num_edges(), 6);
    }

    #[test]
    fn in_edges_grouped_by_dst() {
        let b = sample_block();
        // dst 0 is global 8: neighbors 4,5,7,11 → locals 2,1,3,4.
        assert_eq!(b.in_edges(0), &[2, 1, 3, 4]);
        assert_eq!(b.in_degree(0), 4);
        assert_eq!(b.in_edges(1), &[2, 5]);
        assert_eq!(b.in_degree(1), 2);
    }

    #[test]
    fn edge_dst_locals_non_decreasing() {
        let b = sample_block();
        let d = b.edge_dst_locals();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn iter_global_edges_roundtrip() {
        let b = sample_block();
        let mut edges: Vec<_> = b.iter_global_edges().collect();
        edges.sort_unstable();
        let mut expected = vec![(4, 8), (5, 8), (7, 8), (11, 8), (4, 5), (9, 5)];
        expected.sort_unstable();
        assert_eq!(edges, expected);
    }

    #[test]
    fn degree_buckets_clamp_tail() {
        let b = sample_block();
        let buckets = b.degree_buckets(3);
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[2], vec![1]); // dst 1 has degree 2
        assert_eq!(buckets[3], vec![0]); // dst 0 has degree 4, clamped
    }

    #[test]
    fn exact_degree_buckets_sorted() {
        let b = sample_block();
        let buckets = b.exact_degree_buckets();
        assert_eq!(buckets, vec![(2, vec![1]), (4, vec![0])]);
    }

    #[test]
    fn isolated_destination_allowed() {
        let b = Block::new(vec![1, 2], &[(3, 1)]);
        assert_eq!(b.in_degree(1), 0);
        assert_eq!(b.num_src(), 3);
    }

    #[test]
    fn storage_values_is_three_per_edge() {
        assert_eq!(sample_block().storage_values(), 18);
    }

    #[test]
    #[should_panic(expected = "not in dst set")]
    fn edge_to_unknown_dst_rejected() {
        Block::new(vec![1], &[(2, 3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_dst_rejected() {
        Block::new(vec![1, 1], &[]);
    }

    #[test]
    fn self_loop_uses_dst_local() {
        let b = Block::new(vec![7], &[(7, 7)]);
        assert_eq!(b.num_src(), 1);
        assert_eq!(b.in_edges(0), &[0]);
    }

    /// A multigraph over `n` nodes: a duplicate-free destination list and
    /// edges into it in no particular order, parallel edges and self-loops
    /// included.
    fn arb_block_input() -> impl Strategy<Value = (usize, Vec<NodeId>, Vec<(NodeId, NodeId)>)> {
        (1usize..40, 0u64..u64::MAX).prop_flat_map(|(n, shuffle)| {
            let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
            ids.shuffle(&mut Pcg64Mcg::seed_from_u64(shuffle));
            let num_dst = 1 + shuffle as usize % n;
            ids.truncate(num_dst);
            let edge = (0..n as NodeId, 0..num_dst);
            (Just(n), Just(ids), proptest::collection::vec(edge, 0..120))
                .prop_map(|(n, dst, picks)| {
                    let edges = picks.into_iter().map(|(s, d)| (s, dst[d])).collect();
                    (n, dst, edges)
                })
        })
    }

    /// Both constructors either panic or build; `Some` is the block.
    fn both(n: usize, dst: &[NodeId], edges: &[(NodeId, NodeId)]) -> [Option<Block>; 2] {
        let hashed = std::panic::catch_unwind(|| Block::new(dst.to_vec(), edges));
        let stamped = std::panic::catch_unwind(|| {
            Block::with_stamps(dst.to_vec(), edges, &mut vec![u32::MAX; n])
        });
        [hashed.ok(), stamped.ok()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The stamp-array constructor is `Block::new` field for field,
        /// leaves its scratch clean, and rejects what `Block::new` rejects.
        #[test]
        fn stamped_build_equals_the_hashed_build((n, dst, edges) in arb_block_input()) {
            let mut stamp = vec![u32::MAX; n];
            let stamped = Block::with_stamps(dst.clone(), &edges, &mut stamp);
            prop_assert_eq!(&stamped, &Block::new(dst.clone(), &edges));
            prop_assert!(stamp.iter().all(|&s| s == u32::MAX));
            // The layout the two share, against its definition: each
            // destination's in-edges are its edges, in the order given.
            let mut want = edges.clone();
            want.sort_by_key(|&(_, d)| dst.iter().position(|&v| v == d)); // stable
            prop_assert_eq!(stamped.iter_global_edges().collect::<Vec<_>>(), want);
            for (d, &g) in dst.iter().enumerate() {
                prop_assert_eq!(stamped.in_degree(d), edges.iter().filter(|e| e.1 == g).count());
            }

            // A repeated destination.
            let mut twice = dst.clone();
            twice.push(dst[edges.len() % dst.len()]);
            prop_assert_eq!(both(n, &twice, &edges), [None, None]);

            // An edge into a node outside the destination set: one never
            // seen, or one already met as a source.
            if let Some(foreign) = (0..n as NodeId).find(|v| !dst.contains(v)) {
                let mut unseen = edges.clone();
                unseen.insert(edges.len() / 2, (dst[0], foreign));
                prop_assert_eq!(both(n, &dst, &unseen), [None, None]);
                let mut met = vec![(foreign, dst[0])];
                met.extend(unseen);
                prop_assert_eq!(both(n, &dst, &met), [None, None]);
            }
        }
    }
}
