//! Redundancy-Embedded Graph construction (paper §4.3.2, Algorithm 1).
//!
//! The REG over the output nodes of a block has an edge `{i, j}` weighted by
//! the number of *shared sources* of destinations `i` and `j` — exactly the
//! entries of `C = Aᵀ·A` restricted to output nodes with the diagonal
//! removed. Splitting `i` and `j` into different micro-batches duplicates
//! each shared source, so a minimum-weight cut of the REG minimizes
//! redundancy.
//!
//! # Parallel construction
//!
//! Both constructions reduce to symmetric co-occurrence counting over a
//! family of node sets (a block's per-source destination lists, or a
//! batch's per-node dependant sets), held flat in a [`SetFamily`] and built
//! by counting passes over block-local ids — no hashing, no per-set
//! allocation — and share one sharded Gustavson kernel,
//! [`co_occurrence_csr`]: the set family is inverted into a CSR
//! row-to-sets index once, destination rows are sharded across
//! [`betty_runtime::map_ranges`] workers when
//! [`betty_runtime::Shards::for_work`] says the pair updates are worth it
//! (weighted by per-row work so power-law hubs don't serialize a shard),
//! each worker counts its rows into a private dense accumulator and emits
//! each row in order from a [`ColumnBitmap`], and shard outputs are
//! concatenated in row order. Weights are exact small-integer counts, so
//! per-row sums are order-independent and the resulting [`CsrGraph`] is
//! **bit-identical for every thread count** — `BETTY_THREADS=1` reproduces
//! the historical serial output byte for byte.

use crate::{Block, ColumnBitmap, CsrGraph};

/// A family of duplicate-free sets over `0..n`, stored back to back: set
/// `k` is `data[offsets[k]..offsets[k + 1]]`.
struct SetFamily {
    offsets: Vec<usize>,
    data: Vec<u32>,
}

impl SetFamily {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn set(&self, k: usize) -> &[u32] {
        &self.data[self.offsets[k]..self.offsets[k + 1]]
    }

    /// `(id, members)` of the sets that hold a pair at all.
    fn paired(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.len())
            .map(|k| (k as u32, self.set(k)))
            .filter(|(_, set)| set.len() >= 2)
    }

    /// Each source's destinations, by block-local ids. Block edges are
    /// grouped by ascending destination, so a counting pass leaves every
    /// list ascending and a parallel edge next to its twin, where it is
    /// dropped.
    fn destinations_by_source(block: &Block) -> SetFamily {
        let n = block.num_src();
        let edges = || block.edge_src_locals().iter().zip(block.edge_dst_locals());
        let mut offsets = vec![0usize; n + 1];
        let mut last = vec![u32::MAX; n];
        for (&s, &d) in edges() {
            if last[s as usize] != d {
                last[s as usize] = d;
                offsets[s as usize + 1] += 1;
            }
        }
        for s in 0..n {
            offsets[s + 1] += offsets[s];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut data = vec![0u32; offsets[n]];
        for (&s, &d) in edges() {
            let at = &mut cursor[s as usize];
            if *at == offsets[s as usize] || data[*at - 1] != d {
                data[*at] = d;
                *at += 1;
            }
        }
        SetFamily { offsets, data }
    }
}

/// Symmetric co-occurrence SpGEMM: for sets `S₁..Sₘ ⊆ 0..n`, returns the
/// weighted graph with `w(i, j) = |{k : i ∈ Sₖ ∧ j ∈ Sₖ}|` for `i ≠ j`.
///
/// The result is independent of set order, of the order within a set and
/// of the thread count (see the module docs). Counts leave as `f32`, exact
/// to 2²⁴: far above what the fanouts let one node's sets number.
fn co_occurrence_csr(n: usize, sets: &SetFamily) -> CsrGraph {
    // The work is the pair updates, Σ|S|², in the gate's units.
    let work = sets.paired().map(|(_, set)| set.len() * set.len()).sum();
    co_occurrence_sharded(n, sets, betty_runtime::Shards::for_work(n, work).count())
}

/// [`co_occurrence_csr`] on `shards` row ranges balanced by pair updates.
fn co_occurrence_sharded(n: usize, sets: &SetFamily, shards: usize) -> CsrGraph {
    // Invert: CSR from row id to the ids of the sets containing it.
    let mut inv_ptr = vec![0usize; n + 1];
    for (_, set) in sets.paired() {
        for &i in set {
            inv_ptr[i as usize + 1] += 1;
        }
    }
    for i in 0..n {
        inv_ptr[i + 1] += inv_ptr[i];
    }
    let mut inv = vec![0u32; inv_ptr[n]];
    let mut cursor = inv_ptr[..n].to_vec();
    for (sid, set) in sets.paired() {
        for &i in set {
            inv[cursor[i as usize]] = sid;
            cursor[i as usize] += 1;
        }
    }
    let containing = |i: usize| {
        inv[inv_ptr[i]..inv_ptr[i + 1]]
            .iter()
            .map(|&sid| sets.set(sid as usize))
    };
    // Per-row Gustavson cost: every containing set is scanned in full. One
    // shard is not weighed.
    let ranges = if shards > 1 {
        let costs: Vec<usize> = (0..n)
            .map(|i| containing(i).map(<[u32]>::len).sum())
            .collect();
        betty_runtime::shard_ranges_weighted(&costs, shards)
    } else {
        betty_runtime::shard_ranges(n, 1)
    };
    let shards = betty_runtime::map_ranges(ranges, |_, range| {
        // Dense counts and first touches, private to this worker. Every
        // update writes a `touched` slot, so a full row writes slot `n` too.
        let mut count = vec![0u32; n];
        let mut touched = vec![0u32; n + 1];
        let mut row = ColumnBitmap::new(n);
        let mut row_ends = Vec::with_capacity(range.len());
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        for i in range {
            let mut len = 0;
            for set in containing(i) {
                for &j in set {
                    let c = &mut count[j as usize];
                    touched[len] = j;
                    len += usize::from(*c == 0);
                    *c += 1;
                }
            }
            for &j in &touched[..len] {
                row.insert(j);
            }
            // The diagonal was counted like any entry (no test per update);
            // it is dropped here.
            row.drain(|j| {
                if j as usize != i {
                    indices.push(j);
                    weights.push(count[j as usize] as f32);
                }
                count[j as usize] = 0;
            });
            row_ends.push(indices.len());
        }
        (row_ends, indices, weights)
    });
    // Merge in row order: shard ranges are contiguous and ordered, so this
    // is a straight concatenation onto the first shard's arrays.
    let nnz: usize = shards.iter().map(|(_, idx, _)| idx.len()).sum();
    let mut shards = shards.into_iter();
    let (row_ends, mut indices, mut weights) = shards.next().unwrap_or_default();
    let mut indptr = Vec::with_capacity(n + 1);
    indptr.push(0usize);
    indptr.extend(row_ends);
    indices.reserve_exact(nnz - indices.len());
    weights.reserve_exact(nnz - weights.len());
    for (row_ends, idx, w) in shards {
        let base = indices.len();
        indptr.extend(row_ends.into_iter().map(|end| base + end));
        indices.extend(idx);
        weights.extend(w);
    }
    debug_assert_eq!(indptr.len(), n + 1);
    CsrGraph::from_csr_parts(indptr, indices, Some(weights))
}

/// Builds the Redundancy-Embedded Graph of a block.
///
/// Nodes of the result are the block's destinations in *local* order
/// (`0..num_dst`); an edge `i → j` (and its mirror `j → i`) carries weight
/// `|sources(i) ∩ sources(j)|`. Self-loops (the diagonal of `Aᵀ·A`) are
/// removed, matching Algorithm 1.
///
/// Implementation is Gustavson's row-wise SpGEMM over the source-to-
/// destination incidence: for each source `k` with destination list `N(k)`,
/// every ordered pair in `N(k) × N(k)` contributes 1 — accumulated sparsely
/// per destination row, sharded across up to
/// [`betty_runtime::configured_threads`] workers. A source contributing to
/// `d` destinations costs `d²` updates; destinations' in-degrees are
/// fanout-bounded, keeping this tractable
/// (the paper computes the same product via `dgl.adj_product_graph`).
pub fn shared_neighbor_graph(block: &Block) -> CsrGraph {
    let by_source = SetFamily::destinations_by_source(block);
    co_occurrence_csr(block.num_dst(), &by_source)
}

/// Builds the *full-dependency* Redundancy-Embedded Graph of a batch.
///
/// Where [`shared_neighbor_graph`] (the paper's Algorithm 1) weighs an
/// output pair by shared sources *in the last layer only*, this variant
/// weighs it by the number of distinct nodes — at **any** level of the
/// multi-level bipartite — that both outputs transitively depend on. That
/// is exactly the count of nodes duplicated when the pair is split, so
/// min-cutting this graph minimizes true redundancy for deep batches.
/// (The paper lists optimizing REG construction as future work; this is
/// that extension, evaluated against Algorithm 1 in the ablation benches.)
///
/// `hub_cap` bounds the dependants-set size per node: a node needed by more
/// than `hub_cap` outputs is duplicated into nearly every micro-batch no
/// matter the cut, so its pair contributions are skipped. Such a set is
/// never built: it is dropped on reaching `hub_cap + 1` members and
/// whatever feeds on its owner is dropped unread (`D(s) ⊇ D(d)` for every
/// edge `s → d`), so propagation reads at most `hub_cap` members per block
/// edge and the pair enumeration is `O(Σ min(|D|, cap)²)`.
///
/// Dependency-set propagation is inherently sequential across layers and
/// stays on the calling thread; the quadratic pair-counting stage runs on
/// the sharded kernel, bit-identical at every thread count.
///
/// Nodes of the result are the batch's output nodes in *local (dst) order*
/// of the last block, matching [`shared_neighbor_graph`].
pub fn dependency_reg(batch: &crate::Batch, hub_cap: usize) -> CsrGraph {
    let n_out = batch.output_nodes().len();
    // D(v) = the output locals depending on v, for the destinations of the
    // block about to be read, by destination-local id. Every node has a
    // dependant, so an empty set marks one over `hub_cap`.
    let mut dep = SetFamily {
        offsets: (0..=n_out).collect(),
        data: (0..n_out as u32).collect(),
    };
    // From the output block down: a block's destinations are the sources
    // of the block above under the same local ids (the stacking invariant),
    // so `dep` is complete before it is read and is replaced whole, after
    // the block scan — a source that is also a destination feeds on its
    // set from above, as every edge out of it does.
    for block in batch.blocks().iter().rev() {
        let by_source = SetFamily::destinations_by_source(block);
        // `seen[o] == s` once output `o` is in the set being built for `s`.
        let mut seen = vec![u32::MAX; n_out];
        let mut offsets = Vec::with_capacity(block.num_src() + 1);
        offsets.push(0usize);
        let mut data: Vec<u32> = Vec::with_capacity(dep.data.len());
        for s in 0..block.num_src() {
            // D(s) = ⋃ D(d) over s's edges s → d, and s itself where it is
            // a destination (a self-edge adds nothing to that).
            let own = (s < block.num_dst()).then_some(s as u32);
            let feeders = || own.iter().chain(by_source.set(s));
            let start = data.len();
            // D(s) ⊇ D(d): one feeder over the cap puts s over it.
            if feeders().all(|&d| !dep.set(d as usize).is_empty()) {
                for &d in feeders() {
                    for &o in dep.set(d as usize) {
                        if seen[o as usize] != s as u32 {
                            seen[o as usize] = s as u32;
                            data.push(o);
                        }
                    }
                    if data.len() - start > hub_cap {
                        data.truncate(start);
                        break;
                    }
                }
            }
            offsets.push(data.len());
        }
        dep = SetFamily { offsets, data };
    }
    co_occurrence_csr(n_out, &dep)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use betty_runtime::with_threads;

    use super::*;
    use crate::NodeId;

    /// Brute-force reference: count shared sources for every dst pair.
    fn brute_force(block: &Block) -> Vec<Vec<f32>> {
        let n = block.num_dst();
        let mut m = vec![vec![0.0f32; n]; n];
        #[allow(clippy::needless_range_loop)] // symmetric index pair
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let si: std::collections::HashSet<u32> =
                    block.in_edges(i).iter().copied().collect();
                m[i][j] = block
                    .in_edges(j)
                    .iter()
                    .collect::<std::collections::HashSet<_>>()
                    .iter()
                    .filter(|s| si.contains(s))
                    .count() as f32;
            }
        }
        m
    }

    /// The pre-rewrite `dependency_reg`: per-edge set clones, repeated
    /// sort/dedup merges, and `HashMap<(u32,u32), f32>` pair accumulation
    /// materialized through `from_weighted_edges`. Kept as the semantic
    /// reference the sharded kernel must reproduce exactly.
    fn dependency_reg_reference(batch: &crate::Batch, hub_cap: usize) -> CsrGraph {
        let outputs = batch.output_nodes();
        let n_out = outputs.len();
        let mut dep: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (i, &o) in outputs.iter().enumerate() {
            dep.insert(o, vec![i as u32]);
        }
        for block in batch.blocks().iter().rev() {
            let mut new_sets: HashMap<NodeId, Vec<u32>> = HashMap::new();
            for (s, d) in block.iter_global_edges() {
                if s == d {
                    continue;
                }
                let Some(d_set) = dep.get(&d).cloned() else {
                    continue;
                };
                new_sets.entry(s).or_default().extend(d_set);
            }
            for (s, mut set) in new_sets {
                set.sort_unstable();
                set.dedup();
                match dep.get_mut(&s) {
                    Some(existing) => {
                        existing.extend(set);
                        existing.sort_unstable();
                        existing.dedup();
                    }
                    None => {
                        dep.insert(s, set);
                    }
                }
            }
        }
        let mut counts: HashMap<(u32, u32), f32> = HashMap::new();
        for set in dep.values() {
            if set.len() < 2 || set.len() > hub_cap {
                continue;
            }
            for (a, &i) in set.iter().enumerate() {
                for &j in &set[a + 1..] {
                    *counts.entry((i, j)).or_insert(0.0) += 1.0;
                }
            }
        }
        let edges = counts
            .into_iter()
            .flat_map(|((i, j), w)| [(i, j, w), (j, i, w)]);
        CsrGraph::from_weighted_edges(n_out, edges, true)
    }

    /// `co_occurrence_csr` as it was before rows came out of a bitmap, on
    /// one worker: `f32` counts, first touches pushed behind a branch, and
    /// each row sorted. The sort-free kernel must reproduce it bit for bit.
    fn co_occurrence_sorted(n: usize, sets: &SetFamily) -> CsrGraph {
        let mut containing = vec![Vec::new(); n];
        for (_, set) in sets.paired() {
            for &i in set {
                containing[i as usize].push(set);
            }
        }
        let mut acc = vec![0.0f32; n];
        let mut touched: Vec<u32> = Vec::new();
        let (mut indptr, mut indices, mut weights) = (vec![0usize], Vec::new(), Vec::new());
        for (i, members) in containing.iter().enumerate() {
            for &j in members.iter().copied().flatten() {
                if acc[j as usize] == 0.0 {
                    touched.push(j);
                }
                acc[j as usize] += 1.0;
            }
            touched.sort_unstable();
            for &j in &touched {
                if j as usize != i {
                    indices.push(j);
                    weights.push(acc[j as usize]);
                }
                acc[j as usize] = 0.0;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        CsrGraph::from_csr_parts(indptr, indices, Some(weights))
    }

    /// `m` random duplicate-free sets over `0..n`, of up to 40 members,
    /// then a star on the middle column twice over — `{c, j}` for every
    /// other `j` — so row `c` touches every column and keeps updating after
    /// its last first touch.
    fn random_family(seed: u64, n: usize, m: usize) -> SetFamily {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(seed);
        let mut columns: Vec<u32> = (0..n as u32).collect();
        let mut family = family_of(std::iter::empty());
        for _ in 0..m {
            columns.shuffle(&mut rng);
            let size = rng.gen_range(0..n.min(40) + 1);
            family.push(&columns[..size]);
        }
        let c = n as u32 / 2;
        for _ in 0..2 {
            for j in (0..n as u32).filter(|&j| j != c) {
                family.push(&[j, c]);
            }
        }
        family
    }

    fn family_of<'a>(sets: impl Iterator<Item = &'a [u32]>) -> SetFamily {
        let mut family = SetFamily {
            offsets: vec![0],
            data: Vec::new(),
        };
        for set in sets {
            family.push(set);
        }
        family
    }

    impl SetFamily {
        fn push(&mut self, set: &[u32]) {
            self.data.extend_from_slice(set);
            self.offsets.push(self.data.len());
        }
    }

    #[test]
    fn sort_free_rows_equal_the_sorted_kernel_at_word_and_summary_edges() {
        for n in [0usize, 1, 2, 63, 64, 65, 4095, 4097] {
            let family = random_family(n as u64, n, 60);
            let oracle = co_occurrence_sorted(n, &family);
            let c = n / 2;
            if n > 1 {
                assert_eq!(oracle.out_degree(c as u32), n - 1, "row {c} touches every column");
            }
            for shards in [1usize, 2, 3, 7] {
                let sharded = co_occurrence_sharded(n, &family, shards);
                assert_eq!(sharded, oracle, "n = {n}, {shards} shards");
            }
            assert_eq!(co_occurrence_csr(n, &family), oracle, "n = {n}, gated");
        }
    }

    #[test]
    fn counts_are_exact_up_to_the_f32_bound() {
        // One triple in 70 000 sets: counts past every u16.
        let family = family_of(std::iter::repeat_n(&[2u32, 0, 1][..], 70_000));
        let reg = co_occurrence_csr(3, &family);
        assert_eq!(reg, co_occurrence_sorted(3, &family));
        assert_eq!(reg.neighbor_weights(0), Some(&[70_000.0f32; 2][..]));
        // The `u32 → f32` emission equals repeated `+= 1.0` for every count
        // through 2²⁴, and no further: there the `f32` sum stops moving.
        let mut sum = 0.0f32;
        for count in 1..=1u32 << 24 {
            sum += 1.0;
            assert_eq!(sum.to_bits(), (count as f32).to_bits(), "count {count}");
        }
        assert_eq!(sum + 1.0 + 1.0, sum);
        assert_ne!(((1u32 << 24) + 2) as f32, sum);
    }

    #[test]
    fn matches_brute_force_on_paper_figure8() {
        // Figure 8 input graph: dst {1, 8}; 1 aggregates {0,2,3,5,6,7},
        // 8 aggregates {3,5,6,7,9,4}. Shared = {3,5,6,7} → weight 4.
        let block = Block::new(
            vec![1, 8],
            &[
                (0, 1),
                (2, 1),
                (3, 1),
                (5, 1),
                (6, 1),
                (7, 1),
                (3, 8),
                (5, 8),
                (6, 8),
                (7, 8),
                (9, 8),
                (4, 8),
            ],
        );
        let reg = shared_neighbor_graph(&block);
        assert_eq!(reg.num_nodes(), 2);
        assert_eq!(reg.neighbor_weights(0), Some(&[4.0f32][..]));
        let bf = brute_force(&block);
        assert_eq!(bf[0][1], 4.0);
    }

    #[test]
    fn no_shared_sources_means_no_edges() {
        let block = Block::new(vec![0, 1], &[(2, 0), (3, 1)]);
        let reg = shared_neighbor_graph(&block);
        assert_eq!(reg.num_edges(), 0);
        // Nor does a block without destinations, on one worker or several.
        let empty = crate::Batch::new(vec![Block::new(Vec::new(), &[])]);
        for threads in [1, 4] {
            assert_eq!(with_threads(threads, || dependency_reg(&empty, 32)).num_nodes(), 0);
        }
    }

    #[test]
    fn diagonal_removed() {
        let block = Block::new(vec![0], &[(1, 0), (2, 0)]);
        let reg = shared_neighbor_graph(&block);
        // A single destination shares sources only with itself.
        assert_eq!(reg.num_edges(), 0);
        assert_eq!(reg.num_nodes(), 1);
    }

    #[test]
    fn symmetric_with_mirrored_weights() {
        let block = Block::new(vec![0, 1, 2], &[(5, 0), (5, 1), (5, 2), (6, 1), (6, 2)]);
        let reg = shared_neighbor_graph(&block);
        // 0-1 share {5}: w=1. 1-2 share {5,6}: w=2. 0-2 share {5}: w=1.
        for (i, j, w) in [(0u32, 1u32, 1.0f32), (1, 2, 2.0), (0, 2, 1.0)] {
            let pos = reg.neighbors(i).iter().position(|&v| v == j).unwrap();
            assert_eq!(reg.neighbor_weights(i).unwrap()[pos], w, "edge {i}-{j}");
            let pos = reg.neighbors(j).iter().position(|&v| v == i).unwrap();
            assert_eq!(reg.neighbor_weights(j).unwrap()[pos], w, "edge {j}-{i}");
        }
    }

    #[test]
    fn parallel_block_edges_do_not_double_count() {
        // Duplicate edge (5, 0) must count source 5 once.
        let block = Block::new(vec![0, 1], &[(5, 0), (5, 0), (5, 1)]);
        let reg = shared_neighbor_graph(&block);
        assert_eq!(reg.neighbor_weights(0), Some(&[1.0f32][..]));
    }

    #[test]
    fn dependency_reg_one_layer_matches_last_layer_reg_without_hubs() {
        // For a single-layer batch with no source shared by > hub_cap
        // outputs, the two constructions coincide (the dependency sets are
        // exactly the last layer's shared-source sets).
        let block = Block::new(
            vec![0, 1, 2],
            &[(5, 0), (5, 1), (6, 1), (6, 2), (7, 0), (7, 2)],
        );
        let batch = crate::Batch::new(vec![block.clone()]);
        let last = shared_neighbor_graph(&block);
        let full = dependency_reg(&batch, 64);
        assert_eq!(last, full);
    }

    #[test]
    fn dependency_reg_sees_second_level_sharing() {
        // Outputs 0 and 1 share nothing at level 1, but their level-1
        // sources both depend on node 99 at level 0.
        let top = Block::new(vec![0, 1], &[(10, 0), (11, 1)]);
        let bottom = Block::new(top.src_globals().to_vec(), &[(99, 10), (99, 11)]);
        let batch = crate::Batch::new(vec![bottom, top.clone()]);
        assert_eq!(shared_neighbor_graph(&top).num_edges(), 0);
        let reg = dependency_reg(&batch, 64);
        assert_eq!(reg.num_edges(), 2, "mirrored shared-99 edge");
        assert_eq!(reg.neighbor_weights(0), Some(&[1.0f32][..]));
    }

    #[test]
    fn dependency_reg_counts_intermediate_shared_nodes() {
        // Node 10 is itself shared at level 1 *and* brings a shared level-0
        // source 99: both count (both get duplicated on a split).
        let top = Block::new(vec![0, 1], &[(10, 0), (10, 1)]);
        let bottom = Block::new(top.src_globals().to_vec(), &[(99, 10)]);
        let batch = crate::Batch::new(vec![bottom, top]);
        let reg = dependency_reg(&batch, 64);
        assert_eq!(reg.neighbor_weights(0), Some(&[2.0f32][..]));
    }

    #[test]
    fn dependency_reg_hub_cap_drops_ubiquitous_nodes() {
        // One source shared by all 5 outputs: capped out at hub_cap 4.
        let edges: Vec<(NodeId, NodeId)> = (0..5).map(|d| (100, d)).collect();
        let batch = crate::Batch::new(vec![Block::new((0..5).collect(), &edges)]);
        let capped = dependency_reg(&batch, 4);
        assert_eq!(capped.num_edges(), 0);
        let uncapped = dependency_reg(&batch, 64);
        assert_eq!(uncapped.num_edges(), 5 * 4);
    }

    #[test]
    fn dependency_reg_output_sampled_as_neighbor() {
        // Output 1 is itself a neighbor of output 0: splitting them
        // duplicates node 1, so the pair must carry weight.
        let block = Block::new(vec![0, 1], &[(1, 0)]);
        let batch = crate::Batch::new(vec![block]);
        let reg = dependency_reg(&batch, 64);
        assert_eq!(reg.neighbor_weights(0), Some(&[1.0f32][..]));
    }

    #[test]
    fn randomized_agreement_with_brute_force() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(99);
        for trial in 0..10 {
            let n_dst = rng.gen_range(2..8);
            let n_src = rng.gen_range(1..12);
            let mut edges = Vec::new();
            for d in 0..n_dst {
                let deg = rng.gen_range(0..5);
                for _ in 0..deg {
                    edges.push((100 + rng.gen_range(0..n_src) as NodeId, d as NodeId));
                }
            }
            let block = Block::new((0..n_dst as NodeId).collect(), &edges);
            let reg = shared_neighbor_graph(&block);
            let bf = brute_force(&block);
            #[allow(clippy::needless_range_loop)] // symmetric index pair
            for i in 0..n_dst {
                for j in 0..n_dst {
                    if i == j {
                        continue;
                    }
                    let w = reg
                        .neighbors(i as u32)
                        .iter()
                        .position(|&v| v == j as u32)
                        .map(|p| reg.neighbor_weights(i as u32).unwrap()[p])
                        .unwrap_or(0.0);
                    assert_eq!(w, bf[i][j], "trial {trial} pair ({i},{j})");
                }
            }
        }
    }

    /// Samples a hub-heavy two-layer batch: a few sources fan into most
    /// outputs (power-law-ish), exercising the weighted sharding and the
    /// once-per-source merge in `dependency_reg`.
    fn hub_heavy_batch(seed: u64) -> crate::Batch {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(seed);
        let n_out = 24u32;
        let outputs: Vec<NodeId> = (0..n_out).collect();
        let mut top_edges = Vec::new();
        for d in 0..n_out {
            // Hubs 100..103 hit almost every output; the long tail is
            // sparse.
            for hub in 100..104 {
                if rng.gen_range(0..10) < 8 {
                    top_edges.push((hub as NodeId, d));
                }
            }
            for _ in 0..rng.gen_range(0..4) {
                top_edges.push((200 + rng.gen_range(0..40) as NodeId, d));
            }
        }
        let top = Block::new(outputs, &top_edges);
        let mut bot_edges = Vec::new();
        for &s in top.src_globals() {
            for _ in 0..rng.gen_range(0..3) {
                bot_edges.push((1000 + rng.gen_range(0..30) as NodeId, s));
            }
        }
        let bottom = Block::new(top.src_globals().to_vec(), &bot_edges);
        crate::Batch::new(vec![bottom, top])
    }

    #[test]
    fn hub_heavy_dependency_reg_identical_to_reference() {
        // Satellite regression: the borrowed-set, merge-once-per-source
        // propagation plus the sharded kernel must reproduce the original
        // clone-per-edge implementation exactly, hubs and all.
        for seed in [3u64, 17, 40] {
            let batch = hub_heavy_batch(seed);
            for hub_cap in [4usize, 16, 64] {
                let reference = dependency_reg_reference(&batch, hub_cap);
                let rewritten = dependency_reg(&batch, hub_cap);
                assert_eq!(reference, rewritten, "seed {seed} hub_cap {hub_cap}");
            }
        }
    }

    #[test]
    fn reg_bit_identical_across_thread_counts() {
        let batch = hub_heavy_batch(7);
        let block = &batch.blocks()[batch.blocks().len() - 1];
        let serial = with_threads(1, || shared_neighbor_graph(block));
        let serial_dep = with_threads(1, || dependency_reg(&batch, 32));
        for threads in [2usize, 3, 8] {
            assert_eq!(
                serial,
                with_threads(threads, || shared_neighbor_graph(block)),
                "shared_neighbor_graph threads={threads}"
            );
            assert_eq!(
                serial_dep,
                with_threads(threads, || dependency_reg(&batch, 32)),
                "dependency_reg threads={threads}"
            );
        }
    }

    /// A power-law batch of `layers` blocks over `n_out` outputs, built
    /// block by block from the top: source popularity falls off cubically,
    /// sources are drawn from the block's own destinations as often as from
    /// fresh ids, parallel edges and self-edges occur, and destination 0 of
    /// every block has its self-edge as its only in-edge. With a finite
    /// `hub_cap` below `n_out`, two fresh sources of the top block sit on
    /// the saturation boundary: one feeds exactly `hub_cap` outputs, one
    /// `hub_cap + 1` — and the blocks below draw edges into both.
    fn power_law_batch(seed: u64, layers: usize, n_out: u32, hub_cap: usize) -> crate::Batch {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_pcg::Pcg64Mcg::seed_from_u64(seed);
        let mut dst: Vec<NodeId> = (0..n_out).collect();
        let mut fresh = 1_000 * (layers as NodeId + 1);
        let mut blocks = Vec::new();
        for layer in 0..layers {
            let pool = 4 * dst.len() as NodeId;
            let mut edges = vec![(dst[0], dst[0])];
            for &d in &dst[1..] {
                for _ in 0..rng.gen_range(0..6) {
                    let skew = rng.gen_range(0.0f64..1.0).powi(3);
                    let s = if rng.gen_range(0..2) == 0 {
                        dst[(skew * dst.len() as f64) as usize]
                    } else {
                        fresh + (skew * pool as f64) as NodeId
                    };
                    edges.push((s, d));
                    if rng.gen_range(0..8) == 0 {
                        edges.push((s, d));
                    }
                }
            }
            if layer == 0 && hub_cap < n_out as usize {
                let (at_cap, over_cap) = (fresh + pool, fresh + pool + 1);
                edges.extend((0..hub_cap as NodeId).map(|d| (at_cap, d)));
                edges.extend((0..=hub_cap as NodeId).map(|d| (over_cap, d)));
            }
            fresh += pool + 2;
            let block = Block::new(dst, &edges);
            dst = block.src_globals().to_vec();
            blocks.push(block);
        }
        blocks.reverse();
        crate::Batch::new(blocks)
    }

    #[test]
    fn saturation_boundary_keeps_the_set_at_the_cap_and_drops_the_one_over_it() {
        // Source 100 feeds outputs 0..3, source 101 outputs 0..=3; below,
        // 200 depends on 100 alone and 201 on 101 alone.
        let top_edges: Vec<(NodeId, NodeId)> = (0..3)
            .map(|d| (100, d))
            .chain((0..4).map(|d| (101, d)))
            .collect();
        let top = Block::new((0..5).collect(), &top_edges);
        let bottom = Block::new(top.src_globals().to_vec(), &[(200, 100), (201, 101)]);
        let batch = crate::Batch::new(vec![bottom, top]);
        let reg = dependency_reg(&batch, 3);
        // 100 and 200 each pair outputs 0, 1, 2; 101 and 201 pair nothing.
        for i in 0..3u32 {
            let others: Vec<u32> = (0..3).filter(|&j| j != i).collect();
            assert_eq!(reg.neighbors(i), others.as_slice());
            assert_eq!(reg.neighbor_weights(i), Some(&[2.0f32, 2.0][..]));
        }
        assert_eq!(reg.out_degree(3) + reg.out_degree(4), 0);
        assert_eq!(reg, dependency_reg_reference(&batch, 3));
        // One step up the cap lets 101 and 201 in.
        assert_eq!(
            dependency_reg(&batch, 4).neighbor_weights(3),
            Some(&[2.0f32; 3][..])
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn dependency_reg_equals_the_hashmap_reference_at_every_cap(
            seed in 0u64..1 << 32,
            layers in 1usize..4,
            n_out in 6u32..60,
        ) {
            for hub_cap in [2usize, 3, 32, usize::MAX] {
                let batch = power_law_batch(seed, layers, n_out, hub_cap);
                let reference = dependency_reg_reference(&batch, hub_cap);
                for threads in [1usize, 4] {
                    proptest::prop_assert_eq!(
                        &reference,
                        &with_threads(threads, || dependency_reg(&batch, hub_cap)),
                        "seed {} layers {} n_out {} hub_cap {} threads {}",
                        seed, layers, n_out, hub_cap, threads
                    );
                }
            }
        }

        #[test]
        fn sort_free_rows_equal_the_sorted_kernel_on_random_families(
            seed in 0u64..1 << 32,
            n in 0usize..300,
            m in 0usize..80,
        ) {
            let family = random_family(seed, n, m);
            proptest::prop_assert_eq!(
                co_occurrence_csr(n, &family),
                co_occurrence_sorted(n, &family),
                "seed {} n {} m {}", seed, n, m
            );
        }

        #[test]
        fn shared_neighbor_graph_equals_brute_force_on_multigraph_blocks(
            seed in 0u64..1 << 32,
            n_out in 2u32..24,
        ) {
            let batch = power_law_batch(seed, 1, n_out, usize::MAX);
            let block = &batch.blocks()[0];
            let expected = brute_force(block);
            for threads in [1usize, 4] {
                let reg = with_threads(threads, || shared_neighbor_graph(block));
                for i in 0..n_out {
                    let row: Vec<(u32, f32)> = (0..n_out)
                        .map(|j| (j, expected[i as usize][j as usize]))
                        .filter(|&(_, w)| w != 0.0)
                        .collect();
                    let got: Vec<(u32, f32)> = reg
                        .neighbors(i)
                        .iter()
                        .copied()
                        .zip(reg.neighbor_weights(i).unwrap().iter().copied())
                        .collect();
                    proptest::prop_assert_eq!(row, got, "seed {} row {} threads {}", seed, i, threads);
                }
            }
        }
    }
}
