use crate::NodeId;

/// A directed graph in compressed-sparse-row form, optionally edge-weighted.
///
/// Adjacency is stored by *out*-edges: `neighbors(u)` are the nodes `u`
/// points to. GNN message flow in this codebase follows paper notation
/// (`u → v` means `v` aggregates from `u`), so samplers usually work on the
/// [`CsrGraph::reverse`] view.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    indptr: Vec<usize>,
    indices: Vec<NodeId>,
    weights: Option<Vec<f32>>,
}

impl CsrGraph {
    /// Builds a graph from an edge list `(src, dst)`.
    ///
    /// Parallel edges are kept; neighbor lists are sorted by destination.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::from_weighted_edges(n, edges.iter().map(|&(u, v)| (u, v, 1.0)), false)
    }

    /// Builds a weighted graph from `(src, dst, weight)` triples.
    ///
    /// When `store_weights` is false, weights are discarded (all edges count
    /// as 1.0 in queries). Edges are bucketed by source in one counting
    /// pass and each row is then sorted by destination; the weights of
    /// parallel edges (equal source and destination) land in an unspecified
    /// order among themselves.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_weighted_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f32)>,
        store_weights: bool,
    ) -> Self {
        let triples: Vec<(NodeId, NodeId, f32)> = edges.into_iter().collect();
        let mut indptr = vec![0usize; n + 1];
        for &(u, v, _) in &triples {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of bounds for {n} nodes"
            );
            indptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr[..n].to_vec();
        let mut rows = vec![(0, 0.0); triples.len()];
        for (u, v, w) in triples {
            rows[cursor[u as usize]] = (v, w);
            cursor[u as usize] += 1;
        }
        for u in 0..n {
            rows[indptr[u]..indptr[u + 1]].sort_unstable_by_key(|&(v, _)| v);
        }
        let indices = rows.iter().map(|&(v, _)| v).collect();
        let weights = store_weights.then(|| rows.iter().map(|&(_, w)| w).collect());
        Self {
            indptr,
            indices,
            weights,
        }
    }

    /// Assembles a graph directly from pre-built CSR arrays.
    ///
    /// The fast path for kernels (e.g. the sharded REG SpGEMM) that already
    /// produce row-ordered output: no triple materialization, no re-sort.
    /// Callers must supply a valid CSR with neighbor lists sorted per row —
    /// the same invariants [`CsrGraph::from_weighted_edges`] establishes —
    /// so that structural equality with triple-built graphs holds.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are not a well-formed CSR (`indptr` not
    /// monotone or not ending at `indices.len()`, an endpoint out of
    /// bounds, an unsorted row, or a weight array of mismatched length).
    pub fn from_csr_parts(
        indptr: Vec<usize>,
        indices: Vec<NodeId>,
        weights: Option<Vec<f32>>,
    ) -> Self {
        assert!(!indptr.is_empty(), "indptr must have at least one entry");
        let n = indptr.len() - 1;
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            indptr[n],
            indices.len(),
            "indptr must end at the edge count"
        );
        for u in 0..n {
            assert!(indptr[u] <= indptr[u + 1], "indptr must be monotone");
            let row = &indices[indptr[u]..indptr[u + 1]];
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {u} unsorted");
        }
        assert!(
            indices.iter().all(|&v| (v as usize) < n),
            "edge endpoint out of bounds for {n} nodes"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), indices.len(), "weights length mismatch");
        }
        Self {
            indptr,
            indices,
            weights,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// Whether edge weights are stored.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-neighbors of `u`, sorted.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.indices[self.indptr[u]..self.indptr[u + 1]]
    }

    /// Weights parallel to [`CsrGraph::neighbors`], if stored.
    pub fn neighbor_weights(&self, u: NodeId) -> Option<&[f32]> {
        self.weights
            .as_ref()
            .map(|w| &w[self.indptr[u as usize]..self.indptr[u as usize + 1]])
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// In-degree of every node (one O(E) pass).
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for &v in &self.indices {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Out-degree of every node.
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .map(|u| self.indptr[u + 1] - self.indptr[u])
            .collect()
    }

    /// The reverse graph (every edge flipped), preserving weights.
    ///
    /// A counting transpose: sources are visited in ascending order, so
    /// every reversed row comes out ascending, parallel edges in their
    /// original order.
    pub fn reverse(&self) -> Self {
        let n = self.num_nodes();
        let mut indptr = vec![0usize; n + 1];
        for &v in &self.indices {
            indptr[v as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr[..n].to_vec();
        let mut indices = vec![0; self.indices.len()];
        let mut weights = self.weights.as_ref().map(|w| vec![0.0; w.len()]);
        for u in 0..n {
            for i in self.indptr[u]..self.indptr[u + 1] {
                let at = &mut cursor[self.indices[i] as usize];
                indices[*at] = u as NodeId;
                if let (Some(out), Some(w)) = (&mut weights, &self.weights) {
                    out[*at] = w[i];
                }
                *at += 1;
            }
        }
        Self {
            indptr,
            indices,
            weights,
        }
    }

    /// Iterates all edges as `(src, dst, weight)`; weight is 1.0 when the
    /// graph is unweighted.
    pub fn iter_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            let s = self.indptr[u as usize];
            let e = self.indptr[u as usize + 1];
            (s..e).map(move |i| {
                let w = self.weights.as_ref().map_or(1.0, |ws| ws[i]);
                (u, self.indices[i], w)
            })
        })
    }

    /// Sum of all edge weights (edge count for unweighted graphs).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().map(|&x| x as f64).sum(),
            None => self.num_edges() as f64,
        }
    }

    /// Whether edge `u → v` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Induced subgraph on `nodes`, relabelled `0..nodes.len()`.
    ///
    /// Returns the subgraph and the mapping from new id to original id
    /// (`nodes` itself, copied).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Self, Vec<NodeId>) {
        let n = self.num_nodes();
        let mut local = vec![u32::MAX; n];
        for (i, &g) in nodes.iter().enumerate() {
            assert!((g as usize) < n, "node {g} out of bounds");
            assert!(local[g as usize] == u32::MAX, "duplicate node {g}");
            local[g as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for &g in nodes {
            let s = self.indptr[g as usize];
            let e = self.indptr[g as usize + 1];
            for i in s..e {
                let v = self.indices[i];
                if local[v as usize] != u32::MAX {
                    let w = self.weights.as_ref().map_or(1.0, |ws| ws[i]);
                    edges.push((local[g as usize], local[v as usize], w));
                }
            }
        }
        (
            Self::from_weighted_edges(nodes.len(), edges, self.weights.is_some()),
            nodes.to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0→1, 0→2, 1→3, 2→3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn counts_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert_eq!(g.out_degrees(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn reverse_flips_edges() {
        let g = diamond();
        let r = g.reverse();
        assert_eq!(r.neighbors(3), &[1, 2]);
        assert_eq!(r.neighbors(0), &[] as &[NodeId]);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn weights_preserved_through_reverse() {
        let g = CsrGraph::from_weighted_edges(3, [(0u32, 1u32, 2.5f32), (1, 2, 4.0)], true);
        let r = g.reverse();
        assert_eq!(r.neighbor_weights(1), Some(&[2.5f32][..]));
        assert_eq!(r.neighbor_weights(2), Some(&[4.0f32][..]));
        assert_eq!(g.total_weight(), 6.5);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
    }

    #[test]
    fn parallel_edges_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.num_nodes(), 3);
        // Kept edges: 0→1 and 1→3 (local 1→2). 0→2 and 2→3 drop out.
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
    }

    #[test]
    fn iter_edges_roundtrip() {
        let g = diamond();
        let edges: Vec<(NodeId, NodeId)> = g.iter_edges().map(|(u, v, _)| (u, v)).collect();
        let g2 = CsrGraph::from_edges(4, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    /// The constructor as it was: every triple sorted by `(src, dst)`.
    fn sorted_reference(
        n: usize,
        mut triples: Vec<(NodeId, NodeId, f32)>,
        weighted: bool,
    ) -> CsrGraph {
        triples.sort_unstable_by_key(|a| (a.0, a.1));
        let mut indptr = vec![0usize; n + 1];
        for &(u, _, _) in &triples {
            indptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        let indices = triples.iter().map(|&(_, v, _)| v).collect();
        let weights = weighted.then(|| triples.iter().map(|&(_, _, w)| w).collect());
        CsrGraph {
            indptr,
            indices,
            weights,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn counting_construction_and_transpose_equal_the_global_sort(
            n in 1usize..60,
            edges in proptest::collection::vec((0u32..60, 0u32..60, 0u32..1000), 0..400),
        ) {
            let all: Vec<(NodeId, NodeId, f32)> = edges
                .iter()
                .map(|&(u, v, w)| (u % n as u32, v % n as u32, w as f32))
                .collect();
            let flip = |t: &[(NodeId, NodeId, f32)]| t.iter().map(|&(u, v, w)| (v, u, w)).collect();
            // Identical arrays, unless parallel edges carry weights.
            let mut seen = std::collections::BTreeSet::new();
            let simple: Vec<_> =
                all.iter().copied().filter(|&(u, v, _)| seen.insert((u, v))).collect();
            for (triples, weighted) in [(&all, false), (&simple, true)] {
                let built = CsrGraph::from_weighted_edges(n, triples.iter().copied(), weighted);
                proptest::prop_assert_eq!(&built, &sorted_reference(n, triples.clone(), weighted));
                let reversed = sorted_reference(n, flip(triples), weighted);
                proptest::prop_assert_eq!(built.reverse(), reversed);
            }
            // Parallel weighted edges: each row holds the same weights.
            let bags = |g: &CsrGraph| -> Vec<Vec<(NodeId, u32)>> {
                (0..n as NodeId)
                    .map(|u| {
                        let weights = g.neighbor_weights(u).expect("weighted");
                        let mut row: Vec<_> = (g.neighbors(u).iter().copied())
                            .zip(weights.iter().map(|w| w.to_bits()))
                            .collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            };
            let built = CsrGraph::from_weighted_edges(n, all.iter().copied(), true);
            proptest::prop_assert_eq!(bags(&built), bags(&sorted_reference(n, all.clone(), true)));
            let reversed = sorted_reference(n, flip(&all), true);
            proptest::prop_assert_eq!(bags(&built.reverse()), bags(&reversed));
        }
    }

    #[test]
    fn csr_parts_equal_triple_built_graph() {
        let g = CsrGraph::from_weighted_edges(
            3,
            [(0u32, 1u32, 2.0f32), (0, 2, 1.0), (2, 0, 3.0)],
            true,
        );
        let parts = CsrGraph::from_csr_parts(
            vec![0, 2, 2, 3],
            vec![1, 2, 0],
            Some(vec![2.0, 1.0, 3.0]),
        );
        assert_eq!(g, parts);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn csr_parts_reject_unsorted_rows() {
        CsrGraph::from_csr_parts(vec![0, 2], vec![1, 0], None);
    }
}
