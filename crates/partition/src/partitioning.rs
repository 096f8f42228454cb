use betty_graph::{CsrGraph, NodeId};

/// The result of a k-way partitioning: a part label per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<u32>,
    k: usize,
}

impl Partitioning {
    /// Wraps an assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or any label is `>= k`.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        for (i, &p) in assignment.iter().enumerate() {
            assert!((p as usize) < k, "node {i} assigned to part {p} >= k = {k}");
        }
        Self { assignment, k }
    }

    /// The raw per-node labels.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Nodes of each part, in ascending node order.
    pub fn parts(&self) -> Vec<Vec<NodeId>> {
        let mut parts = vec![Vec::new(); self.k];
        for (i, &p) in self.assignment.iter().enumerate() {
            parts[p as usize].push(i as NodeId);
        }
        parts
    }

    /// Total node weight per part.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the node count.
    pub(crate) fn part_weights(&self, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.assignment.len(), "one weight per node");
        let mut out = vec![0.0; self.k];
        for (i, &p) in self.assignment.iter().enumerate() {
            out[p as usize] += weights[i];
        }
        out
    }

    /// Sum of weights of *directed* edges crossing parts.
    ///
    /// For a symmetric graph (every undirected edge stored both ways) this
    /// is twice the undirected cut.
    ///
    /// # Panics
    ///
    /// Panics if the graph's node count differs from the assignment length.
    pub fn edge_cut(&self, graph: &CsrGraph) -> f64 {
        assert_eq!(
            graph.num_nodes(),
            self.assignment.len(),
            "graph/assignment size mismatch"
        );
        graph
            .iter_edges()
            .filter(|&(u, v, _)| self.assignment[u as usize] != self.assignment[v as usize])
            .map(|(_, _, w)| w as f64)
            .sum()
    }

    /// Load-balance factor: `max part weight / (total weight / k)`.
    ///
    /// 1.0 is perfect balance; the conventional constraint is ≤ 1 + ε.
    /// Returns 1.0 for zero total weight.
    pub fn balance(&self, weights: &[f64]) -> f64 {
        let pw = self.part_weights(weights);
        let total: f64 = pw.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let ideal = total / self.k as f64;
        pw.iter().cloned().fold(0.0, f64::max) / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Label queries only the crate's tests make.
    impl Partitioning {
        pub(crate) fn part_of(&self, node: NodeId) -> u32 {
            self.assignment[node as usize]
        }

        pub(crate) fn part_sizes(&self) -> Vec<usize> {
            self.parts().iter().map(Vec::len).collect()
        }

        pub(crate) fn all_parts_nonempty(&self) -> bool {
            self.part_sizes().iter().all(|&s| s > 0)
        }
    }

    fn path4() -> CsrGraph {
        // 0—1—2—3 as a symmetric path.
        CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn parts_and_sizes() {
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.parts(), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.part_sizes(), vec![2, 2]);
        assert!(p.all_parts_nonempty());
    }

    #[test]
    fn edge_cut_counts_directed_crossings() {
        let g = path4();
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        // Only 1—2 crosses, stored in both directions.
        assert_eq!(p.edge_cut(&g), 2.0);
        let worst = Partitioning::new(vec![0, 1, 0, 1], 2);
        assert_eq!(worst.edge_cut(&g), 6.0);
    }

    #[test]
    fn balance_factor() {
        let p = Partitioning::new(vec![0, 0, 0, 1], 2);
        let b = p.balance(&[1.0, 1.0, 1.0, 1.0]);
        assert!((b - 1.5).abs() < 1e-12);
        let even = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert!((even.balance(&[1.0; 4]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_parts() {
        let p = Partitioning::new(vec![0, 1, 1], 2);
        assert_eq!(p.part_weights(&[5.0, 1.0, 2.0]), vec![5.0, 3.0]);
    }

    #[test]
    fn empty_part_detected() {
        let p = Partitioning::new(vec![0, 0], 2);
        assert!(!p.all_parts_nonempty());
    }

    #[test]
    #[should_panic(expected = ">= k")]
    fn label_out_of_range_rejected() {
        Partitioning::new(vec![0, 3], 2);
    }
}
