//! Weakly-connected components.

use crate::{CsrGraph, NodeId};

/// Weakly-connected component label per node (labels are `0..count`,
/// assigned in discovery order), plus the component count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    labels: Vec<u32>,
    count: usize,
}

impl Components {

    /// Number of components.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Size of every component, indexed by label.
    pub(crate) fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn largest(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Computes weakly-connected components (edge direction ignored) by BFS.
pub fn weakly_connected_components(graph: &CsrGraph) -> Components {
    let n = graph.num_nodes();
    let reverse = graph.reverse();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n as NodeId {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u).iter().chain(reverse.neighbors(u)) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components {
        labels,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_components_plus_isolate() {
        // {0,1,2} chain, {3,4} pair, {5} isolate.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let cc = weakly_connected_components(&g);
        assert_eq!(cc.count(), 3);
        assert_eq!(cc.labels[0], cc.labels[2]);
        assert_eq!(cc.labels[3], cc.labels[4]);
        assert_ne!(cc.labels[2], cc.labels[3]);
        let mut sizes = cc.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(cc.largest(), 3);
    }

    #[test]
    fn direction_is_ignored() {
        // Only a back-edge connects 1 to 0.
        let g = CsrGraph::from_edges(2, &[(1, 0)]);
        let cc = weakly_connected_components(&g);
        assert_eq!(cc.count(), 1);
    }

    #[test]
    fn empty_and_edgeless() {
        let g = CsrGraph::from_edges(4, &[]);
        let cc = weakly_connected_components(&g);
        assert_eq!(cc.count(), 4);
        assert_eq!(cc.largest(), 1);
    }

    #[test]
    fn generated_graphs_are_mostly_one_component() {
        // The dataset generator's preferential attachment keeps the graph
        // connected up to bootstrap stragglers.
        let g = CsrGraph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        );
        assert_eq!(weakly_connected_components(&g).count(), 1);
    }
}
