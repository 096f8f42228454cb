//! Community-structured power-law graph generator.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_graph::{CsrGraph, NodeId};

/// Parameters of [`planted_power_law`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlantedPowerLawConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of planted communities (= label classes).
    pub num_communities: usize,
    /// Edges attached per arriving node (preferential attachment).
    pub edges_per_node: usize,
    /// Probability that an edge endpoint is drawn from the whole graph
    /// rather than the node's own community (0 = perfectly separable).
    pub inter_community_p: f64,
    /// Probability that a target is drawn uniformly from earlier arrivals
    /// instead of by preferential attachment — 0 gives the classic
    /// hub-heavy Barabási–Albert tail, higher values diversify neighbor
    /// lists (flatter tail, like co-purchase graphs).
    pub uniform_attachment_p: f64,
}

impl PlantedPowerLawConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, communities exceed nodes, or the
    /// mixing probability is outside `[0, 1]`.
    fn validate(&self) {
        assert!(self.num_nodes > 0, "need at least one node");
        assert!(self.num_communities > 0, "need at least one community");
        assert!(
            self.num_communities <= self.num_nodes,
            "more communities than nodes"
        );
        assert!(self.edges_per_node > 0, "need at least one edge per node");
        assert!(
            (0.0..=1.0).contains(&self.inter_community_p),
            "inter_community_p must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.uniform_attachment_p),
            "uniform_attachment_p must be a probability"
        );
    }
}

/// Generates a directed community-structured preferential-attachment graph
/// plus the planted community label of every node.
///
/// Construction: nodes are dealt round-robin into communities and arrive in
/// random order; each arrival draws `edges_per_node` targets by
/// preferential attachment (size-biased over earlier arrivals) restricted
/// to its community with probability `1 - inter_community_p`. Edges point
/// *arrival → target*, so earlier (popular) nodes accumulate power-law
/// **in**-degree — the distribution GNN aggregation and Fig. 9 care about.
///
/// Deterministic for a given seed.
pub(crate) fn planted_power_law(config: &PlantedPowerLawConfig, seed: u64) -> (CsrGraph, Vec<usize>) {
    config.validate();
    let mut rng = Pcg64Mcg::seed_from_u64(seed);
    let n = config.num_nodes;
    let k = config.num_communities;
    let labels: Vec<usize> = (0..n).map(|i| i % k).collect();

    let mut arrival: Vec<u32> = (0..n as u32).collect();
    arrival.shuffle(&mut rng);

    // Size-biased sampling pools: repeated node ids, globally and per
    // community (the classic Barabási–Albert "urn" implementation).
    let mut global_pool: Vec<u32> = Vec::with_capacity(n * config.edges_per_node * 2);
    let mut community_pool: Vec<Vec<u32>> = vec![Vec::new(); k];
    // Uniform pools hold each arrived node once (uniform choice), the
    // attachment pools hold one copy per received edge (size-biased).
    let mut global_uniform: Vec<u32> = Vec::with_capacity(n);
    let mut community_uniform: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * config.edges_per_node);

    for &u in &arrival {
        let c = labels[u as usize];
        for _ in 0..config.edges_per_node {
            let cross = rng.gen_bool(config.inter_community_p);
            let uniform = rng.gen_bool(config.uniform_attachment_p);
            let pool: &Vec<u32> = match (uniform, cross) {
                (true, true) => &global_uniform,
                (true, false) => &community_uniform[c],
                (false, true) => &global_pool,
                (false, false) => &community_pool[c],
            };
            let target = if pool.is_empty() {
                // Bootstrap: no earlier node in the pool yet.
                if global_pool.is_empty() {
                    break;
                }
                global_pool[rng.gen_range(0..global_pool.len())]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if target != u {
                edges.push((u, target));
                // Receiving an edge increases the target's attachment mass.
                global_pool.push(target);
                community_pool[labels[target as usize]].push(target);
            }
        }
        // The arrival itself becomes attachable.
        global_pool.push(u);
        community_pool[c].push(u);
        global_uniform.push(u);
        community_uniform[c].push(u);
    }
    (CsrGraph::from_edges(n, &edges), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::degree;

    fn config(n: usize) -> PlantedPowerLawConfig {
        PlantedPowerLawConfig {
            num_nodes: n,
            num_communities: 4,
            edges_per_node: 5,
            inter_community_p: 0.1,
            uniform_attachment_p: 0.0,
        }
    }

    #[test]
    fn node_and_edge_counts() {
        let (g, labels) = planted_power_law(&config(500), 1);
        assert_eq!(g.num_nodes(), 500);
        assert_eq!(labels.len(), 500);
        // Every non-bootstrap arrival contributes ~edges_per_node edges.
        assert!(g.num_edges() > 500 * 3, "{} edges", g.num_edges());
        assert!(g.num_edges() <= 500 * 5);
    }

    #[test]
    fn deterministic() {
        let (a, la) = planted_power_law(&config(200), 42);
        let (b, lb) = planted_power_law(&config(200), 42);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn in_degree_is_heavy_tailed() {
        let (g, _) = planted_power_law(&config(3000), 7);
        let degs = g.in_degrees();
        let stats = degree::stats(&degs);
        // Preferential attachment: max in-degree far above the mean.
        assert!(
            stats.max as f64 > 10.0 * stats.mean,
            "max {} mean {}",
            stats.max,
            stats.mean
        );
        // And a long tail exists: the clamped histogram's last bucket is
        // non-trivial (the bucketing-explosion precondition).
        let hist = degree::bucketed_histogram(&degs, 10);
        assert!(hist[10] > 30, "tail bucket {}", hist[10]);
    }

    #[test]
    fn communities_are_assortative() {
        let (g, labels) = planted_power_law(&config(2000), 3);
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v, _) in g.iter_edges() {
            if labels[u as usize] == labels[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra as f64 > 3.0 * inter as f64,
            "intra {intra} vs inter {inter}"
        );
    }

    #[test]
    fn labels_cover_all_communities() {
        let (_, labels) = planted_power_law(&config(100), 5);
        for c in 0..4 {
            assert!(labels.contains(&c), "community {c} empty");
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let mut c = config(10);
        c.inter_community_p = 1.5;
        planted_power_law(&c, 0);
    }
}
