//! Batch-level (output-node) partitioning strategies, including Betty's
//! REG partitioning (paper §4.3.2, Algorithm 1).

use betty_graph::{dependency_reg, shared_neighbor_graph, Batch, Block, CsrGraph, NodeId};

use crate::multilevel::CutHierarchy;
use crate::{MultilevelPartitioner, Partitioner, Partitioning};

/// Which redundancy information the REG embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RegScope {
    /// Algorithm 1 as published: shared sources of the last (output)
    /// layer only.
    LastLayer,
    /// Shared nodes across the *entire* multi-level dependency — the
    /// objective the paper's future work points at, and the default here
    /// because it minimizes true input redundancy on deep batches.
    #[default]
    FullDependency,
}

/// A strategy that splits a batch's *output nodes* into `k` groups, each of
/// which becomes a micro-batch via [`Batch::restrict`].
///
/// A caller trying several `k` on one batch (the memory-aware planner)
/// calls [`prepare`](OutputPartitioner::prepare) once and
/// [`PreparedSplit::split`] per `k`; an implementor with nothing to share
/// between `k`s implements only `split_outputs`.
pub trait OutputPartitioner {
    /// Human-readable strategy name, used in experiment output.
    fn name(&self) -> &'static str;

    /// Splits the batch's output nodes into `k` disjoint groups whose union
    /// is the full output set. Groups may be empty only when there are
    /// fewer output nodes than `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>>;

    /// Does the `k`-independent work of splitting `batch`, once. Every
    /// [`PreparedSplit::split`] of the result must equal `split_outputs`
    /// for that `k`, whatever was split before it. The default prepares
    /// nothing and forwards each split to `split_outputs`.
    fn prepare<'a>(&'a self, batch: &'a Batch) -> Box<dyn PreparedSplit + 'a> {
        Box::new(Unprepared {
            strategy: self,
            batch,
        })
    }
}

/// A batch prepared by [`OutputPartitioner::prepare`] for splitting at any
/// number of `k`s.
pub trait PreparedSplit {
    /// [`OutputPartitioner::split_outputs`] of the prepared batch; panics
    /// if `k == 0`.
    fn split(&mut self, k: usize) -> Vec<Vec<NodeId>>;
}

/// [`OutputPartitioner::prepare`]'s default: nothing shared between splits.
struct Unprepared<'a, S: ?Sized> {
    strategy: &'a S,
    batch: &'a Batch,
}

impl<S: OutputPartitioner + ?Sized> PreparedSplit for Unprepared<'_, S> {
    fn split(&mut self, k: usize) -> Vec<Vec<NodeId>> {
        self.strategy.split_outputs(self.batch, k)
    }
}

fn locals_to_globals(parts: &Partitioning, last: &Block) -> Vec<Vec<NodeId>> {
    let dst = last.dst_globals();
    parts
        .parts()
        .into_iter()
        .map(|locals| locals.into_iter().map(|l| dst[l as usize]).collect())
        .collect()
}

/// Betty's partitioning strategy: REG construction + multilevel min-cut.
#[derive(Debug, Clone, PartialEq)]
pub struct RegPartitioner {
    cutter: MultilevelPartitioner,
    scope: RegScope,
    hub_cap: usize,
}

impl RegPartitioner {
    /// Creates the strategy with a default multilevel cutter and
    /// [`RegScope::FullDependency`].
    pub fn new(seed: u64) -> Self {
        Self {
            cutter: MultilevelPartitioner::new(seed),
            scope: RegScope::default(),
            hub_cap: 32,
        }
    }

    /// Uses a custom-configured multilevel cutter.
    pub fn with_cutter(mut self, cutter: MultilevelPartitioner) -> Self {
        self.cutter = cutter;
        self
    }

    /// Selects the REG construction (Algorithm 1 vs full dependency).
    pub fn with_scope(mut self, scope: RegScope) -> Self {
        self.scope = scope;
        self
    }

    /// Bounds the dependants-set size used by
    /// [`RegScope::FullDependency`] (see [`dependency_reg`]).
    ///
    /// # Panics
    ///
    /// Panics if `hub_cap < 2`.
    pub fn with_hub_cap(mut self, hub_cap: usize) -> Self {
        assert!(hub_cap >= 2, "hub_cap below 2 drops every pair");
        self.hub_cap = hub_cap;
        self
    }
}

impl OutputPartitioner for RegPartitioner {
    fn name(&self) -> &'static str {
        "betty-reg"
    }

    fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>> {
        assert!(k > 0, "k must be positive");
        self.prepare(batch).split(k)
    }

    /// Builds the REG; its cuts share one lazily built coarsening, whose
    /// level 0 is the REG itself: it is symmetric, sorted and loop-free.
    fn prepare<'a>(&'a self, batch: &'a Batch) -> Box<dyn PreparedSplit + 'a> {
        let last = batch.blocks().last().expect("batch is never empty");
        let reg = match self.scope {
            RegScope::LastLayer => shared_neighbor_graph(last),
            RegScope::FullDependency => dependency_reg(batch, self.hub_cap),
        };
        let unit_weights = vec![1.0; reg.num_nodes()];
        Box::new(PreparedReg {
            hierarchy: self.cutter.symmetric_hierarchy(reg, unit_weights),
            last,
        })
    }
}

/// A batch's REG under its (lazily built) coarsening hierarchy.
struct PreparedReg<'a> {
    hierarchy: CutHierarchy<CsrGraph>,
    last: &'a Block,
}

impl PreparedSplit for PreparedReg<'_> {
    fn split(&mut self, k: usize) -> Vec<Vec<NodeId>> {
        locals_to_globals(&self.hierarchy.cut(k), self.last)
    }
}

/// Adapts a plain [`Partitioner`] into a baseline output-node strategy.
///
/// The baselines of §6.1 "partition the graph based on the IDs of output
/// nodes": range and random ignore structure entirely, while the Metis
/// baseline partitions the *direct adjacency among output nodes* — still
/// redundancy-unaware (it never sees shared non-output neighbors), which is
/// precisely the deficiency REG fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputGraphPartitioner<P> {
    inner: P,
}

impl<P: Partitioner> OutputGraphPartitioner<P> {
    /// Wraps a node partitioner.
    pub fn new(inner: P) -> Self {
        Self { inner }
    }
}

/// Direct adjacency among a block's destination nodes: an (undirected)
/// edge for every block edge whose source is also a destination.
fn output_adjacency(last: &Block) -> CsrGraph {
    let num_dst = last.num_dst();
    let mut edges = Vec::new();
    for (&s, &d) in last
        .edge_src_locals()
        .iter()
        .zip(last.edge_dst_locals().iter())
    {
        // Sources with local index < num_dst *are* destination nodes.
        if (s as usize) < num_dst && s != d {
            edges.push((s, d, 1.0));
            edges.push((d, s, 1.0));
        }
    }
    CsrGraph::from_weighted_edges(num_dst, edges, true)
}

impl<P: Partitioner> OutputPartitioner for OutputGraphPartitioner<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>> {
        assert!(k > 0, "k must be positive");
        let last = batch.blocks().last().expect("batch is never empty");
        let graph = output_adjacency(last);
        let parts = self.inner.partition(&graph, k);
        locals_to_globals(&parts, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomPartitioner, RangePartitioner};

    /// A batch whose output layer matches the paper's Figure 8: outputs
    /// {1, 8, 0, 9} where 1 and 8 share four sources {3,5,6,7}, while 0 and
    /// 9 each have private sources.
    fn fig8_like_batch() -> Batch {
        let top = Block::new(
            vec![1, 8, 0, 9],
            &[
                (2, 1),
                (3, 1),
                (5, 1),
                (6, 1),
                (7, 1),
                (3, 8),
                (5, 8),
                (6, 8),
                (7, 8),
                (4, 8),
                (10, 0),
                (11, 9),
            ],
        );
        Batch::new(vec![top])
    }

    #[test]
    fn reg_groups_heavy_sharers_together() {
        let batch = fig8_like_batch();
        let last = batch.blocks().last().unwrap();
        let cut = MultilevelPartitioner::new(0).partition(&shared_neighbor_graph(last), 2);
        let parts = locals_to_globals(&cut, last);
        assert_eq!(parts.len(), 2);
        let part_of = |v: NodeId| parts.iter().position(|p| p.contains(&v)).unwrap();
        // 1 and 8 share 4 sources: splitting them would cut weight 4.
        assert_eq!(part_of(1), part_of(8), "heavy sharers stay together");
        // Disjoint union covers all outputs.
        let mut all: Vec<NodeId> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 8, 9]);
    }

    #[test]
    fn reg_partitioner_strategy_name() {
        assert_eq!(RegPartitioner::new(0).name(), "betty-reg");
    }

    #[test]
    fn range_baseline_splits_by_output_order() {
        let batch = fig8_like_batch();
        let strat = OutputGraphPartitioner::new(RangePartitioner::new());
        let parts = strat.split_outputs(&batch, 2);
        // Output order is [1, 8, 0, 9] → ranges [1,8] and [0,9].
        assert_eq!(parts[0], vec![1, 8]);
        assert_eq!(parts[1], vec![0, 9]);
    }

    #[test]
    fn random_baseline_covers_all_outputs() {
        let batch = fig8_like_batch();
        let strat = OutputGraphPartitioner::new(RandomPartitioner::new(3));
        let parts = strat.split_outputs(&batch, 2);
        let mut all: Vec<NodeId> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 8, 9]);
        assert_eq!(parts[0].len(), 2);
    }

    #[test]
    fn micro_batches_from_parts_are_valid() {
        let batch = fig8_like_batch();
        for strategy in [
            &RegPartitioner::new(1) as &dyn OutputPartitioner,
            &OutputGraphPartitioner::new(RangePartitioner::new()),
        ] {
            let parts = strategy.split_outputs(&batch, 2);
            for part in &parts {
                let micro = batch.restrict(part);
                micro.validate().unwrap();
                assert_eq!(micro.output_nodes(), part.as_slice());
            }
        }
    }

    #[test]
    fn reg_reduces_redundancy_vs_range_on_adversarial_layout() {
        // Outputs interleaved so that range splits sharers apart: outputs
        // [a0, b0, a1, b1] where the `a`s share sources and the `b`s share
        // sources.
        let top = Block::new(
            vec![0, 1, 2, 3], // a0, b0, a1, b1
            &[
                (10, 0),
                (11, 0),
                (12, 0),
                (10, 2),
                (11, 2),
                (12, 2),
                (20, 1),
                (21, 1),
                (22, 1),
                (20, 3),
                (21, 3),
                (22, 3),
            ],
        );
        let batch = Batch::new(vec![top]);
        let count_inputs = |parts: &[Vec<NodeId>]| -> usize {
            parts
                .iter()
                .filter(|p| !p.is_empty())
                .map(|p| batch.restrict(p).input_nodes().len())
                .sum()
        };
        let reg_parts = RegPartitioner::new(0).split_outputs(&batch, 2);
        let range_parts =
            OutputGraphPartitioner::new(RangePartitioner::new()).split_outputs(&batch, 2);
        assert!(
            count_inputs(&reg_parts) < count_inputs(&range_parts),
            "REG {} vs range {}",
            count_inputs(&reg_parts),
            count_inputs(&range_parts)
        );
    }
}
