//! Named partitioning strategies, matching the paper's comparison set.

use betty_partition::{
    MultilevelPartitioner, OutputGraphPartitioner, OutputPartitioner, RandomPartitioner,
    RangePartitioner, RegPartitioner,
};

/// The four batch-partitioning strategies compared throughout §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Contiguous output-id ranges.
    Range,
    /// Uniformly shuffled output ids.
    Random,
    /// Min-cut of the direct output-node adjacency (redundancy-unaware).
    Metis,
    /// Betty: min-cut of the Redundancy-Embedded Graph.
    Betty,
}

impl StrategyKind {
    /// All strategies in the paper's reporting order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Range,
        StrategyKind::Random,
        StrategyKind::Metis,
        StrategyKind::Betty,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Range => "range",
            StrategyKind::Random => "random",
            StrategyKind::Metis => "metis",
            StrategyKind::Betty => "betty",
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates the output-partitioning strategy for `kind`.
pub(crate) fn build_strategy(kind: StrategyKind, seed: u64) -> Box<dyn OutputPartitioner> {
    match kind {
        StrategyKind::Range => Box::new(OutputGraphPartitioner::new(RangePartitioner::new())),
        StrategyKind::Random => {
            Box::new(OutputGraphPartitioner::new(RandomPartitioner::new(seed)))
        }
        StrategyKind::Metis => Box::new(OutputGraphPartitioner::new(MultilevelPartitioner::new(
            seed,
        ))),
        StrategyKind::Betty => Box::new(RegPartitioner::new(seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::{Batch, Block};

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            StrategyKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(StrategyKind::Betty.to_string(), "betty");
    }

    #[test]
    fn all_strategies_split_a_batch() {
        let batch = Batch::new(vec![Block::new(
            (0..6).collect(),
            &[(10, 0), (10, 1), (11, 2), (11, 3), (12, 4), (12, 5)],
        )]);
        for kind in StrategyKind::ALL {
            let strategy = build_strategy(kind, 1);
            let parts = strategy.split_outputs(&batch, 3);
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, 6, "{kind} lost outputs");
        }
    }
}
