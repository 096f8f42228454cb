use std::cmp::Reverse;

use betty_graph::Block;
use betty_tensor::VarId;
use rand::Rng;

use crate::{Linear, LstmCell, Param, Params, Session};

/// Declarative choice of neighbor aggregator (what experiment configs name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregatorSpec {
    /// Degree-normalized mean of neighbor features.
    Mean,
    /// Unnormalized sum.
    Sum,
    /// Max-pooling over a learned transform (GraphSAGE-pool).
    Pool,
    /// Sequence LSTM over neighbor features (GraphSAGE-LSTM).
    Lstm,
}

impl AggregatorSpec {
    /// Name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AggregatorSpec::Mean => "mean",
            AggregatorSpec::Sum => "sum",
            AggregatorSpec::Pool => "pool",
            AggregatorSpec::Lstm => "lstm",
        }
    }
}

/// An instantiated neighbor aggregator, possibly holding parameters.
///
/// Given a [`Block`] and the source-node feature variable
/// `[num_src, in_dim]`, produces the aggregated neighbor representation
/// `[num_dst, in_dim]`. Destinations with no in-edges aggregate to zero.
#[derive(Debug, Clone)]
pub enum Aggregator {
    /// Mean of neighbor features.
    Mean,
    /// Sum of neighbor features.
    Sum,
    /// `max(relu(W·x + b))` over neighbors.
    Pool(Linear),
    /// Final hidden state of an LSTM run over the neighbor sequence. A
    /// layer runs every destination's sequence as one packed op, longest
    /// first, instead of one op per in-degree bucket — the "in-degree
    /// bucketing" the paper analyzes in §4.4.2.
    Lstm(LstmCell),
}

impl Aggregator {
    /// Instantiates an aggregator for `in_dim`-wide features.
    pub fn new(spec: AggregatorSpec, in_dim: usize, rng: &mut impl Rng) -> Self {
        match spec {
            AggregatorSpec::Mean => Aggregator::Mean,
            AggregatorSpec::Sum => Aggregator::Sum,
            AggregatorSpec::Pool => Aggregator::Pool(Linear::new(in_dim, in_dim, rng)),
            AggregatorSpec::Lstm => Aggregator::Lstm(LstmCell::new(in_dim, in_dim, rng)),
        }
    }

    /// Aggregates neighbor features for every destination of `block`.
    pub fn forward(&self, sess: &mut Session, block: &Block, src_feats: VarId) -> VarId {
        let n_dst = block.num_dst();
        match self {
            // Mean/Sum use the fused kernel: no [E, D] message tensor is
            // materialized (mirroring DGL's fused message passing, which is
            // why these aggregators are the memory-cheap ones in Fig. 2).
            Aggregator::Mean => with_edge_lists(sess, block, |sess, edge_src, edge_dst| {
                sess.graph
                    .fused_neighbor_mean(src_feats, edge_src, edge_dst, n_dst)
            }),
            Aggregator::Sum => with_edge_lists(sess, block, |sess, edge_src, edge_dst| {
                sess.graph
                    .fused_neighbor_sum(src_feats, edge_src, edge_dst, n_dst)
            }),
            Aggregator::Pool(fc) => with_edge_lists(sess, block, |sess, edge_src, edge_dst| {
                let messages = sess.graph.gather_rows(src_feats, edge_src);
                let activated = fc.forward_act(sess, messages, true);
                sess.graph.segment_max(activated, edge_dst, n_dst)
            }),
            Aggregator::Lstm(cell) => lstm_aggregate(sess, cell, block, src_feats),
        }
    }
}

impl Params for Aggregator {
    fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        match self {
            Aggregator::Mean | Aggregator::Sum => {}
            Aggregator::Pool(fc) => fc.visit(f),
            Aggregator::Lstm(cell) => cell.visit(f),
        }
    }

    fn visit_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        match self {
            Aggregator::Mean | Aggregator::Sum => {}
            Aggregator::Pool(fc) => fc.visit_mut(f),
            Aggregator::Lstm(cell) => cell.visit_mut(f),
        }
    }
}

/// Runs `f` on the block's edge endpoints (source locals, destination
/// locals) widened into two pooled index lists — what the edge-parallel
/// aggregators consume; the LSTM walks in-edge lists instead.
fn with_edge_lists(
    sess: &mut Session,
    block: &Block,
    f: impl FnOnce(&mut Session, &[usize], &[usize]) -> VarId,
) -> VarId {
    let mut edge_src = sess.graph.take_indices();
    edge_src.extend(block.edge_src_locals().iter().map(|&s| s as usize));
    let mut edge_dst = sess.graph.take_indices();
    edge_dst.extend(block.edge_dst_locals().iter().map(|&d| d as usize));
    let out = f(sess, &edge_src, &edge_dst);
    sess.graph.recycle_indices(edge_src);
    sess.graph.recycle_indices(edge_dst);
    out
}

/// LSTM aggregation as one packed sequence per layer.
///
/// The non-isolated destinations are sorted by in-degree, longest first
/// (ties by id), so step `t` of one [`LstmCell::sequence`] runs exactly
/// those with more than `t` neighbors and reads each one's `t`-th
/// neighbor. Their final hidden states are placed on their destinations'
/// rows in one scatter; isolated destinations aggregate to zero.
fn lstm_aggregate(sess: &mut Session, cell: &LstmCell, block: &Block, src_feats: VarId) -> VarId {
    let n_dst = block.num_dst();
    let degree = |d: usize| block.in_degree(d);
    let mut order = sess.graph.take_indices();
    order.extend((0..n_dst).filter(|&d| degree(d) > 0));
    order.sort_unstable_by_key(|&d| (Reverse(degree(d)), d));
    let mut sizes = sess.graph.take_indices();
    let mut steps = sess.graph.take_indices();
    for t in 0..order.first().map_or(0, |&d| degree(d)) {
        let running = order.partition_point(|&d| degree(d) > t);
        sizes.push(running);
        steps.extend(order[..running].iter().map(|&d| block.in_edges(d)[t] as usize));
    }
    let out = if order.is_empty() {
        sess.graph.zeros_leaf(&[n_dst, cell.hidden_dim()])
    } else {
        let finals = cell.sequence(sess, src_feats, &steps, &sizes);
        sess.graph.scatter_rows(finals, &order, n_dst)
    };
    sess.graph.recycle_indices(steps);
    sess.graph.recycle_indices(sizes);
    sess.graph.recycle_indices(order);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::tests::ParamList;
    use betty_tensor::Tensor;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(5)
    }

    /// dst {0,1}: 0 ← {2,3}, 1 ← {3}.
    fn block() -> Block {
        Block::new(vec![0, 1], &[(2, 0), (3, 0), (3, 1)])
    }

    fn feats(sess: &mut Session) -> VarId {
        // src locals: [0, 1, 2, 3] → globals [0, 1, 2, 3].
        sess.graph.leaf(
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 0.0, 2.0, 4.0, 6.0, 8.0], &[4, 2]).unwrap(),
        )
    }

    #[test]
    fn mean_averages_neighbors() {
        let mut sess = Session::new();
        let x = feats(&mut sess);
        let agg = Aggregator::new(AggregatorSpec::Mean, 2, &mut rng());
        let out = agg.forward(&mut sess, &block(), x);
        let v = sess.graph.value(out);
        assert_eq!(v.shape(), &[2, 2]);
        assert_eq!(v.row(0), &[4.0, 6.0]); // mean of (2,4) and (6,8)
        assert_eq!(v.row(1), &[6.0, 8.0]);
    }

    #[test]
    fn sum_adds_neighbors() {
        let mut sess = Session::new();
        let x = feats(&mut sess);
        let agg = Aggregator::new(AggregatorSpec::Sum, 2, &mut rng());
        let out = agg.forward(&mut sess, &block(), x);
        assert_eq!(sess.graph.value(out).row(0), &[8.0, 12.0]);
    }

    #[test]
    fn pool_is_monotone_in_neighbors() {
        let mut sess = Session::new();
        let x = feats(&mut sess);
        let agg = Aggregator::new(AggregatorSpec::Pool, 2, &mut rng());
        assert!(agg.num_params() > 0);
        let out = agg.forward(&mut sess, &block(), x);
        let v = sess.graph.value(out).clone();
        assert_eq!(v.shape(), &[2, 2]);
        // Pool output is elementwise max over per-neighbor transforms, and
        // dst 0's neighbor set is a superset of dst 1's → row0 ≥ row1.
        for cidx in 0..2 {
            assert!(v.at2(0, cidx) >= v.at2(1, cidx) - 1e-6);
        }
    }

    #[test]
    fn lstm_shapes_and_grad_flow() {
        let mut sess = Session::new();
        let x = feats(&mut sess);
        let mut agg = Aggregator::new(AggregatorSpec::Lstm, 2, &mut rng());
        let out = agg.forward(&mut sess, &block(), x);
        assert_eq!(sess.graph.value(out).shape(), &[2, 2]);
        let loss = sess.graph.sum(out);
        sess.graph.backward(loss);
        // Input features and LSTM weights both receive gradient.
        assert!(sess.graph.grad(x).unwrap().max_abs() > 0.0);
        for p in agg.params_mut() {
            let var = sess.bind(p);
            assert!(sess.graph.grad(var).is_some(), "LSTM param missing grad");
        }
    }

    /// The tape of one LSTM layer is one packed sequence node and one
    /// placement however many distinct degrees and however long the
    /// sequences are, and holds exactly Eq. 5's five values per neighbor
    /// step, the six sequences' final states and the placement rows.
    #[test]
    fn lstm_tapes_one_sequence_node_per_layer() {
        // Degrees 0, 1, 1, 3, 3, 3, 6 over seven destinations.
        let degrees = [0usize, 1, 1, 3, 3, 3, 6];
        let mut edges = Vec::new();
        for (d, &deg) in degrees.iter().enumerate() {
            edges.extend((0..deg).map(|k| (7 + (d + 2 * k) as u32 % 5, d as u32)));
        }
        let b = Block::new((0..7).collect(), &edges);
        let (d, node_steps) = (4, 17);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[b.num_src(), d]));
        let agg = Aggregator::new(AggregatorSpec::Lstm, d, &mut rng());
        let (nodes, bytes) = (sess.graph.len(), sess.activation_bytes());
        let out = agg.forward(&mut sess, &b, x);
        assert_eq!(sess.graph.value(out).shape(), &[7, d]);
        // Two parameter leaves, then the sequence and the scatter.
        assert_eq!(sess.graph.len() - nodes, 2 + 1 + 1);
        let values = agg.num_params() + 5 * node_steps * d + 6 * d + 7 * d;
        assert_eq!(sess.activation_bytes() - bytes, values * 4);
    }

    /// Each destination's row is the cell run over its own neighbor list
    /// alone, bit for bit: the packing only batches sequences, it never
    /// mixes them.
    #[test]
    fn packed_rows_equal_each_destination_run_alone() {
        let b = Block::new((0..5).collect(), &[(5, 0), (6, 0), (7, 1), (5, 3), (8, 3), (6, 3), (7, 4)]);
        let mut sess = Session::new();
        let feats = betty_tensor::randn(&[b.num_src(), 3], &mut Pcg64Mcg::seed_from_u64(4));
        let x = sess.graph.leaf(feats);
        let Aggregator::Lstm(cell) = Aggregator::new(AggregatorSpec::Lstm, 3, &mut rng()) else {
            unreachable!("an LSTM spec builds an LSTM aggregator")
        };
        let out = lstm_aggregate(&mut sess, &cell, &b, x);
        let packed = sess.graph.value(out).clone();
        for d in 0..b.num_dst() {
            let steps: Vec<usize> = b.in_edges(d).iter().map(|&s| s as usize).collect();
            let alone = if steps.is_empty() {
                vec![0.0; 3]
            } else {
                let h = cell.sequence(&mut sess, x, &steps, &vec![1; steps.len()]);
                sess.graph.value(h).data().to_vec()
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(packed.row(d)), bits(&alone), "destination {d}");
        }
    }

    #[test]
    fn isolated_destination_aggregates_to_zero() {
        let b = Block::new(vec![0, 1], &[(2, 0)]); // dst 1 isolated
        for spec in [
            AggregatorSpec::Mean,
            AggregatorSpec::Sum,
            AggregatorSpec::Pool,
            AggregatorSpec::Lstm,
        ] {
            let mut sess = Session::new();
            let x = sess.graph.leaf(Tensor::ones(&[3, 2]));
            let agg = Aggregator::new(spec, 2, &mut rng());
            let out = agg.forward(&mut sess, &b, x);
            let v = sess.graph.value(out);
            assert_eq!(v.row(1), &[0.0, 0.0], "{}: isolated dst", spec.name());
        }
    }

    #[test]
    fn lstm_empty_block_is_all_zero() {
        let b = Block::new(vec![0, 1], &[]);
        let mut sess = Session::new();
        let x = sess.graph.leaf(Tensor::ones(&[2, 3]));
        let agg = Aggregator::new(AggregatorSpec::Lstm, 3, &mut rng());
        let out = agg.forward(&mut sess, &b, x);
        assert_eq!(sess.graph.value(out).max_abs(), 0.0);
    }

    #[test]
    fn spec_roundtrip() {
        for spec in [
            AggregatorSpec::Mean,
            AggregatorSpec::Sum,
            AggregatorSpec::Pool,
            AggregatorSpec::Lstm,
        ] {
            let built = match Aggregator::new(spec, 4, &mut rng()) {
                Aggregator::Mean => AggregatorSpec::Mean,
                Aggregator::Sum => AggregatorSpec::Sum,
                Aggregator::Pool(_) => AggregatorSpec::Pool,
                Aggregator::Lstm(_) => AggregatorSpec::Lstm,
            };
            assert_eq!(built, spec);
        }
    }

    #[test]
    fn mean_gradcheck_through_block() {
        let input = betty_tensor::randn(&[4, 2], &mut Pcg64Mcg::seed_from_u64(8));
        let b = block();
        let res = betty_tensor::check::check_gradient(&input, |g, x| {
            let mut sess = Session::from_graph(std::mem::take(g));
            let agg = Aggregator::Mean;
            let out = agg.forward(&mut sess, &b, x);
            let loss = sess.graph.tanh(out);
            let loss = sess.graph.sum(loss);
            *g = sess.into_graph();
            loss
        });
        assert!(res.passes(1e-2), "{res:?}");
    }
}
