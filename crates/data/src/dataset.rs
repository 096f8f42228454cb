use std::fmt;

use betty_graph::{CsrGraph, NodeId};

use crate::Features;

/// A structural defect found in a dataset, naming the offending element
/// so a bad export can be fixed at the source instead of surfacing later
/// as a panic (out-of-range gather) or a silent NaN loss.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// An edge references a node outside `0..num_nodes`.
    EdgeOutOfRange {
        /// Index of the edge in the serialized edge list.
        edge_index: usize,
        /// Source endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
        /// Number of nodes in the dataset.
        num_nodes: usize,
    },
    /// A feature value is NaN or ±Inf.
    NonFiniteFeature {
        /// Node (feature-matrix row) holding the value.
        node: usize,
        /// Feature dimension (column) holding the value.
        dim: usize,
        /// The offending value (as a debug string, since NaN ≠ NaN).
        value: String,
    },
    /// Any other inconsistency (counts, label ranges, split overlap).
    Inconsistent(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::EdgeOutOfRange {
                edge_index,
                src,
                dst,
                num_nodes,
            } => write!(
                f,
                "edge {edge_index} ({src} -> {dst}) references a node outside 0..{num_nodes}"
            ),
            DataError::NonFiniteFeature { node, dim, value } => {
                write!(f, "feature[{node}][{dim}] is non-finite ({value})")
            }
            DataError::Inconsistent(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DataError {}

/// A node-classification dataset: graph, features, labels, and splits.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (preset name plus scale).
    pub name: String,
    /// The input graph; edges `u → v` mean `v` aggregates from `u`.
    pub graph: CsrGraph,
    /// Node features, `[num_nodes, feature_dim]`, behind a storage
    /// backend (in-memory dense by default; disk-resident paged via
    /// [`Features::to_paged`]).
    pub features: Features,
    /// Class label per node.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Training node ids (the full-batch output set).
    pub train_idx: Vec<NodeId>,
    /// Validation node ids.
    pub val_idx: Vec<NodeId>,
    /// Test node ids.
    pub test_idx: Vec<NodeId>,
}

impl Dataset {
    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Labels of the given nodes, in order.
    pub fn labels_of(&self, nodes: &[NodeId]) -> Vec<usize> {
        nodes.iter().map(|&v| self.labels[v as usize]).collect()
    }

    /// Checks internal consistency, reporting the first defect as a
    /// structured [`DataError`] naming the offending element.
    ///
    /// # Errors
    ///
    /// [`DataError`] describing the first inconsistency found.
    pub(crate) fn check(&self) -> Result<(), DataError> {
        let n = self.num_nodes();
        if self.features.rows() != n {
            return Err(DataError::Inconsistent(format!(
                "{} feature rows for {n} nodes",
                self.features.rows()
            )));
        }
        if self.labels.len() != n {
            return Err(DataError::Inconsistent(format!(
                "{} labels for {n} nodes",
                self.labels.len()
            )));
        }
        if let Some(&bad) = self.labels.iter().find(|&&l| l >= self.num_classes) {
            return Err(DataError::Inconsistent(format!(
                "label {bad} >= {} classes",
                self.num_classes
            )));
        }
        let mut seen = vec![false; n];
        for idx in [&self.train_idx, &self.val_idx, &self.test_idx] {
            for &v in idx {
                if v as usize >= n {
                    return Err(DataError::Inconsistent(format!(
                        "split node {v} out of bounds"
                    )));
                }
                if seen[v as usize] {
                    return Err(DataError::Inconsistent(format!(
                        "node {v} appears in two splits"
                    )));
                }
                seen[v as usize] = true;
            }
        }
        let d = self.feature_dim();
        let non_finite = self.features.find_non_finite();
        if let Some((i, value)) = non_finite.map_err(|e| DataError::Inconsistent(e.to_string()))? {
            let (node, dim) = locate_flat(i, d);
            return Err(DataError::NonFiniteFeature {
                node,
                dim,
                value: format!("{value}"),
            });
        }
        Ok(())
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found (see
    /// [`Dataset::check`] for the structured form).
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.check().map_err(|e| e.to_string())
    }
}

/// Maps a flat feature index onto `(node, dim)`. With `feature_dim == 0`
/// no row can own the value, so the flat index itself is reported as the
/// node (previously both collapsed to `(0, 0)`, silently misattributing
/// the defect to node 0).
fn locate_flat(i: usize, d: usize) -> (usize, usize) {
    match (i.checked_div(d), i.checked_rem(d)) {
        (Some(node), Some(dim)) => (node, dim),
        _ => (i, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_tensor::Tensor;

    fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            graph: CsrGraph::from_edges(4, &[(0, 1), (2, 3)]),
            features: Features::dense(Tensor::zeros(&[4, 2])),
            labels: vec![0, 1, 0, 1],
            num_classes: 2,
            train_idx: vec![0, 1],
            val_idx: vec![2],
            test_idx: vec![3],
        }
    }

    #[test]
    fn valid_dataset_passes() {
        tiny().validate().unwrap();
        assert_eq!(tiny().feature_dim(), 2);
        assert_eq!(tiny().labels_of(&[3, 0]), vec![1, 0]);
    }

    #[test]
    fn overlapping_splits_rejected() {
        let mut d = tiny();
        d.val_idx = vec![0];
        assert!(d.validate().unwrap_err().contains("two splits"));
    }

    #[test]
    fn label_range_checked() {
        let mut d = tiny();
        d.labels[2] = 9;
        assert!(d.validate().is_err());
    }

    #[test]
    fn feature_rows_checked() {
        let mut d = tiny();
        d.features = Tensor::zeros(&[3, 2]).into();
        assert!(d.validate().is_err());
    }

    #[test]
    fn non_finite_feature_names_node_and_dim() {
        let mut d = tiny();
        let mut vals = vec![0.0f32; 8];
        vals[5] = f32::NAN; // node 2, dim 1
        d.features = Tensor::from_vec(vals, &[4, 2]).unwrap().into();
        match d.check().unwrap_err() {
            DataError::NonFiniteFeature { node, dim, value } => {
                assert_eq!(node, 2);
                assert_eq!(dim, 1);
                assert_eq!(value, "NaN");
            }
            other => panic!("expected NonFiniteFeature, got {other:?}"),
        }
        let mut d2 = tiny();
        let mut vals = vec![0.0f32; 8];
        vals[0] = f32::INFINITY;
        d2.features = Tensor::from_vec(vals, &[4, 2]).unwrap().into();
        let err = d2.check().unwrap_err();
        assert!(err.to_string().contains("feature[0][0]"), "{err}");
    }

    #[test]
    fn zero_dim_features_pass_check() {
        // Regression: with feature_dim == 0 the old node/dim arithmetic
        // (`i.checked_div(0).unwrap_or(0)`) collapsed any index to
        // (0, 0); a zero-width matrix must simply validate (it holds no
        // values that could be non-finite).
        let mut d = tiny();
        d.features = Tensor::zeros(&[4, 0]).into();
        d.check().expect("zero-dim features are consistent");
        assert_eq!(d.feature_dim(), 0);
    }

    #[test]
    fn locate_flat_reports_true_flat_index_for_zero_dim() {
        assert_eq!(locate_flat(5, 2), (2, 1));
        assert_eq!(locate_flat(0, 3), (0, 0));
        // d == 0: the flat index itself is the only truthful coordinate.
        assert_eq!(locate_flat(7, 0), (7, 0));
    }
}
