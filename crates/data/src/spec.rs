//! Named dataset presets mirroring Table 4 of the paper.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_graph::NodeId;
use betty_tensor::Tensor;

use crate::generate::{planted_power_law, PlantedPowerLawConfig};
use crate::Dataset;

/// Shape constants for a synthetic stand-in of one of the paper's datasets.
///
/// `scaled(f)` shrinks the node count (and proportionally the community
/// count floor) so experiments run at laptop scale while keeping degree
/// structure; feature dimensionality and class count stay faithful to
/// Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Preset name.
    pub name: &'static str,
    /// Node count at scale 1.0 (Table 4).
    pub(crate) full_nodes: usize,
    /// Feature dimension (Table 4).
    pub(crate) feature_dim: usize,
    /// Class count.
    pub(crate) num_classes: usize,
    /// Preferential-attachment edges per node (mean out-degree).
    pub(crate) edges_per_node: usize,
    /// Cross-community edge probability.
    pub(crate) inter_community_p: f64,
    /// Fraction of nodes in the training split.
    pub(crate) train_fraction: f64,
    /// Feature noise level (higher = harder task).
    pub(crate) feature_noise: f32,
    /// Uniform-attachment mixing (see
    /// `crate::PlantedPowerLawConfig::uniform_attachment_p`).
    pub(crate) uniform_attachment_p: f64,
    /// Applied scale factor.
    pub(crate) scale: f64,
}

impl DatasetSpec {
    /// Cora: 2,708 nodes, 1,433 features, 7 classes.
    pub fn cora() -> Self {
        Self {
            name: "cora",
            full_nodes: 2_708,
            feature_dim: 1_433,
            num_classes: 7,
            edges_per_node: 2,
            inter_community_p: 0.15,
            train_fraction: 0.45,
            feature_noise: 1.0,
            uniform_attachment_p: 0.3,
            scale: 1.0,
        }
    }

    /// Pubmed: 19,717 nodes, 500 features, 3 classes.
    pub fn pubmed() -> Self {
        Self {
            name: "pubmed",
            full_nodes: 19_717,
            feature_dim: 500,
            num_classes: 3,
            edges_per_node: 2,
            inter_community_p: 0.15,
            train_fraction: 0.45,
            feature_noise: 1.0,
            uniform_attachment_p: 0.3,
            scale: 1.0,
        }
    }

    /// Reddit: 233k nodes, 602 features, 41 classes, very dense (~490 avg
    /// degree in the original; the generator uses a high attachment count).
    pub fn reddit() -> Self {
        Self {
            name: "reddit",
            full_nodes: 232_965,
            feature_dim: 602,
            num_classes: 41,
            edges_per_node: 25,
            inter_community_p: 0.1,
            train_fraction: 0.66,
            feature_noise: 1.2,
            uniform_attachment_p: 0.3,
            scale: 1.0,
        }
    }

    /// ogbn-arxiv: 169k nodes, 128 features, 40 classes.
    pub fn ogbn_arxiv() -> Self {
        Self {
            name: "ogbn-arxiv",
            full_nodes: 169_343,
            feature_dim: 128,
            num_classes: 40,
            edges_per_node: 7,
            inter_community_p: 0.12,
            train_fraction: 0.54,
            feature_noise: 1.2,
            uniform_attachment_p: 0.3,
            scale: 1.0,
        }
    }

    /// ogbn-products: 2.45M nodes, 100 features, 47 classes; the paper's
    /// full training batch is 196,615 nodes (~8%).
    pub fn ogbn_products() -> Self {
        Self {
            name: "ogbn-products",
            full_nodes: 2_449_029,
            feature_dim: 100,
            num_classes: 47,
            edges_per_node: 12,
            inter_community_p: 0.1,
            train_fraction: 0.08,
            feature_noise: 1.2,
            uniform_attachment_p: 0.3,
            scale: 1.0,
        }
    }

    /// All five presets in Table 4 order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::cora(),
            Self::pubmed(),
            Self::reddit(),
            Self::ogbn_arxiv(),
            Self::ogbn_products(),
        ]
    }

    /// Returns the spec with node count scaled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale must be in (0, 1], got {factor}"
        );
        self.scale = factor;
        self
    }

    /// Overrides the feature dimension (examples that want quick runs can
    /// shrink the 1,433-wide Cora features, say).
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        self.feature_dim = dim;
        self
    }

    /// Overrides the mean out-degree (preferential-attachment edges per
    /// node) — used when an experiment's fanout sweep needs denser
    /// neighborhoods than the scaled default.
    pub fn with_edges_per_node(mut self, edges: usize) -> Self {
        assert!(edges > 0, "edges per node must be positive");
        self.edges_per_node = edges;
        self
    }

    /// Overrides the uniform-attachment mixing probability (0 = pure
    /// preferential attachment; higher values spread neighbor lists away
    /// from hubs).
    pub fn with_uniform_attachment(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability required");
        self.uniform_attachment_p = p;
        self
    }

    /// Node count after scaling (at least 10 × classes).
    pub(crate) fn num_nodes(&self) -> usize {
        ((self.full_nodes as f64 * self.scale) as usize).max(self.num_classes * 10)
    }

    /// Materializes the dataset (deterministic per seed).
    pub fn generate(&self, seed: u64) -> Dataset {
        let n = self.num_nodes();
        let config = PlantedPowerLawConfig {
            num_nodes: n,
            num_communities: self.num_classes,
            edges_per_node: self.edges_per_node,
            inter_community_p: self.inter_community_p,
            uniform_attachment_p: self.uniform_attachment_p,
        };
        let (graph, labels) = planted_power_law(&config, seed);

        // Label-correlated features: community centroid + Gaussian noise.
        let mut rng = Pcg64Mcg::seed_from_u64(seed.wrapping_add(1));
        let centroids = betty_tensor::randn(&[self.num_classes, self.feature_dim], &mut rng);
        let mut feats = vec![0.0f32; n * self.feature_dim];
        for (i, &label) in labels.iter().enumerate() {
            let base = centroids.row(label);
            for (j, &c) in base.iter().enumerate() {
                feats[i * self.feature_dim + j] =
                    c + self.feature_noise * sample_normal(&mut rng);
            }
        }
        let features =
            Tensor::from_vec(feats, &[n, self.feature_dim]).expect("feature matrix shape");

        // Random splits: train_fraction / rest split evenly into val/test.
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.shuffle(&mut rng);
        let n_train = ((n as f64 * self.train_fraction) as usize).max(1);
        let n_val = (n - n_train) / 2;
        let train_idx = order[..n_train].to_vec();
        let val_idx = order[n_train..n_train + n_val].to_vec();
        let test_idx = order[n_train + n_val..].to_vec();

        let dataset = Dataset {
            name: format!("{}[n={}]", self.name, n),
            graph,
            features: features.into(),
            labels,
            num_classes: self.num_classes,
            train_idx,
            val_idx,
            test_idx,
        };
        debug_assert!(dataset.validate().is_ok());
        dataset
    }
}

fn sample_normal(rng: &mut impl Rng) -> f32 {
    // Box–Muller (single value; the pair's partner is discarded).
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_preset_generates_valid_dataset() {
        let ds = DatasetSpec::ogbn_arxiv().scaled(0.005).generate(3);
        ds.validate().unwrap();
        assert!(ds.num_nodes() >= 400);
        assert_eq!(ds.feature_dim(), 128);
        assert_eq!(ds.num_classes, 40);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetSpec::cora().scaled(0.2).generate(9);
        let b = DatasetSpec::cora().scaled(0.2).generate(9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        assert_eq!(a.train_idx, b.train_idx);
    }

    #[test]
    fn features_are_class_separable() {
        // Nearest-centroid on the generated features should beat chance by
        // a wide margin — otherwise accuracy experiments are meaningless.
        let ds = DatasetSpec::pubmed().scaled(0.02).generate(5);
        let k = ds.num_classes;
        let d = ds.feature_dim();
        // Recompute class means from the data.
        let x = ds.features.gather_rows(&(0..ds.num_nodes()).collect::<Vec<_>>());
        let mut means = vec![vec![0.0f32; d]; k];
        let mut counts = vec![0usize; k];
        for i in 0..ds.num_nodes() {
            let l = ds.labels[i];
            counts[l] += 1;
            for (j, m) in means[l].iter_mut().enumerate() {
                *m += x.at2(i, j);
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..ds.num_nodes() {
            let row: Vec<f32> = (0..d).map(|j| x.at2(i, j)).collect();
            let pred = (0..k)
                .min_by(|&a, &b| {
                    let da: f32 = row.iter().zip(&means[a]).map(|(x, m)| (x - m).powi(2)).sum();
                    let db: f32 = row.iter().zip(&means[b]).map(|(x, m)| (x - m).powi(2)).sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            if pred == ds.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.num_nodes() as f64;
        assert!(acc > 0.8, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn all_presets_have_distinct_names() {
        let names: Vec<_> = DatasetSpec::all().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(names, dedup);
    }

    #[test]
    fn minimum_node_floor() {
        let spec = DatasetSpec::cora().scaled(0.0001);
        assert!(spec.num_nodes() >= 70);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        DatasetSpec::cora().scaled(0.0);
    }

    #[test]
    fn feature_dim_override() {
        let ds = DatasetSpec::cora()
            .scaled(0.05)
            .with_feature_dim(16)
            .generate(1);
        assert_eq!(ds.feature_dim(), 16);
    }
}
