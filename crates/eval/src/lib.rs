//! # aneci-eval
//!
//! Downstream-task evaluation toolkit for the AnECI reproduction:
//!
//! * [`metrics`] — accuracy, macro-F1, AUC (Mann–Whitney), modularity
//!   (Eq. 4), NMI, ARI;
//! * [`logreg`] — the frozen-embedding logistic-regression protocol of
//!   Sec. VI-A;
//! * [`kmeans`] — k-means++ for clustering baseline embeddings (Fig. 7);
//! * [`iforest`] — isolation forest for anomaly-scoring baseline embeddings
//!   (Fig. 6);
//! * [`linkpred`] — link-prediction splits, AUC, average precision;
//! * [`tsne`] — exact t-SNE for the Fig. 8 visualizations;
//! * [`timer`] — wall-clock harness for Table V.

pub mod iforest;
pub mod kmeans;
pub mod linkpred;
pub mod logreg;
pub mod metrics;
pub mod timer;
pub mod tsne;

pub use iforest::{isolation_forest_scores, IsolationForest, IsolationForestConfig};
pub use kmeans::{kmeans, kmeans_best_of, KMeansResult};
pub use linkpred::{
    edge_score, edge_scores, link_auc, link_average_precision, split_edges, LinkSplit,
};
pub use logreg::{evaluate_embedding, LogRegConfig, LogisticRegression};
pub use metrics::{accuracy, ari, auc, macro_f1, modularity, nmi};
pub use timer::time_it;
pub use tsne::{tsne, TsneConfig};

#[cfg(test)]
mod proptests {
    use crate::metrics::{accuracy, ari, auc, modularity, modularity_bruteforce, nmi};
    use aneci_graph::AttributedGraph;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Accuracy is permutation-covariant: shuffling (pred, truth) pairs
        /// together never changes it.
        #[test]
        fn accuracy_invariant_to_order(pairs in prop::collection::vec((0usize..4, 0usize..4), 1..30)) {
            let pred: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let truth: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            let base = accuracy(&pred, &truth);
            let mut reversed_p = pred.clone();
            let mut reversed_t = truth.clone();
            reversed_p.reverse();
            reversed_t.reverse();
            prop_assert!((accuracy(&reversed_p, &reversed_t) - base).abs() < 1e-12);
        }

        /// AUC is invariant under any strictly monotone transform of scores.
        #[test]
        fn auc_monotone_invariant(
            scores in prop::collection::vec(-10.0..10.0f64, 4..30),
            flags in prop::collection::vec(any::<bool>(), 30),
        ) {
            let labels = &flags[..scores.len()];
            let base = auc(&scores, labels);
            let transformed: Vec<f64> = scores.iter().map(|&s| (s / 3.0).exp()).collect();
            prop_assert!((auc(&transformed, labels) - base).abs() < 1e-9);
        }

        /// Fast modularity always equals the brute-force Eq. 4 definition.
        #[test]
        fn modularity_matches_definition(
            edges in prop::collection::vec((0usize..10, 0usize..10), 1..30),
            labels in prop::collection::vec(0usize..3, 10),
        ) {
            let g = AttributedGraph::from_edges_plain(10, &edges, None);
            if g.num_edges() == 0 { return Ok(()); }
            let fast = modularity(g.adjacency(), &labels);
            let slow = modularity_bruteforce(&g, &labels);
            prop_assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
        }

        /// Modularity is invariant under community relabeling.
        #[test]
        fn modularity_relabel_invariant(
            edges in prop::collection::vec((0usize..8, 0usize..8), 1..20),
            labels in prop::collection::vec(0usize..3, 8),
        ) {
            let g = AttributedGraph::from_edges_plain(8, &edges, None);
            if g.num_edges() == 0 { return Ok(()); }
            let base = modularity(g.adjacency(), &labels);
            let relabelled: Vec<usize> = labels.iter().map(|&l| 2 - l).collect();
            prop_assert!((modularity(g.adjacency(), &relabelled) - base).abs() < 1e-12);
        }

        /// NMI and ARI hit their maximum on identical partitions and are
        /// symmetric in their arguments.
        #[test]
        fn nmi_ari_axioms(labels in prop::collection::vec(0usize..4, 4..30)) {
            prop_assert!((nmi(&labels, &labels) - 1.0).abs() < 1e-9);
            let other: Vec<usize> = labels.iter().rev().copied().collect();
            prop_assert!((nmi(&labels, &other) - nmi(&other, &labels)).abs() < 1e-9);
            prop_assert!((ari(&labels, &other) - ari(&other, &labels)).abs() < 1e-9);
        }
    }
}
