//! # aneci-graph
//!
//! Graph substrate for the AnECI reproduction:
//!
//! * [`attributed::AttributedGraph`] — the attributed network type
//!   (Definition 1), with validated symmetric/binary/hollow adjacency;
//! * [`proximity`] — the high-order proximity `Ã = f(Σ w_l (A + I)^l)` of
//!   Definitions 2–3 plus the derived degrees `k̃` and mass `M̃`;
//! * [`generators`] — degree-corrected SBM generators parameterized to the
//!   paper's four benchmarks (Table II), our documented substitute for the
//!   unavailable dataset downloads;
//! * [`karate`] — the embedded Zachary karate club (real data, tests and
//!   examples);
//! * [`lfr`] — LFR-style power-law community benchmark generator;
//! * [`streaming`] — chunked planted-partition edge stream + direct CSR
//!   assembly for million-node synthetics that never materialize their
//!   edge list;
//! * [`stats`] — components, clustering, degree-tail diagnostics;
//! * [`io`] — JSON + edge-list persistence.

pub mod attributed;
pub mod delta;
pub mod generators;
pub mod io;
pub mod karate;
pub mod lfr;
pub mod proximity;
pub mod stats;
pub mod streaming;

pub use attributed::{AttributedGraph, Split};
pub use delta::{apply_to_csr, apply_to_features, DeltaReport, GraphDelta, GraphError};
pub use generators::{generate_sbm, sample_split, Benchmark, FeatureKind, SbmConfig};
pub use karate::karate_club;
pub use lfr::{generate_lfr, LfrConfig};
pub use proximity::{HighOrder, ProximityConfig, RowStore};
pub use stats::{connected_components, degree_histogram, graph_stats, transitivity, GraphStats};
pub use streaming::{edge_chunks, generate_streamed, StreamedGraph, StreamingConfig};

#[cfg(test)]
mod proptests {
    use crate::attributed::AttributedGraph;
    use crate::proximity::{HighOrder, ProximityConfig};
    use aneci_linalg::DenseMatrix;
    use proptest::prelude::*;

    /// Strategy: a random undirected edge list over `n` nodes.
    fn edge_lists(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        prop::collection::vec((0..n, 0..n), 0..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every constructed graph satisfies the structural invariants.
        #[test]
        fn constructed_graphs_always_valid(edges in edge_lists(12)) {
            let g = AttributedGraph::from_edges(12, &edges, DenseMatrix::identity(12), None);
            prop_assert!(g.validate().is_ok());
        }

        /// Degree sum equals twice the edge count (handshake lemma).
        #[test]
        fn handshake_lemma(edges in edge_lists(10)) {
            let g = AttributedGraph::from_edges_plain(10, &edges, None);
            let deg_sum: usize = g.degrees().iter().sum();
            prop_assert_eq!(deg_sum, 2 * g.num_edges());
        }

        /// `with_edits` then reverse edits restores the original edge set.
        #[test]
        fn edits_are_reversible(
            edges in edge_lists(10),
            add in edge_lists(10),
        ) {
            let g = AttributedGraph::from_edges_plain(10, &edges, None);
            let additions: Vec<(usize, usize)> = add
                .iter()
                .copied()
                .filter(|&(u, v)| u != v && !g.has_edge(u, v))
                .collect();
            let g2 = g.with_edits(&additions, &[]);
            let g3 = g2.with_edits(&[], &additions);
            prop_assert_eq!(g3.edge_list(), g.edge_list());
        }

        /// The power sum `Σ w_l (A + I)^l` of a symmetric adjacency is
        /// symmetric, and row normalization rescales a row without adding
        /// or dropping an entry, so `Ã` has a symmetric support.
        #[test]
        fn unnormalized_high_order_is_symmetric(edges in edge_lists(9)) {
            let g = AttributedGraph::from_edges_plain(9, &edges, None);
            let ho = HighOrder::build(g.adjacency(), &ProximityConfig::uniform(2));
            for (i, j, _) in ho.a_tilde.iter() {
                prop_assert!(ho.a_tilde.get(j, i) != 0.0, "({i},{j}) stored, ({j},{i}) not");
            }
        }

        /// Row-normalized proximity has k̃_i ∈ {0, 1} and M̃ = #nonempty rows.
        #[test]
        fn normalized_proximity_mass(edges in edge_lists(9)) {
            let g = AttributedGraph::from_edges_plain(9, &edges, None);
            let ho = HighOrder::build(g.adjacency(), &ProximityConfig::uniform(2));
            for &k in &ho.k_tilde {
                prop_assert!(k.abs() < 1e-9 || (k - 1.0).abs() < 1e-9);
            }
            let nonempty = ho.k_tilde.iter().filter(|&&k| k > 0.5).count();
            prop_assert!((ho.m_tilde - nonempty as f64).abs() < 1e-9);
        }
    }
}
