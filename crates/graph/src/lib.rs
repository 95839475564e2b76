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
//! * [`io`] — JSON persistence.

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
    use crate::delta::{GraphDelta, GraphError};
    use crate::proximity::{HighOrder, ProximityConfig};
    use aneci_linalg::DenseMatrix;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Strategy: a random undirected edge list over `n` nodes.
    fn edge_lists(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
        prop::collection::vec((0..n, 0..n), 0..40)
    }

    /// One delta's raw draws: added edges, removed edges, isolated nodes
    /// and the number of appended nodes. Ids are taken modulo `n + 2` for
    /// the graph's node count `n` before the delta, so self-loops,
    /// out-of-range ids, duplicates and both endpoint orders all occur.
    type DeltaDraw = (Vec<(usize, usize)>, Vec<(usize, usize)>, Vec<usize>, usize);

    fn delta_draws() -> impl Strategy<Value = Vec<DeltaDraw>> {
        let edges = || prop::collection::vec((0..64usize, 0..64usize), 0..4);
        prop::collection::vec(
            (
                edges(),
                edges(),
                prop::collection::vec(0..64usize, 0..2),
                0..3usize,
            ),
            1..5,
        )
    }

    fn canonical(&(u, v): &(usize, usize)) -> (usize, usize) {
        (u.min(v), u.max(v))
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every delta either fails typed and leaves the graph as it was,
        /// or lands on the naive model `(E ∪ add) ∖ remove ∖
        /// incident(isolated)` (removal wins) with a report that says
        /// exactly what changed; the inverse edge delta restores the start.
        #[test]
        fn deltas_match_an_edge_set_model(
            (n, base) in (0..11usize, prop::collection::vec((0..64usize, 0..64usize), 0..20)),
            draws in delta_draws(),
        ) {
            let base: Vec<(usize, usize)> = match n {
                0 => Vec::new(),
                _ => base.iter().map(|&(u, v)| (u % n, v % n)).collect(),
            };
            let mut g = AttributedGraph::from_edges_plain(n, &base, None);
            let mut model: BTreeSet<(usize, usize)> = g.edge_list().into_iter().collect();
            for (add, remove, isolate, appends) in draws {
                let (n, span) = (g.num_nodes(), g.num_nodes() + 2);
                let n_after = n + appends;
                let ids = |edges: &[(usize, usize)]| -> Vec<(usize, usize)> {
                    edges.iter().map(|&(u, v)| (u % span, v % span)).collect()
                };
                let (add, remove) = (ids(&add), ids(&remove));
                let isolated: BTreeSet<usize> = isolate.iter().map(|u| u % span).collect();
                let delta = GraphDelta {
                    add_edges: add.clone(),
                    remove_edges: remove.clone(),
                    add_nodes: vec![None; appends],
                    remove_nodes: isolated.iter().copied().collect(),
                    ..Default::default()
                };
                let bad_edge = |&(u, v): &(usize, usize)| u == v || u.max(v) >= n_after;
                let refused = add.iter().chain(&remove).any(bad_edge)
                    || isolated.iter().any(|&u| u >= n_after)
                    || add.iter().any(|&(u, v)| isolated.contains(&u) || isolated.contains(&v));

                let before = g.clone();
                let result = g.apply_delta(&delta);
                if refused {
                    prop_assert!(matches!(result, Err(GraphError::Delta(_))), "{delta:?} applied");
                    prop_assert_eq!(g.adjacency(), before.adjacency());
                    prop_assert_eq!(g.features(), before.features());
                    prop_assert_eq!(g.missing_mask(), before.missing_mask());
                    continue;
                }
                let report = result.map_err(|e| TestCaseError::Fail(format!("{delta:?}: {e}")))?;
                let vetoed: BTreeSet<(usize, usize)> = remove.iter().map(canonical).collect();
                let after: BTreeSet<(usize, usize)> = model
                    .iter()
                    .copied()
                    .chain(add.iter().map(canonical))
                    .filter(|e| !vetoed.contains(e))
                    .filter(|(u, v)| !isolated.contains(u) && !isolated.contains(v))
                    .collect();
                let added: Vec<(usize, usize)> = after.difference(&model).copied().collect();
                let removed: Vec<(usize, usize)> = model.difference(&after).copied().collect();
                let mut touched: BTreeSet<usize> =
                    added.iter().chain(&removed).flat_map(|&(u, v)| [u, v]).collect();
                touched.extend(n..n_after);

                prop_assert_eq!(g.num_nodes(), n_after);
                prop_assert_eq!(g.edge_list(), after.iter().copied().collect::<Vec<_>>());
                prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
                prop_assert_eq!(report.edges_added, added.len());
                prop_assert_eq!(report.edges_removed, removed.len());
                prop_assert_eq!(&report.removed_edges, &removed);
                prop_assert_eq!(report.touched, touched.into_iter().collect::<Vec<_>>());

                let mut undone = g.clone();
                let inverse = GraphDelta {
                    add_edges: removed,
                    remove_edges: added,
                    ..Default::default()
                };
                undone.apply_delta(&inverse).map_err(|e| TestCaseError::Fail(e.to_string()))?;
                prop_assert_eq!(undone.edge_list(), before.edge_list());
                model = after;
            }
        }
    }
}
