//! # aneci-attacks
//!
//! The adversarial-attack and outlier-seeding toolkit of the reproduction
//! (Sec. V-C of the paper):
//!
//! * [`random`] — non-targeted random edge injection (Figs. 2 & 5);
//! * [`fga`] — FGA: gradient-of-the-adjacency targeted attack on a 2-layer
//!   GCN surrogate (Fig. 4);
//! * [`nettack`] — NETTACK-style greedy margin attack on a linearized
//!   surrogate (Fig. 3);
//! * [`outliers`] — structural / attribute / combined community-outlier
//!   seeding following ONE (Fig. 6);
//! * [`targets`] — the paper's target-node selection rule (test nodes with
//!   degree > 10).
//!
//! Each attack is one function that leaves its input graph alone and
//! returns the same type: the net [`GraphDelta`](aneci_graph::GraphDelta)
//! of its perturbations wrapped in an [`AttackOutcome`] (see [`attack`]),
//! so any attack composes with `apply_to_csr`, `HighOrder::refresh`, and
//! the dynamic-serving pipeline. [`AttackOutcome::apply`] materializes the
//! validated poisoned graph.

pub mod attack;
pub mod fga;
pub mod nettack;
pub mod outliers;
pub mod random;
pub mod targets;

pub use attack::AttackOutcome;
pub use fga::{fga_attack, EdgeFlip, FgaConfig};
pub use nettack::{nettack_attack, NettackConfig};
pub use outliers::{seed_outliers, OutlierType};
pub use random::random_attack;
pub use targets::select_targets;

#[cfg(test)]
mod proptests {
    use crate::random::random_attack;
    use aneci_graph::AttributedGraph;
    use proptest::prelude::*;

    fn sparse_graph(edges: &[(usize, usize)]) -> AttributedGraph {
        AttributedGraph::from_edges_plain(16, edges, None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The random attack injects exactly ⌊rate·M⌋ new, previously-absent
        /// edges and leaves the original edge set intact.
        #[test]
        fn random_attack_budget_and_superset(
            edges in prop::collection::vec((0usize..16, 0usize..16), 1..24),
            rate in 0.0..0.6f64,
        ) {
            let g = sparse_graph(&edges);
            if g.num_edges() == 0 { return Ok(()); }
            let want = (rate * g.num_edges() as f64).floor() as usize;
            let capacity = 16 * 15 / 2 - g.num_edges();
            prop_assume!(want <= capacity);
            let atk = random_attack(&g, rate, 7);
            prop_assert_eq!(atk.fake_edges().len(), want);
            let attacked = atk.apply(&g).unwrap();
            prop_assert_eq!(attacked.num_edges(), g.num_edges() + want);
            for (u, v) in g.edge_list() {
                prop_assert!(attacked.has_edge(u, v), "original edge ({u},{v}) lost");
            }
            prop_assert!(attacked.validate().is_ok());
        }

        /// Outlier seeding preserves the node count, marks exactly the
        /// requested fraction, and keeps the graph valid.
        #[test]
        fn outlier_seeding_invariants(frac in 0.02..0.2f64, seed in 0u64..50) {
            let cfg = aneci_graph::SbmConfig {
                num_nodes: 80,
                num_classes: 3,
                target_edges: 300,
                homophily: 0.85,
                degree_exponent: None,
                feature_dim: 24,
                features: aneci_graph::FeatureKind::BagOfWords { p_signal: 0.3, p_noise: 0.02 },
            };
            let g = aneci_graph::generate_sbm(&cfg, seed);
            let s = crate::outliers::seed_outliers(
                &g,
                frac,
                &[crate::outliers::OutlierType::Combined],
                seed,
            );
            let seeded = s.apply(&g).unwrap();
            prop_assert_eq!(seeded.num_nodes(), 80);
            let mask = s.outlier_mask(80);
            let marked = mask.iter().filter(|&&b| b).count();
            prop_assert_eq!(marked, (80.0 * frac).round() as usize);
            prop_assert_eq!(s.budget_spent, marked);
            prop_assert!(seeded.validate().is_ok());
            // Types recorded only at marked nodes.
            let types = s.outlier_types(80);
            for i in 0..80 {
                prop_assert_eq!(types[i].is_some(), mask[i]);
            }
        }
    }
}
