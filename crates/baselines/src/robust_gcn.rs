//! DropEdge-regularized GCN — the semi-supervised *defense* comparator.
//!
//! The paper's Table III / Figs. 3–5 include RGCN, a defense-hardened
//! semi-supervised model. Per DESIGN.md we substitute the simpler,
//! well-established **DropEdge** defense (Rong et al. 2020): every training
//! epoch samples a random edge-subgraph and propagates over its normalized
//! adjacency. Randomizing the propagation support prevents the model from
//! leaning on any individual (possibly adversarial) edge — the same
//! robustness mechanism RGCN's variance-based attention pursues, with a
//! fraction of the machinery. DropEdge is a way to train the GCN
//! classifier, not another model: training returns a [`GcnClassifier`],
//! which infers over the full graph.

use crate::gcn::{forward, GcnClassifier};
use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng};
use aneci_linalg::CsrMatrix;
use aneci_obs::span;
use rand::Rng;
use std::sync::Arc;

/// DropEdge-GCN hyperparameters.
#[derive(Clone, Debug)]
pub struct RobustGcnConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Fraction of edges dropped per epoch.
    pub drop_edge_rate: f64,
    /// Learning rate.
    pub lr: f64,
    /// Weight decay.
    pub weight_decay: f64,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RobustGcnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 16,
            drop_edge_rate: 0.3,
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 200,
            seed: 0,
        }
    }
}

/// DropEdge training of a [`GcnClassifier`]. Never built: it names
/// [`RobustGcn::fit`] and [`RobustGcn::try_fit`].
pub enum RobustGcn {}

/// Normalized adjacency of a random edge-subgraph.
fn sampled_norm_adjacency(
    graph: &AttributedGraph,
    drop_rate: f64,
    rng: &mut rand::rngs::StdRng,
) -> CsrMatrix {
    let n = graph.num_nodes();
    let mut trips = Vec::new();
    for (u, v) in graph.edge_list() {
        if rng.gen::<f64>() >= drop_rate {
            trips.push((u, v, 1.0));
            trips.push((v, u, 1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &trips)
        .add_identity()
        .sym_normalize()
}

impl RobustGcn {
    /// Trains on the graph's labelled training split with per-epoch edge
    /// dropping. Panics on divergence; [`RobustGcn::try_fit`] is the
    /// non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &RobustGcnConfig) -> GcnClassifier {
        Self::try_fit(graph, config).expect("DropEdge-GCN training diverged")
    }

    /// Trains with per-epoch edge dropping, surfacing
    /// [`TrainError::Diverged`] when the loss goes non-finite.
    pub fn try_fit(
        graph: &AttributedGraph,
        config: &RobustGcnConfig,
    ) -> Result<GcnClassifier, TrainError> {
        assert!(
            (0.0..1.0).contains(&config.drop_edge_rate),
            "drop rate must be in [0, 1)"
        );
        let labels = graph.labels.as_ref().expect("RobustGcn needs labels");
        let mut rng = seeded_rng(derive_seed(config.seed, 0x26C1));
        let mut model = GcnClassifier::untrained(graph, config.hidden_dim, &mut rng);

        let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
        let features = &model.features;
        let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            let s = Arc::new(sampled_norm_adjacency(
                graph,
                config.drop_edge_rate,
                &mut rng,
            ));
            let logits = {
                let _s = span("encode");
                forward(tape, &s, features, w[0], w[1])
            };
            let _s = span("loss");
            tape.softmax_cross_entropy(logits, labels, &graph.split.train)
        };
        let run = Trainer::new(config.epochs)
            .observe_as("train.robust_gcn")
            .run(&mut model.params, &mut opt, &mut step)?;
        model.train_losses = run.losses;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, sample_split, FeatureKind, GraphDelta, SbmConfig};

    fn bench(seed: u64) -> AttributedGraph {
        let cfg = SbmConfig {
            num_nodes: 260,
            num_classes: 3,
            target_edges: 1300,
            homophily: 0.85,
            degree_exponent: Some(2.5),
            feature_dim: 64,
            features: FeatureKind::BagOfWords {
                p_signal: 0.2,
                p_noise: 0.02,
            },
        };
        let mut g = generate_sbm(&cfg, seed);
        let labels = g.labels.clone().unwrap();
        g.set_split(sample_split(&labels, 15, 45, 140, seed));
        g
    }

    #[test]
    fn learns_despite_edge_dropping() {
        let g = bench(1);
        let model = RobustGcn::fit(
            &g,
            &RobustGcnConfig {
                epochs: 150,
                ..Default::default()
            },
        );
        let acc = model.accuracy_on(&g, &g.split.test);
        assert!(acc > 0.8, "DropEdge-GCN accuracy {acc}");
    }

    #[test]
    fn sampled_adjacency_drops_roughly_requested_fraction() {
        let g = bench(2);
        let mut rng = seeded_rng(9);
        let s = sampled_norm_adjacency(&g, 0.4, &mut rng);
        // nnz = kept directed edges + N self loops.
        let kept = (s.nnz() - g.num_nodes()) / 2;
        let frac = kept as f64 / g.num_edges() as f64;
        assert!((frac - 0.6).abs() < 0.07, "kept fraction {frac}");
        assert!(s.is_symmetric());
    }

    #[test]
    fn more_robust_than_plain_gcn_under_heavy_attack() {
        // The point of the defense: after a 60% random edge injection, the
        // DropEdge model should hold up at least as well as the plain GCN.
        use crate::gcn::GcnConfig;
        let g = bench(3);
        // Inject noise edges manually (avoid a dependency on aneci-attacks).
        let mut rng = seeded_rng(3);
        let mut fakes = Vec::new();
        let want = (0.6 * g.num_edges() as f64) as usize;
        while fakes.len() < want {
            let u = rng.gen_range(0..g.num_nodes());
            let v = rng.gen_range(0..g.num_nodes());
            if u != v && !g.has_edge(u, v) {
                fakes.push((u, v));
            }
        }
        let mut attacked = g.clone();
        attacked
            .apply_delta(&GraphDelta {
                add_edges: fakes,
                ..Default::default()
            })
            .unwrap();

        let mut plain = 0.0;
        let mut robust = 0.0;
        for seed in [0u64, 1, 2] {
            let p = GcnClassifier::fit(
                &attacked,
                &GcnConfig {
                    epochs: 150,
                    patience: 0,
                    seed,
                    ..Default::default()
                },
            );
            plain += p.accuracy_on(&attacked, &attacked.split.test);
            let r = RobustGcn::fit(
                &attacked,
                &RobustGcnConfig {
                    epochs: 150,
                    seed,
                    ..Default::default()
                },
            );
            robust += r.accuracy_on(&attacked, &attacked.split.test);
        }
        assert!(
            robust >= plain - 0.05,
            "DropEdge ({:.3}) should not trail plain GCN ({:.3}) under attack",
            robust / 3.0,
            plain / 3.0
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = bench(4);
        let cfg = RobustGcnConfig {
            epochs: 25,
            seed: 5,
            ..Default::default()
        };
        assert_eq!(
            RobustGcn::fit(&g, &cfg).predict(),
            RobustGcn::fit(&g, &cfg).predict()
        );
    }
}
