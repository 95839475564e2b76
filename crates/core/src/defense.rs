//! Unified defense API — the mirror image of `aneci_attacks::Attack`.
//!
//! Every robustness strategy in the repo is exposed behind one trait so the
//! bench robustness matrix (`bench_report --robust`) and downstream callers
//! can sweep attacks × defenses without per-strategy glue:
//!
//! * [`NoDefense`] — plain AnECI training, the undefended baseline;
//! * [`AneciPlus`] — the paper's Algorithm 1 two-stage denoiser
//!   ([`aneci_plus`]);
//! * [`SmoothedEncoder`] — randomized smoothing: a majority vote over `K`
//!   DropEdge-style edge-dropped forward passes of the trained encoder,
//!   with a per-vote derived RNG stream so the vote is bit-reproducible;
//! * `RobustGcnDefense` (in `aneci-baselines`) — the DropEdge-trained GCN
//!   baseline behind the same trait.
//!
//! Each defense returns a [`DefenseOutcome`]: the embedding and soft
//! membership it stands behind, hard communities, per-node anomaly scores
//! (the serving layer's poisoned-neighborhood detector consumes these), the
//! edges it removed, and — for certifying defenses — a per-node certificate
//! mask.

use crate::anomaly::combined_anomaly_scores;
use crate::config::AneciConfig;
use crate::denoise::{aneci_plus, DenoiseConfig};
use crate::error::AneciError;
use crate::model::{propagation, train_aneci};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use rand::Rng;

/// RNG stream tag for the smoothing vote (child streams are derived per
/// vote index, so vote `v` sees the same bits regardless of `K`).
const SMOOTHING_STREAM: u64 = 0x5E0D;

/// What a defense produced: the artifacts every downstream consumer
/// (classification probes, the serving snapshot, the bench matrix) needs.
#[derive(Clone, Debug)]
pub struct DefenseOutcome {
    /// The defended embedding `Z` (`N×h`).
    pub embedding: DenseMatrix,
    /// Row-stochastic soft membership the defense stands behind.
    pub membership: DenseMatrix,
    /// Hard community assignment (`argmax` over membership rows).
    pub communities: Vec<usize>,
    /// Per-node anomaly scores in `[0, 1]` — entropy + neighborhood
    /// disagreement; the serving layer carries these into its snapshot for
    /// query-time poisoned-neighborhood detection.
    pub anomaly_scores: Vec<f64>,
    /// Edges the defense physically removed (empty for non-pruning
    /// defenses).
    pub removed_edges: Vec<(usize, usize)>,
    /// For certifying defenses: `certified[i]` means node `i`'s community
    /// was stable across the randomized votes. `None` when the defense does
    /// not certify.
    pub certified: Option<Vec<bool>>,
}

impl DefenseOutcome {
    /// Fraction of nodes carrying a certificate (0 when not certifying).
    pub fn certified_fraction(&self) -> f64 {
        match &self.certified {
            Some(mask) if !mask.is_empty() => {
                mask.iter().filter(|&&c| c).count() as f64 / mask.len() as f64
            }
            _ => 0.0,
        }
    }
}

/// A robustness strategy: takes a (possibly poisoned) graph, returns the
/// embedding and community structure it is willing to defend.
pub trait Defense {
    /// Stable identifier used in bench tables and obs labels.
    fn name(&self) -> &'static str;

    /// Runs the defense end to end on `graph`.
    fn defend(&self, graph: &AttributedGraph) -> Result<DefenseOutcome, AneciError>;
}

/// The undefended baseline: plain AnECI training on the input graph.
#[derive(Clone, Debug)]
pub struct NoDefense {
    /// Training configuration.
    pub config: AneciConfig,
}

impl Defense for NoDefense {
    fn name(&self) -> &'static str {
        "none"
    }

    fn defend(&self, graph: &AttributedGraph) -> Result<DefenseOutcome, AneciError> {
        let (model, _) = train_aneci(graph, &self.config)?;
        let membership = model.membership();
        let anomaly_scores = combined_anomaly_scores(&membership, graph);
        Ok(DefenseOutcome {
            embedding: model.embedding().clone(),
            communities: membership.argmax_rows(),
            membership,
            anomaly_scores,
            removed_edges: Vec::new(),
            certified: None,
        })
    }
}

/// AnECI+ (Algorithm 1): score edges with a first-pass model, drop the most
/// anomalous, retrain on the denoised graph.
#[derive(Clone, Debug)]
pub struct AneciPlus {
    /// Training configuration (both passes).
    pub config: AneciConfig,
    /// Denoising schedule `ψ(x) = γ / (1 + e^{−α(x−β)})`.
    pub denoise: DenoiseConfig,
}

impl Defense for AneciPlus {
    fn name(&self) -> &'static str {
        "aneci_plus"
    }

    fn defend(&self, graph: &AttributedGraph) -> Result<DefenseOutcome, AneciError> {
        let result = aneci_plus(graph, &self.config, &self.denoise, None)?;
        let membership = result.model.membership();
        // Score anomalies against the denoised topology the model trained on.
        let anomaly_scores = combined_anomaly_scores(&membership, &result.denoised_graph);
        Ok(DefenseOutcome {
            embedding: result.model.embedding().clone(),
            communities: membership.argmax_rows(),
            membership,
            anomaly_scores,
            removed_edges: result.removed_edges,
            certified: None,
        })
    }
}

/// Randomized smoothing over the trained encoder: `K` forward passes, each
/// on an independently edge-dropped copy of the graph, vote on every node's
/// community. Nodes whose winning community collects at least
/// `cert_threshold · K` votes are *certified* stable under the drop noise.
///
/// The encoder is trained **once** on the input graph; only the inference
/// adjacency is resampled, so the vote costs `K` sparse forward passes, not
/// `K` trainings. Vote `v` draws from the stream
/// `derive_seed(derive_seed(seed, 0x5E0D), v)` — bit-reproducible and
/// independent of `K`, so enlarging the vote refines, never reshuffles,
/// earlier votes.
#[derive(Clone, Debug)]
pub struct SmoothedEncoder {
    /// Training configuration for the base encoder.
    pub config: AneciConfig,
    /// Number of randomized votes `K`.
    pub votes: usize,
    /// Per-edge drop probability for each vote.
    pub drop_rate: f64,
    /// Fraction of votes the winner must collect for a certificate.
    pub cert_threshold: f64,
}

impl SmoothedEncoder {
    /// The paper-shaped default: 16 votes at 10% edge drop, certificates at
    /// a ⅔ supermajority.
    pub fn with_config(config: AneciConfig) -> Self {
        Self {
            config,
            votes: 16,
            drop_rate: 0.1,
            cert_threshold: 2.0 / 3.0,
        }
    }
}

impl Defense for SmoothedEncoder {
    fn name(&self) -> &'static str {
        "smoothing"
    }

    fn defend(&self, graph: &AttributedGraph) -> Result<DefenseOutcome, AneciError> {
        if self.votes == 0 {
            return Err(AneciError::Config(
                "SmoothedEncoder needs at least one vote".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.drop_rate) {
            return Err(AneciError::Config(format!(
                "drop_rate must be in [0, 1): {}",
                self.drop_rate
            )));
        }
        // NaN fails both comparisons, so it is rejected too.
        if !(self.cert_threshold > 0.0 && self.cert_threshold <= 1.0) {
            return Err(AneciError::Config(format!(
                "cert_threshold must be in (0, 1]: {}",
                self.cert_threshold
            )));
        }
        let (model, _) = train_aneci(graph, &self.config)?;

        let n = graph.num_nodes();
        let k = self.config.embed_dim;
        let edges = graph.edge_list();
        let vote_stream = derive_seed(self.config.seed, SMOOTHING_STREAM);
        let mut vote_counts = vec![0usize; n * k];
        let mut z_sum = DenseMatrix::zeros(n, k);
        for v in 0..self.votes {
            let mut rng = seeded_rng(derive_seed(vote_stream, v as u64));
            let sampled = vote_adjacency(n, &edges, self.drop_rate, &mut rng);
            let z = model.embed_over(&propagation(&sampled));
            for (i, winner) in z.softmax_rows().argmax_rows().into_iter().enumerate() {
                vote_counts[i * k + winner] += 1;
            }
            z_sum.add_assign(&z);
        }

        let membership = DenseMatrix::from_fn(n, k, |i, c| {
            vote_counts[i * k + c] as f64 / self.votes as f64
        });
        let communities = membership.argmax_rows();
        let needed = (self.cert_threshold * self.votes as f64).ceil() as usize;
        let certified: Vec<bool> = communities
            .iter()
            .enumerate()
            .map(|(i, &c)| vote_counts[i * k + c] >= needed)
            .collect();
        let anomaly_scores = combined_anomaly_scores(&membership, graph);
        z_sum.scale_inplace(1.0 / self.votes as f64);
        Ok(DefenseOutcome {
            embedding: z_sum,
            membership,
            communities,
            anomaly_scores,
            removed_edges: Vec::new(),
            certified: Some(certified),
        })
    }
}

/// The adjacency of one smoothing vote over `n` nodes: each edge of
/// `edges` (every undirected edge once, as `u < v`) that survives a
/// `drop_rate` draw from `rng`, one draw per edge in order, written as the
/// `(u, v, 1.0)` and `(v, u, 1.0)` triplets
/// [`AttributedGraph::from_edges`] writes. The vote reads nothing else, so
/// no graph is copied.
fn vote_adjacency(
    n: usize,
    edges: &[(usize, usize)],
    drop_rate: f64,
    rng: &mut impl Rng,
) -> CsrMatrix {
    let mut trips = Vec::with_capacity(2 * edges.len());
    for &(u, v) in edges {
        if rng.gen::<f64>() >= drop_rate {
            trips.push((u, v, 1.0));
            trips.push((v, u, 1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &trips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{apply_to_csr, generate_sbm, FeatureKind, GraphDelta, SbmConfig};

    fn graph(seed: u64) -> AttributedGraph {
        generate_sbm(
            &SbmConfig {
                num_nodes: 120,
                num_classes: 3,
                target_edges: 700,
                homophily: 0.9,
                degree_exponent: None,
                feature_dim: 40,
                features: FeatureKind::BagOfWords {
                    p_signal: 0.3,
                    p_noise: 0.01,
                },
            },
            seed,
        )
    }

    fn quick_cfg(seed: u64) -> AneciConfig {
        AneciConfig {
            hidden_dim: 16,
            embed_dim: 3,
            epochs: 40,
            stop: crate::config::StopStrategy::FixedEpochs,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn no_defense_outcome_is_consistent() {
        let g = graph(1);
        let out = NoDefense {
            config: quick_cfg(1),
        }
        .defend(&g)
        .unwrap();
        assert_eq!(out.embedding.rows(), g.num_nodes());
        assert_eq!(out.communities.len(), g.num_nodes());
        assert_eq!(out.anomaly_scores.len(), g.num_nodes());
        assert!(out.removed_edges.is_empty());
        assert!(out.certified.is_none());
        assert_eq!(out.certified_fraction(), 0.0);
        for row in out.membership.rows_iter() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "membership row sums to {s}");
        }
    }

    #[test]
    fn aneci_plus_defense_prunes_edges() {
        let g = graph(2);
        let out = AneciPlus {
            config: quick_cfg(2),
            denoise: DenoiseConfig::default(),
        }
        .defend(&g)
        .unwrap();
        assert!(!out.removed_edges.is_empty(), "denoiser removed nothing");
        assert_eq!(out.communities.len(), g.num_nodes());
    }

    #[test]
    fn smoothing_vote_is_bit_reproducible() {
        let g = graph(3);
        let defense = SmoothedEncoder {
            votes: 8,
            drop_rate: 0.15,
            ..SmoothedEncoder::with_config(quick_cfg(3))
        };
        let a = defense.defend(&g).unwrap();
        let b = defense.defend(&g).unwrap();
        assert_eq!(a.membership, b.membership);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.certified, b.certified);
        // Vote fractions are multiples of 1/K and rows sum to one.
        for row in a.membership.rows_iter() {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            for &p in row {
                let scaled = p * 8.0;
                assert!((scaled - scaled.round()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn smoothing_certifies_most_clean_nodes() {
        let g = graph(4);
        let out = SmoothedEncoder::with_config(quick_cfg(4))
            .defend(&g)
            .unwrap();
        let frac = out.certified_fraction();
        assert!(frac > 0.5, "clean-graph certification collapsed: {frac:.3}");
    }

    #[test]
    fn defenses_compose_as_trait_objects() {
        let g = graph(5);
        let defenses: Vec<Box<dyn Defense>> = vec![
            Box::new(NoDefense {
                config: quick_cfg(5),
            }),
            Box::new(SmoothedEncoder {
                votes: 4,
                ..SmoothedEncoder::with_config(quick_cfg(5))
            }),
        ];
        for d in &defenses {
            let out = d.defend(&g).unwrap();
            assert_eq!(out.communities.len(), g.num_nodes(), "{}", d.name());
        }
    }

    #[test]
    fn smoothing_rejects_bad_config() {
        let g = graph(6);
        let zero_votes = SmoothedEncoder {
            votes: 0,
            ..SmoothedEncoder::with_config(quick_cfg(6))
        };
        assert!(zero_votes.defend(&g).is_err());
        let bad_rate = SmoothedEncoder {
            drop_rate: 1.0,
            ..SmoothedEncoder::with_config(quick_cfg(6))
        };
        assert!(bad_rate.defend(&g).is_err());
        // Below (0, 1] every node would be certified, above it none.
        for cert_threshold in [f64::NAN, 0.0, -0.5, 1.5] {
            let bad_threshold = SmoothedEncoder {
                cert_threshold,
                ..SmoothedEncoder::with_config(quick_cfg(6))
            };
            let err = bad_threshold.defend(&g).unwrap_err();
            assert!(
                matches!(err, AneciError::Config(_)),
                "{cert_threshold}: {err}"
            );
        }
    }

    /// A vote's adjacency is the edge-dropped graph's, from the same draws.
    #[test]
    fn vote_adjacency_matches_the_edge_dropped_graph() {
        let g = graph(3);
        let edges = g.edge_list();
        for (seed, rate) in [(1, 0.0), (2, 0.2), (3, 0.9)] {
            let mut rng = seeded_rng(seed);
            let dropped: Vec<(usize, usize)> = edges
                .iter()
                .copied()
                .filter(|_| rng.gen::<f64>() < rate)
                .collect();
            assert_eq!(dropped.is_empty(), rate == 0.0, "rate {rate}");
            let removals = GraphDelta {
                remove_edges: dropped,
                ..Default::default()
            };
            let (want, _) = apply_to_csr(g.adjacency(), &removals).unwrap();
            let got = vote_adjacency(g.num_nodes(), &edges, rate, &mut seeded_rng(seed));
            assert_eq!(got, want, "rate {rate}");
        }
    }

    /// A vote that drops no edge runs the trained model's own encoder on
    /// its own operator, so its embedding is that model's forward pass.
    #[test]
    fn smoothing_vote_runs_the_trained_encoder() {
        let g = graph(7);
        let out = SmoothedEncoder {
            votes: 1,
            drop_rate: 0.0,
            ..SmoothedEncoder::with_config(quick_cfg(7))
        }
        .defend(&g)
        .unwrap();
        let (model, _) = train_aneci(&g, &quick_cfg(7)).unwrap();
        assert_eq!(out.embedding, model.forward_embedding());
    }
}
