//! DONE-style outlier-aware autoencoder (Bandyopadhyay et al. 2020),
//! simplified.
//!
//! The paper compares against DONE/ADONE [15]: twin autoencoders — one over
//! adjacency rows (structure), one over attribute rows — whose losses are
//! reweighted by per-node outlier scores `o_i`, alternately optimized in
//! closed form (`o_i ∝` the node's share of the total reconstruction
//! error). Nodes that refuse to reconstruct are declared outliers and
//! progressively down-weighted so they cannot distort the embedding.
//!
//! This implementation keeps that alternating structure with single-hidden-
//! layer autoencoders and a homophily term pulling neighbor embeddings
//! together; the adversarial discriminator of ADONE is out of scope (noted
//! in DESIGN.md).

use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, BcePair, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, xavier_uniform};
use aneci_linalg::DenseMatrix;
use aneci_obs::span;
use std::sync::Arc;

/// DONE hyperparameters.
#[derive(Clone, Debug)]
pub struct DoneConfig {
    /// Embedding dimensionality (per autoencoder; the final embedding is
    /// the concatenation, `2 × embed_dim` wide).
    pub embed_dim: usize,
    /// Outer alternating rounds (retrain AEs ↔ refresh outlier scores).
    pub rounds: usize,
    /// Gradient epochs per round.
    pub epochs_per_round: usize,
    /// Learning rate.
    pub lr: f64,
    /// Weight of the homophily (neighbor-closeness) term.
    pub homophily_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DoneConfig {
    fn default() -> Self {
        Self {
            embed_dim: 8,
            rounds: 4,
            epochs_per_round: 30,
            lr: 0.005,
            homophily_weight: 0.5,
            seed: 0,
        }
    }
}

/// A trained DONE model.
pub struct Done {
    embedding: DenseMatrix,
    outlier_scores: Vec<f64>,
    /// Loss at the end of each round.
    pub round_losses: Vec<f64>,
}

/// One single-hidden-layer autoencoder's parameters (slots into a ParamSet).
struct AeSlots {
    enc: usize,
    dec: usize,
}

fn register_ae(
    params: &mut ParamSet,
    name: &str,
    input_dim: usize,
    embed_dim: usize,
    rng: &mut rand::rngs::StdRng,
) -> AeSlots {
    let enc = params.register(
        format!("{name}_enc"),
        xavier_uniform(input_dim, embed_dim, rng),
    );
    let dec = params.register(
        format!("{name}_dec"),
        xavier_uniform(embed_dim, input_dim, rng),
    );
    AeSlots { enc, dec }
}

/// Forward through one AE: returns `(embedding, weighted reconstruction
/// loss)` where rows are weighted by the constant `weight` matrix.
fn ae_forward(
    tape: &mut Tape,
    w: &[Var],
    slots: &AeSlots,
    input: &Arc<DenseMatrix>,
    row_weights: &Arc<DenseMatrix>,
) -> (Var, Var) {
    let x = tape.constant(Arc::clone(input));
    let xe = tape.matmul(x, w[slots.enc]);
    let h = tape.tanh(xe);
    let hd = tape.matmul(h, w[slots.dec]);
    let diff = tape.sub(hd, x);
    let sq = tape.hadamard(diff, diff);
    let weights = tape.constant(Arc::clone(row_weights));
    let weighted = tape.hadamard(sq, weights);
    let loss = tape.mean_all(weighted);
    (h, loss)
}

impl Done {
    /// Trains the twin autoencoders with alternating outlier reweighting.
    /// Panics on divergence; [`Done::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &DoneConfig) -> Self {
        Self::try_fit(graph, config).expect("DONE training diverged")
    }

    /// Trains the twin autoencoders, surfacing [`TrainError::Diverged`] when
    /// the loss goes non-finite (instead of silently training through NaNs).
    pub fn try_fit(graph: &AttributedGraph, config: &DoneConfig) -> Result<Self, TrainError> {
        let n = graph.num_nodes();
        // Structure view: row-normalized adjacency rows (dense).
        let adj_rows = {
            let a = graph.adjacency().add_identity().row_normalize();
            Arc::new(a.to_dense())
        };
        let attrs = Arc::new(graph.features().clone());
        let edges = graph.edge_list();
        let hom: Arc<[BcePair]> = edges
            .iter()
            .map(|&(u, v)| (u as u32, v as u32, 1.0))
            .collect();

        let mut rng = seeded_rng(derive_seed(config.seed, 0xD0E));
        let mut params = ParamSet::new();
        let s_slots = register_ae(&mut params, "str", n, config.embed_dim, &mut rng);
        let a_slots = register_ae(
            &mut params,
            "attr",
            attrs.cols(),
            config.embed_dim,
            &mut rng,
        );

        let mut opt = Adam::new(config.lr);
        // o_i initialized uniform; the loss weight is log(1/o_i).
        let mut outliers = vec![1.0 / n as f64; n];
        let mut round_losses = Vec::new();

        for _ in 0..config.rounds {
            // Row weights w_i = log(1/o_i), broadcast to both input widths.
            let log_w: Vec<f64> = outliers
                .iter()
                .map(|&o| (1.0 / o.max(1e-12)).ln())
                .collect();
            let max_w = log_w.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);
            let norm_w: Vec<f64> = log_w.iter().map(|&w| w / max_w).collect();
            let str_weights = Arc::new(DenseMatrix::from_fn(n, n, |r, _| norm_w[r]));
            let attr_weights = Arc::new(DenseMatrix::from_fn(n, attrs.cols(), |r, _| norm_w[r]));

            let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
                let (hs, ls, ha, la) = {
                    let _s = span("encode");
                    let (hs, ls) = ae_forward(tape, w, &s_slots, &adj_rows, &str_weights);
                    let (ha, la) = ae_forward(tape, w, &a_slots, &attrs, &attr_weights);
                    (hs, ls, ha, la)
                };
                let _s = span("loss");
                // Homophily: neighbors should embed nearby in both views,
                // plus the two views of the same node should agree.
                let hom_s = tape.pair_bce(hs, &hom, Vec::new());
                let hom_a = tape.pair_bce(ha, &hom, Vec::new());
                let hom_total = {
                    let sum = tape.add(hom_s, hom_a);
                    tape.scale(
                        sum,
                        config.homophily_weight / (2 * edges.len().max(1)) as f64,
                    )
                };
                let recon = tape.add(ls, la);
                tape.add(recon, hom_total)
            };
            let run = Trainer::new(config.epochs_per_round)
                .observe_as("train.done")
                .run(&mut params, &mut opt, &mut step)?;
            round_losses.push(run.losses.last().copied().unwrap_or(0.0));

            // Closed-form outlier refresh: o_i ∝ the node's error share
            // across both views (reconstruction + homophily, as in DONE's
            // six-term objective).
            let errors =
                Self::per_node_errors(&params, &s_slots, &a_slots, &adj_rows, &attrs, &edges);
            let total: f64 = errors.iter().sum::<f64>().max(1e-12);
            for (o, e) in outliers.iter_mut().zip(&errors) {
                *o = (e / total).max(1e-9);
            }
        }

        // Final embedding: concatenated view embeddings.
        let embedding = {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let x = tape.constant(adj_rows);
            let xe = tape.matmul(x, w[s_slots.enc]);
            let hs = tape.tanh(xe);
            let y = tape.constant(attrs);
            let ye = tape.matmul(y, w[a_slots.enc]);
            let ha = tape.tanh(ye);
            tape.value(hs).hstack(tape.value(ha))
        };

        Ok(Self {
            embedding,
            outlier_scores: outliers,
            round_losses,
        })
    }

    fn per_node_errors(
        params: &ParamSet,
        s_slots: &AeSlots,
        a_slots: &AeSlots,
        adj_rows: &DenseMatrix,
        attrs: &DenseMatrix,
        edges: &[(usize, usize)],
    ) -> Vec<f64> {
        let encode = |input: &DenseMatrix, slots: &AeSlots| -> DenseMatrix {
            input.matmul(params.get(slots.enc)).map(f64::tanh)
        };
        let decode =
            |h: &DenseMatrix, slots: &AeSlots| -> DenseMatrix { h.matmul(params.get(slots.dec)) };
        let hs = encode(adj_rows, s_slots);
        let ha = encode(attrs, a_slots);
        let s_hat = decode(&hs, s_slots);
        let a_hat = decode(&ha, a_slots);

        let n = adj_rows.rows();
        let row_err = |truth: &DenseMatrix, pred: &DenseMatrix, i: usize| -> f64 {
            truth
                .row(i)
                .iter()
                .zip(pred.row(i))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        // Homophily errors: a node whose embedding sits far from its
        // neighbors' embeddings (in either view) is suspicious — this is
        // the term that exposes structure/attribute inconsistency.
        let mut hom = vec![0.0f64; n];
        let mut deg = vec![0usize; n];
        let sq_dist = |z: &DenseMatrix, a: usize, b: usize| -> f64 {
            z.row(a)
                .iter()
                .zip(z.row(b))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        };
        for &(u, v) in edges {
            let d = sq_dist(&hs, u, v) + sq_dist(&ha, u, v);
            hom[u] += d;
            hom[v] += d;
            deg[u] += 1;
            deg[v] += 1;
        }
        // Normalize each error family to comparable scale before summing.
        let mut recon_err: Vec<f64> = (0..n)
            .map(|i| row_err(adj_rows, &s_hat, i) + row_err(attrs, &a_hat, i))
            .collect();
        let mut hom_err: Vec<f64> = (0..n).map(|i| hom[i] / deg[i].max(1) as f64).collect();
        let normalize = |v: &mut Vec<f64>| {
            let max = v.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
            for x in v.iter_mut() {
                *x /= max;
            }
        };
        normalize(&mut recon_err);
        normalize(&mut hom_err);
        (0..n).map(|i| recon_err[i] + hom_err[i]).collect()
    }

    /// The concatenated structure‖attribute embedding.
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }

    /// Per-node outlier probabilities `o_i` (sum to ≈ 1; higher = more
    /// anomalous) — DONE's native anomaly score.
    pub fn anomaly_scores(&self) -> &[f64] {
        &self.outlier_scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    #[test]
    fn trains_with_decreasing_loss() {
        let g = karate_club();
        let model = Done::fit(&g, &DoneConfig::default());
        assert!(model.round_losses.last().unwrap() <= &model.round_losses[0]);
        assert_eq!(model.embedding().shape(), (34, 16));
        assert!(model.embedding().all_finite());
    }

    #[test]
    fn outlier_scores_form_distribution() {
        let g = karate_club();
        let model = Done::fit(
            &g,
            &DoneConfig {
                rounds: 2,
                ..Default::default()
            },
        );
        let sum: f64 = model.anomaly_scores().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "scores sum to {sum}");
        assert!(model.anomaly_scores().iter().all(|&o| o > 0.0));
    }

    #[test]
    fn flags_attribute_outliers_on_sbm() {
        // Nodes whose attributes come from a foreign community reconstruct
        // inconsistently with their structural context. Corrupt 10 nodes'
        // features and demand better-than-chance ranking.
        use aneci_graph::{generate_sbm, FeatureKind, SbmConfig};
        let cfg = SbmConfig {
            num_nodes: 150,
            num_classes: 3,
            target_edges: 700,
            homophily: 0.9,
            degree_exponent: None,
            feature_dim: 60,
            features: FeatureKind::BagOfWords {
                p_signal: 0.5,
                p_noise: 0.005,
            },
        };
        let mut g = generate_sbm(&cfg, 11);
        let labels = g.labels.clone().unwrap();
        let mut features = g.features().clone();
        let mut truth = [false; 150];
        // Swap the features of 10 nodes with a donor from another
        // community (the ONE-style attribute outlier): individually normal
        // rows, inconsistent with their structural neighborhood.
        for i in (0..150).step_by(15) {
            let donor = (0..150)
                .find(|&j| labels[j] != labels[i] && !truth[j])
                .expect("donor exists");
            let row: Vec<f64> = features.row(donor).to_vec();
            features.row_mut(i).copy_from_slice(&row);
            truth[i] = true;
        }
        g.set_features(features);

        let model = Done::fit(
            &g,
            &DoneConfig {
                rounds: 5,
                epochs_per_round: 40,
                seed: 2,
                ..Default::default()
            },
        );
        let scores: Vec<f64> = model.anomaly_scores().to_vec();
        // AUC of the outlier ranking must clearly beat chance.
        let mut pairs_better = 0usize;
        let mut pairs_total = 0usize;
        for i in 0..150 {
            for j in 0..150 {
                if truth[i] && !truth[j] {
                    pairs_total += 1;
                    if scores[i] > scores[j] {
                        pairs_better += 1;
                    }
                }
            }
        }
        let auc = pairs_better as f64 / pairs_total as f64;
        assert!(auc > 0.8, "DONE attribute-outlier AUC only {auc:.3}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = DoneConfig {
            rounds: 2,
            epochs_per_round: 10,
            seed: 7,
            ..Default::default()
        };
        let a = Done::fit(&g, &cfg);
        let b = Done::fit(&g, &cfg);
        assert_eq!(a.anomaly_scores(), b.anomaly_scores());
        assert_eq!(a.embedding(), b.embedding());
    }
}
