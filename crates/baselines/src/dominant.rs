//! Dominant (Ding et al. 2019) — deep anomaly detection on attributed
//! networks, the paper's main anomaly-detection competitor (Fig. 6).
//!
//! A shared GCN encoder feeds two decoders: a structure decoder
//! `Â = sigmoid(Z Zᵀ)` and an attribute decoder `X̂ = Ŝ Z W`. Training
//! minimizes `α‖A − Â‖ + (1−α)‖X − X̂‖`; the per-node anomaly score is the
//! same weighted combination of its two reconstruction errors.

use crate::gcn::forward;
use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, xavier_uniform};
use aneci_linalg::{sigmoid, DenseMatrix};
use aneci_obs::span;
use std::sync::Arc;

/// Dominant hyperparameters.
#[derive(Clone, Debug)]
pub struct DominantConfig {
    /// Hidden width of the first GCN layer.
    pub hidden_dim: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Weight α of the structure term (paper default 0.8).
    pub alpha: f64,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DominantConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            embed_dim: 16,
            alpha: 0.8,
            lr: 0.005,
            epochs: 100,
            seed: 0,
        }
    }
}

/// A trained Dominant model.
pub struct Dominant {
    embedding: DenseMatrix,
    scores: Vec<f64>,
    /// Loss history.
    pub losses: Vec<f64>,
}

impl Dominant {
    /// Trains on the graph and computes per-node anomaly scores. Panics on
    /// divergence; [`Dominant::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &DominantConfig) -> Self {
        Self::try_fit(graph, config).expect("Dominant training diverged")
    }

    /// Trains on the graph, surfacing [`TrainError::Diverged`] when the loss
    /// goes non-finite (instead of silently training through NaNs).
    pub fn try_fit(graph: &AttributedGraph, config: &DominantConfig) -> Result<Self, TrainError> {
        let n = graph.num_nodes();
        let norm_adj = Arc::new(graph.norm_adjacency());
        let features = Arc::new(graph.features().clone());
        let adj_dense = Arc::new(DenseMatrix::from_fn(n, n, |i, j| {
            if i == j || graph.has_edge(i, j) {
                1.0
            } else {
                0.0
            }
        }));
        let nnz = adj_dense.sum();
        let pos_weight = ((n * n) as f64 - nnz) / nnz;

        let mut rng = seeded_rng(derive_seed(config.seed, 0xD0A1));
        let mut params = ParamSet::new();
        params.register(
            "w1",
            xavier_uniform(features.cols(), config.hidden_dim, &mut rng),
        );
        params.register(
            "w2",
            xavier_uniform(config.hidden_dim, config.embed_dim, &mut rng),
        );
        params.register(
            "w_attr",
            xavier_uniform(config.embed_dim, features.cols(), &mut rng),
        );

        let mut opt = Adam::new(config.lr);
        let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            let z = {
                let _s = span("encode");
                forward(tape, &norm_adj, &features, w[0], w[1])
            };

            let _s = span("loss");
            // Structure reconstruction (weighted BCE over all pairs).
            let s_loss = tape.dense_recon_bce(z, &adj_dense, pos_weight);
            let s_term = tape.scale(s_loss, config.alpha / (n * n) as f64);

            // Attribute reconstruction (squared error).
            let zw = tape.matmul(z, w[2]);
            let x_hat = tape.spmm(&norm_adj, zw);
            let xc = tape.constant(Arc::clone(&features));
            let diff = tape.sub(x_hat, xc);
            let sq = tape.hadamard(diff, diff);
            let a_loss = tape.mean_all(sq);
            let a_term = tape.scale(a_loss, 1.0 - config.alpha);

            tape.add(s_term, a_term)
        };
        let run = Trainer::new(config.epochs)
            .observe_as("train.dominant")
            .run(&mut params, &mut opt, &mut step)?;
        let losses = run.losses;

        // Final forward: embedding + per-node reconstruction errors.
        let (embedding, scores) = {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let z = forward(&mut tape, &norm_adj, &features, w[0], w[1]);
            let zw = tape.matmul(z, w[2]);
            let x_hat_v = tape.spmm(&norm_adj, zw);
            let zv = tape.value(z).clone();
            let x_hat = tape.value(x_hat_v);

            let scores: Vec<f64> = (0..n)
                .map(|i| {
                    // Structure error: ‖a_i − â_i‖₂ over the dense row.
                    let zi = zv.row(i);
                    let mut s_err = 0.0;
                    for j in 0..n {
                        let dot: f64 = zi.iter().zip(zv.row(j)).map(|(&a, &b)| a * b).sum();
                        let diff = adj_dense.get(i, j) - sigmoid(dot);
                        s_err += diff * diff;
                    }
                    let s_err = s_err.sqrt();
                    // Attribute error: ‖x_i − x̂_i‖₂.
                    let a_err: f64 = features
                        .row(i)
                        .iter()
                        .zip(x_hat.row(i))
                        .map(|(&a, &b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    config.alpha * s_err + (1.0 - config.alpha) * a_err
                })
                .collect();
            (zv, scores)
        };

        Ok(Self {
            embedding,
            scores,
            losses,
        })
    }

    /// The learned embedding.
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }

    /// Per-node anomaly scores (higher = more anomalous).
    pub fn anomaly_scores(&self) -> &[f64] {
        &self.scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    #[test]
    fn trains_and_scores_finite() {
        let g = karate_club();
        let model = Dominant::fit(
            &g,
            &DominantConfig {
                epochs: 40,
                ..Default::default()
            },
        );
        assert!(model.losses.last().unwrap() < &model.losses[0]);
        assert_eq!(model.anomaly_scores().len(), 34);
        assert!(model
            .anomaly_scores()
            .iter()
            .all(|s| s.is_finite() && *s >= 0.0));
        assert!(model.embedding().all_finite());
    }

    #[test]
    fn structural_outlier_scores_high() {
        // Attach a node connected randomly across the whole karate graph —
        // a classic structural anomaly.
        let g = karate_club();
        let n = g.num_nodes();
        let mut features = DenseMatrix::identity(n + 1);
        // Copy class-0 style features for the outlier (identity anyway).
        features.set(n, n, 1.0);
        let mut edges = g.edge_list();
        for target in [0, 5, 9, 14, 20, 25, 28, 33] {
            edges.push((n, target));
        }
        let attacked = aneci_graph::AttributedGraph::from_edges(n + 1, &edges, features, None);
        let model = Dominant::fit(
            &attacked,
            &DominantConfig {
                epochs: 60,
                seed: 1,
                ..Default::default()
            },
        );
        let scores = model.anomaly_scores();
        let outlier = scores[n];
        let mean_normal: f64 = scores[..n].iter().sum::<f64>() / n as f64;
        assert!(
            outlier > mean_normal,
            "outlier {outlier:.3} vs normal mean {mean_normal:.3}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = DominantConfig {
            epochs: 15,
            seed: 2,
            ..Default::default()
        };
        let a = Dominant::fit(&g, &cfg);
        let b = Dominant::fit(&g, &cfg);
        assert_eq!(a.anomaly_scores(), b.anomaly_scores());
    }
}
