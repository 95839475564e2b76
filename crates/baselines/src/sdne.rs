//! SDNE (Wang, Cui & Zhu 2016) — Structural Deep Network Embedding.
//!
//! Cited by the paper as the deep-autoencoder lineage ([13]): a deep
//! autoencoder over adjacency rows with
//!
//! * a **second-order** term — reconstruct each node's neighborhood row,
//!   with observed entries up-weighted by `β > 1` (the `B`-matrix trick, so
//!   the sparse 1s aren't drowned by the 0s), and
//! * a **first-order** term — Laplacian-style penalty `Σ_(u,v)∈E ‖z_u −
//!   z_v‖²` pulling connected nodes together.
//!
//! Two encoder/decoder layers with tanh, trained with Adam.

use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, xavier_uniform};
use aneci_linalg::DenseMatrix;
use aneci_obs::span;
use std::sync::Arc;

/// SDNE hyperparameters.
#[derive(Clone, Debug)]
pub struct SdneConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// Observed-entry reconstruction up-weight `β` (paper default ≫ 1).
    pub beta: f64,
    /// First-order term weight `α`.
    pub alpha: f64,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SdneConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            embed_dim: 16,
            beta: 10.0,
            alpha: 0.2,
            lr: 0.005,
            epochs: 120,
            seed: 0,
        }
    }
}

/// A trained SDNE model.
pub struct Sdne {
    embedding: DenseMatrix,
    /// Loss history.
    pub losses: Vec<f64>,
}

impl Sdne {
    /// Trains SDNE on the graph's adjacency rows. Panics on divergence;
    /// [`Sdne::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &SdneConfig) -> Self {
        Self::try_fit(graph, config).expect("SDNE training diverged")
    }

    /// Trains SDNE, surfacing [`TrainError::Diverged`] when the loss goes
    /// non-finite.
    pub fn try_fit(graph: &AttributedGraph, config: &SdneConfig) -> Result<Self, TrainError> {
        let n = graph.num_nodes();
        let adj = {
            let mut m = DenseMatrix::zeros(n, n);
            for (u, v) in graph.edge_list() {
                m.set(u, v, 1.0);
                m.set(v, u, 1.0);
            }
            Arc::new(m)
        };
        // B-matrix: β where an edge exists, 1 elsewhere.
        let b_weights = Arc::new(adj.map(|v| if v > 0.0 { config.beta } else { 1.0 }));
        let edges = graph.edge_list();
        let first_order_pairs: Arc<[aneci_autograd::BcePair]> = edges
            .iter()
            .map(|&(u, v)| (u as u32, v as u32, 1.0))
            .collect::<Vec<_>>()
            .into();

        let mut rng = seeded_rng(derive_seed(config.seed, 0x5D2E));
        let mut params = ParamSet::new();
        params.register("enc1", xavier_uniform(n, config.hidden_dim, &mut rng));
        params.register(
            "enc2",
            xavier_uniform(config.hidden_dim, config.embed_dim, &mut rng),
        );
        params.register(
            "dec1",
            xavier_uniform(config.embed_dim, config.hidden_dim, &mut rng),
        );
        params.register("dec2", xavier_uniform(config.hidden_dim, n, &mut rng));

        let mut opt = Adam::new(config.lr);
        let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            let (z, x_hat) = {
                let _s = span("encode");
                let x = tape.constant(Arc::clone(&adj));
                let h1 = {
                    let xe = tape.matmul(x, w[0]);
                    tape.tanh(xe)
                };
                let z = {
                    let he = tape.matmul(h1, w[1]);
                    tape.tanh(he)
                };
                let d1 = {
                    let zd = tape.matmul(z, w[2]);
                    tape.tanh(zd)
                };
                (z, tape.matmul(d1, w[3]))
            };

            let _s = span("loss");
            // Second-order: ‖(X̂ − X) ⊙ B‖² (mean).
            let x2 = tape.constant(Arc::clone(&adj));
            let diff = tape.sub(x_hat, x2);
            let bw = tape.constant(Arc::clone(&b_weights));
            let weighted = tape.hadamard(diff, bw);
            let sq = tape.hadamard(weighted, weighted);
            let second = tape.mean_all(sq);

            // First-order: pull neighbor embeddings together — use the
            // sampled BCE on positive pairs as a smooth attracting proxy
            // for the Laplacian term (σ(z_u·z_v) → 1 for edges).
            let fo = tape.pair_bce(z, &first_order_pairs, Vec::new());
            let fo_scaled = tape.scale(fo, config.alpha / edges.len().max(1) as f64);

            tape.add(second, fo_scaled)
        };
        let run = Trainer::new(config.epochs).observe_as("train.sdne").run(
            &mut params,
            &mut opt,
            &mut step,
        )?;
        let losses = run.losses;

        let embedding = {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let x = tape.constant(adj);
            let h1 = {
                let xe = tape.matmul(x, w[0]);
                tape.tanh(xe)
            };
            let z = {
                let he = tape.matmul(h1, w[1]);
                tape.tanh(he)
            };
            tape.value(z).clone()
        };
        Ok(Self { embedding, losses })
    }

    /// The learned embedding.
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    #[test]
    fn loss_decreases_and_embedding_finite() {
        let g = karate_club();
        let model = Sdne::fit(
            &g,
            &SdneConfig {
                epochs: 60,
                embed_dim: 8,
                ..Default::default()
            },
        );
        assert!(model.losses.last().unwrap() < &model.losses[0]);
        assert_eq!(model.embedding().shape(), (34, 8));
        assert!(model.embedding().all_finite());
    }

    #[test]
    fn embedding_separates_factions() {
        let g = karate_club();
        let model = Sdne::fit(
            &g,
            &SdneConfig {
                epochs: 120,
                embed_dim: 8,
                seed: 1,
                ..Default::default()
            },
        );
        let z = model.embedding();
        let labels = g.labels.as_ref().unwrap();
        let dist = |a: usize, b: usize| -> f64 {
            z.row(a)
                .iter()
                .zip(z.row(b))
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        };
        let mut same = (0.0, 0);
        let mut diff = (0.0, 0);
        for i in 0..34 {
            for j in (i + 1)..34 {
                if labels[i] == labels[j] {
                    same = (same.0 + dist(i, j), same.1 + 1);
                } else {
                    diff = (diff.0 + dist(i, j), diff.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1 as f64;
        let diff_avg = diff.0 / diff.1 as f64;
        assert!(
            same_avg < diff_avg,
            "same {same_avg:.3} vs diff {diff_avg:.3}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = SdneConfig {
            epochs: 15,
            seed: 3,
            ..Default::default()
        };
        assert_eq!(
            Sdne::fit(&g, &cfg).embedding(),
            Sdne::fit(&g, &cfg).embedding()
        );
    }
}
