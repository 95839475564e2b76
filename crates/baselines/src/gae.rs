//! GAE and VGAE (Kipf & Welling 2016) — the paper's closest unsupervised
//! competitors.
//!
//! GAE: GCN encoder → `Z`; inner-product decoder `Â = sigmoid(Z Zᵀ)`
//! reconstructing the self-looped adjacency under class-weighted BCE (the
//! reference implementation's `pos_weight = (N² − nnz)/nnz`).
//!
//! VGAE: adds the variational heads `μ, log σ²` with the reparameterization
//! trick and a KL regularizer toward the unit Gaussian.

use crate::gcn::forward;
use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, BcePair, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::xavier_uniform;
use aneci_linalg::rng::{derive_seed, gaussian_matrix, seeded_rng};
use aneci_linalg::DenseMatrix;
use aneci_obs::span;
use rand::Rng;
use std::sync::Arc;

/// Shared GAE/VGAE hyperparameters.
#[derive(Clone, Debug)]
pub struct GaeConfig {
    /// Hidden width of the first GCN layer.
    pub hidden_dim: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Node count above which the reconstruction switches from exact dense
    /// BCE to negative sampling.
    pub exact_threshold: usize,
    /// Negative pairs per positive pair in sampled mode.
    pub neg_ratio: usize,
    /// Variational mode (VGAE) instead of plain GAE.
    pub variational: bool,
    /// KL weight (VGAE only; the reference uses 1/N).
    pub kl_scale: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaeConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            embed_dim: 16,
            lr: 0.01,
            epochs: 200,
            exact_threshold: 1800,
            neg_ratio: 1,
            variational: false,
            kl_scale: None,
            seed: 0,
        }
    }
}

/// A trained (V)GAE model.
pub struct Gae {
    /// Loss per epoch.
    pub losses: Vec<f64>,
    embedding: DenseMatrix,
}

impl Gae {
    /// Trains on the graph (unsupervised). Panics on divergence;
    /// [`Gae::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &GaeConfig) -> Self {
        Self::try_fit(graph, config).expect("GAE training diverged")
    }

    /// Trains on the graph, surfacing [`TrainError::Diverged`] when the
    /// loss goes non-finite instead of producing garbage embeddings.
    pub fn try_fit(graph: &AttributedGraph, config: &GaeConfig) -> Result<Self, TrainError> {
        let n = graph.num_nodes();
        let norm_adj = Arc::new(graph.norm_adjacency());
        let features = Arc::new(graph.features().clone());
        let target_sparse = graph.adjacency().add_identity();
        // Binarize the self-looped adjacency as the reconstruction target.
        let positives: Arc<[BcePair]> = target_sparse
            .iter()
            .map(|(i, j, _)| (i as u32, j as u32, 1.0))
            .collect::<Vec<_>>()
            .into();
        let exact = n <= config.exact_threshold;
        let dense_target = exact.then(|| {
            Arc::new(DenseMatrix::from_fn(n, n, |i, j| {
                if target_sparse.get(i, j) != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }))
        });
        let nnz = target_sparse.nnz() as f64;
        let pos_weight = ((n * n) as f64 - nnz) / nnz;

        let mut rng = seeded_rng(derive_seed(config.seed, 0x6AE));
        let mut params = ParamSet::new();
        params.register(
            "w1",
            xavier_uniform(features.cols(), config.hidden_dim, &mut rng),
        );
        params.register(
            "w_mu",
            xavier_uniform(config.hidden_dim, config.embed_dim, &mut rng),
        );
        if config.variational {
            params.register(
                "w_logvar",
                xavier_uniform(config.hidden_dim, config.embed_dim, &mut rng),
            );
        }

        let mut opt = Adam::new(config.lr);
        // Default KL weight: the reconstruction term here is a *mean* over
        // N² pairs, so the KL sum must be scaled down to 1/N² as well to
        // keep the same relative weighting as the reference implementation
        // (which pairs a summed reconstruction with KL/N).
        let kl_scale = config.kl_scale.unwrap_or(1.0 / (n as f64 * n as f64));
        let ones = Arc::new(DenseMatrix::filled(n, config.embed_dim, 1.0));

        let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            let (z, kl) = {
                let _s = span("encode");
                // Its own first layer, which both VGAE heads share.
                let x = tape.constant(Arc::clone(&features));
                let xw = tape.matmul(x, w[0]);
                let h1 = tape.spmm(&norm_adj, xw);
                let a1 = tape.relu(h1);
                let mu = {
                    let hw = tape.matmul(a1, w[1]);
                    tape.spmm(&norm_adj, hw)
                };
                if config.variational {
                    let logvar = {
                        let hw = tape.matmul(a1, w[2]);
                        tape.spmm(&norm_adj, hw)
                    };
                    // Reparameterize: z = mu + exp(logvar/2) ⊙ ε.
                    let eps = tape.constant(gaussian_matrix(n, config.embed_dim, 1.0, &mut rng));
                    let half_logvar = tape.scale(logvar, 0.5);
                    let std = tape.exp(half_logvar);
                    let noise = tape.hadamard(std, eps);
                    let z = tape.add(mu, noise);
                    // KL = -0.5 Σ (1 + logvar − mu² − exp(logvar)) / N
                    let mu_sq = tape.hadamard(mu, mu);
                    let exp_logvar = tape.exp(logvar);
                    let ones = tape.constant(Arc::clone(&ones));
                    let s1 = tape.add(ones, logvar);
                    let s2 = tape.sub(s1, mu_sq);
                    let s3 = tape.sub(s2, exp_logvar);
                    let ksum = tape.sum(s3);
                    let kl = tape.scale(ksum, -0.5 * kl_scale);
                    (z, Some(kl))
                } else {
                    (mu, None)
                }
            };

            let _s = span("loss");
            let recon = match &dense_target {
                Some(target) => {
                    let l = tape.dense_recon_bce(z, target, pos_weight);
                    tape.scale(l, 1.0 / (n * n) as f64)
                }
                None => {
                    // The shared positives head the list and this epoch's
                    // negatives tail it, so no epoch copies the positives.
                    let num_neg = positives.len() * config.neg_ratio;
                    let mut negatives: Vec<BcePair> = Vec::with_capacity(num_neg);
                    for _ in 0..num_neg {
                        let i = rng.gen_range(0..n as u32);
                        let j = rng.gen_range(0..n as u32);
                        if target_sparse.get(i as usize, j as usize) == 0.0 {
                            negatives.push((i, j, 0.0));
                        }
                    }
                    let count = (positives.len() + negatives.len()) as f64;
                    let l = tape.pair_bce(z, &positives, negatives);
                    tape.scale(l, 1.0 / count)
                }
            };
            match kl {
                Some(k) => tape.add(recon, k),
                None => recon,
            }
        };
        let prefix = if config.variational {
            "train.vgae"
        } else {
            "train.gae"
        };
        let run =
            Trainer::new(config.epochs)
                .observe_as(prefix)
                .run(&mut params, &mut opt, &mut step)?;
        let losses = run.losses;

        // Final embedding = μ (the deterministic encoder output).
        let embedding = {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let mu = forward(&mut tape, &norm_adj, &features, w[0], w[1]);
            tape.value(mu).clone()
        };

        Ok(Self { losses, embedding })
    }

    /// The learned embedding `Z` (the mean head for VGAE).
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, karate_club, SbmConfig};
    use aneci_linalg::{sigmoid, vector};

    #[test]
    fn gae_loss_decreases_on_karate() {
        let g = karate_club();
        let cfg = GaeConfig {
            epochs: 80,
            embed_dim: 8,
            ..Default::default()
        };
        let model = Gae::fit(&g, &cfg);
        assert!(model.losses.last().unwrap() < &model.losses[0]);
        assert!(model.embedding().all_finite());
        assert_eq!(model.embedding().shape(), (34, 8));
    }

    #[test]
    fn gae_reconstructs_edges_better_than_nonedges() {
        let g = karate_club();
        let cfg = GaeConfig {
            epochs: 150,
            embed_dim: 8,
            seed: 1,
            ..Default::default()
        };
        let model = Gae::fit(&g, &cfg);
        // The decoder's reconstruction probability of a pair.
        let z = model.embedding();
        let prob = |u: usize, v: usize| sigmoid(vector::dot(z.row(u), z.row(v)));
        let mut edge_p = 0.0;
        let edges = g.edge_list();
        for &(u, v) in &edges {
            edge_p += prob(u, v);
        }
        edge_p /= edges.len() as f64;
        let mut non_p = 0.0;
        let mut count = 0;
        for u in 0..34 {
            for v in (u + 1)..34 {
                if !g.has_edge(u, v) {
                    non_p += prob(u, v);
                    count += 1;
                }
            }
        }
        non_p /= count as f64;
        assert!(
            edge_p > non_p + 0.1,
            "edges {edge_p:.3} vs non-edges {non_p:.3}"
        );
    }

    #[test]
    fn vgae_trains_and_stays_finite() {
        let g = karate_club();
        let cfg = GaeConfig {
            epochs: 60,
            variational: true,
            embed_dim: 4,
            ..Default::default()
        };
        let model = Gae::fit(&g, &cfg);
        assert!(model.losses.iter().all(|l| l.is_finite()));
        assert!(model.embedding().all_finite());
    }

    #[test]
    fn sampled_mode_on_larger_graph() {
        let mut sbm = SbmConfig::small();
        sbm.num_nodes = 250;
        let g = generate_sbm(&sbm, 3);
        let cfg = GaeConfig {
            epochs: 30,
            exact_threshold: 100,
            ..Default::default()
        };
        let model = Gae::fit(&g, &cfg);
        assert!(model.losses.last().unwrap() < &model.losses[0]);
    }

    #[test]
    fn exp_op_value_and_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(DenseMatrix::from_rows(&[&[-4.0, -1.0, 0.0, 0.5, 3.0]]));
        let e = tape.exp(x);
        let got = tape.value(e).clone();
        for (i, &v) in [-4.0f64, -1.0, 0.0, 0.5, 3.0].iter().enumerate() {
            assert!((got.get(0, i) - v.exp()).abs() < 1e-12);
        }
        // Gradient of sum(exp(x)) is exp(x) itself.
        let loss = tape.sum(e);
        tape.backward(loss);
        let g = tape.grad(x);
        for (i, &v) in [-4.0f64, -1.0, 0.0, 0.5, 3.0].iter().enumerate() {
            assert!((g.get(0, i) - v.exp()).abs() < 1e-12);
        }
    }
}
