//! HOPE-style high-order proximity embedding (Ou et al. 2016, simplified).
//!
//! Matrix-factorization lineage: embed nodes by a low-rank spectral
//! factorization of the **high-order proximity matrix** itself — the same
//! `Ã` AnECI's objective is built on, which makes this the natural
//! factorization ablation ("what if we just factorize `Ã` instead of
//! learning a GCN against it?"). We factorize the *symmetrized* proximity
//! `(Ã + Ãᵀ)/2` with the crate's orthogonal-iteration eigensolver and scale
//! the eigenvectors by `√|λ|`, the symmetric analogue of HOPE's
//! JDGSVD-based `U Σ^{1/2}`.

use aneci_graph::{AttributedGraph, HighOrder, ProximityConfig};
use aneci_linalg::DenseMatrix;

use crate::spectral::top_eigenvectors;

/// HOPE hyperparameters.
#[derive(Clone, Debug)]
pub struct HopeConfig {
    /// Embedding dimensionality (rank of the factorization).
    pub dim: usize,
    /// High-order proximity construction.
    pub proximity: ProximityConfig,
    /// Subspace-iteration sweeps for the eigensolver.
    pub iterations: usize,
    /// RNG seed (eigensolver start).
    pub seed: u64,
}

impl Default for HopeConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            proximity: ProximityConfig::uniform(2),
            iterations: 100,
            seed: 0,
        }
    }
}

/// Computes the HOPE-style embedding `U |Λ|^{1/2}` of the symmetrized
/// high-order proximity.
pub fn hope_embedding(graph: &AttributedGraph, config: &HopeConfig) -> DenseMatrix {
    let ho = HighOrder::build(graph.adjacency(), &config.proximity);
    // Symmetrize (row normalization breaks symmetry).
    let sym = {
        let t = ho.a_tilde.transpose();
        let mut s = ho.a_tilde.add_scaled(&t, 1.0);
        s.scale_inplace(0.5);
        s
    };
    let k = config.dim.min(graph.num_nodes());
    let (values, vectors) = top_eigenvectors(&sym, k, config.iterations, config.seed);
    let mut embedding = vectors;
    for (c, &lambda) in values.iter().enumerate() {
        let scale = lambda.abs().sqrt();
        for r in 0..embedding.rows() {
            let v = embedding.get(r, c) * scale;
            embedding.set(r, c, v);
        }
    }
    embedding
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    #[test]
    fn embedding_shape_and_finiteness() {
        let g = karate_club();
        let z = hope_embedding(
            &g,
            &HopeConfig {
                dim: 8,
                ..Default::default()
            },
        );
        assert_eq!(z.shape(), (34, 8));
        assert!(z.all_finite());
    }

    #[test]
    fn reconstructs_proximity_better_than_random() {
        // Low-rank Z Zᵀ should correlate with the symmetrized Ã far better
        // than a random embedding of the same size.
        let g = karate_club();
        let cfg = HopeConfig {
            dim: 8,
            iterations: 200,
            seed: 1,
            ..Default::default()
        };
        let z = hope_embedding(&g, &cfg);
        let ho = HighOrder::build(g.adjacency(), &cfg.proximity);
        let target = {
            let t = ho.a_tilde.transpose();
            let mut s = ho.a_tilde.add_scaled(&t, 1.0);
            s.scale_inplace(0.5);
            s.to_dense()
        };
        let recon_err = |emb: &DenseMatrix| -> f64 {
            let zt = emb.matmul(&emb.transpose());
            zt.sub(&target).frobenius_norm()
        };
        let mut rng = aneci_linalg::rng::seeded_rng(2);
        let random = aneci_linalg::rng::gaussian_matrix(34, 8, 0.1, &mut rng);
        assert!(
            recon_err(&z) < 0.8 * recon_err(&random),
            "HOPE {:.3} vs random {:.3}",
            recon_err(&z),
            recon_err(&random)
        );
    }

    #[test]
    fn separates_karate_factions() {
        let g = karate_club();
        let z = hope_embedding(
            &g,
            &HopeConfig {
                dim: 4,
                iterations: 200,
                seed: 3,
                ..Default::default()
            },
        );
        let labels = g.labels.as_ref().unwrap();
        // Nearest-centroid check.
        let mut centroids = vec![vec![0.0; 4]; 2];
        let mut counts = [0usize; 2];
        for i in 0..34 {
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
        let dist = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum::<f64>()
        };
        let correct = (0..34)
            .filter(|&i| {
                let d0 = dist(z.row(i), &centroids[0]);
                let d1 = dist(z.row(i), &centroids[1]);
                usize::from(d1 < d0) == labels[i]
            })
            .count();
        assert!(correct >= 28, "nearest-centroid hits {correct}/34");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = HopeConfig {
            dim: 4,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(hope_embedding(&g, &cfg), hope_embedding(&g, &cfg));
    }
}
