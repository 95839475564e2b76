//! Spectral embedding (Laplacian eigenmaps, Belkin & Niyogi 2003) — the
//! "traditional graph embedding [3]" lineage the paper cites, and a useful
//! deterministic reference point.
//!
//! Computes the top eigenvectors of the symmetric-normalized adjacency
//! `D^-1/2 (A+I) D^-1/2` by orthogonal (subspace) iteration with
//! Gram–Schmidt re-orthonormalization, then drops the trivial leading
//! eigenvector.

use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, gaussian_matrix, seeded_rng};
use aneci_linalg::{CsrMatrix, DenseMatrix};

/// Spectral-embedding hyperparameters.
#[derive(Clone, Debug)]
pub struct SpectralConfig {
    /// Embedding dimensionality (eigenvectors kept after dropping the
    /// trivial one).
    pub dim: usize,
    /// Subspace-iteration sweeps.
    pub iterations: usize,
    /// RNG seed for the starting subspace.
    pub seed: u64,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            iterations: 100,
            seed: 0,
        }
    }
}

/// Modified Gram–Schmidt, in place: orthonormalizes the columns of `m`.
/// Columns that collapse numerically are re-randomized deterministically.
fn orthonormalize(m: &mut DenseMatrix, seed: u64) {
    let (n, k) = m.shape();
    let mut rng = seeded_rng(seed);
    for c in 0..k {
        // Subtract projections onto previous columns.
        for prev in 0..c {
            let dot: f64 = (0..n).map(|r| m.get(r, c) * m.get(r, prev)).sum();
            for r in 0..n {
                let v = m.get(r, c) - dot * m.get(r, prev);
                m.set(r, c, v);
            }
        }
        let norm: f64 = (0..n)
            .map(|r| m.get(r, c) * m.get(r, c))
            .sum::<f64>()
            .sqrt();
        if norm < 1e-12 {
            for r in 0..n {
                m.set(r, c, aneci_linalg::rng::standard_normal(&mut rng));
            }
            // One more orthogonalization pass for the fresh column.
            for prev in 0..c {
                let dot: f64 = (0..n).map(|r| m.get(r, c) * m.get(r, prev)).sum();
                for r in 0..n {
                    let v = m.get(r, c) - dot * m.get(r, prev);
                    m.set(r, c, v);
                }
            }
            let norm2: f64 = (0..n)
                .map(|r| m.get(r, c) * m.get(r, c))
                .sum::<f64>()
                .sqrt();
            for r in 0..n {
                m.set(r, c, m.get(r, c) / norm2.max(1e-12));
            }
        } else {
            for r in 0..n {
                m.set(r, c, m.get(r, c) / norm);
            }
        }
    }
}

/// Top-`k` eigenvectors (by |λ|) of a symmetric sparse operator, via
/// orthogonal iteration. Returns `(eigenvalues, eigenvectors)` with
/// eigenvectors as columns, ordered by descending eigenvalue.
pub fn top_eigenvectors(
    op: &CsrMatrix,
    k: usize,
    iterations: usize,
    seed: u64,
) -> (Vec<f64>, DenseMatrix) {
    let n = op.rows();
    assert!(
        k <= n,
        "cannot extract more eigenvectors than the dimension"
    );
    let mut rng = seeded_rng(derive_seed(seed, 0x51D));
    let mut q = gaussian_matrix(n, k, 1.0, &mut rng);
    orthonormalize(&mut q, derive_seed(seed, 1));
    for it in 0..iterations {
        q = op.spmm_dense(&q);
        orthonormalize(&mut q, derive_seed(seed, 2 + it as u64));
    }
    // Rayleigh quotients as eigenvalue estimates.
    let aq = op.spmm_dense(&q);
    let mut pairs: Vec<(f64, usize)> = (0..k)
        .map(|c| {
            let lambda: f64 = (0..n).map(|r| q.get(r, c) * aq.get(r, c)).sum();
            (lambda, c)
        })
        .collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let eigenvalues: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let eigenvectors = DenseMatrix::from_fn(n, k, |r, c| q.get(r, pairs[c].1));
    (eigenvalues, eigenvectors)
}

/// Spectral node embedding: eigenvectors 2..dim+1 of the normalized
/// adjacency (the leading one is trivial/constant-like and dropped).
pub fn spectral_embedding(graph: &AttributedGraph, config: &SpectralConfig) -> DenseMatrix {
    let op = graph.norm_adjacency();
    let k = (config.dim + 1).min(graph.num_nodes());
    let (_, vecs) = top_eigenvectors(&op, k, config.iterations, config.seed);
    // Drop the first (largest-eigenvalue) column.
    DenseMatrix::from_fn(graph.num_nodes(), k.saturating_sub(1), |r, c| {
        vecs.get(r, c + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;
    use aneci_linalg::CsrMatrix;

    #[test]
    fn eigen_of_diagonal_matrix() {
        // diag(3, 2, 1): eigenvalues in order, eigenvectors the axes.
        let d = CsrMatrix::from_triplets(3, 3, &[(0, 0, 3.0), (1, 1, 2.0), (2, 2, 1.0)]);
        let (vals, vecs) = top_eigenvectors(&d, 2, 200, 1);
        assert!((vals[0] - 3.0).abs() < 1e-6, "λ₀ = {}", vals[0]);
        assert!((vals[1] - 2.0).abs() < 1e-6, "λ₁ = {}", vals[1]);
        assert!(vecs.get(0, 0).abs() > 0.99);
        assert!(vecs.get(1, 1).abs() > 0.99);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let g = karate_club();
        let op = g.norm_adjacency();
        let (_, vecs) = top_eigenvectors(&op, 4, 150, 2);
        for a in 0..4 {
            for b in 0..4 {
                let dot: f64 = (0..34).map(|r| vecs.get(r, a) * vecs.get(r, b)).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-6, "({a},{b}) dot = {dot}");
            }
        }
    }

    #[test]
    fn leading_eigenvalue_of_norm_adjacency_is_one() {
        let g = karate_club();
        let op = g.norm_adjacency();
        let (vals, _) = top_eigenvectors(&op, 1, 200, 3);
        assert!((vals[0] - 1.0).abs() < 1e-6, "λ₀ = {}", vals[0]);
    }

    #[test]
    fn fiedler_like_vector_separates_karate_factions() {
        // The second eigenvector of the normalized adjacency is the classic
        // spectral-bisection signal on karate.
        let g = karate_club();
        let emb = spectral_embedding(
            &g,
            &SpectralConfig {
                dim: 1,
                iterations: 300,
                seed: 4,
            },
        );
        let labels = g.labels.as_ref().unwrap();
        let pred: Vec<usize> = (0..34).map(|i| usize::from(emb.get(i, 0) > 0.0)).collect();
        let acc = pred.iter().zip(labels).filter(|(a, b)| a == b).count() as f64 / 34.0;
        let acc = acc.max(1.0 - acc); // sign is arbitrary
        assert!(acc > 0.9, "spectral bisection accuracy {acc}");
    }

    #[test]
    fn embedding_shape_and_determinism() {
        let g = karate_club();
        let cfg = SpectralConfig {
            dim: 8,
            iterations: 50,
            seed: 5,
        };
        let a = spectral_embedding(&g, &cfg);
        assert_eq!(a.shape(), (34, 8));
        assert_eq!(a, spectral_embedding(&g, &cfg));
    }
}
