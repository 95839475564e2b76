//! Exact t-SNE (van der Maaten & Hinton 2008).
//!
//! Used to regenerate Fig. 8 (2-D visualization of the learned embeddings).
//! This is the exact `O(N²)` formulation — fine at Cora scale — with the
//! standard machinery: perplexity-calibrated conditional Gaussians via
//! per-point binary search on the bandwidth, symmetrized `P`, early
//! exaggeration, and momentum gradient descent on the Student-t similarities.

use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::DenseMatrix;

/// t-SNE hyperparameters.
#[derive(Clone, Debug)]
pub struct TsneConfig {
    /// Target perplexity (effective neighbour count).
    pub perplexity: f64,
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Early-exaggeration factor applied for the first quarter of training.
    pub exaggeration: f64,
    /// RNG seed for the initial layout.
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        Self {
            perplexity: 30.0,
            iterations: 400,
            learning_rate: 100.0,
            exaggeration: 12.0,
            seed: 0,
        }
    }
}

/// Pairwise squared Euclidean distances between rows.
fn pairwise_sq_dists(x: &DenseMatrix) -> DenseMatrix {
    let n = x.rows();
    let norms: Vec<f64> = (0..n)
        .map(|i| x.row(i).iter().map(|v| v * v).sum())
        .collect();
    let gram = x.matmul(&x.transpose());
    DenseMatrix::from_fn(n, n, |i, j| {
        (norms[i] + norms[j] - 2.0 * gram.get(i, j)).max(0.0)
    })
}

/// Computes the symmetrized, normalized affinity matrix `P` for a given
/// perplexity via per-row binary search on the Gaussian bandwidth.
fn joint_probabilities(d2: &DenseMatrix, perplexity: f64) -> DenseMatrix {
    let n = d2.rows();
    let target_entropy = perplexity.ln();
    let mut p = DenseMatrix::zeros(n, n);
    for i in 0..n {
        let mut beta = 1.0; // precision = 1/(2σ²)
        let (mut beta_lo, mut beta_hi) = (0.0f64, f64::INFINITY);
        let row = d2.row(i).to_vec();
        for _ in 0..64 {
            // Conditional distribution and its entropy at this beta.
            let mut sum = 0.0;
            let mut sum_dp = 0.0;
            for (j, &d) in row.iter().enumerate() {
                if j == i {
                    continue;
                }
                let e = (-beta * d).exp();
                sum += e;
                sum_dp += d * e;
            }
            if sum <= 0.0 {
                break;
            }
            let entropy = beta * sum_dp / sum + sum.ln();
            let diff = entropy - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                beta_lo = beta;
                beta = if beta_hi.is_finite() {
                    (beta + beta_hi) / 2.0
                } else {
                    beta * 2.0
                };
            } else {
                beta_hi = beta;
                beta = (beta + beta_lo) / 2.0;
            }
        }
        let mut sum = 0.0;
        for (j, &d) in row.iter().enumerate() {
            if j != i {
                sum += (-beta * d).exp();
            }
        }
        if sum > 0.0 {
            for (j, &d) in row.iter().enumerate() {
                if j != i {
                    p.set(i, j, (-beta * d).exp() / sum);
                }
            }
        }
    }
    // Symmetrize and normalize: P = (P + Pᵀ) / 2n, floored for stability.
    let pt = p.transpose();
    let n2 = 2.0 * n as f64;
    DenseMatrix::from_fn(n, n, |i, j| ((p.get(i, j) + pt.get(i, j)) / n2).max(1e-12))
}

/// Embeds the rows of `x` into 2-D.
pub fn tsne(x: &DenseMatrix, config: &TsneConfig) -> DenseMatrix {
    let n = x.rows();
    assert!(n >= 4, "tsne: need at least 4 points");
    let d2 = pairwise_sq_dists(x);
    let p = joint_probabilities(&d2, config.perplexity.min((n - 1) as f64 / 3.0));

    let mut rng = seeded_rng(config.seed);
    let mut y = gaussian_matrix(n, 2, 1e-2, &mut rng);
    let mut velocity = DenseMatrix::zeros(n, 2);
    let exaggeration_end = config.iterations / 4;

    for it in 0..config.iterations {
        let exag = if it < exaggeration_end {
            config.exaggeration
        } else {
            1.0
        };
        let momentum = if it < exaggeration_end { 0.5 } else { 0.8 };

        // Student-t similarities Q and the normalizer.
        let mut num = DenseMatrix::zeros(n, n);
        let mut z = 0.0;
        for i in 0..n {
            let yi = y.row(i).to_vec();
            for j in (i + 1)..n {
                let yj = y.row(j);
                let d = (yi[0] - yj[0]) * (yi[0] - yj[0]) + (yi[1] - yj[1]) * (yi[1] - yj[1]);
                let t = 1.0 / (1.0 + d);
                num.set(i, j, t);
                num.set(j, i, t);
                z += 2.0 * t;
            }
        }
        let z = z.max(1e-12);

        // Gradient: 4 Σ_j (exag·p_ij − q_ij) t_ij (y_i − y_j).
        let mut grad = DenseMatrix::zeros(n, 2);
        for i in 0..n {
            let yi = y.row(i).to_vec();
            let mut gx = 0.0;
            let mut gy = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let t = num.get(i, j);
                let q = t / z;
                let coeff = 4.0 * (exag * p.get(i, j) - q) * t;
                let yj = y.row(j);
                gx += coeff * (yi[0] - yj[0]);
                gy += coeff * (yi[1] - yj[1]);
            }
            grad.set(i, 0, gx);
            grad.set(i, 1, gy);
        }

        velocity.scale_inplace(momentum);
        velocity.axpy(-config.learning_rate, &grad);
        y.add_assign(&velocity);

        // Re-center to keep the layout bounded.
        let means = y
            .col_sums()
            .iter()
            .map(|s| s / n as f64)
            .collect::<Vec<_>>();
        for r in 0..n {
            for (v, &m) in y.row_mut(r).iter_mut().zip(&means) {
                *v -= m;
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::rng::seeded_rng;

    fn two_blobs(per: usize, sep: f64, seed: u64) -> (DenseMatrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let x = DenseMatrix::from_fn(2 * per, 5, |r, _| {
            let center = if r < per { 0.0 } else { sep };
            center + 0.3 * aneci_linalg::rng::standard_normal(&mut rng)
        });
        let y = (0..2 * per).map(|r| usize::from(r >= per)).collect();
        (x, y)
    }

    #[test]
    fn preserves_cluster_structure() {
        let (x, labels) = two_blobs(30, 6.0, 1);
        let cfg = TsneConfig {
            iterations: 250,
            seed: 2,
            ..Default::default()
        };
        let y = tsne(&x, &cfg);
        // Mean within-cluster distance must be well below between-cluster.
        let dist = |a: usize, b: usize| -> f64 {
            let (ra, rb) = (y.row(a), y.row(b));
            ((ra[0] - rb[0]).powi(2) + (ra[1] - rb[1]).powi(2)).sqrt()
        };
        let mut within = (0.0, 0usize);
        let mut between = (0.0, 0usize);
        for i in 0..60 {
            for j in (i + 1)..60 {
                if labels[i] == labels[j] {
                    within = (within.0 + dist(i, j), within.1 + 1);
                } else {
                    between = (between.0 + dist(i, j), between.1 + 1);
                }
            }
        }
        let w = within.0 / within.1 as f64;
        let b = between.0 / between.1 as f64;
        assert!(b > 1.5 * w, "within {w}, between {b}");
    }

    #[test]
    fn output_is_centered_and_finite() {
        let (x, _) = two_blobs(20, 3.0, 3);
        let y = tsne(
            &x,
            &TsneConfig {
                iterations: 100,
                seed: 4,
                ..Default::default()
            },
        );
        assert!(y.all_finite());
        for s in y.col_sums() {
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn joint_probabilities_are_symmetric_distribution() {
        let (x, _) = two_blobs(10, 2.0, 5);
        let d2 = pairwise_sq_dists(&x);
        let p = joint_probabilities(&d2, 5.0);
        // Sums to ~1 (up to the stability floor).
        assert!((p.sum() - 1.0).abs() < 1e-3);
        assert!(p.sub(&p.transpose()).max_abs() < 1e-12);
    }

    #[test]
    fn pairwise_distances_match_direct() {
        let x = DenseMatrix::from_rows(&[&[0.0, 0.0], &[3.0, 4.0], &[1.0, 1.0]]);
        let d2 = pairwise_sq_dists(&x);
        assert!((d2.get(0, 1) - 25.0).abs() < 1e-12);
        assert!((d2.get(0, 2) - 2.0).abs() < 1e-12);
        assert_eq!(d2.get(1, 1), 0.0);
    }
}
