//! Multinomial logistic regression.
//!
//! This is the downstream classifier the paper trains on frozen embeddings
//! for every unsupervised method (Sec. VI-A): "we train a logistic
//! regression classifier with node embeddings as input features". Implemented
//! directly (closed-form softmax gradients + full-batch gradient descent with
//! momentum and L2), no autograd dependency.

use aneci_linalg::rng::{seeded_rng, xavier_uniform};
use aneci_linalg::DenseMatrix;

/// Hyperparameters for [`LogisticRegression::fit`].
#[derive(Clone, Debug)]
pub struct LogRegConfig {
    /// Learning rate.
    pub lr: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularization strength on the weights (not the bias).
    pub l2: f64,
    /// Whether to z-score each input dimension before training (statistics
    /// are estimated on the training rows and reused at prediction).
    pub standardize: bool,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self {
            lr: 0.5,
            epochs: 300,
            l2: 1e-4,
            standardize: true,
            seed: 0,
        }
    }
}

/// A fitted multinomial logistic-regression model.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    weights: DenseMatrix, // d × k
    bias: Vec<f64>,       // k
    mean: Vec<f64>,
    std: Vec<f64>,
    standardize: bool,
    num_classes: usize,
}

impl LogisticRegression {
    /// Fits on `(features, labels)`; `labels` must lie in `0..num_classes`.
    pub fn fit(
        features: &DenseMatrix,
        labels: &[usize],
        num_classes: usize,
        config: &LogRegConfig,
    ) -> Self {
        assert_eq!(features.rows(), labels.len(), "logreg: row/label mismatch");
        assert!(num_classes >= 2, "logreg: need at least two classes");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "logreg: label out of range"
        );
        let n = features.rows();
        let d = features.cols();

        // Standardization statistics from the training rows.
        let (mean, std) = if config.standardize {
            let mut mean = vec![0.0; d];
            for row in features.rows_iter() {
                for (m, &v) in mean.iter_mut().zip(row) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n as f64;
            }
            let mut var = vec![0.0; d];
            for row in features.rows_iter() {
                for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                    *s += (v - m) * (v - m);
                }
            }
            // Dimensions that are (near-)constant on the training rows carry
            // no signal; dividing by a tiny std would explode them, so they
            // are left centered but unscaled.
            let std: Vec<f64> = var
                .iter()
                .map(|&v| {
                    let s = (v / n as f64).sqrt();
                    if s < 1e-6 {
                        1.0
                    } else {
                        s
                    }
                })
                .collect();
            (mean, std)
        } else {
            (vec![0.0; d], vec![1.0; d])
        };

        let x = Self::apply_standardize(features, &mean, &std, config.standardize);

        let mut rng = seeded_rng(config.seed);
        let mut w = xavier_uniform(d, num_classes, &mut rng);
        let mut b = vec![0.0; num_classes];

        let mut vel_w = DenseMatrix::zeros(d, num_classes);
        let mut vel_b = vec![0.0; num_classes];
        let momentum = 0.9;

        for _ in 0..config.epochs {
            // Forward: probs = softmax(XW + b).
            let mut logits = x.matmul(&w);
            for r in 0..n {
                for (lv, &bv) in logits.row_mut(r).iter_mut().zip(&b) {
                    *lv += bv;
                }
            }
            logits.softmax_rows_inplace();
            // Gradient: Xᵀ(probs − Y)/n + l2·W.
            for (r, &label) in labels.iter().enumerate() {
                logits.add_at(r, label, -1.0);
            }
            let mut gw = x.matmul_tn(&logits);
            gw.scale_inplace(1.0 / n as f64);
            gw.axpy(config.l2, &w);
            let mut gb = logits.col_sums();
            for g in &mut gb {
                *g /= n as f64;
            }
            // Momentum update.
            vel_w.scale_inplace(momentum);
            vel_w.axpy(1.0, &gw);
            w.axpy(-config.lr, &vel_w);
            for ((vb, gb), bb) in vel_b.iter_mut().zip(&gb).zip(&mut b) {
                *vb = momentum * *vb + gb;
                *bb -= config.lr * *vb;
            }
        }

        Self {
            weights: w,
            bias: b,
            mean,
            std,
            standardize: config.standardize,
            num_classes,
        }
    }

    fn apply_standardize(x: &DenseMatrix, mean: &[f64], std: &[f64], enabled: bool) -> DenseMatrix {
        if !enabled {
            return x.clone();
        }
        let mut out = x.clone();
        for r in 0..out.rows() {
            for ((v, &m), &s) in out.row_mut(r).iter_mut().zip(mean).zip(std) {
                *v = (*v - m) / s;
            }
        }
        out
    }

    /// Class-probability matrix for new rows.
    pub fn predict_proba(&self, features: &DenseMatrix) -> DenseMatrix {
        let x = Self::apply_standardize(features, &self.mean, &self.std, self.standardize);
        let mut logits = x.matmul(&self.weights);
        for r in 0..logits.rows() {
            for (lv, &bv) in logits.row_mut(r).iter_mut().zip(&self.bias) {
                *lv += bv;
            }
        }
        logits.softmax_rows_inplace();
        logits
    }

    /// Hard class predictions.
    pub fn predict(&self, features: &DenseMatrix) -> Vec<usize> {
        self.predict_proba(features).argmax_rows()
    }

    /// Number of classes the model was fitted with.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// The full embedding-evaluation protocol of the paper: fit logistic
/// regression on the training rows of `embedding`, return accuracy on the
/// test rows.
pub fn evaluate_embedding(
    embedding: &DenseMatrix,
    labels: &[usize],
    train: &[usize],
    test: &[usize],
    num_classes: usize,
    seed: u64,
) -> f64 {
    let x_train = embedding.select_rows(train);
    let y_train: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
    let config = LogRegConfig {
        seed,
        ..Default::default()
    };
    let model = LogisticRegression::fit(&x_train, &y_train, num_classes, &config);
    let x_test = embedding.select_rows(test);
    let y_test: Vec<usize> = test.iter().map(|&i| labels[i]).collect();
    let pred = model.predict(&x_test);
    crate::metrics::accuracy(&pred, &y_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};

    /// Two well-separated Gaussian blobs must be almost perfectly separable.
    fn blobs(n_per: usize, d: usize, sep: f64, seed: u64) -> (DenseMatrix, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let noise = gaussian_matrix(2 * n_per, d, 1.0, &mut rng);
        let x = DenseMatrix::from_fn(2 * n_per, d, |r, c| {
            let center = if r < n_per { -sep } else { sep };
            center + noise.get(r, c)
        });
        let y: Vec<usize> = (0..2 * n_per).map(|r| usize::from(r >= n_per)).collect();
        (x, y)
    }

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let (x, y) = blobs(100, 4, 2.0, 1);
        let model = LogisticRegression::fit(&x, &y, 2, &LogRegConfig::default());
        let pred = model.predict(&x);
        assert!(crate::metrics::accuracy(&pred, &y) > 0.97);
    }

    #[test]
    fn three_class_problem() {
        let mut rng = seeded_rng(2);
        let n = 120;
        let noise = gaussian_matrix(n, 3, 0.3, &mut rng);
        let x = DenseMatrix::from_fn(n, 3, |r, c| {
            let class = r % 3;
            (if c == class { 2.0 } else { 0.0 }) + noise.get(r, c)
        });
        let y: Vec<usize> = (0..n).map(|r| r % 3).collect();
        let model = LogisticRegression::fit(&x, &y, 3, &LogRegConfig::default());
        let pred = model.predict(&x);
        assert!(crate::metrics::accuracy(&pred, &y) > 0.95);
    }

    #[test]
    fn probabilities_are_normalized() {
        let (x, y) = blobs(30, 2, 1.0, 3);
        let model = LogisticRegression::fit(&x, &y, 2, &LogRegConfig::default());
        let p = model.predict_proba(&x);
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardization_helps_with_scale_mismatch() {
        // One informative dimension at tiny scale, one noise dimension huge.
        let mut rng = seeded_rng(4);
        let n = 200;
        let x = DenseMatrix::from_fn(n, 2, |r, c| {
            if c == 0 {
                (if r < n / 2 { -1.0 } else { 1.0 }) * 1e-3
                    + 1e-4 * aneci_linalg::rng::standard_normal(&mut rng)
            } else {
                1e3 * aneci_linalg::rng::standard_normal(&mut rng)
            }
        });
        let y: Vec<usize> = (0..n).map(|r| usize::from(r >= n / 2)).collect();
        let cfg = LogRegConfig {
            standardize: true,
            ..Default::default()
        };
        let model = LogisticRegression::fit(&x, &y, 2, &cfg);
        assert!(crate::metrics::accuracy(&model.predict(&x), &y) > 0.95);
    }

    #[test]
    fn deterministic_in_seed() {
        let (x, y) = blobs(50, 3, 1.0, 5);
        let cfg = LogRegConfig::default();
        let m1 = LogisticRegression::fit(&x, &y, 2, &cfg);
        let m2 = LogisticRegression::fit(&x, &y, 2, &cfg);
        assert_eq!(m1.predict_proba(&x), m2.predict_proba(&x));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let (x, _) = blobs(10, 2, 1.0, 6);
        let bad = vec![5; 20];
        LogisticRegression::fit(&x, &bad, 2, &LogRegConfig::default());
    }
}
