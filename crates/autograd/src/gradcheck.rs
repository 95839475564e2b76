//! Finite-difference gradient checking.
//!
//! Used by this crate's own tests and re-exported so downstream crates
//! (models, attacks) can verify their composed losses too.

use aneci_linalg::DenseMatrix;

/// Result of a gradient check.
#[derive(Clone, Debug)]
pub struct GradCheck {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_err: f64,
    /// Largest relative difference (|a-n| / max(1, |a|, |n|)).
    pub max_rel_err: f64,
}

impl GradCheck {
    /// True if both errors are below `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_err < tol || self.max_rel_err < tol
    }
}

/// Central-difference check of an analytic gradient.
///
/// `f` maps a parameter matrix to a scalar loss; `x` is the point to check
/// at; `analytic` is the gradient produced by backprop at `x`; `eps` is the
/// probe step (1e-5 is a good default for f64).
pub fn check_gradient(
    f: impl Fn(&DenseMatrix) -> f64,
    x: &DenseMatrix,
    analytic: &DenseMatrix,
    eps: f64,
) -> GradCheck {
    assert_eq!(
        x.shape(),
        analytic.shape(),
        "check_gradient: shape mismatch"
    );
    let mut max_abs = 0.0f64;
    let mut max_rel = 0.0f64;
    let mut probe = x.clone();
    for idx in 0..x.len() {
        let orig = probe.as_slice()[idx];
        probe.as_mut_slice()[idx] = orig + eps;
        let up = f(&probe);
        probe.as_mut_slice()[idx] = orig - eps;
        let down = f(&probe);
        probe.as_mut_slice()[idx] = orig;
        let numeric = (up - down) / (2.0 * eps);
        let a = analytic.as_slice()[idx];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheck {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
    use aneci_linalg::CsrMatrix;
    use std::sync::Arc;

    /// Helper: evaluate loss & grad for a 1-parameter tape program.
    fn eval<F>(build: &F, x: &DenseMatrix) -> (f64, DenseMatrix)
    where
        F: Fn(&mut Tape, crate::tape::Var) -> crate::tape::Var,
    {
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let loss = build(&mut t, xv);
        t.backward(loss);
        (t.scalar(loss), t.grad(xv))
    }

    fn check<F>(build: F, x: &DenseMatrix, tol: f64)
    where
        F: Fn(&mut Tape, crate::tape::Var) -> crate::tape::Var,
    {
        let (_, g) = eval(&build, x);
        let gc = check_gradient(|m| eval(&build, m).0, x, &g, 1e-5);
        assert!(
            gc.passes(tol),
            "gradcheck failed: abs={} rel={}",
            gc.max_abs_err,
            gc.max_rel_err
        );
    }

    #[test]
    fn gradcheck_activations() {
        let mut rng = seeded_rng(31);
        let x = gaussian_matrix(4, 3, 1.0, &mut rng);
        check(
            |t, v| {
                let y = t.sigmoid(v);
                t.sum(y)
            },
            &x,
            1e-7,
        );
        check(
            |t, v| {
                let y = t.tanh(v);
                t.sum(y)
            },
            &x,
            1e-7,
        );
        check(
            |t, v| {
                let y = t.leaky_relu(v, 0.01);
                let z = t.hadamard(y, y);
                t.sum(z)
            },
            &x,
            1e-6,
        );
    }

    #[test]
    fn gradcheck_softmax_composition() {
        let mut rng = seeded_rng(32);
        let x = gaussian_matrix(5, 4, 1.0, &mut rng);
        // Non-trivial downstream: sum of squares of softmax.
        check(
            |t, v| {
                let p = t.softmax_rows(v);
                let sq = t.hadamard(p, p);
                t.sum(sq)
            },
            &x,
            1e-6,
        );
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let mut rng = seeded_rng(33);
        let x = gaussian_matrix(4, 3, 1.0, &mut rng);
        let w = gaussian_matrix(3, 2, 1.0, &mut rng);
        let wc = w.clone();
        check(
            move |t, v| {
                let wv = t.constant(wc.clone());
                let y = t.matmul(v, wv);
                let a = t.leaky_relu(y, 0.01);
                t.frob_sq(a)
            },
            &x,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_matmul_tn() {
        let mut rng = seeded_rng(34);
        let x = gaussian_matrix(6, 3, 1.0, &mut rng);
        let k = gaussian_matrix(6, 1, 1.0, &mut rng);
        let kc = k.clone();
        // ||Xᵀk||² — exactly the second modularity term.
        check(
            move |t, v| {
                let kv = t.constant(kc.clone());
                let y = t.matmul_tn(v, kv);
                t.frob_sq(y)
            },
            &x,
            1e-5,
        );
    }

    #[test]
    fn gradcheck_spmm_modularity_term() {
        let mut rng = seeded_rng(35);
        let s = Arc::new(CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 1, 0.5),
                (1, 0, 0.5),
                (1, 2, 0.3),
                (2, 1, 0.3),
                (3, 4, 0.9),
                (4, 3, 0.9),
                (2, 2, 0.2),
            ],
        ));
        let x = gaussian_matrix(5, 3, 1.0, &mut rng);
        let sc = Arc::clone(&s);
        // sum(P ⊙ (S P)) with P = softmax(X): the first modularity term.
        check(
            move |t, v| {
                let p = t.softmax_rows(v);
                let sp = t.spmm(&sc, p);
                let prod = t.hadamard(p, sp);
                t.sum(prod)
            },
            &x,
            1e-6,
        );
    }

    #[test]
    fn gradcheck_spmm_non_symmetric() {
        // The backward must apply Sᵀ, not S: a non-symmetric, non-square
        // operator tells the two apart.
        let mut rng = seeded_rng(40);
        let s = Arc::new(CsrMatrix::from_triplets(
            4,
            5,
            &[
                (0, 1, 0.7),
                (0, 4, -0.4),
                (1, 0, 1.2),
                (2, 3, 0.9),
                (3, 2, -0.3),
            ],
        ));
        let g = gaussian_matrix(4, 2, 1.0, &mut rng);
        let x = gaussian_matrix(5, 2, 1.0, &mut rng);
        check(
            move |t, v| {
                let y = t.spmm(&s, v);
                let a = t.tanh(y);
                let gv = t.constant(g.clone());
                t.dot(a, gv)
            },
            &x,
            1e-6,
        );
    }

    #[test]
    fn gradcheck_dense_recon_bce() {
        let mut rng = seeded_rng(36);
        let x = gaussian_matrix(5, 3, 0.7, &mut rng);
        let target = Arc::new(DenseMatrix::from_fn(5, 5, |r, c| {
            if (r + 2 * c) % 3 == 0 {
                0.8
            } else {
                0.1
            }
        }));
        let tc = Arc::clone(&target);
        check(move |t, v| t.dense_recon_bce(v, &tc, 1.0), &x, 1e-5);
        // And with a non-unit positive weight.
        let tc2 = Arc::clone(&target);
        check(move |t, v| t.dense_recon_bce(v, &tc2, 3.5), &x, 1e-5);
    }

    #[test]
    fn gradcheck_pair_bce() {
        let mut rng = seeded_rng(37);
        let x = gaussian_matrix(6, 3, 0.7, &mut rng);
        let pairs: Arc<[(u32, u32, f64)]> = vec![
            (0, 1, 1.0),
            (2, 3, 0.0),
            (4, 5, 1.0),
            (0, 5, 0.25),
            (1, 1, 1.0),
        ]
        .into();
        let pc = Arc::clone(&pairs);
        check(move |t, v| t.pair_bce(v, &pc, Vec::new()), &x, 1e-5);
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let mut rng = seeded_rng(38);
        let x = gaussian_matrix(6, 4, 1.0, &mut rng);
        let labels = vec![0, 3, 1, 2, 0, 1];
        let rows = vec![0, 1, 4, 5];
        let (lc, rc) = (labels.clone(), rows.clone());
        check(move |t, v| t.softmax_cross_entropy(v, &lc, &rc), &x, 1e-6);
        let _ = (labels, rows);
    }

    #[test]
    fn gradcheck_full_two_layer_gcn_style_loss() {
        // End-to-end: softmax(S·lrelu(S·X·W1)·W2) through both AnECI loss
        // terms, differentiating through X held fixed, W1 as the parameter.
        let mut rng = seeded_rng(39);
        let n = 6;
        let s = Arc::new(
            CsrMatrix::from_triplets(
                n,
                n,
                &[
                    (0, 1, 1.0),
                    (1, 0, 1.0),
                    (1, 2, 1.0),
                    (2, 1, 1.0),
                    (3, 4, 1.0),
                    (4, 3, 1.0),
                    (4, 5, 1.0),
                    (5, 4, 1.0),
                    (2, 3, 1.0),
                    (3, 2, 1.0),
                ],
            )
            .add_identity()
            .sym_normalize(),
        );
        let xf = gaussian_matrix(n, 4, 1.0, &mut rng);
        let w1 = gaussian_matrix(4, 3, 0.8, &mut rng);
        let w2 = gaussian_matrix(3, 2, 0.8, &mut rng);
        let k = gaussian_matrix(n, 1, 0.5, &mut rng).map(f64::abs);
        let target = Arc::new(DenseMatrix::from_fn(n, n, |r, c| {
            if r.abs_diff(c) <= 1 {
                0.5
            } else {
                0.0
            }
        }));

        let (sc, xc, w2c, kc, tc) = (s, xf, w2, k, target);
        check(
            move |t, w1v| {
                let x = t.constant(xc.clone());
                let w2 = t.constant(w2c.clone());
                let kv = t.constant(kc.clone());
                let xw = t.matmul(x, w1v);
                let h1 = t.spmm(&sc, xw);
                let a1 = t.leaky_relu(h1, 0.01);
                let hw = t.matmul(a1, w2);
                let z = t.spmm(&sc, hw);
                let p = t.softmax_rows(z);
                // modularity pieces
                let sp = t.spmm(&sc, p);
                let term1 = {
                    let h = t.hadamard(p, sp);
                    t.sum(h)
                };
                let y = t.matmul_tn(p, kv);
                let term2 = t.frob_sq(y);
                let q = {
                    let t2 = t.scale(term2, 0.25);
                    t.sub(term1, t2)
                };
                let recon = t.dense_recon_bce(p, &tc, 1.0);
                let negq = t.neg(q);
                let nq = t.scale(negq, 0.7);
                let rc = t.scale(recon, 0.3);
                t.add(nq, rc)
            },
            &w1,
            1e-5,
        );
    }
}
