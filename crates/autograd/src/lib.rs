//! # aneci-autograd
//!
//! A small tape-based reverse-mode automatic-differentiation engine over
//! [`aneci_linalg::DenseMatrix`], purpose-built for the graph neural models
//! of the AnECI reproduction (GCN encoders, autoencoder decoders, the
//! generalized modularity objective) and for the gradient-based FGA attack.
//!
//! * [`tape::Tape`] / [`tape::Var`] — define-by-run computation graph;
//! * [`optim`] — `ParamSet` and Adam (with decoupled weight decay);
//! * [`train`] — the shared [`train::Trainer`] engine: one epoch loop that
//!   owns the tape-rebuild/backward/Adam-step cycle (stop rules, divergence
//!   guard, telemetry) for the core model and every baseline, over the
//!   batches a [`train::TrainStep`] plans (one per epoch by default);
//! * [`train_batch`] — deterministic batch plans: community-aware
//!   sampling or one full-graph batch ([`train_batch::BatchSampler`]);
//! * [`gradcheck`] — central-difference verification used throughout the
//!   workspace's test suites.
//!
//! ```
//! use aneci_autograd::tape::Tape;
//! use aneci_linalg::DenseMatrix;
//!
//! let mut t = Tape::new();
//! let x = t.leaf(DenseMatrix::from_rows(&[&[1.0, -2.0]]));
//! let y = t.sigmoid(x);
//! let loss = t.sum(y);
//! t.backward(loss);
//! assert_eq!(t.grad(x).shape(), (1, 2));
//! ```

pub mod gradcheck;
pub mod optim;
pub mod tape;
pub mod train;
pub mod train_batch;

pub use gradcheck::{check_gradient, GradCheck};
pub use optim::{Adam, ParamSet};
pub use tape::{BcePair, Tape, Var};
pub use train::{Objective, StepOutput, StopRule, TrainError, TrainRun, TrainStep, Trainer};
pub use train_batch::{BatchSampler, BatchStrategy};

#[cfg(test)]
mod proptests {
    use crate::gradcheck::check_gradient;
    use crate::tape::Tape;
    use aneci_linalg::DenseMatrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Backprop through softmax→frob² agrees with finite differences for
        /// arbitrary small inputs.
        #[test]
        fn softmax_frobsq_gradcheck(v in prop::collection::vec(-3.0..3.0f64, 12)) {
            let x = DenseMatrix::from_vec(3, 4, v);
            let eval = |m: &DenseMatrix| {
                let mut t = Tape::new();
                let xv = t.leaf(m.clone());
                let p = t.softmax_rows(xv);
                let loss = t.frob_sq(p);
                t.backward(loss);
                (t.scalar(loss), t.grad(xv))
            };
            let (_, g) = eval(&x);
            let gc = check_gradient(|m| eval(m).0, &x, &g, 1e-5);
            prop_assert!(gc.passes(1e-5), "abs={} rel={}", gc.max_abs_err, gc.max_rel_err);
        }

        /// The gradient of sum(x·W) w.r.t. x equals 1·Wᵀ for any W.
        #[test]
        fn matmul_grad_closed_form(
            xv in prop::collection::vec(-2.0..2.0f64, 6),
            wv in prop::collection::vec(-2.0..2.0f64, 6),
        ) {
            let x = DenseMatrix::from_vec(2, 3, xv);
            let w = DenseMatrix::from_vec(3, 2, wv);
            let mut t = Tape::new();
            let xvar = t.leaf(x);
            let wvar = t.constant(w.clone());
            let y = t.matmul(xvar, wvar);
            let loss = t.sum(y);
            t.backward(loss);
            let expected = DenseMatrix::filled(2, 2, 1.0).matmul(&w.transpose());
            prop_assert!(t.grad(xvar).sub(&expected).max_abs() < 1e-10);
        }

        /// Linearity: grad of a·f + b·g is a·grad f + b·grad g.
        #[test]
        fn gradient_linearity(
            v in prop::collection::vec(-2.0..2.0f64, 9),
            a in -3.0..3.0f64,
            b in -3.0..3.0f64,
        ) {
            let x = DenseMatrix::from_vec(3, 3, v);
            let run = |ca: f64, cb: f64, m: &DenseMatrix| {
                let mut t = Tape::new();
                let xv = t.leaf(m.clone());
                let s = t.sigmoid(xv);
                let f = t.sum(s);
                let h = t.tanh(xv);
                let g = t.frob_sq(h);
                let fa = t.scale(f, ca);
                let gb = t.scale(g, cb);
                let loss = t.add(fa, gb);
                t.backward(loss);
                t.grad(xv)
            };
            let combined = run(a, b, &x);
            let fx = run(1.0, 0.0, &x);
            let gx = run(0.0, 1.0, &x);
            let mut expect = fx.scale(a);
            expect.axpy(b, &gx);
            prop_assert!(combined.sub(&expect).max_abs() < 1e-9);
        }
    }
}
