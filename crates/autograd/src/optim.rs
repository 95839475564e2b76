//! Parameters and the Adam optimizer.
//!
//! The tape is rebuilt every iteration (define-by-run), so parameters live
//! *outside* any tape in a plain [`ParamSet`]. A training step is:
//!
//! 1. create a `Tape`, push each parameter with [`ParamSet::leaf_all`],
//! 2. build the loss, call `backward`,
//! 3. collect gradients and hand them to [`Adam::step`].

use crate::tape::{Tape, Var};
use crate::train::TrainError;
use aneci_linalg::DenseMatrix;

/// A named, ordered collection of trainable matrices.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    names: Vec<String>,
    values: Vec<DenseMatrix>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its slot index.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — duplicate names would
    /// corrupt name-keyed checkpoint round-trips. Use [`Self::try_register`]
    /// to handle the collision instead.
    pub fn register(&mut self, name: impl Into<String>, value: DenseMatrix) -> usize {
        self.try_register(name, value)
            .unwrap_or_else(|e| panic!("ParamSet::register: {e}"))
    }

    /// Registers a parameter, rejecting duplicate names with
    /// [`TrainError::DuplicateParam`].
    pub fn try_register(
        &mut self,
        name: impl Into<String>,
        value: DenseMatrix,
    ) -> Result<usize, TrainError> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(TrainError::DuplicateParam(name));
        }
        self.names.push(name);
        self.values.push(value);
        Ok(self.values.len() - 1)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable access by slot.
    pub fn get(&self, slot: usize) -> &DenseMatrix {
        &self.values[slot]
    }

    /// Mutable access by slot.
    pub fn get_mut(&mut self, slot: usize) -> &mut DenseMatrix {
        &mut self.values[slot]
    }

    /// Name of a slot.
    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    /// Pushes every parameter onto `tape` as a differentiable leaf, in slot
    /// order, returning the tape handles.
    pub fn leaf_all(&self, tape: &mut Tape) -> Vec<Var> {
        self.values.iter().map(|v| tape.leaf(v.clone())).collect()
    }

    /// Collects the gradient of every parameter after `tape.backward`.
    pub fn grads(&self, tape: &Tape, vars: &[Var]) -> Vec<DenseMatrix> {
        assert_eq!(vars.len(), self.len(), "grads: var count mismatch");
        vars.iter().map(|&v| tape.grad(v)).collect()
    }

    /// Global L2 norm of a gradient list (for the divergence guard and
    /// logging).
    pub fn grad_norm(grads: &[DenseMatrix]) -> f64 {
        grads.iter().map(|g| g.dot(g)).sum::<f64>().sqrt()
    }
}

/// Adam (Kingma & Ba 2015) with optional decoupled weight decay (AdamW).
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical fuzz.
    pub eps: f64,
    /// Decoupled weight decay.
    pub weight_decay: f64,
    t: u64,
    m: Vec<DenseMatrix>,
    v: Vec<DenseMatrix>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder: sets decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update.
    pub fn step(&mut self, params: &mut ParamSet, grads: &[DenseMatrix]) {
        assert_eq!(
            grads.len(),
            params.len(),
            "Adam::step: gradient count mismatch"
        );
        if self.m.is_empty() {
            self.m = grads
                .iter()
                .map(|g| DenseMatrix::zeros(g.rows(), g.cols()))
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (slot, g) in grads.iter().enumerate() {
            let m = &mut self.m[slot];
            let v = &mut self.v[slot];
            for ((mi, vi), &gi) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(g.as_slice())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let p = params.get_mut(slot);
            if self.weight_decay != 0.0 {
                let decay = self.lr * self.weight_decay;
                p.map_inplace(|x| x * (1.0 - decay));
            }
            for ((pi, &mi), &vi) in p
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *pi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizes f(x) = ||x - c||² and checks convergence to c.
    fn quadratic_target() -> (DenseMatrix, impl Fn(&DenseMatrix) -> (f64, DenseMatrix)) {
        let c = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        let target = c.clone();
        let f = move |x: &DenseMatrix| {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let cv = t.constant(target.clone());
            let d = t.sub(xv, cv);
            let loss = t.frob_sq(d);
            t.backward(loss);
            (t.scalar(loss), t.grad(xv))
        };
        (c, f)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let (c, f) = quadratic_target();
        let mut params = ParamSet::new();
        params.register("x", DenseMatrix::zeros(2, 2));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let (_, g) = f(params.get(0));
            opt.step(&mut params, &[g]);
        }
        assert!(params.get(0).sub(&c).max_abs() < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut params = ParamSet::new();
        params.register("x", DenseMatrix::filled(2, 2, 1.0));
        let mut opt = Adam::new(0.1).with_weight_decay(1.0);
        let zero_grad = DenseMatrix::zeros(2, 2);
        for _ in 0..10 {
            opt.step(&mut params, std::slice::from_ref(&zero_grad));
        }
        // Zero moments make the Adam update 0, leaving the decoupled decay:
        // x *= (1 - lr*wd)^10 = 0.9^10.
        let expected = 0.9f64.powi(10);
        assert!((params.get(0).get(0, 0) - expected).abs() < 1e-12);
    }

    #[test]
    fn param_set_bookkeeping() {
        let mut p = ParamSet::new();
        let a = p.register("w1", DenseMatrix::zeros(2, 3));
        let b = p.register("w2", DenseMatrix::zeros(3, 1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(a), "w1");
        assert_eq!(p.name(b), "w2");
    }
}
