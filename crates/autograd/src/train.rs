//! The shared training engine.
//!
//! Every gradient-trained model in the workspace — the AnECI model itself
//! and the seven autograd baselines (GAE/VGAE, DGI, GCN, DropEdge-GCN,
//! Dominant, DONE, SDNE) — runs the same define-by-run loop: rebuild a
//! [`Tape`], push the parameters as leaves, build a loss, backprop, apply an
//! optimizer step, decide whether to keep going. [`Trainer`] owns that loop
//! once, so cross-cutting improvements (telemetry, divergence guarding,
//! clipping, schedules) land in one place and apply to every model.
//!
//! The caller supplies
//!
//! * a [`ParamSet`] holding the trainable matrices,
//! * an [`Optimizer`] (the [`Adam`] / [`Sgd`] impls here, or a custom one),
//! * a [`TrainStep`]: given a fresh tape and the parameter leaves, build
//!   this epoch's loss. Plain closures `FnMut(&mut Tape, &[Var], usize) ->
//!   Var` implement it directly; models with checkpoint-best/validation
//!   logic implement the trait on a driver struct and use the
//!   [`TrainStep::on_best`] / [`TrainStep::on_epoch`] hooks.
//!
//! Per epoch the engine runs, in order:
//!
//! 1. fresh tape, [`ParamSet::leaf_all`], [`TrainStep::step`] → loss;
//! 2. **divergence guard** — a non-finite loss restores the last parameter
//!    state that produced a finite loss and surfaces
//!    [`TrainError::Diverged`] instead of silently training through NaNs;
//! 3. **best tracking** — the [`StopRule`] compares the step's monitored
//!    metric against the best so far and fires [`TrainStep::on_best`]
//!    *before* the optimizer step (so snapshots capture the parameters that
//!    produced the metric);
//! 4. backward, gradient collection, optional global-norm clipping, the
//!    scheduled-LR optimizer step (wrapped in a `step` span when
//!    observability is on);
//! 5. telemetry (`<prefix>.loss`, `<prefix>.grad_norm` histograms and a
//!    `<prefix>.epochs` counter), [`TrainStep::on_epoch`], and the
//!    early-stop decision.
//!
//! The loop is bit-exact with the hand-rolled loops it replaced: tape op
//! order, RNG consumption and optimizer update order are unchanged, which
//! the golden fixtures of `tests/trainer_parity.rs`, recorded from the
//! reference loop before it was deleted, pin.

use crate::optim::{Adam, ParamSet, Sgd};
use crate::tape::{Tape, Var};
use aneci_linalg::DenseMatrix;
use std::error::Error;
use std::fmt;

/// A first-order optimizer: consumes one gradient list per call and updates
/// the parameters in place. Implemented by [`Adam`] and [`Sgd`]; the
/// [`Trainer`] drives it through this trait so models are optimizer-
/// agnostic.
pub trait Optimizer {
    /// Applies one update.
    fn step(&mut self, params: &mut ParamSet, grads: &[DenseMatrix]);
    /// Current learning rate.
    fn lr(&self) -> f64;
    /// Overrides the learning rate (used by [`LrSchedule`]).
    fn set_lr(&mut self, lr: f64);
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, grads: &[DenseMatrix]) {
        Sgd::step(self, params, grads);
    }
    fn lr(&self) -> f64 {
        self.lr
    }
    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &[DenseMatrix]) {
        Adam::step(self, params, grads);
    }
    fn lr(&self) -> f64 {
        self.lr
    }
    fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Declarative optimizer choice for model configs: lets e.g. the GCN
/// classifier swap Adam for SGD(+momentum) without changing its training
/// code, with weight decay supported uniformly by both.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum OptimizerKind {
    /// Adam with standard β₁/β₂/ε.
    #[default]
    Adam,
    /// SGD with classical momentum (0 disables momentum).
    Sgd {
        /// Momentum coefficient.
        momentum: f64,
    },
}

impl OptimizerKind {
    /// Builds the optimizer with the given learning rate and decoupled
    /// weight decay.
    pub fn build(self, lr: f64, weight_decay: f64) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Adam => Box::new(Adam::new(lr).with_weight_decay(weight_decay)),
            OptimizerKind::Sgd { momentum } => Box::new(
                Sgd::new(lr)
                    .with_momentum(momentum)
                    .with_weight_decay(weight_decay),
            ),
        }
    }
}

/// What a [`TrainStep`] hands back to the engine: the loss to minimize and
/// (optionally) the metric the [`StopRule`] should track this epoch.
#[derive(Clone, Copy, Debug)]
pub struct StepOutput {
    /// The scalar loss variable to backprop.
    pub loss: Var,
    /// Monitored metric for best-tracking / early stopping. `None` means
    /// "no measurement this epoch" (e.g. between validation probes).
    pub monitor: Option<f64>,
}

impl StepOutput {
    /// A loss with no monitored metric.
    pub fn new(loss: Var) -> Self {
        Self {
            loss,
            monitor: None,
        }
    }

    /// A loss plus the metric the stop rule should track.
    pub fn with_monitor(loss: Var, monitor: f64) -> Self {
        Self {
            loss,
            monitor: Some(monitor),
        }
    }
}

impl From<Var> for StepOutput {
    fn from(loss: Var) -> Self {
        Self::new(loss)
    }
}

/// Per-epoch statistics handed to [`TrainStep::on_epoch`] after the
/// optimizer step.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Loss value of this epoch's forward pass.
    pub loss: f64,
    /// The monitored metric, when the step reported one.
    pub monitor: Option<f64>,
    /// Global L2 norm of the (unclipped) gradients.
    pub grad_norm: f64,
    /// Learning rate the optimizer used this epoch.
    pub lr: f64,
    /// Whether the monitored metric improved this epoch.
    pub improved: bool,
}

/// One epoch of model-specific work. Implemented automatically by plain
/// closures `FnMut(&mut Tape, &[Var], usize) -> Var`; models that need
/// best-checkpoint snapshots implement it on a driver struct.
pub trait TrainStep {
    /// Builds this epoch's loss on a fresh tape. `params[i]` is the leaf
    /// for [`ParamSet`] slot `i`, pushed in slot order.
    fn step(&mut self, tape: &mut Tape, params: &[Var], epoch: usize) -> StepOutput;

    /// Fires when the monitored metric improves (and every epoch under
    /// [`StopRule::FixedEpochs`]). `params` holds the *pre-step* values —
    /// the ones that produced the improved metric — so cloning them here
    /// implements best-checkpoint restoration exactly.
    fn on_best(&mut self, _epoch: usize, _params: &ParamSet) {}

    /// Fires at the end of every epoch, after the optimizer step.
    fn on_epoch(&mut self, _stats: &EpochStats) {}
}

impl<F> TrainStep for F
where
    F: FnMut(&mut Tape, &[Var], usize) -> Var,
{
    fn step(&mut self, tape: &mut Tape, params: &[Var], epoch: usize) -> StepOutput {
        StepOutput::new(self(tape, params, epoch))
    }
}

/// Direction of the monitored metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Lower is better (losses).
    Minimize,
    /// Higher is better (modularity, validation scores).
    Maximize,
}

/// When to stop and which epoch to call "best". Generalizes the per-model
/// stopping rules the workspace used to hand-roll: AnECI's
/// `StopStrategy::{FixedEpochs, ValidationBest, EarlyStopModularity}` and
/// the GCN classifier's validation-loss patience all map onto these two
/// variants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Run every epoch; each epoch is the new best (last epoch wins).
    FixedEpochs,
    /// Track the best monitored metric. Epochs whose [`StepOutput`] carries
    /// no monitor are skipped (validation probing). `patience` consecutive
    /// *measured* epochs without improvement stop training early;
    /// `patience == 0` disables early stopping and only tracks the best.
    /// An improvement must beat the best by more than `min_delta`.
    BestMonitor {
        /// Metric direction.
        objective: Objective,
        /// Measured epochs without improvement tolerated (0 = never stop).
        patience: usize,
        /// Required improvement margin.
        min_delta: f64,
    },
}

impl StopRule {
    /// Track the highest monitored value, stopping after `patience`
    /// non-improving measurements (0 = track only).
    pub fn maximize(patience: usize) -> Self {
        StopRule::BestMonitor {
            objective: Objective::Maximize,
            patience,
            min_delta: 0.0,
        }
    }

    /// Track the lowest monitored value, stopping after `patience`
    /// non-improving measurements (0 = track only).
    pub fn minimize(patience: usize) -> Self {
        StopRule::BestMonitor {
            objective: Objective::Minimize,
            patience,
            min_delta: 0.0,
        }
    }

    /// Sets the improvement margin (no-op for [`StopRule::FixedEpochs`]).
    pub fn with_min_delta(self, delta: f64) -> Self {
        match self {
            StopRule::FixedEpochs => self,
            StopRule::BestMonitor {
                objective,
                patience,
                ..
            } => StopRule::BestMonitor {
                objective,
                patience,
                min_delta: delta,
            },
        }
    }
}

/// Learning-rate schedule applied on top of the optimizer's base rate (the
/// rate it enters [`Trainer::run`] with).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Keep the base rate.
    Constant,
    /// Multiply the base rate by `factor` every `every` epochs:
    /// `lr(e) = base · factor^⌊e/every⌋`.
    StepDecay {
        /// Epochs per decay step.
        every: usize,
        /// Multiplicative decay factor.
        factor: f64,
    },
}

/// What [`Trainer::run`] produced: the full loss trajectory plus the
/// best-epoch bookkeeping of the [`StopRule`].
#[derive(Clone, Debug, Default)]
pub struct TrainRun {
    /// Loss per executed epoch.
    pub losses: Vec<f64>,
    /// `(epoch, monitored value)` for every epoch that reported a monitor.
    pub monitors: Vec<(usize, f64)>,
    /// Epoch whose parameters/metric were kept as best.
    pub best_epoch: usize,
    /// Best monitored value seen (`None` when nothing was monitored).
    pub best_monitor: Option<f64>,
    /// Number of epochs actually executed.
    pub epochs_run: usize,
    /// Whether the stop rule cut training short.
    pub stopped_early: bool,
}

/// Training-engine failures.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The loss (or gradient norm) became non-finite. The parameters were
    /// restored to the last state that produced a finite loss.
    Diverged {
        /// Epoch at which the non-finite value appeared.
        epoch: usize,
        /// The offending loss value (NaN or ±∞).
        loss: f64,
    },
    /// Two parameters were registered under the same name, which would
    /// corrupt name-keyed checkpoint round-trips.
    DuplicateParam(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Diverged { epoch, loss } => write!(
                f,
                "training diverged at epoch {epoch} (loss = {loss}); \
                 parameters restored to the last finite state"
            ),
            TrainError::DuplicateParam(name) => {
                write!(f, "parameter '{name}' is already registered")
            }
        }
    }
}

impl Error for TrainError {}

/// The shared define-by-run training engine; see the module docs for the
/// exact per-epoch pipeline.
#[derive(Clone, Debug)]
pub struct Trainer {
    pub(crate) epochs: usize,
    pub(crate) stop: StopRule,
    pub(crate) clip_norm: Option<f64>,
    pub(crate) lr_schedule: LrSchedule,
    pub(crate) guard_divergence: bool,
    pub(crate) obs_prefix: Option<String>,
}

impl Trainer {
    /// A trainer running `epochs` epochs with [`StopRule::FixedEpochs`], no
    /// clipping, a constant learning rate, the divergence guard on, and no
    /// telemetry prefix.
    pub fn new(epochs: usize) -> Self {
        Self {
            epochs,
            stop: StopRule::FixedEpochs,
            clip_norm: None,
            lr_schedule: LrSchedule::Constant,
            guard_divergence: true,
            obs_prefix: None,
        }
    }

    /// Sets the stop rule.
    pub fn stop(mut self, rule: StopRule) -> Self {
        self.stop = rule;
        self
    }

    /// Enables global-norm gradient clipping at `max_norm`.
    pub fn clip_norm(mut self, max_norm: f64) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// Sets the learning-rate schedule.
    pub fn lr_schedule(mut self, schedule: LrSchedule) -> Self {
        self.lr_schedule = schedule;
        self
    }

    /// Enables/disables the NaN-divergence guard (on by default).
    pub fn guard_divergence(mut self, on: bool) -> Self {
        self.guard_divergence = on;
        self
    }

    /// Publishes `<prefix>.loss` / `<prefix>.grad_norm` histograms and a
    /// `<prefix>.epochs` counter into the global `aneci-obs` registry, and
    /// wraps the run in a `<prefix>` span with a per-epoch `step` child.
    pub fn observe_as(mut self, prefix: impl Into<String>) -> Self {
        self.obs_prefix = Some(prefix.into());
        self
    }

    /// Runs the training loop. On divergence the parameters are rolled back
    /// to the last state that produced a finite loss and
    /// [`TrainError::Diverged`] is returned; otherwise the full loss
    /// trajectory and best-epoch bookkeeping come back as a [`TrainRun`].
    pub fn run(
        &self,
        params: &mut ParamSet,
        opt: &mut dyn Optimizer,
        step: &mut dyn TrainStep,
    ) -> Result<TrainRun, TrainError> {
        let _run_span = self.obs_prefix.as_deref().map(aneci_obs::span);
        let obs = self.obs_prefix.as_deref().map(|p| {
            (
                aneci_obs::histogram(&format!("{p}.loss")),
                aneci_obs::histogram(&format!("{p}.grad_norm")),
                aneci_obs::counter(&format!("{p}.epochs")),
            )
        });

        let base_lr = opt.lr();
        let mut run = TrainRun::default();
        let mut best = match self.stop {
            StopRule::BestMonitor {
                objective: Objective::Maximize,
                ..
            } => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        };
        let mut stall = 0usize;
        // Parameters as of just before the previous optimizer step — i.e.
        // the last state known to produce a finite loss.
        let mut last_good: Option<ParamSet> = None;

        for epoch in 0..self.epochs {
            if let LrSchedule::StepDecay { every, factor } = self.lr_schedule {
                let k = (epoch / every.max(1)) as i32;
                opt.set_lr(base_lr * factor.powi(k));
            }

            let mut tape = Tape::new();
            let vars = params.leaf_all(&mut tape);
            let out = step.step(&mut tape, &vars, epoch);
            let loss_val = tape.scalar(out.loss);

            if self.guard_divergence && !loss_val.is_finite() {
                if let Some(good) = last_good.take() {
                    *params = good;
                }
                return Err(TrainError::Diverged {
                    epoch,
                    loss: loss_val,
                });
            }

            // Best tracking fires before the optimizer step so `on_best`
            // sees the parameters that produced this epoch's metric.
            let improved = match self.stop {
                StopRule::FixedEpochs => {
                    run.best_epoch = epoch;
                    step.on_best(epoch, params);
                    true
                }
                StopRule::BestMonitor {
                    objective,
                    min_delta,
                    ..
                } => match out.monitor {
                    Some(m) => {
                        run.monitors.push((epoch, m));
                        let better = match objective {
                            Objective::Maximize => m > best + min_delta,
                            Objective::Minimize => m < best - min_delta,
                        };
                        if better {
                            best = m;
                            run.best_epoch = epoch;
                            run.best_monitor = Some(m);
                            stall = 0;
                            step.on_best(epoch, params);
                        } else {
                            stall += 1;
                        }
                        better
                    }
                    None => false,
                },
            };

            let grad_norm = {
                let _step_span = self.obs_prefix.is_some().then(|| aneci_obs::span("step"));
                tape.backward(out.loss);
                let mut grads = params.grads(&tape, &vars);
                drop(tape);
                let norm = ParamSet::grad_norm(&grads);
                if self.guard_divergence && !norm.is_finite() {
                    // The current parameters produced a finite loss; keep
                    // them rather than stepping into the non-finite update.
                    return Err(TrainError::Diverged {
                        epoch,
                        loss: loss_val,
                    });
                }
                if let Some(max_norm) = self.clip_norm {
                    ParamSet::clip_grad_norm(&mut grads, max_norm);
                }
                if self.guard_divergence {
                    last_good = Some(params.clone());
                }
                opt.step(params, &grads);
                norm
            };

            if let Some((loss_h, gnorm_h, epochs_c)) = &obs {
                loss_h.observe(loss_val);
                gnorm_h.observe(grad_norm);
                epochs_c.inc();
            }
            run.losses.push(loss_val);
            run.epochs_run = epoch + 1;

            step.on_epoch(&EpochStats {
                epoch,
                loss: loss_val,
                monitor: out.monitor,
                grad_norm,
                lr: opt.lr(),
                improved,
            });

            if let StopRule::BestMonitor { patience, .. } = self.stop {
                if patience > 0 && stall >= patience {
                    run.stopped_early = true;
                    break;
                }
            }
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×2 quadratic bowl ‖x − c‖² as a closure step.
    fn quadratic_step(target: DenseMatrix) -> impl FnMut(&mut Tape, &[Var], usize) -> Var {
        move |tape: &mut Tape, w: &[Var], _epoch: usize| -> Var {
            let c = tape.constant(target.clone());
            let d = tape.sub(w[0], c);
            tape.frob_sq(d)
        }
    }

    fn fresh_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.register("x", DenseMatrix::zeros(2, 2));
        p
    }

    fn target() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]])
    }

    #[test]
    fn trainer_matches_hand_rolled_adam_loop_bit_exactly() {
        // Reference: the loop every model used to hand-roll.
        let mut ref_params = fresh_params();
        let mut ref_opt = Adam::new(0.05);
        let mut ref_losses = Vec::new();
        for _ in 0..60 {
            let mut tape = Tape::new();
            let w = ref_params.leaf_all(&mut tape);
            let c = tape.constant(target());
            let d = tape.sub(w[0], c);
            let loss = tape.frob_sq(d);
            tape.backward(loss);
            ref_losses.push(tape.scalar(loss));
            let grads = ref_params.grads(&tape, &w);
            drop(tape);
            ref_opt.step(&mut ref_params, &grads);
        }

        let mut params = fresh_params();
        let mut opt = Adam::new(0.05);
        let mut step = quadratic_step(target());
        let run = Trainer::new(60)
            .run(&mut params, &mut opt, &mut step)
            .unwrap();

        assert_eq!(
            run.losses, ref_losses,
            "loss trajectories must be identical"
        );
        assert_eq!(params.get(0), ref_params.get(0), "final params must match");
        assert_eq!(run.epochs_run, 60);
        assert_eq!(run.best_epoch, 59, "FixedEpochs keeps the last epoch");
    }

    #[test]
    fn closure_and_sgd_converge() {
        let mut params = fresh_params();
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        let mut step = quadratic_step(target());
        let run = Trainer::new(200)
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        assert!(run.losses.last().unwrap() < &1e-8);
        assert!(params.get(0).sub(&target()).max_abs() < 1e-4);
    }

    #[test]
    fn early_stop_fires_on_stalled_monitor() {
        struct Stalled {
            #[allow(clippy::type_complexity)]
            inner: Box<dyn FnMut(&mut Tape, &[Var], usize) -> Var>,
        }
        impl TrainStep for Stalled {
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize) -> StepOutput {
                let loss = (self.inner)(tape, w, epoch);
                // Monitor improves for 5 epochs, then goes flat.
                let m = if epoch < 5 { epoch as f64 } else { 4.0 };
                StepOutput::with_monitor(loss, m)
            }
        }
        let mut params = fresh_params();
        let mut opt = Adam::new(0.01);
        let mut step = Stalled {
            inner: Box::new(quadratic_step(target())),
        };
        let run = Trainer::new(500)
            .stop(StopRule::maximize(3))
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        assert!(run.stopped_early);
        assert_eq!(run.epochs_run, 8, "5 improving + 3 stalled epochs");
        assert_eq!(run.best_epoch, 4);
        assert_eq!(run.best_monitor, Some(4.0));
    }

    #[test]
    fn unmonitored_epochs_are_skipped_by_the_stop_rule() {
        struct Probing;
        impl TrainStep for Probing {
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize) -> StepOutput {
                let loss = tape.frob_sq(w[0]);
                // Probe every 4th epoch; the monitored value worsens so
                // patience counts only probe epochs.
                if epoch % 4 == 3 {
                    StepOutput::with_monitor(loss, -(epoch as f64))
                } else {
                    StepOutput::new(loss)
                }
            }
        }
        let mut params = fresh_params();
        let mut opt = Sgd::new(0.01);
        let run = Trainer::new(100)
            .stop(StopRule::maximize(2))
            .run(&mut params, &mut opt, &mut Probing)
            .unwrap();
        // Probe 1 (epoch 3) improves from -inf; probes 2 and 3 stall.
        assert_eq!(run.epochs_run, 12);
        assert_eq!(run.monitors.len(), 3);
        assert_eq!(run.best_epoch, 3);
    }

    #[test]
    fn on_best_sees_pre_step_parameters() {
        struct Snapshot {
            seen: Vec<DenseMatrix>,
        }
        impl TrainStep for Snapshot {
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize) -> StepOutput {
                let loss = tape.frob_sq(w[0]);
                StepOutput::with_monitor(loss, epoch as f64)
            }
            fn on_best(&mut self, _epoch: usize, params: &ParamSet) {
                self.seen.push(params.get(0).clone());
            }
        }
        let mut params = ParamSet::new();
        params.register("x", DenseMatrix::filled(1, 1, 4.0));
        let mut opt = Sgd::new(0.1);
        let mut step = Snapshot { seen: Vec::new() };
        Trainer::new(2)
            .stop(StopRule::maximize(0))
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        // Epoch 0's snapshot is the initial value, untouched by any step.
        assert_eq!(step.seen[0].get(0, 0), 4.0);
        // Epoch 1's snapshot reflects exactly one SGD step: x -= 0.1·2x.
        assert!((step.seen[1].get(0, 0) - (4.0 - 0.1 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn divergence_restores_last_finite_params_and_errors() {
        let mut params = fresh_params();
        let mut opt = Sgd::new(1e200); // guarantees overflow within a few steps
        let mut step = quadratic_step(target());
        let err = Trainer::new(50)
            .run(&mut params, &mut opt, &mut step)
            .unwrap_err();
        assert!(matches!(err, TrainError::Diverged { .. }));
        assert!(
            params.get(0).as_slice().iter().all(|v| v.is_finite()),
            "restored parameters must be finite"
        );
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "message: {msg}");
    }

    #[test]
    fn guard_can_be_disabled() {
        let mut params = fresh_params();
        let mut opt = Sgd::new(1e200);
        let mut step = quadratic_step(target());
        let run = Trainer::new(10)
            .guard_divergence(false)
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        assert_eq!(run.epochs_run, 10, "unguarded loop trains through NaNs");
        assert!(run.losses.iter().any(|l| !l.is_finite()));
    }

    #[test]
    fn clipping_matches_manual_clipped_loop() {
        let mut ref_params = fresh_params();
        let mut ref_opt = Sgd::new(0.05);
        for _ in 0..40 {
            let mut tape = Tape::new();
            let w = ref_params.leaf_all(&mut tape);
            let c = tape.constant(target());
            let d = tape.sub(w[0], c);
            let loss = tape.frob_sq(d);
            tape.backward(loss);
            let mut grads = ref_params.grads(&tape, &w);
            drop(tape);
            ParamSet::clip_grad_norm(&mut grads, 1.0);
            ref_opt.step(&mut ref_params, &grads);
        }

        let mut params = fresh_params();
        let mut opt = Sgd::new(0.05);
        let mut step = quadratic_step(target());
        Trainer::new(40)
            .clip_norm(1.0)
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        assert_eq!(params.get(0), ref_params.get(0));
    }

    #[test]
    fn step_decay_schedule_shrinks_lr() {
        struct LrProbe {
            lrs: Vec<f64>,
        }
        impl TrainStep for LrProbe {
            fn step(&mut self, tape: &mut Tape, w: &[Var], _epoch: usize) -> StepOutput {
                StepOutput::new(tape.frob_sq(w[0]))
            }
            fn on_epoch(&mut self, stats: &EpochStats) {
                self.lrs.push(stats.lr);
            }
        }
        let mut params = fresh_params();
        let mut opt = Sgd::new(0.8);
        let mut step = LrProbe { lrs: Vec::new() };
        Trainer::new(6)
            .lr_schedule(LrSchedule::StepDecay {
                every: 2,
                factor: 0.5,
            })
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        assert_eq!(step.lrs, vec![0.8, 0.8, 0.4, 0.4, 0.2, 0.2]);
    }

    #[test]
    fn optimizer_kind_builds_both_optimizers_with_weight_decay() {
        for kind in [OptimizerKind::Adam, OptimizerKind::Sgd { momentum: 0.9 }] {
            let mut opt = kind.build(0.1, 0.01);
            assert_eq!(opt.lr(), 0.1);
            opt.set_lr(0.05);
            assert_eq!(opt.lr(), 0.05);
            // Pure decay shrinks parameters even with zero gradients.
            let mut params = ParamSet::new();
            params.register("x", DenseMatrix::filled(1, 1, 1.0));
            let zero = vec![DenseMatrix::zeros(1, 1)];
            opt.step(&mut params, &zero);
            assert!(
                params.get(0).get(0, 0) < 1.0,
                "{kind:?} ignored weight decay"
            );
        }
    }

    #[test]
    fn duplicate_param_registration_is_rejected() {
        let mut p = ParamSet::new();
        p.register("w", DenseMatrix::zeros(1, 1));
        let err = p.try_register("w", DenseMatrix::zeros(2, 2)).unwrap_err();
        assert_eq!(err, TrainError::DuplicateParam("w".into()));
        assert!(err.to_string().contains("already registered"));
        // Distinct names still register fine.
        assert_eq!(p.try_register("w2", DenseMatrix::zeros(1, 1)).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn register_panics_on_duplicate_name() {
        let mut p = ParamSet::new();
        p.register("w", DenseMatrix::zeros(1, 1));
        p.register("w", DenseMatrix::zeros(1, 1));
    }
}
