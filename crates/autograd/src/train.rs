//! The shared training engine.
//!
//! Every gradient-trained model in the workspace — the AnECI model itself
//! and the seven autograd baselines (GAE/VGAE, DGI, GCN, DropEdge-GCN,
//! Dominant, DONE, SDNE) — runs the same define-by-run loop: rebuild a
//! [`Tape`], push the parameters as leaves, build a loss, backprop, take an
//! [`Adam`] step, decide whether to keep going. [`Trainer`] owns that loop
//! once, so cross-cutting improvements (telemetry, divergence guarding)
//! land in one place and apply to every model.
//!
//! The caller supplies
//!
//! * a [`ParamSet`] holding the trainable matrices,
//! * the [`Adam`] optimizer that updates them,
//! * a [`TrainStep`]: given a fresh tape and the parameter leaves, build
//!   one batch's loss. Plain closures `FnMut(&mut Tape, &[Var], usize) ->
//!   Var` implement it as one batch per epoch; models that plan batches or
//!   keep checkpoint-best/validation state implement the trait on a driver
//!   struct and use its [`TrainStep::plan`], [`TrainStep::on_best`] and
//!   [`TrainStep::on_epoch`] hooks.
//!
//! [`Trainer::run`] is the one epoch loop. Each epoch asks the step for its
//! batch count ([`TrainStep::plan`], 1 by default) and, for each batch,
//! runs in order:
//!
//! 1. fresh tape, [`ParamSet::leaf_all`], the step → loss;
//! 2. **divergence guard** — a non-finite loss restores the last parameter
//!    state that produced a finite loss and surfaces
//!    [`TrainError::Diverged`] instead of silently training through NaNs;
//! 3. on the epoch's last batch, **best tracking** — the [`StopRule`]
//!    compares the epoch's monitored metric (the mean over its batches)
//!    against the best so far and fires `on_best` *before* the optimizer
//!    step (so snapshots capture the parameters that produced the metric);
//! 4. backward, gradient collection and the Adam step (wrapped in a `step`
//!    span when observability is on), then [`TrainStep::batch_done`].
//!
//! The epoch then closes with telemetry (`<prefix>.loss` and
//! `<prefix>.grad_norm` histograms of the epoch means and a
//! `<prefix>.epochs` counter), `on_epoch`, and the early-stop decision.
//!
//! The loop is bit-exact with the hand-rolled loops it replaced: tape op
//! order, RNG consumption and optimizer update order are unchanged, which
//! the golden fixtures of `tests/trainer_parity.rs`, recorded from the
//! reference loop before it was deleted, pin.

use crate::optim::{Adam, ParamSet};
use crate::tape::{Tape, Var};
use std::error::Error;
use std::fmt;
use std::time::Instant;

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

/// The model-specific work of each epoch. Implemented automatically by
/// plain closures `FnMut(&mut Tape, &[Var], usize) -> Var` as one batch per
/// epoch; models that plan batches or need best-checkpoint snapshots
/// implement it on a driver struct.
pub trait TrainStep {
    /// Plans `epoch` and returns its batch count, at least 1.
    fn plan(&mut self, _epoch: usize) -> usize {
        1
    }

    /// Builds the loss of batch `batch` of `epoch` on a fresh tape.
    /// `params[i]` is the leaf for [`ParamSet`] slot `i`, pushed in slot
    /// order. The epoch's monitored metric is the mean of its batches'.
    fn step(&mut self, tape: &mut Tape, params: &[Var], epoch: usize, batch: usize) -> StepOutput;

    /// Fires after each batch's optimizer step; `started` is when the
    /// batch's tape was built.
    fn batch_done(&mut self, _started: Instant) {}

    /// Fires when the monitored metric improves (and every epoch under
    /// [`StopRule::FixedEpochs`]), on the epoch's last batch. `params` holds
    /// the *pre-step* values — the ones that produced the improved metric —
    /// so cloning them here implements best-checkpoint restoration exactly.
    fn on_best(&mut self, _epoch: usize, _params: &ParamSet) {}

    /// Fires at the end of every epoch, after its last optimizer step.
    fn on_epoch(&mut self) {}
}

impl<F> TrainStep for F
where
    F: FnMut(&mut Tape, &[Var], usize) -> Var,
{
    fn step(&mut self, tape: &mut Tape, params: &[Var], epoch: usize, _batch: usize) -> StepOutput {
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
    epochs: usize,
    stop: StopRule,
    obs_prefix: Option<String>,
}

impl Trainer {
    /// A trainer running `epochs` epochs with [`StopRule::FixedEpochs`] and
    /// no telemetry prefix.
    pub fn new(epochs: usize) -> Self {
        Self {
            epochs,
            stop: StopRule::FixedEpochs,
            obs_prefix: None,
        }
    }

    /// Sets the stop rule.
    pub fn stop(mut self, rule: StopRule) -> Self {
        self.stop = rule;
        self
    }

    /// Publishes `<prefix>.loss` / `<prefix>.grad_norm` histograms and a
    /// `<prefix>.epochs` counter into the global `aneci-obs` registry, and
    /// wraps the run in a `<prefix>` span with a per-batch `step` child.
    pub fn observe_as(mut self, prefix: impl Into<String>) -> Self {
        self.obs_prefix = Some(prefix.into());
        self
    }

    /// Runs the training loop: per epoch, `step.plan(epoch)` batches, each
    /// on a fresh tape with its own backward and optimizer step. On
    /// divergence the parameters are rolled back to the last state that
    /// produced a finite loss and [`TrainError::Diverged`] is returned;
    /// otherwise the loss trajectory (epoch means) and best-epoch
    /// bookkeeping come back as a [`TrainRun`].
    ///
    /// The first run in a process, on glibc, pins the allocator's mmap and
    /// trim thresholds so that each step reuses the memory the previous
    /// step freed instead of faulting it in again; see
    /// `pin_malloc_thresholds` for the values and their limits.
    pub fn run(
        &self,
        params: &mut ParamSet,
        opt: &mut Adam,
        step: &mut dyn TrainStep,
    ) -> Result<TrainRun, TrainError> {
        pin_malloc_thresholds();
        let _run_span = self.obs_prefix.as_deref().map(aneci_obs::span);
        let obs = self.obs_prefix.as_deref().map(|p| {
            (
                aneci_obs::histogram(&format!("{p}.loss")),
                aneci_obs::histogram(&format!("{p}.grad_norm")),
                aneci_obs::counter(&format!("{p}.epochs")),
            )
        });

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
            let batches = step.plan(epoch);
            assert!(batches > 0, "batch plan for epoch {epoch} is empty");
            // The sums start at -0.0, the identity of `+` (0.0 + -0.0 is
            // +0.0), so a one-batch epoch reports its batch's values bit
            // for bit.
            let (mut loss_sum, mut gnorm_sum, mut monitor_sum) = (-0.0f64, -0.0f64, -0.0f64);
            let mut monitored = 0usize;

            for batch in 0..batches {
                let started = Instant::now();
                let mut tape = Tape::new();
                let vars = params.leaf_all(&mut tape);
                let out = step.step(&mut tape, &vars, epoch, batch);
                let loss = tape.scalar(out.loss);

                if !loss.is_finite() {
                    if let Some(good) = last_good.take() {
                        *params = good;
                    }
                    return Err(TrainError::Diverged { epoch, loss });
                }
                loss_sum += loss;
                if let Some(m) = out.monitor {
                    monitor_sum += m;
                    monitored += 1;
                }

                // Best tracking fires between the epoch's last forward and
                // its optimizer step, so `on_best` sees the parameters that
                // produced this epoch's metric.
                if batch + 1 == batches {
                    match self.stop {
                        StopRule::FixedEpochs => {
                            run.best_epoch = epoch;
                            step.on_best(epoch, params);
                        }
                        StopRule::BestMonitor {
                            objective,
                            min_delta,
                            ..
                        } if monitored > 0 => {
                            let m = monitor_sum / monitored as f64;
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
                        }
                        StopRule::BestMonitor { .. } => {}
                    }
                }

                let _step_span = self.obs_prefix.is_some().then(|| aneci_obs::span("step"));
                tape.backward(out.loss);
                let grads = params.grads(&tape, &vars);
                drop(tape);
                let norm = ParamSet::grad_norm(&grads);
                if !norm.is_finite() {
                    // The current parameters produced a finite loss; keep
                    // them rather than stepping into the non-finite update.
                    return Err(TrainError::Diverged { epoch, loss });
                }
                last_good = Some(params.clone());
                opt.step(params, &grads);
                gnorm_sum += norm;
                step.batch_done(started);
            }

            let epoch_loss = loss_sum / batches as f64;
            if let Some((loss_h, gnorm_h, epochs_c)) = &obs {
                loss_h.observe(epoch_loss);
                gnorm_h.observe(gnorm_sum / batches as f64);
                epochs_c.inc();
            }
            run.losses.push(epoch_loss);
            run.epochs_run = epoch + 1;
            step.on_epoch();

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

/// Keeps each step's freed buffers in the heap for the next step, once per
/// process.
///
/// Every batch builds a fresh tape, so a step frees and reallocates tens of
/// megabytes (the pair lists, σ, the batch operators, the tape's values and
/// gradients). glibc raises its mmap threshold only to the largest mmapped
/// block freed so far and trims the heap top past twice that, so by default
/// it returns a step's memory to the kernel and the next step faults every
/// page in again. Setting both thresholds to the ceiling glibc's own dynamic
/// rule can reach (`DEFAULT_MMAP_THRESHOLD_MAX`, 32 MiB on 64-bit, with trim
/// at twice that) keeps those blocks for reuse. Setting only one of the two
/// switches the dynamic rule off for both and faults more than the default.
///
/// The trim threshold is set only once glibc has taken the mmap threshold.
/// glibc refuses 32 MiB when its heaps are capped smaller (with
/// `GLIBC_TUNABLES=glibc.malloc.hugetlb=2` a heap holds four huge pages, and
/// the mmap threshold may be at most half that), and trim alone would then
/// switch the dynamic rule off; in that case the defaults stay. The policy
/// is best-effort: no arithmetic depends on it.
///
/// Limits: blocks above 32 MiB are still mmapped and fault on every use; a
/// process keeps up to 64 MiB free at a heap's top after training; unless
/// glibc refuses the mmap threshold, any malloc thresholds set through
/// `GLIBC_TUNABLES` are overridden. Other allocators (musl, jemalloc) and
/// 32-bit targets, whose ceiling is lower, are left alone.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
    {
        use std::os::raw::c_int;
        use std::sync::Once;

        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // `<malloc.h>` parameter numbers.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;

        static PINNED: Once = Once::new();
        PINNED.call_once(|| {
            // SAFETY: `mallopt` takes two ints by value and writes only
            // glibc's malloc parameters, under the main arena's lock. glibc
            // marks it MT-Unsafe (`const:mallopt`) because threads
            // allocating meanwhile read those word-sized parameters
            // unlocked; such a thread sees the old or the new threshold,
            // and both are valid. A value glibc refuses changes nothing and
            // returns 0.
            unsafe {
                if mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 {
                    mallopt(M_TRIM_THRESHOLD, 64 << 20);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::DenseMatrix;

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
        let mut opt = Adam::new(0.1);
        let mut step = quadratic_step(target());
        let run = Trainer::new(300)
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
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize, _: usize) -> StepOutput {
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
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize, _: usize) -> StepOutput {
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
        let mut opt = Adam::new(0.01);
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
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize, _: usize) -> StepOutput {
                let loss = tape.frob_sq(w[0]);
                StepOutput::with_monitor(loss, epoch as f64)
            }
            fn on_best(&mut self, _epoch: usize, params: &ParamSet) {
                self.seen.push(params.get(0).clone());
            }
        }
        let init = || {
            let mut p = ParamSet::new();
            p.register("x", DenseMatrix::filled(1, 1, 4.0));
            p
        };
        let mut params = init();
        let mut opt = Adam::new(0.1);
        let mut step = Snapshot { seen: Vec::new() };
        Trainer::new(2)
            .stop(StopRule::maximize(0))
            .run(&mut params, &mut opt, &mut step)
            .unwrap();
        // Epoch 0's snapshot is the initial value, untouched by any step.
        assert_eq!(step.seen[0], *init().get(0));
        // Epoch 1's snapshot reflects exactly one Adam step on ∇x² = 2x.
        let mut expected = init();
        Adam::new(0.1).step(&mut expected, &[DenseMatrix::filled(1, 1, 8.0)]);
        assert_eq!(step.seen[1], *expected.get(0));
    }

    #[test]
    fn multi_batch_epochs_keep_the_epoch_contract() {
        // Per-batch monitors: epoch means 2, 3, 8/3, 4, 2, 1 improve at
        // epochs 0, 1 and 3; batch 2 of epoch 2 and batch 0 of epoch 4
        // would improve on their own.
        const MONITORS: [[f64; 3]; 6] = [
            [1.0, 2.0, 3.0],
            [3.0, 3.0, 3.0],
            [0.0, 0.0, 8.0],
            [4.0, 4.0, 4.0],
            [6.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
        ];
        /// Three batches per epoch: the quadratic bowl scaled by
        /// `batch + 1`, NaN at `nan_at`.
        struct Scripted {
            nan_at: Option<(usize, usize)>,
            /// Loss and parameters of every batch's forward pass.
            seen: Vec<(f64, DenseMatrix)>,
            best: Vec<(usize, DenseMatrix)>,
        }
        impl TrainStep for Scripted {
            fn plan(&mut self, _epoch: usize) -> usize {
                3
            }
            fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize, bi: usize) -> StepOutput {
                let c = tape.constant(target());
                let d = tape.sub(w[0], c);
                let sq = tape.frob_sq(d);
                let scale = if self.nan_at == Some((epoch, bi)) {
                    f64::NAN
                } else {
                    (bi + 1) as f64
                };
                let loss = tape.scale(sq, scale);
                self.seen
                    .push((tape.scalar(loss), tape.value(w[0]).clone()));
                StepOutput::with_monitor(loss, MONITORS[epoch][bi])
            }
            fn on_best(&mut self, epoch: usize, params: &ParamSet) {
                self.best.push((epoch, params.get(0).clone()));
            }
        }
        let train = |nan_at| {
            let mut params = fresh_params();
            let mut step = Scripted {
                nan_at,
                seen: Vec::new(),
                best: Vec::new(),
            };
            let run = Trainer::new(MONITORS.len())
                .stop(StopRule::maximize(2))
                .run(&mut params, &mut Adam::new(0.05), &mut step);
            (run, params, step)
        };

        let (run, _, step) = train(None);
        let run = run.unwrap();
        // Epoch loss: the mean of the three batch losses the step saw.
        let means: Vec<f64> = step
            .seen
            .chunks(3)
            .map(|b| (b[0].0 + b[1].0 + b[2].0) / 3.0)
            .collect();
        assert_eq!(run.losses, means);
        // Epoch monitor: the batch mean; patience 2 counts stalled epochs
        // (2, then 4 and 5), so the run stops after epoch 5.
        let monitors: Vec<(usize, f64)> = [2.0, 3.0, 8.0 / 3.0, 4.0, 2.0, 1.0]
            .into_iter()
            .enumerate()
            .collect();
        assert_eq!(run.monitors, monitors);
        assert_eq!((run.epochs_run, run.stopped_early), (6, true));
        assert_eq!((run.best_epoch, run.best_monitor), (3, Some(4.0)));
        // on_best: once per improving epoch, with the parameters the
        // epoch's last batch saw, before its optimizer step.
        let best: Vec<(usize, DenseMatrix)> = [0, 1, 3]
            .into_iter()
            .map(|e| (e, step.seen[3 * e + 2].1.clone()))
            .collect();
        assert_eq!(step.best, best);

        // A NaN loss fails its epoch and restores the parameters of the
        // last finite batch: the second batch of the same epoch, or the
        // previous epoch's last batch.
        for (nan_at, last_finite) in [((1, 2), 4), ((2, 0), 5)] {
            let (run, params, step) = train(Some(nan_at));
            let err = run.unwrap_err();
            assert!(
                matches!(err, TrainError::Diverged { epoch, loss } if epoch == nan_at.0 && loss.is_nan()),
                "{err:?}"
            );
            assert_eq!(*params.get(0), step.seen[last_finite].1, "{nan_at:?}");
        }
    }

    #[test]
    fn divergence_restores_last_finite_params_and_errors() {
        let mut params = fresh_params();
        let mut opt = Adam::new(1e200); // one step overflows the loss
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
