//! Semi-supervised GCN node classifier (Kipf & Welling 2017).
//!
//! One of the semi-supervised comparison rows of Table III, and the
//! surrogate model that the NETTACK-style attack scores against.
//! Architecture and training follow the reference implementation: two
//! spectral convolution layers with ReLU, softmax cross-entropy on the
//! labelled training nodes, Adam with weight decay, early stopping on the
//! validation loss.

use aneci_autograd::train::{Objective, StepOutput, StopRule, TrainError, TrainStep, Trainer};
use aneci_autograd::{Adam, ParamSet, Tape, Var};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, xavier_uniform};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use aneci_obs::span;
use rand::rngs::StdRng;
use std::sync::Arc;

/// GCN hyperparameters.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Learning rate (Adam).
    pub lr: f64,
    /// Decoupled weight decay.
    pub weight_decay: f64,
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience on the validation loss (0 disables).
    pub patience: usize,
    /// Dropout rate applied to the input features and hidden activations
    /// during training (the reference GCN uses 0.5; 0 disables — the
    /// default here, so small-graph experiments stay deterministic-simple).
    pub dropout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 16,
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 200,
            patience: 20,
            dropout: 0.0,
            seed: 0,
        }
    }
}

/// A trained GCN classifier.
pub struct GcnClassifier {
    params: ParamSet,
    norm_adj: Arc<CsrMatrix>,
    features: DenseMatrix,
    num_classes: usize,
    /// Training-loss history.
    pub train_losses: Vec<f64>,
    /// Validation-loss history (empty when there is no validation set).
    pub val_losses: Vec<f64>,
}

impl GcnClassifier {
    /// Trains on the graph's labelled `split.train` nodes. Panics on
    /// divergence; [`GcnClassifier::try_fit`] is the non-panicking variant.
    pub fn fit(graph: &AttributedGraph, config: &GcnConfig) -> Self {
        Self::try_fit(graph, config).expect("GCN training diverged")
    }

    /// Trains on the graph's labelled `split.train` nodes, surfacing
    /// [`TrainError::Diverged`] when the loss goes non-finite.
    pub fn try_fit(graph: &AttributedGraph, config: &GcnConfig) -> Result<Self, TrainError> {
        let labels = graph.labels.as_ref().expect("GCN needs labels").clone();
        let num_classes = graph.num_classes();
        assert!(num_classes >= 2, "GCN needs at least two classes");
        assert!(
            !graph.split.train.is_empty(),
            "GCN needs a non-empty training split"
        );
        let norm_adj = Arc::new(graph.norm_adjacency());
        let features = graph.features().clone();

        let mut rng = seeded_rng(derive_seed(config.seed, 0x6C4));
        let mut params = ParamSet::new();
        params.register(
            "w1",
            xavier_uniform(features.cols(), config.hidden_dim, &mut rng),
        );
        params.register(
            "w2",
            xavier_uniform(config.hidden_dim, num_classes, &mut rng),
        );

        let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
        let mut driver = GcnStep {
            norm_adj: &norm_adj,
            features: &features,
            labels: &labels,
            train_nodes: &graph.split.train,
            val_nodes: &graph.split.val,
            dropout: config.dropout,
            rng,
            val_losses: Vec::new(),
            best_params: None,
        };
        // The reference loop compared `vloss < best − 1e-6` and broke after
        // `patience` consecutive stalled validation epochs.
        let run = Trainer::new(config.epochs)
            .stop(StopRule::BestMonitor {
                objective: Objective::Minimize,
                patience: config.patience,
                min_delta: 1e-6,
            })
            .observe_as("train.gcn")
            .run(&mut params, &mut opt, &mut driver)?;
        let GcnStep {
            val_losses,
            best_params,
            ..
        } = driver;
        if !val_losses.is_empty() {
            params = best_params.expect("first validation epoch always improves");
        }

        Ok(Self {
            params,
            norm_adj,
            features,
            num_classes,
            train_losses: run.losses,
            val_losses,
        })
    }

    /// Class logits for every node.
    pub fn logits(&self) -> DenseMatrix {
        let mut tape = Tape::new();
        let w = self.params.leaf_all(&mut tape);
        let out = forward(&mut tape, &w, &self.norm_adj, &self.features);
        tape.value(out).clone()
    }

    /// Hard class predictions for every node.
    pub fn predict(&self) -> Vec<usize> {
        self.logits().argmax_rows()
    }

    /// Accuracy on an index subset.
    pub fn accuracy_on(&self, graph: &AttributedGraph, nodes: &[usize]) -> f64 {
        let labels = graph.labels.as_ref().expect("needs labels");
        let pred = self.predict();
        if nodes.is_empty() {
            return 0.0;
        }
        let correct = nodes.iter().filter(|&&i| pred[i] == labels[i]).count();
        correct as f64 / nodes.len() as f64
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The trained weight matrices `(W₁, W₂)` — the gradient-based attacks
    /// differentiate surrogate losses through these frozen weights.
    pub fn weights(&self) -> (DenseMatrix, DenseMatrix) {
        (self.params.get(0).clone(), self.params.get(1).clone())
    }
}

/// Drives [`GcnClassifier::fit`] through the shared [`Trainer`]: the
/// training loss on the labelled split, plus the validation loss as the
/// monitored metric and a best-parameter snapshot (taken pre-step, exactly
/// as the reference loop did).
struct GcnStep<'a> {
    norm_adj: &'a Arc<CsrMatrix>,
    features: &'a DenseMatrix,
    labels: &'a [usize],
    train_nodes: &'a [usize],
    val_nodes: &'a [usize],
    dropout: f64,
    rng: StdRng,
    val_losses: Vec<f64>,
    best_params: Option<ParamSet>,
}

impl TrainStep for GcnStep<'_> {
    fn step(&mut self, tape: &mut Tape, w: &[Var], _epoch: usize) -> StepOutput {
        let logits = {
            let _s = span("encode");
            forward_train(
                tape,
                w,
                self.norm_adj,
                self.features,
                self.dropout,
                &mut self.rng,
            )
        };
        let _s = span("loss");
        let loss = tape.softmax_cross_entropy(logits, self.labels, self.train_nodes);
        if self.val_nodes.is_empty() {
            return StepOutput::new(loss);
        }
        // Validation loss on the same forward pass (no grad needed).
        let vloss = {
            let mut t2 = Tape::new();
            let logits_const = t2.constant(tape.value(logits).clone());
            let l = t2.softmax_cross_entropy(logits_const, self.labels, self.val_nodes);
            t2.scalar(l)
        };
        self.val_losses.push(vloss);
        StepOutput::with_monitor(loss, vloss)
    }

    fn on_best(&mut self, _epoch: usize, params: &ParamSet) {
        self.best_params = Some(params.clone());
    }
}

/// The 2-layer GCN forward pass: `Ŝ·relu(Ŝ·X·W₁)·W₂`.
fn forward(tape: &mut Tape, w: &[Var], s: &Arc<CsrMatrix>, x: &DenseMatrix) -> Var {
    let xv = tape.constant(x.clone());
    let xw = tape.matmul(xv, w[0]);
    let h1 = tape.spmm(s, xw);
    let a1 = tape.relu(h1);
    let hw = tape.matmul(a1, w[1]);
    tape.spmm(s, hw)
}

/// Training-mode forward with inverted dropout on input and hidden layers.
fn forward_train(
    tape: &mut Tape,
    w: &[Var],
    s: &Arc<CsrMatrix>,
    x: &DenseMatrix,
    dropout: f64,
    rng: &mut rand::rngs::StdRng,
) -> Var {
    let xv = tape.constant(x.clone());
    let xd = tape.dropout(xv, dropout, rng);
    let xw = tape.matmul(xd, w[0]);
    let h1 = tape.spmm(s, xw);
    let a1 = tape.relu(h1);
    let ad = tape.dropout(a1, dropout, rng);
    let hw = tape.matmul(ad, w[1]);
    tape.spmm(s, hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, karate_club, sample_split, SbmConfig, Split};

    fn sbm_with_split(seed: u64) -> AttributedGraph {
        let mut cfg = SbmConfig::small();
        cfg.num_nodes = 300;
        cfg.num_classes = 3;
        cfg.target_edges = 1200;
        let mut g = generate_sbm(&cfg, seed);
        let labels = g.labels.clone().unwrap();
        g.set_split(sample_split(&labels, 20, 60, 150, seed));
        g
    }

    #[test]
    fn learns_sbm_classification() {
        let g = sbm_with_split(1);
        let model = GcnClassifier::fit(
            &g,
            &GcnConfig {
                epochs: 120,
                ..Default::default()
            },
        );
        let acc = model.accuracy_on(&g, &g.split.test);
        assert!(acc > 0.8, "test accuracy {acc}");
    }

    #[test]
    fn training_loss_decreases() {
        let g = sbm_with_split(2);
        let model = GcnClassifier::fit(
            &g,
            &GcnConfig {
                epochs: 50,
                patience: 0,
                ..Default::default()
            },
        );
        assert!(model.train_losses.last().unwrap() < &model.train_losses[0]);
    }

    #[test]
    fn karate_with_tiny_split() {
        let mut g = karate_club();
        g.set_split(Split {
            train: vec![0, 33],
            val: vec![1, 32],
            test: (2..32).collect(),
        });
        let model = GcnClassifier::fit(
            &g,
            &GcnConfig {
                epochs: 100,
                ..Default::default()
            },
        );
        // Two labelled nodes are enough on karate thanks to propagation.
        let acc = model.accuracy_on(&g, &g.split.test);
        assert!(acc > 0.8, "karate accuracy {acc}");
    }

    #[test]
    fn early_stopping_can_trigger() {
        let g = sbm_with_split(3);
        let model = GcnClassifier::fit(
            &g,
            &GcnConfig {
                epochs: 400,
                patience: 5,
                ..Default::default()
            },
        );
        assert!(model.train_losses.len() < 400, "early stopping never fired");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = sbm_with_split(5);
        let cfg = GcnConfig {
            epochs: 20,
            ..Default::default()
        };
        let a = GcnClassifier::fit(&g, &cfg).predict();
        let b = GcnClassifier::fit(&g, &cfg).predict();
        assert_eq!(a, b);
    }

    /// The pre-`Trainer` loop, replicated by hand, must produce bit-exact
    /// train/val trajectories and the same kept parameters as `fit` — the
    /// migration changed no tape op order, RNG draw or update order.
    #[test]
    fn trainer_matches_hand_rolled_reference_loop() {
        use aneci_autograd::Adam;

        let g = sbm_with_split(7);
        let cfg = GcnConfig {
            epochs: 60,
            patience: 5,
            dropout: 0.5, // exercise the RNG stream too
            ..Default::default()
        };

        // --- Hand-rolled reference (the old fit body, verbatim). ---
        let labels = g.labels.as_ref().unwrap().clone();
        let norm_adj = Arc::new(g.norm_adjacency());
        let features = g.features().clone();
        let mut rng = seeded_rng(derive_seed(cfg.seed, 0x6C4));
        let mut params = ParamSet::new();
        params.register(
            "w1",
            xavier_uniform(features.cols(), cfg.hidden_dim, &mut rng),
        );
        params.register(
            "w2",
            xavier_uniform(cfg.hidden_dim, g.num_classes(), &mut rng),
        );
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut train_losses = Vec::new();
        let mut val_losses = Vec::new();
        let mut best_val = f64::INFINITY;
        let mut best_params = params.clone();
        let mut stall = 0usize;
        for _ in 0..cfg.epochs {
            let mut tape = Tape::new();
            let w = params.leaf_all(&mut tape);
            let logits = forward_train(&mut tape, &w, &norm_adj, &features, cfg.dropout, &mut rng);
            let loss = tape.softmax_cross_entropy(logits, &labels, &g.split.train);
            tape.backward(loss);
            train_losses.push(tape.scalar(loss));
            if !g.split.val.is_empty() {
                let vloss = {
                    let mut t2 = Tape::new();
                    let logits_const = t2.constant(tape.value(logits).clone());
                    let l = t2.softmax_cross_entropy(logits_const, &labels, &g.split.val);
                    t2.scalar(l)
                };
                val_losses.push(vloss);
                if vloss < best_val - 1e-6 {
                    best_val = vloss;
                    stall = 0;
                    best_params = params.clone();
                } else {
                    stall += 1;
                }
            }
            let grads = params.grads(&tape, &w);
            drop(tape);
            opt.step(&mut params, &grads);
            if cfg.patience > 0 && stall >= cfg.patience {
                break;
            }
        }
        if !val_losses.is_empty() {
            params = best_params;
        }

        // --- Trainer-driven fit. ---
        let model = GcnClassifier::fit(&g, &cfg);
        assert_eq!(model.train_losses, train_losses, "train-loss trajectory");
        assert_eq!(model.val_losses, val_losses, "val-loss trajectory");
        assert_eq!(model.params.get(0), params.get(0), "kept W1");
        assert_eq!(model.params.get(1), params.get(1), "kept W2");
    }

    #[test]
    fn learns_with_dropout_enabled() {
        let g = sbm_with_split(6);
        let cfg = GcnConfig {
            epochs: 150,
            dropout: 0.5,
            ..Default::default()
        };
        let model = GcnClassifier::fit(&g, &cfg);
        let acc = model.accuracy_on(&g, &g.split.test);
        assert!(acc > 0.75, "dropout-GCN accuracy {acc}");
    }
}
