//! FGA — Fast Gradient Attack (Chen et al. 2018), structure variant.
//!
//! Direct targeted attack: a 2-layer GCN surrogate is trained on the clean
//! graph; for each target node the attack repeatedly (once per unit of
//! budget) differentiates the target's cross-entropy loss **with respect to
//! the normalized adjacency matrix** and flips the single edge incident to
//! the target with the largest beneficial gradient (add a non-edge with
//! positive gradient, or delete an edge with negative gradient). The
//! normalization constants are held fixed during differentiation — the
//! standard first-order approximation used by FGA reimplementations.

use aneci_autograd::Tape;
use aneci_baselines::{GcnClassifier, GcnConfig};
use aneci_graph::AttributedGraph;
use aneci_linalg::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

use crate::attack::{apply_flips, AttackOutcome};

/// FGA hyperparameters.
#[derive(Clone, Debug)]
pub struct FgaConfig {
    /// Surrogate GCN configuration (trained once, on the clean graph).
    pub surrogate: GcnConfig,
    /// Edge flips spent per target node.
    pub perturbations_per_target: usize,
}

impl Default for FgaConfig {
    fn default() -> Self {
        Self {
            surrogate: GcnConfig::default(),
            perturbations_per_target: 1,
        }
    }
}

/// One recorded edge flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeFlip {
    /// Target the flip was made for.
    pub target: usize,
    /// The other endpoint.
    pub other: usize,
    /// True when the edge was added (false: removed).
    pub added: bool,
}

/// Dense normalized adjacency `D^-1/2 (A+I) D^-1/2` of an adjacency.
fn dense_norm_adjacency(adjacency: &CsrMatrix) -> DenseMatrix {
    let n = adjacency.rows();
    let inv_sqrt: Vec<f64> = (0..n)
        .map(|u| 1.0 / ((adjacency.row_nnz(u) + 1) as f64).sqrt())
        .collect();
    let mut s = DenseMatrix::zeros(n, n);
    for u in 0..n {
        s.set(u, u, inv_sqrt[u] * inv_sqrt[u]);
        for (v, _) in adjacency.row_entries(u) {
            s.set(u, v, inv_sqrt[u] * inv_sqrt[v]);
        }
    }
    s
}

/// Gradient of the target node's CE loss w.r.t. the dense normalized
/// adjacency, using the surrogate's frozen `xw = X·W₁` and `w2 = W₂`.
fn adjacency_gradient(
    adjacency: &CsrMatrix,
    xw: &Arc<DenseMatrix>,
    w2: &Arc<DenseMatrix>,
    target: usize,
    label: usize,
) -> DenseMatrix {
    let mut tape = Tape::new();
    let s = tape.leaf(dense_norm_adjacency(adjacency));
    let xw = tape.constant(Arc::clone(xw));
    let w2v = tape.constant(Arc::clone(w2));
    let h1 = tape.matmul(s, xw);
    let a1 = tape.relu(h1);
    let hw = tape.matmul(a1, w2v);
    let logits = tape.matmul(s, hw);
    let mut labels = vec![0usize; adjacency.rows()];
    labels[target] = label;
    let loss = tape.softmax_cross_entropy(logits, &labels, &[target]);
    tape.backward(loss);
    tape.grad(s)
}

/// Runs FGA against every target. The surrogate is trained once on the
/// input graph; flips accumulate into a single poisoned graph (matching the
/// paper's protocol of attacking all targets then retraining the victim),
/// and the outcome's delta is their net edit.
pub fn fga_attack(graph: &AttributedGraph, targets: &[usize], config: &FgaConfig) -> AttackOutcome {
    let labels = graph.labels.as_ref().expect("FGA needs labels");
    let surrogate = GcnClassifier::fit(graph, &config.surrogate);
    let (w1, w2) = surrogate.weights();
    // No flip changes `X`: one `X·W₁`, the tape's own product, serves all.
    let xw = Arc::new(graph.features().matmul(&w1));
    let w2 = Arc::new(w2);

    // The flips so far, applied to the clean adjacency.
    let mut working = graph.adjacency().clone();
    let mut flips = Vec::new();
    for &target in targets {
        for _ in 0..config.perturbations_per_target {
            let grad = adjacency_gradient(&working, &xw, &w2, target, labels[target]);
            // Best beneficial flip incident to the target (direct attack).
            let mut best: Option<(usize, bool, f64)> = None;
            for v in 0..working.rows() {
                if v == target {
                    continue;
                }
                // Symmetric contribution of the (target, v) entry.
                let g = grad.get(target, v) + grad.get(v, target);
                let exists = working.get(target, v) != 0.0;
                // Increasing loss: add when g > 0, remove when g < 0.
                let benefit = if exists { -g } else { g };
                if benefit > 0.0 {
                    let candidate = (v, !exists, benefit);
                    if best.is_none_or(|b| candidate.2 > b.2) {
                        best = Some(candidate);
                    }
                }
            }
            let Some((other, added, _)) = best else { break };
            let flip = EdgeFlip {
                target,
                other,
                added,
            };
            working = apply_flips(&working, &[flip]);
            flips.push(flip);
        }
    }
    AttackOutcome::of_flips(graph, targets, flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, sample_split, SbmConfig};

    fn attack_setup(seed: u64) -> AttributedGraph {
        let mut cfg = SbmConfig::small();
        cfg.num_nodes = 150;
        cfg.num_classes = 3;
        cfg.target_edges = 900;
        cfg.homophily = 0.9;
        let mut g = generate_sbm(&cfg, seed);
        let labels = g.labels.clone().unwrap();
        g.set_split(sample_split(&labels, 10, 30, 80, seed));
        g
    }

    #[test]
    fn respects_budget_and_validity() {
        let g = attack_setup(1);
        let targets = [g.split.test[0], g.split.test[1]];
        let cfg = FgaConfig {
            surrogate: GcnConfig {
                epochs: 60,
                ..Default::default()
            },
            perturbations_per_target: 3,
        };
        let atk = fga_attack(&g, &targets, &cfg);
        assert!(atk.flips.len() <= 6);
        assert_eq!(atk.budget_spent, atk.flips.len());
        assert_eq!(atk.targets, targets);
        atk.apply(&g).unwrap().validate().unwrap();
        // Every flip is incident to its target (direct attack).
        for f in &atk.flips {
            assert!(targets.contains(&f.target));
        }
    }

    #[test]
    fn flips_actually_change_the_graph() {
        let g = attack_setup(2);
        let targets = [g.split.test[0]];
        let cfg = FgaConfig {
            surrogate: GcnConfig {
                epochs: 60,
                ..Default::default()
            },
            perturbations_per_target: 2,
        };
        let atk = fga_attack(&g, &targets, &cfg);
        let attacked = atk.apply(&g).unwrap();
        for f in &atk.flips {
            assert_eq!(attacked.has_edge(f.target, f.other), f.added);
        }
        assert!(!atk.flips.is_empty());
    }

    #[test]
    fn degrades_surrogate_confidence_on_target() {
        let g = attack_setup(3);
        let labels = g.labels.clone().unwrap();
        // Pick a target the clean surrogate classifies correctly.
        let clean_model = GcnClassifier::fit(
            &g,
            &GcnConfig {
                epochs: 80,
                ..Default::default()
            },
        );
        let clean_pred = clean_model.predict();
        let target = *g
            .split
            .test
            .iter()
            .find(|&&u| clean_pred[u] == labels[u])
            .expect("no correctly-classified test node");

        let cfg = FgaConfig {
            surrogate: GcnConfig {
                epochs: 80,
                ..Default::default()
            },
            perturbations_per_target: 5,
        };
        let poisoned = fga_attack(&g, &[target], &cfg).apply(&g).unwrap();
        // Retrain the victim on the poisoned graph (poisoning protocol) and
        // compare the target's true-class probability.
        let victim = GcnClassifier::fit(
            &poisoned,
            &GcnConfig {
                epochs: 80,
                ..Default::default()
            },
        );
        let clean_logits = clean_model.logits();
        let poisoned_logits = victim.logits();
        let prob = |logits: &DenseMatrix, node: usize, class: usize| {
            let row = logits.row(node);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|v| (v - max).exp()).collect();
            exps[class] / exps.iter().sum::<f64>()
        };
        let before = prob(&clean_logits, target, labels[target]);
        let after = prob(&poisoned_logits, target, labels[target]);
        assert!(
            after < before + 0.05,
            "attack should not increase target confidence: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn dense_norm_adjacency_matches_sparse() {
        let g = attack_setup(4);
        let dense = dense_norm_adjacency(g.adjacency());
        let sparse = g.norm_adjacency().to_dense();
        assert!(dense.sub(&sparse).max_abs() < 1e-12);
    }
}
