//! NETTACK-style targeted poisoning (Zügner et al. 2018), structure
//! perturbations, direct attack.
//!
//! Follows Nettack's key design: attack a **linearized** 2-layer GCN
//! surrogate `logits = Ŝ² X W` (the nonlinearity dropped), greedily picking
//! the single edge flip incident to the target that most reduces the
//! surrogate's classification margin
//! `margin(u) = logit_{true} − max_{c≠true} logit_c`.
//!
//! Unlike a gradient approximation, every candidate flip is scored
//! **exactly**: the target row of `Ŝ²XW` is recomputed under the flipped
//! adjacency (degrees of both endpoints updated), which costs only
//! `O(deg(u) · d̄ · K)` per candidate thanks to the row-local structure of
//! the product.

use aneci_autograd::{Adam, ParamSet, Tape};
use aneci_baselines::GcnConfig;
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, sample_distinct, seeded_rng, xavier_uniform};
use aneci_linalg::DenseMatrix;
use std::collections::HashSet;
use std::sync::Arc;

use crate::attack::AttackOutcome;
use crate::fga::EdgeFlip;

/// NETTACK hyperparameters.
#[derive(Clone, Debug)]
pub struct NettackConfig {
    /// Surrogate training settings (epochs / lr reused; hidden_dim ignored —
    /// the surrogate is linear).
    pub surrogate: GcnConfig,
    /// Edge flips per target.
    pub perturbations_per_target: usize,
    /// Candidate non-neighbors sampled per step (all current neighbors are
    /// always candidates for removal). Keeps each greedy step bounded on
    /// large graphs.
    pub candidate_pool: usize,
    /// RNG seed for candidate sampling.
    pub seed: u64,
}

impl Default for NettackConfig {
    fn default() -> Self {
        Self {
            surrogate: GcnConfig::default(),
            perturbations_per_target: 1,
            candidate_pool: 400,
            seed: 0,
        }
    }
}

/// Mutable adjacency-set view used during the greedy search.
struct AdjView {
    neighbors: Vec<HashSet<u32>>,
}

impl AdjView {
    fn new(graph: &AttributedGraph) -> Self {
        let neighbors = (0..graph.num_nodes())
            .map(|u| graph.neighbors(u).into_iter().map(|v| v as u32).collect())
            .collect();
        Self { neighbors }
    }

    fn degree(&self, u: usize) -> usize {
        self.neighbors[u].len()
    }

    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors[u].contains(&(v as u32))
    }

    fn flip(&mut self, u: usize, v: usize) {
        if self.has_edge(u, v) {
            self.neighbors[u].remove(&(v as u32));
            self.neighbors[v].remove(&(u as u32));
        } else {
            self.neighbors[u].insert(v as u32);
            self.neighbors[v].insert(u as u32);
        }
    }
}

/// Trains the linear surrogate `logits = Ŝ²XW` by softmax regression.
fn train_linear_surrogate(graph: &AttributedGraph, config: &GcnConfig) -> DenseMatrix {
    let labels = graph
        .labels
        .as_ref()
        .expect("surrogate needs labels")
        .clone();
    let k = graph.num_classes();
    let s = graph.norm_adjacency();
    let sx = s.spmm_dense(graph.features());
    let s2x = Arc::new(s.spmm_dense(&sx));

    let mut rng = seeded_rng(derive_seed(config.seed, 0x2377));
    let mut params = ParamSet::new();
    params.register("w", xavier_uniform(s2x.cols(), k, &mut rng));
    let mut opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    for _ in 0..config.epochs {
        let mut tape = Tape::new();
        let w = params.leaf_all(&mut tape);
        let f = tape.constant(Arc::clone(&s2x));
        let logits = tape.matmul(f, w[0]);
        let loss = tape.softmax_cross_entropy(logits, &labels, &graph.split.train);
        tape.backward(loss);
        let grads = params.grads(&tape, &w);
        drop(tape);
        opt.step(&mut params, &grads);
    }
    params.get(0).clone()
}

/// Exactly evaluates the logits of `target` under the current `adj` view:
/// `(Ŝ²XW)_u = Σ_w Ŝ_uw Σ_t Ŝ_wt (XW)_t`, where `Ŝ` includes self-loops
/// and symmetric normalization with the *current* degrees.
fn target_logits(adj: &AdjView, xw: &DenseMatrix, target: usize) -> Vec<f64> {
    let k = xw.cols();
    let d = |u: usize| (adj.degree(u) + 1) as f64;
    let inv = |u: usize| 1.0 / d(u).sqrt();

    // Row u of Ŝ: self + neighbors.
    let mut logits = vec![0.0; k];
    let iu = inv(target);
    let mut row_u: Vec<(usize, f64)> = vec![(target, iu * iu)];
    for &w in &adj.neighbors[target] {
        row_u.push((w as usize, iu * inv(w as usize)));
    }
    // (Ŝ X W)_w for each needed w.
    for (w, s_uw) in row_u {
        let iw = inv(w);
        // self term
        let sw_self = iw * iw;
        for (l, acc) in logits.iter_mut().enumerate() {
            *acc += s_uw * sw_self * xw.get(w, l);
        }
        for &t in &adj.neighbors[w] {
            let t = t as usize;
            let s_wt = iw * inv(t);
            for (l, acc) in logits.iter_mut().enumerate() {
                *acc += s_uw * s_wt * xw.get(t, l);
            }
        }
    }
    logits
}

/// Classification margin of the target: `logit_true − max_{c≠true}`.
fn margin(logits: &[f64], true_class: usize) -> f64 {
    let best_other = logits
        .iter()
        .enumerate()
        .filter(|&(c, _)| c != true_class)
        .map(|(_, &v)| v)
        .fold(f64::NEG_INFINITY, f64::max);
    logits[true_class] - best_other
}

/// Runs the NETTACK-style attack against every target; the outcome's
/// delta is the net edit of its flips.
pub fn nettack_attack(
    graph: &AttributedGraph,
    targets: &[usize],
    config: &NettackConfig,
) -> AttackOutcome {
    let labels = graph.labels.as_ref().expect("NETTACK needs labels");
    let n = graph.num_nodes();
    let w = train_linear_surrogate(graph, &config.surrogate);
    let xw = graph.features().matmul(&w);

    let mut adj = AdjView::new(graph);
    let mut rng = seeded_rng(derive_seed(config.seed, 0x7A26));
    let mut flips = Vec::new();

    for &target in targets {
        let true_class = labels[target];
        for _ in 0..config.perturbations_per_target {
            // Candidate set: sampled non-neighbors + all current neighbors.
            let mut candidates: Vec<usize> =
                adj.neighbors[target].iter().map(|&v| v as usize).collect();
            let pool = config.candidate_pool.min(n.saturating_sub(1));
            for idx in sample_distinct(n, pool, &mut rng) {
                if idx != target && !adj.has_edge(target, idx) {
                    candidates.push(idx);
                }
            }
            // Greedy: pick the flip minimizing the margin.
            let base_margin = margin(&target_logits(&adj, &xw, target), true_class);
            let mut best: Option<(usize, f64)> = None;
            for &v in &candidates {
                adj.flip(target, v);
                let m = margin(&target_logits(&adj, &xw, target), true_class);
                adj.flip(target, v); // revert
                if m < base_margin - 1e-12 && best.is_none_or(|b| m < b.1) {
                    best = Some((v, m));
                }
            }
            let Some((v, _)) = best else { break };
            let added = !adj.has_edge(target, v);
            adj.flip(target, v);
            flips.push(EdgeFlip {
                target,
                other: v,
                added,
            });
        }
    }

    // Flips across targets can overlap, so the delta is their net edit.
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
    fn target_logits_match_dense_computation() {
        let g = attack_setup(1);
        let w = train_linear_surrogate(
            &g,
            &GcnConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        let xw = g.features().matmul(&w);
        let adj = AdjView::new(&g);
        let s = g.norm_adjacency();
        let dense = s.spmm_dense(&s.spmm_dense(&xw));
        for &u in &[0usize, 7, 50, 149] {
            let fast = target_logits(&adj, &xw, u);
            for (c, &want) in dense.row(u).iter().enumerate() {
                assert!((fast[c] - want).abs() < 1e-10, "node {u} class {c}");
            }
        }
    }

    #[test]
    fn margin_definition() {
        assert!((margin(&[2.0, 5.0, 1.0], 1) - 3.0).abs() < 1e-12);
        assert!((margin(&[2.0, 5.0, 1.0], 0) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn attack_reduces_surrogate_margin() {
        let g = attack_setup(2);
        let target = g.split.test[0];
        let cfg = NettackConfig {
            surrogate: GcnConfig {
                epochs: 60,
                ..Default::default()
            },
            perturbations_per_target: 4,
            ..Default::default()
        };
        let labels = g.labels.clone().unwrap();
        let w = train_linear_surrogate(&g, &cfg.surrogate);
        let xw = g.features().matmul(&w);
        let before = margin(
            &target_logits(&AdjView::new(&g), &xw, target),
            labels[target],
        );
        let attacked = nettack_attack(&g, &[target], &cfg).apply(&g).unwrap();
        let after = margin(
            &target_logits(&AdjView::new(&attacked), &xw, target),
            labels[target],
        );
        assert!(
            after < before,
            "margin should fall: {before:.3} -> {after:.3}"
        );
        attacked.validate().unwrap();
    }

    #[test]
    fn flips_incident_to_targets_and_within_budget() {
        let g = attack_setup(3);
        let targets = [g.split.test[0], g.split.test[2]];
        let cfg = NettackConfig {
            surrogate: GcnConfig {
                epochs: 40,
                ..Default::default()
            },
            perturbations_per_target: 2,
            ..Default::default()
        };
        let atk = nettack_attack(&g, &targets, &cfg);
        let attacked = atk.apply(&g).unwrap();
        assert!(atk.flips.len() <= 4);
        assert_eq!(atk.budget_spent, atk.flips.len());
        for f in &atk.flips {
            assert!(targets.contains(&f.target));
            assert_eq!(attacked.has_edge(f.target, f.other), f.added);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = attack_setup(4);
        let targets = [g.split.test[1]];
        let cfg = NettackConfig {
            surrogate: GcnConfig {
                epochs: 30,
                ..Default::default()
            },
            perturbations_per_target: 2,
            ..Default::default()
        };
        let a = nettack_attack(&g, &targets, &cfg);
        let b = nettack_attack(&g, &targets, &cfg);
        assert_eq!(a.flips, b.flips);
    }
}
