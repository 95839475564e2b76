//! AnECI+ — the two-stage denoising variant (Algorithm 1, Sec. VI-B2).
//!
//! Stage 1 trains AnECI on the (possibly attacked) graph, scores every edge
//! with `s(e_{ij}) = 1 − cos(z_i, z_j)`, and removes the top-`ρ` fraction.
//! Stage 2 retrains AnECI from scratch on the cleaned graph with identical
//! hyperparameters.
//!
//! The drop ratio is data-driven: `ρ = ψ(s̄)` where `s̄` is the mean edge
//! anomaly score over the observed edge set and
//! `ψ(x) = γ / (1 + exp(−α (x − β)))` — an increasing squashing of the
//! estimated attack scale into `[0, γ]`. (The paper prints the exponent
//! without the minus sign but describes ψ as "an incremental function"; we
//! use the increasing form.) Paper defaults: `β = 0.5`, `γ = 0.75`, with
//! `α` tuned per dataset/attack.

use crate::anomaly::edge_anomaly_scores;
use crate::config::AneciConfig;
use crate::error::AneciError;
use crate::model::{AneciModel, TrainReport, ValProbe};
use aneci_graph::{AttributedGraph, GraphDelta};
use serde::{Deserialize, Serialize};

/// Drop-ratio smoothing parameters of ψ.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DenoiseConfig {
    /// Steepness `α` of ψ (paper: per-dataset, 2–18).
    pub alpha: f64,
    /// Midpoint `β` of ψ (paper: 0.5).
    pub beta: f64,
    /// Ceiling `γ` of the drop ratio (paper: 0.75) — "to ensure the
    /// denoising process maintains the basic community structure".
    pub gamma: f64,
}

impl Default for DenoiseConfig {
    fn default() -> Self {
        Self {
            alpha: 4.0,
            beta: 0.5,
            gamma: 0.75,
        }
    }
}

impl DenoiseConfig {
    /// The smoothing function `ψ(x) = γ / (1 + e^{−α(x−β)})`.
    pub fn psi(&self, x: f64) -> f64 {
        self.gamma / (1.0 + (-self.alpha * (x - self.beta)).exp())
    }
}

/// Outcome of an AnECI+ run.
pub struct DenoiseResult {
    /// The denoised graph used in stage 2.
    pub denoised_graph: AttributedGraph,
    /// Edges removed by the denoising phase.
    pub removed_edges: Vec<(usize, usize)>,
    /// Drop ratio ρ actually applied.
    pub drop_ratio: f64,
    /// Stage-1 (noisy-graph) training report.
    pub stage1_report: TrainReport,
    /// Stage-2 (denoised-graph) training report.
    pub stage2_report: TrainReport,
    /// The stage-2 model — its embedding is the AnECI+ output.
    pub model: AneciModel,
}

/// Runs AnECI+ (Algorithm 1). `val_score` is the same optional validation
/// probe accepted by [`AneciModel::train`], applied in both stages. Errors
/// propagate from either training stage (e.g. [`AneciError::Diverged`]).
pub fn aneci_plus(
    graph: &AttributedGraph,
    config: &AneciConfig,
    denoise: &DenoiseConfig,
    mut val_score: Option<ValProbe<'_>>,
) -> Result<DenoiseResult, AneciError> {
    // --- Stage 1: embed the observed graph. ---
    let mut stage1 = AneciModel::new(graph, config);
    let stage1_report = match val_score.as_mut() {
        Some(f) => stage1.train(Some(&mut **f)),
        None => stage1.train(None),
    }?;
    let z = stage1.embedding();

    // --- Score edges and pick the drop ratio. ---
    let edges = graph.edge_list();
    let scores = edge_anomaly_scores(z, &edges);
    let mean_score = if scores.is_empty() {
        0.0
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    let drop_ratio = denoise.psi(mean_score).clamp(0.0, 1.0);
    let drop_count = ((edges.len() as f64) * drop_ratio).floor() as usize;

    // Rank edges by descending anomaly score; remove the top drop_count.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
    let removed_edges: Vec<(usize, usize)> =
        order[..drop_count].iter().map(|&i| edges[i]).collect();

    let mut denoised_graph = graph.clone();
    denoised_graph.apply_delta(&GraphDelta {
        remove_edges: removed_edges.clone(),
        ..Default::default()
    })?;

    // --- Stage 2: retrain on the cleaned graph. ---
    let mut model = AneciModel::new(&denoised_graph, config);
    let stage2_report = match val_score.as_mut() {
        Some(f) => model.train(Some(&mut **f)),
        None => model.train(None),
    }?;

    Ok(DenoiseResult {
        denoised_graph,
        removed_edges,
        drop_ratio,
        stage1_report,
        stage2_report,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopStrategy;
    use aneci_graph::karate_club;
    use aneci_linalg::rng::{seeded_rng, shuffle};

    fn quick_config(seed: u64) -> AneciConfig {
        AneciConfig {
            hidden_dim: 16,
            embed_dim: 2,
            epochs: 60,
            stop: StopStrategy::FixedEpochs,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn psi_is_increasing_and_bounded() {
        let d = DenoiseConfig {
            alpha: 5.0,
            beta: 0.5,
            gamma: 0.75,
        };
        assert!(d.psi(0.0) < d.psi(0.5));
        assert!(d.psi(0.5) < d.psi(1.0));
        assert!((d.psi(0.5) - 0.375).abs() < 1e-12); // γ/2 at the midpoint
        assert!(d.psi(10.0) <= 0.75);
        assert!(d.psi(-10.0) >= 0.0);
    }

    #[test]
    fn denoising_preferentially_removes_fake_edges() {
        let g = karate_club();
        // Inject cross-faction fake edges (the hardest random attack).
        let labels = g.labels.clone().unwrap();
        let mut fakes = Vec::new();
        let mut rng = seeded_rng(42);
        let mut candidates: Vec<(usize, usize)> = (0..34)
            .flat_map(|u| (0..34).map(move |v| (u, v)))
            .filter(|&(u, v)| u < v && labels[u] != labels[v] && !g.has_edge(u, v))
            .collect();
        shuffle(&mut candidates, &mut rng);
        fakes.extend(candidates.into_iter().take(20));
        let mut attacked = g.clone();
        attacked
            .apply_delta(&GraphDelta {
                add_edges: fakes.clone(),
                ..Default::default()
            })
            .unwrap();

        let result = aneci_plus(
            &attacked,
            &quick_config(3),
            &DenoiseConfig {
                alpha: 6.0,
                beta: 0.4,
                gamma: 0.75,
            },
            None,
        )
        .unwrap();
        // The removed set must be enriched in fakes relative to chance:
        // fakes are 20/98 ≈ 20% of edges; demand ≥ 1.4× enrichment. (The
        // removal set holds ~10 edges, so the observable fraction moves in
        // 0.1 steps — a bar that lands between two achievable values would
        // make the test flip on harmless reorderings.)
        let removed_fakes = result
            .removed_edges
            .iter()
            .filter(|e| fakes.contains(e) || fakes.contains(&(e.1, e.0)))
            .count();
        let frac = removed_fakes as f64 / result.removed_edges.len().max(1) as f64;
        let base_rate = fakes.len() as f64 / attacked.num_edges() as f64;
        assert!(
            frac >= 1.4 * base_rate,
            "fake-edge enrichment too low: removed {frac:.2} vs base {base_rate:.2}"
        );
    }

    #[test]
    fn drop_ratio_respects_gamma_ceiling() {
        let g = karate_club();
        let d = DenoiseConfig {
            alpha: 100.0,
            beta: 0.0,
            gamma: 0.3,
        };
        let result = aneci_plus(&g, &quick_config(4), &d, None).unwrap();
        assert!(result.drop_ratio <= 0.3 + 1e-12);
        assert!(
            result.removed_edges.len() <= (0.3 * g.num_edges() as f64).floor() as usize,
            "removed {} of {}",
            result.removed_edges.len(),
            g.num_edges()
        );
        result.denoised_graph.validate().unwrap();
    }

    #[test]
    fn stage2_model_is_trained() {
        let g = karate_club();
        let result = aneci_plus(&g, &quick_config(5), &DenoiseConfig::default(), None).unwrap();
        // Embedding accessible and finite — train() ran on stage 2.
        assert!(result.model.embedding().all_finite());
        assert_eq!(result.stage2_report.epochs_run, 60);
    }
}
