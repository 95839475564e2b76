//! DeepWalk (Perozzi et al. 2014).
//!
//! Truncated random walks feed a skip-gram model trained with negative
//! sampling (SGNS). Hand-rolled hot loop (no autograd) — this is the same
//! asymptotic shape as the reference gensim-based implementation: for each
//! (center, context) pair within the window, one positive update plus `k`
//! negative-sampled updates on two embedding tables.

use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, uniform_matrix, AliasTable};
use aneci_linalg::{sigmoid, DenseMatrix};
use rand::rngs::StdRng;
use rand::Rng;

/// DeepWalk hyperparameters.
#[derive(Clone, Debug)]
pub struct DeepWalkConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Walks started per node.
    pub num_walks: usize,
    /// Walk length.
    pub walk_length: usize,
    /// Skip-gram window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD passes over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 1e-4 of itself).
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeepWalkConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            num_walks: 10,
            walk_length: 40,
            window: 5,
            negatives: 5,
            epochs: 2,
            lr: 0.025,
            seed: 0,
        }
    }
}

/// Generates the truncated-random-walk corpus.
fn random_walks(
    graph: &AttributedGraph,
    num_walks: usize,
    walk_length: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let n = graph.num_nodes();
    let mut walks = Vec::with_capacity(n * num_walks);
    let neighborhoods: Vec<Vec<usize>> = (0..n).map(|u| graph.neighbors(u)).collect();
    for _ in 0..num_walks {
        for start in 0..n {
            let mut walk = Vec::with_capacity(walk_length);
            walk.push(start as u32);
            let mut current = start;
            for _ in 1..walk_length {
                let nbrs = &neighborhoods[current];
                if nbrs.is_empty() {
                    break;
                }
                current = nbrs[rng.gen_range(0..nbrs.len())];
                walk.push(current as u32);
            }
            walks.push(walk);
        }
    }
    walks
}

/// One SGNS update on `(center, context, label)`: one dot product, one
/// coefficient, and each table's row moved along the other's pre-update
/// row. LINE's second order runs the same update.
#[inline]
pub(crate) fn sgns_update(
    center_table: &mut DenseMatrix,
    context_table: &mut DenseMatrix,
    center: usize,
    context: usize,
    label: f64,
    lr: f64,
) {
    let ctx_copy: Vec<f64> = context_table.row(context).to_vec();
    let cr = center_table.row(center);
    let dot: f64 = cr.iter().zip(&ctx_copy).map(|(&a, &b)| a * b).sum();
    let coeff = lr * (label - sigmoid(dot));
    for (x, &c) in context_table.row_mut(context).iter_mut().zip(cr) {
        *x += coeff * c;
    }
    for (c, &x) in center_table.row_mut(center).iter_mut().zip(&ctx_copy) {
        *c += coeff * x;
    }
}

/// Trains DeepWalk and returns the node embedding matrix.
pub fn deepwalk(graph: &AttributedGraph, config: &DeepWalkConfig) -> DenseMatrix {
    let mut rng = seeded_rng(derive_seed(config.seed, 0xD33B));
    let walks = random_walks(graph, config.num_walks, config.walk_length, &mut rng);
    train_skipgram(graph, &walks, config, &mut rng)
}

/// Skip-gram-with-negative-sampling training over a fixed walk corpus.
#[allow(clippy::needless_range_loop)] // window arithmetic is clearer with indices
fn train_skipgram(
    graph: &AttributedGraph,
    walks: &[Vec<u32>],
    config: &DeepWalkConfig,
    rng: &mut StdRng,
) -> DenseMatrix {
    let n = graph.num_nodes();
    // Negative-sampling distribution ∝ degree^0.75 (word2vec convention).
    let weights: Vec<f64> = (0..n)
        .map(|u| (graph.degree(u) as f64).max(1e-3).powf(0.75))
        .collect();
    let noise = AliasTable::new(&weights);

    let bound = 0.5 / config.dim as f64;
    let mut center = uniform_matrix(n, config.dim, bound, rng);
    let mut context = DenseMatrix::zeros(n, config.dim);

    // Count training pairs for the LR schedule.
    let total_pairs: usize = walks
        .iter()
        .map(|w| {
            let l = w.len();
            (0..l)
                .map(|i| {
                    (i.saturating_sub(config.window)..(i + config.window + 1).min(l)).len() - 1
                })
                .sum::<usize>()
        })
        .sum::<usize>()
        * config.epochs;
    let mut seen = 0usize;

    for _ in 0..config.epochs {
        for walk in walks {
            let l = walk.len();
            for i in 0..l {
                let c = walk[i] as usize;
                let lo = i.saturating_sub(config.window);
                let hi = (i + config.window + 1).min(l);
                for j in lo..hi {
                    if j == i {
                        continue;
                    }
                    seen += 1;
                    let lr = config.lr * (1.0 - seen as f64 / total_pairs.max(1) as f64).max(1e-4);
                    let ctx = walk[j] as usize;
                    sgns_update(&mut center, &mut context, c, ctx, 1.0, lr);
                    for _ in 0..config.negatives {
                        let neg = noise.sample(rng);
                        if neg != ctx {
                            sgns_update(&mut center, &mut context, c, neg, 0.0, lr);
                        }
                    }
                }
            }
        }
    }
    center
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;
    use aneci_linalg::rng::seeded_rng;

    #[test]
    fn walks_respect_topology() {
        let g = karate_club();
        let mut rng = seeded_rng(1);
        let walks = random_walks(&g, 2, 10, &mut rng);
        assert_eq!(walks.len(), 68);
        for walk in &walks {
            assert!(walk.len() <= 10);
            for pair in walk.windows(2) {
                assert!(
                    g.has_edge(pair[0] as usize, pair[1] as usize),
                    "walk step {}-{} is not an edge",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn isolated_nodes_yield_single_step_walks() {
        let g = aneci_graph::AttributedGraph::from_edges_plain(3, &[(0, 1)], None);
        let mut rng = seeded_rng(2);
        let walks = random_walks(&g, 1, 5, &mut rng);
        let walk_of_2 = walks.iter().find(|w| w[0] == 2).unwrap();
        assert_eq!(walk_of_2.len(), 1);
    }

    #[test]
    fn embedding_separates_karate_factions() {
        let g = karate_club();
        let cfg = DeepWalkConfig {
            dim: 8,
            epochs: 3,
            seed: 3,
            ..Default::default()
        };
        let z = deepwalk(&g, &cfg);
        assert_eq!(z.shape(), (34, 8));
        assert!(z.all_finite());
        // Same-faction cosine similarity should exceed cross-faction.
        let labels = g.labels.as_ref().unwrap();
        let cos = |a: usize, b: usize| {
            let (ra, rb) = (z.row(a), z.row(b));
            let dot: f64 = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
            let na: f64 = ra.iter().map(|v| v * v).sum::<f64>().sqrt();
            let nb: f64 = rb.iter().map(|v| v * v).sum::<f64>().sqrt();
            dot / (na * nb).max(1e-12)
        };
        let mut same = (0.0, 0);
        let mut diff = (0.0, 0);
        for i in 0..34 {
            for j in (i + 1)..34 {
                if labels[i] == labels[j] {
                    same = (same.0 + cos(i, j), same.1 + 1);
                } else {
                    diff = (diff.0 + cos(i, j), diff.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1 as f64;
        let diff_avg = diff.0 / diff.1 as f64;
        assert!(
            same_avg > diff_avg + 0.05,
            "same {same_avg:.3} vs diff {diff_avg:.3}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = DeepWalkConfig {
            dim: 4,
            epochs: 1,
            seed: 4,
            ..Default::default()
        };
        assert_eq!(deepwalk(&g, &cfg), deepwalk(&g, &cfg));
    }
}
