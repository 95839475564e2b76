//! LINE (Tang et al. 2015) — first- and second-order proximity embedding.
//!
//! Edge-sampling SGD with negative sampling:
//!
//! * **First order** — for an edge `(u, v)`, maximize `σ(z_u · z_v)` against
//!   `k` degree^0.75-sampled negatives on the same table.
//! * **Second order** — separate context table; maximize `σ(z_u · c_v)`.
//!
//! `LineOrder::Both` concatenates the two halves, the configuration the
//! paper's comparisons use.

use crate::deepwalk::sgns_update;
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, uniform_matrix, AliasTable};
use aneci_linalg::{sigmoid, DenseMatrix};
use rand::rngs::StdRng;
use rand::Rng;

/// Which proximity order(s) to train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOrder {
    /// Only the first-order objective.
    First,
    /// Only the second-order objective.
    Second,
    /// Train both and concatenate (each gets `dim/2`).
    Both,
}

/// LINE hyperparameters.
#[derive(Clone, Debug)]
pub struct LineConfig {
    /// Total embedding dimensionality.
    pub dim: usize,
    /// Proximity order(s).
    pub order: LineOrder,
    /// Edge samples (total SGD steps) per order, as a multiple of |E|.
    pub samples_per_edge: usize,
    /// Negative samples per positive.
    pub negatives: usize,
    /// Initial learning rate.
    pub lr: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LineConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            order: LineOrder::Both,
            samples_per_edge: 200,
            negatives: 5,
            lr: 0.025,
            seed: 0,
        }
    }
}

fn train_order(
    edges: &[(usize, usize)],
    n: usize,
    dim: usize,
    second_order: bool,
    config: &LineConfig,
    rng: &mut StdRng,
    degrees: &[f64],
) -> DenseMatrix {
    let bound = 0.5 / dim as f64;
    let mut vertex = uniform_matrix(n, dim, bound, rng);
    // Only the second order has a context table; the first order moves two
    // vertex rows.
    let mut context = second_order.then(|| DenseMatrix::zeros(n, dim));
    let noise = AliasTable::new(degrees);

    let total = edges.len() * config.samples_per_edge;
    for step in 0..total {
        let lr = config.lr * (1.0 - step as f64 / total as f64).max(1e-4);
        let &(u, v) = &edges[rng.gen_range(0..edges.len())];
        // Undirected: pick a random direction.
        let (src, dst) = if rng.gen::<bool>() { (u, v) } else { (v, u) };
        update(&mut vertex, context.as_mut(), src, dst, 1.0, lr);
        for _ in 0..config.negatives {
            let neg = noise.sample(rng);
            if neg != dst {
                update(&mut vertex, context.as_mut(), src, neg, 0.0, lr);
            }
        }
    }
    vertex
}

/// One SGD step on `(src, dst, label)`. The second order is DeepWalk's
/// SGNS update over the vertex and context tables; the first order, which
/// has no `context`, moves both of its vertex rows.
#[inline]
fn update(
    vertex: &mut DenseMatrix,
    context: Option<&mut DenseMatrix>,
    src: usize,
    dst: usize,
    label: f64,
    lr: f64,
) {
    if let Some(context) = context {
        return sgns_update(vertex, context, src, dst, label, lr);
    }
    let src_copy: Vec<f64> = vertex.row(src).to_vec();
    let dst_copy: Vec<f64> = vertex.row(dst).to_vec();
    let dot: f64 = src_copy.iter().zip(&dst_copy).map(|(&a, &b)| a * b).sum();
    let coeff = lr * (label - sigmoid(dot));
    for (v, d) in vertex.row_mut(src).iter_mut().zip(&dst_copy) {
        *v += coeff * d;
    }
    for (v, s) in vertex.row_mut(dst).iter_mut().zip(&src_copy) {
        *v += coeff * s;
    }
}

/// Trains LINE and returns the embedding.
pub fn line(graph: &AttributedGraph, config: &LineConfig) -> DenseMatrix {
    let n = graph.num_nodes();
    let edges = graph.edge_list();
    assert!(!edges.is_empty(), "LINE needs at least one edge");
    let mut rng = seeded_rng(derive_seed(config.seed, 0x11E));
    let degrees: Vec<f64> = (0..n)
        .map(|u| (graph.degree(u) as f64).max(1e-3).powf(0.75))
        .collect();

    match config.order {
        LineOrder::First => train_order(&edges, n, config.dim, false, config, &mut rng, &degrees),
        LineOrder::Second => train_order(&edges, n, config.dim, true, config, &mut rng, &degrees),
        LineOrder::Both => {
            let half = (config.dim / 2).max(1);
            let first = train_order(&edges, n, half, false, config, &mut rng, &degrees);
            let second = train_order(&edges, n, half, true, config, &mut rng, &degrees);
            first.hstack(&second)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    fn faction_separation(z: &DenseMatrix, labels: &[usize]) -> f64 {
        let cos = |a: usize, b: usize| {
            let (ra, rb) = (z.row(a), z.row(b));
            let dot: f64 = ra.iter().zip(rb).map(|(&x, &y)| x * y).sum();
            let na: f64 = ra.iter().map(|v| v * v).sum::<f64>().sqrt();
            let nb: f64 = rb.iter().map(|v| v * v).sum::<f64>().sqrt();
            dot / (na * nb).max(1e-12)
        };
        let mut same = (0.0, 0);
        let mut diff = (0.0, 0);
        for i in 0..labels.len() {
            for j in (i + 1)..labels.len() {
                if labels[i] == labels[j] {
                    same = (same.0 + cos(i, j), same.1 + 1);
                } else {
                    diff = (diff.0 + cos(i, j), diff.1 + 1);
                }
            }
        }
        same.0 / same.1 as f64 - diff.0 / diff.1 as f64
    }

    #[test]
    fn first_order_separates_factions() {
        let g = karate_club();
        let cfg = LineConfig {
            dim: 8,
            order: LineOrder::First,
            seed: 1,
            ..Default::default()
        };
        let z = line(&g, &cfg);
        assert!(z.all_finite());
        let sep = faction_separation(&z, g.labels.as_ref().unwrap());
        assert!(sep > 0.05, "separation {sep}");
    }

    #[test]
    fn both_orders_concatenate() {
        let g = karate_club();
        let cfg = LineConfig {
            dim: 16,
            order: LineOrder::Both,
            seed: 2,
            ..Default::default()
        };
        let z = line(&g, &cfg);
        assert_eq!(z.shape(), (34, 16));
    }

    #[test]
    fn second_order_trains_finite() {
        let g = karate_club();
        let cfg = LineConfig {
            dim: 8,
            order: LineOrder::Second,
            samples_per_edge: 100,
            seed: 3,
            ..Default::default()
        };
        let z = line(&g, &cfg);
        assert!(z.all_finite());
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let cfg = LineConfig {
            dim: 4,
            samples_per_edge: 50,
            seed: 4,
            ..Default::default()
        };
        assert_eq!(line(&g, &cfg), line(&g, &cfg));
    }
}
