//! Link-prediction evaluation.
//!
//! GAE/VGAE's native benchmark and a natural extra probe for embedding
//! quality: hide a fraction of edges, score held-out edges against sampled
//! non-edges with the inner-product (or cosine) decoder, report AUC and
//! average precision.

use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, seeded_rng, shuffle};
use aneci_linalg::DenseMatrix;
use rand::Rng;

/// A train/test edge split for link prediction.
#[derive(Clone, Debug)]
pub struct LinkSplit {
    /// The graph with test edges removed (train on this).
    pub train_graph: AttributedGraph,
    /// Held-out positive edges.
    pub test_edges: Vec<(usize, usize)>,
    /// Sampled negative (absent) pairs, same count as `test_edges`.
    pub test_non_edges: Vec<(usize, usize)>,
}

/// Hides `test_fraction` of the edges (never disconnecting a degree-1
/// endpoint when avoidable) and samples an equal number of non-edges.
pub fn split_edges(graph: &AttributedGraph, test_fraction: f64, seed: u64) -> LinkSplit {
    assert!(
        (0.0..1.0).contains(&test_fraction),
        "test fraction must be in [0, 1)"
    );
    let mut rng = seeded_rng(derive_seed(seed, 0x117C));
    let mut edges = graph.edge_list();
    shuffle(&mut edges, &mut rng);
    let want = ((edges.len() as f64) * test_fraction).round() as usize;

    let mut degrees = graph.degrees();
    let mut test_edges = Vec::with_capacity(want);
    for (u, v) in edges {
        if test_edges.len() < want && degrees[u] > 1 && degrees[v] > 1 {
            degrees[u] -= 1;
            degrees[v] -= 1;
            test_edges.push((u, v));
        }
    }

    let n = graph.num_nodes();
    let capacity = n * n.saturating_sub(1) / 2 - graph.num_edges();
    assert!(
        test_edges.len() <= capacity,
        "graph too dense to sample {} non-edges (only {capacity} exist)",
        test_edges.len()
    );
    let mut test_non_edges = Vec::with_capacity(test_edges.len());
    let mut used = std::collections::HashSet::new();
    while test_non_edges.len() < test_edges.len() {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if used.insert(key) {
            test_non_edges.push(key);
        }
    }

    let train_graph = graph.with_edits(&[], &test_edges);
    LinkSplit {
        train_graph,
        test_edges,
        test_non_edges,
    }
}

/// Inner-product edge score `σ(z_u · z_v)`.
///
/// This is the *canonical* link scorer: the serving layer
/// (`aneci-serve`) answers `edge_score` queries through its row form,
/// [`row_edge_score`], so a score computed at serve time always matches the
/// one the evaluation harness would report.
pub fn edge_score(embedding: &DenseMatrix, u: usize, v: usize) -> f64 {
    row_edge_score(embedding.row(u), embedding.row(v))
}

/// [`edge_score`] of two embedding rows: the form the serving store, which
/// keeps its rows outside a [`DenseMatrix`], scores with.
pub fn row_edge_score(zu: &[f64], zv: &[f64]) -> f64 {
    aneci_linalg::sigmoid(aneci_linalg::vector::dot(zu, zv))
}

/// Scores a batch of candidate edges, dispatching to the persistent pool
/// when the batch is large enough. Output order matches `pairs`, and —
/// like every pooled kernel — the values are bit-identical to the serial
/// path regardless of thread count (each score touches disjoint output).
pub fn edge_scores(embedding: &DenseMatrix, pairs: &[(usize, usize)]) -> Vec<f64> {
    let work = pairs.len().saturating_mul(embedding.cols());
    let mut out = vec![0.0; pairs.len()];
    if aneci_linalg::pool::should_parallelize(work) {
        let grain = aneci_linalg::pool::row_grain(pairs.len(), 16);
        let chunks = aneci_linalg::pool::parallel_map_chunks(pairs.len(), grain, |lo, hi| {
            pairs[lo..hi]
                .iter()
                .map(|&(u, v)| edge_score(embedding, u, v))
                .collect::<Vec<f64>>()
        });
        let mut at = 0;
        for chunk in chunks {
            out[at..at + chunk.len()].copy_from_slice(&chunk);
            at += chunk.len();
        }
    } else {
        for (slot, &(u, v)) in out.iter_mut().zip(pairs) {
            *slot = edge_score(embedding, u, v);
        }
    }
    out
}

/// Link-prediction AUC of an embedding over a [`LinkSplit`].
pub fn link_auc(embedding: &DenseMatrix, split: &LinkSplit) -> f64 {
    let mut scores = Vec::with_capacity(split.test_edges.len() + split.test_non_edges.len());
    let mut labels = Vec::with_capacity(scores.capacity());
    for &(u, v) in &split.test_edges {
        scores.push(edge_score(embedding, u, v));
        labels.push(true);
    }
    for &(u, v) in &split.test_non_edges {
        scores.push(edge_score(embedding, u, v));
        labels.push(false);
    }
    crate::metrics::auc(&scores, &labels)
}

/// Average precision (area under the precision-recall curve, step-wise).
pub fn link_average_precision(embedding: &DenseMatrix, split: &LinkSplit) -> f64 {
    let mut scored: Vec<(f64, bool)> = split
        .test_edges
        .iter()
        .map(|&(u, v)| (edge_score(embedding, u, v), true))
        .chain(
            split
                .test_non_edges
                .iter()
                .map(|&(u, v)| (edge_score(embedding, u, v), false)),
        )
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let total_pos = split.test_edges.len();
    if total_pos == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut ap = 0.0;
    for (rank, &(_, is_pos)) in scored.iter().enumerate() {
        if is_pos {
            hits += 1;
            ap += hits as f64 / (rank + 1) as f64;
        }
    }
    ap / total_pos as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, karate_club, SbmConfig};

    #[test]
    fn split_respects_fraction_and_graph_validity() {
        let g = karate_club();
        let split = split_edges(&g, 0.2, 1);
        assert_eq!(split.test_edges.len(), 16);
        assert_eq!(split.test_non_edges.len(), 16);
        assert_eq!(split.train_graph.num_edges(), 78 - 16);
        split.train_graph.validate().unwrap();
        // Held-out edges really are absent from the train graph but present
        // in the original; non-edges absent from both.
        for &(u, v) in &split.test_edges {
            assert!(!split.train_graph.has_edge(u, v));
            assert!(g.has_edge(u, v));
        }
        for &(u, v) in &split.test_non_edges {
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn no_isolated_nodes_when_avoidable() {
        let g = karate_club();
        let split = split_edges(&g, 0.3, 2);
        for u in 0..34 {
            assert!(split.train_graph.degree(u) >= 1, "node {u} isolated");
        }
    }

    #[test]
    fn perfect_embedding_scores_auc_one() {
        // Build an embedding whose inner products exactly follow community
        // co-membership on a 2-block SBM with no inter-community edges.
        let mut cfg = SbmConfig::small();
        cfg.num_classes = 2;
        cfg.num_nodes = 60;
        cfg.target_edges = 240;
        cfg.homophily = 1.0;
        let g = generate_sbm(&cfg, 3);
        let labels = g.labels.as_ref().unwrap();
        let z = DenseMatrix::from_fn(60, 2, |r, c| if labels[r] == c { 5.0 } else { -5.0 });
        let split = split_edges(&g, 0.2, 3);
        // Positives are intra-community (homophily 1.0). Sampled non-edges
        // are a mix: inter-community ones are perfectly separated, intra
        // ones tie with the positives (the block embedding can't tell
        // missing intra pairs apart), so the ceiling is ≈ 0.6 + 0.4·0.5.
        let auc = link_auc(&z, &split);
        assert!(auc > 0.7, "AUC = {auc}");
        let ap = link_average_precision(&z, &split);
        assert!(ap > 0.65, "AP = {ap}");
    }

    #[test]
    fn random_embedding_scores_near_half() {
        let g = karate_club();
        let mut rng = aneci_linalg::rng::seeded_rng(5);
        let z = aneci_linalg::rng::gaussian_matrix(34, 8, 1.0, &mut rng);
        let split = split_edges(&g, 0.2, 5);
        let auc = link_auc(&z, &split);
        assert!((0.2..0.85).contains(&auc), "AUC = {auc}"); // wide band: tiny test set
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let a = split_edges(&g, 0.25, 9);
        let b = split_edges(&g, 0.25, 9);
        assert_eq!(a.test_edges, b.test_edges);
        assert_eq!(a.test_non_edges, b.test_non_edges);
    }

    #[test]
    fn edge_scores_bit_identical_across_thread_counts() {
        use aneci_linalg::pool;
        // Force the pooled path into existence, then compare a genuinely
        // pooled run against a single-thread run of the same batch: the
        // serving layer relies on scores not depending on the pool size.
        pool::force_pool();
        let mut rng = aneci_linalg::rng::seeded_rng(31);
        let z = aneci_linalg::rng::gaussian_matrix(300, 16, 1.0, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..2000)
            .map(|i| ((i * 7) % 300, (i * 13 + 5) % 300))
            .collect();

        pool::set_par_threshold(1);
        let pooled = edge_scores(&z, &pairs);
        pool::set_num_threads(1);
        let serial = edge_scores(&z, &pairs);
        // Restore defaults for whatever test runs next in this process.
        pool::set_num_threads(4);

        assert_eq!(pooled, serial, "thread count changed edge scores");
        // And both agree with the one-at-a-time canonical scorer.
        for (s, &(u, v)) in serial.iter().zip(&pairs) {
            assert_eq!(*s, edge_score(&z, u, v));
        }
    }

    #[test]
    fn link_auc_deterministic_across_thread_counts() {
        use aneci_linalg::pool;
        pool::force_pool();
        let g = karate_club();
        let mut rng = aneci_linalg::rng::seeded_rng(17);
        let z = aneci_linalg::rng::gaussian_matrix(34, 8, 1.0, &mut rng);
        let split = split_edges(&g, 0.2, 7);

        pool::set_num_threads(1);
        let auc_single = link_auc(&z, &split);
        let ap_single = link_average_precision(&z, &split);
        pool::set_num_threads(4);
        let auc_multi = link_auc(&z, &split);
        let ap_multi = link_average_precision(&z, &split);

        assert_eq!(auc_single, auc_multi);
        assert_eq!(ap_single, ap_multi);
    }
}
