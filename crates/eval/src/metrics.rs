//! Evaluation metrics used across the paper's experiments:
//! accuracy / macro-F1 (node classification), AUC (anomaly detection),
//! modularity (community detection, Eq. 4), NMI and ARI (clustering
//! agreement).

use aneci_graph::AttributedGraph;
use aneci_linalg::CsrMatrix;

/// Classification accuracy.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "accuracy: length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let correct = pred.iter().zip(truth).filter(|(a, b)| a == b).count();
    correct as f64 / pred.len() as f64
}

/// Macro-averaged F1 over the classes present in the ground truth.
pub fn macro_f1(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "macro_f1: length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let k = truth.iter().chain(pred).copied().max().unwrap_or(0) + 1;
    let mut tp = vec![0usize; k];
    let mut fp = vec![0usize; k];
    let mut fn_ = vec![0usize; k];
    for (&p, &t) in pred.iter().zip(truth) {
        if p == t {
            tp[p] += 1;
        } else {
            fp[p] += 1;
            fn_[t] += 1;
        }
    }
    let mut classes = 0usize;
    let mut total = 0.0;
    for c in 0..k {
        if tp[c] + fn_[c] == 0 {
            continue; // class absent from the ground truth
        }
        classes += 1;
        let prec = if tp[c] + fp[c] == 0 {
            0.0
        } else {
            tp[c] as f64 / (tp[c] + fp[c]) as f64
        };
        let rec = tp[c] as f64 / (tp[c] + fn_[c]) as f64;
        if prec + rec > 0.0 {
            total += 2.0 * prec * rec / (prec + rec);
        }
    }
    if classes == 0 {
        0.0
    } else {
        total / classes as f64
    }
}

/// Area under the ROC curve via the Mann–Whitney statistic with midrank tie
/// handling. `labels[i]` is true for positives; `scores[i]` is the anomaly /
/// confidence score (higher = more positive).
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "auc: length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank the scores (average ranks over ties).
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap());
    let mut ranks = vec![0.0; scores.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &id in &idx[i..=j] {
            ranks[id] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter(|(_, &l)| l)
        .map(|(&r, _)| r)
        .sum();
    let u = rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Newman's modularity `Q` (Eq. 4 of the paper) of a hard partition on a
/// weighted proximity matrix. `adjacency` plays the role of `A`; the
/// degrees `k` and the mass `2m = Σ k` are derived from it:
///
/// `Q = (1/2m) Σ_ij (A_ij − k_i k_j / 2m) δ(c_i, c_j)
///    = (1/2m) [Σ_intra A_ij − Σ_c d_c² / 2m]`,
///
/// where `d_c` is the total degree of community `c`. Per the classic
/// definition, pass the *hollow* adjacency (no self-loops).
pub fn modularity(adjacency: &CsrMatrix, partition: &[usize]) -> f64 {
    assert_eq!(
        adjacency.rows(),
        partition.len(),
        "modularity: partition length mismatch"
    );
    let k: Vec<f64> = adjacency.row_sums();
    let two_m: f64 = k.iter().sum();
    if two_m == 0.0 {
        return 0.0;
    }
    let mut intra = 0.0;
    for (i, j, v) in adjacency.iter() {
        if partition[i] == partition[j] {
            intra += v;
        }
    }
    let num_comms = partition.iter().copied().max().map_or(0, |m| m + 1);
    let mut comm_degree = vec![0.0; num_comms];
    for (i, &c) in partition.iter().enumerate() {
        comm_degree[c] += k[i];
    }
    let expected: f64 = comm_degree.iter().map(|d| d * d / two_m).sum();
    (intra - expected) / two_m
}

/// Brute-force modularity straight from Eq. 4 — O(N²); exists so tests can
/// pin the fast implementation to the definition.
pub fn modularity_bruteforce(graph: &AttributedGraph, partition: &[usize]) -> f64 {
    let n = graph.num_nodes();
    let m = graph.num_edges() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let deg = graph.degrees();
    let mut q = 0.0;
    for i in 0..n {
        for j in 0..n {
            if partition[i] != partition[j] {
                continue;
            }
            let a = if graph.has_edge(i, j) { 1.0 } else { 0.0 };
            q += a - deg[i] as f64 * deg[j] as f64 / (2.0 * m);
        }
    }
    q / (2.0 * m)
}

/// Normalized mutual information between two labelings (arithmetic-mean
/// normalization). Returns 1 for identical partitions up to relabeling, 0
/// for independent ones.
pub fn nmi(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "nmi: length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ka = a.iter().copied().max().unwrap_or(0) + 1;
    let kb = b.iter().copied().max().unwrap_or(0) + 1;
    let mut joint = vec![vec![0usize; kb]; ka];
    let mut ma = vec![0usize; ka];
    let mut mb = vec![0usize; kb];
    for (&x, &y) in a.iter().zip(b) {
        joint[x][y] += 1;
        ma[x] += 1;
        mb[y] += 1;
    }
    let n = n as f64;
    let mut mi = 0.0;
    for x in 0..ka {
        for y in 0..kb {
            let nxy = joint[x][y] as f64;
            if nxy == 0.0 {
                continue;
            }
            mi += nxy / n * ((nxy * n) / (ma[x] as f64 * mb[y] as f64)).ln();
        }
    }
    let entropy = |counts: &[usize]| -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (entropy(&ma), entropy(&mb));
    if ha == 0.0 && hb == 0.0 {
        return 1.0; // both trivial single-cluster partitions
    }
    let denom = 0.5 * (ha + hb);
    if denom == 0.0 {
        0.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

/// Adjusted Rand index between two labelings.
pub fn ari(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "ari: length mismatch");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ka = a.iter().copied().max().unwrap_or(0) + 1;
    let kb = b.iter().copied().max().unwrap_or(0) + 1;
    let mut joint = vec![vec![0usize; kb]; ka];
    let mut ma = vec![0usize; ka];
    let mut mb = vec![0usize; kb];
    for (&x, &y) in a.iter().zip(b) {
        joint[x][y] += 1;
        ma[x] += 1;
        mb[y] += 1;
    }
    let c2 = |x: usize| (x * x.saturating_sub(1)) as f64 / 2.0;
    let sum_joint: f64 = joint.iter().flatten().map(|&x| c2(x)).sum();
    let sum_a: f64 = ma.iter().map(|&x| c2(x)).sum();
    let sum_b: f64 = mb.iter().map(|&x| c2(x)).sum();
    let total = c2(n);
    let expected = sum_a * sum_b / total;
    let max = 0.5 * (sum_a + sum_b);
    if (max - expected).abs() < 1e-12 {
        return if (sum_joint - expected).abs() < 1e-12 {
            1.0
        } else {
            0.0
        };
    }
    (sum_joint - expected) / (max - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;
    use aneci_graph::AttributedGraph;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[0, 1, 2]), 1.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn macro_f1_balanced_case() {
        // Perfect prediction → F1 = 1.
        assert!((macro_f1(&[0, 1, 0, 1], &[0, 1, 0, 1]) - 1.0).abs() < 1e-12);
        // Everything class 0 against balanced truth: class0 P=0.5 R=1
        // F1=2/3; class1 F1=0 → macro 1/3.
        assert!((macro_f1(&[0, 0, 0, 0], &[0, 1, 0, 1]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_and_random() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((auc(&scores, &labels) - 1.0).abs() < 1e-12);
        let inverted = [false, false, true, true];
        assert!((auc(&scores, &inverted) - 0.0).abs() < 1e-12);
        // All-ties → 0.5.
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &labels) - 0.5).abs() < 1e-12);
        // Degenerate single-class input → defined as 0.5.
        assert_eq!(auc(&scores, &[true, true, true, true]), 0.5);
    }

    #[test]
    fn auc_with_partial_overlap() {
        // scores: pos {3, 1}, neg {2, 0}: pairs (3>2),(3>0),(1<2),(1>0) → 3/4.
        let scores = [3.0, 1.0, 2.0, 0.0];
        let labels = [true, true, false, false];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn modularity_matches_bruteforce_on_karate() {
        let g = karate_club();
        let partition = g.labels.clone().unwrap();
        let fast = modularity(g.adjacency(), &partition);
        let slow = modularity_bruteforce(&g, &partition);
        assert!((fast - slow).abs() < 1e-12);
        // The known faction modularity of karate is ≈ 0.3582.
        assert!((fast - 0.3582).abs() < 0.01, "Q = {fast}");
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = karate_club();
        let partition = vec![0; g.num_nodes()];
        assert!(modularity(g.adjacency(), &partition).abs() < 1e-12);
    }

    #[test]
    fn modularity_prefers_true_communities() {
        let g = karate_club();
        let truth = g.labels.clone().unwrap();
        let mut rng = aneci_linalg::rng::seeded_rng(5);
        let mut random = truth.clone();
        aneci_linalg::rng::shuffle(&mut random, &mut rng);
        assert!(modularity(g.adjacency(), &truth) > modularity(g.adjacency(), &random) + 0.2);
    }

    #[test]
    fn modularity_two_cliques() {
        // Two disjoint triangles: perfect 2-community split.
        let g = AttributedGraph::from_edges_plain(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
            None,
        );
        let q = modularity(g.adjacency(), &[0, 0, 0, 1, 1, 1]);
        // Q = 2 * (3/6 - (6/12)²) = 2 * (0.5 - 0.25) = 0.5.
        assert!((q - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nmi_identical_and_relabelled() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
        let relabel = vec![2, 2, 0, 0, 1, 1];
        assert!((nmi(&a, &relabel) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_is_low() {
        let a: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let b: Vec<usize> = (0..200).map(|i| (i / 2) % 2).collect();
        assert!(nmi(&a, &b) < 0.05);
    }

    #[test]
    fn ari_identical_and_random() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((ari(&a, &a) - 1.0).abs() < 1e-12);
        let relabel = vec![1, 1, 2, 2, 0, 0];
        assert!((ari(&a, &relabel) - 1.0).abs() < 1e-12);
        let b: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let c: Vec<usize> = (0..200).map(|i| (i / 2) % 2).collect();
        assert!(ari(&b, &c).abs() < 0.05);
    }
}
