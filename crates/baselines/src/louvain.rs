//! Louvain community detection (Blondel et al. 2008).
//!
//! Greedy modularity maximization with the classic two-phase scheme: local
//! moving until no gain, then community aggregation, repeated until the
//! partition stabilizes. Serves as the strong classical baseline in the
//! community-detection experiment (Fig. 7) — our stand-in for the vGraph /
//! ComE comparisons (see DESIGN.md substitutions).

use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{seeded_rng, shuffle};
use std::collections::HashMap;

/// Weighted undirected multigraph used internally during aggregation.
struct WeightedGraph {
    /// adjacency[u] = (neighbor, weight); self-loops carry intra-weight.
    adjacency: Vec<Vec<(usize, f64)>>,
    total_weight: f64, // = 2m (sum of all degrees incl. self-loop double count)
}

impl WeightedGraph {
    fn from_attributed(g: &AttributedGraph) -> Self {
        let n = g.num_nodes();
        let mut adjacency = vec![Vec::new(); n];
        for (u, v) in g.edge_list() {
            adjacency[u].push((v, 1.0));
            adjacency[v].push((u, 1.0));
        }
        let total_weight = 2.0 * g.num_edges() as f64;
        Self {
            adjacency,
            total_weight,
        }
    }

    fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Weighted degree including 2× self-loop weight.
    fn degree(&self, u: usize) -> f64 {
        self.adjacency[u]
            .iter()
            .map(|&(v, w)| if v == u { 2.0 * w } else { w })
            .sum()
    }
}

/// One local-moving pass; mutates `community` and returns whether any node
/// moved.
fn local_moving(g: &WeightedGraph, community: &mut [usize], seed: u64) -> bool {
    let n = g.num_nodes();
    let m2 = g.total_weight;
    if m2 == 0.0 {
        return false;
    }
    // Community aggregates.
    let mut comm_degree = vec![0.0; n];
    for u in 0..n {
        comm_degree[community[u]] += g.degree(u);
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = seeded_rng(seed);
    shuffle(&mut order, &mut rng);

    let mut moved_any = false;
    let mut improved = true;
    while improved {
        improved = false;
        for &u in &order {
            let ku = g.degree(u);
            let current = community[u];
            // Links from u to each neighboring community.
            let mut links: HashMap<usize, f64> = HashMap::new();
            for &(v, w) in &g.adjacency[u] {
                if v != u {
                    *links.entry(community[v]).or_insert(0.0) += w;
                }
            }
            // Remove u from its community.
            comm_degree[current] -= ku;
            let base_links = links.get(&current).copied().unwrap_or(0.0);
            let base_gain = base_links - comm_degree[current] * ku / m2;
            // Best alternative.
            let mut best_comm = current;
            let mut best_gain = base_gain;
            for (&c, &l) in &links {
                if c == current {
                    continue;
                }
                let gain = l - comm_degree[c] * ku / m2;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_comm = c;
                }
            }
            comm_degree[best_comm] += ku;
            if best_comm != current {
                community[u] = best_comm;
                improved = true;
                moved_any = true;
            }
        }
    }
    moved_any
}

/// Renumbers community labels to a dense 0..k range.
fn compact_labels(labels: &mut [usize]) -> usize {
    let mut map = HashMap::new();
    let mut next = 0usize;
    for l in labels.iter_mut() {
        let entry = map.entry(*l).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        *l = *entry;
    }
    next
}

/// Aggregates communities into a smaller weighted graph.
fn aggregate(g: &WeightedGraph, community: &[usize], k: usize) -> WeightedGraph {
    let mut weights: HashMap<(usize, usize), f64> = HashMap::new();
    for u in 0..g.num_nodes() {
        for &(v, w) in &g.adjacency[u] {
            if v < u {
                continue; // each undirected edge once (self-loops: v == u kept)
            }
            let (cu, cv) = (community[u], community[v]);
            let key = (cu.min(cv), cu.max(cv));
            *weights.entry(key).or_insert(0.0) += w;
        }
    }
    let mut adjacency = vec![Vec::new(); k];
    for (&(a, b), &w) in &weights {
        if a == b {
            adjacency[a].push((a, w));
        } else {
            adjacency[a].push((b, w));
            adjacency[b].push((a, w));
        }
    }
    WeightedGraph {
        adjacency,
        total_weight: g.total_weight,
    }
}

/// Runs Louvain; returns the node → community assignment (labels compacted
/// to `0..k`). Deterministic in `seed`.
pub fn louvain(graph: &AttributedGraph, seed: u64) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut node_to_comm: Vec<usize> = (0..n).collect();
    let mut g = WeightedGraph::from_attributed(graph);
    let mut level = 0u64;
    loop {
        let mut community: Vec<usize> = (0..g.num_nodes()).collect();
        let moved = local_moving(&g, &mut community, seed.wrapping_add(level));
        let k = compact_labels(&mut community);
        // Map original nodes through this level's assignment.
        for c in node_to_comm.iter_mut() {
            *c = community[*c];
        }
        if !moved || k == g.num_nodes() {
            break;
        }
        g = aggregate(&g, &community, k);
        level += 1;
    }
    compact_labels(&mut node_to_comm);
    node_to_comm
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_core::classic_modularity;
    use aneci_graph::{generate_sbm, karate_club, AttributedGraph, SbmConfig};

    #[test]
    fn two_cliques_found_exactly() {
        let g = AttributedGraph::from_edges_plain(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)],
            None,
        );
        let labels = louvain(&g, 1);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn karate_reaches_high_modularity() {
        let g = karate_club();
        let labels = louvain(&g, 2);
        let q = classic_modularity(g.adjacency(), &labels);
        // The known Louvain optimum on karate is ≈ 0.41–0.42.
        assert!(q > 0.38, "Q = {q}");
        let k = labels.iter().copied().max().unwrap() + 1;
        assert!((2..=6).contains(&k), "found {k} communities");
    }

    #[test]
    fn beats_ground_truth_modularity_on_karate() {
        // Louvain optimizes Q directly, so it should match or exceed the
        // 2-faction ground truth's Q ≈ 0.358.
        let g = karate_club();
        let labels = louvain(&g, 3);
        assert!(classic_modularity(g.adjacency(), &labels) >= 0.358 - 1e-9);
    }

    #[test]
    fn recovers_planted_sbm_communities() {
        let mut cfg = SbmConfig::small();
        cfg.num_nodes = 300;
        cfg.num_classes = 4;
        cfg.target_edges = 1800;
        cfg.homophily = 0.85;
        let g = generate_sbm(&cfg, 7);
        let pred = louvain(&g, 4);
        let truth = g.labels.as_ref().unwrap();
        // Count pair-agreement (Rand index style, cheap local check).
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in (0..300).step_by(3) {
            for j in (i + 1..300).step_by(7) {
                total += 1;
                if (pred[i] == pred[j]) == (truth[i] == truth[j]) {
                    agree += 1;
                }
            }
        }
        let rand = agree as f64 / total as f64;
        assert!(rand > 0.8, "Rand agreement {rand}");
    }

    #[test]
    fn empty_graph_degrades_gracefully() {
        let g = AttributedGraph::from_edges_plain(5, &[], None);
        let labels = louvain(&g, 5);
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        assert_eq!(louvain(&g, 11), louvain(&g, 11));
    }
}
