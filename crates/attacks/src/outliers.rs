//! Community-outlier seeding (Sec. V-C, following ONE [14]).
//!
//! Three outlier types are planted by corrupting existing nodes:
//!
//! * **Structural** — the node keeps its attributes but its edges are
//!   rewired (same degree) to uniformly random nodes of *other*
//!   communities;
//! * **Attribute** — the node keeps its edges but its attribute vector is
//!   swapped with that of a random node from a *different* community;
//! * **Combined** — both corruptions at once.
//!
//! Each corrupted node therefore still looks marginally normal (its degree
//! is typical, its attribute vector is a real vector from the data) — only
//! the *community consistency* between structure and attributes is broken,
//! exactly the non-trivial seeding the paper requires ("these outlier nodes
//! have similar characteristics to the normal nodes").

use aneci_graph::AttributedGraph;
use aneci_linalg::rng::{derive_seed, sample_distinct, seeded_rng, shuffle};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

use crate::attack::{apply_flips, net_flips, AttackOutcome};
use crate::fga::EdgeFlip;

/// The three outlier classes of ONE / the paper's Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutlierType {
    /// Structure rewired, attributes kept ("S").
    Structural,
    /// Attributes swapped, structure kept ("A").
    Attribute,
    /// Both ("S&A").
    Combined,
}

/// Nodes of a community other than `node`'s.
fn foreign(node: usize, labels: &[usize]) -> Vec<usize> {
    (0..labels.len())
        .filter(|&v| v != node && labels[v] != labels[node])
        .collect()
}

/// Rewires `node`'s edges in the working `adjacency` to as many distinct
/// foreign nodes, recording each edge it flips: an old neighbour drawn
/// again keeps its edge.
fn rewire_structural(
    adjacency: &mut CsrMatrix,
    node: usize,
    labels: &[usize],
    rng: &mut StdRng,
    flips: &mut Vec<EdgeFlip>,
) {
    let old: BTreeSet<usize> = adjacency.row_entries(node).map(|(v, _)| v).collect();
    // New endpoints: uniform over other-community nodes, no duplicates.
    let foreign = foreign(node, labels);
    let mut new = BTreeSet::new();
    let mut attempts = 0;
    while new.len() < old.len() && attempts < old.len() * 50 + 100 {
        attempts += 1;
        new.insert(foreign[rng.gen_range(0..foreign.len())]);
    }
    let flip = |other, added| EdgeFlip {
        target: node,
        other,
        added,
    };
    let start = flips.len();
    flips.extend(old.difference(&new).map(|&v| flip(v, false)));
    flips.extend(new.difference(&old).map(|&v| flip(v, true)));
    *adjacency = apply_flips(adjacency, &flips[start..]);
}

/// Gives `node` the current attribute row of a random foreign donor: the
/// donor's own row, or the one an earlier swap gave it.
fn swap_attributes(
    features: &DenseMatrix,
    swapped: &mut BTreeMap<usize, Vec<f64>>,
    node: usize,
    labels: &[usize],
    rng: &mut StdRng,
) {
    let foreign = foreign(node, labels);
    let donor = foreign[rng.gen_range(0..foreign.len())];
    let row = match swapped.get(&donor) {
        Some(row) => row.clone(),
        None => features.row(donor).to_vec(),
    };
    swapped.insert(node, row);
}

/// Corrupts `fraction` of the nodes, cycling through `types` (pass a single
/// type for the "S" / "A" / "S&A" panels, all three for "Mix").
/// Deterministic in `seed`. Corruptions apply in order, each to the graph
/// the earlier ones left; the outcome's delta is their net edit: the
/// rewired edges, and `set_attributes` in node order for every row that
/// ends up different from the clean graph's.
pub fn seed_outliers(
    graph: &AttributedGraph,
    fraction: f64,
    types: &[OutlierType],
    seed: u64,
) -> AttackOutcome {
    assert!(
        (0.0..=0.5).contains(&fraction),
        "outlier fraction must be in [0, 0.5]"
    );
    assert!(!types.is_empty(), "need at least one outlier type");
    let labels = graph
        .labels
        .as_ref()
        .expect("outlier seeding needs community labels");
    let n = graph.num_nodes();
    let count = ((n as f64) * fraction).round() as usize;
    let mut rng = seeded_rng(derive_seed(seed, 0x0071));

    let mut chosen = sample_distinct(n, count, &mut rng);
    shuffle(&mut chosen, &mut rng);

    let features = graph.features();
    let mut adjacency = graph.adjacency().clone();
    let mut flips = Vec::new();
    let mut swapped = BTreeMap::new();
    let mut outliers = Vec::with_capacity(chosen.len());
    for (i, &node) in chosen.iter().enumerate() {
        let ty = types[i % types.len()];
        if ty != OutlierType::Attribute {
            rewire_structural(&mut adjacency, node, labels, &mut rng, &mut flips);
        }
        if ty != OutlierType::Structural {
            swap_attributes(features, &mut swapped, node, labels, &mut rng);
        }
        outliers.push((node, ty));
    }
    let mut delta = net_flips(graph, &flips);
    delta.set_attributes = swapped
        .into_iter()
        .filter(|(node, row)| row.as_slice() != features.row(*node))
        .collect();
    AttackOutcome {
        delta,
        budget_spent: outliers.len(),
        targets: Vec::new(),
        flips: Vec::new(),
        outliers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, SbmConfig};

    fn base_graph(seed: u64) -> AttributedGraph {
        let mut cfg = SbmConfig::small();
        cfg.num_nodes = 200;
        cfg.num_classes = 4;
        cfg.target_edges = 800;
        generate_sbm(&cfg, seed)
    }

    #[test]
    fn seeds_requested_fraction() {
        let g = base_graph(1);
        let s = seed_outliers(&g, 0.05, &[OutlierType::Structural], 1);
        assert_eq!(s.outliers.len(), 10);
        assert_eq!(s.budget_spent, 10);
        assert_eq!(
            s.outlier_mask(g.num_nodes()).iter().filter(|&&b| b).count(),
            10
        );
        s.apply(&g).unwrap().validate().unwrap();
    }

    #[test]
    fn structural_outliers_connect_to_foreign_communities() {
        let g = base_graph(2);
        let labels = g.labels.clone().unwrap();
        let s = seed_outliers(&g, 0.05, &[OutlierType::Structural], 2);
        let seeded = s.apply(&g).unwrap();
        let types = s.outlier_types(g.num_nodes());
        for node in 0..g.num_nodes() {
            if types[node] == Some(OutlierType::Structural) {
                // Rewired neighbors may themselves have been rewired toward
                // this node later; all-foreign is expected for most.
                let foreign = seeded
                    .neighbors(node)
                    .iter()
                    .filter(|&&v| labels[v] != labels[node])
                    .count();
                let total = seeded.degree(node).max(1);
                assert!(
                    foreign as f64 / total as f64 > 0.8,
                    "node {node}: only {foreign}/{total} foreign edges"
                );
            }
        }
    }

    #[test]
    fn structural_outliers_keep_attributes() {
        let g = base_graph(3);
        let s = seed_outliers(&g, 0.05, &[OutlierType::Structural], 3);
        let seeded = s.apply(&g).unwrap();
        for &(node, _) in &s.outliers {
            assert_eq!(seeded.features().row(node), g.features().row(node));
        }
        assert!(s.delta.set_attributes.is_empty());
    }

    #[test]
    fn attribute_outliers_keep_structure_but_change_features() {
        let g = base_graph(4);
        let s = seed_outliers(&g, 0.05, &[OutlierType::Attribute], 4);
        let seeded = s.apply(&g).unwrap();
        assert!(
            !s.delta.touches_topology(),
            "attribute seeding edited edges"
        );
        let mut changed = 0;
        for &(node, _) in &s.outliers {
            assert_eq!(
                seeded.neighbors(node),
                g.neighbors(node),
                "structure changed"
            );
            if seeded.features().row(node) != g.features().row(node) {
                changed += 1;
            }
        }
        // Donor rows are from other communities, so nearly all should differ.
        assert!(changed >= 8, "only {changed}/10 attribute rows changed");
    }

    #[test]
    fn combined_outliers_change_both() {
        let g = base_graph(5);
        let s = seed_outliers(&g, 0.04, &[OutlierType::Combined], 5);
        let seeded = s.apply(&g).unwrap();
        let labels = g.labels.as_ref().unwrap();
        for &(node, _) in &s.outliers {
            // Edges rewired to foreign communities.
            let foreign = seeded
                .neighbors(node)
                .iter()
                .filter(|&&v| labels[v] != labels[node])
                .count();
            assert!(foreign > 0 || seeded.degree(node) == 0);
        }
    }

    #[test]
    fn mix_cycles_through_all_types() {
        let g = base_graph(6);
        let s = seed_outliers(
            &g,
            0.06,
            &[
                OutlierType::Structural,
                OutlierType::Attribute,
                OutlierType::Combined,
            ],
            6,
        );
        let counts = [
            OutlierType::Structural,
            OutlierType::Attribute,
            OutlierType::Combined,
        ]
        .map(|t| s.outliers.iter().filter(|&&(_, ty)| ty == t).count());
        assert_eq!(counts, [4, 4, 4]);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = base_graph(7);
        let a = seed_outliers(&g, 0.05, &[OutlierType::Combined], 9);
        let b = seed_outliers(&g, 0.05, &[OutlierType::Combined], 9);
        assert_eq!(a.outliers, b.outliers);
        assert_eq!(a.delta, b.delta);
    }
}
