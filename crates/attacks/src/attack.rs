//! What every attack returns: the net [`GraphDelta`] it plans, with typed
//! metadata.
//!
//! Each attack is one function ([`random_attack`](crate::random_attack),
//! [`fga_attack`](crate::fga_attack),
//! [`nettack_attack`](crate::nettack_attack),
//! [`seed_outliers`](crate::seed_outliers)) that leaves its input graph
//! alone and returns an [`AttackOutcome`]. The sequential attacks record
//! every edge flip as they make it and fold those flips into their net
//! delta ([`net_flips`]); the caller decides what to do with it:
//! materialize a poisoned graph ([`AttackOutcome::apply`], which validates
//! CSR invariants), patch a CSR with
//! [`apply_to_csr`](aneci_graph::apply_to_csr), or feed an incremental
//! [`HighOrder::refresh`](aneci_graph::HighOrder::refresh).

use aneci_graph::{apply_to_csr, AttributedGraph, GraphDelta, GraphError};
use aneci_linalg::CsrMatrix;
use std::collections::BTreeSet;

use crate::fga::EdgeFlip;
use crate::outliers::OutlierType;

/// What an attack did, in the workspace's shared delta vocabulary.
///
/// `delta` holds the net perturbation (fake edges in `add_edges`, deleted
/// edges in `remove_edges`, swapped attribute rows in `set_attributes`);
/// the remaining fields are typed metadata the evaluation harnesses need.
#[derive(Clone, Debug, Default)]
pub struct AttackOutcome {
    /// The net perturbation, ready for `apply_delta` / `apply_to_csr`.
    pub delta: GraphDelta,
    /// Unit perturbations actually spent (edge flips for the edge attacks,
    /// corrupted nodes for outlier seeding) — at most the requested budget.
    pub budget_spent: usize,
    /// The nodes the attack aimed at (empty for non-targeted attacks).
    pub targets: Vec<usize>,
    /// Every edge flip in application order (targeted and random attacks).
    pub flips: Vec<EdgeFlip>,
    /// Corrupted nodes and the outlier type planted at each (seeding only).
    pub outliers: Vec<(usize, OutlierType)>,
}

impl AttackOutcome {
    /// The outcome of a targeted attack that made `flips` on `graph`, in
    /// order: its delta is their net edit ([`net_flips`]).
    pub(crate) fn of_flips(
        graph: &AttributedGraph,
        targets: &[usize],
        flips: Vec<EdgeFlip>,
    ) -> Self {
        Self {
            delta: net_flips(graph, &flips),
            budget_spent: flips.len(),
            targets: targets.to_vec(),
            flips,
            outliers: Vec::new(),
        }
    }

    /// The injected fake edges `E*`, as canonical `u < v` pairs (in
    /// insertion order for the random attack, sorted otherwise).
    pub fn fake_edges(&self) -> &[(usize, usize)] {
        &self.delta.add_edges
    }

    /// The clean edges the attack deleted.
    pub fn removed_edges(&self) -> &[(usize, usize)] {
        &self.delta.remove_edges
    }

    /// Per-node outlier mask (`true` where a node was corrupted).
    pub fn outlier_mask(&self, num_nodes: usize) -> Vec<bool> {
        let mut mask = vec![false; num_nodes];
        for &(node, _) in &self.outliers {
            mask[node] = true;
        }
        mask
    }

    /// Per-node planted outlier type (`None` at clean nodes).
    pub fn outlier_types(&self, num_nodes: usize) -> Vec<Option<OutlierType>> {
        let mut types = vec![None; num_nodes];
        for &(node, ty) in &self.outliers {
            types[node] = Some(ty);
        }
        types
    }

    /// Materializes the poisoned graph: applies the delta and then runs the
    /// full CSR/feature invariant check (`AttributedGraph::validate`), so a
    /// malformed perturbation fails with a typed [`GraphError`] instead of
    /// corrupting downstream kernels.
    pub fn apply(&self, graph: &AttributedGraph) -> Result<AttributedGraph, GraphError> {
        let mut attacked = graph.clone();
        attacked.apply_delta(&self.delta)?;
        attacked
            .validate()
            .map_err(|msg| GraphError::Delta(format!("post-attack invariant violated: {msg}")))?;
        Ok(attacked)
    }
}

/// `adjacency` with `flips` made, each on an edge whose current state it
/// toggles (no edge flipped twice in one call).
pub(crate) fn apply_flips(adjacency: &CsrMatrix, flips: &[EdgeFlip]) -> CsrMatrix {
    let mut step = GraphDelta::new();
    for f in flips {
        let edges = if f.added {
            &mut step.add_edges
        } else {
            &mut step.remove_edges
        };
        edges.push((f.target, f.other));
    }
    apply_to_csr(adjacency, &step)
        .expect("an attack flips edges between distinct nodes of the graph")
        .0
}

/// The net edit of `flips`, made in order on `graph`: every edge flipped an
/// odd number of times, as a sorted `(min, max)` pair, in `remove_edges`
/// when `graph` had it and in `add_edges` otherwise.
pub(crate) fn net_flips(graph: &AttributedGraph, flips: &[EdgeFlip]) -> GraphDelta {
    let mut odd = BTreeSet::new();
    for f in flips {
        let key = (f.target.min(f.other), f.target.max(f.other));
        if !odd.remove(&key) {
            odd.insert(key);
        }
    }
    let (remove_edges, add_edges) = odd.into_iter().partition(|&(u, v)| graph.has_edge(u, v));
    GraphDelta {
        add_edges,
        remove_edges,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;

    #[test]
    fn malformed_flip_fails_typed_not_corrupting() {
        let g = karate_club();
        // Out-of-range endpoint: apply must reject with a typed Delta error
        // and leave the input graph untouched.
        let outcome = AttackOutcome {
            delta: GraphDelta::new().add_edge(0, 999),
            budget_spent: 1,
            ..Default::default()
        };
        let err = outcome.apply(&g).unwrap_err();
        assert!(matches!(err, GraphError::Delta(_)), "got {err:?}");
        assert_eq!(g.num_edges(), 78, "input graph must be untouched");

        // Self-loop flip: same typed failure.
        let loops = AttackOutcome {
            delta: GraphDelta::new().add_edge(3, 3),
            budget_spent: 1,
            ..Default::default()
        };
        assert!(matches!(loops.apply(&g), Err(GraphError::Delta(_))));

        // Wrong-width attribute row: typed failure, no panic.
        let bad_attrs = AttackOutcome {
            delta: GraphDelta::new().set_attribute(0, vec![1.0]),
            budget_spent: 1,
            ..Default::default()
        };
        assert!(matches!(bad_attrs.apply(&g), Err(GraphError::Delta(_))));
    }

    #[test]
    fn net_flips_keep_edges_flipped_an_odd_number_of_times() {
        let g = karate_club();
        let flip = |target, other, added| EdgeFlip {
            target,
            other,
            added,
        };
        // (0, 9) added; (0, 1) removed; (9, 33) removed and re-added;
        // (5, 2) added, removed from the other end and added again.
        let flips = [
            flip(9, 0, true),
            flip(0, 1, false),
            flip(9, 33, false),
            flip(33, 9, true),
            flip(5, 2, true),
            flip(2, 5, false),
            flip(5, 2, true),
        ];
        let delta = net_flips(&g, &flips);
        assert_eq!(delta.add_edges, vec![(0, 9), (2, 5)]);
        assert_eq!(delta.remove_edges, vec![(0, 1)]);
        assert!(delta.set_attributes.is_empty());
        // Replaying the flips one at a time lands on the same graph.
        let mut replayed = g.clone();
        for f in &flips {
            let step = if f.added {
                GraphDelta::new().add_edge(f.target, f.other)
            } else {
                GraphDelta::new().remove_edge(f.target, f.other)
            };
            replayed.apply_delta(&step).unwrap();
        }
        let mut folded = g.clone();
        folded.apply_delta(&delta).unwrap();
        assert_eq!(folded.adjacency(), replayed.adjacency());
    }
}
