//! The attributed network type (Definition 1 of the paper).
//!
//! An [`AttributedGraph`] couples an undirected, unweighted topology with a
//! node-feature matrix and optional ground-truth labels and data splits.
//! Invariants maintained by every constructor and mutator:
//!
//! * the adjacency matrix is **symmetric**, **binary** and **hollow** (no
//!   stored self-loops — self-connections are added where the paper needs
//!   them, i.e. inside the GCN normalization);
//! * `features.rows() == n`, `labels.len() == n` when present.

use crate::delta::{apply_to_csr, apply_to_features, DeltaReport, GraphDelta, GraphError};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Train/validation/test node-index split.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Split {
    /// Labelled training nodes.
    pub train: Vec<usize>,
    /// Validation nodes.
    pub val: Vec<usize>,
    /// Test nodes.
    pub test: Vec<usize>,
}

impl Split {
    /// Total number of nodes across all three sets.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True when every set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that the three sets are pairwise disjoint and within `0..n`.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let mut seen = vec![false; n];
        for (name, set) in [
            ("train", &self.train),
            ("val", &self.val),
            ("test", &self.test),
        ] {
            for &i in set {
                if i >= n {
                    return Err(format!("{name} index {i} out of range 0..{n}"));
                }
                if seen[i] {
                    return Err(format!("node {i} appears in more than one split set"));
                }
                seen[i] = true;
            }
        }
        Ok(())
    }
}

/// An undirected attributed network `G = (V, E, X)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttributedGraph {
    adjacency: CsrMatrix,
    features: DenseMatrix,
    /// Ground-truth class / community labels, when known.
    pub labels: Option<Vec<usize>>,
    /// Train/val/test split, when defined.
    pub split: Split,
    /// Human-readable dataset name.
    pub name: String,
    /// Per-node missing-attribute flags; `None` ⇔ every node is fully
    /// attributed. Only delta application sets this (old serialized graphs
    /// deserialize with `None`).
    missing_mask: Option<Vec<bool>>,
}

impl AttributedGraph {
    /// Builds a graph from an undirected edge list. Self-loops and duplicate
    /// edges in the input are ignored. `features` may be the identity for
    /// plain networks (as the paper does for Polblogs).
    pub fn from_edges(
        n: usize,
        edges: &[(usize, usize)],
        features: DenseMatrix,
        labels: Option<Vec<usize>>,
    ) -> Self {
        assert_eq!(features.rows(), n, "features must have one row per node");
        if let Some(l) = &labels {
            assert_eq!(l.len(), n, "labels must have one entry per node");
        }
        let mut trips = Vec::with_capacity(edges.len() * 2);
        let mut seen = BTreeSet::new();
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range 0..{n}");
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if seen.insert(key) {
                trips.push((key.0, key.1, 1.0));
                trips.push((key.1, key.0, 1.0));
            }
        }
        let adjacency = CsrMatrix::from_triplets(n, n, &trips);
        Self {
            adjacency,
            features,
            labels,
            split: Split::default(),
            name: String::new(),
            missing_mask: None,
        }
    }

    /// Builds a graph with identity features (for plain networks).
    pub fn from_edges_plain(
        n: usize,
        edges: &[(usize, usize)],
        labels: Option<Vec<usize>>,
    ) -> Self {
        Self::from_edges(n, edges, DenseMatrix::identity(n), labels)
    }

    /// Number of nodes `N`.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of undirected edges `M`.
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz() / 2
    }

    /// Attribute dimensionality `d`.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of distinct labels (0 when unlabelled).
    pub fn num_classes(&self) -> usize {
        self.labels
            .as_ref()
            .map_or(0, |l| l.iter().copied().max().map_or(0, |m| m + 1))
    }

    /// The (symmetric, binary, hollow) adjacency matrix.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// The node-feature matrix `X`.
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Replaces the feature matrix (e.g. to swap in identity features for the
    /// community-detection protocol of Sec. VI-D).
    pub fn set_features(&mut self, features: DenseMatrix) {
        assert_eq!(
            features.rows(),
            self.num_nodes(),
            "feature row count mismatch"
        );
        self.features = features;
    }

    /// Degree of node `u` (number of neighbours).
    pub fn degree(&self, u: usize) -> usize {
        self.adjacency.row_nnz(u)
    }

    /// All degrees.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_nodes()).map(|u| self.degree(u)).collect()
    }

    /// Neighbours of `u`.
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        self.adjacency.row_entries(u).map(|(c, _)| c).collect()
    }

    /// True if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency.get(u, v) != 0.0
    }

    /// The undirected edge list with `u < v`.
    pub fn edge_list(&self) -> Vec<(usize, usize)> {
        self.adjacency
            .iter()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
            .collect()
    }

    /// GCN propagation operator `D^-1/2 (A + I) D^-1/2` (Eq. 2 uses the
    /// self-connection convention of Definition 2).
    pub fn norm_adjacency(&self) -> CsrMatrix {
        self.adjacency.add_identity().sym_normalize()
    }

    /// Per-node missing-attribute flags, set by delta application; `None`
    /// when every node is fully attributed.
    pub fn missing_mask(&self) -> Option<&[bool]> {
        self.missing_mask.as_deref()
    }

    /// True when node `u`'s attributes are flagged missing.
    pub fn is_attribute_missing(&self, u: usize) -> bool {
        self.missing_mask.as_ref().is_some_and(|m| m[u])
    }

    /// Applies a [`GraphDelta`] in place: CSR patch-and-compact for the
    /// topology ops, feature append/set/clear with the missing-attribute
    /// mask, stable node ids throughout (removed nodes are isolated, not
    /// renumbered — see the [`delta`](crate::delta) module docs). Appending
    /// nodes to a labelled graph is a typed error: there is no honest label
    /// to invent, so callers must drop `labels` first. A delta that
    /// [touches no features](GraphDelta::touches_features) keeps the
    /// feature matrix as it is, uncopied.
    ///
    /// On error the graph is untouched. On success returns the
    /// [`DeltaReport`] that seeds
    /// [`HighOrder::refresh`](crate::proximity::HighOrder::refresh), and
    /// records the wall time in the `delta.apply_ns` histogram.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaReport, GraphError> {
        let start = std::time::Instant::now();
        if !delta.add_nodes.is_empty() && self.labels.is_some() {
            return Err(GraphError::Delta(
                "cannot append nodes to a labelled graph (no label to assign); \
                 clear `labels` first"
                    .into(),
            ));
        }
        let (adjacency, report) = apply_to_csr(&self.adjacency, delta)?;
        if delta.touches_features() {
            (self.features, self.missing_mask) =
                apply_to_features(&self.features, self.missing_mask.as_deref(), delta)?;
        }
        self.adjacency = adjacency;
        aneci_obs::histogram_time_ns("delta.apply_ns").observe(start.elapsed().as_nanos() as f64);
        Ok(report)
    }

    /// Sets the split after validating it.
    pub fn set_split(&mut self, split: Split) {
        split.validate(self.num_nodes()).expect("invalid split");
        self.split = split;
    }

    /// Checks all structural invariants; returns a description of the first
    /// violation. Used by tests and by the attack code after edits.
    pub fn validate(&self) -> Result<(), String> {
        let a = &self.adjacency;
        // Structural CSR invariants first: deserialized matrices bypass the
        // constructors, and iterating a malformed CSR would panic instead of
        // returning the Err the load paths promise.
        a.check_invariants()
            .map_err(|e| format!("adjacency CSR invalid: {e}"))?;
        self.features
            .check_invariants()
            .map_err(|e| format!("features invalid: {e}"))?;
        if a.rows() != a.cols() {
            return Err("adjacency not square".into());
        }
        if self.features.rows() != a.rows() {
            return Err("feature rows != node count".into());
        }
        for (u, v, val) in a.iter() {
            if u == v {
                return Err(format!("self-loop stored at node {u}"));
            }
            if val != 1.0 {
                return Err(format!("non-binary adjacency value {val} at ({u},{v})"));
            }
            if a.get(v, u) != 1.0 {
                return Err(format!("asymmetric edge ({u},{v})"));
            }
        }
        if let Some(l) = &self.labels {
            if l.len() != a.rows() {
                return Err("label count != node count".into());
            }
        }
        if let Some(m) = &self.missing_mask {
            if m.len() != a.rows() {
                return Err("missing-attribute mask length != node count".into());
            }
        }
        self.split.validate(a.rows())
    }

    /// Average degree `2M / N`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Fraction of edges joining same-label endpoints (edge homophily).
    /// Returns `None` when the graph is unlabelled or empty.
    pub fn edge_homophily(&self) -> Option<f64> {
        let labels = self.labels.as_ref()?;
        let edges = self.edge_list();
        if edges.is_empty() {
            return None;
        }
        let same = edges
            .iter()
            .filter(|&&(u, v)| labels[u] == labels[v])
            .count();
        Some(same as f64 / edges.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> AttributedGraph {
        // 0-1-2 triangle, 2-3 tail.
        AttributedGraph::from_edges_plain(
            4,
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
            Some(vec![0, 0, 0, 1]),
        )
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        g.validate().unwrap();
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = AttributedGraph::from_edges_plain(3, &[(0, 1), (1, 0), (0, 1), (2, 2)], None);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(2, 2));
        g.validate().unwrap();
    }

    #[test]
    fn edge_list_is_canonical() {
        let g = triangle_plus_tail();
        assert_eq!(g.edge_list(), vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn norm_adjacency_rows_consistent() {
        let g = triangle_plus_tail();
        let s = g.norm_adjacency();
        assert!(s.is_symmetric());
        // Diagonal entry for node 3 (degree 1 → degree+1 = 2): 1/2.
        assert!((s.get(3, 3) - 0.5).abs() < 1e-12);
        // Off-diagonal entry (0,1): both have degree 2, so degree+1 = 3 and
        // the normalized weight is 1/3.
        assert!((s.get(0, 1) - 1.0 / 3.0).abs() < 1e-12);
        // All stored entries are positive and bounded by 1.
        for (_, _, v) in s.iter() {
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn homophily_of_labelled_graph() {
        let g = triangle_plus_tail();
        // 3 of 4 edges connect label 0 to label 0.
        assert!((g.edge_homophily().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn split_validation_rejects_overlap() {
        let mut s = Split {
            train: vec![0, 1],
            val: vec![1],
            ..Default::default()
        };
        assert!(s.validate(4).is_err());
        s.val = vec![2];
        assert!(s.validate(4).is_ok());
        s.test = vec![9];
        assert!(s.validate(4).is_err());
    }

    #[test]
    fn set_split_accepts_valid() {
        let mut g = triangle_plus_tail();
        g.set_split(Split {
            train: vec![0],
            val: vec![1],
            test: vec![2, 3],
        });
        assert_eq!(g.split.len(), 4);
    }

    #[test]
    fn with_edits_adds_and_removes() {
        let g = triangle_plus_tail();
        let mut g2 = g.clone();
        g2.apply_delta(
            &GraphDelta::new()
                .add_edge(0, 3)
                .add_edge(3, 0)
                .remove_edge(2, 1),
        )
        .unwrap();
        assert!(g2.has_edge(0, 3));
        assert!(!g2.has_edge(1, 2));
        assert_eq!(g2.num_edges(), 4);
        g2.validate().unwrap();
        // Original untouched.
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn apply_delta_matches_with_edits() {
        let mut g = triangle_plus_tail();
        let report = g
            .apply_delta(&GraphDelta::new().add_edge(0, 3).remove_edge(1, 2))
            .unwrap();
        let expect = AttributedGraph::from_edges_plain(4, &[(0, 1), (0, 2), (0, 3), (2, 3)], None);
        assert_eq!(g.adjacency(), expect.adjacency());
        assert_eq!(report.edges_added, 1);
        assert_eq!(report.edges_removed, 1);
        g.validate().unwrap();
    }

    #[test]
    fn apply_delta_keeps_the_features_of_an_edge_only_delta() {
        let mut g = triangle_plus_tail();
        let data = g.features().as_slice().as_ptr();
        g.apply_delta(&GraphDelta::new().add_edge(0, 3).remove_edge(1, 2))
            .unwrap();
        assert_eq!(g.features().as_slice().as_ptr(), data, "features copied");
        // A delta that sets a row writes a new matrix.
        g.apply_delta(&GraphDelta::new().set_attribute(1, vec![0.5; 4]))
            .unwrap();
        assert_eq!(g.features().row(1), &[0.5; 4]);
        assert_eq!(g.features().row(0), &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn apply_delta_appends_and_isolates_nodes() {
        let mut g = triangle_plus_tail();
        g.labels = None;
        let delta = GraphDelta::new()
            .add_node(vec![1.0, 0.0, 0.0, 0.0])
            .add_node_missing()
            .add_edge(4, 0)
            .remove_node(2);
        let report = g.apply_delta(&delta).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(report.nodes_after, 6);
        assert!(g.has_edge(4, 0));
        assert_eq!(g.degree(2), 0);
        assert!(g.is_attribute_missing(5));
        assert!(g.is_attribute_missing(2), "removed node attributes cleared");
        assert!(!g.is_attribute_missing(4));
        g.validate().unwrap();
    }

    #[test]
    fn apply_delta_rejects_appending_to_labelled_graph() {
        let mut g = triangle_plus_tail();
        let before = g.clone();
        let err = g.apply_delta(&GraphDelta::new().add_node_missing());
        assert!(matches!(err, Err(GraphError::Delta(_))));
        // Error leaves the graph untouched.
        assert_eq!(g.adjacency(), before.adjacency());
        assert_eq!(g.features(), before.features());
    }

    #[test]
    #[should_panic(expected = "invalid split")]
    fn set_split_panics_on_invalid() {
        let mut g = triangle_plus_tail();
        g.set_split(Split {
            train: vec![0, 0],
            ..Default::default()
        });
    }
}
