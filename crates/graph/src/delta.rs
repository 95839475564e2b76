//! Delta mutations for dynamic graphs.
//!
//! A [`GraphDelta`] is one batch of mutations — edge insert/delete, node
//! append/isolate, attribute set/clear — applied to an
//! [`AttributedGraph`](crate::attributed::AttributedGraph) in a single CSR
//! patch-and-compact pass ([`apply_to_csr`]). Node ids are **stable**: a
//! removed node is isolated (all incident edges dropped, attributes
//! cleared) rather than renumbered, so downstream consumers — embedding
//! rows, HNSW entries, serving query ids — never shift. Appended nodes take
//! the next ids.
//!
//! Missing attributes are first-class (motivated by the incomplete
//! attributed-network setting in PAPERS.md): a node can be appended without
//! features or have its features cleared later, and the graph tracks an
//! explicit missing-attribute mask instead of conflating "missing" with
//! "all-zero by coincidence".
//!
//! The [`DeltaReport`] returned by application records exactly the
//! information incremental downstream refreshes need: which adjacency rows
//! changed ([`DeltaReport::touched`]) and which undirected edges were
//! physically removed ([`DeltaReport::removed_edges`]) — together they let
//! [`HighOrder::refresh`](crate::proximity::HighOrder::refresh) bound the
//! set of proximity rows whose l-hop neighbourhood changed.

use aneci_linalg::{CsrMatrix, DenseMatrix};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Typed error for graph configuration and delta application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A configuration value is out of its valid range.
    Config(String),
    /// A delta references nodes/edges inconsistently with the graph.
    Delta(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Config(msg) => write!(f, "graph config error: {msg}"),
            GraphError::Delta(msg) => write!(f, "graph delta error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One batch of graph mutations. Build fluently, then apply with
/// [`AttributedGraph::apply_delta`](crate::attributed::AttributedGraph::apply_delta).
///
/// Semantics (applied as one set operation, not sequentially):
/// `E' = (E ∪ add_edges) ∖ remove_edges ∖ incident(remove_nodes)` —
/// removal wins over insertion, redundant operations (adding an existing
/// edge, removing an absent one) are no-ops. Appended nodes get ids
/// `n, n+1, …` in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphDelta {
    /// Undirected edges to insert (either endpoint order).
    pub add_edges: Vec<(usize, usize)>,
    /// Undirected edges to delete.
    pub remove_edges: Vec<(usize, usize)>,
    /// Feature rows of appended nodes; `None` = attributes missing (the row
    /// is zero-filled and flagged in the missing-attribute mask).
    pub add_nodes: Vec<Option<Vec<f64>>>,
    /// Nodes to isolate: every incident edge is dropped, attributes are
    /// cleared, the id keeps pointing at an (empty) row.
    pub remove_nodes: Vec<usize>,
    /// Per-node attribute overwrites (also clears the node's missing flag).
    pub set_attributes: Vec<(usize, Vec<f64>)>,
    /// Nodes whose attributes become missing (zeroed + flagged).
    pub clear_attributes: Vec<usize>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an undirected edge insertion.
    pub fn add_edge(mut self, u: usize, v: usize) -> Self {
        self.add_edges.push((u, v));
        self
    }

    /// Queues an undirected edge deletion.
    pub fn remove_edge(mut self, u: usize, v: usize) -> Self {
        self.remove_edges.push((u, v));
        self
    }

    /// Appends a node with the given feature row.
    pub fn add_node(mut self, features: Vec<f64>) -> Self {
        self.add_nodes.push(Some(features));
        self
    }

    /// Appends a node whose attributes are not (yet) known.
    pub fn add_node_missing(mut self) -> Self {
        self.add_nodes.push(None);
        self
    }

    /// Isolates a node (stable-id delete).
    pub fn remove_node(mut self, u: usize) -> Self {
        self.remove_nodes.push(u);
        self
    }

    /// Overwrites a node's attributes.
    pub fn set_attribute(mut self, u: usize, features: Vec<f64>) -> Self {
        self.set_attributes.push((u, features));
        self
    }

    /// Marks a node's attributes as missing.
    pub fn clear_attribute(mut self, u: usize) -> Self {
        self.clear_attributes.push(u);
        self
    }

    /// True when the delta mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.add_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.add_nodes.is_empty()
            && self.remove_nodes.is_empty()
            && self.set_attributes.is_empty()
            && self.clear_attributes.is_empty()
    }

    /// True when the delta changes topology (as opposed to attributes only).
    pub fn touches_topology(&self) -> bool {
        !self.add_edges.is_empty()
            || !self.remove_edges.is_empty()
            || !self.add_nodes.is_empty()
            || !self.remove_nodes.is_empty()
    }

    /// True when the delta changes the feature matrix or its
    /// missing-attribute mask: node appends, removals, sets or clears. An
    /// edge-only delta leaves the features as they are, so callers can keep
    /// sharing them instead of running [`apply_to_features`].
    pub fn touches_features(&self) -> bool {
        !self.add_nodes.is_empty()
            || !self.remove_nodes.is_empty()
            || !self.set_attributes.is_empty()
            || !self.clear_attributes.is_empty()
    }
}

/// What [`apply_to_csr`] actually did — the seed data for incremental
/// downstream refreshes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeltaReport {
    /// Node count before the delta.
    pub nodes_before: usize,
    /// Node count after (appended nodes only grow it; removals isolate).
    pub nodes_after: usize,
    /// Undirected edges actually inserted (not already present).
    pub edges_added: usize,
    /// Undirected edges actually deleted (present before).
    pub edges_removed: usize,
    /// Sorted rows whose adjacency row changed, including every appended
    /// node id (their rows are new by definition).
    pub touched: Vec<usize>,
    /// Every undirected edge physically removed — explicit removals that
    /// existed plus the incident edges of removed nodes. BFS over the new
    /// adjacency **plus these edges** reaches everything the old adjacency
    /// could reach, which is what bounds the dirty set of
    /// [`HighOrder::refresh`](crate::proximity::HighOrder::refresh).
    pub removed_edges: Vec<(usize, usize)>,
}

/// Applies a delta's topology operations to a symmetric hollow CSR
/// adjacency in one patch-and-compact pass: untouched rows are copied
/// verbatim (single `memcpy` each), touched rows merge their surviving old
/// entries with sorted insertions, appended rows are built fresh. Runs in
/// `O(nnz + Δ log Δ)` and returns the new matrix with a [`DeltaReport`].
pub fn apply_to_csr(
    adjacency: &CsrMatrix,
    delta: &GraphDelta,
) -> Result<(CsrMatrix, DeltaReport), GraphError> {
    let n_before = adjacency.rows();
    let n_after = n_before + delta.add_nodes.len();

    let check = |u: usize, v: usize, what: &str| -> Result<(), GraphError> {
        if u >= n_after || v >= n_after {
            return Err(GraphError::Delta(format!(
                "{what} ({u},{v}) out of range 0..{n_after}"
            )));
        }
        if u == v {
            return Err(GraphError::Delta(format!(
                "{what} ({u},{v}) is a self-loop"
            )));
        }
        Ok(())
    };

    let mut removed_nodes = BTreeSet::new();
    for &u in &delta.remove_nodes {
        if u >= n_after {
            return Err(GraphError::Delta(format!(
                "removed node {u} out of range 0..{n_after}"
            )));
        }
        removed_nodes.insert(u);
    }

    // Canonical (min, max) sets of edges that actually change the graph.
    // `vetoed` additionally remembers every explicitly requested removal,
    // present or not, so "add + remove in one delta" nets to absent.
    let mut removed = BTreeSet::new();
    let mut vetoed = BTreeSet::new();
    for &(u, v) in &delta.remove_edges {
        check(u, v, "removed edge")?;
        let key = (u.min(v), u.max(v));
        vetoed.insert(key);
        if u < n_before && v < n_before && adjacency.get(u, v) != 0.0 {
            removed.insert(key);
        }
    }
    for &u in &removed_nodes {
        if u < n_before {
            for (v, _) in adjacency.row_entries(u) {
                removed.insert((u.min(v), u.max(v)));
            }
        }
    }
    let mut added = BTreeSet::new();
    for &(u, v) in &delta.add_edges {
        check(u, v, "added edge")?;
        if removed_nodes.contains(&u) || removed_nodes.contains(&v) {
            return Err(GraphError::Delta(format!(
                "added edge ({u},{v}) is incident to a removed node"
            )));
        }
        let key = (u.min(v), u.max(v));
        if vetoed.contains(&key) {
            continue; // removal wins
        }
        let exists = u < n_before && v < n_before && adjacency.get(u, v) != 0.0;
        if !exists {
            added.insert(key);
        }
    }

    // Per-row patches for the compact pass.
    let mut patch: BTreeMap<usize, (Vec<u32>, BTreeSet<u32>)> = BTreeMap::new();
    for &(u, v) in &added {
        patch.entry(u).or_default().0.push(v as u32);
        patch.entry(v).or_default().0.push(u as u32);
    }
    for &(u, v) in &removed {
        patch.entry(u).or_default().1.insert(v as u32);
        patch.entry(v).or_default().1.insert(u as u32);
    }

    let new_nnz = adjacency.nnz() + 2 * added.len() - 2 * removed.len();
    let mut indptr = Vec::with_capacity(n_after + 1);
    let mut indices: Vec<u32> = Vec::with_capacity(new_nnz);
    indptr.push(0usize);
    for r in 0..n_after {
        match patch.get(&r) {
            None => {
                if r < n_before {
                    indices.extend(adjacency.row_entries(r).map(|(c, _)| c as u32));
                }
            }
            Some((adds, dels)) => {
                let mut adds = adds.clone();
                adds.sort_unstable();
                let mut ai = 0usize;
                let old: Box<dyn Iterator<Item = u32>> = if r < n_before {
                    Box::new(adjacency.row_entries(r).map(|(c, _)| c as u32))
                } else {
                    Box::new(std::iter::empty())
                };
                for c in old {
                    if dels.contains(&c) {
                        continue;
                    }
                    while ai < adds.len() && adds[ai] < c {
                        indices.push(adds[ai]);
                        ai += 1;
                    }
                    indices.push(c);
                }
                indices.extend_from_slice(&adds[ai..]);
            }
        }
        indptr.push(indices.len());
    }
    debug_assert_eq!(indices.len(), new_nnz);
    let values = vec![1.0f64; indices.len()];
    let matrix = CsrMatrix::from_raw(n_after, n_after, indptr, indices, values);

    let mut touched: BTreeSet<usize> = patch.keys().copied().collect();
    touched.extend(n_before..n_after);
    let report = DeltaReport {
        nodes_before: n_before,
        nodes_after: n_after,
        edges_added: added.len(),
        edges_removed: removed.len(),
        touched: touched.into_iter().collect(),
        removed_edges: removed.into_iter().collect(),
    };
    Ok((matrix, report))
}

/// Applies a delta's attribute operations to a feature matrix and its
/// missing-attribute mask: appended rows (feature vector or missing),
/// per-node overwrites, clears, and zeroing removed nodes. Returns the new
/// matrix and mask; the mask is `Some` only while at least one node is
/// flagged missing, so fully-attributed graphs stay mask-free.
pub fn apply_to_features(
    features: &DenseMatrix,
    mask: Option<&[bool]>,
    delta: &GraphDelta,
) -> Result<(DenseMatrix, Option<Vec<bool>>), GraphError> {
    let n_before = features.rows();
    let n_after = n_before + delta.add_nodes.len();
    let d = features.cols();

    let mut data = features.as_slice().to_vec();
    data.reserve(delta.add_nodes.len() * d);
    let mut missing: Vec<bool> = match mask {
        Some(m) => {
            if m.len() != n_before {
                return Err(GraphError::Delta(format!(
                    "missing-attribute mask has {} entries for {n_before} nodes",
                    m.len()
                )));
            }
            m.to_vec()
        }
        None => vec![false; n_before],
    };
    for (i, row) in delta.add_nodes.iter().enumerate() {
        match row {
            Some(x) => {
                if x.len() != d {
                    return Err(GraphError::Delta(format!(
                        "appended node {} has {} features, expected {d}",
                        n_before + i,
                        x.len()
                    )));
                }
                data.extend_from_slice(x);
                missing.push(false);
            }
            None => {
                data.resize(data.len() + d, 0.0);
                missing.push(true);
            }
        }
    }
    for (u, x) in &delta.set_attributes {
        let u = *u;
        if u >= n_after {
            return Err(GraphError::Delta(format!(
                "set_attributes node {u} out of range 0..{n_after}"
            )));
        }
        if x.len() != d {
            return Err(GraphError::Delta(format!(
                "set_attributes node {u} has {} features, expected {d}",
                x.len()
            )));
        }
        data[u * d..(u + 1) * d].copy_from_slice(x);
        missing[u] = false;
    }
    for &u in delta.clear_attributes.iter().chain(&delta.remove_nodes) {
        if u >= n_after {
            return Err(GraphError::Delta(format!(
                "cleared node {u} out of range 0..{n_after}"
            )));
        }
        data[u * d..(u + 1) * d].fill(0.0);
        missing[u] = true;
    }
    let matrix = DenseMatrix::from_vec(n_after, d, data);
    let mask = missing.iter().any(|&m| m).then_some(missing);
    Ok((matrix, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributed::AttributedGraph;

    fn path4_adj() -> CsrMatrix {
        AttributedGraph::from_edges_plain(4, &[(0, 1), (1, 2), (2, 3)], None)
            .adjacency()
            .clone()
    }

    #[test]
    fn apply_to_csr_adds_and_removes() {
        let a = path4_adj();
        let delta = GraphDelta::new().add_edge(0, 3).remove_edge(1, 2);
        let (b, report) = apply_to_csr(&a, &delta).unwrap();
        assert_eq!(b.get(0, 3), 1.0);
        assert_eq!(b.get(3, 0), 1.0);
        assert_eq!(b.get(1, 2), 0.0);
        assert_eq!(report.edges_added, 1);
        assert_eq!(report.edges_removed, 1);
        assert_eq!(report.touched, vec![0, 1, 2, 3]);
        assert_eq!(report.removed_edges, vec![(1, 2)]);
        b.check_invariants().unwrap();
    }

    #[test]
    fn redundant_operations_are_noops() {
        let a = path4_adj();
        let delta = GraphDelta::new().add_edge(0, 1).remove_edge(0, 3);
        let (b, report) = apply_to_csr(&a, &delta).unwrap();
        assert_eq!(b, a);
        assert_eq!(report.edges_added, 0);
        assert_eq!(report.edges_removed, 0);
        assert!(report.touched.is_empty());
    }

    #[test]
    fn removal_wins_over_insertion() {
        let a = path4_adj();
        let delta = GraphDelta::new().add_edge(0, 3).remove_edge(0, 3);
        let (b, _) = apply_to_csr(&a, &delta).unwrap();
        assert_eq!(b.get(0, 3), 0.0);
    }

    #[test]
    fn node_append_and_isolate() {
        let a = path4_adj();
        let delta = GraphDelta {
            add_nodes: vec![None],
            add_edges: vec![(4, 0)],
            remove_nodes: vec![2],
            ..Default::default()
        };
        let (b, report) = apply_to_csr(&a, &delta).unwrap();
        assert_eq!(b.rows(), 5);
        assert_eq!(b.get(4, 0), 1.0);
        assert_eq!(b.row_nnz(2), 0, "removed node is isolated");
        assert_eq!(b.get(1, 2), 0.0);
        assert_eq!(report.nodes_after, 5);
        // 2's incident edges (1,2) and (2,3) were physically removed.
        assert_eq!(report.removed_edges, vec![(1, 2), (2, 3)]);
        assert!(report.touched.contains(&4));
        b.check_invariants().unwrap();
    }

    #[test]
    fn typed_errors_on_bad_deltas() {
        let a = path4_adj();
        assert!(matches!(
            apply_to_csr(&a, &GraphDelta::new().add_edge(0, 9)),
            Err(GraphError::Delta(_))
        ));
        assert!(matches!(
            apply_to_csr(&a, &GraphDelta::new().add_edge(1, 1)),
            Err(GraphError::Delta(_))
        ));
        let conflicted = GraphDelta::new().remove_node(2).add_edge(2, 0);
        assert!(matches!(
            apply_to_csr(&a, &conflicted),
            Err(GraphError::Delta(_))
        ));
    }

    #[test]
    fn features_append_set_clear_and_mask() {
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let delta = GraphDelta::new()
            .add_node(vec![5.0, 6.0])
            .add_node_missing()
            .set_attribute(0, vec![9.0, 9.0])
            .clear_attribute(1);
        let (y, mask) = apply_to_features(&x, None, &delta).unwrap();
        assert_eq!(y.rows(), 4);
        assert_eq!(y.row(0), &[9.0, 9.0]);
        assert_eq!(y.row(1), &[0.0, 0.0]);
        assert_eq!(y.row(2), &[5.0, 6.0]);
        assert_eq!(y.row(3), &[0.0, 0.0]);
        assert_eq!(mask, Some(vec![false, true, false, true]));
        // Filling the missing rows back in drops the mask entirely.
        let refill = GraphDelta::new()
            .set_attribute(1, vec![1.0, 1.0])
            .set_attribute(3, vec![2.0, 2.0]);
        let (_, mask2) = apply_to_features(&y, mask.as_deref(), &refill).unwrap();
        assert_eq!(mask2, None);
    }

    #[test]
    fn feature_dimension_mismatch_is_typed() {
        let x = DenseMatrix::from_vec(2, 2, vec![0.0; 4]);
        assert!(matches!(
            apply_to_features(&x, None, &GraphDelta::new().add_node(vec![1.0])),
            Err(GraphError::Delta(_))
        ));
        assert!(matches!(
            apply_to_features(
                &x,
                None,
                &GraphDelta::new().set_attribute(5, vec![0.0, 0.0])
            ),
            Err(GraphError::Delta(_))
        ));
    }
}
