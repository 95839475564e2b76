//! High-order proximity (Definitions 2–3 of the paper).
//!
//! `Ã = f(w₁B + w₂B² + … + w_l B^l)` with `B = A + I` (Definition 2 adds
//! self-connections) and `f` the row-wise normalization of Definition 3.
//! Alongside `Ã`, the modularity needs the *high-order degrees*
//! `k̃_i = Σ_j Ã_ij` and the total mass `M̃ = Σ_ij Ã_ij` (Sec. IV-C3); the
//! triple is bundled in [`HighOrder`].

use crate::delta::DeltaReport;
use aneci_linalg::CsrMatrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration for building the high-order proximity matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProximityConfig {
    /// Per-order weights `w = [w₁, …, w_l]`; the length determines the
    /// order `l`. The paper's default is uniform weights over `l = 2`.
    pub weights: Vec<f64>,
}

impl ProximityConfig {
    /// Uniform weights over `order` hops (the paper's default shape).
    pub fn uniform(order: usize) -> Self {
        assert!(order >= 1, "proximity order must be at least 1");
        Self {
            weights: vec![1.0 / order as f64; order],
        }
    }

    /// The order `l`.
    pub fn order(&self) -> usize {
        self.weights.len()
    }
}

impl Default for ProximityConfig {
    fn default() -> Self {
        Self::uniform(2)
    }
}

/// The high-order proximity matrix together with the derived quantities the
/// generalized modularity needs.
#[derive(Clone, Debug)]
pub struct HighOrder {
    /// `Ã` — row-normalized weighted sum of adjacency powers.
    pub a_tilde: CsrMatrix,
    /// `k̃_i = Σ_j Ã_ij` — high-order structural degrees.
    pub k_tilde: Vec<f64>,
    /// `M̃ = Σ_i k̃_i` — total high-order degree mass. Note the paper writes
    /// `2M̃` in denominators to mirror the classic modularity; we store the
    /// plain sum and let callers decide.
    pub m_tilde: f64,
}

impl HighOrder {
    /// Builds the high-order proximity of an adjacency matrix: with
    /// `B = A + I`, each power `B^l` is accumulated as `w_l · B^l` and the
    /// sum is row-normalized.
    ///
    /// **Memory bound.** The loop holds at most three CSR buffers — the
    /// current power, the accumulator, and one scratch — whose row buffers
    /// the underlying `spmm` pre-sizes from degree counts (Σ over a row's
    /// entries of the expanded row's nnz). The powers densify toward `N²`,
    /// so the peak is `O(nnz(B^l))` entries — which is why batch training
    /// cuts its batches from a [`RowStore`] instead of this constructor.
    pub fn build(adjacency: &CsrMatrix, config: &ProximityConfig) -> Self {
        let base = adjacency.add_identity();
        Self::from_a_tilde(power_sum(&base, config, base.clone()))
    }

    /// Incrementally updates `self` to the high-order proximity of the
    /// **post-delta** adjacency, recomputing only the rows whose l-hop
    /// neighbourhood a delta changed. Returns the number of rows refreshed
    /// (also added to the `refresh.rows` obs counter).
    ///
    /// **Dirty-row bound.** Row `i` of `Ã` aggregates walks of length ≤ l
    /// from `i`, so it changes only if such a walk can cross a changed
    /// edge — i.e. `i` lies within `l − 1` hops of a touched endpoint in
    /// the *union* of the old and new graphs. Old edges are exactly the new
    /// adjacency plus [`DeltaReport::removed_edges`], so the BFS runs over
    /// the new adjacency augmented with those removed edges; no old
    /// adjacency is kept around.
    ///
    /// Dirty rows are recomputed with the same full-width row slab
    /// [`RowStore::cut`] uses (per-row Gustavson expansion is
    /// row-local, so a clean row's value stream never changes) and spliced
    /// with the retained rows by the assembler it uses,
    /// [`CsrMatrix::stack_restricted`], over all `n` columns; `k̃` and `M̃`
    /// are then summed afresh from the spliced `Ã`. The result is
    /// **bit-identical** to a from-scratch
    /// [`HighOrder::build`] of the new adjacency (pinned by
    /// `tests/dynamic_graph.rs`). `self` must hold the pre-delta proximity
    /// built with the same `config`; appended node rows are new by
    /// definition and always refreshed.
    pub fn refresh(
        &mut self,
        adjacency: &CsrMatrix,
        config: &ProximityConfig,
        report: &DeltaReport,
    ) -> usize {
        assert_eq!(
            self.a_tilde.rows(),
            report.nodes_before,
            "refresh: HighOrder rows do not match the delta's nodes_before"
        );
        assert_eq!(
            adjacency.rows(),
            report.nodes_after,
            "refresh: adjacency is not the post-delta matrix"
        );
        let n = adjacency.rows();
        if report.touched.is_empty() {
            return 0; // attribute-only delta: topology unchanged
        }

        // Depth-(l−1) BFS ball around the touched endpoints, over the new
        // adjacency plus the physically removed edges (the old-graph reach).
        let mut extra: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(u, v) in &report.removed_edges {
            extra.entry(u).or_default().push(v);
            extra.entry(v).or_default().push(u);
        }
        let mut visited = vec![false; n];
        let mut frontier = Vec::with_capacity(report.touched.len());
        for &u in &report.touched {
            if !visited[u] {
                visited[u] = true;
                frontier.push(u);
            }
        }
        for _ in 1..config.order() {
            let mut next = Vec::new();
            for &u in &frontier {
                for (v, _) in adjacency.row_entries(u) {
                    if !visited[v] {
                        visited[v] = true;
                        next.push(v);
                    }
                }
                if let Some(vs) = extra.get(&u) {
                    for &v in vs {
                        if !visited[v] {
                            visited[v] = true;
                            next.push(v);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let dirty: Vec<usize> = (0..n).filter(|&i| visited[i]).collect();

        // Recompute the dirty rows at full column width, then splice them
        // into the retained rows with the assembler `RowStore::cut` uses,
        // keeping all `n` columns.
        let base = adjacency.add_identity();
        let slab = power_sum(&base, config, base.gather_rows(&dirty));
        let mut fresh = 0..dirty.len();
        let rows: Vec<(&[u32], &[f64])> = (0..n)
            .map(|r| {
                if visited[r] {
                    slab.row(fresh.next().expect("a slab row per dirty row"))
                } else {
                    self.a_tilde.row(r)
                }
            })
            .collect();
        let all: Vec<usize> = (0..n).collect();
        *self = Self::from_a_tilde(CsrMatrix::stack_restricted(n, &all, &rows));
        aneci_obs::counter("refresh.rows").add(dirty.len() as u64);
        dirty.len()
    }

    /// Bundles `Ã` with the `k̃` and `M̃` derived from it.
    fn from_a_tilde(a_tilde: CsrMatrix) -> Self {
        let k_tilde = a_tilde.row_sums();
        let m_tilde = k_tilde.iter().sum();
        Self {
            a_tilde,
            k_tilde,
            m_tilde,
        }
    }
}

/// Full-width rows of one graph's `Ã`, each built the first time a batch
/// asks for it and kept while the kept rows fit a byte budget, so a run of
/// many batches builds each row once instead of once per batch that holds
/// its node.
///
/// A row of the power sum depends only on its own node (see
/// [`power_sum`]), so a row built for any node set is the row every other
/// node set gets: a batch cut from kept rows is bit for bit the batch a
/// store with a zero budget, which keeps nothing, builds from scratch. Rows
/// past the budget serve the batch that built them and are dropped; a later
/// batch builds them again.
pub struct RowStore<'a> {
    adjacency: &'a CsrMatrix,
    config: &'a ProximityConfig,
    budget: usize,
    /// Bytes of the kept rows, as [`RowStore::bytes`] counts them.
    bytes: usize,
    /// The kept rows, in slabs of the rows one cut built.
    slabs: Vec<CsrMatrix>,
    /// Per node, the slab and row of its kept row; empty until a row is
    /// kept.
    kept: Vec<Option<(u32, u32)>>,
}

impl<'a> RowStore<'a> {
    /// Bytes a kept row costs per stored entry (a `u32` column and an `f64`
    /// value) and per row (its row pointer).
    const ENTRY_BYTES: usize = 12;
    const ROW_BYTES: usize = 8;

    /// An empty store of the rows of `adjacency`'s `Ã` under `config`,
    /// keeping at most `budget` bytes of them.
    pub fn new(adjacency: &'a CsrMatrix, config: &'a ProximityConfig, budget: usize) -> Self {
        Self {
            adjacency,
            config,
            budget,
            bytes: 0,
            slabs: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Bytes of the rows kept so far: 12 per stored entry plus 8 per row,
    /// never more than the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The batch triple `(Ã[S,S], k̃_S, M̃_S)` of `nodes` (sorted strictly
    /// increasing) that the mini-batch modularity trains on: rows and
    /// columns `nodes` of the `Ã` [`HighOrder::build`] builds, bit for bit
    /// (pinned by `tests/minibatch_parity.rs`), never materializing `N×N`.
    ///
    /// Rows not kept yet are built in one power sum over their nodes. Row
    /// `r` of `B^l` is `(row r of B^{l-1}) · B`, so the power loop runs on
    /// an `|S|×N` row slab, and per-row Gustavson expansion, weighting and
    /// row normalization run in exactly the order the global build uses;
    /// peak memory is `O(|S| · min(N, reach_l))` entries. Each batch row is
    /// then restricted to the batch's columns with the cut
    /// [`CsrMatrix::extract_submatrix`] makes, and `k̃`/`M̃` are the cut's
    /// sums: only the proximity mass retained inside the batch, which is
    /// what the batch modularity normalizes by. The new rows are kept
    /// afterwards, in node order, while they fit the budget. A cut of every
    /// node keeps none: it is the whole `Ã`, which its caller then holds.
    pub fn cut(&mut self, nodes: &[usize]) -> HighOrder {
        let kept = |v: usize| self.kept.get(v).copied().flatten();
        let missing: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&v| kept(v).is_none())
            .collect();
        let n = self.adjacency.rows();
        let fresh = if missing.is_empty() {
            CsrMatrix::zeros(0, n)
        } else {
            let base = self.adjacency.add_identity();
            power_sum(&base, self.config, base.gather_rows(&missing))
        };
        let mut next = 0..missing.len();
        let rows: Vec<(&[u32], &[f64])> = nodes
            .iter()
            .map(|&v| match kept(v) {
                Some((slab, row)) => self.slabs[slab as usize].row(row as usize),
                None => fresh.row(next.next().expect("a fresh row per missing node")),
            })
            .collect();
        let cut = CsrMatrix::stack_restricted(n, nodes, &rows);
        drop(rows);
        if nodes.len() < n {
            self.keep(&missing, fresh);
        }
        HighOrder::from_a_tilde(cut)
    }

    /// Keeps the longest prefix of `fresh`, the rows of `missing`, that fits
    /// the budget.
    fn keep(&mut self, missing: &[usize], fresh: CsrMatrix) {
        let mut fits = 0;
        while fits < missing.len() {
            let row = fresh.row_nnz(fits) * Self::ENTRY_BYTES + Self::ROW_BYTES;
            if self.bytes + row > self.budget {
                break;
            }
            self.bytes += row;
            fits += 1;
        }
        if fits == 0 {
            return;
        }
        let slab = if fits == missing.len() {
            fresh
        } else {
            fresh.gather_rows(&(0..fits).collect::<Vec<_>>())
        };
        if self.kept.is_empty() {
            self.kept = vec![None; self.adjacency.rows()];
        }
        let id = self.slabs.len() as u32;
        for (row, &v) in missing[..fits].iter().enumerate() {
            self.kept[v] = Some((id, row as u32));
        }
        self.slabs.push(slab);
    }
}

/// The power loop every constructor shares: with `base = B = A + I` and
/// `P₁ = first`, returns the row-normalized `Σ_l w_l · P_l` where
/// `P_l = P_{l−1} · B`. `first` is `B` itself for the global build, or the
/// rows of `B` for a sorted node set, giving those rows of the global `Ã`
/// at full column width `N`. Every step is row-local, so each row is
/// bit-identical to the global build's.
fn power_sum(base: &CsrMatrix, config: &ProximityConfig, first: CsrMatrix) -> CsrMatrix {
    assert!(
        !config.weights.is_empty(),
        "at least one proximity weight required"
    );
    // Double-buffered power/accumulator loop: `spmm` and `add_scaled`
    // both write into preallocated buffers that are swapped back in, so
    // each extra order reuses the previous order's
    // allocations instead of re-materializing multi-million-entry CSR
    // vectors (order-3+ on 20k-node graphs used to thrash the
    // allocator).
    let mut power = first;
    let (rows, n) = (power.rows(), base.cols());
    let mut acc = CsrMatrix::zeros(rows, n);
    let mut scratch = CsrMatrix::zeros(rows, n);
    for (l, &w) in config.weights.iter().enumerate() {
        if l > 0 {
            power.spmm_into(base, &mut scratch);
            std::mem::swap(&mut power, &mut scratch);
        }
        if w != 0.0 {
            acc.add_scaled_into(&power, w, &mut scratch);
            std::mem::swap(&mut acc, &mut scratch);
        }
    }
    acc.row_normalize_inplace();
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::CsrMatrix;

    fn path4() -> CsrMatrix {
        // 0-1-2-3 path.
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
            ],
        )
    }

    /// A hollow adjacency (no self-loops) at order 1 gives `f(A + I)`.
    #[test]
    fn order_one_without_selfloops_is_row_normalized_adjacency() {
        let a = path4();
        let ho = HighOrder::build(&a, &ProximityConfig::uniform(1));
        assert_eq!(ho.a_tilde, a.add_identity().row_normalize());
        // Every row sums to 1 ⇒ k̃ = 1 and M̃ = N.
        for &k in &ho.k_tilde {
            assert!((k - 1.0).abs() < 1e-12);
        }
        assert!((ho.m_tilde - 4.0).abs() < 1e-12);
    }

    #[test]
    fn second_order_reaches_two_hop_neighbors() {
        let a = path4();
        let ho = HighOrder::build(&a, &ProximityConfig::uniform(2));
        // Node 0 and node 2 are two hops apart: Ã₀₂ > 0 even though A₀₂ = 0.
        assert!(ho.a_tilde.get(0, 2) > 0.0);
        // Node 0 and 3 are three hops apart: still zero at order 2.
        assert_eq!(ho.a_tilde.get(0, 3), 0.0);
    }

    #[test]
    fn self_loops_keep_diagonal_mass() {
        let a = path4();
        let ho = HighOrder::build(&a, &ProximityConfig::uniform(2));
        for i in 0..4 {
            assert!(ho.a_tilde.get(i, i) > 0.0, "diag {i}");
        }
    }

    #[test]
    fn weights_match_manual_polynomial() {
        let a = path4();
        let cfg = ProximityConfig {
            weights: vec![0.7, 0.3],
        };
        let ho = HighOrder::build(&a, &cfg);
        let b = a.add_identity();
        let mut manual = b.clone();
        manual.scale_inplace(0.7);
        let manual = manual.add_scaled(&b.spmm(&b), 0.3).row_normalize(); // f(0.7B + 0.3B²)
        assert!(ho.a_tilde.to_dense().sub(&manual.to_dense()).max_abs() < 1e-12);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let a = path4();
        let ho = HighOrder::build(&a, &ProximityConfig::uniform(3));
        for r in 0..4 {
            let s: f64 = ho.a_tilde.row_entries(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!((ho.m_tilde - 4.0).abs() < 1e-12);
    }

    #[test]
    fn build_rows_matches_restricted_global_build() {
        let a = path4();
        for order in 1..=3 {
            let cfg = ProximityConfig::uniform(order);
            let global = HighOrder::build(&a, &cfg);
            // Full node set: bit-identical to the global build.
            let all = RowStore::new(&a, &cfg, 0).cut(&[0, 1, 2, 3]);
            assert_eq!(all.a_tilde, global.a_tilde);
            assert_eq!(all.k_tilde, global.k_tilde);
            assert_eq!(all.m_tilde, global.m_tilde);
            // Subset: rows/columns of the global Ã, bit-exact.
            let nodes = [0usize, 2, 3];
            let batch = RowStore::new(&a, &cfg, 0).cut(&nodes);
            let expect = global.a_tilde.gather_rows(&nodes).select_columns(&nodes);
            assert_eq!(batch.a_tilde, expect);
            assert_eq!(batch.k_tilde, expect.row_sums());
        }
    }

    #[test]
    fn refresh_is_bit_exact_vs_full_build() {
        use crate::attributed::AttributedGraph;
        use crate::delta::GraphDelta;
        // Ring with chords: large enough that the dirty ball is a strict
        // subset of the rows for small orders.
        let n = 30;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        edges.extend([(0, 15), (3, 22), (7, 11)]);
        let graph = AttributedGraph::from_edges_plain(n, &edges, None);
        let delta = GraphDelta::new()
            .add_edge(2, 20)
            .remove_edge(0, 15)
            .add_node_missing()
            .add_edge(n, 5)
            .remove_node(11);
        for order in 1..=3 {
            let cfg = ProximityConfig::uniform(order);
            let mut ho = HighOrder::build(graph.adjacency(), &cfg);
            let mut g2 = graph.clone();
            let report = g2.apply_delta(&delta).unwrap();
            let rows = ho.refresh(g2.adjacency(), &cfg, &report);
            let full = HighOrder::build(g2.adjacency(), &cfg);
            assert_eq!(ho.a_tilde, full.a_tilde, "order {order}");
            assert_eq!(ho.k_tilde, full.k_tilde);
            assert_eq!(ho.m_tilde, full.m_tilde);
            assert!(rows >= report.touched.len());
            if order <= 2 {
                assert!(rows < n + 1, "dirty ball must stay partial, got {rows}");
            }
        }
    }

    #[test]
    fn attribute_only_delta_refreshes_nothing() {
        use crate::attributed::AttributedGraph;
        use crate::delta::GraphDelta;
        let graph = AttributedGraph::from_edges_plain(6, &[(0, 1), (1, 2), (3, 4)], None);
        let cfg = ProximityConfig::uniform(2);
        let mut ho = HighOrder::build(graph.adjacency(), &cfg);
        let before = ho.a_tilde.clone();
        let mut g2 = graph.clone();
        let report = g2
            .apply_delta(&GraphDelta::new().set_attribute(1, vec![0.5; 6]))
            .unwrap();
        assert_eq!(ho.refresh(g2.adjacency(), &cfg, &report), 0);
        assert_eq!(ho.a_tilde, before);
    }
}
