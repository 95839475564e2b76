//! In-memory embedding store with exact (brute-force) top-k queries.
//!
//! The store owns the checkpointed embedding matrix plus the soft community
//! membership, caches per-row L2 norms, and answers:
//!
//! * **top-k nearest neighbors** of a node or a free query vector under
//!   cosine or dot-product similarity — brute force over all rows, chunked
//!   across the persistent pool (`aneci_linalg::pool`), with output that is
//!   bit-identical for any thread count (fixed chunk decomposition, full
//!   deterministic merge);
//! * **community** lookups (argmax membership + the full soft row);
//! * **edge scores** through [`aneci_eval::linkpred::edge_score`] — the same
//!   function the evaluation harness uses, so a link-prediction score served
//!   online always equals the offline one.
//!
//! A snapshot update derives the next store with `EmbeddingStore::patched`:
//! it copies the embedding, the norms and the tombstone mask, recomputes
//! norms only for the rows the update writes, and shares the membership,
//! its argmax and the anomaly scores with the previous generation (behind
//! `Arc`s) unless the update appends rows.

use std::sync::Arc;

use aneci_core::checkpoint::Checkpoint;
use aneci_linalg::pool;
use aneci_linalg::vector;
use aneci_linalg::DenseMatrix;

use crate::snapshot::SnapshotUpdate;

/// Similarity metric for neighbor queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity (dot of L2-normalized vectors).
    Cosine,
    /// Raw inner product.
    Dot,
}

impl Metric {
    /// Parses `"cosine"` / `"dot"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "cosine" | "cos" => Some(Metric::Cosine),
            "dot" | "inner" | "ip" => Some(Metric::Dot),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Cosine => "cosine",
            Metric::Dot => "dot",
        }
    }
}

/// A scored neighbor.
pub type Scored = (usize, f64);

/// The in-memory serving store for one checkpointed model.
#[derive(Clone)]
pub struct EmbeddingStore {
    embedding: DenseMatrix,
    /// Cached per-row L2 norms (for cosine scoring).
    norms: Vec<f64>,
    membership: Option<Arc<DenseMatrix>>,
    /// Cached argmax of each membership row.
    communities: Option<Arc<Vec<usize>>>,
    /// Tombstone mask (`None` = nothing deleted). Tombstoned rows keep
    /// their id (so client-visible ids stay stable across snapshot swaps)
    /// but are filtered from every top-k result.
    deleted: Option<Vec<bool>>,
    /// Per-node anomaly scores in `[0, 1]` (`None` = not scored). Carried
    /// in every snapshot so the engine's poisoned-neighborhood detector can
    /// flag top-k responses whose mass concentrates on anomalous nodes.
    anomaly: Option<Arc<Vec<f64>>>,
}

impl EmbeddingStore {
    /// Builds a store from an embedding matrix and optional membership.
    pub fn new(embedding: DenseMatrix, membership: Option<DenseMatrix>) -> Self {
        Self::with_tombstones(embedding, membership, None)
    }

    /// Builds a store with an explicit tombstone mask (the snapshot-update
    /// path; `None` means every row is live).
    pub fn with_tombstones(
        embedding: DenseMatrix,
        membership: Option<DenseMatrix>,
        deleted: Option<Vec<bool>>,
    ) -> Self {
        if let Some(m) = &membership {
            assert_eq!(
                m.rows(),
                embedding.rows(),
                "membership must cover every embedded node"
            );
        }
        if let Some(d) = &deleted {
            assert_eq!(
                d.len(),
                embedding.rows(),
                "tombstone mask must cover every embedded node"
            );
        }
        let norms = embedding.rows_iter().map(vector::norm2).collect();
        let communities = membership.as_ref().map(|m| Arc::new(m.argmax_rows()));
        // An all-false mask is the same as no mask, and cheaper to query.
        let deleted = deleted.filter(|d| d.iter().any(|&x| x));
        Self {
            embedding,
            norms,
            membership: membership.map(Arc::new),
            communities,
            deleted,
            anomaly: None,
        }
    }

    /// The store after `update`, which the caller has validated: every
    /// vector has the store's dimension, appends are contiguous and every
    /// delete names a row that exists after the upserts. Upserts write
    /// their rows in order (reviving tombstoned ids), then deletes
    /// tombstone theirs.
    ///
    /// Equal, field for field and bit for bit, to the store
    /// [`Self::with_tombstones`] builds from scratch for the same state
    /// (appended membership rows zero, appended anomaly scores 0), but only
    /// the rows the update writes get a fresh norm, and an update that
    /// appends nothing shares the membership, its argmax and the anomaly
    /// scores with `self` instead of copying them.
    pub(crate) fn patched(&self, update: &SnapshotUpdate) -> Self {
        let dim = self.dim();
        let old_rows = self.num_nodes();
        let rows = update
            .upserts
            .iter()
            .fold(old_rows, |rows, up| rows.max(up.node + 1));
        let appended = rows - old_rows;

        let mut data = Vec::with_capacity(rows * dim);
        data.extend_from_slice(self.embedding.as_slice());
        data.resize(rows * dim, 0.0);
        let mut deleted = match &self.deleted {
            Some(d) => d.clone(),
            None => vec![false; old_rows],
        };
        deleted.resize(rows, false);
        for up in &update.upserts {
            data[up.node * dim..(up.node + 1) * dim].copy_from_slice(&up.vector);
            deleted[up.node] = false; // an upsert revives a tombstoned id
        }
        for &d in &update.deletes {
            deleted[d] = true;
        }
        let embedding = DenseMatrix::from_vec(rows, dim, data);
        let mut norms = self.norms.clone();
        norms.resize(rows, 0.0);
        for up in &update.upserts {
            norms[up.node] = vector::norm2(embedding.row(up.node));
        }

        // Appended nodes are unassigned (zero membership rows) and start
        // unsuspicious (score 0) until the model is retrained.
        let (membership, communities) = match (&self.membership, &self.communities) {
            (Some(m), Some(c)) if appended > 0 => {
                let mut md = Vec::with_capacity(rows * m.cols());
                md.extend_from_slice(m.as_slice());
                md.resize(rows * m.cols(), 0.0);
                let mut c = c.to_vec();
                c.extend(DenseMatrix::zeros(appended, m.cols()).argmax_rows());
                (
                    Some(Arc::new(DenseMatrix::from_vec(rows, m.cols(), md))),
                    Some(Arc::new(c)),
                )
            }
            (m, c) => (m.clone(), c.clone()),
        };
        let anomaly = self.anomaly.as_ref().map(|a| {
            if appended == 0 {
                return Arc::clone(a);
            }
            let mut a = a.to_vec();
            a.resize(rows, 0.0);
            Arc::new(a)
        });
        Self {
            embedding,
            norms,
            membership,
            communities,
            deleted: Some(deleted).filter(|d| d.iter().any(|&x| x)),
            anomaly,
        }
    }

    /// Fluent: attaches per-node anomaly scores (length must match the node
    /// count). The serving engine only runs poisoned-neighborhood detection
    /// on snapshots that carry these.
    pub fn with_anomaly_scores(mut self, scores: Vec<f64>) -> Self {
        assert_eq!(
            scores.len(),
            self.embedding.rows(),
            "anomaly scores must cover every embedded node"
        );
        self.anomaly = Some(Arc::new(scores));
        self
    }

    /// Per-node anomaly scores, when the store carries them.
    pub fn anomaly_scores(&self) -> Option<&[f64]> {
        self.anomaly.as_deref().map(Vec::as_slice)
    }

    /// Builds a store straight from a loaded checkpoint. The checkpointed
    /// membership doubles as the anomaly signal: each node's normalized
    /// membership entropy (`aneci_core::anomaly::node_anomaly_scores`), so
    /// every checkpoint-served snapshot is detection-ready.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Self {
        let anomaly = aneci_core::anomaly::node_anomaly_scores(&ckpt.membership);
        Self::new(ckpt.embedding.clone(), Some(ckpt.membership.clone()))
            .with_anomaly_scores(anomaly)
    }

    /// Number of embedded node slots, tombstoned ones included.
    pub fn num_nodes(&self) -> usize {
        self.embedding.rows()
    }

    /// Number of live (non-tombstoned) nodes.
    pub fn num_live(&self) -> usize {
        match &self.deleted {
            Some(d) => d.iter().filter(|&&x| !x).count(),
            None => self.embedding.rows(),
        }
    }

    /// Whether `node` is tombstoned.
    pub fn is_deleted(&self, node: usize) -> bool {
        self.deleted
            .as_ref()
            .is_some_and(|d| d.get(node).copied().unwrap_or(false))
    }

    /// The tombstone mask, when any row is tombstoned.
    pub fn deleted_mask(&self) -> Option<&[bool]> {
        self.deleted.as_deref()
    }

    /// The stored soft-membership matrix, when available.
    pub fn membership(&self) -> Option<&DenseMatrix> {
        self.membership.as_deref()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.embedding.cols()
    }

    /// The stored embedding matrix.
    pub fn embedding(&self) -> &DenseMatrix {
        &self.embedding
    }

    /// The embedding row of `node`.
    pub fn vector_of(&self, node: usize) -> &[f64] {
        self.embedding.row(node)
    }

    /// Similarity between a query vector and a stored row — the per-row
    /// oracle the batched-scan production path is tested against.
    #[cfg(test)]
    fn score_row(&self, query: &[f64], query_norm: f64, row: usize, metric: Metric) -> f64 {
        let d = vector::dot(query, self.embedding.row(row));
        match metric {
            Metric::Dot => d,
            Metric::Cosine => vector::cosine_with_norms(d, query_norm, self.norms[row]),
        }
    }

    /// Exact top-`k` most similar nodes to a free query vector, brute force
    /// over every row. `exclude` removes one node id (used for node queries,
    /// which should not return the node itself). Results are sorted by
    /// descending score with ascending-id tie-breaks, so the answer is fully
    /// deterministic — across runs *and* across pool sizes.
    ///
    /// # Panics
    /// Panics if `query.len() != self.dim()`.
    pub fn top_k(
        &self,
        query: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<usize>,
    ) -> Vec<Scored> {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        let n = self.num_nodes();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let keep = k.min(n);
        // One telemetry sample per scan (the row dots inside dispatch to
        // SIMD when available — see `aneci_linalg::simd`).
        aneci_linalg::simd::record_dispatch();
        let query_norm = vector::norm2(query);

        // One extra candidate per chunk covers the excluded id.
        let per_chunk = keep + 1;
        let grain = pool::row_grain(n, 64);
        let chunks = if pool::should_parallelize(n.saturating_mul(self.dim())) {
            pool::parallel_map_chunks(n, grain, |lo, hi| {
                self.top_of_range(query, query_norm, metric, lo, hi, per_chunk)
            })
        } else {
            vec![self.top_of_range(query, query_norm, metric, 0, n, per_chunk)]
        };

        // Deterministic merge: concatenate chunk candidates (chunk order is
        // fixed by (n, grain)), then a full sort with id tie-breaks.
        let mut merged: Vec<Scored> = chunks.into_iter().flatten().collect();
        if let Some(ex) = exclude {
            merged.retain(|&(id, _)| id != ex);
        }
        merged.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate(keep.min(merged.len()));
        merged
    }

    /// Top candidates within one row range (the per-chunk kernel). The
    /// whole range is scored through the batched scan kernels
    /// ([`vector::cosine_scores`] / [`vector::dot_scores`]) so SIMD
    /// dispatch is paid once per range, not once per row.
    fn top_of_range(
        &self,
        query: &[f64],
        query_norm: f64,
        metric: Metric,
        lo: usize,
        hi: usize,
        keep: usize,
    ) -> Vec<Scored> {
        let d = self.dim();
        let rows = &self.embedding.as_slice()[lo * d..hi * d];
        let mut scores = vec![0.0f64; hi - lo];
        match metric {
            Metric::Cosine => {
                vector::cosine_scores(query, query_norm, rows, &self.norms[lo..hi], &mut scores)
            }
            Metric::Dot => vector::dot_scores(query, rows, &mut scores),
        }
        // Tombstones are dropped *before* the per-chunk truncation, so a
        // chunk full of deleted rows can never crowd live candidates out.
        let mut scored: Vec<Scored> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (lo + i, s))
            .filter(|&(id, _)| !self.is_deleted(id))
            .collect();
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(keep.min(scored.len()));
        scored
    }

    /// Exact top-`k` neighbors of a stored node (the node itself excluded).
    pub fn top_k_node(&self, node: usize, k: usize, metric: Metric) -> Vec<Scored> {
        let query = self.embedding.row(node).to_vec();
        self.top_k(&query, k, metric, Some(node))
    }

    /// Hard community of `node` (argmax membership), when membership is
    /// available. Nodes appended by a snapshot update carry an all-zero
    /// membership row (the model hasn't assigned them yet) and report
    /// `None`.
    pub fn community(&self, node: usize) -> Option<usize> {
        self.membership_row(node)?;
        self.communities.as_ref().map(|c| c[node])
    }

    /// The soft membership row of `node`, when available and assigned
    /// (all-zero rows — appended, not-yet-trained nodes — report `None`).
    pub fn membership_row(&self, node: usize) -> Option<&[f64]> {
        let row = self.membership.as_ref().map(|m| m.row(node))?;
        row.iter().any(|&x| x != 0.0).then_some(row)
    }

    /// Link-prediction score `σ(z_u · z_v)` — **the** eval scorer
    /// ([`aneci_eval::linkpred::edge_score`]), reused verbatim so serve-time
    /// and eval-time scores are identical.
    pub fn edge_score(&self, u: usize, v: usize) -> f64 {
        aneci_eval::linkpred::edge_score(&self.embedding, u, v)
    }

    /// Batched edge scores through the pooled eval kernel.
    pub fn edge_scores(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        aneci_eval::linkpred::edge_scores(&self.embedding, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};

    fn store(n: usize, d: usize, seed: u64) -> EmbeddingStore {
        let mut rng = seeded_rng(seed);
        let z = gaussian_matrix(n, d, 1.0, &mut rng);
        let p = z.softmax_rows();
        EmbeddingStore::new(z, Some(p))
    }

    /// Naive reference: score every row serially and fully sort.
    fn naive_top_k(
        s: &EmbeddingStore,
        query: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<usize>,
    ) -> Vec<Scored> {
        let qn = vector::norm2(query);
        let mut all: Vec<Scored> = (0..s.num_nodes())
            .filter(|&r| Some(r) != exclude)
            .map(|r| (r, s.score_row(query, qn, r, metric)))
            .collect();
        all.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k.min(all.len()));
        all
    }

    #[test]
    fn top_k_matches_naive_reference() {
        let s = store(200, 8, 1);
        let query = s.vector_of(7).to_vec();
        for &metric in &[Metric::Cosine, Metric::Dot] {
            for &k in &[1usize, 5, 10, 200, 500] {
                assert_eq!(
                    s.top_k(&query, k, metric, None),
                    naive_top_k(&s, &query, k, metric, None),
                    "metric {metric:?} k {k}"
                );
            }
        }
    }

    #[test]
    fn node_query_excludes_self_and_cosine_self_is_top_without_exclusion() {
        let s = store(50, 6, 2);
        let hits = s.top_k_node(3, 10, Metric::Cosine);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&(id, _)| id != 3));
        // Without exclusion the node itself wins at cosine similarity 1.
        let with_self = s.top_k(s.vector_of(3), 1, Metric::Cosine, None);
        assert_eq!(with_self[0].0, 3);
        assert!((with_self[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_bit_identical_across_thread_counts() {
        use aneci_linalg::pool;
        pool::force_pool();
        let s = store(500, 16, 3);
        let query = s.vector_of(11).to_vec();

        pool::set_par_threshold(1);
        let pooled = s.top_k(&query, 25, Metric::Cosine, Some(11));
        pool::set_num_threads(1);
        let single = s.top_k(&query, 25, Metric::Cosine, Some(11));
        pool::set_num_threads(4);

        assert_eq!(pooled, single);
    }

    #[test]
    fn community_and_membership_lookups() {
        let s = store(30, 4, 4);
        let row = s.membership_row(5).unwrap();
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let c = s.community(5).unwrap();
        // argmax of the row really is the reported community.
        let best = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(c, best);

        let bare = EmbeddingStore::new(s.embedding.clone(), None);
        assert_eq!(bare.community(5), None);
        assert!(bare.membership_row(5).is_none());
    }

    #[test]
    fn edge_score_parity_with_eval() {
        let s = store(40, 8, 5);
        for (u, v) in [(0usize, 1usize), (3, 17), (39, 0)] {
            assert_eq!(
                s.edge_score(u, v),
                aneci_eval::linkpred::edge_score(s.embedding(), u, v)
            );
        }
        let pairs = vec![(0, 1), (2, 3), (4, 5)];
        let batch = s.edge_scores(&pairs);
        for (score, &(u, v)) in batch.iter().zip(&pairs) {
            assert_eq!(*score, s.edge_score(u, v));
        }
    }

    #[test]
    fn tombstoned_rows_never_appear_in_top_k() {
        use aneci_linalg::pool;
        pool::force_pool();
        let n = 300;
        let mut rng = seeded_rng(9);
        let z = gaussian_matrix(n, 8, 1.0, &mut rng);
        let mut deleted = vec![false; n];
        for i in (0..n).step_by(3) {
            deleted[i] = true;
        }
        let full = EmbeddingStore::new(z.clone(), None);
        let masked = EmbeddingStore::with_tombstones(z.clone(), None, Some(deleted.clone()));
        assert_eq!(masked.num_live(), n - n.div_ceil(3));
        assert!(masked.is_deleted(0) && !masked.is_deleted(1));

        let query = z.row(1).to_vec();
        pool::set_par_threshold(1); // force the chunked parallel path
        for &k in &[1usize, 5, 50, 300] {
            let got = masked.top_k(&query, k, Metric::Cosine, None);
            // Reference: full scan, live rows only, same ordering rules.
            let expect: Vec<Scored> = full
                .top_k(&query, n, Metric::Cosine, None)
                .into_iter()
                .filter(|&(id, _)| !deleted[id])
                .take(k)
                .collect();
            assert_eq!(got, expect, "k = {k}");
        }

        // An all-false mask normalizes away entirely.
        let clean = EmbeddingStore::with_tombstones(z, None, Some(vec![false; n]));
        assert!(clean.deleted_mask().is_none());
        assert_eq!(clean.num_live(), n);
    }

    /// Asserts that `a` and `b` hold the same fields, bit for bit.
    fn assert_same_store(a: &EmbeddingStore, b: &EmbeddingStore, step: usize) {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        let matrix = |m: &DenseMatrix| (m.rows(), m.cols(), bits(m.as_slice()));
        let EmbeddingStore {
            embedding,
            norms,
            membership,
            communities,
            deleted,
            anomaly,
        } = a;
        assert_eq!(
            matrix(embedding),
            matrix(&b.embedding),
            "step {step}: embedding"
        );
        assert_eq!(bits(norms), bits(&b.norms), "step {step}: norms");
        assert_eq!(
            membership.as_deref().map(matrix),
            b.membership.as_deref().map(matrix),
            "step {step}: membership"
        );
        assert_eq!(communities, &b.communities, "step {step}: communities");
        assert_eq!(deleted, &b.deleted, "step {step}: tombstone mask");
        assert_eq!(
            anomaly.as_deref().map(|s| bits(s)),
            b.anomaly.as_deref().map(|s| bits(s)),
            "step {step}: anomaly scores"
        );
    }

    #[test]
    fn patched_store_equals_a_fresh_build_of_the_same_state() {
        let (n, d) = (30, 5);
        let z = gaussian_matrix(n, d, 1.0, &mut seeded_rng(21));
        let p = z.softmax_rows();
        let vector = |node: usize, step: usize| -> Vec<f64> {
            (0..d)
                .map(|c| ((node * d + c + step) % 11) as f64 * 0.37 - 1.5)
                .collect()
        };
        // Rewrites; appends with a rewrite and deletes (one of an appended
        // id); revivals beside a delete; revivals that leave every id live.
        let updates = [
            SnapshotUpdate::new()
                .upsert(3, vector(3, 0))
                .upsert(5, vector(5, 0))
                .upsert(3, vector(3, 1)),
            SnapshotUpdate::new()
                .upsert(30, vector(30, 1))
                .upsert(31, vector(31, 1))
                .upsert(2, vector(2, 1))
                .delete(7)
                .delete(8)
                .delete(31),
            SnapshotUpdate::new().upsert(7, vector(7, 2)).delete(0),
            SnapshotUpdate::new()
                .upsert(8, vector(8, 3))
                .upsert(0, vector(0, 3))
                .upsert(31, vector(31, 3)),
        ];
        for scored in [true, false] {
            let scores: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
            let mut store = if scored {
                EmbeddingStore::new(z.clone(), Some(p.clone())).with_anomaly_scores(scores.clone())
            } else {
                EmbeddingStore::new(z.clone(), None)
            };
            // The state a fresh build starts from.
            let mut embedding = z.as_slice().to_vec();
            let mut membership = p.as_slice().to_vec();
            let mut anomaly = scores;
            let mut deleted = vec![false; n];
            for (step, update) in updates.iter().enumerate() {
                let next = store.patched(update);
                for up in &update.upserts {
                    if up.node == deleted.len() {
                        embedding.resize(embedding.len() + d, 0.0);
                        membership.resize(membership.len() + p.cols(), 0.0);
                        anomaly.push(0.0);
                        deleted.push(false);
                    }
                    embedding[up.node * d..(up.node + 1) * d].copy_from_slice(&up.vector);
                    deleted[up.node] = false;
                }
                for &id in &update.deletes {
                    deleted[id] = true;
                }
                let rows = deleted.len();
                let fresh = EmbeddingStore::with_tombstones(
                    DenseMatrix::from_vec(rows, d, embedding.clone()),
                    scored.then(|| DenseMatrix::from_vec(rows, p.cols(), membership.clone())),
                    Some(deleted.clone()),
                );
                let fresh = if scored {
                    fresh.with_anomaly_scores(anomaly.clone())
                } else {
                    fresh
                };
                assert_same_store(&next, &fresh, step);
                if scored {
                    // Without an append, the next generation shares them.
                    let shared = rows == store.num_nodes();
                    let same = |a: &EmbeddingStore, b: &EmbeddingStore| {
                        (
                            Arc::ptr_eq(
                                a.membership.as_ref().unwrap(),
                                b.membership.as_ref().unwrap(),
                            ),
                            Arc::ptr_eq(
                                a.communities.as_ref().unwrap(),
                                b.communities.as_ref().unwrap(),
                            ),
                            Arc::ptr_eq(a.anomaly.as_ref().unwrap(), b.anomaly.as_ref().unwrap()),
                        )
                    };
                    assert_eq!(same(&next, &store), (shared, shared, shared), "step {step}");
                }
                store = next;
            }
            assert!(
                store.deleted_mask().is_none(),
                "an all-live mask collapses to none"
            );
        }
    }

    #[test]
    fn zero_membership_rows_report_unassigned() {
        let s = store(10, 4, 7);
        assert!(s.community(3).is_some());
        // Rebuild with node 3's membership zeroed (an appended node).
        let mut m = s.membership().unwrap().clone();
        m.row_mut(3).fill(0.0);
        let s2 = EmbeddingStore::new(s.embedding.clone(), Some(m));
        assert_eq!(s2.community(3), None);
        assert!(s2.membership_row(3).is_none());
        assert!(s2.community(4).is_some());
    }

    #[test]
    fn zero_and_degenerate_inputs() {
        let s = store(10, 4, 6);
        assert!(s.top_k(&[0.0; 4], 0, Metric::Cosine, None).is_empty());
        // All-zero query: cosine defined as 0 everywhere; still returns ids.
        let z = s.top_k(&[0.0; 4], 3, Metric::Cosine, None);
        assert_eq!(z.len(), 3);
        assert!(z.iter().all(|&(_, score)| score == 0.0));
    }
}
