//! A from-scratch HNSW (Hierarchical Navigable Small World) approximate
//! nearest-neighbor index over the embedding matrix.
//!
//! Implements the essentials of Malkov & Yashunin (2016) on top of the
//! `aneci-linalg` vector kernels:
//!
//! * geometric level assignment with multiplier `1 / ln(M)`;
//! * greedy descent through the upper layers, beam search (`ef`) at layer 0;
//! * the *select-neighbors heuristic* (Algorithm 4) with
//!   `keep_pruned_connections`, which keeps the graph navigable on
//!   clustered data;
//! * `M` links per node on upper layers, `2M` on layer 0.
//!
//! Everything is deterministic: the level RNG is seeded, insertion order is
//! node order, and all orderings use `f64::total_cmp` with ascending-id
//! tie-breaks. Building the same matrix with the same config twice yields
//! byte-identical link structure and therefore identical search results.
//!
//! Construction is parallel: nodes are inserted in fixed batches. Each
//! batch's candidate searches run concurrently on the persistent pool
//! against the graph *frozen* at the batch boundary (read-only), then the
//! links are applied serially in node order. Because each node's candidates
//! depend only on the frozen graph — never on scheduling — the built graph
//! is bit-identical across thread counts (and to a single-threaded build),
//! though not to the old one-node-at-a-time build.
//!
//! For cosine similarity the index stores L2-normalized copies of the rows
//! (zero rows stay zero, matching the `vector::cosine` convention that the
//! similarity involving a zero vector is 0), so search reduces to
//! maximum-inner-product over normalized vectors.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use aneci_linalg::pool;
use aneci_linalg::rng::seeded_rng;
use aneci_linalg::vector;
use aneci_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Nodes inserted per frozen-graph batch during construction. Larger batches
/// expose more parallelism but search a slightly staler graph; 32 keeps
/// recall on clustered data indistinguishable from sequential insertion.
const BUILD_BATCH: usize = 32;

use crate::store::{Metric, Scored};

/// Cached handles for `(serve.hnsw.hops, serve.hnsw.searches)`.
fn search_metrics() -> &'static (aneci_obs::Counter, aneci_obs::Counter) {
    static METRICS: std::sync::OnceLock<(aneci_obs::Counter, aneci_obs::Counter)> =
        std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        (
            aneci_obs::counter("serve.hnsw.hops"),
            aneci_obs::counter("serve.hnsw.searches"),
        )
    })
}

/// Construction parameters for [`HnswIndex`].
#[derive(Clone, Debug)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1 (layer 0 allows `2 * m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Seed for the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 200,
            seed: 0,
        }
    }
}

/// Max-heap entry ordered by similarity, ascending-id tie-break (lower id
/// wins a tie, so heap order — and thus the index — is fully deterministic).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cand {
    sim: f64,
    id: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim.total_cmp(&other.sim).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The built index. Cloning is a deep copy (vectors + link lists) — the
/// snapshot-swap path clones the live index, mutates the clone off to the
/// side, and publishes it atomically.
#[derive(Clone)]
pub struct HnswIndex {
    /// Row-per-node vectors; L2-normalized copies when `metric == Cosine`.
    vectors: DenseMatrix,
    metric: Metric,
    /// `links[node][layer]` — neighbor ids of `node` at `layer`
    /// (present for `layer <= level(node)`).
    links: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_layer: usize,
    m: usize,
    /// Beam width for incremental inserts/updates (the build-time value).
    ef_construction: usize,
    /// Seed the level stream was started from; [`Self::compact`] redraws
    /// the whole stream from here so rebuilt levels are deterministic.
    seed: u64,
    /// Level RNG positioned after the last drawn level, so incremental
    /// inserts continue the same stream a bigger build would have consumed.
    level_rng: StdRng,
    /// Tombstones: `deleted[id]` nodes are filtered from every search
    /// result but stay in the graph for navigation until [`Self::compact`].
    deleted: Vec<bool>,
    /// Deleted nodes still wired into the graph. Searches over-provision
    /// their beam by this much so recall over live nodes is preserved;
    /// `compact` resets it to zero.
    ghosts: usize,
}

impl HnswIndex {
    /// Builds the index over `embedding` (one node per row), inserting nodes
    /// in row order. Candidate searches run batched on the pool (see module
    /// docs); the result is bit-identical across thread counts.
    pub fn build(embedding: &DenseMatrix, metric: Metric, config: &HnswConfig) -> Self {
        assert!(config.m >= 2, "HNSW needs at least 2 links per node");
        assert!(config.ef_construction >= 1);
        aneci_linalg::simd::record_dispatch();
        let mut vectors = embedding.clone();
        if metric == Metric::Cosine {
            for r in 0..vectors.rows() {
                vector::normalize_inplace(vectors.row_mut(r));
            }
        }
        let n = vectors.rows();
        let mut index = Self {
            vectors,
            metric,
            links: Vec::with_capacity(n),
            entry: 0,
            max_layer: 0,
            m: config.m,
            ef_construction: config.ef_construction,
            seed: config.seed,
            level_rng: seeded_rng(config.seed),
            deleted: vec![false; n],
            ghosts: 0,
        };
        if n == 0 {
            return index;
        }

        // Levels are drawn up front in node order — the same RNG stream the
        // old sequential build consumed, so a given seed assigns the same
        // levels either way, and incremental inserts continue it.
        let levels: Vec<usize> = (0..n).map(|_| index.draw_level()).collect();

        // The first node has no graph to search: it just becomes the entry.
        index.links.push(vec![Vec::new(); levels[0] + 1]);
        index.entry = 0;
        index.max_layer = levels[0];

        let mut next = 1;
        while next < n {
            let batch_end = (next + BUILD_BATCH).min(n);
            // Phase 1: candidate searches against the frozen graph. Grain 1
            // → one node per chunk; results come back in node order, and
            // each depends only on the frozen graph, never on scheduling.
            let found: Vec<Vec<Vec<Cand>>> =
                pool::parallel_map_chunks(batch_end - next, 1, |lo, _hi| {
                    let node = (next + lo) as u32;
                    index.search_candidates(node, levels[node as usize], config.ef_construction)
                });
            // Phase 2: apply links serially in node order.
            for (i, per_layer) in found.iter().enumerate() {
                let node = (next + i) as u32;
                index.apply_insert(node, levels[node as usize], per_layer);
            }
            next = batch_end;
        }
        index
    }

    /// Number of indexed node slots, tombstoned ones included.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of live (non-tombstoned) nodes.
    pub fn live(&self) -> usize {
        self.links.len() - self.deleted.iter().filter(|&&d| d).count()
    }

    /// Whether `id` is tombstoned.
    pub fn is_deleted(&self, id: usize) -> bool {
        self.deleted.get(id).copied().unwrap_or(false)
    }

    /// Tombstoned nodes still wired into the navigation graph (reset to
    /// zero by [`Self::compact`]). Searches widen their beam by this much,
    /// so a large ghost count is the signal to compact.
    pub fn ghosts(&self) -> usize {
        self.ghosts
    }

    /// The metric the index was built for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// One geometric level draw from the stored stream.
    fn draw_level(&mut self) -> usize {
        let level_mult = 1.0 / (self.m as f64).ln();
        // u ∈ (0, 1]: never take ln(0).
        let u: f64 = 1.0 - self.level_rng.gen::<f64>();
        ((-u.ln() * level_mult).floor() as usize).min(16)
    }

    /// Similarity between a (pre-normalized, for cosine) query and a stored
    /// node. Both metrics reduce to a dot product here.
    #[inline]
    fn sim_to(&self, q: &[f64], node: u32) -> f64 {
        vector::dot(q, self.vectors.row(node as usize))
    }

    #[inline]
    fn sim_between(&self, a: u32, b: u32) -> f64 {
        vector::dot(self.vectors.row(a as usize), self.vectors.row(b as usize))
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Read-only half of an insert: greedy descent plus per-layer beam
    /// searches for `node` against the current (frozen) graph. Entry `i` of
    /// the result holds the candidates for layer `level.min(max_layer) - i`.
    fn search_candidates(&self, node: u32, level: usize, ef_construction: usize) -> Vec<Vec<Cand>> {
        let q = self.vectors.row(node as usize);
        let mut ep = vec![Cand {
            sim: self.sim_to(q, self.entry),
            id: self.entry,
        }];

        // Construction hops are not query telemetry; discard the count.
        let mut hops = 0u64;

        // Greedy descent through layers above the node's top level.
        let mut layer = self.max_layer;
        while layer > level {
            ep = self.search_layer(q, &ep, 1, layer, &mut hops);
            layer -= 1;
        }

        // Beam search from min(level, max_layer) down to 0, chaining the
        // found set as the next layer's entry points.
        let top = level.min(self.max_layer);
        let mut per_layer = Vec::with_capacity(top + 1);
        let mut l = top;
        loop {
            let found = self.search_layer(q, &ep, ef_construction, l, &mut hops);
            ep = found.clone();
            per_layer.push(found);
            if l == 0 {
                break;
            }
            l -= 1;
        }
        per_layer
    }

    /// Mutating half of an insert: wires `node` into the graph from the
    /// candidate lists produced by [`Self::search_candidates`].
    fn apply_insert(&mut self, node: u32, level: usize, per_layer: &[Vec<Cand>]) {
        self.links.push(Vec::new());
        self.place(node, level, per_layer);
    }

    /// Wires `node` (whose `links` slot already exists) into the graph at
    /// `level`, replacing any links the slot previously held.
    fn place(&mut self, node: u32, level: usize, per_layer: &[Vec<Cand>]) {
        self.links[node as usize] = vec![Vec::new(); level + 1];
        let top = per_layer.len() - 1;
        for (i, found) in per_layer.iter().enumerate() {
            let l = top - i;
            // A node never links to itself (candidates can contain `node`
            // when re-wiring an existing id in `update`), and a link at
            // layer `l` needs both endpoints to exist there (a borrowed
            // search entry in `update` may live only on lower layers).
            let cands: Vec<Cand> = found
                .iter()
                .filter(|c| c.id != node && self.links[c.id as usize].len() > l)
                .copied()
                .collect();
            let chosen = self.select_neighbors(&cands, self.m);
            for &nb in &chosen {
                self.links[node as usize][l].push(nb);
                self.links[nb as usize][l].push(node);
                let cap = self.max_links(l);
                if self.links[nb as usize][l].len() > cap {
                    self.shrink_links(nb, l, cap);
                }
            }
        }

        if level > self.max_layer {
            self.entry = node;
            self.max_layer = level;
        }
    }

    /// Inserts one new vector, returning its assigned id (`self.len() - 1`
    /// before the call). The level comes from the same seeded stream the
    /// build consumed, so "build n, insert m" draws the levels a build of
    /// `n + m` rows would. Cost: one `ef_construction` beam search plus an
    /// O(n·d) vector-matrix copy.
    pub fn insert(&mut self, vector: &[f64]) -> usize {
        assert_eq!(
            vector.len(),
            self.vectors.cols(),
            "insert dimension mismatch"
        );
        let id = self.links.len() as u32;
        let (rows, cols) = (self.vectors.rows(), self.vectors.cols());
        let mut data = std::mem::replace(&mut self.vectors, DenseMatrix::zeros(0, 0)).into_vec();
        data.extend_from_slice(vector);
        self.vectors = DenseMatrix::from_vec(rows + 1, cols, data);
        if self.metric == Metric::Cosine {
            vector::normalize_inplace(self.vectors.row_mut(rows));
        }
        self.deleted.push(false);
        let level = self.draw_level();
        if id == 0 {
            self.links.push(vec![Vec::new(); level + 1]);
            self.entry = 0;
            self.max_layer = level;
            return 0;
        }
        let per_layer = self.search_candidates(id, level, self.ef_construction);
        self.apply_insert(id, level, &per_layer);
        id as usize
    }

    /// Tombstones `id`: it disappears from every search result immediately
    /// but stays wired into the graph for navigation until [`Self::compact`].
    /// Returns `false` when `id` is out of range or already deleted.
    pub fn remove(&mut self, id: usize) -> bool {
        if id >= self.links.len() || self.deleted[id] {
            return false;
        }
        self.deleted[id] = true;
        self.ghosts += 1;
        true
    }

    /// Replaces the vector of an existing id and re-wires it at its current
    /// level: old links are detached on both sides, then the node is
    /// re-inserted from a fresh candidate search. A tombstoned id is
    /// revived.
    pub fn update(&mut self, id: usize, vector: &[f64]) {
        assert!(id < self.links.len(), "update of unknown id {id}");
        assert_eq!(
            vector.len(),
            self.vectors.cols(),
            "update dimension mismatch"
        );
        if self.deleted[id] {
            self.deleted[id] = false;
            self.ghosts -= 1;
        }
        let node = id as u32;
        // Detach both directions.
        for layer in 0..self.links[id].len() {
            for nb in std::mem::take(&mut self.links[id][layer]) {
                self.links[nb as usize][layer].retain(|&x| x != node);
            }
        }
        self.vectors.row_mut(id).copy_from_slice(vector);
        if self.metric == Metric::Cosine {
            vector::normalize_inplace(self.vectors.row_mut(id));
        }
        if self.links.len() == 1 {
            return;
        }
        let level = self.links[id].len() - 1;
        // The detached node can't be its own search entry; borrow another
        // one for the candidate search if it is.
        let saved_entry = self.entry;
        if self.entry == node {
            if let Some(alt) = (0..self.links.len()).find(|&i| i != id && !self.deleted[i]) {
                self.entry = alt as u32;
            } else {
                return; // every other node is tombstoned: leave it detached
            }
        }
        let per_layer = self.search_candidates(node, level, self.ef_construction);
        self.place(node, level, &per_layer);
        self.entry = saved_entry;
    }

    /// Rebuilds the link structure over live nodes only, dropping every
    /// tombstone from the graph (ids stay stable; tombstoned slots keep
    /// their `deleted` mark and simply become unreachable). Levels are
    /// redrawn deterministically from the stored seed, so two indexes with
    /// the same (seed, live set) compact to identical graphs.
    pub fn compact(&mut self) {
        if self.ghosts == 0 {
            return;
        }
        let n = self.links.len();
        let mut rng = seeded_rng(self.seed);
        let level_mult = 1.0 / (self.m as f64).ln();
        let levels: Vec<usize> = (0..n)
            .map(|_| {
                let u: f64 = 1.0 - rng.gen::<f64>();
                ((-u.ln() * level_mult).floor() as usize).min(16)
            })
            .collect();
        self.level_rng = rng;
        self.links = vec![Vec::new(); n];
        self.max_layer = 0;
        self.ghosts = 0;
        let live: Vec<usize> = (0..n).filter(|&i| !self.deleted[i]).collect();
        let Some(&first) = live.first() else {
            self.entry = 0;
            return;
        };
        self.links[first] = vec![Vec::new(); levels[first] + 1];
        self.entry = first as u32;
        self.max_layer = levels[first];
        for &id in &live[1..] {
            let per_layer = self.search_candidates(id as u32, levels[id], self.ef_construction);
            self.place(id as u32, levels[id], &per_layer);
        }
    }

    /// Re-selects `node`'s links at `layer` down to `cap` with the
    /// diversity heuristic.
    fn shrink_links(&mut self, node: u32, layer: usize, cap: usize) {
        let mut cands: Vec<Cand> = self.links[node as usize][layer]
            .iter()
            .map(|&nb| Cand {
                sim: self.sim_between(node, nb),
                id: nb,
            })
            .collect();
        cands.sort_unstable_by(|a, b| b.cmp(a));
        let kept = self.select_neighbors(&cands, cap);
        self.links[node as usize][layer] = kept;
    }

    /// Algorithm 4: pick up to `m` diverse neighbors from `cands` (sorted by
    /// descending similarity to the query). A candidate is accepted only if
    /// it is closer to the query than to every already-accepted neighbor;
    /// leftover slots are refilled with the best rejected candidates
    /// (`keep_pruned_connections`).
    fn select_neighbors(&self, cands: &[Cand], m: usize) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        let mut pruned: Vec<u32> = Vec::new();
        for c in cands {
            if selected.len() >= m {
                break;
            }
            let diverse = selected.iter().all(|&s| self.sim_between(c.id, s) < c.sim);
            if diverse {
                selected.push(c.id);
            } else {
                pruned.push(c.id);
            }
        }
        for id in pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(id);
        }
        selected
    }

    /// Beam search at one layer: returns up to `ef` best nodes, sorted by
    /// descending similarity (ascending-id tie-breaks). Each expanded
    /// frontier node counts as one hop in `hops`.
    fn search_layer(
        &self,
        q: &[f64],
        entries: &[Cand],
        ef: usize,
        layer: usize,
        hops: &mut u64,
    ) -> Vec<Cand> {
        let mut visited = vec![false; self.links.len()];
        // Max-heap of frontier nodes; min-heap (via Reverse) of best-so-far.
        let mut frontier: BinaryHeap<Cand> = BinaryHeap::new();
        let mut best: BinaryHeap<std::cmp::Reverse<Cand>> = BinaryHeap::new();
        for &e in entries {
            if !visited[e.id as usize] {
                visited[e.id as usize] = true;
                frontier.push(e);
                best.push(std::cmp::Reverse(e));
                if best.len() > ef {
                    best.pop();
                }
            }
        }

        while let Some(c) = frontier.pop() {
            let worst = best.peek().map(|r| r.0.sim).unwrap_or(f64::NEG_INFINITY);
            if best.len() >= ef && c.sim < worst {
                break;
            }
            *hops += 1;
            let neighbors = &self.links[c.id as usize];
            if layer >= neighbors.len() {
                continue;
            }
            for &nb in &neighbors[layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                let sim = self.sim_to(q, nb);
                let worst = best.peek().map(|r| r.0.sim).unwrap_or(f64::NEG_INFINITY);
                if best.len() < ef || sim > worst {
                    let cand = Cand { sim, id: nb };
                    frontier.push(cand);
                    best.push(std::cmp::Reverse(cand));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }

        let mut out: Vec<Cand> = best.into_iter().map(|r| r.0).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out
    }

    /// Approximate top-`k` search. `ef` is the layer-0 beam width (clamped
    /// up to `k`); larger `ef` trades latency for recall. `exclude` drops
    /// one id from the result — used for node self-queries.
    pub fn search(
        &self,
        query: &[f64],
        k: usize,
        ef: usize,
        exclude: Option<usize>,
    ) -> Vec<Scored> {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        assert_eq!(query.len(), self.vectors.cols(), "query dimension mismatch");
        let mut q = query.to_vec();
        if self.metric == Metric::Cosine {
            vector::normalize_inplace(&mut q);
        }

        let mut hops = 0u64;
        let mut ep = vec![Cand {
            sim: self.sim_to(&q, self.entry),
            id: self.entry,
        }];
        for layer in (1..=self.max_layer).rev() {
            ep = self.search_layer(&q, &ep, 1, layer, &mut hops);
        }
        // One extra beam slot covers a possible excluded id; `ghosts` more
        // cover tombstones still wired into the graph, so filtering them
        // out below cannot cost live recall.
        let beam = ef.max(k) + usize::from(exclude.is_some()) + self.ghosts;
        let found = self.search_layer(&q, &ep, beam, 0, &mut hops);
        // Search is deterministic, and hop totals add commutatively, so
        // these counters stay in the deterministic snapshot view.
        search_metrics().0.add(hops);
        search_metrics().1.inc();
        found
            .into_iter()
            .filter(|c| Some(c.id as usize) != exclude && !self.deleted[c.id as usize])
            .take(k)
            .map(|c| (c.id as usize, c.sim))
            .collect()
    }
}

/// Fraction of `exact` ids recovered by `approx` — the recall@k that the
/// tests, `bench_report --dynamic` and `bench_e2e` gate on.
pub fn recall_at_k(exact: &[Scored], approx: &[Scored]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact
        .iter()
        .filter(|(id, _)| approx.iter().any(|(a, _)| a == id))
        .count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EmbeddingStore;
    use aneci_linalg::rng::{seeded_rng, standard_normal};

    /// A clustered point cloud: `per_cluster` points around each of
    /// `centers` well-separated centroids — the regime ANN indexes exist for.
    fn clustered(centers: usize, per_cluster: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = seeded_rng(seed);
        let centroids: Vec<Vec<f64>> = (0..centers)
            .map(|_| (0..d).map(|_| 4.0 * standard_normal(&mut rng)).collect())
            .collect();
        DenseMatrix::from_fn(centers * per_cluster, d, |r, c| {
            centroids[r / per_cluster][c] + 0.5 * standard_normal(&mut rng)
        })
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered(8, 50, 16, 1);
        let store = EmbeddingStore::new(data.clone(), None);
        let index = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());

        let mut total = 0.0;
        let queries = 40;
        for qi in 0..queries {
            let node = qi * 9 % data.rows();
            let exact = store.top_k_node(node, 10, Metric::Cosine);
            let approx = index.search(data.row(node), 10, 64, Some(node));
            total += recall_at_k(&exact, &approx);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.95, "recall@10 = {recall}");
    }

    #[test]
    fn deterministic_build_and_search() {
        let data = clustered(4, 30, 8, 2);
        let cfg = HnswConfig::default();
        let a = HnswIndex::build(&data, Metric::Cosine, &cfg);
        let b = HnswIndex::build(&data, Metric::Cosine, &cfg);
        assert_eq!(a.links, b.links, "same seed must give identical graphs");
        assert_eq!(a.entry, b.entry);
        for node in [0usize, 17, 63, 119] {
            assert_eq!(
                a.search(data.row(node), 5, 32, Some(node)),
                b.search(data.row(node), 5, 32, Some(node))
            );
        }
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        pool::force_pool();
        let data = clustered(4, 40, 8, 7);
        let cfg = HnswConfig::default();
        pool::set_num_threads(1);
        let serial = HnswIndex::build(&data, Metric::Cosine, &cfg);
        pool::set_num_threads(4);
        let pooled = HnswIndex::build(&data, Metric::Cosine, &cfg);
        assert_eq!(serial.links, pooled.links);
        assert_eq!(serial.entry, pooled.entry);
        assert_eq!(serial.max_layer, pooled.max_layer);
    }

    #[test]
    fn dot_metric_and_scores_match_store_scoring() {
        let data = clustered(3, 20, 6, 3);
        let store = EmbeddingStore::new(data.clone(), None);
        let index = HnswIndex::build(&data, Metric::Dot, &HnswConfig::default());
        let hits = index.search(data.row(0), 5, 60, None);
        assert!(!hits.is_empty());
        // Every reported dot-product score is exact (ANN only approximates
        // *which* neighbors, never their scores).
        for &(id, score) in &hits {
            let exact = aneci_linalg::vector::dot(data.row(0), data.row(id));
            assert_eq!(score, exact);
        }
        // With a generous beam on a tiny set, top-1 matches the exact path.
        let exact_top = store.top_k(data.row(0), 1, Metric::Dot, None);
        assert_eq!(hits[0].0, exact_top[0].0);
    }

    #[test]
    fn tiny_and_degenerate_indexes() {
        let one = DenseMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let idx = HnswIndex::build(&one, Metric::Cosine, &HnswConfig::default());
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&[1.0, 0.0, 0.0], 5, 10, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        assert!(idx.search(&[1.0, 0.0, 0.0], 5, 10, Some(0)).is_empty());

        let empty = DenseMatrix::zeros(0, 3);
        let idx = HnswIndex::build(&empty, Metric::Cosine, &HnswConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 3], 5, 10, None).is_empty());
    }

    #[test]
    fn incremental_insert_matches_batch_levels_and_keeps_recall() {
        let data = clustered(6, 40, 12, 4);
        let cfg = HnswConfig::default();
        // Build over the first 200 rows, insert the remaining 40.
        let head = DenseMatrix::from_fn(200, 12, |r, c| data.get(r, c));
        let mut index = HnswIndex::build(&head, Metric::Cosine, &cfg);
        for r in 200..data.rows() {
            let id = index.insert(data.row(r));
            assert_eq!(id, r);
        }
        assert_eq!(index.len(), data.rows());

        let store = EmbeddingStore::new(data.clone(), None);
        let mut total = 0.0;
        let queries = 40;
        for qi in 0..queries {
            let node = qi * 7 % data.rows();
            let exact = store.top_k_node(node, 10, Metric::Cosine);
            let approx = index.search(data.row(node), 10, 64, Some(node));
            total += recall_at_k(&exact, &approx);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.95, "post-insert recall@10 = {recall}");
    }

    #[test]
    fn remove_tombstones_and_compact_preserve_recall() {
        let data = clustered(6, 40, 12, 5);
        let cfg = HnswConfig::default();
        let mut index = HnswIndex::build(&data, Metric::Cosine, &cfg);
        // Delete 20% of the nodes.
        let removed: Vec<usize> = (0..data.rows()).filter(|i| i % 5 == 0).collect();
        for &id in &removed {
            assert!(index.remove(id));
            assert!(!index.remove(id), "double-remove must report false");
        }
        assert_eq!(index.ghosts(), removed.len());
        assert_eq!(index.live(), data.rows() - removed.len());

        // Exact reference over the live set only.
        let check = |index: &HnswIndex| {
            let store = EmbeddingStore::new(data.clone(), None);
            let mut total = 0.0;
            let queries = 30;
            for qi in 0..queries {
                let node = qi * 11 % data.rows();
                let exact: Vec<Scored> = store
                    .top_k_node(node, 10 + removed.len(), Metric::Cosine)
                    .into_iter()
                    .filter(|&(id, _)| !removed.contains(&id))
                    .take(10)
                    .collect();
                let approx = index.search(data.row(node), 10, 64, Some(node));
                assert!(
                    approx.iter().all(|&(id, _)| !removed.contains(&id)),
                    "tombstoned id in results"
                );
                total += recall_at_k(&exact, &approx);
            }
            total / queries as f64
        };
        let recall = check(&index);
        assert!(recall >= 0.95, "post-delete recall@10 = {recall}");

        index.compact();
        assert_eq!(index.ghosts(), 0);
        assert_eq!(index.live(), data.rows() - removed.len());
        let recall = check(&index);
        assert!(recall >= 0.95, "post-compact recall@10 = {recall}");

        // Compaction is deterministic in (seed, live set).
        let mut other = HnswIndex::build(&data, Metric::Cosine, &cfg);
        for &id in &removed {
            other.remove(id);
        }
        other.compact();
        assert_eq!(index.links, other.links);
        assert_eq!(index.entry, other.entry);
    }

    #[test]
    fn update_rewires_and_revives() {
        let data = clustered(4, 30, 8, 6);
        let mut index = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        // Move node 5 exactly onto node 77's vector: it must become 77's
        // nearest neighbor.
        index.update(5, data.row(77));
        let hits = index.search(data.row(77), 3, 64, Some(77));
        assert_eq!(hits[0].0, 5, "updated node should be the top hit");
        assert!((hits[0].1 - 1.0).abs() < 1e-12);

        // A removed node revived by update serves again.
        index.remove(9);
        assert!(index
            .search(data.row(9), 120, 256, None)
            .iter()
            .all(|&(id, _)| id != 9));
        index.update(9, data.row(9));
        assert_eq!(index.ghosts(), 0);
        let hits = index.search(data.row(9), 1, 64, None);
        assert_eq!(hits[0].0, 9);
    }

    #[test]
    fn single_node_index_survives_incremental_ops() {
        let one = DenseMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let mut idx = HnswIndex::build(&one, Metric::Cosine, &HnswConfig::default());
        idx.update(0, &[0.0, 1.0, 0.0]);
        let id = idx.insert(&[0.0, 0.9, 0.1]);
        assert_eq!(id, 1);
        let hits = idx.search(&[0.0, 1.0, 0.0], 2, 10, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        idx.remove(0);
        let hits = idx.search(&[0.0, 1.0, 0.0], 2, 10, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let exact = vec![(1usize, 0.9), (2, 0.8), (3, 0.7)];
        let approx = vec![(1usize, 0.9), (3, 0.7), (9, 0.1)];
        assert!((recall_at_k(&exact, &approx) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&[], &approx), 1.0);
    }
}
