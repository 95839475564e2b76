//! A from-scratch HNSW (Hierarchical Navigable Small World) approximate
//! nearest-neighbor index over one generation's embedding rows.
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
//! Link storage is flat. Layer 0, which holds every node, is one strided
//! `Vec<u32>`: per node a count and `2M + 1` slots (a list may hold one
//! link over its cap until it is shrunk). The upper layers, which about one
//! node in `M` reaches, live in a second strided `Vec<u32>` of `M + 2`-slot
//! blocks, one block per layer a node reaches. Cloning the index — which
//! every snapshot update does — is therefore a handful of `memcpy`s with no
//! per-node allocation.
//!
//! The index keeps links only. Its rows — the embedding, the per-row L2
//! norms and the tombstone mask — belong to the [`EmbeddingStore`] it was
//! built or updated with, shared through one `Arc`, and it scores with the
//! store's own formula: `cosine_with_norms(dot(q, row), ‖q‖, norm[row])`
//! for cosine (0 when either vector is zero), `dot(q, row)` for dot. A
//! reported score is therefore the exact scan's score for that id, bit for
//! bit; only which neighbors are found is approximate.
//!
//! Deletes are the store's tombstones (as in hnswlib's mark-delete): a
//! tombstoned node stays wired into the graph as a *ghost*, and searches
//! walk through it, but the layer-0 beam counts only live nodes toward its
//! `ef` best, so a churned index answers with the beam width of a clean
//! one. A snapshot update derives the next generation's index with
//! `HnswIndex::successor`, which rewires the ids the update wrote and
//! rebuilds the graph over the live nodes once ghosts pile up.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use aneci_linalg::pool;
use aneci_linalg::rng::seeded_rng;
use aneci_linalg::vector;
use rand::rngs::StdRng;
use rand::Rng;

/// Nodes inserted per frozen-graph batch during construction. Larger batches
/// expose more parallelism but search a slightly staler graph; 32 keeps
/// recall on clustered data indistinguishable from sequential insertion.
const BUILD_BATCH: usize = 32;

use crate::store::{EmbeddingStore, Metric, Rows, Scored};

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

/// One search's scratch across its layers: the nodes the current layer's
/// beam has reached, and the frontier nodes expanded so far. A search
/// allocates one for all its layers; a node counts as reached when its
/// stamp is the current layer's, so moving to the next layer unmarks every
/// node without touching them.
struct Walk {
    stamps: Vec<u8>,
    layer: u8,
    hops: u64,
}

impl Walk {
    fn new(nodes: usize) -> Self {
        Self {
            stamps: vec![0; nodes],
            layer: 0,
            hops: 0,
        }
    }

    /// Starts the next layer with no node reached.
    fn next_layer(&mut self) {
        // A search visits at most 17 layers (levels are capped at 16).
        self.layer = self
            .layer
            .checked_add(1)
            .expect("at most 17 layers a search");
    }

    /// Marks `id`; `false` when it was already marked on this layer.
    fn mark(&mut self, id: u32) -> bool {
        let stamp = &mut self.stamps[id as usize];
        if *stamp == self.layer {
            return false;
        }
        *stamp = self.layer;
        true
    }
}

/// The built index: links over the rows of one [`EmbeddingStore`]
/// generation, which it shares. Cloning copies the flat link storage and
/// the per-node level and wiring state — a few contiguous buffers, no
/// per-node allocation — and shares the rows.
#[derive(Clone)]
pub struct HnswIndex {
    /// The generation's rows, shared with its store: the vectors scored,
    /// their norms, and the tombstone mask that decides which nodes are
    /// live.
    rows: Arc<Rows>,
    metric: Metric,
    /// Layer-0 links, [`Self::stride0`] entries per node: the link count,
    /// then the ids in stored order.
    layer0: Vec<u32>,
    /// Links on layers ≥ 1, [`Self::stride_up`] entries per block, one
    /// block per layer `1..=level` of each node, starting at block
    /// `upper_at[node]`.
    upper: Vec<u32>,
    /// Drawn level of every node (the top layer it is wired into).
    levels: Vec<u8>,
    /// First upper block of every node (unused at level 0).
    upper_at: Vec<u32>,
    /// Whether each node is wired into the graph. Only a node that
    /// [`Self::compact`] left out, tombstoned, is not: no links,
    /// unreachable, at the level `compact` drew for it.
    wired: Vec<bool>,
    entry: u32,
    max_layer: usize,
    m: usize,
    /// Beam width for appends and rewires (the build-time value).
    ef_construction: usize,
    /// Seed the level stream was started from; [`Self::compact`] redraws
    /// the whole stream from here so rebuilt levels are deterministic.
    seed: u64,
    /// Level RNG positioned after the last drawn level, so appends
    /// continue the same stream a bigger build would have consumed.
    level_rng: StdRng,
    /// Tombstoned nodes still wired into the graph; `compact` resets it
    /// to zero.
    ghosts: usize,
}

impl HnswIndex {
    /// Builds the index over `store`'s rows (one node per row), inserting
    /// nodes in row order. Every row is wired, tombstoned ones included:
    /// they start as ghosts. Candidate searches run batched on the pool
    /// (see module docs); the result is bit-identical across thread counts.
    pub fn build(store: &EmbeddingStore, metric: Metric, config: &HnswConfig) -> Self {
        assert!(config.m >= 2, "HNSW needs at least 2 links per node");
        assert!(config.ef_construction >= 1);
        aneci_linalg::simd::record_dispatch();
        let rows = Arc::clone(store.rows());
        let n = rows.len();
        let mut index = Self {
            rows,
            metric,
            layer0: Vec::with_capacity(n * (2 * config.m + 2)),
            upper: Vec::new(),
            levels: Vec::with_capacity(n),
            upper_at: Vec::with_capacity(n),
            wired: Vec::with_capacity(n),
            entry: 0,
            max_layer: 0,
            m: config.m,
            ef_construction: config.ef_construction,
            seed: config.seed,
            level_rng: seeded_rng(config.seed),
            ghosts: 0,
        };
        if n == 0 {
            return index;
        }

        // Levels are drawn up front in node order — the same RNG stream the
        // old sequential build consumed, so a given seed assigns the same
        // levels either way, and appends continue it.
        let levels: Vec<usize> = (0..n).map(|_| index.draw_level()).collect();

        // The first node has no graph to search: it just becomes the entry.
        index.push_slot(levels[0], true);
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
                index.push_slot(levels[node as usize], true);
                index.place(node, levels[node as usize], per_layer);
            }
            next = batch_end;
        }
        index.ghosts = index.count_ghosts();
        index
    }

    /// Number of indexed node slots, tombstoned ones included.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Tombstoned nodes still wired into the navigation graph (reset to
    /// zero when the graph is compacted). Searches walk through them without
    /// counting them, so they cost hops, not beam width; the snapshot
    /// update path compacts once they exceed its `compact_threshold`.
    pub fn ghosts(&self) -> usize {
        self.ghosts
    }

    /// Wired nodes the rows' mask tombstones.
    fn count_ghosts(&self) -> usize {
        (0..self.len())
            .filter(|&i| self.wired[i] && self.rows.is_deleted(i))
            .count()
    }

    /// The rows the index shares with its store.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &Arc<Rows> {
        &self.rows
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

    /// Entries per node in `layer0`: the count, then `2m + 1` link slots.
    fn stride0(&self) -> usize {
        2 * self.m + 2
    }

    /// Entries per block in `upper`: the count, then `m + 1` link slots.
    fn stride_up(&self) -> usize {
        self.m + 2
    }

    /// Appends a slot at `level` with empty link lists on every layer.
    fn push_slot(&mut self, level: usize, wired: bool) {
        let stride_up = self.stride_up();
        self.wired.push(wired);
        self.levels.push(level as u8);
        self.upper_at.push((self.upper.len() / stride_up) as u32);
        self.upper.resize(self.upper.len() + level * stride_up, 0);
        self.layer0.resize(self.layer0.len() + self.stride0(), 0);
    }

    /// Layers `node` is wired into (0 for a slot `compact` left unwired).
    fn layer_count(&self, node: usize) -> usize {
        if self.wired[node] {
            usize::from(self.levels[node]) + 1
        } else {
            0
        }
    }

    /// Offset in `layer0` (layer 0) or `upper` of `node`'s list at `layer`:
    /// its count, followed by the ids.
    fn list_at(&self, node: usize, layer: usize) -> usize {
        if layer == 0 {
            node * self.stride0()
        } else {
            (self.upper_at[node] as usize + layer - 1) * self.stride_up()
        }
    }

    /// `node`'s links at `layer`, in stored order.
    fn neighbors(&self, node: usize, layer: usize) -> &[u32] {
        let at = self.list_at(node, layer);
        let store = if layer == 0 {
            &self.layer0
        } else {
            &self.upper
        };
        &store[at + 1..at + 1 + store[at] as usize]
    }

    /// `node`'s list at `layer` as count-then-slots, for writing.
    fn list_mut(&mut self, node: usize, layer: usize) -> &mut [u32] {
        let at = self.list_at(node, layer);
        if layer == 0 {
            let stride = self.stride0();
            &mut self.layer0[at..at + stride]
        } else {
            let stride = self.stride_up();
            &mut self.upper[at..at + stride]
        }
    }

    /// Replaces `node`'s links at `layer` with `ids`.
    fn set_links(&mut self, node: usize, layer: usize, ids: &[u32]) {
        let list = self.list_mut(node, layer);
        list[0] = ids.len() as u32;
        list[1..=ids.len()].copy_from_slice(ids);
    }

    /// Appends `id` to `node`'s links at `layer`; the list must be at most
    /// at its cap, so the slot one past it is free.
    fn push_link(&mut self, node: usize, layer: usize, id: u32) {
        let list = self.list_mut(node, layer);
        let len = list[0] as usize;
        list[len + 1] = id;
        list[0] += 1;
    }

    /// Drops `id` from `node`'s links at `layer`, keeping the others'
    /// order.
    fn unlink(&mut self, node: usize, layer: usize, id: u32) {
        let list = self.list_mut(node, layer);
        let len = list[0] as usize;
        let mut kept = 1;
        for i in 1..=len {
            if list[i] != id {
                list[kept] = list[i];
                kept += 1;
            }
        }
        list[0] = (kept - 1) as u32;
    }

    /// Similarity between a query of L2 norm `qn` and a stored node: the
    /// store's scoring formula.
    #[inline]
    fn sim_to(&self, q: &[f64], qn: f64, node: u32) -> f64 {
        self.rows.score(q, qn, node as usize, self.metric)
    }

    #[inline]
    fn sim_between(&self, a: u32, b: u32) -> f64 {
        let a = a as usize;
        self.sim_to(self.rows.row(a), self.rows.norm(a), b)
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
        let (q, qn) = (self.rows.row(node as usize), self.rows.norm(node as usize));
        let mut ep = vec![Cand {
            sim: self.sim_to(q, qn, self.entry),
            id: self.entry,
        }];

        // Construction hops are not query telemetry; the walk's count is
        // dropped with it.
        let mut walk = Walk::new(self.len());

        // Greedy descent through layers above the node's top level.
        let mut layer = self.max_layer;
        while layer > level {
            ep = self.search_layer((q, qn), &ep, 1, layer, false, &mut walk);
            layer -= 1;
        }

        // Beam search from min(level, max_layer) down to 0, chaining the
        // found set as the next layer's entry points. Tombstones count like
        // live nodes here: they stay linkable until `compact`.
        let top = level.min(self.max_layer);
        let mut per_layer = Vec::with_capacity(top + 1);
        let mut l = top;
        loop {
            let found = self.search_layer((q, qn), &ep, ef_construction, l, false, &mut walk);
            ep = found.clone();
            per_layer.push(found);
            if l == 0 {
                break;
            }
            l -= 1;
        }
        per_layer
    }

    /// Wires `node` into the graph at `level` from the candidate lists
    /// produced by [`Self::search_candidates`], replacing any links it
    /// held.
    fn place(&mut self, node: u32, level: usize, per_layer: &[Vec<Cand>]) {
        for l in 0..=level {
            self.set_links(node as usize, l, &[]);
        }
        let top = per_layer.len() - 1;
        for (i, found) in per_layer.iter().enumerate() {
            let l = top - i;
            // A node never links to itself (candidates can contain `node`
            // when re-wiring an existing id), and a link at layer `l`
            // needs both endpoints to exist there (a borrowed search entry
            // in `rewire` may live only on lower layers).
            let cands: Vec<Cand> = found
                .iter()
                .filter(|c| c.id != node && self.layer_count(c.id as usize) > l)
                .copied()
                .collect();
            let chosen = self.select_neighbors(&cands, self.m);
            let cap = self.max_links(l);
            for &nb in &chosen {
                self.push_link(node as usize, l, nb);
                self.push_link(nb as usize, l, node);
                if self.neighbors(nb as usize, l).len() > cap {
                    self.shrink_links(nb, l, cap);
                }
            }
        }

        if level > self.max_layer {
            self.entry = node;
            self.max_layer = level;
        }
    }

    /// Whether the graph has no wired node to search from: empty, or every
    /// slot left unwired by [`Self::compact`].
    fn unrooted(&self) -> bool {
        self.wired.get(self.entry as usize).is_none_or(|&w| !w)
    }

    /// The index over `store`, this index's store after one update (see
    /// `EmbeddingStore::patched`), whose upserts wrote the ids `written`
    /// in order. The copy shares the new rows and wires each written id
    /// once, at its final row: an id past the last node is appended, with
    /// its level drawn from the stream the build consumed (so "build n,
    /// append m" draws the levels a build of `n + m` rows would); an
    /// existing one is detached and wired again, or, if [`Self::compact`]
    /// left it unwired, wired in at the level `compact` drew for it.
    /// Deletes need no rewiring: the store's mask makes their nodes
    /// ghosts. Once ghosts exceed `compact_threshold` of the nodes, the
    /// graph is compacted.
    pub(crate) fn successor(
        &self,
        store: &EmbeddingStore,
        written: impl IntoIterator<Item = usize>,
        compact_threshold: f64,
    ) -> Self {
        let mut next = self.clone();
        next.rows = Arc::clone(store.rows());
        let mut seen = BTreeSet::new();
        for id in written.into_iter().filter(|&id| seen.insert(id)) {
            if id < next.len() {
                next.rewire(id);
            } else {
                next.append();
            }
        }
        assert_eq!(next.len(), next.rows.len(), "every appended row is written");
        next.ghosts = next.count_ghosts();
        if next.ghosts as f64 > compact_threshold * next.len() as f64 {
            next.compact();
        }
        next
    }

    /// Wires the first row past the last node in as a new node. Cost: one
    /// `ef_construction` beam search.
    fn append(&mut self) {
        let id = self.len() as u32;
        let level = self.draw_level();
        let unrooted = self.unrooted();
        self.push_slot(level, true);
        if unrooted {
            self.entry = id;
            self.max_layer = level;
            return;
        }
        let per_layer = self.search_candidates(id, level, self.ef_construction);
        self.place(id, level, &per_layer);
    }

    /// Wires `id` again at its level from a fresh candidate search against
    /// its current row: its old links are detached on both sides first,
    /// unless [`Self::compact`] left it unwired.
    fn rewire(&mut self, id: usize) {
        let node = id as u32;
        let level = usize::from(self.levels[id]);
        let unrooted = self.unrooted();
        if std::mem::replace(&mut self.wired[id], true) {
            // Detach both directions.
            for layer in 0..=level {
                let old = self.neighbors(id, layer).to_vec();
                self.set_links(id, layer, &[]);
                for nb in old {
                    self.unlink(nb as usize, layer, node);
                }
            }
        }
        if unrooted {
            // No wired node to search from: this one roots the graph.
            self.entry = node;
            self.max_layer = level;
            return;
        }
        if self.len() == 1 {
            return;
        }
        // The detached node can't be its own search entry; borrow a wired
        // live one for the candidate search if it is.
        let borrowed = self.entry == node;
        if borrowed {
            match (0..self.len()).find(|&i| i != id && self.wired[i] && !self.rows.is_deleted(i)) {
                Some(alt) => self.entry = alt as u32,
                None => return, // every other node is tombstoned: leave it detached
            }
        }
        let per_layer = self.search_candidates(node, level, self.ef_construction);
        self.place(node, level, &per_layer);
        if borrowed {
            self.entry = node;
        }
    }

    /// Rebuilds the link structure over live nodes only, dropping every
    /// ghost from the graph (ids stay stable; tombstoned nodes are left
    /// unwired and simply unreachable). Levels are redrawn
    /// deterministically from the stored seed, so two indexes with the
    /// same (seed, live set) compact to identical graphs.
    fn compact(&mut self) {
        let n = self.len();
        self.level_rng = seeded_rng(self.seed);
        let levels: Vec<usize> = (0..n).map(|_| self.draw_level()).collect();
        self.levels.clear();
        self.upper_at.clear();
        self.upper.clear();
        self.layer0.clear();
        self.wired.clear();
        for (id, &level) in levels.iter().enumerate() {
            self.push_slot(level, !self.rows.is_deleted(id));
        }
        self.max_layer = 0;
        self.ghosts = 0;
        let live: Vec<usize> = (0..n).filter(|&i| self.wired[i]).collect();
        let Some(&first) = live.first() else {
            self.entry = 0;
            return;
        };
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
        let mut cands: Vec<Cand> = self
            .neighbors(node as usize, layer)
            .iter()
            .map(|&nb| Cand {
                sim: self.sim_between(node, nb),
                id: nb,
            })
            .collect();
        cands.sort_unstable_by(|a, b| b.cmp(a));
        let kept = self.select_neighbors(&cands, cap);
        self.set_links(node as usize, layer, &kept);
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

    /// Beam search at one layer for the query `q` of L2 norm `qn`: returns
    /// up to `ef` best nodes, sorted by descending similarity
    /// (ascending-id tie-breaks). Each expanded
    /// frontier node counts as one hop in `walk.hops`.
    ///
    /// With `live_only`, tombstoned nodes are walked through like any other
    /// but never enter the `ef` best, so the beam fills with live nodes and
    /// the walk runs on past tombstones until it has `ef` of them (or the
    /// frontier empties). With no tombstone reachable, both modes take the
    /// same steps.
    ///
    /// `walk` is the calling search's scratch, sized to the index; each call
    /// starts it on a layer of its own.
    fn search_layer(
        &self,
        (q, qn): (&[f64], f64),
        entries: &[Cand],
        ef: usize,
        layer: usize,
        live_only: bool,
        walk: &mut Walk,
    ) -> Vec<Cand> {
        let counted = |id: u32| !live_only || !self.rows.is_deleted(id as usize);
        walk.next_layer();
        // Max-heap of frontier nodes; min-heap (via Reverse) of best-so-far.
        let mut frontier: BinaryHeap<Cand> = BinaryHeap::new();
        let mut best: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
        for &e in entries {
            if walk.mark(e.id) {
                frontier.push(e);
                if counted(e.id) {
                    best.push(Reverse(e));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }

        while let Some(c) = frontier.pop() {
            let worst = best.peek().map(|r| r.0.sim).unwrap_or(f64::NEG_INFINITY);
            if best.len() >= ef && c.sim < worst {
                break;
            }
            walk.hops += 1;
            if layer >= self.layer_count(c.id as usize) {
                continue;
            }
            for &nb in self.neighbors(c.id as usize, layer) {
                if !walk.mark(nb) {
                    continue;
                }
                let sim = self.sim_to(q, qn, nb);
                let worst = best.peek().map(|r| r.0.sim).unwrap_or(f64::NEG_INFINITY);
                if best.len() < ef || sim > worst {
                    let cand = Cand { sim, id: nb };
                    frontier.push(cand);
                    if counted(nb) {
                        best.push(Reverse(cand));
                        if best.len() > ef {
                            best.pop();
                        }
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
    /// one id from the result — used for node self-queries. Tombstoned
    /// nodes are never returned.
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
        let mut hops = 0u64;
        let hits = self.search_hops(query, k, ef, exclude, &mut hops);
        // Search is deterministic, and hop totals add commutatively, so
        // these counters stay in the deterministic snapshot view.
        search_metrics().0.add(hops);
        search_metrics().1.inc();
        hits
    }

    /// [`Self::search`] on a non-empty index with `k ≥ 1`, adding the
    /// frontier nodes it expands to `hops`.
    fn search_hops(
        &self,
        query: &[f64],
        k: usize,
        ef: usize,
        exclude: Option<usize>,
        hops: &mut u64,
    ) -> Vec<Scored> {
        assert_eq!(query.len(), self.rows.dim(), "query dimension mismatch");
        let qn = vector::norm2(query);
        let mut ep = vec![Cand {
            sim: self.sim_to(query, qn, self.entry),
            id: self.entry,
        }];
        let mut walk = Walk::new(self.len());
        for layer in (1..=self.max_layer).rev() {
            ep = self.search_layer((query, qn), &ep, 1, layer, false, &mut walk);
        }
        // One extra beam slot covers a possible excluded id. Tombstones
        // need none: the layer-0 beam counts live nodes only.
        let beam = ef.max(k) + usize::from(exclude.is_some());
        let found = self.search_layer((query, qn), &ep, beam, 0, true, &mut walk);
        *hops += walk.hops;
        found
            .into_iter()
            .filter(|c| Some(c.id as usize) != exclude)
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
    use crate::snapshot::SnapshotUpdate;
    use aneci_linalg::golden::{self, Fixture};
    use aneci_linalg::rng::{seeded_rng, standard_normal};
    use aneci_linalg::DenseMatrix;

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

    /// Every node's links per layer, in stored order.
    fn links(index: &HnswIndex) -> Vec<Vec<Vec<u32>>> {
        (0..index.len())
            .map(|node| {
                (0..index.layer_count(node))
                    .map(|l| index.neighbors(node, l).to_vec())
                    .collect()
            })
            .collect()
    }

    /// A store and its cosine index, moved forward one update at a time
    /// through the two writes of a snapshot update:
    /// `EmbeddingStore::patched`, then [`HnswIndex::successor`].
    struct Generation {
        store: EmbeddingStore,
        index: HnswIndex,
    }

    impl Generation {
        fn build(data: &DenseMatrix, config: &HnswConfig) -> Self {
            let store = EmbeddingStore::new(data.clone(), None);
            let index = HnswIndex::build(&store, Metric::Cosine, config);
            Self { store, index }
        }

        /// Applies `update`, compacting once ghosts exceed `threshold` of
        /// the nodes.
        fn apply_at(&mut self, update: &SnapshotUpdate, threshold: f64) {
            self.store = self.store.patched(update);
            let written = update.upserts.iter().map(|up| up.node);
            self.index = self.index.successor(&self.store, written, threshold);
        }

        /// Applies `update` without compacting.
        fn apply(&mut self, update: &SnapshotUpdate) {
            self.apply_at(update, 1.0);
        }

        fn upsert(&mut self, id: usize, vector: &[f64]) {
            self.apply(&SnapshotUpdate::new().upsert(id, vector.to_vec()));
        }

        fn delete(&mut self, ids: impl IntoIterator<Item = usize>) {
            self.apply(
                &ids.into_iter()
                    .fold(SnapshotUpdate::new(), SnapshotUpdate::delete),
            );
        }

        /// Compacts when any ghost is wired in.
        fn compact(&mut self) {
            self.apply_at(&SnapshotUpdate::new(), 0.0);
        }
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered(8, 50, 16, 1);
        let store = EmbeddingStore::new(data.clone(), None);
        let index = HnswIndex::build(&store, Metric::Cosine, &HnswConfig::default());

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
        let store = EmbeddingStore::new(data.clone(), None);
        let cfg = HnswConfig::default();
        let a = HnswIndex::build(&store, Metric::Cosine, &cfg);
        let b = HnswIndex::build(&store, Metric::Cosine, &cfg);
        assert_eq!(links(&a), links(&b), "same seed must give identical graphs");
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
        let store = EmbeddingStore::new(clustered(4, 40, 8, 7), None);
        let cfg = HnswConfig::default();
        pool::set_num_threads(1);
        let serial = HnswIndex::build(&store, Metric::Cosine, &cfg);
        pool::set_num_threads(4);
        let pooled = HnswIndex::build(&store, Metric::Cosine, &cfg);
        assert_eq!(links(&serial), links(&pooled));
        assert_eq!(serial.entry, pooled.entry);
        assert_eq!(serial.max_layer, pooled.max_layer);
    }

    #[test]
    fn dot_metric_and_scores_match_store_scoring() {
        let data = clustered(3, 20, 6, 3);
        let store = EmbeddingStore::new(data.clone(), None);
        for metric in [Metric::Dot, Metric::Cosine] {
            let index = HnswIndex::build(&store, metric, &HnswConfig::default());
            for q in [0usize, 21, 59] {
                let hits = index.search(data.row(q), 5, 60, None);
                assert!(!hits.is_empty());
                // Every reported score is the exact scan's score for that
                // id, bit for bit (ANN only approximates *which* neighbors,
                // never their scores).
                let exact = store.top_k(data.row(q), data.rows(), metric, None);
                for &(id, score) in &hits {
                    let want = exact.iter().find(|&&(e, _)| e == id).unwrap().1;
                    assert_eq!(score.to_bits(), want.to_bits(), "{metric:?}: node {id}");
                }
                // With a generous beam on a tiny set, top-1 matches the
                // exact path.
                assert_eq!(hits[0].0, exact[0].0, "{metric:?}");
            }
        }
    }

    #[test]
    fn tiny_and_degenerate_indexes() {
        let one = EmbeddingStore::new(DenseMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]), None);
        let idx = HnswIndex::build(&one, Metric::Cosine, &HnswConfig::default());
        assert_eq!(idx.len(), 1);
        let hits = idx.search(&[1.0, 0.0, 0.0], 5, 10, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
        assert!(idx.search(&[1.0, 0.0, 0.0], 5, 10, Some(0)).is_empty());

        let empty = EmbeddingStore::new(DenseMatrix::zeros(0, 3), None);
        let idx = HnswIndex::build(&empty, Metric::Cosine, &HnswConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 3], 5, 10, None).is_empty());
    }

    #[test]
    fn incremental_insert_matches_batch_levels_and_keeps_recall() {
        let data = clustered(6, 40, 12, 4);
        let cfg = HnswConfig::default();
        // Build over the first 200 rows, append the remaining 40.
        let head = DenseMatrix::from_fn(200, 12, |r, c| data.get(r, c));
        let mut g = Generation::build(&head, &cfg);
        g.apply(&(200..data.rows()).fold(SnapshotUpdate::new(), |u, r| {
            u.upsert(r, data.row(r).to_vec())
        }));
        assert_eq!(g.index.len(), data.rows());
        let full = Generation::build(&data, &cfg);
        assert_eq!(g.index.levels, full.index.levels);

        let mut total = 0.0;
        let queries = 40;
        for qi in 0..queries {
            let node = qi * 7 % data.rows();
            let exact = g.store.top_k_node(node, 10, Metric::Cosine);
            let approx = g.index.search(data.row(node), 10, 64, Some(node));
            total += recall_at_k(&exact, &approx);
        }
        let recall = total / queries as f64;
        assert!(recall >= 0.95, "post-insert recall@10 = {recall}");
    }

    #[test]
    fn remove_tombstones_and_compact_preserve_recall() {
        let data = clustered(6, 40, 12, 5);
        let cfg = HnswConfig::default();
        let mut g = Generation::build(&data, &cfg);
        // Delete 20% of the nodes.
        let removed: Vec<usize> = (0..data.rows()).filter(|i| i % 5 == 0).collect();
        g.delete(removed.iter().copied());
        assert_eq!(g.index.ghosts(), removed.len());
        assert_eq!(g.store.num_live(), data.rows() - removed.len());

        // Exact reference over the live set only.
        let check = |g: &Generation| {
            let mut total = 0.0;
            let queries = 30;
            for qi in 0..queries {
                let node = qi * 11 % data.rows();
                let exact = g.store.top_k_node(node, 10, Metric::Cosine);
                let approx = g.index.search(data.row(node), 10, 64, Some(node));
                assert!(
                    approx.iter().all(|&(id, _)| !removed.contains(&id)),
                    "tombstoned id in results"
                );
                total += recall_at_k(&exact, &approx);
            }
            total / queries as f64
        };
        let recall = check(&g);
        assert!(recall >= 0.95, "post-delete recall@10 = {recall}");

        g.compact();
        assert_eq!(g.index.ghosts(), 0);
        assert_eq!(g.store.num_live(), data.rows() - removed.len());
        let recall = check(&g);
        assert!(recall >= 0.95, "post-compact recall@10 = {recall}");

        // Compaction is deterministic in (seed, live set).
        let mut other = Generation::build(&data, &cfg);
        other.delete(removed.iter().copied());
        other.compact();
        assert_eq!(links(&g.index), links(&other.index));
        assert_eq!(g.index.entry, other.index.entry);
    }

    #[test]
    fn update_rewires_and_revives() {
        let data = clustered(4, 30, 8, 6);
        let mut g = Generation::build(&data, &HnswConfig::default());
        // Move node 5 exactly onto node 77's vector: it must become 77's
        // nearest neighbor.
        g.upsert(5, data.row(77));
        let hits = g.index.search(data.row(77), 3, 64, Some(77));
        assert_eq!(hits[0].0, 5, "updated node should be the top hit");
        assert!((hits[0].1 - 1.0).abs() < 1e-12);

        // A removed node revived by an upsert serves again.
        g.delete([9]);
        assert!(g
            .index
            .search(data.row(9), 120, 256, None)
            .iter()
            .all(|&(id, _)| id != 9));
        g.upsert(9, data.row(9));
        assert_eq!(g.index.ghosts(), 0);
        let hits = g.index.search(data.row(9), 1, 64, None);
        assert_eq!(hits[0].0, 9);
    }

    #[test]
    fn update_revives_an_id_compact_unwired() {
        let data = clustered(4, 30, 8, 8);
        let mut g = Generation::build(&data, &HnswConfig::default());
        g.delete([5, 6]);
        g.compact();
        assert_eq!(g.index.ghosts(), 0);
        assert_eq!(g.index.layer_count(5), 0, "compact unwires tombstones");
        // Reviving an unwired id wires it back in and it serves again.
        g.upsert(5, data.row(5));
        assert_eq!(g.index.ghosts(), 0);
        assert!(!g.store.is_deleted(5) && g.store.is_deleted(6));
        assert_eq!(g.store.num_live(), data.rows() - 1);
        assert_eq!(g.index.layer_count(5), usize::from(g.index.levels[5]) + 1);
        let hits = g.index.search(data.row(5), 1, 64, None);
        assert_eq!(hits[0].0, 5);
        assert!((hits[0].1 - 1.0).abs() < 1e-12);

        // An index compacted down to no live node is rooted again by its
        // first write, a revival or an append, and grows from there.
        for revive_first in [true, false] {
            let mut g = Generation::build(&data, &HnswConfig::default());
            g.delete(0..data.rows());
            g.compact();
            assert!(g.index.search(data.row(0), 3, 16, None).is_empty());
            let id = data.rows();
            if revive_first {
                g.upsert(9, data.row(9));
                assert_eq!(g.index.entry, 9);
                g.upsert(id, data.row(10));
            } else {
                g.upsert(id, data.row(10));
                assert_eq!(g.index.entry as usize, id);
                g.upsert(9, data.row(9));
            }
            assert_eq!(g.index.len(), id + 1);
            let hits = g.index.search(data.row(10), 2, 16, None);
            let ids: Vec<usize> = hits.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, vec![id, 9], "revive first: {revive_first}");
        }
    }

    /// Mean hops per search and mean recall@10 against the exact scan over
    /// the live rows, for node queries on every 10th live node.
    fn hops_and_recall(g: &Generation, ef: usize) -> (f64, f64) {
        let queries: Vec<usize> = (0..g.store.num_nodes())
            .step_by(10)
            .map(|q| q + 1)
            .filter(|&q| !g.store.is_deleted(q))
            .collect();
        let (mut hops, mut recall) = (0u64, 0.0);
        for &q in &queries {
            let approx = g
                .index
                .search_hops(g.store.vector_of(q), 10, ef, Some(q), &mut hops);
            recall += recall_at_k(&g.store.top_k_node(q, 10, Metric::Cosine), &approx);
        }
        let n = queries.len() as f64;
        (hops as f64 / n, recall / n)
    }

    #[test]
    fn tombstones_cost_hops_not_beam_width() {
        let data = clustered(20, 100, 16, 12);
        let mut g = Generation::build(&data, &HnswConfig::default());
        let before: Vec<(f64, f64)> = [64, 128]
            .iter()
            .map(|&ef| hops_and_recall(&g, ef))
            .collect();
        g.delete((0..data.rows()).step_by(5));
        assert_eq!(g.index.ghosts(), data.rows() / 5);
        for (&ef, &(hops_before, _)) in [64, 128].iter().zip(&before) {
            let (hops, recall) = hops_and_recall(&g, ef);
            assert!(
                hops <= 1.5 * hops_before,
                "ef {ef}: {hops:.1} hops a search with tombstones, {hops_before:.1} without"
            );
            assert!(recall >= 0.95, "ef {ef}: live recall@10 = {recall}");
        }
    }

    #[test]
    fn searches_end_when_tombstones_starve_the_beam() {
        let data = clustered(1, 60, 8, 13);
        let mut g = Generation::build(&data, &HnswConfig::default());
        // Fewer live nodes than `ef`: the walk runs out of frontier and
        // returns every live node, best first.
        let live = [3usize, 17, 29, 41, 58];
        g.delete((0..data.rows()).filter(|id| !live.contains(id)));
        // Each layer's walk expands a node at most once.
        let bound = (g.index.max_layer + 1) * data.rows();
        let mut hops = 0;
        let hits = g.index.search_hops(data.row(3), 10, 32, None, &mut hops);
        let mut ids: Vec<usize> = hits.iter().map(|&(id, _)| id).collect();
        assert_eq!(hits[0].0, 3);
        ids.sort_unstable();
        assert_eq!(ids, live);
        assert!(hops as usize <= bound, "{hops} hops, {bound} node-layers");

        // Every node tombstoned: nothing to return, and the walk still ends.
        g.delete(live);
        let mut hops = 0;
        assert!(g
            .index
            .search_hops(data.row(3), 10, 32, None, &mut hops)
            .is_empty());
        assert!(hops as usize <= bound, "{hops} hops, {bound} node-layers");
    }

    #[test]
    fn single_node_index_survives_incremental_ops() {
        let one = DenseMatrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let mut g = Generation::build(&one, &HnswConfig::default());
        g.upsert(0, &[0.0, 1.0, 0.0]);
        g.upsert(1, &[0.0, 0.9, 0.1]);
        assert_eq!(g.index.len(), 2);
        let hits = g.index.search(&[0.0, 1.0, 0.0], 2, 10, None);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        g.delete([0]);
        let hits = g.index.search(&[0.0, 1.0, 0.0], 2, 10, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }

    /// Fixture of the built graph: `tests/hnsw_graph.txt`, one section per
    /// SIMD dispatch (the similarities that pick each link round
    /// differently under the FMA kernels) after an `rng` line naming the
    /// `StdRng` stream the levels and the data come from. Each state of a
    /// scripted sequence — build, append, rewrite, delete, revive,
    /// compact, and more writes after the compaction, one update for each
    /// write — records every node's links per layer in stored order, the
    /// entry point and the top layer, and on the states without a wired
    /// tombstone, the ids and score bits of a fixed set of searches.
    /// `aneci_linalg::golden` compares it, reruns it under the scalar
    /// dispatch and documents how to re-record it.
    fn graph_fixture_lines() -> String {
        fn dump(out: &mut String, state: &str, g: &Generation, data: &DenseMatrix) {
            use std::fmt::Write as _;
            let index = &g.index;
            for node in 0..index.len() {
                let layers: Vec<String> = (0..index.layer_count(node))
                    .map(|l| {
                        let ids: Vec<String> = index
                            .neighbors(node, l)
                            .iter()
                            .map(u32::to_string)
                            .collect();
                        ids.join(",")
                    })
                    .collect();
                writeln!(out, "{state} node {node} {}", layers.join("|")).unwrap();
            }
            writeln!(
                out,
                "{state} entry {} max_layer {}",
                index.entry, index.max_layer
            )
            .unwrap();
            // Searches only where no tombstone is wired in: with one, the
            // layer-0 beam is free to differ between implementations.
            if index.ghosts() > 0 {
                return;
            }
            let free: Vec<f64> = data.row(1).iter().map(|x| 0.5 - x).collect();
            let queries = (0..index.len())
                .step_by(23)
                .filter(|&q| !g.store.is_deleted(q))
                .map(|q| (data.row(q), Some(q)))
                .chain([(&free[..], None)]);
            for (query, exclude) in queries {
                let hits: Vec<String> = index
                    .search(query, 6, 12, exclude)
                    .iter()
                    .map(|&(id, score)| format!("{id}:{:016x}", score.to_bits()))
                    .collect();
                let q = exclude.map_or("free".to_string(), |q| q.to_string());
                writeln!(out, "{state} search {q} {}", hits.join(",")).unwrap();
            }
        }

        let data = clustered(5, 28, 8, 41);
        let config = HnswConfig {
            m: 4,
            ef_construction: 24,
            seed: 9,
        };
        let mut out = String::new();
        let full = Generation::build(&data, &HnswConfig::default());
        dump(&mut out, "build_m16", &full, &data);

        let head = DenseMatrix::from_fn(120, 8, |r, c| data.get(r, c));
        let mut g = Generation::build(&head, &config);
        dump(&mut out, "build", &g, &data);
        g.apply(&(120..data.rows()).fold(SnapshotUpdate::new(), |u, r| {
            u.upsert(r, data.row(r).to_vec())
        }));
        dump(&mut out, "insert", &g, &data);
        let entry = g.index.entry as usize;
        for (id, from) in [(entry, 7), (3, 90), (77, 130), (119, 2), (135, 64)] {
            g.upsert(id, data.row(from));
        }
        dump(&mut out, "update", &g, &data);
        g.delete((1..data.rows()).step_by(6));
        dump(&mut out, "remove", &g, &data);
        g.upsert(7, data.row(8));
        g.upsert(61, data.row(61));
        dump(&mut out, "revive", &g, &data);
        g.compact();
        dump(&mut out, "compact", &g, &data);
        g.apply(
            &[4, 50, 99]
                .iter()
                .enumerate()
                .fold(SnapshotUpdate::new(), |u, (i, &r)| {
                    let v: Vec<f64> = data.row(r).iter().map(|x| x * 1.5 + 0.25).collect();
                    u.upsert(data.rows() + i, v)
                }),
        );
        g.upsert(10, data.row(11));
        g.upsert(g.index.entry as usize, data.row(100));
        dump(&mut out, "after_compact", &g, &data);
        out
    }

    #[test]
    fn graph_matches_fixture() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/hnsw_graph.txt");
        Fixture::new(path)
            .with_rng_line()
            .assert(&graph_fixture_lines());
        golden::rerun_scalar("hnsw::tests::graph_matches_fixture");
    }

    #[test]
    fn recall_helper_counts_overlap() {
        let exact = vec![(1usize, 0.9), (2, 0.8), (3, 0.7)];
        let approx = vec![(1usize, 0.9), (3, 0.7), (9, 0.1)];
        assert!((recall_at_k(&exact, &approx) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&[], &approx), 1.0);
    }
}
