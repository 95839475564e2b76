//! The JSONL query engine: parse → execute → serialize, batched and
//! concurrent, with an optional LRU response cache.
//!
//! One query per line, one JSON response per line, output order always
//! matching input order. Example session:
//!
//! ```json
//! {"op":"top_k","node":7,"k":5}
//! {"op":"top_k","vector":[0.1,-0.3,...],"k":3,"metric":"dot"}
//! {"op":"community","node":12}
//! {"op":"edge_score","u":3,"v":40}
//! ```
//!
//! Malformed lines produce a typed `{"kind":"error","code":...,...}`
//! response on the corresponding output line — they never panic and never
//! shift the alignment between inputs and outputs. The [`ErrorCode`] on
//! every error response is shared with the HTTP front end (`crate::http`),
//! which maps it onto a 4xx/5xx status line.
//!
//! Batches run on the persistent pool (`aneci_linalg::pool`) in fixed
//! chunks; since every query handler is deterministic, responses are
//! byte-identical regardless of thread count or cache state.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use aneci_core::{AneciError, CheckpointError};
use aneci_linalg::pool;
use serde::{Deserialize, Serialize};

use crate::cache::LruCache;
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::snapshot::{Snapshot, SnapshotHandle, SnapshotUpdate};
use crate::store::{EmbeddingStore, Metric};

/// A single query, tagged by `"op"`. This is the one typed request shape
/// shared by the JSONL and HTTP front ends; [`Response`] is the one
/// response shape.
///
/// Every variant accepts an optional `min_generation`: when set, the query
/// fails with [`ErrorCode::SnapshotStale`] unless the serving snapshot's
/// generation is at least that value — a client that just observed a
/// reindex acknowledgment can insist on reading its own write.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum Query {
    /// Top-k nearest neighbors of a stored node (`node`) or a free vector
    /// (`vector`). Optional: `k`, `metric` ("cosine"/"dot"), `ann`.
    TopK {
        node: Option<usize>,
        vector: Option<Vec<f64>>,
        k: Option<usize>,
        metric: Option<String>,
        ann: Option<bool>,
        min_generation: Option<u64>,
    },
    /// Community assignment + soft membership of a node.
    Community {
        node: usize,
        min_generation: Option<u64>,
    },
    /// Link-prediction score for a node pair (the eval scorer).
    EdgeScore {
        u: usize,
        v: usize,
        min_generation: Option<u64>,
    },
}

impl Query {
    /// The generation floor this query demands, if any.
    pub fn min_generation(&self) -> Option<u64> {
        match self {
            Query::TopK { min_generation, .. }
            | Query::Community { min_generation, .. }
            | Query::EdgeScore { min_generation, .. } => *min_generation,
        }
    }

    /// Parses one JSON query — the shared entry point of the JSONL and
    /// HTTP paths, so both reject malformed input identically.
    pub fn parse(line: &str) -> Result<Query, Response> {
        serde_json::from_str(line.trim())
            .map_err(|e| err(ErrorCode::BadRequest, format!("bad query: {e}")))
    }
}

/// Machine-readable classification of an error response, shared by the
/// JSONL and HTTP serving paths. Serialized in `snake_case` (for example
/// `{"kind":"error","code":"not_found",...}`); [`ErrorCode::http_status`]
/// is the HTTP front end's status-line mapping.
#[derive(Serialize, Deserialize, Debug, Clone, Copy, PartialEq, Eq)]
#[serde(rename_all = "snake_case")]
pub enum ErrorCode {
    /// The request was syntactically or semantically malformed.
    BadRequest,
    /// The request was well-formed but names something that doesn't exist
    /// (node out of range, membership on a store without one, no route).
    NotFound,
    /// The HTTP method isn't supported on this route.
    MethodNotAllowed,
    /// The peer stalled or the request arrived truncated.
    Timeout,
    /// The request body exceeds the configured limit.
    PayloadTooLarge,
    /// The request line + headers exceed the configured limit.
    HeadersTooLarge,
    /// A required protocol feature isn't implemented (e.g. a
    /// `Transfer-Encoding` other than `chunked`).
    Unsupported,
    /// The server shed the request under load (bounded queue full).
    Overloaded,
    /// The query demanded `min_generation` newer than the serving snapshot.
    SnapshotStale,
    /// A snapshot rebuild is already running; retry after it publishes.
    ReindexInProgress,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The HTTP status code this error class maps to.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Timeout => 408,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::HeadersTooLarge => 431,
            ErrorCode::Unsupported => 501,
            ErrorCode::Overloaded => 503,
            ErrorCode::SnapshotStale => 412,
            ErrorCode::ReindexInProgress => 409,
            ErrorCode::Internal => 500,
        }
    }
}

/// A scored neighbor in a [`Response::Neighbors`].
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
pub struct Neighbor {
    pub node: usize,
    pub score: f64,
}

/// A single response, tagged by `"kind"`.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Response {
    Neighbors {
        neighbors: Vec<Neighbor>,
        metric: String,
        /// `true` when answered by the exact brute-force path, `false` when
        /// answered by the ANN index.
        exact: bool,
        /// Poisoned-neighborhood verdict: `Some(true)` when the response's
        /// top-k mass concentrates on high-anomaly nodes, `Some(false)`
        /// when checked and clean, `None` when the snapshot carries no
        /// anomaly scores. Always sent: `"suspect":null` when `None`, and a
        /// body without the field decodes as `None`.
        suspect: Option<bool>,
    },
    Community {
        node: usize,
        community: usize,
        membership: Vec<f64>,
    },
    EdgeScore {
        u: usize,
        v: usize,
        score: f64,
    },
    Error {
        code: ErrorCode,
        error: String,
    },
}

impl Response {
    /// The error classification, when this is an error response.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// `k` when a top-k query omits it.
    pub default_k: usize,
    /// Metric when a top-k query omits it.
    pub default_metric: Metric,
    /// Build the ANN index and use it for top-k queries by default
    /// (per-query `"ann"` overrides).
    pub use_ann: bool,
    /// Layer-0 beam width for ANN searches.
    pub ef_search: usize,
    /// ANN construction parameters.
    pub hnsw: HnswConfig,
    /// LRU response-cache capacity; 0 disables caching.
    pub cache_capacity: usize,
    /// Fraction of tombstoned ANN nodes (ghosts / slots) above which a
    /// snapshot update compacts the index instead of carrying tombstones.
    pub compact_threshold: f64,
    /// Delta-log path: every applied [`SnapshotUpdate`] is appended here as
    /// one JSON line, and [`QueryEngine::try_new`] replays the file at
    /// startup so acknowledged updates survive a restart.
    pub delta_log: Option<PathBuf>,
    /// Anomaly score above which a node counts as *anomalous* for the
    /// poisoned-neighborhood detector (θ). Only consulted when the snapshot
    /// carries anomaly scores.
    pub suspect_score: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            default_k: 10,
            default_metric: Metric::Cosine,
            use_ann: false,
            ef_search: 64,
            hnsw: HnswConfig::default(),
            cache_capacity: 0,
            compact_threshold: 0.25,
            delta_log: None,
            suspect_score: 0.7,
        }
    }
}

impl EngineConfig {
    /// Fluent builder over the defaults; the terminal
    /// [`build`](EngineConfigBuilder::build) validates, so invalid
    /// combinations are typed errors instead of runtime panics.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// Checks the parameters a [`QueryEngine`] would otherwise assert on.
    pub fn validate(&self) -> Result<(), AneciError> {
        let bad = |msg: &str| Err(AneciError::Config(msg.into()));
        if self.default_k == 0 {
            return bad("default_k must be at least 1");
        }
        if self.ef_search == 0 {
            return bad("ef_search must be at least 1");
        }
        if self.hnsw.m < 2 {
            return bad("hnsw.m must be at least 2");
        }
        if self.hnsw.ef_construction == 0 {
            return bad("hnsw.ef_construction must be at least 1");
        }
        if !(0.0..=1.0).contains(&self.compact_threshold) {
            return bad("compact_threshold must lie in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.suspect_score) {
            return bad("suspect_score must lie in [0, 1]");
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`], mirroring `AneciConfig::builder()`.
///
/// ```
/// use aneci_serve::engine::EngineConfig;
/// use aneci_serve::store::Metric;
///
/// let cfg = EngineConfig::builder()
///     .default_k(20)
///     .default_metric(Metric::Dot)
///     .use_ann(true)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.default_k, 20);
/// assert!(EngineConfig::builder().default_k(0).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// `k` when a top-k query omits it.
    pub fn default_k(mut self, v: usize) -> Self {
        self.config.default_k = v;
        self
    }

    /// Metric when a top-k query omits it.
    pub fn default_metric(mut self, v: Metric) -> Self {
        self.config.default_metric = v;
        self
    }

    /// Build the ANN index and answer top-k with it by default.
    pub fn use_ann(mut self, v: bool) -> Self {
        self.config.use_ann = v;
        self
    }

    /// Layer-0 beam width for ANN searches.
    pub fn ef_search(mut self, v: usize) -> Self {
        self.config.ef_search = v;
        self
    }

    /// ANN construction parameters.
    pub fn hnsw(mut self, v: HnswConfig) -> Self {
        self.config.hnsw = v;
        self
    }

    /// LRU response-cache capacity; 0 disables caching.
    pub fn cache_capacity(mut self, v: usize) -> Self {
        self.config.cache_capacity = v;
        self
    }

    /// ANN ghost fraction that triggers compaction on update.
    pub fn compact_threshold(mut self, v: f64) -> Self {
        self.config.compact_threshold = v;
        self
    }

    /// Delta-log path for persistence + startup replay.
    pub fn delta_log(mut self, v: impl Into<PathBuf>) -> Self {
        self.config.delta_log = Some(v.into());
        self
    }

    /// Anomaly threshold θ for the poisoned-neighborhood detector.
    pub fn suspect_score(mut self, v: f64) -> Self {
        self.config.suspect_score = v;
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> Result<EngineConfig, AneciError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Cached registry handles for the serving hot path (one lookup per engine,
/// not per query).
struct EngineMetrics {
    queries: aneci_obs::Counter,
    query_ns: aneci_obs::Histogram,
    cache_hits: aneci_obs::Counter,
    cache_misses: aneci_obs::Counter,
    reindexes: aneci_obs::Counter,
    reindex_ns: aneci_obs::Histogram,
    robust_checked: aneci_obs::Counter,
    robust_flagged: aneci_obs::Counter,
}

impl EngineMetrics {
    fn new() -> Self {
        Self {
            queries: aneci_obs::counter("serve.queries"),
            query_ns: aneci_obs::histogram_time_ns("serve.query_ns"),
            cache_hits: aneci_obs::counter("serve.cache.hits"),
            cache_misses: aneci_obs::counter("serve.cache.misses"),
            reindexes: aneci_obs::counter("serve.reindexes"),
            reindex_ns: aneci_obs::histogram_time_ns("serve.reindex_ns"),
            robust_checked: aneci_obs::counter("serve.robust.checked"),
            robust_flagged: aneci_obs::counter("serve.robust.flagged"),
        }
    }
}

/// The serving engine: a swappable [`Snapshot`] (store + optional ANN
/// index) plus an optional response cache and the reindex machinery.
pub struct QueryEngine {
    snapshot: SnapshotHandle,
    config: EngineConfig,
    /// Keyed by `generation \0 query-line`; values are response lines.
    /// Correct because every handler is deterministic in (snapshot, query
    /// text), and the generation prefix retires stale entries on publish.
    cache: Option<Mutex<LruCache<String, String>>>,
    /// Single-flight guard: only one snapshot rebuild runs at a time.
    reindexing: AtomicBool,
    /// Open append handle on `config.delta_log`, when configured.
    delta_log: Option<Mutex<std::fs::File>>,
    metrics: EngineMetrics,
}

impl QueryEngine {
    /// Builds an engine over `store`. When `config.use_ann` is set, the HNSW
    /// index is built here, over `config.default_metric`.
    ///
    /// # Panics
    /// Panics if `config.delta_log` is set and replaying or opening it
    /// fails — use [`Self::try_new`] to handle that as a typed error.
    pub fn new(store: EmbeddingStore, config: EngineConfig) -> Self {
        Self::try_new(store, config).expect("engine construction failed")
    }

    /// Builds an engine over `store`, replaying `config.delta_log` (when
    /// set and present) so every previously acknowledged update is applied
    /// before the first query, then keeping the log open for appending.
    pub fn try_new(store: EmbeddingStore, config: EngineConfig) -> Result<Self, AneciError> {
        config.validate()?;
        let ann = config
            .use_ann
            .then(|| HnswIndex::build(&store, config.default_metric, &config.hnsw));
        let cache =
            (config.cache_capacity > 0).then(|| Mutex::new(LruCache::new(config.cache_capacity)));
        let mut engine = Self {
            snapshot: SnapshotHandle::new(store, ann),
            config,
            cache,
            reindexing: AtomicBool::new(false),
            delta_log: None,
            metrics: EngineMetrics::new(),
        };
        if let Some(path) = engine.config.delta_log.clone() {
            engine.replay_delta_log(&path)?;
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            engine.delta_log = Some(Mutex::new(file));
        }
        Ok(engine)
    }

    /// Replays a delta log written by a previous run: one
    /// [`SnapshotUpdate`] JSON object per line, applied in order. Missing
    /// file = nothing to replay.
    fn replay_delta_log(&mut self, path: &std::path::Path) -> Result<(), AneciError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
            // A record that isn't UTF-8 or doesn't parse is a corrupt or
            // truncated log — a checkpoint-integrity failure, not a
            // configuration mistake — so it surfaces as the same typed
            // error class the `.aneci` checkpoint reader uses.
            let corrupt = |e: &dyn std::fmt::Display| {
                AneciError::Checkpoint(CheckpointError::Format(format!(
                    "delta log {}:{}: corrupt or truncated record: {e}",
                    path.display(),
                    lineno + 1
                )))
            };
            let line = std::str::from_utf8(line).map_err(|e| corrupt(&e))?.trim();
            if line.is_empty() {
                continue;
            }
            let update: SnapshotUpdate = serde_json::from_str(line).map_err(|e| corrupt(&e))?;
            self.apply_update(&update).map_err(|(_, msg)| {
                AneciError::Config(format!(
                    "delta log {}:{}: replay failed: {msg}",
                    path.display(),
                    lineno + 1
                ))
            })?;
        }
        Ok(())
    }

    /// Pins the current serving snapshot (store + ANN + generation): one
    /// atomic `Arc` clone, never blocked by a concurrent publish.
    pub fn snapshot(&self) -> std::sync::Arc<Snapshot> {
        self.snapshot.load()
    }

    /// The current snapshot generation (0 until the first reindex).
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// Whether a snapshot rebuild is running right now.
    pub fn reindex_in_progress(&self) -> bool {
        self.reindexing.load(Ordering::SeqCst)
    }

    /// Applies one [`SnapshotUpdate`]: builds the next snapshot off the
    /// serving path (readers keep answering from the current one), appends
    /// the update to the delta log, then publishes atomically. Returns the
    /// new generation.
    ///
    /// Only one update builds at a time; a concurrent call fails fast with
    /// [`ErrorCode::ReindexInProgress`] instead of queueing. The slot is
    /// released however the build ends, a panic included.
    pub fn apply_update(&self, update: &SnapshotUpdate) -> Result<u64, (ErrorCode, String)> {
        if self.reindexing.swap(true, Ordering::SeqCst) {
            return Err((
                ErrorCode::ReindexInProgress,
                "a reindex is already in progress; retry after it publishes".into(),
            ));
        }
        let _slot = ReindexSlot(&self.reindexing);
        self.build_and_publish(update)
    }

    fn build_and_publish(&self, update: &SnapshotUpdate) -> Result<u64, (ErrorCode, String)> {
        let start = std::time::Instant::now();
        let snap = self.snapshot.load();
        let (store, ann) = build_next_snapshot(&snap, update, &self.config)?;
        if let Some(log) = &self.delta_log {
            let line = serde_json::to_string(update).expect("update serialization cannot fail");
            let mut file = log.lock().unwrap_or_else(|p| p.into_inner());
            file.write_all(line.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.flush())
                .map_err(|e| (ErrorCode::Internal, format!("delta log append failed: {e}")))?;
        }
        let generation = self.snapshot.publish(store, ann);
        self.metrics
            .reindex_ns
            .observe(start.elapsed().as_nanos() as f64);
        self.metrics.reindexes.inc();
        Ok(generation)
    }

    /// `(hits, misses)` of the response cache (zeros when disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.cache {
            Some(c) => {
                let c = c.lock().unwrap();
                (c.hits(), c.misses())
            }
            None => (0, 0),
        }
    }

    /// Executes one parsed query against the current snapshot.
    pub fn run(&self, query: &Query) -> Response {
        let snap = self.snapshot.load();
        self.run_on(&snap, query)
    }

    /// Executes one parsed query against a pinned snapshot — the whole
    /// query reads one generation, never a mix.
    fn run_on(&self, snap: &Snapshot, query: &Query) -> Response {
        if let Some(min) = query.min_generation() {
            if snap.generation < min {
                return err(
                    ErrorCode::SnapshotStale,
                    format!(
                        "snapshot generation {} is older than the requested min_generation {min}",
                        snap.generation
                    ),
                );
            }
        }
        match query {
            Query::TopK {
                node,
                vector,
                k,
                metric,
                ann,
                ..
            } => self.run_top_k(snap, *node, vector.as_deref(), *k, metric.as_deref(), *ann),
            Query::Community { node, .. } => run_community(snap, *node),
            Query::EdgeScore { u, v, .. } => run_edge_score(snap, *u, *v),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_top_k(
        &self,
        snap: &Snapshot,
        node: Option<usize>,
        vector: Option<&[f64]>,
        k: Option<usize>,
        metric: Option<&str>,
        ann: Option<bool>,
    ) -> Response {
        let k = k.unwrap_or(self.config.default_k);
        let metric = match metric {
            None => self.config.default_metric,
            Some(name) => match Metric::parse(name) {
                Some(m) => m,
                None => {
                    return err(
                        ErrorCode::BadRequest,
                        format!("unknown metric {name:?} (cosine|dot)"),
                    )
                }
            },
        };
        let (query, exclude): (&[f64], Option<usize>) = match (node, vector) {
            (Some(_), Some(_)) => {
                return err(
                    ErrorCode::BadRequest,
                    "top_k takes either \"node\" or \"vector\", not both",
                )
            }
            (None, None) => {
                return err(
                    ErrorCode::BadRequest,
                    "top_k needs a \"node\" or a \"vector\"",
                )
            }
            (Some(n), None) => {
                if n >= snap.store.num_nodes() || snap.store.is_deleted(n) {
                    return err(
                        ErrorCode::NotFound,
                        format!(
                            "node {n} out of range (store has {} nodes)",
                            snap.store.num_nodes()
                        ),
                    );
                }
                (snap.store.vector_of(n), Some(n))
            }
            (None, Some(v)) => {
                if v.len() != snap.store.dim() {
                    return err(
                        ErrorCode::BadRequest,
                        format!(
                            "vector has {} dims, store embeds in {}",
                            v.len(),
                            snap.store.dim()
                        ),
                    );
                }
                if let Some(i) = v.iter().position(|x| !x.is_finite()) {
                    return err(
                        ErrorCode::BadRequest,
                        format!("vector entry {i} is {}, not a finite number", v[i]),
                    );
                }
                (v, None)
            }
        };

        // ANN only answers the metric it was built for; anything else falls
        // back to the exact path (correctness over speed).
        let want_ann = ann.unwrap_or(self.config.use_ann);
        let index = snap
            .ann
            .as_ref()
            .filter(|idx| want_ann && idx.metric() == metric);
        let (hits, exact) = match index {
            Some(idx) => (idx.search(query, k, self.config.ef_search, exclude), false),
            None => (snap.store.top_k(query, k, metric, exclude), true),
        };
        let suspect = self.check_suspect(snap, &hits);
        Response::Neighbors {
            neighbors: hits
                .into_iter()
                .map(|(node, score)| Neighbor { node, score })
                .collect(),
            metric: metric.name().to_string(),
            exact,
            suspect,
        }
    }

    /// Fraction of a top-k response's score mass that must land on
    /// anomalous nodes before the response is flagged `suspect` (φ).
    pub const SUSPECT_MASS: f64 = 0.5;

    /// Poisoned-neighborhood detection: flags a top-k result when at least
    /// [`Self::SUSPECT_MASS`] of its score mass sits on nodes whose anomaly
    /// score exceeds θ (`suspect_score`). Mass is `max(score, 0)` per
    /// neighbor (negative similarities carry no mass); when the whole
    /// result has zero positive mass the anomalous-node *count* fraction
    /// decides instead. Returns `None` (and touches no counters) when the
    /// snapshot carries no anomaly scores.
    fn check_suspect(&self, snap: &Snapshot, hits: &[(usize, f64)]) -> Option<bool> {
        let anomaly = snap.store.anomaly_scores()?;
        self.metrics.robust_checked.inc();
        if hits.is_empty() {
            return Some(false);
        }
        let theta = self.config.suspect_score;
        let (mut mass, mut hot_mass, mut hot_count) = (0.0f64, 0.0f64, 0usize);
        for &(node, score) in hits {
            let m = score.max(0.0);
            mass += m;
            if anomaly[node] > theta {
                hot_mass += m;
                hot_count += 1;
            }
        }
        let fraction = if mass > 0.0 {
            hot_mass / mass
        } else {
            hot_count as f64 / hits.len() as f64
        };
        let flagged = fraction >= Self::SUSPECT_MASS;
        if flagged {
            self.metrics.robust_flagged.inc();
        }
        Some(flagged)
    }

    /// Parses and executes one JSONL line, returning the serialized
    /// response line. Never panics on malformed input. Consults the LRU
    /// cache first when enabled; the snapshot is pinned once, so the line
    /// is answered wholly from one generation.
    pub fn run_line(&self, line: &str) -> String {
        let start = std::time::Instant::now();
        self.metrics.queries.inc();
        let snap = self.snapshot.load();
        // The generation prefix keys cached responses to the snapshot they
        // were computed from: entries of retired generations can never hit
        // again and age out of the LRU naturally.
        let key = format!("{}\u{0}{}", snap.generation, line.trim());
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lock().unwrap().get(&key).cloned() {
                self.metrics.cache_hits.inc();
                self.metrics
                    .query_ns
                    .observe(start.elapsed().as_nanos() as f64);
                return hit;
            }
            self.metrics.cache_misses.inc();
        }
        let response = match Query::parse(line) {
            Ok(q) => self.run_on(&snap, &q),
            Err(error_response) => error_response,
        };
        let out = serde_json::to_string(&response).expect("response serialization cannot fail");
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().put(key, out.clone());
        }
        self.metrics
            .query_ns
            .observe(start.elapsed().as_nanos() as f64);
        out
    }

    /// Executes a batch of JSONL lines concurrently on the persistent pool.
    /// Responses come back in input order, and — because every handler is
    /// deterministic — are byte-identical for any thread count.
    pub fn run_batch<S: AsRef<str> + Sync>(&self, lines: &[S]) -> Vec<String> {
        let n = lines.len();
        if n == 0 {
            return Vec::new();
        }
        let grain = pool::row_grain(n, 8);
        let chunks = pool::parallel_map_chunks(n, grain, |lo, hi| {
            lines[lo..hi]
                .iter()
                .map(|l| self.run_line(l.as_ref()))
                .collect::<Vec<String>>()
        });
        chunks.into_iter().flatten().collect()
    }
}

/// The claimed single-flight reindex slot; dropping it (on return or
/// unwind) releases the slot.
struct ReindexSlot<'a>(&'a AtomicBool);

impl Drop for ReindexSlot<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn run_community(snap: &Snapshot, node: usize) -> Response {
    if node >= snap.store.num_nodes() || snap.store.is_deleted(node) {
        return err(
            ErrorCode::NotFound,
            format!(
                "node {node} out of range (store has {} nodes)",
                snap.store.num_nodes()
            ),
        );
    }
    match (snap.store.community(node), snap.store.membership_row(node)) {
        (Some(community), Some(row)) => Response::Community {
            node,
            community,
            membership: row.to_vec(),
        },
        _ => err(
            ErrorCode::NotFound,
            "store was built without community membership (or the node has none yet)",
        ),
    }
}

fn run_edge_score(snap: &Snapshot, u: usize, v: usize) -> Response {
    let n = snap.store.num_nodes();
    if u >= n || v >= n || snap.store.is_deleted(u) || snap.store.is_deleted(v) {
        return err(
            ErrorCode::NotFound,
            format!("edge ({u}, {v}) out of range (store has {n} nodes)"),
        );
    }
    Response::EdgeScore {
        u,
        v,
        score: snap.store.edge_score(u, v),
    }
}

/// Builds the successor state of `snap` under `update`: upserts applied in
/// order (appends must be contiguous), then deletes. An upsert must hold
/// finite numbers only: JSON has no spelling for ±inf or NaN, so the delta
/// log could not record one for a restart to replay. The update's rows are
/// written once, by `EmbeddingStore::patched` (only written rows get fresh
/// norms, and unchanged membership and anomaly scores are shared); the ANN
/// index's successor shares them, copies the links — a few flat buffers —
/// rewires each written id once, and compacts once its ghost fraction
/// crosses `config.compact_threshold`.
fn build_next_snapshot(
    snap: &Snapshot,
    update: &SnapshotUpdate,
    config: &EngineConfig,
) -> Result<(EmbeddingStore, Option<HnswIndex>), (ErrorCode, String)> {
    let bad = |code: ErrorCode, msg: String| Err((code, msg));
    let old = &snap.store;
    let dim = old.dim();
    let mut rows = old.num_nodes();
    for up in &update.upserts {
        if up.vector.len() != dim {
            return bad(
                ErrorCode::BadRequest,
                format!(
                    "upsert of node {} has {} dims, store embeds in {dim}",
                    up.node,
                    up.vector.len()
                ),
            );
        }
        if let Some(i) = up.vector.iter().position(|x| !x.is_finite()) {
            return bad(
                ErrorCode::BadRequest,
                format!(
                    "upsert of node {} has entry {i} = {}, not a finite number",
                    up.node, up.vector[i]
                ),
            );
        }
        if up.node > rows {
            return bad(
                ErrorCode::BadRequest,
                format!(
                    "upsert of node {} is a non-contiguous append (next id is {rows})",
                    up.node
                ),
            );
        }
        if up.node == rows {
            rows += 1;
        }
    }
    for &d in &update.deletes {
        if d >= rows {
            return bad(
                ErrorCode::NotFound,
                format!("delete of node {d} out of range ({rows} nodes after upserts)"),
            );
        }
    }

    // Appended nodes get zero membership rows (`community` reports them
    // as absent) and anomaly score 0 until the model is retrained.
    let store = old.patched(update);
    let ann = snap.ann.as_ref().map(|index| {
        let written = update.upserts.iter().map(|up| up.node);
        index.successor(&store, written, config.compact_threshold)
    });
    Ok((store, ann))
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        error: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Scored;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
    use std::sync::Arc;

    /// 120 nodes in 8 dimensions, with membership and no anomaly scores.
    fn store() -> EmbeddingStore {
        let mut rng = seeded_rng(11);
        let z = gaussian_matrix(120, 8, 1.0, &mut rng);
        let p = z.softmax_rows();
        EmbeddingStore::new(z, Some(p))
    }

    fn engine(config: EngineConfig) -> QueryEngine {
        QueryEngine::new(store(), config)
    }

    /// An engine over [`store`] whose anomaly scores are `score` on `hot`
    /// and 0 elsewhere.
    fn scored_engine(hot: &[usize], score: f64) -> QueryEngine {
        let mut scores = vec![0.0; 120];
        for &node in hot {
            scores[node] = score;
        }
        QueryEngine::new(store().with_anomaly_scores(scores), EngineConfig::default())
    }

    #[test]
    fn top_k_round_trip() {
        let e = engine(EngineConfig::default());
        let out = e.run_line(r#"{"op":"top_k","node":7,"k":3}"#);
        let resp: Response = serde_json::from_str(&out).unwrap();
        match resp {
            Response::Neighbors {
                neighbors,
                metric,
                exact,
                suspect,
            } => {
                assert_eq!(neighbors.len(), 3);
                assert_eq!(metric, "cosine");
                assert!(exact);
                // The test store carries no anomaly scores, so the detector
                // stays out of the response entirely.
                assert_eq!(suspect, None);
                assert!(neighbors.iter().all(|n| n.node != 7));
                // Engine answer equals a direct store call.
                let direct = e.snapshot().store.top_k_node(7, 3, Metric::Cosine);
                for (nb, (id, score)) in neighbors.iter().zip(direct) {
                    assert_eq!(nb.node, id);
                    assert_eq!(nb.score, score);
                }
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn free_vector_and_metric_override() {
        let e = engine(EngineConfig::default());
        let v: Vec<f64> = e.snapshot().store.vector_of(0).to_vec();
        let line = format!(
            r#"{{"op":"top_k","vector":{},"k":2,"metric":"dot"}}"#,
            serde_json::to_string(&v).unwrap()
        );
        let resp: Response = serde_json::from_str(&e.run_line(&line)).unwrap();
        match resp {
            Response::Neighbors { metric, .. } => assert_eq!(metric, "dot"),
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_yield_error_responses_in_place() {
        let e = engine(EngineConfig::default());
        let lines = [
            r#"{"op":"top_k","node":7}"#,
            "not json at all",
            r#"{"op":"unknown_op"}"#,
            r#"{"op":"top_k"}"#,
            r#"{"op":"top_k","node":7,"vector":[1.0]}"#,
            r#"{"op":"top_k","node":100000}"#,
            r#"{"op":"top_k","vector":[1.0,2.0]}"#,
            r#"{"op":"top_k","node":1,"metric":"hamming"}"#,
            r#"{"op":"community","node":99999}"#,
            r#"{"op":"edge_score","u":0,"v":99999}"#,
            "",
        ];
        let out = e.run_batch(&lines);
        assert_eq!(out.len(), lines.len());
        // First line is fine, everything after is a structured error.
        assert!(out[0].contains("\"kind\":\"neighbors\""));
        for (line, resp) in lines.iter().zip(&out).skip(1) {
            assert!(
                resp.contains("\"kind\":\"error\""),
                "line {line:?} gave {resp}"
            );
        }
    }

    #[test]
    fn community_and_edge_score_queries() {
        let e = engine(EngineConfig::default());
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"community","node":4}"#)).unwrap();
        match resp {
            Response::Community {
                node, membership, ..
            } => {
                assert_eq!(node, 4);
                assert!((membership.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            other => panic!("expected community, got {other:?}"),
        }

        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"edge_score","u":3,"v":9}"#)).unwrap();
        match resp {
            Response::EdgeScore { score, .. } => {
                let z = gaussian_matrix(120, 8, 1.0, &mut seeded_rng(11));
                assert_eq!(
                    score,
                    aneci_eval::linkpred::edge_score(&z, 3, 9),
                    "serve-time edge score must equal the eval scorer"
                );
            }
            other => panic!("expected edge_score, got {other:?}"),
        }
    }

    #[test]
    fn ann_engine_answers_and_reports_inexact_path() {
        let e = engine(EngineConfig {
            use_ann: true,
            ..EngineConfig::default()
        });
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":7,"k":5}"#)).unwrap();
        match resp {
            Response::Neighbors {
                neighbors, exact, ..
            } => {
                assert_eq!(neighbors.len(), 5);
                assert!(!exact, "ann engine should use the index by default");
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
        // Per-query opt-out returns to the exact path.
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":7,"k":5,"ann":false}"#))
                .unwrap();
        match resp {
            Response::Neighbors { exact, .. } => assert!(exact),
            other => panic!("expected neighbors, got {other:?}"),
        }
        // Metric the index wasn't built for → exact fallback, not wrong data.
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":7,"k":5,"metric":"dot"}"#))
                .unwrap();
        match resp {
            Response::Neighbors { exact, metric, .. } => {
                assert!(exact);
                assert_eq!(metric, "dot");
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn cache_serves_identical_bytes_and_counts_hits() {
        let e = engine(EngineConfig {
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let line = r#"{"op":"top_k","node":3,"k":4}"#;
        let first = e.run_line(line);
        let second = e.run_line(line);
        assert_eq!(first, second);
        let (hits, misses) = e.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        // Cached and uncached engines agree byte-for-byte.
        let plain = engine(EngineConfig::default());
        assert_eq!(plain.run_line(line), first);
    }

    #[test]
    fn batch_output_bit_identical_across_thread_counts() {
        use aneci_linalg::pool;
        pool::force_pool();
        let e = engine(EngineConfig::default());
        let lines: Vec<String> = (0..200)
            .map(|i| match i % 3 {
                0 => format!(r#"{{"op":"top_k","node":{},"k":5}}"#, i % 120),
                1 => format!(r#"{{"op":"community","node":{}}}"#, i % 120),
                _ => format!(
                    r#"{{"op":"edge_score","u":{},"v":{}}}"#,
                    i % 120,
                    (i * 7) % 120
                ),
            })
            .collect();

        let multi = e.run_batch(&lines);
        pool::set_num_threads(1);
        let single = e.run_batch(&lines);
        pool::set_num_threads(4);

        assert_eq!(multi, single);
        // Batch equals line-by-line serial execution, in order.
        for (line, resp) in lines.iter().zip(&multi) {
            assert_eq!(&e.run_line(line), resp);
        }
    }

    #[test]
    fn apply_update_bumps_generation_and_mutates_the_store() {
        let e = engine(EngineConfig::default());
        assert_eq!(e.generation(), 0);
        let dim = e.snapshot().store.dim();
        let update = SnapshotUpdate::new()
            .upsert(3, vec![9.0; dim]) // rewrite
            .upsert(120, vec![1.5; dim]) // contiguous append
            .delete(7);
        let generation = e.apply_update(&update).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(e.generation(), 1);

        let snap = e.snapshot();
        assert_eq!(snap.store.num_nodes(), 121);
        assert_eq!(snap.store.num_live(), 120);
        assert_eq!(snap.store.vector_of(3), &vec![9.0; dim][..]);
        assert!(snap.store.is_deleted(7));
        // Deleted node answers NotFound; appended node serves but has no
        // community yet.
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":7,"k":3}"#)).unwrap();
        assert_eq!(resp.error_code(), Some(ErrorCode::NotFound));
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"community","node":120}"#)).unwrap();
        assert_eq!(resp.error_code(), Some(ErrorCode::NotFound));
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":120,"k":3}"#)).unwrap();
        assert!(matches!(resp, Response::Neighbors { .. }), "{resp:?}");
    }

    #[test]
    fn apply_update_rejects_bad_shapes_without_publishing() {
        let e = engine(EngineConfig::default());
        let dim = e.snapshot().store.dim();
        let (code, _) = e
            .apply_update(&SnapshotUpdate::new().upsert(0, vec![1.0; dim + 1]))
            .unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        let (code, _) = e
            .apply_update(&SnapshotUpdate::new().upsert(500, vec![1.0; dim]))
            .unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest, "non-contiguous append");
        let (code, _) = e
            .apply_update(&SnapshotUpdate::new().delete(99999))
            .unwrap_err();
        assert_eq!(code, ErrorCode::NotFound);
        assert_eq!(e.generation(), 0, "failed updates must not publish");
    }

    #[test]
    fn min_generation_gates_reads_until_the_snapshot_catches_up() {
        let e = engine(EngineConfig::default());
        let stale = r#"{"op":"top_k","node":0,"k":3,"min_generation":1}"#;
        let resp: Response = serde_json::from_str(&e.run_line(stale)).unwrap();
        assert_eq!(resp.error_code(), Some(ErrorCode::SnapshotStale));

        e.apply_update(&SnapshotUpdate::new()).unwrap();
        let resp: Response = serde_json::from_str(&e.run_line(stale)).unwrap();
        assert!(matches!(resp, Response::Neighbors { .. }), "{resp:?}");
    }

    #[test]
    fn concurrent_reindex_fails_fast_with_conflict() {
        // Claim the reindex slot by hand, then observe apply_update refuse.
        let e = engine(EngineConfig::default());
        assert!(!e.reindex_in_progress());
        e.reindexing.store(true, Ordering::SeqCst);
        assert!(e.reindex_in_progress());
        let (code, _) = e.apply_update(&SnapshotUpdate::new()).unwrap_err();
        assert_eq!(code, ErrorCode::ReindexInProgress);
        e.reindexing.store(false, Ordering::SeqCst);
        assert!(e.apply_update(&SnapshotUpdate::new()).is_ok());
    }

    #[test]
    fn cache_entries_are_keyed_by_generation() {
        let e = engine(EngineConfig {
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let dim = e.snapshot().store.dim();
        let line = r#"{"op":"top_k","node":0,"k":3}"#;
        let before = e.run_line(line);
        // Rewriting node 0 changes its neighbors; a stale cache entry from
        // generation 0 must not answer for generation 1.
        e.apply_update(&SnapshotUpdate::new().upsert(0, vec![-4.0; dim]))
            .unwrap();
        let after = e.run_line(line);
        assert_ne!(before, after);
        // Re-asking at the new generation hits the cache and agrees.
        assert_eq!(e.run_line(line), after);
    }

    #[test]
    fn ann_index_tracks_updates_and_keeps_answering() {
        let e = engine(EngineConfig {
            use_ann: true,
            compact_threshold: 0.01, // force a compaction below
            ..EngineConfig::default()
        });
        let dim = e.snapshot().store.dim();
        let update = SnapshotUpdate::new()
            .upsert(120, vec![0.25; dim])
            .delete(5)
            .delete(6)
            .delete(7);
        e.apply_update(&update).unwrap();
        let snap = e.snapshot();
        let ann = snap.ann.as_ref().unwrap();
        assert_eq!(ann.len(), 121);
        assert_eq!(ann.ghosts(), 0, "threshold 0.01 must have compacted");
        let resp: Response =
            serde_json::from_str(&e.run_line(r#"{"op":"top_k","node":0,"k":5}"#)).unwrap();
        match resp {
            Response::Neighbors {
                neighbors, exact, ..
            } => {
                assert!(!exact);
                assert!(neighbors.iter().all(|n| ![5usize, 6, 7].contains(&n.node)));
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn upsert_reviving_a_compacted_id_serves_it_and_keeps_reindexing() {
        let e = engine(EngineConfig {
            use_ann: true,
            compact_threshold: 0.01,
            ..EngineConfig::default()
        });
        e.apply_update(&SnapshotUpdate::new().delete(5).delete(6))
            .unwrap();
        assert_eq!(
            e.snapshot().ann.as_ref().unwrap().ghosts(),
            0,
            "threshold 0.01 must have compacted"
        );
        let v = e.snapshot().store.vector_of(5).to_vec();
        let revive = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.apply_update(&SnapshotUpdate::new().upsert(5, v.clone()))
        }));
        // Whatever the revival did, the reindex slot is free again.
        assert!(!e.reindex_in_progress());
        let next = e.apply_update(&SnapshotUpdate::new());
        assert!(next.is_ok(), "reindexing wedged: {next:?}");
        assert_eq!(revive.expect("reviving a compacted id panicked"), Ok(2));

        let snap = e.snapshot();
        let ann = snap.ann.as_ref().unwrap();
        assert_eq!(ann.ghosts(), 0);
        assert!(!snap.store.is_deleted(5));
        assert_eq!(ann.search(&v, 1, 64, None)[0].0, 5);
        let line = format!(
            r#"{{"op":"top_k","vector":{},"k":1}}"#,
            serde_json::to_string(&v).unwrap()
        );
        match serde_json::from_str(&e.run_line(&line)).unwrap() {
            Response::Neighbors {
                neighbors, exact, ..
            } => {
                assert!(!exact);
                assert_eq!(neighbors[0].node, 5);
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn store_and_index_share_one_copy_of_the_rows() {
        let e = engine(EngineConfig {
            use_ann: true,
            ..EngineConfig::default()
        });
        let shared = |e: &QueryEngine| {
            let snap = e.snapshot();
            Arc::ptr_eq(snap.store.rows(), snap.ann.as_ref().unwrap().rows())
        };
        assert!(shared(&e), "after try_new");
        let update = SnapshotUpdate::new()
            .upsert(3, vec![0.5; 8])
            .upsert(120, vec![1.0; 8])
            .delete(7);
        e.apply_update(&update).unwrap();
        assert!(shared(&e), "after apply_update");
    }

    /// The ANN answer to a 10-neighbor `top_k` query of `node` or
    /// `vector`, as (id, score) pairs.
    fn ann_hits(e: &QueryEngine, node: Option<usize>, vector: Option<Vec<f64>>) -> Vec<Scored> {
        let query = Query::TopK {
            node,
            vector,
            k: Some(10),
            metric: None,
            ann: Some(true),
            min_generation: None,
        };
        match e.run(&query) {
            Response::Neighbors {
                neighbors,
                exact: false,
                ..
            } => neighbors.iter().map(|nb| (nb.node, nb.score)).collect(),
            other => panic!("expected ANN neighbors, got {other:?}"),
        }
    }

    #[test]
    fn ann_cosine_hits_carry_the_exact_scans_scores_bit_for_bit() {
        let z = gaussian_matrix(600, 32, 1.0, &mut seeded_rng(17));
        let e = QueryEngine::new(
            EmbeddingStore::new(z, None),
            EngineConfig {
                use_ann: true,
                ..EngineConfig::default()
            },
        );
        let snap = e.snapshot();
        let store = &snap.store;
        let n = store.num_nodes();
        let (mut hits, mut moved) = (0, 0);
        for node in (0..n).step_by(7) {
            let free: Vec<f64> = store.vector_of(node).iter().map(|x| 0.5 - x).collect();
            for (exclude, query) in [(Some(node), store.vector_of(node)), (None, &free[..])] {
                let exact = store.top_k(query, n, Metric::Cosine, exclude);
                let vector = exclude.is_none().then(|| query.to_vec());
                for (id, score) in ann_hits(&e, exclude, vector) {
                    let want = exact.iter().find(|&&(e, _)| e == id).unwrap().1;
                    hits += 1;
                    moved += usize::from(score.to_bits() != want.to_bits());
                }
            }
        }
        assert_eq!(
            moved, 0,
            "{moved} of {hits} ANN hits differ from the exact scan's score"
        );
    }

    #[test]
    fn ann_engine_over_a_tombstoned_store_never_serves_a_tombstone() {
        let n = 200;
        let z = gaussian_matrix(n, 8, 1.0, &mut seeded_rng(19));
        let deleted: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let e = QueryEngine::new(
            EmbeddingStore::with_tombstones(z, None, Some(deleted)),
            EngineConfig {
                use_ann: true,
                ..EngineConfig::default()
            },
        );
        for node in (1..n).step_by(2) {
            let hits = ann_hits(&e, Some(node), None);
            assert_eq!(hits.len(), 10);
            let served: Vec<usize> = hits
                .iter()
                .map(|&(id, _)| id)
                .filter(|id| id % 2 == 0)
                .collect();
            assert!(
                served.is_empty(),
                "node {node}: tombstoned {served:?} served"
            );
        }
    }

    #[test]
    fn delta_log_replays_acknowledged_updates_on_restart() {
        let dir = std::env::temp_dir().join(format!(
            "aneci-delta-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("deltas.jsonl");
        let _ = std::fs::remove_file(&log);

        let build_store = || {
            let z = gaussian_matrix(40, 4, 1.0, &mut seeded_rng(11));
            EmbeddingStore::new(z, None)
        };
        let config = EngineConfig::builder()
            .delta_log(log.clone())
            .build()
            .unwrap();

        let e = QueryEngine::try_new(build_store(), config.clone()).unwrap();
        e.apply_update(&SnapshotUpdate::new().upsert(40, vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        e.apply_update(&SnapshotUpdate::new().delete(3)).unwrap();
        assert_eq!(e.generation(), 2);
        let expected = e.run_line(r#"{"op":"top_k","node":40,"k":3}"#);
        drop(e);

        // A fresh engine over the same base store replays the log and lands
        // on the same state (modulo the cache, which is generation-keyed).
        let revived = QueryEngine::try_new(build_store(), config).unwrap();
        assert_eq!(revived.generation(), 2);
        assert_eq!(revived.snapshot().store.num_nodes(), 41);
        assert!(revived.snapshot().store.is_deleted(3));
        assert_eq!(
            revived.run_line(r#"{"op":"top_k","node":40,"k":3}"#),
            expected
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unscored store's neighbors answer sends `"suspect":null`, and a
    /// body without the field decodes with no verdict.
    #[test]
    fn unscored_answers_send_suspect_as_null() {
        let e = engine(EngineConfig::default());
        let line = e.run_line(r#"{"op":"top_k","node":0,"k":2}"#);
        assert!(line.ends_with(r#","suspect":null}"#), "{line}");
        let without = line.replace(r#","suspect":null"#, "");
        let resp: Response = serde_json::from_str(&without).unwrap();
        assert!(
            matches!(resp, Response::Neighbors { suspect: None, .. }),
            "{resp:?}"
        );
    }

    /// An upsert holding ±inf or NaN is a typed 400 before anything is
    /// logged or published (JSON cannot spell them, so a logged one would
    /// stop the next restart), and a restart replays the log it left. A
    /// free query vector holding one is a typed 400 too.
    #[test]
    fn non_finite_vectors_are_refused_before_anything_is_written() {
        let dir = std::env::temp_dir().join(format!(
            "aneci-delta-log-finite-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("deltas.jsonl");
        let _ = std::fs::remove_file(&log);
        let build_store = || {
            let z = gaussian_matrix(40, 4, 1.0, &mut seeded_rng(11));
            EmbeddingStore::new(z, None)
        };
        let config = EngineConfig::builder()
            .delta_log(log.clone())
            .build()
            .unwrap();

        let e = QueryEngine::try_new(build_store(), config.clone()).unwrap();
        e.apply_update(&SnapshotUpdate::new().upsert(40, vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        let logged = std::fs::read(&log).unwrap();
        // `1e999` is how a JSON body spells +inf: the decoder rounds it.
        let spelled: SnapshotUpdate =
            serde_json::from_str(r#"{"upserts":[{"node":0,"vector":[1e999,0,0,0]}],"deletes":[]}"#)
                .unwrap();
        assert_eq!(spelled.upserts[0].vector[0], f64::INFINITY);
        let mut refused = vec![spelled];
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            refused.push(SnapshotUpdate::new().upsert(3, vec![0.0, 0.0, 0.0, bad]));
            refused.push(
                SnapshotUpdate::new()
                    .upsert(41, vec![1.0; 4])
                    .upsert(42, vec![bad, 1.0, 1.0, 1.0])
                    .delete(5),
            );
        }
        for update in &refused {
            let (code, msg) = e.apply_update(update).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "{msg}");
            assert!(msg.contains("not a finite number"), "{msg}");
            assert_eq!(e.generation(), 1, "a refused update publishes nothing");
            assert_eq!(std::fs::read(&log).unwrap(), logged, "nor logs anything");
        }
        let expected = e.run_line(r#"{"op":"top_k","node":40,"k":3}"#);
        for line in [
            r#"{"op":"top_k","vector":[1e999,1,1,1],"k":3}"#,
            r#"{"op":"top_k","vector":[1,-1e999,1,1],"k":3,"metric":"dot"}"#,
        ] {
            let resp: Response = serde_json::from_str(&e.run_line(line)).unwrap();
            assert_eq!(resp.error_code(), Some(ErrorCode::BadRequest), "{line}");
        }
        drop(e);

        let revived = QueryEngine::try_new(build_store(), config).unwrap();
        assert_eq!(revived.generation(), 1);
        assert_eq!(revived.snapshot().store.num_nodes(), 41);
        assert_eq!(
            revived.run_line(r#"{"op":"top_k","node":40,"k":3}"#),
            expected
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_delta_log_record_is_a_typed_checkpoint_error() {
        let dir = std::env::temp_dir().join(format!(
            "aneci-delta-log-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("deltas.jsonl");
        // One acknowledged record followed by a crash mid-append.
        std::fs::write(
            &log,
            "{\"upserts\":[],\"deletes\":[3]}\n{\"upserts\":[{\"no",
        )
        .unwrap();

        let z = gaussian_matrix(20, 4, 1.0, &mut seeded_rng(11));
        let config = EngineConfig::builder()
            .delta_log(log.clone())
            .build()
            .unwrap();
        let err = match QueryEngine::try_new(EmbeddingStore::new(z, None), config) {
            Ok(_) => panic!("corrupt delta log must not build an engine"),
            Err(e) => e,
        };
        assert!(
            matches!(err, AneciError::Checkpoint(_)),
            "expected a checkpoint-integrity error, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("deltas.jsonl:2"), "{msg}");
        assert!(msg.contains("corrupt or truncated"), "{msg}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Delta-log replay on an ANN engine whose store starts with every
    /// fifth row tombstoned: `log` in place of the file, replayed by
    /// `try_new`. A compaction threshold of 0.2 lets a few deletes compact.
    fn replay(log: &[u8], path: &std::path::Path) -> Result<QueryEngine, AneciError> {
        std::fs::write(path, log).unwrap();
        let (n, dim) = (24, 3);
        let z = gaussian_matrix(n, dim, 1.0, &mut seeded_rng(5));
        let deleted = (0..n).map(|i| i % 5 == 0).collect();
        let config = EngineConfig {
            use_ann: true,
            hnsw: HnswConfig {
                m: 4,
                ef_construction: 16,
                seed: 3,
            },
            compact_threshold: 0.2,
            delta_log: Some(path.to_path_buf()),
            ..EngineConfig::default()
        };
        QueryEngine::try_new(
            EmbeddingStore::with_tombstones(z, None, Some(deleted)),
            config,
        )
    }

    /// One generated delta-log record: upserts as `(node, wrong)`, then
    /// deletes.
    type Record = (Vec<(usize, usize)>, Vec<usize>);

    /// A delta log of `records`. Node ids run past the 24 rows (appends,
    /// and non-contiguous ones), and an upsert whose `wrong` is 0 has 2
    /// dimensions instead of 3.
    fn delta_log(records: &[Record]) -> Vec<u8> {
        let mut log = String::new();
        for (r, (upserts, deletes)) in records.iter().enumerate() {
            let mut update = SnapshotUpdate::new();
            for (j, &(node, wrong)) in upserts.iter().enumerate() {
                let v = (0..2 + usize::from(wrong != 0))
                    .map(|c| ((node * 7 + r * 5 + j * 3 + c) % 11) as f64 * 0.3 - 1.5)
                    .collect();
                update = update.upsert(node, v);
            }
            for &node in deletes {
                update = update.delete(node);
            }
            log += &serde_json::to_string(&update).unwrap();
            log.push('\n');
        }
        log.into_bytes()
    }

    mod replay_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Whatever the log holds — arbitrary bytes, or valid records
            /// with bytes overwritten or cut short — `try_new` answers with
            /// an engine or a typed checkpoint or configuration error, and
            /// an engine it builds serves only live ids, at the exact
            /// scan's scores, from rows its index shares.
            #[test]
            fn delta_log_replay_is_typed_and_keeps_the_index_exact(
                noise in prop::collection::vec(any::<u8>(), 0..160),
                records in prop::collection::vec(
                    (
                        prop::collection::vec((0..26usize, 0..24usize), 0..5),
                        prop::collection::vec(0..26usize, 0..4),
                    ),
                    1..7,
                ),
                edits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..3),
                (mode, cut) in (0..4u8, any::<u64>()),
            ) {
                // Mode 0 is noise; 1 the valid log; 2 it with bytes
                // overwritten; 3 it cut short.
                let mut log = if mode == 0 { noise } else { delta_log(&records) };
                if mode == 2 {
                    for &(at, byte) in &edits {
                        let len = log.len() as u64;
                        log[(at % len) as usize] = byte;
                    }
                }
                if mode == 3 {
                    log.truncate((cut % (log.len() as u64 + 1)) as usize);
                }
                let path = std::env::temp_dir().join(format!(
                    "aneci-delta-log-replay-{}.jsonl",
                    std::process::id()
                ));
                let built = replay(&log, &path);
                let _ = std::fs::remove_file(&path);
                match built {
                    Ok(e) => {
                        let snap = e.snapshot();
                        let (store, ann) = (&snap.store, snap.ann.as_ref().unwrap());
                        prop_assert!(Arc::ptr_eq(store.rows(), ann.rows()));
                        let n = store.num_nodes();
                        for node in (0..n).filter(|&i| !store.is_deleted(i)) {
                            let exact = store.top_k(store.vector_of(node), n, Metric::Cosine, Some(node));
                            for (id, score) in ann_hits(&e, Some(node), None) {
                                prop_assert!(!store.is_deleted(id), "tombstoned {id} served");
                                let want = exact.iter().find(|&&(e, _)| e == id).unwrap().1;
                                prop_assert_eq!(score.to_bits(), want.to_bits());
                            }
                        }
                    }
                    Err(AneciError::Checkpoint(_) | AneciError::Config(_)) => {}
                    Err(other) => prop_assert!(false, "untyped replay failure: {other:?}"),
                }
            }
        }
    }

    fn suspect_of(resp: &str) -> Option<bool> {
        match serde_json::from_str::<Response>(resp).unwrap() {
            Response::Neighbors { suspect, .. } => suspect,
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    #[test]
    fn injected_anomalies_flag_poisoned_neighborhoods() {
        let line = r#"{"op":"top_k","node":7,"k":3}"#;

        // Unscored store: the detector stays out of the response.
        assert_eq!(
            suspect_of(&engine(EngineConfig::default()).run_line(line)),
            None
        );

        // Every node scored clean: checked, not flagged.
        assert_eq!(
            suspect_of(&scored_engine(&[], 0.0).run_line(line)),
            Some(false)
        );

        // Node 7's whole neighborhood poisoned: the top-k mass sits on
        // high-anomaly nodes and the response is flagged.
        let hits = store().top_k_node(7, 3, Metric::Cosine);
        let targets: Vec<usize> = hits.iter().map(|&(id, _)| id).collect();
        let e = scored_engine(&targets, 0.95);
        assert_eq!(suspect_of(&e.run_line(line)), Some(true));

        // A query whose neighborhood is clean is still unflagged.
        let n = e.snapshot().store.num_nodes();
        let far = (0..n).find(|i| !targets.contains(i) && *i != 7).unwrap();
        let clean_hits = e.snapshot().store.top_k_node(far, 3, Metric::Cosine);
        if clean_hits.iter().all(|(id, _)| !targets.contains(id)) {
            let clean_line = format!(r#"{{"op":"top_k","node":{far},"k":3}}"#);
            assert_eq!(suspect_of(&e.run_line(&clean_line)), Some(false));
        }
    }

    #[test]
    fn anomaly_scores_survive_snapshot_updates() {
        let e = scored_engine(&[1], 0.8);
        e.apply_update(&SnapshotUpdate::new().upsert(120, vec![0.5; 8]))
            .unwrap();
        let snap = e.snapshot();
        let scores = snap.store.anomaly_scores().unwrap();
        assert_eq!(scores.len(), 121);
        assert_eq!(scores[1], 0.8);
        // Appended nodes start unsuspicious until the next retrain.
        assert_eq!(scores[120], 0.0);
    }
}
