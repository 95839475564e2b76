//! # aneci-serve
//!
//! The serving subsystem: everything needed to take a trained AnECI model
//! from a `.aneci` checkpoint to answering embedding queries online.
//!
//! * [`store`] — [`store::EmbeddingStore`]: exact (brute-force, pooled)
//!   top-k cosine/dot neighbors, community lookups, and edge scores that
//!   reuse the `aneci-eval` link-prediction scorer verbatim; the one owner
//!   of a generation's embedding, norms and tombstone mask;
//! * [`hnsw`] — [`hnsw::HnswIndex`]: a from-scratch, deterministic HNSW
//!   approximate-nearest-neighbor graph over the store's rows, which it
//!   shares and scores with the store's own formula, so its reported
//!   scores are the exact scan's;
//! * [`cache`] — [`cache::LruCache`]: O(1) LRU response cache with hit/miss
//!   counters;
//! * [`engine`] — [`engine::QueryEngine`]: JSONL in, JSONL out, batched
//!   concurrently on the persistent pool with deterministic output order;
//! * [`snapshot`] — [`snapshot::SnapshotHandle`]: generation-counted
//!   `Arc<Snapshot>` epoch swaps, so embedding updates publish atomically
//!   while readers keep answering without blocking, plus the
//!   [`snapshot::SnapshotUpdate`] delta vocabulary and its on-disk log;
//! * [`http`] — [`http::HttpServer`]: a from-scratch, zero-dependency
//!   HTTP/1.1 front end over the engine (bounded-queue worker dispatch,
//!   keep-alive, load shedding, graceful shutdown), serving the versioned
//!   `/v1` API.
//!
//! One binary wires these together behind a CLI: `aneci_http`
//! (`src/bin/aneci_http.rs`) serves the queries over a TCP socket
//! (`GET /v1/healthz`, `GET /v1/metrics`, `POST /v1/query`,
//! `POST /v1/query_batch` for newline-delimited batches,
//! `POST /v1/admin/reindex`, `POST /v1/admin/shutdown`; the unversioned
//! legacy paths answer 301).
//!
//! ```no_run
//! use aneci_core::model::AneciModel;
//! use aneci_serve::engine::{EngineConfig, QueryEngine};
//! use aneci_serve::store::EmbeddingStore;
//!
//! let ckpt = AneciModel::load_checkpoint("model.aneci").unwrap();
//! let engine = QueryEngine::new(EmbeddingStore::from_checkpoint(&ckpt), EngineConfig::default());
//! println!("{}", engine.run_line(r#"{"op":"top_k","node":0,"k":5}"#));
//! ```

pub mod cache;
pub mod engine;
pub mod hnsw;
pub mod http;
pub mod snapshot;
pub mod store;

pub use cache::LruCache;
pub use engine::{
    EngineConfig, EngineConfigBuilder, ErrorCode, Neighbor, Query, QueryEngine, Response,
};
pub use hnsw::{recall_at_k, HnswConfig, HnswIndex};
pub use http::{HttpConfig, HttpServer, ServerHandle};
pub use snapshot::{Snapshot, SnapshotHandle, SnapshotUpdate, VectorUpsert};
pub use store::{EmbeddingStore, Metric, Scored};
