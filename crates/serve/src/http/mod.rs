//! A from-scratch HTTP/1.1 serving front end over the
//! [`QueryEngine`](crate::engine::QueryEngine) —
//! `std::net` only, zero external dependencies.
//!
//! Until this module existed the serving subsystem answered queries only
//! over stdin/stdout JSONL; this is the network listener that makes the
//! engine load-testable under concurrent traffic. The full architecture is
//! documented in DESIGN.md §4.7; the short version:
//!
//! * **Parsing** ([`parse`]) — a hand-rolled request parser (request line,
//!   headers, `Content-Length` and chunked bodies, explicit size limits:
//!   the server reads 8 KiB of head and 1 MiB of body at most) and one
//!   `Content-Length`-framed response writer. Malformed input maps to
//!   typed 4xx/5xx JSON bodies (the engine's
//!   [`ErrorCode`](crate::engine::ErrorCode) vocabulary),
//!   never to a panic or a hang.
//! * **One write per message** — the response writer, and the [`client`]'s
//!   request writer, encode head and body into one buffer and hand it to a
//!   single `write_all`. Both ends set `TCP_NODELAY`, under which every
//!   write to the socket leaves as a TCP segment of its own, so a head
//!   written field by field would cost a syscall and a segment per piece.
//! * **Threading** ([`server`]) — one acceptor thread feeds accepted
//!   connections into a **bounded queue**; a fixed set of worker threads
//!   (sized by the `aneci-linalg::pool` convention,
//!   `pool::hardware_parallelism()`) pops connections and serves their
//!   keep-alive request loop. When the queue is full the acceptor answers
//!   `503` immediately and closes — **load shedding with backpressure**
//!   instead of unbounded buffering.
//! * **Keep-alive** — HTTP/1.1 persistent connections with pipelining
//!   support, an idle timeout between requests, and a per-request stall
//!   cap. A connection stays open while the request asks for it (its
//!   `Connection` header, or the HTTP/1.1 default) and the server is not
//!   draining. Idle waits poll in short ticks so shutdown is never held
//!   hostage by a silent connection.
//! * **Graceful shutdown** — triggered by [`ServerHandle::shutdown`] or the
//!   `POST /v1/admin/shutdown` route: the acceptor stops, in-flight
//!   requests finish, queued connections are drained (served with
//!   `Connection: close`), and all threads join.
//! * **Routes (versioned under `/v1`)** — `GET /v1/healthz` (status, node
//!   counts, snapshot generation, reindex flag), `GET /v1/metrics` (an
//!   `aneci-obs` snapshot), `POST /v1/query` (one JSON query, the JSONL
//!   line shape), `POST /v1/query_batch` (newline-delimited queries in,
//!   newline-delimited responses out, per-line errors in place), `POST
//!   /v1/admin/reindex` (a [`SnapshotUpdate`](crate::snapshot::SnapshotUpdate)
//!   body, applied as one atomic generation bump), `POST
//!   /v1/admin/shutdown`. Any other path answers a typed `404 not_found`,
//!   and a known path under the wrong method a typed `405`.
//! * **Settings** ([`HttpConfig`]) — worker count, queue capacity and idle
//!   timeout; nothing else is configurable.
//! * **Observability** — per-route `serve.http.route.*` counters, total
//!   request/connection/shed/status-class counters, and a
//!   `serve.http.request_ns` latency histogram, all in the
//!   global `aneci-obs` registry (and therefore visible through
//!   `GET /v1/metrics` itself).
//!
//! ```no_run
//! use std::sync::Arc;
//! use aneci_serve::engine::{EngineConfig, QueryEngine};
//! use aneci_serve::http::{client, HttpConfig, HttpServer};
//! use aneci_serve::store::EmbeddingStore;
//! # let store: EmbeddingStore = unimplemented!();
//!
//! let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
//! let handle = HttpServer::start(engine, HttpConfig::default(), "127.0.0.1:0").unwrap();
//! let response = client::post(
//!     handle.addr(),
//!     "/v1/query",
//!     r#"{"op":"top_k","node":0,"k":5}"#,
//! ).unwrap();
//! assert_eq!(response.status, 200);
//! handle.shutdown();
//! ```

pub mod client;
pub mod parse;
pub mod server;

pub use client::{ClientResponse, HttpClient};
pub use parse::{ParseError, ParseLimits, Request};
pub use server::{HttpConfig, HttpServer, ServerHandle};

/// Keeps each `write` call's bytes apart, so a test can check both what a
/// message says and how many writes carried it.
#[cfg(test)]
#[derive(Default)]
struct WriteLog(Vec<Vec<u8>>);

#[cfg(test)]
impl std::io::Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
