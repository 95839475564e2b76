//! The server runtime: acceptor thread, bounded connection queue, worker
//! threads, routing, and graceful shutdown. See the module docs in
//! [`crate::http`] for the threading and backpressure model.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aneci_core::AneciError;
use aneci_linalg::pool;

use crate::engine::{ErrorCode, QueryEngine, Response};
use crate::http::parse::{
    read_request, write_response, write_response_with_headers, ParseError, ParseLimits, Request,
};
use crate::snapshot::SnapshotUpdate;

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct HttpConfig {
    /// Worker threads handling connections. Defaults to the machine's core
    /// count (the `aneci-linalg::pool` sizing convention,
    /// [`pool::hardware_parallelism`]), at least 2.
    pub workers: usize,
    /// Accepted connections waiting for a worker. When full, new
    /// connections are answered `503` immediately and closed (load
    /// shedding) instead of growing the queue unboundedly.
    pub queue_capacity: usize,
    /// Serve multiple requests per connection.
    pub keep_alive: bool,
    /// How long a kept-alive connection may sit idle between requests, and
    /// the per-read stall cap inside a request.
    pub idle_timeout: Duration,
    /// Request-line + header byte budget per request.
    pub max_header_bytes: usize,
    /// Body byte budget per request.
    pub max_body_bytes: usize,
    /// Expose the test-only `POST /v1/admin/attack` route, which overwrites
    /// anomaly scores via [`QueryEngine::inject_anomalies`] so operators can
    /// rehearse poisoned-neighborhood detection end to end. Off by default;
    /// while disabled the path is indistinguishable from any other 404.
    pub admin_attack: bool,
}

impl Default for HttpConfig {
    fn default() -> Self {
        let workers = pool::hardware_parallelism().clamp(2, 32);
        Self {
            workers,
            queue_capacity: workers * 4,
            keep_alive: true,
            idle_timeout: Duration::from_secs(5),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            admin_attack: false,
        }
    }
}

impl HttpConfig {
    /// Checks internal consistency; [`HttpServer::start`] calls this, so a
    /// nonsensical value (zero workers, a zero-byte body budget) is refused
    /// before binding instead of surfacing later as a hung or
    /// instantly-shed connection.
    pub fn validate(&self) -> Result<(), AneciError> {
        let bad = |msg: &str| Err(AneciError::Config(msg.into()));
        if self.workers == 0 {
            return bad("http: workers must be at least 1");
        }
        if self.queue_capacity == 0 {
            return bad("http: queue_capacity must be at least 1");
        }
        if self.idle_timeout.is_zero() {
            return bad("http: idle_timeout must be positive");
        }
        if self.max_header_bytes < 256 {
            return bad("http: max_header_bytes must be at least 256 (a request line alone can approach that)");
        }
        if self.max_body_bytes == 0 {
            return bad("http: max_body_bytes must be positive");
        }
        Ok(())
    }
}

/// How often an idle-waiting worker wakes to re-check the shutdown flag.
const IDLE_POLL_TICK: Duration = Duration::from_millis(50);

/// Cached registry handles for the per-request hot path.
struct HttpMetrics {
    connections: aneci_obs::Counter,
    requests: aneci_obs::Counter,
    request_ns: aneci_obs::Histogram,
    keepalive_reused: aneci_obs::Counter,
    shed: aneci_obs::Counter,
    batch_queries: aneci_obs::Counter,
    status_2xx: aneci_obs::Counter,
    status_3xx: aneci_obs::Counter,
    status_4xx: aneci_obs::Counter,
    status_5xx: aneci_obs::Counter,
    route_healthz: aneci_obs::Counter,
    route_metrics: aneci_obs::Counter,
    route_query: aneci_obs::Counter,
    route_query_batch: aneci_obs::Counter,
    route_reindex: aneci_obs::Counter,
    route_attack: aneci_obs::Counter,
    route_shutdown: aneci_obs::Counter,
    route_unmatched: aneci_obs::Counter,
    legacy_redirects: aneci_obs::Counter,
}

impl HttpMetrics {
    fn new() -> Self {
        Self {
            connections: aneci_obs::counter("serve.http.connections"),
            requests: aneci_obs::counter("serve.http.requests"),
            request_ns: aneci_obs::histogram_time_ns("serve.http.request_ns"),
            keepalive_reused: aneci_obs::counter("serve.http.keepalive_reused"),
            shed: aneci_obs::counter("serve.http.shed"),
            batch_queries: aneci_obs::counter("serve.http.batch_queries"),
            status_2xx: aneci_obs::counter("serve.http.status.2xx"),
            status_3xx: aneci_obs::counter("serve.http.status.3xx"),
            status_4xx: aneci_obs::counter("serve.http.status.4xx"),
            status_5xx: aneci_obs::counter("serve.http.status.5xx"),
            route_healthz: aneci_obs::counter("serve.http.route.healthz"),
            route_metrics: aneci_obs::counter("serve.http.route.metrics"),
            route_query: aneci_obs::counter("serve.http.route.query"),
            route_query_batch: aneci_obs::counter("serve.http.route.query_batch"),
            route_reindex: aneci_obs::counter("serve.http.route.reindex"),
            route_attack: aneci_obs::counter("serve.http.route.attack"),
            route_shutdown: aneci_obs::counter("serve.http.route.shutdown"),
            route_unmatched: aneci_obs::counter("serve.http.route.unmatched"),
            legacy_redirects: aneci_obs::counter("serve.http.legacy_redirects"),
        }
    }

    fn record_status(&self, status: u16) {
        match status {
            200..=299 => self.status_2xx.inc(),
            300..=399 => self.status_3xx.inc(),
            400..=499 => self.status_4xx.inc(),
            _ => self.status_5xx.inc(),
        }
    }
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    engine: Arc<QueryEngine>,
    config: HttpConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    in_flight: AtomicUsize,
    metrics: HttpMetrics,
}

impl Shared {
    /// Flips the shutdown flag, wakes parked workers, and unblocks the
    /// acceptor with a self-connection. Idempotent.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        // `accept()` has no timeout; a throwaway local connection wakes it
        // so it can observe the flag and exit.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// The HTTP front end over a [`QueryEngine`]. Constructed bound-and-running
/// via [`HttpServer::start`]; interact with it through the returned
/// [`ServerHandle`].
pub struct HttpServer;

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the acceptor
    /// and `config.workers` worker threads, and returns immediately. A
    /// config [`HttpConfig::validate`] rejects fails with
    /// [`std::io::ErrorKind::InvalidInput`] and its message, before binding.
    pub fn start(
        engine: Arc<QueryEngine>,
        config: HttpConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        config
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            metrics: HttpMetrics::new(),
        });

        let workers = (0..shared.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aneci-http-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aneci-http-accept".into())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

/// Owner handle for a running server: the bound address, shutdown, and
/// lifecycle joins.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests initiated but not yet answered, right now.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// accepted (queued connections included) to completion, then join all
    /// threads. Blocks until fully drained.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Blocks until some other trigger (e.g. the `POST /v1/admin/shutdown` route)
    /// initiates shutdown, then drains exactly like [`Self::shutdown`].
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Serialized typed error body (the same shape the JSONL engine emits).
fn error_body(code: ErrorCode, message: impl Into<String>) -> Vec<u8> {
    let response = Response::Error {
        code,
        error: message.into(),
    };
    serde_json::to_string(&response)
        .expect("error serialization cannot fail")
        .into_bytes()
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.draining() {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            shed(shared, stream);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.queue_cv.notify_one();
    }
}

/// Backpressure: answer `503` immediately and close, never queue.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.metrics.shed.inc();
    shared.metrics.record_status(503);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let body = error_body(
        ErrorCode::Overloaded,
        format!(
            "connection queue full ({} waiting); retry later",
            shared.config.queue_capacity
        ),
    );
    let _ = write_response(&mut &stream, 503, "application/json", &body, false);
    // The request was never read; closing now would RST and could destroy
    // the 503 in flight. Drain what already arrived — with a tiny budget,
    // since this runs on the acceptor thread.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 16 * 1024 {
        match (&stream).read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.draining() {
                    break None;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        match conn {
            Some(stream) => handle_connection(shared, stream),
            // Queue drained and shutdown requested: exit.
            None => return,
        }
    }
}

/// Outcome of waiting for the first byte of the next request.
enum IdleWait {
    /// Data is buffered; parse a request now.
    Ready,
    /// Clean EOF, idle timeout, or shutdown while idle: close quietly.
    Close,
}

/// Waits up to `idle_timeout` for the next request's first byte, polling in
/// short ticks so a shutdown can't be held hostage by an idle keep-alive
/// connection. `served` distinguishes a fresh connection (still owed its
/// first response even while draining) from an idle kept-alive one.
fn wait_for_request(
    shared: &Shared,
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    served: usize,
) -> IdleWait {
    let deadline = Instant::now() + shared.config.idle_timeout;
    loop {
        if shared.draining() && served > 0 {
            return IdleWait::Close;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return IdleWait::Close;
        }
        if stream
            .set_read_timeout(Some(remaining.min(IDLE_POLL_TICK)))
            .is_err()
        {
            return IdleWait::Close;
        }
        match reader.fill_buf() {
            Ok([]) => return IdleWait::Close,
            Ok(_) => return IdleWait::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return IdleWait::Close,
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.metrics.connections.inc();
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = &stream;
    let limits = ParseLimits {
        max_header_bytes: shared.config.max_header_bytes,
        max_body_bytes: shared.config.max_body_bytes,
    };

    let mut served = 0usize;
    loop {
        match wait_for_request(shared, &stream, &mut reader, served) {
            IdleWait::Ready => {}
            IdleWait::Close => return,
        }
        // The request has started: one generous stall cap for the rest of
        // it, and count it as in flight until the response is written.
        let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let done = match read_request(&mut reader, &limits) {
            Ok(request) => {
                if served > 0 {
                    shared.metrics.keepalive_reused.inc();
                }
                served += 1;
                respond(shared, &mut writer, &request, start)
            }
            Err(parse_error) => {
                answer_parse_error(shared, &mut writer, &parse_error, start);
                linger_drain(&stream, &mut reader);
                true
            }
        };
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        if done {
            return;
        }
    }
}

/// Briefly drains whatever the client already sent before the connection is
/// closed. After a parse error the request was abandoned mid-read; closing
/// with unread bytes in the receive buffer makes the kernel send an RST,
/// which can destroy the error response before the client reads it. A
/// bounded drain (256 KiB / 250 ms) turns that into a clean FIN.
fn linger_drain(stream: &TcpStream, reader: &mut BufReader<TcpStream>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Answers a parse failure with its typed 4xx/5xx, when there is an answer
/// to give. Always closes the connection: after a framing error the stream
/// position is unreliable.
fn answer_parse_error(
    shared: &Shared,
    writer: &mut impl Write,
    parse_error: &ParseError,
    start: Instant,
) {
    let Some(code) = parse_error.error_code() else {
        return; // clean EOF or hard I/O failure: nothing to say
    };
    let status = code.http_status();
    shared.metrics.requests.inc();
    shared.metrics.record_status(status);
    let body = error_body(code, parse_error.message());
    let _ = write_response(writer, status, "application/json", &body, false);
    shared
        .metrics
        .request_ns
        .observe(start.elapsed().as_nanos() as f64);
}

/// One routed response. Returns `true` when the connection must close.
fn respond(shared: &Shared, writer: &mut impl Write, request: &Request, start: Instant) -> bool {
    shared.metrics.requests.inc();
    let routed = route(shared, request);
    shared.metrics.record_status(routed.status);
    let keep_alive = shared.config.keep_alive && request.wants_keep_alive() && !shared.draining();
    let extra: Vec<(&str, &str)> = routed
        .location
        .map(|target| ("location", target))
        .into_iter()
        .collect();
    let write_failed = write_response_with_headers(
        writer,
        routed.status,
        routed.content_type,
        &routed.body,
        keep_alive,
        &extra,
    )
    .is_err();
    shared
        .metrics
        .request_ns
        .observe(start.elapsed().as_nanos() as f64);
    write_failed || !keep_alive
}

/// One route handler's answer: status line, body, and (for 301s) the
/// `location` header value.
struct Routed {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    location: Option<&'static str>,
}

impl Routed {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            location: None,
        }
    }
}

/// The unversioned paths of the pre-`/v1` API and where each now lives.
/// Any method on these answers `301 Moved Permanently` with a `location`
/// header — clients learn the new path from the redirect instead of
/// silently running against a frozen legacy surface.
const LEGACY_ROUTES: [(&str, &str); 5] = [
    ("/healthz", "/v1/healthz"),
    ("/metrics", "/v1/metrics"),
    ("/query", "/v1/query"),
    ("/query_batch", "/v1/query_batch"),
    ("/shutdown", "/v1/admin/shutdown"),
];

/// Dispatches one request to its route handler.
fn route(shared: &Shared, request: &Request) -> Routed {
    const JSON: &str = "application/json";
    const NDJSON: &str = "application/x-ndjson";
    let method = request.method.as_str();
    let path = request.path();
    match (method, path) {
        ("GET", "/v1/healthz") => {
            shared.metrics.route_healthz.inc();
            let snap = shared.engine.snapshot();
            let body = format!(
                r#"{{"kind":"health","status":"{}","nodes":{},"live":{},"dim":{},"generation":{},"reindexing":{},"in_flight":{}}}"#,
                if shared.draining() {
                    "draining"
                } else {
                    "serving"
                },
                snap.store.num_nodes(),
                snap.store.num_live(),
                snap.store.dim(),
                snap.generation,
                shared.engine.reindex_in_progress(),
                shared.in_flight.load(Ordering::SeqCst),
            );
            Routed::new(200, JSON, body.into_bytes())
        }
        ("GET", "/v1/metrics") => {
            shared.metrics.route_metrics.inc();
            let snapshot = aneci_obs::global().snapshot();
            Routed::new(200, JSON, snapshot.to_json().into_bytes())
        }
        ("POST", "/v1/query") => {
            shared.metrics.route_query.inc();
            let Ok(text) = std::str::from_utf8(&request.body) else {
                let body = error_body(ErrorCode::BadRequest, "query body is not UTF-8");
                return Routed::new(400, JSON, body);
            };
            let line = text.trim();
            if line.is_empty() {
                let body = error_body(
                    ErrorCode::BadRequest,
                    "empty query body (expected one JSON query object)",
                );
                return Routed::new(400, JSON, body);
            }
            let out = shared.engine.run_line(line);
            Routed::new(query_status(&out), JSON, out.into_bytes())
        }
        ("POST", "/v1/query_batch") => {
            shared.metrics.route_query_batch.inc();
            let Ok(text) = std::str::from_utf8(&request.body) else {
                let body = error_body(ErrorCode::BadRequest, "batch body is not UTF-8");
                return Routed::new(400, JSON, body);
            };
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                let body = error_body(
                    ErrorCode::BadRequest,
                    "empty batch body (expected one JSON query per line)",
                );
                return Routed::new(400, JSON, body);
            }
            shared.metrics.batch_queries.add(lines.len() as u64);
            // Per-line errors come back typed *in place* — alignment with
            // the request lines is never broken, exactly like the JSONL
            // path — so the batch itself is always a 200.
            let mut body = shared.engine.run_batch(&lines).join("\n");
            body.push('\n');
            Routed::new(200, NDJSON, body.into_bytes())
        }
        ("POST", "/v1/admin/reindex") => {
            shared.metrics.route_reindex.inc();
            let update: SnapshotUpdate = match serde_json::from_slice(&request.body) {
                Ok(update) => update,
                Err(e) => {
                    let body = error_body(ErrorCode::BadRequest, format!("bad reindex body: {e}"));
                    return Routed::new(400, JSON, body);
                }
            };
            // Runs synchronously on this worker thread — off the readers'
            // path by construction: queries on other workers keep answering
            // from the pinned snapshot the whole time, and only the final
            // pointer swap is observable.
            match shared.engine.apply_update(&update) {
                Ok(generation) => {
                    let body = format!(r#"{{"kind":"reindex","generation":{generation}}}"#);
                    Routed::new(200, JSON, body.into_bytes())
                }
                Err((code, message)) => {
                    Routed::new(code.http_status(), JSON, error_body(code, message))
                }
            }
        }
        ("POST", "/v1/admin/attack") if shared.config.admin_attack => {
            shared.metrics.route_attack.inc();
            #[derive(serde::Deserialize)]
            struct AttackBody {
                targets: Vec<usize>,
                score: f64,
            }
            let body: AttackBody = match serde_json::from_slice(&request.body) {
                Ok(body) => body,
                Err(e) => {
                    let body = error_body(
                        ErrorCode::BadRequest,
                        format!("bad attack body (expected {{\"targets\":[..],\"score\":s}}): {e}"),
                    );
                    return Routed::new(400, JSON, body);
                }
            };
            match shared.engine.inject_anomalies(&body.targets, body.score) {
                Ok(generation) => {
                    let out = format!(
                        r#"{{"kind":"attack","generation":{generation},"targets":{}}}"#,
                        body.targets.len()
                    );
                    Routed::new(200, JSON, out.into_bytes())
                }
                Err((code, message)) => {
                    Routed::new(code.http_status(), JSON, error_body(code, message))
                }
            }
        }
        (_, "/v1/admin/attack") if shared.config.admin_attack => {
            shared.metrics.route_unmatched.inc();
            let body = error_body(
                ErrorCode::MethodNotAllowed,
                format!("{method} is not supported on {path}"),
            );
            Routed::new(405, JSON, body)
        }
        ("POST", "/v1/admin/shutdown") => {
            shared.metrics.route_shutdown.inc();
            shared.begin_shutdown();
            let body = br#"{"kind":"shutdown","status":"draining"}"#.to_vec();
            Routed::new(200, JSON, body)
        }
        (
            _,
            "/v1/healthz" | "/v1/metrics" | "/v1/query" | "/v1/query_batch" | "/v1/admin/reindex"
            | "/v1/admin/shutdown",
        ) => {
            shared.metrics.route_unmatched.inc();
            let body = error_body(
                ErrorCode::MethodNotAllowed,
                format!("{method} is not supported on {path}"),
            );
            Routed::new(405, JSON, body)
        }
        _ => {
            if let Some(&(_, target)) = LEGACY_ROUTES.iter().find(|&&(old, _)| old == path) {
                shared.metrics.legacy_redirects.inc();
                let body = format!(
                    r#"{{"kind":"moved","location":"{target}","error":"the unversioned API moved under /v1"}}"#
                );
                let mut routed = Routed::new(301, JSON, body.into_bytes());
                routed.location = Some(target);
                return routed;
            }
            shared.metrics.route_unmatched.inc();
            let body = error_body(
                ErrorCode::NotFound,
                format!("no route {method} {path} (have GET /v1/healthz, GET /v1/metrics, POST /v1/query, POST /v1/query_batch, POST /v1/admin/reindex, POST /v1/admin/shutdown)"),
            );
            Routed::new(404, JSON, body)
        }
    }
}

/// Status for a single-query response: typed engine errors surface as their
/// HTTP status, everything else is a 200. The error path re-parses the
/// (rare) error line; successes are matched on the serialized prefix alone
/// so the hot path never deserializes.
fn query_status(response_line: &str) -> u16 {
    if !response_line.starts_with(r#"{"kind":"error""#) {
        return 200;
    }
    match serde_json::from_str::<Response>(response_line) {
        Ok(response) => response.error_code().map_or(500, ErrorCode::http_status),
        Err(_) => 500,
    }
}
