//! End-to-end tests for the HTTP/1.1 front end: routing parity with the
//! JSONL engine, typed 4xx/5xx bodies, raw-socket parser edge cases, and —
//! the two load-bearing guarantees — 503 load shedding under queue
//! saturation and graceful shutdown that drains in-flight requests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use aneci_core::{train_aneci, AneciConfig};
use aneci_graph::karate_club;
use aneci_serve::engine::{EngineConfig, QueryEngine};
use aneci_serve::http::{client, HttpClient, HttpConfig, HttpServer, ServerHandle};
use aneci_serve::store::EmbeddingStore;

fn engine() -> Arc<QueryEngine> {
    let graph = karate_club();
    let mut config = AneciConfig::for_community_detection(2, 42);
    config.epochs = 30;
    let (model, _) = train_aneci(&graph, &config).unwrap();
    let ckpt = model.checkpoint().unwrap();
    Arc::new(QueryEngine::new(
        EmbeddingStore::from_checkpoint(&ckpt),
        EngineConfig::default(),
    ))
}

/// A server on an ephemeral port with test-friendly timeouts.
fn server(config: HttpConfig) -> (Arc<QueryEngine>, ServerHandle) {
    let engine = engine();
    let handle = HttpServer::start(Arc::clone(&engine), config, "127.0.0.1:0").unwrap();
    (engine, handle)
}

fn default_server() -> (Arc<QueryEngine>, ServerHandle) {
    server(HttpConfig {
        workers: 2,
        queue_capacity: 8,
        ..HttpConfig::default()
    })
}

/// A raw connection the tests can feed arbitrary (malformed) bytes.
fn raw_connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect_timeout(&handle.addr(), Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Reads until EOF and returns `(status, full_text)`.
fn read_to_eof(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).into_owned();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    (status, text)
}

#[test]
fn invalid_configs_are_refused_before_binding() {
    let default_but = |invalidate: fn(&mut HttpConfig)| {
        let mut config = HttpConfig::default();
        invalidate(&mut config);
        config
    };
    let cases = [
        ("workers", default_but(|c| c.workers = 0)),
        ("queue_capacity", default_but(|c| c.queue_capacity = 0)),
        (
            "idle_timeout",
            default_but(|c| c.idle_timeout = Duration::ZERO),
        ),
    ];
    // An address already taken: binding it would fail with another kind.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let engine = engine();
    for (field, config) in cases {
        let Err(err) = HttpServer::start(Arc::clone(&engine), config, taken.local_addr().unwrap())
        else {
            panic!("{field}: an invalid config started a server");
        };
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{field}: {err}"
        );
        assert!(err.to_string().contains(field), "{field}: {err}");
    }
}

#[test]
fn healthz_query_metrics_round_trip() {
    let (engine, handle) = default_server();
    let addr = handle.addr();

    let health = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    let text = health.text();
    assert!(text.contains(r#""status":"serving""#), "{text}");
    assert!(text.contains(r#""nodes":34"#), "{text}");
    assert!(text.contains(r#""generation":0"#), "{text}");
    assert!(text.contains(r#""reindexing":false"#), "{text}");

    // The HTTP answer is byte-identical to the JSONL engine's answer.
    let line = r#"{"op":"top_k","node":0,"k":5}"#;
    let response = client::post(addr, "/v1/query", line).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), engine.run_line(line));
    assert_eq!(response.header("content-type"), Some("application/json"));
    // The checkpoint's store carries anomaly scores, so the detector flags
    // every top-k answer one way or the other.
    assert!(
        response.text().contains(r#""suspect":"#),
        "{}",
        response.text()
    );

    // Batch: four lines in, four aligned lines out; the blank and the bad
    // line come back typed in place.
    let batch =
        "{\"op\":\"community\",\"node\":1}\n\nnot json\n{\"op\":\"edge_score\",\"u\":0,\"v\":1}";
    let response = client::post(addr, "/v1/query_batch", batch).unwrap();
    assert_eq!(response.status, 200);
    let body = response.text();
    let lines: Vec<&str> = body.trim_end().split('\n').map(str::trim).collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains(r#""kind":"community""#), "{}", lines[0]);
    for line in &lines[1..3] {
        assert!(line.contains(r#""kind":"error""#), "{line}");
        assert!(line.contains(r#""code":"bad_request""#), "{line}");
    }
    assert!(lines[3].contains(r#""kind":"edge_score""#), "{}", lines[3]);

    let metrics = client::get(addr, "/v1/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("serve.http.requests"), "{text}");
    assert!(text.contains("serve.http.route.query"), "{text}");
    assert!(text.contains("serve.robust.checked"), "{text}");

    handle.shutdown();
}

#[test]
fn typed_errors_carry_code_and_status() {
    let (_engine, handle) = default_server();
    let addr = handle.addr();

    // Malformed query JSON → 400 bad_request.
    let r = client::post(addr, "/v1/query", "{definitely not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains(r#""code":"bad_request""#), "{}", r.text());

    // Out-of-range node → 404 not_found (karate club has 34 nodes).
    let r = client::post(addr, "/v1/query", r#"{"op":"top_k","node":9999,"k":5}"#).unwrap();
    assert_eq!(r.status, 404);
    assert!(r.text().contains(r#""code":"not_found""#), "{}", r.text());

    // Empty body → 400.
    let r = client::post(addr, "/v1/query", "").unwrap();
    assert_eq!(r.status, 400);

    // Unknown route → 404; wrong method on a known route → 405.
    let r = client::get(addr, "/nope").unwrap();
    assert_eq!(r.status, 404);
    assert!(r.text().contains(r#""code":"not_found""#), "{}", r.text());
    let r = client::get(addr, "/v1/query").unwrap();
    assert_eq!(r.status, 405);
    assert!(
        r.text().contains(r#""code":"method_not_allowed""#),
        "{}",
        r.text()
    );

    // The attack route no configuration serves is an unknown path like any
    // other, whatever the method.
    let attack = r#"{"targets":[0],"score":0.9}"#;
    assert_unknown_paths(
        addr,
        &[
            ("POST", "/v1/admin/attack", attack),
            ("GET", "/v1/admin/attack", ""),
        ],
    );

    handle.shutdown();
}

/// Sends each request on its own connection and checks that it answers a
/// typed 404 with no `location`, and that the server still serves after.
fn assert_unknown_paths(addr: SocketAddr, requests: &[(&str, &str, &str)]) {
    for &(method, path, body) in requests {
        let body = (method == "POST").then_some(body.as_bytes());
        let r = HttpClient::connect(addr)
            .unwrap()
            .request(method, path, body)
            .unwrap();
        assert_eq!(r.status, 404, "{method} {path}: {}", r.text());
        assert!(r.text().contains(r#""code":"not_found""#), "{}", r.text());
        assert_eq!(r.header("location"), None, "{method} {path}");
    }
    let r = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains(r#""status":"serving""#), "{}", r.text());
}

#[test]
fn legacy_paths_answer_404_and_execute_nothing() {
    let (_engine, handle) = default_server();
    let addr = handle.addr();

    // The unversioned paths of the pre-`/v1` API are unknown paths: a typed
    // 404 that executes nothing (`/shutdown` leaves the server serving).
    let query = r#"{"op":"top_k","node":0,"k":5}"#;
    assert_unknown_paths(
        addr,
        &[
            ("GET", "/healthz", ""),
            ("GET", "/metrics", ""),
            ("POST", "/query", query),
            ("POST", "/query_batch", query),
            ("POST", "/shutdown", ""),
        ],
    );

    handle.shutdown();
}

#[test]
fn a_bad_unicode_escape_is_a_400_and_the_worker_serves_on() {
    // One worker: a panic while it decodes the body would leave no thread
    // to answer the next request.
    let (_engine, handle) = server(HttpConfig {
        workers: 1,
        queue_capacity: 4,
        ..HttpConfig::default()
    });
    let addr = handle.addr();

    let bad = r#"{"op":"top_k","node":1,"k":3,"metric":"\ud800\ux0041"}"#;
    let r = client::post(addr, "/v1/query", bad).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains(r#""code":"bad_request""#), "{}", r.text());

    // A valid pair decodes to its character, which names no metric.
    let pair = r#"{"op":"top_k","node":1,"k":3,"metric":"\ud83d\ude00"}"#;
    let r = client::post(addr, "/v1/query", pair).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(
        r.text().contains("unknown metric \\\"\u{1F600}\\\""),
        "{}",
        r.text()
    );

    let r = client::get(addr, "/v1/healthz").unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    handle.shutdown();
}

#[test]
fn reindex_route_publishes_a_generation_and_read_your_writes_holds() {
    let (engine, handle) = default_server();
    let addr = handle.addr();
    let dim = engine.snapshot().store.dim();

    // A min_generation ahead of the snapshot → 412 precondition failed.
    let stale = r#"{"op":"top_k","node":0,"k":3,"min_generation":1}"#;
    let r = client::post(addr, "/v1/query", stale).unwrap();
    assert_eq!(r.status, 412);
    assert!(
        r.text().contains(r#""code":"snapshot_stale""#),
        "{}",
        r.text()
    );

    // Append node 34 and delete node 2 in one atomic update.
    let update = format!(
        r#"{{"upserts":[{{"node":34,"vector":{}}}],"deletes":[2]}}"#,
        serde_json::to_string(&vec![0.5; dim]).unwrap()
    );
    let r = client::post(addr, "/v1/admin/reindex", &update).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains(r#""generation":1"#), "{}", r.text());

    // The same min_generation=1 query now answers.
    let r = client::post(addr, "/v1/query", stale).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    // The deleted node is gone; the appended node serves.
    let r = client::post(addr, "/v1/query", r#"{"op":"top_k","node":2,"k":3}"#).unwrap();
    assert_eq!(r.status, 404);
    let r = client::post(addr, "/v1/query", r#"{"op":"top_k","node":34,"k":3}"#).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    // Health reflects the new generation and the shrunken live count.
    let health = client::get(addr, "/v1/healthz").unwrap();
    let text = health.text();
    assert!(text.contains(r#""generation":1"#), "{text}");
    assert!(text.contains(r#""nodes":35"#), "{text}");
    assert!(text.contains(r#""live":34"#), "{text}");

    // A malformed update body is a typed 400, not a publish.
    let r = client::post(addr, "/v1/admin/reindex", "{not json").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains(r#""code":"bad_request""#), "{}", r.text());
    let r = client::get(addr, "/v1/healthz").unwrap();
    assert!(r.text().contains(r#""generation":1"#), "{}", r.text());

    handle.shutdown();
}

#[test]
fn parser_rejects_garbage_without_panicking() {
    let (_engine, handle) = default_server();

    // Oversized headers → 431.
    let mut s = raw_connect(&handle);
    write!(s, "GET /v1/healthz HTTP/1.1\r\n").unwrap();
    let filler = format!("x-filler: {}\r\n", "a".repeat(1024));
    for _ in 0..16 {
        // 16 KiB of headers against an 8 KiB budget; the server may close
        // mid-write once the budget trips, so write errors are fine here.
        if s.write_all(filler.as_bytes()).is_err() {
            break;
        }
    }
    let _ = s.write_all(b"\r\n");
    let (status, text) = read_to_eof(&mut s);
    assert_eq!(status, 431, "{text}");
    assert!(text.contains(r#""code":"headers_too_large""#), "{text}");

    // Truncated chunked body (EOF mid-chunk) → 408.
    let mut s = raw_connect(&handle);
    write!(
        s,
        "POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n20\r\n{{\"op\":"
    )
    .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, text) = read_to_eof(&mut s);
    assert_eq!(status, 408, "{text}");

    // Malformed chunk size → 400.
    let mut s = raw_connect(&handle);
    write!(
        s,
        "POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n"
    )
    .unwrap();
    let (status, text) = read_to_eof(&mut s);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains(r#""code":"bad_request""#), "{text}");

    // Garbage request line → 400.
    let mut s = raw_connect(&handle);
    write!(s, "completely wrong\r\n\r\n").unwrap();
    let (status, _) = read_to_eof(&mut s);
    assert_eq!(status, 400);

    // Zero-length POST /v1/query body parses fine and earns a typed 400.
    let mut s = raw_connect(&handle);
    write!(
        s,
        "POST /v1/query HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, text) = read_to_eof(&mut s);
    assert_eq!(status, 400, "{text}");
    assert!(text.contains(r#""code":"bad_request""#), "{text}");

    handle.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_answered_in_order() {
    let (engine, handle) = default_server();

    // Two requests in one write; both answers must come back, in order.
    let line = r#"{"op":"community","node":3}"#;
    let mut s = raw_connect(&handle);
    write!(
        s,
        "GET /v1/healthz HTTP/1.1\r\n\r\nPOST /v1/query HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{line}",
        line.len()
    )
    .unwrap();
    let (first_status, text) = read_to_eof(&mut s);
    assert_eq!(first_status, 200);
    assert!(text.contains(r#""kind":"health""#), "{text}");
    // The second response follows in the same byte stream.
    let second = text
        .match_indices("HTTP/1.1 ")
        .nth(1)
        .map(|(i, _)| &text[i..])
        .expect("second pipelined response missing");
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert!(second.contains(&engine.run_line(line)), "{second}");

    // Sequential keep-alive reuse over one client connection.
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let first = client.get("/v1/healthz").unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = client.post("/v1/query", line).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.text(), engine.run_line(line));

    handle.shutdown();
}

/// Occupies a worker by starting a request and never finishing it. The
/// in-flight counter rises once the first bytes land, and the worker blocks
/// reading the rest (bounded by the server's idle timeout).
fn occupy_worker(handle: &ServerHandle) -> TcpStream {
    let mut s = raw_connect(handle);
    // `connection: close` makes the server close right after responding, so
    // read_to_eof sees EOF instead of racing the keep-alive idle timeout.
    write!(
        s,
        "POST /v1/query HTTP/1.1\r\ncontent-length: 30\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    s.flush().unwrap();
    for _ in 0..200 {
        if handle.in_flight() > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.in_flight() > 0, "worker never picked up the request");
    s
}

#[test]
fn saturated_queue_sheds_with_503() {
    // One worker, queue of one: the worker is pinned on a half-sent
    // request, one connection fills the queue, and everything after that
    // must be answered 503 immediately — the queue must not grow.
    let (_engine, handle) = server(HttpConfig {
        workers: 1,
        queue_capacity: 1,
        idle_timeout: Duration::from_secs(10),
    });
    let addr = handle.addr();

    let mut pinned = occupy_worker(&handle);

    // Fill the queue (this connection parks until the worker frees up).
    let mut queued = raw_connect(&handle);
    write!(
        queued,
        "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Everything beyond the queue is shed with a typed 503.
    let mut shed_seen = 0;
    for _ in 0..10 {
        match client::get(addr, "/v1/healthz") {
            Ok(r) if r.status == 503 => {
                assert!(r.text().contains(r#""code":"overloaded""#), "{}", r.text());
                shed_seen += 1;
            }
            Ok(r) => panic!("expected 503 while saturated, got {}", r.status),
            // The shed write can race the client close; a dropped
            // connection is still a shed, just not a counted one.
            Err(_) => {}
        }
    }
    assert!(shed_seen > 0, "no 503 observed under saturation");

    // Unpin the worker: the stuck request completes, then the queued
    // connection gets served.
    write!(pinned, "{:<30}", r#"{"op":"community","node":0}"#).unwrap();
    let (status, _) = read_to_eof(&mut pinned);
    assert_eq!(status, 200);
    let (status, text) = read_to_eof(&mut queued);
    assert_eq!(status, 200, "{text}");

    handle.shutdown();
}

#[test]
fn fleet_sized_load_sheds_nothing() {
    // A keep-alive connection holds its worker for its whole life, so a
    // server with a worker per client plus spare must answer every request.
    // Asserted on what the clients see: the process-wide `serve.http.shed`
    // counter also counts the sheds of the saturation test.
    let (clients, per_client, k) = (8usize, 250usize, 10usize);
    let workers = clients + 2;
    let (engine, handle) = server(HttpConfig {
        workers,
        queue_capacity: 4 * workers,
        ..HttpConfig::default()
    });
    let addr = handle.addr();
    let n = engine.snapshot().store.num_nodes();

    let fleet: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..per_client {
                    let node = (c * per_client + i * 131) % n;
                    let line = format!(r#"{{"op":"top_k","node":{node},"k":{k}}}"#);
                    let r = client.post("/v1/query", &line).unwrap();
                    assert_eq!(r.status, 200, "{}", r.text());
                }
            })
        })
        .collect();
    for client in fleet {
        client
            .join()
            .expect("a client saw a shed or a failed request");
    }

    // Then every client's queries at once, as one batch.
    let total = clients * per_client;
    let batch: String = (0..total)
        .map(|i| {
            format!(
                "{{\"op\":\"top_k\",\"node\":{},\"k\":{k}}}\n",
                (i * 131) % n
            )
        })
        .collect();
    let r = client::post(addr, "/v1/query_batch", &batch).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.text().trim_end().lines().count(), total);

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_queued() {
    let (_engine, handle) = server(HttpConfig {
        workers: 1,
        queue_capacity: 4,
        idle_timeout: Duration::from_secs(10),
    });

    // One request mid-flight, one connection waiting in the queue.
    let mut in_flight = occupy_worker(&handle);
    let mut queued = raw_connect(&handle);
    write!(queued, "GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Shutdown from another thread; it must block until both are served.
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(200));
    assert!(!shutdown.is_finished(), "shutdown did not wait for drain");

    // Finish the in-flight request: it still gets its full 200, with
    // `connection: close` because the server is draining.
    write!(in_flight, "{:<30}", r#"{"op":"community","node":0}"#).unwrap();
    let (status, text) = read_to_eof(&mut in_flight);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains(r#""kind":"community""#), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // The queued connection is drained too, not dropped.
    let (status, text) = read_to_eof(&mut queued);
    assert_eq!(status, 200, "{text}");
    assert!(text.contains(r#""kind":"health""#), "{text}");

    shutdown.join().unwrap();
}

#[test]
fn shutdown_route_stops_the_server() {
    let (_engine, handle) = server(HttpConfig {
        workers: 2,
        queue_capacity: 4,
        ..HttpConfig::default()
    });
    let addr = handle.addr();
    let r = client::post(addr, "/v1/admin/shutdown", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains(r#""status":"draining""#), "{}", r.text());
    // wait() returns once the drain completes.
    handle.wait();
    // The listener is gone: new connections fail (or are reset unread).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = Vec::new();
            let n = (&s).read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {buf:?}");
        }
    }
}
