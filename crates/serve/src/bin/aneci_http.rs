//! `aneci_http` — load a `.aneci` checkpoint and serve embedding queries
//! over HTTP/1.1 (see `aneci_serve::http` for the server architecture).
//!
//! ```text
//! aneci_http <checkpoint.aneci> [options]
//!
//!   --addr <host:port> bind address (default 127.0.0.1:7878; port 0 = ephemeral)
//!   --addr-file <path> write the bound address to a file once listening
//!                      (for scripts driving an ephemeral port)
//!   --workers <n>      worker threads (default: hardware cores, 2..=32)
//!   --queue <n>        connection-queue capacity (default: workers * 4)
//!   --idle-ms <n>      keep-alive idle timeout in ms (default 5000)
//!   --ann              build the HNSW index; answer top-k with it
//!   --ef <n>           ANN beam width at layer 0 (default 64)
//!   --k <n>            default k for top-k queries (default 10)
//!   --metric <m>       default metric: cosine | dot (default cosine)
//!   --cache <n>        LRU response-cache capacity (default 1024, 0 = off)
//!   --threads <n>      aneci-linalg pool threads for batch execution
//!   --delta-log <path> persist applied /v1/admin/reindex updates here and
//!                      replay them at startup (crash-safe dynamic serving)
//! ```
//!
//! Routes: `GET /v1/healthz`, `GET /v1/metrics`, `POST /v1/query`,
//! `POST /v1/query_batch`, `POST /v1/admin/reindex`,
//! `POST /v1/admin/shutdown`; any other path answers a typed 404. A
//! connection stays open while the client asks for keep-alive (the HTTP/1.1
//! default) and the server is not draining. The process runs until
//! `POST /v1/admin/shutdown` (or SIGKILL), drains in-flight requests,
//! prints the serve counters to stderr, and exits 0.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aneci_core::model::AneciModel;
use aneci_serve::engine::{EngineConfig, QueryEngine};
use aneci_serve::http::{HttpConfig, HttpServer};
use aneci_serve::store::{EmbeddingStore, Metric};

#[derive(Debug, PartialEq)]
struct Args {
    checkpoint: String,
    addr: String,
    addr_file: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    idle_ms: u64,
    ann: bool,
    ef: usize,
    k: usize,
    metric: Metric,
    cache: usize,
    threads: Option<usize>,
    delta_log: Option<String>,
}

fn usage() -> String {
    "usage: aneci_http <checkpoint.aneci> [--addr HOST:PORT] [--addr-file FILE] \
     [--workers N] [--queue N] [--idle-ms N] [--ann] [--ef N] [--k N] \
     [--metric cosine|dot] [--cache N] [--threads N] [--delta-log FILE]"
        .to_string()
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {s:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        checkpoint: String::new(),
        addr: "127.0.0.1:7878".to_string(),
        addr_file: None,
        workers: None,
        queue: None,
        idle_ms: 5000,
        ann: false,
        ef: 64,
        k: 10,
        metric: Metric::Cosine,
        cache: 1024,
        threads: None,
        delta_log: None,
    };
    let mut it = argv.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--addr" => args.addr = value_of("--addr")?,
            "--addr-file" => args.addr_file = Some(value_of("--addr-file")?),
            "--workers" => args.workers = Some(parse_num(&value_of("--workers")?, "--workers")?),
            "--queue" => args.queue = Some(parse_num(&value_of("--queue")?, "--queue")?),
            "--idle-ms" => args.idle_ms = parse_num(&value_of("--idle-ms")?, "--idle-ms")? as u64,
            "--ann" => args.ann = true,
            "--ef" => args.ef = parse_num(&value_of("--ef")?, "--ef")?,
            "--k" => args.k = parse_num(&value_of("--k")?, "--k")?,
            "--cache" => args.cache = parse_num(&value_of("--cache")?, "--cache")?,
            "--threads" => args.threads = Some(parse_num(&value_of("--threads")?, "--threads")?),
            "--delta-log" => args.delta_log = Some(value_of("--delta-log")?),
            "--metric" => {
                let m = value_of("--metric")?;
                args.metric = Metric::parse(&m)
                    .ok_or_else(|| format!("unknown metric {m:?} (cosine|dot)"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            other => positional.push(other.to_string()),
        }
    }
    match positional.len() {
        1 => args.checkpoint = positional.remove(0),
        0 => return Err(format!("missing checkpoint path\n{}", usage())),
        _ => return Err(format!("too many positional arguments\n{}", usage())),
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;

    if let Some(t) = args.threads {
        aneci_linalg::pool::set_num_threads(t);
    }

    let t0 = Instant::now();
    let ckpt = AneciModel::load_checkpoint(&args.checkpoint)
        .map_err(|e| format!("loading {}: {e}", args.checkpoint))?;
    let store = EmbeddingStore::from_checkpoint(&ckpt);
    let (n, d) = (store.num_nodes(), store.dim());
    eprintln!(
        "loaded {} ({n} nodes, dim {d}) in {:.1} ms",
        args.checkpoint,
        t0.elapsed().as_secs_f64() * 1e3
    );

    let t1 = Instant::now();
    let mut builder = EngineConfig::builder()
        .default_k(args.k)
        .default_metric(args.metric)
        .use_ann(args.ann)
        .ef_search(args.ef)
        .cache_capacity(args.cache);
    if let Some(path) = &args.delta_log {
        builder = builder.delta_log(path);
    }
    let config = builder.build().map_err(|e| format!("engine config: {e}"))?;
    let engine =
        Arc::new(QueryEngine::try_new(store, config).map_err(|e| format!("building engine: {e}"))?);
    if args.ann {
        eprintln!(
            "built HNSW index in {:.1} ms",
            t1.elapsed().as_secs_f64() * 1e3
        );
    }
    if args.delta_log.is_some() && engine.generation() > 0 {
        eprintln!(
            "replayed delta log to generation {} ({} live / {} total nodes)",
            engine.generation(),
            engine.snapshot().store.num_live(),
            engine.snapshot().store.num_nodes(),
        );
    }

    let defaults = HttpConfig::default();
    let config = HttpConfig {
        workers: args.workers.unwrap_or(defaults.workers),
        queue_capacity: args
            .queue
            .unwrap_or_else(|| args.workers.map_or(defaults.queue_capacity, |w| w * 4)),
        idle_timeout: Duration::from_millis(args.idle_ms.max(1)),
    };
    let workers = config.workers;
    let queue = config.queue_capacity;
    let handle = HttpServer::start(engine, config, args.addr.as_str())
        .map_err(|e| format!("starting the server on {}: {e}", args.addr))?;
    let addr = handle.addr();
    eprintln!("listening on http://{addr} ({workers} workers, queue {queue})");
    if let Some(path) = &args.addr_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }

    // Runs until POST /v1/admin/shutdown flips the drain flag; then
    // in-flight and queued work completes and the threads join.
    handle.wait();

    let snap = aneci_obs::global().snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    eprintln!(
        "shut down after {} requests on {} connections ({} shed, {} keep-alive reuses)",
        count("serve.http.requests"),
        count("serve.http.connections"),
        count("serve.http.shed"),
        count("serve.http.keepalive_reused"),
    );
    if let Some(lat) = snap.histogram("serve.http.request_ns") {
        eprintln!(
            "latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms ({} recorded)",
            lat.p50().unwrap_or_default() / 1e6,
            lat.p95().unwrap_or_default() / 1e6,
            lat.p99().unwrap_or_default() / 1e6,
            lat.count,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_args(&argv)
    }

    fn defaults() -> Args {
        parse(&["model.aneci"]).unwrap()
    }

    /// A flag, its value when it takes one, and the field that value sets.
    type Flag = (&'static str, Option<&'static str>, fn(&mut Args));

    /// Each flag of the usage line, in its order there.
    fn flags() -> Vec<Flag> {
        vec![
            ("--addr", Some("0.0.0.0:9000"), |a| {
                a.addr = "0.0.0.0:9000".into()
            }),
            ("--addr-file", Some("addr.txt"), |a| {
                a.addr_file = Some("addr.txt".into())
            }),
            ("--workers", Some("3"), |a| a.workers = Some(3)),
            ("--queue", Some("5"), |a| a.queue = Some(5)),
            ("--idle-ms", Some("7"), |a| a.idle_ms = 7),
            ("--ann", None, |a| a.ann = true),
            ("--ef", Some("11"), |a| a.ef = 11),
            ("--k", Some("13"), |a| a.k = 13),
            ("--metric", Some("dot"), |a| a.metric = Metric::Dot),
            ("--cache", Some("17"), |a| a.cache = 17),
            ("--threads", Some("19"), |a| a.threads = Some(19)),
            ("--delta-log", Some("deltas.jsonl"), |a| {
                a.delta_log = Some("deltas.jsonl".into())
            }),
        ]
    }

    /// `bench_e2e` starts the server with exactly this argv.
    #[test]
    fn the_benchmark_argv_parses_to_what_it_asks_for() {
        let args = parse(&[
            "model.aneci",
            "--ann",
            "--ef",
            "128",
            "--addr",
            "127.0.0.1:0",
        ]);
        let want = Args {
            checkpoint: "model.aneci".into(),
            addr: "127.0.0.1:0".into(),
            addr_file: None,
            workers: None,
            queue: None,
            idle_ms: 5000,
            ann: true,
            ef: 128,
            k: 10,
            metric: Metric::Cosine,
            cache: 1024,
            threads: None,
            delta_log: None,
        };
        assert_eq!(args, Ok(want));
    }

    #[test]
    fn every_flag_in_the_usage_line_parses() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .split('[')
            .skip(1)
            .map(|group| group.split([' ', ']']).next().unwrap())
            .collect();
        let cases = flags();
        let parsed: Vec<&str> = cases.iter().map(|&(flag, ..)| flag).collect();
        assert_eq!(listed, parsed, "the usage line and this table disagree");

        let mut all = vec!["model.aneci"];
        let mut want_all = defaults();
        for (flag, value, set) in cases {
            let argv: Vec<&str> = ["model.aneci", flag].into_iter().chain(value).collect();
            let mut want = defaults();
            set(&mut want);
            assert_ne!(want, defaults(), "{flag} sets its default");
            assert_eq!(parse(&argv), Ok(want), "{flag}");
            all.extend(&argv[1..]);
            set(&mut want_all);
        }
        assert_eq!(parse(&all), Ok(want_all));
    }

    #[test]
    fn unknown_flags_fail_with_the_usage_line() {
        for flag in ["--no-keepalive", "--admin-attack", "--verbose", "-x"] {
            let err = parse(&["model.aneci", flag]).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag}\n{}", usage()));
        }
    }

    #[test]
    fn a_flag_missing_its_value_fails() {
        for (flag, value, _) in flags() {
            if value.is_some() {
                let err = parse(&["model.aneci", flag]).unwrap_err();
                assert_eq!(err, format!("{flag} needs a value\n{}", usage()));
            }
        }
    }
}
