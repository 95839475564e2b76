//! `aneci_serve` — load a `.aneci` checkpoint and answer JSONL queries.
//!
//! ```text
//! aneci_serve <checkpoint.aneci> [options] [< queries.jsonl]
//!
//!   --queries <file>   read queries from a file instead of stdin
//!   --ann              build the HNSW index; answer top-k with it
//!   --ef <n>           ANN beam width at layer 0 (default 64)
//!   --k <n>            default k for top-k queries (default 10)
//!   --metric <m>       default metric: cosine | dot (default cosine)
//!   --cache <n>        LRU response-cache capacity (default 1024, 0 = off)
//!   --threads <n>      worker threads for batch execution
//! ```
//!
//! Responses go to stdout (one JSON object per input line, in input order);
//! throughput, latency percentiles, and cache stats go to stderr.

use std::io::{BufWriter, Read, Write};
use std::process::ExitCode;
use std::time::Instant;

use aneci_core::model::AneciModel;
use aneci_serve::engine::{EngineConfig, QueryEngine};
use aneci_serve::store::{EmbeddingStore, Metric};

struct Args {
    checkpoint: String,
    queries: Option<String>,
    ann: bool,
    ef: usize,
    k: usize,
    metric: Metric,
    cache: usize,
    threads: Option<usize>,
}

fn usage() -> String {
    "usage: aneci_serve <checkpoint.aneci> [--queries FILE] [--ann] [--ef N] \
     [--k N] [--metric cosine|dot] [--cache N] [--threads N]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        checkpoint: String::new(),
        queries: None,
        ann: false,
        ef: 64,
        k: 10,
        metric: Metric::Cosine,
        cache: 1024,
        threads: None,
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
            "--queries" => args.queries = Some(value_of("--queries")?),
            "--ann" => args.ann = true,
            "--ef" => args.ef = parse_num(&value_of("--ef")?, "--ef")?,
            "--k" => args.k = parse_num(&value_of("--k")?, "--k")?,
            "--cache" => args.cache = parse_num(&value_of("--cache")?, "--cache")?,
            "--threads" => args.threads = Some(parse_num(&value_of("--threads")?, "--threads")?),
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

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {s:?}"))
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
    let n = store.num_nodes();
    let d = store.dim();
    eprintln!(
        "loaded {} ({n} nodes, dim {d}) in {:.1} ms",
        args.checkpoint,
        t0.elapsed().as_secs_f64() * 1e3
    );

    let t1 = Instant::now();
    let engine = QueryEngine::new(
        store,
        EngineConfig {
            default_k: args.k,
            default_metric: args.metric,
            use_ann: args.ann,
            ef_search: args.ef,
            cache_capacity: args.cache,
            ..EngineConfig::default()
        },
    );
    if args.ann {
        eprintln!(
            "built HNSW index in {:.1} ms",
            t1.elapsed().as_secs_f64() * 1e3
        );
    }

    let raw = match &args.queries {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
    };
    // Every input line gets a response line, in order — blank or malformed
    // lines come back as typed `{"kind":"error",...}` responses rather than
    // being dropped, so output stays aligned with input.
    let lines: Vec<&str> = raw.lines().collect();
    if lines.is_empty() {
        eprintln!("no queries");
        return Ok(());
    }

    // Batch execution; the engine records per-query latency into the
    // `serve.query_ns` histogram of the aneci-obs registry as it runs, so
    // percentiles come straight from telemetry instead of a second
    // hand-timed pass over the queries.
    let t2 = Instant::now();
    let responses = engine.run_batch(&lines);
    let batch_secs = t2.elapsed().as_secs_f64();

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for r in &responses {
        writeln!(out, "{r}").map_err(|e| format!("writing stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("flushing stdout: {e}"))?;

    let (hits, misses) = engine.cache_stats();
    eprintln!(
        "{} queries in {:.1} ms — {:.0} q/s ({})",
        lines.len(),
        batch_secs * 1e3,
        lines.len() as f64 / batch_secs.max(1e-12),
        if args.ann { "ann" } else { "exact" },
    );
    let snap = aneci_obs::global().snapshot();
    if let Some(lat) = snap.histogram("serve.query_ns") {
        eprintln!(
            "latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms ({} recorded)",
            lat.p50().unwrap_or_default() / 1e6,
            lat.p95().unwrap_or_default() / 1e6,
            lat.p99().unwrap_or_default() / 1e6,
            lat.count,
        );
    }
    if args.ann {
        if let (Some(hops), Some(searches)) = (
            snap.counter("serve.hnsw.hops"),
            snap.counter("serve.hnsw.searches"),
        ) {
            if searches > 0 {
                eprintln!(
                    "hnsw: {searches} searches, {:.1} hops/search",
                    hops as f64 / searches as f64
                );
            }
        }
    }
    if args.cache > 0 {
        eprintln!("cache: {hits} hits, {misses} misses");
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
