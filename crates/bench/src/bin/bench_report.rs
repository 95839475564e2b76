//! Perf smoke benchmarks, machine-readable from PR to PR.
//!
//! * `--kernels` times each hot kernel serially and through the persistent
//!   pool, times the SIMD vector kernels against their scalar references
//!   (`simd_vs_scalar` section), and writes `BENCH_kernels.json` at the repo
//!   root. It is also the perf regression gate: the process exits non-zero
//!   if any kernel's pooled speedup drops below 1.0× (or, with SIMD active,
//!   any SIMD kernel is slower than its scalar reference).
//! * `--scale [max_nodes]` is the million-node scaling benchmark: streams a
//!   planted-partition graph at N ∈ {10k, 100k, 1M} (capped at `max_nodes`,
//!   default 1M), trains AnECI through the community-aware mini-batch path,
//!   and writes `BENCH_scale.json` (nodes/sec, generation time, and peak
//!   RSS next to the run's `Ã` row store and its budget, per tier). The
//!   10k tier additionally A/Bs mini-batch against the
//!   full-batch path and gates on NMI/modularity within 0.02 and
//!   nodes/sec ratio ≥ 1.0 (non-zero exit on failure, like `--kernels`).
//! * `--dynamic` is the dynamic-graph benchmark: graph-delta
//!   patch-and-compact throughput plus incremental `HighOrder::refresh`
//!   rate (gated on bit-exactness against a full rebuild), then a live
//!   `aneci_http`-style churn run — concurrent readers hammer `/v1/query`
//!   while 20% of the embedding churns through `POST /v1/admin/reindex` —
//!   writing `BENCH_dynamic.json` and gating on zero dropped queries,
//!   snapshot-swap pause p99 < 1 ms, and post-churn ANN recall@10 ≥ 0.95
//!   (non-zero exit on failure, like `--kernels`).
//! * `--robust` sweeps the robustness scenario matrix — every attack
//!   (random, FGA, NETTACK, outlier seeding) × every defense (none, AnECI+,
//!   smoothing, robust-GCN) × three perturbation budgets — on a labelled
//!   SBM, writes `BENCH_robust.json` (defense-score table, NMI-retention
//!   matrix, certification rate, query-time detection TPR/FPR), and gates
//!   on: AnECI+ ≥ the undefended baseline on mean NMI retention at every
//!   budget, smoothing certifying ≥ 60% of clean nodes, and the serving
//!   detector flagging ≥ 80% of poisoned-neighborhood queries at ≤ 5% FPR
//!   (non-zero exit on failure, like `--kernels`).
//! * `--all` re-invokes this binary once per suite above (with `--scale`
//!   capped at 10k nodes), streams their output, and exits non-zero if any
//!   suite's gate fails — the one-command regression sweep.
//!
//! Serving throughput and latency are measured by the `bench_e2e` benchmark
//! (`serve-read`, `serve-churn`), not here.
//!
//! Run with `cargo run --release -p aneci-bench --bin bench_report
//! [-- --kernels | -- --scale [N] | -- --dynamic | -- --robust | -- --all]`;
//! no argument means `--kernels`, and any other argument exits 2 with usage.
//! `ANECI_NUM_THREADS` caps the pooled measurements as usual;
//! `ANECI_NO_SIMD=1` forces the scalar fallback (the `simd_vs_scalar`
//! section then reports `active: false` and is excluded from the gate).

use aneci_graph::Benchmark;
use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::{pool, reference, simd, vector, CsrMatrix};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

struct Row {
    kernel: &'static str,
    shape: String,
    serial_ns: u64,
    pooled_ns: u64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.pooled_ns.max(1) as f64
    }
}

/// Best-of-`reps` wall time in nanoseconds.
fn time_best(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

/// Times `f` with the pool threshold forced sky-high (serial path) and then
/// forced to 1 (pooled path).
fn time_both(reps: usize, mut f: impl FnMut()) -> (u64, u64) {
    pool::set_par_threshold(usize::MAX);
    let serial = time_best(reps, &mut f);
    pool::set_par_threshold(1);
    let pooled = time_best(reps, &mut f);
    (serial, pooled)
}

/// Random sparse square matrix with ~`deg` entries per row.
fn random_csr(n: usize, deg: usize, seed: u64) -> CsrMatrix {
    let mut rng = seeded_rng(seed);
    let mut trips = Vec::with_capacity(n * deg);
    for r in 0..n {
        for _ in 0..deg {
            let c = rng.gen_range(0..n);
            trips.push((r, c, rng.gen_range(0.1..1.0)));
        }
    }
    CsrMatrix::from_triplets(n, n, &trips)
}

const USAGE: &str =
    "usage: bench_report [--kernels | --scale [max_nodes] | --dynamic | --robust | --all]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] | ["--kernels"] => kernel_bench(),
        ["--dynamic"] => dynamic_bench(),
        ["--robust"] => robust_bench(),
        ["--all"] => run_all_suites(),
        ["--scale"] => scale_bench(1_000_000),
        ["--scale", max_nodes] => match max_nodes.parse::<usize>() {
            Ok(max_nodes) => scale_bench(max_nodes),
            Err(_) => usage_exit(&format!("--scale takes a node count, got `{max_nodes}`")),
        },
        _ => usage_exit(&format!("unknown arguments: {}", args.join(" "))),
    }
}

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2);
}

fn kernel_bench() {
    pool::force_pool();
    let threads = pool::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if threads > cores {
        eprintln!(
            "warning: pool runs {threads} threads but the machine reports only {cores} \
             hardware core(s); pooled timings oversubscribe and understate real speedups"
        );
    }
    let mut rng = seeded_rng(7);
    let mut rows: Vec<Row> = Vec::new();

    // Dense matmul: the serial leg is `reference::matmul`, the naive i-k-j
    // loop. The 256 case is fast enough to be scheduler-noise-prone on a busy
    // box, so it gets more reps than the larger shapes.
    for &(n, reps) in &[(256usize, 13), (512, 7)] {
        let a = gaussian_matrix(n, n, 1.0, &mut rng);
        let b = gaussian_matrix(n, n, 1.0, &mut rng);
        let serial = time_best(reps, || {
            black_box(reference::matmul(&a, &b));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(reps, || {
            black_box(a.matmul(&b));
        });
        rows.push(Row {
            kernel: "matmul",
            shape: format!("{n}x{n}x{n}"),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // matmul_tn at the decoder's tall-skinny shape.
    {
        let a = gaussian_matrix(4000, 128, 1.0, &mut rng);
        let b = gaussian_matrix(4000, 128, 1.0, &mut rng);
        let serial = time_best(3, || {
            black_box(reference::matmul_tn(&a, &b));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(3, || {
            black_box(a.matmul_tn(&b));
        });
        rows.push(Row {
            kernel: "matmul_tn",
            shape: "128x4000x128".into(),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // The first encoder layer of `train-full` and its weight gradient: the
    // Cora-scale attributes (2708×1433, 1.4% nonzero) times a 1433×64
    // weight, and `Xᵀg` for a 2708×64 upstream gradient. The production
    // kernels must skip the zeros the naive loop skips.
    {
        let graph = Benchmark::Cora.generate(1.0, 1);
        let x = graph.features();
        // Its own stream, so the rows below keep their inputs.
        let mut rng = seeded_rng(1);
        let (m, k) = x.shape();
        let w = gaussian_matrix(k, 64, 1.0, &mut rng);
        let g = gaussian_matrix(m, 64, 1.0, &mut rng);
        let serial = time_best(5, || {
            black_box(reference::matmul(x, &w));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(5, || {
            black_box(x.matmul(&w));
        });
        rows.push(Row {
            kernel: "matmul",
            shape: format!("cora X {m}x{k}x64"),
            serial_ns: serial,
            pooled_ns: pooled,
        });
        let serial = time_best(5, || {
            black_box(reference::matmul_tn(x, &g));
        });
        let pooled = time_best(5, || {
            black_box(x.matmul_tn(&g));
        });
        rows.push(Row {
            kernel: "matmul_tn",
            shape: format!("cora Xt {k}x{m}x64"),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // Sparse × dense (GCN propagation shape).
    {
        let s = random_csr(8192, 16, 11);
        let d = gaussian_matrix(8192, 128, 1.0, &mut rng);
        let serial = time_best(3, || {
            black_box(reference::spmm_dense(&s, &d));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(3, || {
            black_box(s.spmm_dense(&d));
        });
        rows.push(Row {
            kernel: "spmm_dense",
            shape: format!("8192x8192(nnz={})x128", s.nnz()),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // Sparse × sparse (proximity power shape) — same code path both ways,
    // toggled serial/pooled via the threshold.
    {
        let s = random_csr(4096, 12, 13);
        let (serial, pooled) = time_both(3, || {
            black_box(s.spmm(&s));
        });
        rows.push(Row {
            kernel: "spmm",
            shape: format!("4096^2(nnz={})", s.nnz()),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // Leave the runtime in its default state for anything run afterwards.
    pool::set_par_threshold(1);

    let simd_rows = simd_vs_scalar(&mut rng);
    let simd_active = simd::avx2_active();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"available_cores\": {cores},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"serial_ns\": {}, \"pooled_ns\": {}, \"speedup\": {:.3}}}{}\n",
            row.kernel,
            row.shape,
            row.serial_ns,
            row.pooled_ns,
            row.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"simd_vs_scalar\": {{\n    \"active\": {simd_active},\n    \"kernels\": [\n"
    ));
    for (i, row) in simd_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"kernel\": \"{}\", \"shape\": \"{}\", \"scalar_ns\": {}, \"simd_ns\": {}, \"speedup\": {:.3}}}{}\n",
            row.kernel,
            row.shape,
            row.scalar_ns,
            row.simd_ns,
            row.speedup(),
            if i + 1 < simd_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("failed to write BENCH_kernels.json");

    println!("wrote {path} ({threads} threads)");
    for row in &rows {
        println!(
            "  {:<18} {:<28} serial {:>12} ns  pooled {:>12} ns  {:.2}x",
            row.kernel,
            row.shape,
            row.serial_ns,
            row.pooled_ns,
            row.speedup()
        );
    }
    println!("  simd_vs_scalar (avx2 active: {simd_active})");
    for row in &simd_rows {
        println!(
            "  {:<18} {:<28} scalar {:>12} ns  simd   {:>12} ns  {:.2}x",
            row.kernel,
            row.shape,
            row.scalar_ns,
            row.simd_ns,
            row.speedup()
        );
    }

    // Regression gate: no pooled kernel may lose to serial, and with SIMD
    // active no SIMD kernel may lose to its scalar reference.
    let mut regressions: Vec<String> = rows
        .iter()
        .filter(|r| r.speedup() < 1.0)
        .map(|r| format!("{} [{}] {:.3}x", r.kernel, r.shape, r.speedup()))
        .collect();
    if simd_active {
        regressions.extend(
            simd_rows
                .iter()
                .filter(|r| r.speedup() < 1.0)
                .map(|r| format!("simd {} [{}] {:.3}x", r.kernel, r.shape, r.speedup())),
        );
    }
    if !regressions.is_empty() {
        eprintln!("FAIL: kernel speedup regressed below 1.0x:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

struct SimdRow {
    kernel: &'static str,
    shape: String,
    scalar_ns: u64,
    simd_ns: u64,
}

impl SimdRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.simd_ns.max(1) as f64
    }
}

/// Times the dispatched vector kernels against their scalar references.
/// When dispatch fell back (no AVX2+FMA, or `ANECI_NO_SIMD`), both sides run
/// the same scalar code and the speedups hover around 1.0 — the `active`
/// flag in the report says which regime was measured.
fn simd_vs_scalar(rng: &mut impl Rng) -> Vec<SimdRow> {
    let mut rows = Vec::new();

    // Plain dot on a long in-cache vector (the serve scorer's inner loop).
    let len = 4096;
    let a: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let scalar = time_best(200, || {
        for _ in 0..16 {
            black_box(vector::dot_scalar(black_box(&a), black_box(&b)));
        }
    });
    let simd = time_best(200, || {
        for _ in 0..16 {
            black_box(vector::dot(black_box(&a), black_box(&b)));
        }
    });
    rows.push(SimdRow {
        kernel: "dot",
        shape: format!("len={len}"),
        scalar_ns: scalar,
        simd_ns: simd,
    });

    // axpy over the same length (the accumulation step of the row products).
    let mut y = vec![0.0f64; len];
    let scalar = time_best(200, || {
        for _ in 0..16 {
            vector::axpy_scalar(black_box(&mut y), 0.5, black_box(&a));
        }
    });
    let simd = time_best(200, || {
        for _ in 0..16 {
            vector::axpy(black_box(&mut y), 0.5, black_box(&a));
        }
    });
    rows.push(SimdRow {
        kernel: "axpy",
        shape: format!("len={len}"),
        scalar_ns: scalar,
        simd_ns: simd,
    });

    // The exact-top-k cosine scan: one query scored against a row range
    // through the batched scan kernel the store's `top_of_range` uses
    // (norms precomputed, like `EmbeddingStore`). The range is sized to a
    // per-chunk working set that stays cache-resident — larger scans go
    // memory-bound and measure DRAM bandwidth instead of the kernel.
    let (n, d) = (512, 256);
    let emb = gaussian_matrix(n, d, 1.0, rng);
    let norms: Vec<f64> = emb.rows_iter().map(vector::norm2).collect();
    let q: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let qn = vector::norm2(&q);
    let mut scores = vec![0.0f64; n];
    let scalar = time_best(50, || {
        vector::cosine_scores_scalar(&q, qn, emb.as_slice(), &norms, &mut scores);
        black_box(&scores);
    });
    let simd = time_best(50, || {
        vector::cosine_scores(&q, qn, emb.as_slice(), &norms, &mut scores);
        black_box(&scores);
    });
    rows.push(SimdRow {
        kernel: "cosine_scan",
        shape: format!("{n}x{d}"),
        scalar_ns: scalar,
        simd_ns: simd,
    });

    rows
}

/// `p`-th percentile of an ascending-sorted slice (nearest-rank). Panics
/// on unsorted input, whose "percentiles" need not even be monotone in `p`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(
        sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()),
        "percentile of an unsorted slice"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn lat_json(lat: &[f64], qps: f64) -> serde_json::Value {
    serde_json::json!({
        "qps": qps,
        "p50_us": percentile(lat, 0.50),
        "p95_us": percentile(lat, 0.95),
        "p99_us": percentile(lat, 0.99),
    })
}

/// Dynamic-graph benchmark (ISSUE 9 acceptance): (a) graph-delta
/// patch-and-compact plus incremental `HighOrder::refresh` throughput over a
/// rolling SBM graph, gated on bit-exactness against a full rebuild of the
/// final state; (b) a live churn run against the real HTTP server — reader
/// threads hammer `/v1/query` while 20% of the embedding churns through
/// `POST /v1/admin/reindex` batches — gated on zero dropped queries,
/// snapshot-swap pause p99 < 1 ms, and post-churn ANN recall@10 ≥ 0.95.
/// Writes `BENCH_dynamic.json`; any gate failure exits non-zero.
fn dynamic_bench() {
    use aneci_graph::delta::apply_to_csr;
    use aneci_graph::{generate_sbm, GraphDelta, HighOrder, ProximityConfig, SbmConfig};
    use aneci_serve::engine::{EngineConfig, QueryEngine};
    use aneci_serve::hnsw::recall_at_k;
    use aneci_serve::http::{client, HttpClient, HttpConfig, HttpServer};
    use aneci_serve::store::{EmbeddingStore, Metric};
    use aneci_serve::SnapshotUpdate;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    pool::force_pool();
    let threads = pool::num_threads();
    let mut gate_failures: Vec<String> = Vec::new();

    // ---- Part A: delta patch + incremental refresh throughput ------------
    // A rolling SBM graph absorbs single-edge deltas one at a time (the
    // worst case for amortisation: every delta pays full patch + refresh),
    // alternating inter-community additions with removals of existing edges.
    let cfg = SbmConfig {
        num_nodes: 2000,
        num_classes: 8,
        target_edges: 8000,
        ..SbmConfig::small()
    };
    let graph = generate_sbm(&cfg, 11);
    let prox = ProximityConfig::default();
    let mut adj = graph.adjacency().clone();
    let mut ho = HighOrder::build(&adj, &prox);
    let n_a = adj.rows();

    let mut edge_set: BTreeSet<(usize, usize)> = adj
        .iter()
        .filter(|&(u, v, _)| u < v)
        .map(|(u, v, _)| (u, v))
        .collect();
    let mut edges: Vec<(usize, usize)> = edge_set.iter().copied().collect();

    let mut rng = seeded_rng(31);
    let rounds = 200usize;
    let mut apply_ns = 0u64;
    let mut refresh_ns = 0u64;
    let mut refreshed_rows = 0usize;
    for round in 0..rounds {
        let delta = if round % 2 == 0 {
            // Add a fresh edge between two currently unconnected nodes.
            loop {
                let u = rng.gen_range(0..n_a);
                let v = rng.gen_range(0..n_a);
                let key = (u.min(v), u.max(v));
                if u != v && !edge_set.contains(&key) {
                    edge_set.insert(key);
                    edges.push(key);
                    break GraphDelta::new().add_edge(u, v);
                }
            }
        } else {
            let idx = rng.gen_range(0..edges.len());
            let (u, v) = edges.swap_remove(idx);
            edge_set.remove(&(u, v));
            GraphDelta::new().remove_edge(u, v)
        };
        let t = Instant::now();
        let (patched, report) = apply_to_csr(&adj, &delta).expect("delta apply failed");
        apply_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        refreshed_rows += ho.refresh(&patched, &prox, &report);
        refresh_ns += t.elapsed().as_nanos() as u64;
        adj = patched;
    }
    let deltas_per_sec = rounds as f64 / ((apply_ns + refresh_ns) as f64 / 1e9).max(1e-12);
    let refresh_rows_per_sec = refreshed_rows as f64 / (refresh_ns as f64 / 1e9).max(1e-12);

    // Bit-exactness of the incremental path against a from-scratch rebuild
    // of the final adjacency: the whole point of refresh() is that 200
    // chained patches land on the identical proximity state.
    let full = HighOrder::build(&adj, &prox);
    let refresh_bit_exact =
        ho.a_tilde == full.a_tilde && ho.k_tilde == full.k_tilde && ho.m_tilde == full.m_tilde;
    if !refresh_bit_exact {
        gate_failures
            .push("incremental HighOrder::refresh diverged from a full rebuild".to_string());
    }

    // ---- Part B: zero-downtime churn against the live HTTP server --------
    let embedding = aneci_bench::clustered_embedding();
    let (n, dim) = (embedding.rows(), embedding.cols());
    let k = 10;
    let ef = 128;
    let engine_config = EngineConfig::builder()
        .use_ann(true)
        .ef_search(ef)
        .cache_capacity(0)
        .build()
        .expect("engine config");
    let engine = Arc::new(
        QueryEngine::try_new(EmbeddingStore::new(embedding.clone(), None), engine_config)
            .expect("engine build failed"),
    );

    // Churn plan: 20% of the store — half vector rewrites over the low ids,
    // half deletions confined to the top `deletes` ids so readers querying
    // below `safe_n` can never legitimately 404.
    let churn = n / 5;
    let deletes = churn / 2;
    let rewrites = churn - deletes;
    let safe_n = n - deletes;
    let batches = 20usize;

    let readers = 4usize;
    let http_config = HttpConfig {
        workers: readers + 3,
        queue_capacity: (readers + 3) * 4,
        ..HttpConfig::default()
    };
    let handle = HttpServer::start(Arc::clone(&engine), http_config, "127.0.0.1:0")
        .expect("failed to start HTTP server");
    let addr = handle.addr();
    let warm = client::get(addr, "/v1/healthz").expect("healthz failed");
    assert_eq!(warm.status, 200, "{}", warm.text());

    let stop = Arc::new(AtomicBool::new(false));
    let ok_queries = Arc::new(AtomicU64::new(0));
    let dropped_queries = Arc::new(AtomicU64::new(0));

    // Reader fleet: keep-alive connections issuing single queries for the
    // whole churn window. Any non-200 (or transport error) on a live node is
    // a dropped query — the zero-downtime contract under test.
    let reader_handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..readers)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let ok = Arc::clone(&ok_queries);
            let dropped = Arc::clone(&dropped_queries);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("reader connect failed");
                let mut lat = Vec::new();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let node = (c * 677 + i * 131) % safe_n;
                    let line = format!(r#"{{"op":"top_k","node":{node},"k":{k}}}"#);
                    let t = Instant::now();
                    match client.post("/v1/query", &line) {
                        Ok(r) if r.status == 200 => {
                            lat.push(t.elapsed().as_secs_f64() * 1e6);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    i += 1;
                }
                lat
            })
        })
        .collect();

    // Swap-pause sampler: times the reader-side snapshot pin (the only
    // shared-state touch on the query path) while publishes race it. The
    // p99 of this distribution is the observable "pause" of a swap.
    let sampler = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pins_us = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                black_box(engine.snapshot());
                pins_us.push(t.elapsed().as_secs_f64() * 1e6);
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            pins_us
        })
    };

    // Churn driver: `batches` reindex batches through the public admin
    // route, each acknowledged with a generation that a read-your-writes
    // query then insists on via `min_generation`.
    let fresh = gaussian_matrix(rewrites, dim, 1.0, &mut rng);
    let mut admin = HttpClient::connect(addr).expect("admin connect failed");
    let mut reindex_ms = Vec::new();
    let mut last_generation = 0u64;
    let t_churn = Instant::now();
    for b in 0..batches {
        let mut update = SnapshotUpdate::new();
        for i in (b * rewrites / batches)..((b + 1) * rewrites / batches) {
            let node = (i * 97) % safe_n;
            update = update.upsert(node, fresh.row(i).to_vec());
        }
        for node in (safe_n + b * deletes / batches)..(safe_n + (b + 1) * deletes / batches) {
            update = update.delete(node);
        }
        let body = serde_json::to_string(&update).unwrap();
        let t = Instant::now();
        let r = admin
            .post("/v1/admin/reindex", &body)
            .expect("reindex failed");
        reindex_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.status, 200, "{}", r.text());
        let ack: serde_json::Value = serde_json::from_str(&r.text()).unwrap();
        last_generation = ack["generation"].as_u64().expect("ack missing generation");

        // Read-your-writes: the acknowledged generation must be queryable
        // immediately, with no grace period.
        let line =
            format!(r#"{{"op":"top_k","node":0,"k":{k},"min_generation":{last_generation}}}"#);
        let r = admin.post("/v1/query", &line).expect("ryw query failed");
        if r.status != 200 {
            gate_failures.push(format!(
                "read-your-writes at generation {last_generation} answered {}",
                r.status
            ));
        }
    }
    let churn_wall_s = t_churn.elapsed().as_secs_f64();
    reindex_ms.sort_by(f64::total_cmp);
    let reindex_p50_ms = percentile(&reindex_ms, 0.50);
    let reindex_p99_ms = percentile(&reindex_ms, 0.99);
    assert!(reindex_p99_ms >= reindex_p50_ms, "reindex p99 below p50");
    stop.store(true, Ordering::Relaxed);
    let mut reader_lat: Vec<f64> = reader_handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader panicked"))
        .collect();
    reader_lat.sort_by(f64::total_cmp);
    let mut pins_us = sampler.join().expect("sampler panicked");
    pins_us.sort_by(f64::total_cmp);
    handle.shutdown();

    let ok = ok_queries.load(Ordering::Relaxed);
    let dropped = dropped_queries.load(Ordering::Relaxed);
    let query_qps = ok as f64 / churn_wall_s.max(1e-12);
    let swap_pause_p99_us = percentile(&pins_us, 0.99);

    // Post-churn recall@10 on the final snapshot: ANN search vs the exact
    // tombstone-aware scan, over a spread of surviving nodes.
    let snap = engine.snapshot();
    let ann = snap.ann.as_ref().expect("engine was configured with ANN");
    let mut recall_total = 0.0;
    let mut recall_queries = 0usize;
    for node in (0..n).step_by(7).filter(|&i| !snap.store.is_deleted(i)) {
        let exact = snap.store.top_k_node(node, k, Metric::Cosine);
        let approx = ann.search(snap.store.vector_of(node), k, ef, Some(node));
        recall_total += recall_at_k(&exact, &approx);
        recall_queries += 1;
    }
    let post_churn_recall = recall_total / recall_queries.max(1) as f64;

    // ---- Gates ----------------------------------------------------------
    if dropped > 0 {
        gate_failures.push(format!("{dropped} queries dropped during live churn"));
    }
    if swap_pause_p99_us >= 1000.0 {
        gate_failures.push(format!(
            "snapshot-swap pause p99 {swap_pause_p99_us:.1} us >= 1 ms"
        ));
    }
    if post_churn_recall < 0.95 {
        gate_failures.push(format!(
            "post-churn recall@{k} {post_churn_recall:.4} < 0.95"
        ));
    }
    if last_generation != batches as u64 {
        gate_failures.push(format!(
            "expected generation {batches} after {batches} reindexes, got {last_generation}"
        ));
    }

    let report = serde_json::json!({
        "threads": threads,
        "delta_refresh": {
            "nodes": n_a,
            "proximity_order": prox.order(),
            "deltas_applied": rounds,
            "deltas_per_sec": deltas_per_sec,
            "rows_refreshed": refreshed_rows,
            "refresh_rows_per_sec": refresh_rows_per_sec,
            "refresh_bit_exact": refresh_bit_exact,
        },
        "http_churn": {
            "nodes": n,
            "dim": dim,
            "k": k,
            "ef_search": ef,
            "readers": readers,
            "churned_nodes": churn,
            "rewrites": rewrites,
            "deletes": deletes,
            "reindex_batches": batches,
            "final_generation": last_generation,
            "churn_wall_s": churn_wall_s,
            "reindex_p50_ms": reindex_p50_ms,
            "reindex_p99_ms": reindex_p99_ms,
            "queries_ok": ok,
            "queries_dropped": dropped,
            "query": lat_json(&reader_lat, query_qps),
            "swap_pause_samples": pins_us.len(),
            "swap_pause_p50_us": percentile(&pins_us, 0.50),
            "swap_pause_p99_us": swap_pause_p99_us,
            "post_churn_recall_at_10": post_churn_recall,
        },
        "gate_failures": gate_failures,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dynamic.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_dynamic.json");

    println!("wrote {path} ({threads} threads)");
    println!(
        "  deltas  {deltas_per_sec:>9.0} deltas/s   refresh {refresh_rows_per_sec:>9.0} rows/s \
         over {rounds} single-edge deltas ({refreshed_rows} rows), bit-exact: {refresh_bit_exact}"
    );
    println!(
        "  churn   {ok} queries ({dropped} dropped) at {query_qps:.0} q/s while {churn} of {n} \
         nodes churned over {batches} reindexes ({churn_wall_s:.2} s)"
    );
    println!(
        "  swap    pause p50 {:.1} us, p99 {swap_pause_p99_us:.1} us over {} pins; \
         reindex p50 {reindex_p50_ms:.1} ms, p99 {reindex_p99_ms:.1} ms",
        percentile(&pins_us, 0.50),
        pins_us.len(),
    );
    println!(
        "  recall  post-churn recall@{k} {post_churn_recall:.4} over {recall_queries} live queries"
    );
    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            println!("  GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// Sum of the `train.batch.nodes` histogram — total nodes processed by
/// `train` and `train_plan` since process start (deltas around a run give
/// its throughput numerator).
fn batch_nodes_sum() -> f64 {
    aneci_obs::global()
        .snapshot()
        .histogram("train.batch.nodes")
        .map_or(0.0, |h| h.sum)
}

/// Process peak RSS in MB (None off-Linux).
fn peak_rss_mb() -> Option<f64> {
    aneci_obs::peak_rss_bytes().map(|b| b as f64 / 1e6)
}

/// Runs `f` and returns its result, its wall time in seconds and the minor
/// page faults the process took meanwhile (None off-Linux). The counter is
/// read outside the timed region, so the time is `f`'s alone.
fn timed_with_faults<T>(f: impl FnOnce() -> T) -> (T, f64, Option<u64>) {
    let before = aneci_obs::minor_faults();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let faults = before.zip(aneci_obs::minor_faults()).map(|(b, a)| a - b);
    (out, secs, faults)
}

/// Million-node scaling benchmark: stream a planted-partition graph at each
/// tier, train AnECI through the community-aware mini-batch path, and
/// report nodes/sec, peak RSS and each training leg's minor page faults.
/// The 10k tier also A/Bs against full-batch training and gates on quality
/// (NMI/modularity within 0.02) and throughput (mini-batch ≥ 1.0x
/// full-batch nodes/sec).
fn scale_bench(max_nodes: usize) {
    use aneci_core::config::ROW_STORE_BUDGET_BYTES;
    use aneci_core::{
        classic_modularity, AneciConfig, AneciModel, BatchStrategy, ReconMode, StopStrategy,
    };
    use aneci_eval::metrics::nmi;
    use aneci_graph::{generate_streamed, ProximityConfig, StreamingConfig};

    pool::force_pool();
    let threads = pool::num_threads();
    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();
    assert!(
        !sizes.is_empty(),
        "--scale cap {max_nodes} excludes every tier (smallest is 10000)"
    );

    let mut tiers: Vec<serde_json::Value> = Vec::new();
    let mut fullbatch_10k: Option<serde_json::Value> = None;
    let mut gate_failures: Vec<String> = Vec::new();

    for &n in &sizes {
        let scfg = StreamingConfig::scale(n).expect("valid scale preset");
        let k = scfg.num_communities;
        let t = Instant::now();
        let streamed = generate_streamed(&scfg, 42, 100_000);
        let gen_secs = t.elapsed().as_secs_f64();
        let edges = streamed.num_edges();

        // Tier knobs: the 10k tier keeps `embed = k` so argmax membership
        // is a community detector (the NMI gate needs that); the big tiers
        // measure throughput at a fixed width. Batches target a few
        // thousand to ~20k nodes before hop expansion.
        let epochs = if n <= 10_000 { 12 } else { 3 };
        let embed_dim = if n <= 10_000 { k } else { 32 };
        let target_batch = (n / 3).clamp(2_000, 20_000);
        let communities_per_batch = (k * target_batch).div_ceil(n).max(1);
        let config = AneciConfig {
            hidden_dim: 32,
            embed_dim,
            epochs,
            stop: StopStrategy::FixedEpochs,
            recon: ReconMode::Sampled { neg_ratio: 1 },
            proximity: ProximityConfig::uniform(2),
            seed: 42,
            ..AneciConfig::default()
        };
        let strategy = BatchStrategy::CommunityAware {
            communities_per_batch,
            hops: 1,
            max_batch_nodes: 0,
        };

        let mut mini = AneciModel::from_parts(
            streamed.adjacency.clone(),
            streamed.features.clone(),
            &config,
        )
        .expect("scale config is valid");
        let nodes_before = batch_nodes_sum();
        let (report, train_secs, mini_faults) = timed_with_faults(|| {
            mini.train_plan(strategy, Some(&streamed.labels))
                .expect("mini-batch training failed")
        });
        let nodes_processed = batch_nodes_sum() - nodes_before;
        let mini_nps = nodes_processed / train_secs.max(1e-12);
        let peak_mb = peak_rss_mb();
        // The bytes of `Ã` rows the run kept for its later batches.
        let store_mb = aneci_obs::global()
            .snapshot()
            .gauge("train.row_store.bytes")
            .map(|b| b / 1e6);
        let budget_mb = ROW_STORE_BUDGET_BYTES as f64 / 1e6;

        println!(
            "tier {n}: {k} communities, {edges} edges (gen {gen_secs:.1}s) — \
             {epochs} epochs in {train_secs:.1}s, {mini_nps:.0} nodes/s, \
             peak RSS {}, {} minor faults, row store {} of {budget_mb:.0} MB",
            peak_mb.map_or("n/a".into(), |m| format!("{m:.0} MB")),
            mini_faults.map_or("n/a".into(), |f| f.to_string()),
            store_mb.map_or("n/a".into(), |m| format!("{m:.1}")),
        );

        tiers.push(serde_json::json!({
            "nodes": n,
            "communities": k,
            "edges": edges,
            "generation_secs": gen_secs,
            "epochs": report.epochs_run,
            "communities_per_batch": communities_per_batch,
            "train_secs": train_secs,
            "nodes_processed": nodes_processed,
            "nodes_per_sec": mini_nps,
            "final_loss": report.losses.last().copied(),
            "peak_rss_mb": peak_mb,
            "minor_faults": mini_faults,
            "row_store_mb": store_mb,
            "row_store_budget_mb": budget_mb,
        }));

        // Full-batch A/B + quality/throughput gates at the 10k tier: the
        // same graph through `AneciModel::train`, compared on NMI against
        // the planted labels, hard-partition modularity, and nodes/sec.
        if n == 10_000 {
            let graph = streamed.to_attributed();
            let mut full = AneciModel::try_new(&graph, &config).expect("scale config is valid");
            let (full_report, full_secs, full_faults) =
                timed_with_faults(|| full.train(None).expect("full-batch training failed"));
            let full_nps = (n * full_report.epochs_run) as f64 / full_secs.max(1e-12);

            let full_pred = full.communities();
            let mini_pred = mini.communities();
            let full_nmi = nmi(&full_pred, &streamed.labels);
            let mini_nmi = nmi(&mini_pred, &streamed.labels);
            let full_q = classic_modularity(&streamed.adjacency, &full_pred);
            let mini_q = classic_modularity(&streamed.adjacency, &mini_pred);
            let nps_ratio = mini_nps / full_nps.max(1e-12);

            println!(
                "  full-batch A/B: NMI {full_nmi:.3} vs {mini_nmi:.3} (mini), \
                 Q {full_q:.3} vs {mini_q:.3}, \
                 {full_nps:.0} vs {mini_nps:.0} nodes/s ({nps_ratio:.2}x), \
                 {} full-batch minor faults",
                full_faults.map_or("n/a".into(), |f| f.to_string()),
            );

            if mini_nmi < full_nmi - 0.02 {
                gate_failures.push(format!(
                    "10k NMI: mini-batch {mini_nmi:.4} < full-batch {full_nmi:.4} - 0.02"
                ));
            }
            if mini_q < full_q - 0.02 {
                gate_failures.push(format!(
                    "10k modularity: mini-batch {mini_q:.4} < full-batch {full_q:.4} - 0.02"
                ));
            }
            if nps_ratio < 1.0 {
                gate_failures.push(format!(
                    "10k throughput: mini-batch {mini_nps:.0} nodes/s is {nps_ratio:.3}x \
                     full-batch {full_nps:.0} nodes/s (< 1.0x)"
                ));
            }

            fullbatch_10k = Some(serde_json::json!({
                "full_secs": full_secs,
                "full_nodes_per_sec": full_nps,
                "mini_nodes_per_sec": mini_nps,
                "nodes_per_sec_ratio": nps_ratio,
                "full_nmi": full_nmi,
                "mini_nmi": mini_nmi,
                "full_modularity": full_q,
                "mini_modularity": mini_q,
                "peak_rss_mb": peak_rss_mb(),
                "full_minor_faults": full_faults,
            }));
        }
    }

    let report = serde_json::json!({
        "threads": threads,
        "max_nodes": max_nodes,
        "tiers": tiers,
        "fullbatch_10k": fullbatch_10k,
        "gate_failures": gate_failures,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_scale.json");
    println!("wrote {path} ({threads} threads, cap {max_nodes} nodes)");

    if !gate_failures.is_empty() {
        eprintln!("FAIL: scale gates failed:");
        for g in &gate_failures {
            eprintln!("  {g}");
        }
        std::process::exit(1);
    }
}

/// `--robust`: the attack × defense × budget scenario matrix on a labelled
/// SBM. Writes `BENCH_robust.json`; any gate failure exits non-zero.
fn robust_bench() {
    use aneci_attacks::{
        select_targets, Attack, FgaAttack, FgaConfig, NettackAttack, NettackConfig, OutlierAttack,
        OutlierType, RandomAttack,
    };
    use aneci_baselines::defense::RobustGcnDefense;
    use aneci_baselines::robust_gcn::RobustGcnConfig;
    use aneci_core::anomaly::defense_score;
    use aneci_core::defense::{AneciPlus, Defense, NoDefense, SmoothedEncoder};
    use aneci_core::{AneciConfig, DenoiseConfig, StopStrategy};
    use aneci_eval::nmi;
    use aneci_graph::{generate_sbm, sample_split, FeatureKind, SbmConfig};
    use aneci_serve::engine::EngineConfig;
    use aneci_serve::store::{EmbeddingStore, Metric};
    use aneci_serve::QueryEngine;
    use std::collections::BTreeSet;

    pool::force_pool();
    let t0 = Instant::now();
    const SEED: u64 = 7;
    const BUDGETS: [usize; 3] = [1, 2, 3];
    const DETECT_K: usize = 10;
    // Gate thresholds.
    const CERT_GATE: f64 = 0.60;
    const DETECT_TPR_GATE: f64 = 0.80;
    const DETECT_FPR_GATE: f64 = 0.05;

    let mut graph = generate_sbm(
        &SbmConfig {
            num_nodes: 120,
            num_classes: 3,
            target_edges: 700,
            homophily: 0.9,
            degree_exponent: None,
            feature_dim: 40,
            features: FeatureKind::BagOfWords {
                p_signal: 0.3,
                p_noise: 0.01,
            },
        },
        SEED,
    );
    let labels = graph.labels.clone().unwrap();
    // The surrogate-driven attacks and the GCN defense train on the split.
    graph.set_split(sample_split(&labels, 10, 20, 60, SEED));

    let config = AneciConfig {
        hidden_dim: 16,
        embed_dim: 3,
        epochs: 40,
        stop: StopStrategy::FixedEpochs,
        seed: SEED,
        ..Default::default()
    };
    let defenses: Vec<Box<dyn Defense>> = vec![
        Box::new(NoDefense {
            config: config.clone(),
        }),
        Box::new(AneciPlus {
            config: config.clone(),
            denoise: DenoiseConfig::default(),
        }),
        Box::new(SmoothedEncoder::with_config(config.clone())),
        Box::new(RobustGcnDefense {
            config: RobustGcnConfig {
                epochs: 60,
                seed: SEED,
                ..Default::default()
            },
        }),
    ];

    let mut gate_failures: Vec<String> = Vec::new();

    // Clean baselines: one defended run per defense on the unattacked graph.
    let mut clean_nmi = std::collections::BTreeMap::new();
    let mut cert_fraction_clean = 0.0;
    let mut defense_rows = Vec::new();
    for d in &defenses {
        let out = d.defend(&graph).unwrap_or_else(|e| {
            panic!("{} failed on the clean graph: {e}", d.name());
        });
        let score = nmi(&out.communities, &labels);
        if d.name() == "smoothing" {
            cert_fraction_clean = out.certified_fraction();
        }
        defense_rows.push(serde_json::json!({
            "defense": d.name(),
            "clean_nmi": score,
            "certified_fraction": out.certified_fraction(),
        }));
        clean_nmi.insert(d.name().to_string(), score);
        println!(
            "  clean  {:<11} nmi {score:.3}  certified {:.2}",
            d.name(),
            out.certified_fraction()
        );
    }
    if cert_fraction_clean < CERT_GATE {
        gate_failures.push(format!(
            "smoothing certifies only {cert_fraction_clean:.2} of clean nodes (< {CERT_GATE})"
        ));
    }

    // The full sweep: every attack × budget, every defense on the result.
    let targets = select_targets(&graph, 10, 8);
    let mut matrix = Vec::new();
    // retention[defense][budget-1] — mean NMI retention across attacks.
    let mut retention_sum = std::collections::BTreeMap::<String, [f64; 3]>::new();
    let mut last_outlier_run = None;
    for &budget in &BUDGETS {
        let attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(RandomAttack {
                rate: 0.1 * budget as f64,
                seed: SEED,
            }),
            Box::new(FgaAttack {
                targets: targets.clone(),
                config: FgaConfig {
                    perturbations_per_target: budget,
                    ..Default::default()
                },
            }),
            Box::new(NettackAttack {
                targets: targets.clone(),
                config: NettackConfig {
                    perturbations_per_target: budget,
                    seed: SEED,
                    ..Default::default()
                },
            }),
            Box::new(OutlierAttack {
                fraction: 0.05 * budget as f64,
                types: vec![OutlierType::Structural],
                seed: SEED,
            }),
        ];
        for atk in &attacks {
            let (attacked, outcome) = atk.attack(&graph).unwrap_or_else(|e| {
                panic!("{} (budget {budget}) produced a bad delta: {e}", atk.name());
            });
            let fakes: BTreeSet<(usize, usize)> = outcome
                .fake_edges()
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            let clean_edges: Vec<(usize, usize)> = attacked
                .edge_list()
                .into_iter()
                .filter(|&(u, v)| !fakes.contains(&(u.min(v), u.max(v))))
                .collect();
            let fake_edges: Vec<(usize, usize)> = fakes.iter().copied().collect();
            for d in &defenses {
                let out = d.defend(&attacked).unwrap_or_else(|e| {
                    panic!("{} failed under {} attack: {e}", d.name(), atk.name());
                });
                let score = nmi(&out.communities, &labels);
                let base = clean_nmi[d.name()];
                let retention = if base > 0.0 { score / base } else { 0.0 };
                let ds = defense_score(&out.embedding, &clean_edges, &fake_edges);
                retention_sum.entry(d.name().to_string()).or_default()[budget - 1] += retention;
                matrix.push(serde_json::json!({
                    "attack": atk.name(),
                    "budget": budget,
                    "defense": d.name(),
                    "nmi": score,
                    "nmi_retention": retention,
                    "defense_score": ds,
                    "budget_spent": outcome.budget_spent,
                }));
                println!(
                    "  {:<8} b{budget}  {:<11} nmi {score:.3}  retention {retention:.3}  DS {ds:.3}",
                    atk.name(),
                    d.name(),
                );
                if atk.name() == "outliers"
                    && d.name() == "none"
                    && budget == *BUDGETS.last().unwrap()
                {
                    last_outlier_run = Some((out, outcome.outlier_mask(graph.num_nodes())));
                }
            }
        }
    }
    let attacks_per_cell = 4.0;
    let mut retention_means = std::collections::BTreeMap::<String, Vec<f64>>::new();
    for (name, sums) in &retention_sum {
        let means: Vec<f64> = sums.iter().map(|s| s / attacks_per_cell).collect();
        retention_means.insert(name.clone(), means);
    }
    for (i, &budget) in BUDGETS.iter().enumerate() {
        let plus = retention_sum["aneci_plus"][i] / attacks_per_cell;
        let none = retention_sum["none"][i] / attacks_per_cell;
        if plus + 1e-9 < none {
            gate_failures.push(format!(
                "AnECI+ mean NMI retention {plus:.3} below the undefended {none:.3} at budget {budget}"
            ));
        }
    }

    // Query-time poisoned-neighborhood detection: serve the undefended
    // embedding of the heaviest outlier run with its real anomaly scores,
    // calibrate θ on the clean-node score distribution (95th percentile, so
    // per-node FPR is bounded by construction), and measure the flag rate
    // over queries whose true top-k mass sits on planted outliers.
    let (out, truth) = last_outlier_run.expect("outlier cell missing from sweep");
    let clean_scores: Vec<f64> = out
        .anomaly_scores
        .iter()
        .zip(&truth)
        .filter(|&(_, &is_outlier)| !is_outlier)
        .map(|(&s, _)| s)
        .collect();
    let theta = {
        let mut sorted = clean_scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)]
    };
    let store = EmbeddingStore::new(out.embedding.clone(), Some(out.membership.clone()))
        .with_anomaly_scores(out.anomaly_scores.clone());
    let engine = QueryEngine::new(
        store,
        EngineConfig::builder()
            .suspect_score(theta)
            .suspect_mass(0.5)
            .default_k(DETECT_K)
            .build()
            .unwrap(),
    );
    let snap = engine.snapshot();
    let (mut poisoned, mut flagged_poisoned, mut clean, mut flagged_clean) =
        (0u32, 0u32, 0u32, 0u32);
    for node in 0..snap.store.num_nodes() {
        let hits = snap.store.top_k_node(node, DETECT_K, Metric::Cosine);
        let (mut mass, mut hot) = (0.0f64, 0.0f64);
        for &(id, score) in &hits {
            let m = score.max(0.0);
            mass += m;
            if truth[id] {
                hot += m;
            }
        }
        let truly_poisoned = mass > 0.0 && hot / mass >= 0.5;
        let resp = engine.run_line(&format!(r#"{{"op":"top_k","node":{node},"k":{DETECT_K}}}"#));
        let is_flagged = resp.contains(r#""suspect":true"#);
        if truly_poisoned {
            poisoned += 1;
            flagged_poisoned += u32::from(is_flagged);
        } else {
            clean += 1;
            flagged_clean += u32::from(is_flagged);
        }
    }
    let tpr = if poisoned > 0 {
        f64::from(flagged_poisoned) / f64::from(poisoned)
    } else {
        0.0
    };
    let fpr = if clean > 0 {
        f64::from(flagged_clean) / f64::from(clean)
    } else {
        0.0
    };
    println!(
        "  detect θ {theta:.3}: {flagged_poisoned}/{poisoned} poisoned-neighborhood queries flagged \
         (TPR {tpr:.2}), {flagged_clean}/{clean} clean flagged (FPR {fpr:.3})"
    );
    if poisoned == 0 {
        gate_failures.push("no poisoned-neighborhood queries to detect".into());
    }
    if tpr < DETECT_TPR_GATE {
        gate_failures.push(format!(
            "detection TPR {tpr:.2} below {DETECT_TPR_GATE} ({flagged_poisoned}/{poisoned} flagged)"
        ));
    }
    if fpr > DETECT_FPR_GATE {
        gate_failures.push(format!(
            "detection FPR {fpr:.3} above {DETECT_FPR_GATE} ({flagged_clean}/{clean} clean queries flagged)"
        ));
    }

    let report = serde_json::json!({
        "bench": "robust",
        "graph": {"nodes": 120, "classes": 3, "edges": graph.num_edges(), "seed": SEED},
        "budgets": BUDGETS,
        "defenses": defense_rows,
        "matrix": matrix,
        "nmi_retention_mean_by_budget": retention_means,
        "detection": {
            "theta": theta,
            "suspect_mass": 0.5,
            "k": DETECT_K,
            "poisoned_queries": poisoned,
            "flagged_poisoned": flagged_poisoned,
            "clean_queries": clean,
            "flagged_clean": flagged_clean,
            "tpr": tpr,
            "fpr": fpr,
        },
        "gates": {
            "aneci_plus_retention_beats_none_every_budget": true,
            "smoothing_cert_gate": CERT_GATE,
            "detection_tpr_gate": DETECT_TPR_GATE,
            "detection_fpr_gate": DETECT_FPR_GATE,
        },
        "gate_failures": gate_failures,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robust.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_robust.json");
    println!(
        "wrote {path} in {:.1} s ({} matrix cells)",
        t0.elapsed().as_secs_f64(),
        matrix.len()
    );

    if !gate_failures.is_empty() {
        eprintln!("ROBUSTNESS GATE FAILURES:");
        for failure in &gate_failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

/// `--all`: re-invokes this binary once per suite and fails if any fails.
/// Subprocesses keep each suite's `std::process::exit` gate semantics (and
/// its obs registry) isolated while one command drives the whole sweep.
fn run_all_suites() {
    let exe = std::env::current_exe().expect("cannot locate bench_report binary");
    let suites: &[&[&str]] = &[
        &["--kernels"],
        &["--dynamic"],
        &["--robust"],
        &["--scale", "10000"],
    ];
    let mut failed = Vec::new();
    for suite in suites {
        println!("=== bench_report {} ===", suite.join(" "));
        let status = std::process::Command::new(&exe)
            .args(*suite)
            .status()
            .unwrap_or_else(|e| panic!("spawning {} failed: {e}", suite.join(" ")));
        if !status.success() {
            failed.push(suite.join(" "));
        }
    }
    if failed.is_empty() {
        println!("all {} suites passed their gates", suites.len());
    } else {
        eprintln!("{} suite(s) failed: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_of_sorted_samples_are_monotone() {
        let mut ms = vec![28.4, 3.0, 27.7, 31.0, 12.5, 29.9];
        ms.sort_by(f64::total_cmp);
        assert_eq!(percentile(&ms, 0.50), 28.4);
        assert_eq!(percentile(&ms, 0.99), 31.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn percentile_rejects_unsorted_samples() {
        percentile(&[28.4, 3.0, 27.7], 0.50);
    }
}
