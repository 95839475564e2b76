//! Perf smoke benchmarks, machine-readable from PR to PR.
//!
//! * Default mode (also `--kernels`) times each hot kernel serially and
//!   through the persistent pool, times the SIMD vector kernels against
//!   their scalar references (`simd_vs_scalar` section), and writes
//!   `BENCH_kernels.json` at the repo root. It is also the perf regression
//!   gate: the process exits non-zero if any kernel's pooled speedup drops
//!   below 1.0× (or, with SIMD active, any SIMD kernel is slower than its
//!   scalar reference).
//! * `--serve` times the serving subsystem — exact vs HNSW top-k on a
//!   Cora-scale embedding, plus end-to-end JSONL engine throughput — and
//!   writes `BENCH_serve.json` (including the measured ANN recall@10, the
//!   LRU cache hit rate, and the mean HNSW hop count per search).
//! * `--http` spawns the in-process HTTP/1.1 server on an ephemeral port,
//!   drives it with concurrent keep-alive client threads, and writes
//!   `BENCH_http.json` (qps + p50/p95/p99 over the wire, batch throughput,
//!   and the server's own request counters).
//! * `--obs` runs the quickstart training + a serve workload with telemetry
//!   on and off, measures the telemetry overhead, and dumps the whole
//!   `aneci-obs` registry (training spans, kernel counters, serve latency
//!   percentiles) to `BENCH_obs.json`.
//! * `--scale [max_nodes]` is the million-node scaling benchmark: streams a
//!   planted-partition graph at N ∈ {10k, 100k, 1M} (capped at `max_nodes`,
//!   default 1M), trains AnECI through the community-aware mini-batch path,
//!   and writes `BENCH_scale.json` (nodes/sec, peak RSS, generation time
//!   per tier). The 10k tier additionally A/Bs mini-batch against the
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
//! Run with `cargo run --release -p aneci-bench --bin bench_report
//! [-- --kernels | -- --serve | -- --http | -- --obs | -- --scale [N] | -- --dynamic | -- --robust | -- --all]`.
//! `ANECI_NUM_THREADS` caps the pooled measurements as usual;
//! `ANECI_NO_SIMD=1` forces the scalar fallback (the `simd_vs_scalar`
//! section then reports `active: false` and is excluded from the gate).

use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::{par, pool, simd, vector, CsrMatrix, DenseMatrix};
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

/// `(reference_ns, pooled_ns)` for `prune_top_k` at one `k`.
fn time_prune(s: &CsrMatrix, k: usize) -> (u64, u64) {
    let serial = time_best(5, || {
        black_box(s.prune_top_k_reference(k));
    });
    pool::set_par_threshold(1);
    let pooled = time_best(5, || {
        black_box(s.prune_top_k_per_row(k));
    });
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve") {
        serve_bench();
    } else if args.iter().any(|a| a == "--http") {
        http_bench();
    } else if args.iter().any(|a| a == "--obs") {
        obs_bench();
    } else if args.iter().any(|a| a == "--dynamic") {
        dynamic_bench();
    } else if args.iter().any(|a| a == "--robust") {
        robust_bench();
    } else if args.iter().any(|a| a == "--all") {
        run_all_suites();
    } else if let Some(pos) = args.iter().position(|a| a == "--scale") {
        let max_nodes = args
            .get(pos + 1)
            .and_then(|a| a.parse::<usize>().ok())
            .unwrap_or(1_000_000);
        scale_bench(max_nodes);
    } else {
        // Default, also reachable explicitly as `--kernels` (the regression
        // gate invocation used by the verify checklist).
        kernel_bench();
    }
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

    // Dense matmul: serial reference is the pre-pool naive i-k-j kernel.
    // The 256 case is fast enough to be scheduler-noise-prone on a busy
    // box, so it gets more reps than the larger shapes.
    for &(n, reps) in &[(256usize, 13), (512, 7)] {
        let a = gaussian_matrix(n, n, 1.0, &mut rng);
        let b = gaussian_matrix(n, n, 1.0, &mut rng);
        let serial = time_best(reps, || {
            black_box(a.matmul(&b));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(reps, || {
            black_box(par::matmul(&a, &b));
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
            black_box(a.matmul_tn(&b));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(3, || {
            black_box(par::matmul_tn(&a, &b));
        });
        rows.push(Row {
            kernel: "matmul_tn",
            shape: "128x4000x128".into(),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // Sparse × dense (GCN propagation shape).
    {
        let s = random_csr(8192, 16, 11);
        let d = gaussian_matrix(8192, 128, 1.0, &mut rng);
        let serial = time_best(3, || {
            black_box(s.spmm_dense(&d));
        });
        pool::set_par_threshold(1);
        let pooled = time_best(3, || {
            black_box(par::spmm_dense(&s, &d));
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

    // CSR transpose and top-k pruning. Like matmul, the serial baseline is
    // the retained reference implementation (`*_reference`); the production
    // kernel runs chunked with the threshold forced low.
    {
        let s = random_csr(8192, 16, 17);
        let serial = time_best(5, || {
            black_box(s.transpose_reference());
        });
        pool::set_par_threshold(1);
        let pooled = time_best(5, || {
            black_box(s.transpose());
        });
        rows.push(Row {
            kernel: "sparse_transpose",
            shape: format!("8192x8192(nnz={})", s.nnz()),
            serial_ns: serial,
            pooled_ns: pooled,
        });
        let (serial, pooled) = time_prune(&s, 8);
        rows.push(Row {
            kernel: "prune_top_k",
            shape: format!("8192x8192(nnz={}) k=8", s.nnz()),
            serial_ns: serial,
            pooled_ns: pooled,
        });
    }

    // prune_top_k at its two skew extremes: tiny k on dense rows (selection
    // dominates) and large k on sparse rows (rows pass through untouched).
    {
        let s = random_csr(2048, 192, 19);
        let (serial, pooled) = time_prune(&s, 4);
        rows.push(Row {
            kernel: "prune_top_k",
            shape: format!("2048x2048(nnz={}) k=4", s.nnz()),
            serial_ns: serial,
            pooled_ns: pooled,
        });
        let s = random_csr(16384, 8, 23);
        let (serial, pooled) = time_prune(&s, 64);
        rows.push(Row {
            kernel: "prune_top_k",
            shape: format!("16384x16384(nnz={}) k=64", s.nnz()),
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

/// Per-query latencies (microseconds, sorted ascending) of `f` over `queries`.
fn latencies_us(queries: &[usize], mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut lat: Vec<f64> = queries
        .iter()
        .map(|&q| {
            let t = Instant::now();
            f(q);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

fn lat_json(lat: &[f64], qps: f64) -> serde_json::Value {
    serde_json::json!({
        "qps": qps,
        "p50_us": percentile(lat, 0.50),
        "p95_us": percentile(lat, 0.95),
        "p99_us": percentile(lat, 0.99),
    })
}

/// Cora-scale community-structured embedding: the SBM generator's community
/// labels drive a clustered layout (centroid + noise) shaped like a trained
/// model's — the regime the serving benchmarks and the recall@10 acceptance
/// bar are about.
fn clustered_embedding() -> DenseMatrix {
    use aneci_graph::Benchmark;
    let graph = Benchmark::Cora.generate(1.0, 7);
    let labels = graph.labels.clone().expect("benchmark graphs are labelled");
    let n = graph.num_nodes();
    let dim = 128;
    let mut rng = seeded_rng(21);
    let centroids = gaussian_matrix(labels.iter().max().unwrap() + 1, dim, 1.0, &mut rng);
    let noise = gaussian_matrix(n, dim, 1.0, &mut rng);
    DenseMatrix::from_fn(n, dim, |r, c| {
        3.0 * centroids.get(labels[r], c) + 0.8 * noise.get(r, c)
    })
}

/// Serving benchmark: exact vs ANN top-k on a Cora-scale community-structured
/// embedding, recall@10, HNSW hops per search, LRU cache hit rate, and
/// end-to-end JSONL engine throughput.
fn serve_bench() {
    use aneci_serve::engine::{EngineConfig, QueryEngine};
    use aneci_serve::hnsw::{recall_at_k, HnswConfig, HnswIndex};
    use aneci_serve::store::{EmbeddingStore, Metric};

    pool::force_pool();
    let threads = pool::num_threads();

    let embedding = clustered_embedding();
    let (n, dim) = (embedding.rows(), embedding.cols());
    let k = 10;
    let ef = 128;
    let store = EmbeddingStore::new(embedding.clone(), None);
    let queries: Vec<usize> = (0..400).map(|i| (i * 97) % n).collect();

    // Exact brute-force path.
    let t = Instant::now();
    let exact: Vec<Vec<(usize, f64)>> = queries
        .iter()
        .map(|&q| store.top_k_node(q, k, Metric::Cosine))
        .collect();
    let exact_qps = queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
    let exact_lat = latencies_us(&queries, |q| {
        black_box(store.top_k_node(q, k, Metric::Cosine));
    });

    // ANN path: build once, search with a generous beam. The graph walk
    // length comes from the `serve.hnsw.{hops,searches}` telemetry deltas
    // around this loop (construction-time hops are never recorded).
    let t = Instant::now();
    let index = HnswIndex::build(&embedding, Metric::Cosine, &HnswConfig::default());
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let counter_value = |name: &str| aneci_obs::global().snapshot().counter(name).unwrap_or(0);
    let (hops0, searches0) = (
        counter_value("serve.hnsw.hops"),
        counter_value("serve.hnsw.searches"),
    );
    let t = Instant::now();
    let approx: Vec<Vec<(usize, f64)>> = queries
        .iter()
        .map(|&q| index.search(embedding.row(q), k, ef, Some(q)))
        .collect();
    let ann_qps = queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
    let hops = counter_value("serve.hnsw.hops") - hops0;
    let searches = counter_value("serve.hnsw.searches") - searches0;
    let hops_per_search = hops as f64 / searches.max(1) as f64;
    let ann_lat = latencies_us(&queries, |q| {
        black_box(index.search(embedding.row(q), k, ef, Some(q)));
    });
    let recall = exact
        .iter()
        .zip(&approx)
        .map(|(e, a)| recall_at_k(e, a))
        .sum::<f64>()
        / queries.len() as f64;

    // End-to-end JSONL engine throughput (parse → execute → serialize),
    // batched on the pool, cache off so every line does real work.
    let lines: Vec<String> = queries
        .iter()
        .map(|q| format!(r#"{{"op":"top_k","node":{q},"k":{k}}}"#))
        .collect();
    let exact_engine = QueryEngine::new(
        EmbeddingStore::new(embedding.clone(), None),
        EngineConfig::default(),
    );
    let t = Instant::now();
    black_box(exact_engine.run_batch(&lines));
    let engine_exact_qps = lines.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
    let ann_engine = QueryEngine::new(
        EmbeddingStore::new(embedding.clone(), None),
        EngineConfig {
            use_ann: true,
            ef_search: ef,
            ..EngineConfig::default()
        },
    );
    let t = Instant::now();
    black_box(ann_engine.run_batch(&lines));
    let engine_ann_qps = lines.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);

    // LRU response cache: the same batch twice through a cache big enough to
    // hold it — the first pass misses everything, the second hits everything,
    // so a healthy cache reads back exactly 50%.
    let cached_engine = QueryEngine::new(
        EmbeddingStore::new(embedding.clone(), None),
        EngineConfig {
            cache_capacity: lines.len().next_power_of_two(),
            ..EngineConfig::default()
        },
    );
    black_box(cached_engine.run_batch(&lines));
    let t = Instant::now();
    black_box(cached_engine.run_batch(&lines));
    let engine_cached_qps = lines.len() as f64 / t.elapsed().as_secs_f64().max(1e-12);
    let (cache_hits, cache_misses) = cached_engine.cache_stats();
    let cache_hit_rate = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;

    let report = serde_json::json!({
        "threads": threads,
        "nodes": n,
        "dim": dim,
        "k": k,
        "ef_search": ef,
        "num_queries": queries.len(),
        "hnsw_build_ms": build_ms,
        "recall_at_10": recall,
        "hnsw_hops": {
            "searches": searches,
            "total_hops": hops,
            "hops_per_search": hops_per_search,
        },
        "exact": lat_json(&exact_lat, exact_qps),
        "ann": lat_json(&ann_lat, ann_qps),
        "engine_jsonl": {
            "exact_qps": engine_exact_qps,
            "ann_qps": engine_ann_qps,
            "cached_qps": engine_cached_qps,
        },
        "cache": {
            "hits": cache_hits,
            "misses": cache_misses,
            "hit_rate": cache_hit_rate,
        },
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_serve.json");

    println!("wrote {path} ({threads} threads, {n} nodes, dim {dim})");
    println!(
        "  exact  {exact_qps:>9.0} q/s   p50 {:>8.1} us   p99 {:>8.1} us",
        percentile(&exact_lat, 0.50),
        percentile(&exact_lat, 0.99),
    );
    println!(
        "  ann    {ann_qps:>9.0} q/s   p50 {:>8.1} us   p99 {:>8.1} us   recall@10 {recall:.4}   build {build_ms:.0} ms",
        percentile(&ann_lat, 0.50),
        percentile(&ann_lat, 0.99),
    );
    println!("  hnsw   {hops_per_search:.1} hops/search over {searches} searches");
    println!(
        "  engine (JSONL) exact {engine_exact_qps:.0} q/s, ann {engine_ann_qps:.0} q/s, \
         cached {engine_cached_qps:.0} q/s (hit rate {cache_hit_rate:.2})"
    );
    assert!(
        recall >= 0.95,
        "ANN recall@10 regressed below the 0.95 acceptance bar: {recall:.4}"
    );
}

/// HTTP front-end benchmark: the real server on an ephemeral port, driven
/// over TCP by concurrent keep-alive client threads. Reports wire-level qps
/// and latency percentiles plus the server's own counters, then shuts down
/// gracefully — a non-drained request or a shed during the steady-state run
/// fails the bench.
fn http_bench() {
    use aneci_serve::engine::{EngineConfig, QueryEngine};
    use aneci_serve::http::{client, HttpClient, HttpConfig, HttpServer};
    use aneci_serve::store::EmbeddingStore;
    use std::sync::Arc;

    pool::force_pool();
    let threads = pool::num_threads();

    let embedding = clustered_embedding();
    let (n, dim) = (embedding.rows(), embedding.cols());
    let k = 10;
    let engine = Arc::new(QueryEngine::new(
        EmbeddingStore::new(embedding, None),
        EngineConfig::default(),
    ));

    // A keep-alive connection occupies its worker for the connection's
    // lifetime, so the worker count must cover the client fleet for a
    // steady-state throughput measurement.
    let clients = 8usize;
    let per_client = 250usize;
    let config = HttpConfig {
        workers: clients + 2,
        queue_capacity: (clients + 2) * 4,
        ..HttpConfig::default()
    };
    let handle = HttpServer::start(Arc::clone(&engine), config, "127.0.0.1:0")
        .expect("failed to start HTTP server");
    let addr = handle.addr();

    // Sanity before load: health, one query, one batch.
    let health = client::get(addr, "/v1/healthz").expect("healthz failed");
    assert_eq!(health.status, 200, "{}", health.text());
    let warm = client::post(
        addr,
        "/v1/query",
        &format!(r#"{{"op":"top_k","node":0,"k":{k}}}"#),
    )
    .expect("warm-up query failed");
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Concurrent steady-state run: `clients` threads, each with its own
    // keep-alive connection, each issuing `per_client` single queries.
    let t = Instant::now();
    let workers: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("client connect failed");
                let mut lat = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let node = (c * per_client + i * 131) % n;
                    let line = format!(r#"{{"op":"top_k","node":{node},"k":{k}}}"#);
                    let t = Instant::now();
                    let r = client.post("/v1/query", &line).expect("query failed");
                    lat.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(r.status, 200, "{}", r.text());
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread panicked"))
        .collect();
    let wall = t.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    let total = clients * per_client;
    let qps = total as f64 / wall.max(1e-12);

    // Batch throughput over the wire: all clients' queries in one NDJSON body.
    let batch_body: String = (0..total)
        .map(|i| {
            format!(
                "{{\"op\":\"top_k\",\"node\":{},\"k\":{k}}}\n",
                (i * 131) % n
            )
        })
        .collect();
    let t = Instant::now();
    let batch = client::post(addr, "/v1/query_batch", &batch_body).expect("batch failed");
    let batch_secs = t.elapsed().as_secs_f64();
    assert_eq!(batch.status, 200, "{}", batch.text());
    assert_eq!(batch.text().trim_end().lines().count(), total);
    let batch_lps = total as f64 / batch_secs.max(1e-12);

    handle.shutdown();

    let snap = aneci_obs::global().snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let (requests, connections, shed, reused) = (
        count("serve.http.requests"),
        count("serve.http.connections"),
        count("serve.http.shed"),
        count("serve.http.keepalive_reused"),
    );
    let server_lat = snap.histogram("serve.http.request_ns");

    let report = serde_json::json!({
        "threads": threads,
        "nodes": n,
        "dim": dim,
        "k": k,
        "clients": clients,
        "requests_per_client": per_client,
        "total_requests": total,
        "single_query": lat_json(&lat, qps),
        "batch": {
            "lines": total,
            "lines_per_sec": batch_lps,
            "wall_ms": batch_secs * 1e3,
        },
        "server": {
            "requests": requests,
            "connections": connections,
            "keepalive_reused": reused,
            "shed": shed,
            "request_p50_us": server_lat.as_ref().map_or(0.0, |h| h.p50().unwrap_or_default() / 1e3),
            "request_p99_us": server_lat.as_ref().map_or(0.0, |h| h.p99().unwrap_or_default() / 1e3),
        },
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_http.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_http.json");

    println!("wrote {path} ({threads} threads, {clients} clients x {per_client} requests)");
    println!(
        "  single {qps:>9.0} q/s   p50 {:>8.1} us   p95 {:>8.1} us   p99 {:>8.1} us",
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    );
    println!("  batch  {batch_lps:>9.0} lines/s over one POST /query_batch");
    println!(
        "  server {requests} requests on {connections} connections, \
         {reused} keep-alive reuses, {shed} shed"
    );
    assert_eq!(
        shed, 0,
        "load was shed during a steady-state run sized to the worker fleet"
    );
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
    let embedding = clustered_embedding();
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

/// Sum of the `train.batch.nodes` histogram — total nodes processed by the
/// mini-batch engine since process start (deltas around a run give its
/// throughput numerator).
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

/// Million-node scaling benchmark: stream a planted-partition graph at each
/// tier, train AnECI through the community-aware mini-batch path, and
/// report nodes/sec + peak RSS. The 10k tier also A/Bs against full-batch
/// training and gates on quality (NMI/modularity within 0.02) and
/// throughput (mini-batch ≥ 1.0x full-batch nodes/sec).
fn scale_bench(max_nodes: usize) {
    use aneci_core::{
        classic_modularity, AneciConfig, AneciModel, BatchStrategy, MiniBatchTrainer, ReconMode,
        StopStrategy,
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

        let mut trainer = MiniBatchTrainer::try_new(
            streamed.adjacency.clone(),
            streamed.features.clone(),
            &config,
        )
        .expect("scale config is valid");
        let nodes_before = batch_nodes_sum();
        let t = Instant::now();
        let report = trainer
            .train(strategy, Some(&streamed.labels))
            .expect("mini-batch training failed");
        let train_secs = t.elapsed().as_secs_f64();
        let nodes_processed = batch_nodes_sum() - nodes_before;
        let mini_nps = nodes_processed / train_secs.max(1e-12);
        let peak_mb = peak_rss_mb();

        println!(
            "tier {n}: {k} communities, {edges} edges (gen {gen_secs:.1}s) — \
             {epochs} epochs in {train_secs:.1}s, {mini_nps:.0} nodes/s, \
             peak RSS {}",
            peak_mb.map_or("n/a".into(), |m| format!("{m:.0} MB")),
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
        }));

        // Full-batch A/B + quality/throughput gates at the 10k tier: the
        // same graph through `AneciModel::train`, compared on NMI against
        // the planted labels, hard-partition modularity, and nodes/sec.
        if n == 10_000 {
            let graph = streamed.to_attributed();
            let mut full = AneciModel::new(&graph, &config);
            let t = Instant::now();
            let full_report = full.train(None).expect("full-batch training failed");
            let full_secs = t.elapsed().as_secs_f64();
            let full_nps = (n * full_report.epochs_run) as f64 / full_secs.max(1e-12);

            let full_pred = full.communities();
            let mini_pred = trainer.communities();
            let full_nmi = nmi(&full_pred, &streamed.labels);
            let mini_nmi = nmi(&mini_pred, &streamed.labels);
            let full_q = classic_modularity(&streamed.adjacency, &full_pred);
            let mini_q = classic_modularity(&streamed.adjacency, &mini_pred);
            let nps_ratio = mini_nps / full_nps.max(1e-12);

            println!(
                "  full-batch A/B: NMI {full_nmi:.3} vs {mini_nmi:.3} (mini), \
                 Q {full_q:.3} vs {mini_q:.3}, \
                 {full_nps:.0} vs {mini_nps:.0} nodes/s ({nps_ratio:.2}x)"
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

/// Telemetry benchmark: A/B the always-on `aneci-obs` layer on the quickstart
/// training loop, then dump the populated registry (training spans, kernel
/// counters, serve latency percentiles) to `BENCH_obs.json`.
fn obs_bench() {
    use aneci_core::{train_aneci, AneciConfig};
    use aneci_graph::karate_club;
    use aneci_serve::engine::{EngineConfig, QueryEngine};
    use aneci_serve::store::EmbeddingStore;

    pool::force_pool();
    let threads = pool::num_threads();
    let graph = karate_club();
    let config = AneciConfig::for_community_detection(2, 42);

    // Warm-up: pool spin-up and allocator effects land outside the A/B.
    black_box(train_aneci(&graph, &config).expect("training failed"));

    let reps = 5;
    aneci_obs::set_enabled(false);
    let off_ns = time_best(reps, || {
        black_box(train_aneci(&graph, &config).expect("training failed"));
    });
    aneci_obs::set_enabled(true);
    let on_ns = time_best(reps, || {
        black_box(train_aneci(&graph, &config).expect("training failed"));
    });
    let overhead_pct = (on_ns as f64 - off_ns as f64) / off_ns.max(1) as f64 * 100.0;

    // Fresh registry for the dump: one instrumented train plus a serve batch
    // so every layer's metrics are present. Re-baseline kernel_stats after
    // the registry reset so its window stays consistent.
    aneci_obs::global().reset();
    aneci_linalg::kernel_stats::reset();
    let (model, _) = train_aneci(&graph, &config).expect("training failed");
    let ckpt = model.checkpoint().expect("trained model has an embedding");
    let engine = QueryEngine::new(
        EmbeddingStore::from_checkpoint(&ckpt),
        EngineConfig {
            use_ann: true,
            ..EngineConfig::default()
        },
    );
    let lines: Vec<String> = (0..graph.num_nodes())
        .map(|q| format!(r#"{{"op":"top_k","node":{q},"k":5}}"#))
        .collect();
    black_box(engine.run_batch(&lines));

    let snap = aneci_obs::global().snapshot();
    let spans: Vec<serde_json::Value> = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("span.") && name.ends_with("_ns"))
        .map(|(name, h)| {
            serde_json::json!({
                "span": name,
                "calls": h.count,
                "mean_us": h.mean() / 1e3,
                "p95_us": h.p95().unwrap_or_default() / 1e3,
            })
        })
        .collect();
    let kernels: Vec<serde_json::Value> = aneci_linalg::kernel_stats::snapshot()
        .iter()
        .filter(|s| s.calls > 0)
        .map(|s| {
            serde_json::json!({
                "kernel": s.kernel,
                "calls": s.calls,
                "flops": s.flops,
                "wall_ns": s.wall_ns,
            })
        })
        .collect();
    let serve_lat = snap.histogram("serve.query_ns").map(|lat| {
        serde_json::json!({
            "queries": lat.count,
            "p50_us": lat.p50().unwrap_or_default() / 1e3,
            "p95_us": lat.p95().unwrap_or_default() / 1e3,
            "p99_us": lat.p99().unwrap_or_default() / 1e3,
        })
    });
    let registry: serde_json::Value =
        serde_json::from_str(&snap.to_json()).expect("registry snapshot is valid JSON");

    let report = serde_json::json!({
        "threads": threads,
        "train_off_ms": off_ns as f64 / 1e6,
        "train_on_ms": on_ns as f64 / 1e6,
        "overhead_pct": overhead_pct,
        "train_spans": spans,
        "kernels": kernels,
        "serve_latency": serve_lat,
        "registry": registry,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, serde_json::to_string_pretty(&report).unwrap() + "\n")
        .expect("failed to write BENCH_obs.json");

    println!("wrote {path} ({threads} threads)");
    println!(
        "  train: telemetry off {:.2} ms, on {:.2} ms — overhead {overhead_pct:+.2}%",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6,
    );
    for s in &spans {
        println!(
            "  {:<34} {:>6} calls   mean {:>9.1} us   p95 {:>9.1} us",
            s["span"].as_str().unwrap_or("?"),
            s["calls"],
            s["mean_us"].as_f64().unwrap_or(0.0),
            s["p95_us"].as_f64().unwrap_or(0.0),
        );
    }
    if let Some(lat) = snap.histogram("serve.query_ns") {
        println!(
            "  serve: {} queries   p50 {:.1} us   p99 {:.1} us",
            lat.count,
            lat.p50().unwrap_or_default() / 1e3,
            lat.p99().unwrap_or_default() / 1e3,
        );
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
        &["--serve"],
        &["--http"],
        &["--obs"],
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
