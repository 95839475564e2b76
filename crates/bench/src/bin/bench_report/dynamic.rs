//! `--dynamic`: (a) graph-delta patch-and-compact plus incremental
//! `HighOrder::refresh` throughput over a rolling SBM graph, gated on
//! bit-exactness against a full rebuild of the final state; (b) a live
//! churn run against the real HTTP server — reader threads hammer
//! `/v1/query` while 20% of the embedding churns through
//! `POST /v1/admin/reindex` batches — gated on read-your-writes after every
//! ack, zero dropped queries, snapshot-swap pause p99 < 1 ms, post-churn
//! ANN recall@10 ≥ 0.95 and one generation per batch.

use super::{Bar, Gate, Report, Samples};
use aneci_graph::delta::apply_to_csr;
use aneci_graph::{generate_sbm, GraphDelta, HighOrder, ProximityConfig, SbmConfig};
use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_serve::engine::{EngineConfig, QueryEngine};
use aneci_serve::hnsw::recall_at_k;
use aneci_serve::http::{client, HttpClient, HttpConfig, HttpServer};
use aneci_serve::store::{EmbeddingStore, Metric};
use aneci_serve::SnapshotUpdate;
use rand::Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub fn run() -> Report {
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

    let mut edges: Vec<(usize, usize)> = adj
        .iter()
        .filter(|&(u, v, _)| u < v)
        .map(|(u, v, _)| (u, v))
        .collect();

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
                if u != v && adj.get(u, v) == 0.0 {
                    edges.push((u.min(v), u.max(v)));
                    break GraphDelta::new().add_edge(u, v);
                }
            }
        } else {
            let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
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

    // Reader fleet: keep-alive connections issuing single queries for the
    // whole churn window, each returning its answered queries' latencies
    // and its dropped count. Any non-200 (or transport error) on a live node
    // is a dropped query — the zero-downtime contract under test.
    let reader_handles: Vec<_> = (0..readers)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("reader connect failed");
                let (mut lat, mut dropped) = (Vec::new(), 0u64);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let node = (c * 677 + i * 131) % safe_n;
                    let line = format!(r#"{{"op":"top_k","node":{node},"k":{k}}}"#);
                    let t = Instant::now();
                    match client.post("/v1/query", &line) {
                        Ok(r) if r.status == 200 => lat.push(t.elapsed().as_secs_f64() * 1e6),
                        _ => dropped += 1,
                    }
                    i += 1;
                }
                (lat, dropped)
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

    // Churn loop: `batches` reindex batches through the public admin
    // route, each acknowledged with a generation that a read-your-writes
    // query then insists on via `min_generation`.
    let fresh = gaussian_matrix(rewrites, dim, 1.0, &mut rng);
    let mut admin = HttpClient::connect(addr).expect("admin connect failed");
    let mut reindex_ms = Vec::new();
    let mut last_generation = 0u64;
    let mut acks_readable = 0u32;
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
        acks_readable += u32::from(r.status == 200);
    }
    let churn_wall_s = t_churn.elapsed().as_secs_f64();
    let reindex_ms = Samples::new(reindex_ms);
    stop.store(true, Ordering::Relaxed);
    let (mut lat, mut dropped) = (Vec::new(), 0u64);
    for reader in reader_handles {
        let (reader_lat, reader_dropped) = reader.join().expect("reader panicked");
        lat.extend(reader_lat);
        dropped += reader_dropped;
    }
    let reader_lat = Samples::new(lat);
    let ok = reader_lat.sorted().len();
    let pins_us = Samples::new(sampler.join().expect("sampler panicked"));
    handle.shutdown();

    let query_qps = ok as f64 / churn_wall_s.max(1e-12);
    let swap_pause_p99_us = pins_us.percentile(0.99);

    // Post-churn recall@10 on the final snapshot: ANN search vs the exact
    // tombstone-aware scan, over a spread of surviving nodes.
    let snap = engine.snapshot();
    let ann = snap.ann.as_ref().expect("engine was configured with ANN");
    let recalls: Vec<f64> = (0..n)
        .step_by(7)
        .filter(|&i| !snap.store.is_deleted(i))
        .map(|node| {
            let exact = snap.store.top_k_node(node, k, Metric::Cosine);
            recall_at_k(
                &exact,
                &ann.search(snap.store.vector_of(node), k, ef, Some(node)),
            )
        })
        .collect();
    let post_churn_recall = recalls.iter().sum::<f64>() / recalls.len().max(1) as f64;

    // The slowest reindex is the tail figure: over so few samples, a
    // nearest-rank p99 is that same sample.
    let [p25, p50, p75, max] = [0.25, 0.50, 0.75, 1.0].map(|p| reindex_ms.percentile(p));
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
         reindex p25 {p25:.1}, p50 {p50:.1}, p75 {p75:.1}, max {max:.1} ms",
        pins_us.percentile(0.50),
        pins_us.sorted().len(),
    );
    println!(
        "  recall  post-churn recall@{k} {post_churn_recall:.4} over {} live queries",
        recalls.len()
    );

    let gates = vec![
        Gate::new(
            "refresh_bit_exact",
            f64::from(u8::from(refresh_bit_exact)),
            Bar::Equals(1.0),
        ),
        Gate::new(
            "read_your_writes_acks",
            f64::from(acks_readable),
            Bar::Equals(batches as f64),
        ),
        Gate::new("queries_dropped", dropped as f64, Bar::Equals(0.0)),
        Gate::new("swap_pause_p99_us", swap_pause_p99_us, Bar::Below(1000.0)),
        Gate::new(
            "post_churn_recall_at_10",
            post_churn_recall,
            Bar::AtLeast(0.95),
        ),
        Gate::new(
            "final_generation",
            last_generation as f64,
            Bar::Equals(batches as f64),
        ),
    ];
    let body = serde_json::json!({
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
            "reindex_p25_ms": p25,
            "reindex_p50_ms": p50,
            "reindex_p75_ms": p75,
            "reindex_max_ms": max,
            "queries_ok": ok,
            "queries_dropped": dropped,
            "query": {
                "qps": query_qps,
                "p50_us": reader_lat.percentile(0.50),
                "p95_us": reader_lat.percentile(0.95),
                "p99_us": reader_lat.percentile(0.99),
            },
            "swap_pause_samples": pins_us.sorted().len(),
            "swap_pause_p50_us": pins_us.percentile(0.50),
            "swap_pause_p99_us": swap_pause_p99_us,
            "post_churn_recall_at_10": post_churn_recall,
        },
    });
    Report { body, gates }
}
