//! End-to-end contract of the dynamic-graph pipeline (ISSUE 9): delta
//! mutations, incremental refresh, live index churn, zero-downtime snapshot
//! swaps, and the fine-tune drift guard.
//!
//! 1. **CSR patch-and-compact parity** — applying a [`GraphDelta`] to an
//!    adjacency matrix equals rebuilding the matrix from the mutated edge
//!    list, bit for bit.
//! 2. **Incremental proximity refresh** — `HighOrder::refresh` over the
//!    dirty rows reproduces a from-scratch `HighOrder::build` of the new
//!    adjacency exactly (`Ã`, `k̃`, and `M̃`).
//! 3. **ANN churn** — an ANN engine that lives through 20% churn of vector
//!    rewrites and deletions, appends, and revivals across a compaction,
//!    all through `QueryEngine::apply_update`, keeps recall@10 ≥ 0.95
//!    against the exact scan after every update, never serves a tombstoned
//!    id, and reports the exact scan's cosine score for every hit.
//! 4. **Whole-generation reads** — readers hammering a `QueryEngine` during
//!    concurrent snapshot publishes only ever observe complete
//!    generations, never a half-swapped state.
//! 5. **Drift guard** — an adversarial delta plus a one-epoch fine-tune
//!    trips `AneciError::Drift` against the full-retrain oracle.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aneci::core::{train_aneci, AneciConfig, AneciError, DriftGuard};
use aneci::graph::delta::apply_to_csr;
use aneci::graph::{generate_sbm, karate_club, GraphDelta, HighOrder, ProximityConfig, SbmConfig};
use aneci::linalg::rng::{gaussian_matrix, seeded_rng};
use aneci::linalg::DenseMatrix;
use aneci::serve::hnsw::recall_at_k;
use aneci::serve::store::{EmbeddingStore, Metric};
use aneci::serve::{EngineConfig, Query, QueryEngine, Response, SnapshotUpdate};

/// The undirected edge set of a CSR adjacency, as sorted (u, v) pairs.
fn edge_set(adj: &aneci::linalg::CsrMatrix) -> BTreeSet<(usize, usize)> {
    adj.iter()
        .filter(|&(u, v, _)| u < v)
        .map(|(u, v, _)| (u, v))
        .collect()
}

#[test]
fn delta_patch_and_compact_matches_full_rebuild() {
    let graph = karate_club();
    let n = graph.num_nodes();

    let delta = GraphDelta::new()
        .add_edge(0, 33) // new edge across the split
        .add_edge(5, 25)
        .remove_edge(0, 1) // existing edge
        .add_node(vec![0.0; graph.features().cols()]) // node 34
        .add_edge(34, 2)
        .add_edge(34, 8)
        .remove_node(16); // isolate a node
    let (patched, report) = apply_to_csr(graph.adjacency(), &delta).unwrap();
    assert_eq!(report.nodes_before, n);
    assert_eq!(report.nodes_after, n + 1);

    // Reference: mutate the edge list by hand and rebuild from scratch.
    let mut edges = edge_set(graph.adjacency());
    for &(u, v) in &[(0, 33), (5, 25), (2, 34), (8, 34)] {
        edges.insert((u.min(v), u.max(v)));
    }
    edges.remove(&(0, 1));
    edges.retain(|&(u, v)| u != 16 && v != 16);
    let edges: Vec<(usize, usize)> = edges.into_iter().collect();
    let rebuilt = aneci::graph::AttributedGraph::from_edges_plain(n + 1, &edges, None);

    assert_eq!(
        &patched,
        rebuilt.adjacency(),
        "patch-and-compact must equal a from-scratch CSR build"
    );
    // The report's touched set covers every row whose adjacency changed.
    for &u in &[0usize, 1, 33, 5, 25, 2, 8, 34, 16] {
        assert!(report.touched.contains(&u), "row {u} missing from touched");
    }
}

#[test]
fn high_order_refresh_is_bit_exact_against_full_build() {
    let cfg = SbmConfig {
        num_nodes: 120,
        num_classes: 4,
        target_edges: 480,
        ..SbmConfig::small()
    };
    let graph = generate_sbm(&cfg, 7);
    let prox = ProximityConfig::default();
    let mut ho = HighOrder::build(graph.adjacency(), &prox);

    // A mixed delta: inter-community edges in, intra edges out, one append,
    // one removal.
    let feat_dim = graph.features().cols();
    let delta = GraphDelta::new()
        .add_edge(0, 45)
        .add_edge(10, 95)
        .add_edge(61, 119)
        .remove_edge(0, 1)
        .add_node(vec![0.5; feat_dim])
        .add_edge(120, 3)
        .add_edge(120, 33)
        .remove_node(77);
    let (new_adj, report) = apply_to_csr(graph.adjacency(), &delta).unwrap();

    let refreshed_rows = ho.refresh(&new_adj, &prox, &report);
    assert!(refreshed_rows > 0);
    assert!(
        refreshed_rows < new_adj.rows(),
        "a local delta must not refresh every row ({refreshed_rows} of {})",
        new_adj.rows()
    );

    let full = HighOrder::build(&new_adj, &prox);
    assert_eq!(ho.a_tilde, full.a_tilde, "Ã must refresh bit-exactly");
    assert_eq!(ho.k_tilde, full.k_tilde, "k̃ must refresh bit-exactly");
    assert_eq!(ho.m_tilde, full.m_tilde, "M̃ must refresh bit-exactly");
}

/// Checks the ANN answers of `engine`'s current snapshot for node queries
/// on every 7th live node: recall@`k` against the exact scan over the live
/// rows, no tombstoned id, and each hit's score equal to the exact scan's
/// score for that id, bit for bit.
fn check_ann_against_exact_scan(engine: &QueryEngine, k: usize, step: &str) {
    let snap = engine.snapshot();
    let store = &snap.store;
    let n = store.num_nodes();
    let (mut total, mut queries) = (0.0, 0);
    for node in (0..n).step_by(7).filter(|&i| !store.is_deleted(i)) {
        let query = Query::TopK {
            node: Some(node),
            vector: None,
            k: Some(k),
            metric: None,
            ann: None,
            min_generation: Some(snap.generation),
        };
        let approx: Vec<(usize, f64)> = match engine.run(&query) {
            Response::Neighbors {
                neighbors,
                exact: false,
                ..
            } => neighbors.iter().map(|nb| (nb.node, nb.score)).collect(),
            other => panic!("{step}: expected ANN neighbors, got {other:?}"),
        };
        let exact = store.top_k(store.vector_of(node), n, Metric::Cosine, Some(node));
        for &(id, score) in &approx {
            assert!(!store.is_deleted(id), "{step}: tombstoned id {id} served");
            let want = exact.iter().find(|&&(e, _)| e == id).unwrap().1;
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "{step}: node {node}'s hit {id} scored {score}, the exact scan {want}"
            );
        }
        total += recall_at_k(&exact[..k.min(exact.len())], &approx);
        queries += 1;
    }
    let recall = total / queries as f64;
    assert!(recall >= 0.95, "{step}: recall@{k} {recall:.3} < 0.95");
}

#[test]
fn hnsw_keeps_recall_through_twenty_percent_churn() {
    let n = 400;
    let dim = 16;
    let k = 10;
    let mut rng = seeded_rng(23);
    let embedding = gaussian_matrix(n, dim, 1.0, &mut rng);
    let config = EngineConfig {
        use_ann: true,
        ef_search: 128,
        compact_threshold: 0.1,
        ..EngineConfig::default()
    };
    let engine = QueryEngine::new(EmbeddingStore::new(embedding, None), config);
    let mut fresh = || gaussian_matrix(1, dim, 1.0, &mut rng).into_vec();

    // 20% churn: half of it vector rewrites, half deletions.
    let churn = n / 5;
    let rewrites: Vec<usize> = (0..churn / 2).map(|i| (i * 13) % n).collect();
    let deletes: Vec<usize> = (0..churn / 2).map(|i| (i * 17 + 5) % n).collect();
    let (early, late) = rewrites.split_at(rewrites.len() / 2);
    let mut updates = vec![
        ("rewrites", SnapshotUpdate::new()),
        ("rewrites and deletes", SnapshotUpdate::new()),
        ("deletes", SnapshotUpdate::new()),
    ];
    for &node in early {
        updates[0].1 = std::mem::take(&mut updates[0].1).upsert(node, fresh());
    }
    for &node in late {
        updates[1].1 = std::mem::take(&mut updates[1].1).upsert(node, fresh());
    }
    for (i, &node) in deletes.iter().enumerate() {
        let at = 1 + usize::from(i >= deletes.len() / 2);
        updates[at].1 = std::mem::take(&mut updates[at].1).delete(node);
    }
    // Appends, with an appended id and a rewritten id each written twice
    // in the one update: the index wires each once, at its final row.
    let mut appends = SnapshotUpdate::new();
    for node in n..n + 20 {
        appends = appends.upsert(node, fresh());
    }
    let appends = appends
        .upsert(n + 3, fresh())
        .upsert(rewrites[1], fresh())
        .upsert(rewrites[1], fresh());
    updates.push(("appends", appends));
    for (step, update) in &updates {
        engine.apply_update(update).unwrap();
        check_ann_against_exact_scan(&engine, k, step);
    }
    assert!(engine.snapshot().ann.as_ref().unwrap().ghosts() > 0);

    // Deletions past the compaction threshold, then revivals of ids the
    // compaction left unwired, beside more deletions.
    let more = (0..30).fold(SnapshotUpdate::new(), |u, i| u.delete((i * 11 + 3) % n));
    engine.apply_update(&more).unwrap();
    let snap = engine.snapshot();
    assert_eq!(
        snap.ann.as_ref().unwrap().ghosts(),
        0,
        "must have compacted"
    );
    assert!(snap.store.num_live() < snap.store.num_nodes());
    check_ann_against_exact_scan(&engine, k, "compaction");
    let mut revive = SnapshotUpdate::new();
    for &node in &deletes[..10] {
        assert!(snap.store.is_deleted(node));
        revive = revive.upsert(node, fresh());
    }
    for node in (0..5).map(|i| (i * 19 + 7) % n) {
        revive = revive.delete(node);
    }
    engine.apply_update(&revive).unwrap();
    let snap = engine.snapshot();
    assert!(deletes[..10]
        .iter()
        .all(|&node| !snap.store.is_deleted(node)));
    check_ann_against_exact_scan(&engine, k, "revivals");
}

#[test]
fn concurrent_readers_only_observe_whole_generations() {
    // Invariant: within one generation, node 0 and node 1 always hold the
    // same constant vector (both rewritten in every update). A reader that
    // ever sees them disagree has observed a half-applied swap.
    let n = 64;
    let dim = 8;
    let store = EmbeddingStore::new(DenseMatrix::zeros(n, dim), None);
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed = 0u64;
                let mut last_generation = 0u64;
                // Check-then-test ordering guarantees at least one pinned
                // read even if the publisher finishes before this thread
                // gets scheduled.
                loop {
                    let snap = engine.snapshot();
                    assert_eq!(
                        snap.store.vector_of(0),
                        snap.store.vector_of(1),
                        "generation {} exposed a torn update",
                        snap.generation
                    );
                    assert!(
                        snap.generation >= last_generation,
                        "generation went backwards"
                    );
                    last_generation = snap.generation;
                    observed += 1;
                    if stop.load(Ordering::Relaxed) {
                        return observed;
                    }
                }
            })
        })
        .collect();

    for round in 1..=50u64 {
        let fill = round as f64;
        let update = SnapshotUpdate::new()
            .upsert(0, vec![fill; dim])
            .upsert(1, vec![fill; dim]);
        let generation = engine.apply_update(&update).unwrap();
        assert_eq!(generation, round);
        // Keep publishes and reads genuinely interleaved.
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let observed = reader.join().unwrap();
        assert!(observed > 0, "reader never pinned a snapshot");
    }
    assert_eq!(engine.generation(), 50);
}

#[test]
fn adversarial_delta_trips_the_drift_guard() {
    let graph = karate_club();
    let mut config = AneciConfig::for_community_detection(2, 42);
    config.epochs = 30;
    let (mut model, _) = train_aneci(&graph, &config).unwrap();

    // Adversarial rewiring: stitch the two factions together through their
    // leaders and cut the leaders off from their own followers, then allow
    // only a single warm epoch — nowhere near enough to re-converge.
    let mut delta = GraphDelta::new();
    for v in 18..34 {
        delta = delta.add_edge(0, v);
    }
    for v in 1..16 {
        delta = delta.add_edge(33, v);
    }
    for v in [1usize, 2, 3, 4, 5, 6, 7] {
        delta = delta.remove_edge(0, v);
    }
    let guard = DriftGuard {
        check_every: 1,
        q_tolerance: 0.01,
        min_nmi: 0.9,
    };
    let result = model.fine_tune_guarded(&delta, 1, &guard);
    match result {
        Err(AneciError::Drift {
            q_tilde,
            oracle_q_tilde,
            nmi,
        }) => {
            assert!(
                q_tilde < oracle_q_tilde - guard.q_tolerance || nmi < guard.min_nmi,
                "drift error carried non-tripping stats: {q_tilde} vs {oracle_q_tilde}, nmi {nmi}"
            );
        }
        other => panic!("expected AneciError::Drift, got {other:?}"),
    }

    // A benign no-op-scale delta with a generous guard passes.
    let benign = GraphDelta::new().add_edge(0, 1).remove_edge(0, 1);
    let relaxed = DriftGuard {
        check_every: 1,
        q_tolerance: 0.2,
        min_nmi: 0.0,
    };
    let (_, stats) = model.fine_tune_guarded(&benign, 30, &relaxed).unwrap();
    assert!(stats.is_some(), "check_every=1 must run the oracle");
}
