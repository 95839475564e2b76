//! End-to-end serving test: train → checkpoint → reload → query.
//!
//! Exercises the full path a served checkpoint takes, asserting the
//! bit-exactness guarantees the subsystem is built around: the reloaded
//! checkpoint equals the saved one, serve-time edge scores equal eval-time
//! scores, and batch answers don't depend on thread count.

use aneci_core::model::AneciModel;
use aneci_core::{train_aneci, AneciConfig};
use aneci_graph::karate_club;
use aneci_serve::engine::{EngineConfig, QueryEngine, Response};
use aneci_serve::store::EmbeddingStore;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("aneci_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn trained() -> (aneci_graph::AttributedGraph, AneciModel) {
    let graph = karate_club();
    let mut config = AneciConfig::for_community_detection(2, 42);
    config.epochs = 30; // enough to populate the kept embedding, fast in CI
    let (model, _) = train_aneci(&graph, &config).unwrap();
    (graph, model)
}

#[test]
fn train_save_reload_serve_round_trip() {
    let (graph, model) = trained();
    let path = temp_path("round_trip.aneci");
    model.save_checkpoint(&path).unwrap();

    // Bit-exact reload.
    let ckpt = AneciModel::load_checkpoint(&path).unwrap();
    assert_eq!(ckpt, model.checkpoint().unwrap());

    // A model restored from the checkpoint serves the same embedding.
    let restored = AneciModel::from_checkpoint(&graph, &ckpt).unwrap();
    assert_eq!(restored.checkpoint().unwrap(), ckpt);

    // Serve from the reloaded checkpoint.
    let engine = QueryEngine::new(
        EmbeddingStore::from_checkpoint(&ckpt),
        EngineConfig::default(),
    );

    // Serve-time edge scores equal the eval scorer on the same embedding —
    // the parity the link-prediction harness depends on.
    for (u, v) in [(0usize, 1usize), (5, 30), (33, 0)] {
        let line = format!(r#"{{"op":"edge_score","u":{u},"v":{v}}}"#);
        match serde_json::from_str::<Response>(&engine.run_line(&line)).unwrap() {
            Response::EdgeScore { score, .. } => {
                assert_eq!(
                    score,
                    aneci_eval::linkpred::edge_score(&ckpt.embedding, u, v)
                );
            }
            other => panic!("expected edge_score, got {other:?}"),
        }
    }

    // Served communities are the model's own argmax memberships.
    let communities = restored.communities();
    for node in [0usize, 16, 33] {
        let line = format!(r#"{{"op":"community","node":{node}}}"#);
        match serde_json::from_str::<Response>(&engine.run_line(&line)).unwrap() {
            Response::Community { community, .. } => {
                assert_eq!(community, communities[node]);
            }
            other => panic!("expected community, got {other:?}"),
        }
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_checkpoint_is_rejected_at_load() {
    let (_, model) = trained();
    let path = temp_path("truncated.aneci");
    model.save_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = AneciModel::load_checkpoint(&path).unwrap_err();
    assert!(
        matches!(err, aneci_core::AneciError::Checkpoint(_)),
        "expected a checkpoint format error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn batch_serving_deterministic_across_thread_counts() {
    use aneci_linalg::pool;
    pool::force_pool();
    let (_, model) = trained();
    let ckpt = model.checkpoint().unwrap();
    let engine = QueryEngine::new(
        EmbeddingStore::from_checkpoint(&ckpt),
        EngineConfig {
            cache_capacity: 32,
            ..EngineConfig::default()
        },
    );
    let lines: Vec<String> = (0..100)
        .map(|i| match i % 3 {
            0 => format!(r#"{{"op":"top_k","node":{},"k":5}}"#, i % 34),
            1 => format!(r#"{{"op":"community","node":{}}}"#, i % 34),
            _ => format!(
                r#"{{"op":"edge_score","u":{},"v":{}}}"#,
                i % 34,
                (i * 11) % 34
            ),
        })
        .collect();

    let multi = engine.run_batch(&lines);
    pool::set_num_threads(1);
    let single = engine.run_batch(&lines);
    pool::set_num_threads(4);
    assert_eq!(multi, single);

    // 100 distinct queries thrash a 32-entry LRU, so whether the batches
    // themselves hit depends on chunk scheduling; assert on a back-to-back
    // repeat instead, which hits deterministically.
    let (hits_before, _) = engine.cache_stats();
    assert_eq!(engine.run_line(&lines[0]), engine.run_line(&lines[0]));
    let (hits, misses) = engine.cache_stats();
    assert!(hits > hits_before, "repeated query should hit the cache");
    assert!(misses > 0);
}
