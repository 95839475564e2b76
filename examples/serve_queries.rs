//! Serving demo: train a model, checkpoint it, stand up the query engine,
//! and answer a batch of JSONL queries — what `aneci_http` does for
//! `POST /v1/query_batch`, but in-process.
//!
//! ```sh
//! cargo run --release --example serve_queries
//! ```

use aneci::prelude::*;

fn main() {
    // 1. Train and checkpoint (any trained model works; karate club is
    //    instant).
    let graph = karate_club();
    let config = AneciConfig::for_community_detection(2, 42);
    let (model, _) = train_aneci(&graph, &config).expect("training failed");
    let path = std::env::temp_dir().join("serve_queries.aneci");
    model.save_checkpoint(&path).expect("saving checkpoint");
    println!("checkpoint written to {}", path.display());

    // 2. Load it back and build the engine — ANN index on, small response
    //    cache, cosine by default.
    let ckpt = AneciModel::load_checkpoint(&path).expect("loading checkpoint");
    let engine = QueryEngine::new(
        EmbeddingStore::from_checkpoint(&ckpt),
        EngineConfig {
            use_ann: true,
            cache_capacity: 64,
            ..EngineConfig::default()
        },
    );

    // 3. Answer a batch of JSONL queries (note the duplicate — it hits the
    //    LRU cache) plus one malformed line, which errors in place instead
    //    of panicking.
    let queries = [
        r#"{"op":"top_k","node":0,"k":5}"#,
        r#"{"op":"top_k","node":33,"k":5,"ann":false}"#,
        r#"{"op":"community","node":8}"#,
        r#"{"op":"edge_score","u":0,"v":33}"#,
        r#"{"op":"top_k","node":0,"k":5}"#,
        r#"{"op":"top_k","node":"oops"}"#,
    ];
    for (query, response) in queries.iter().zip(engine.run_batch(&queries)) {
        println!("-> {query}");
        println!("<- {response}");
    }
    let (hits, misses) = engine.cache_stats();
    println!("cache: {hits} hits, {misses} misses");
}
