//! The serving recall gate: HNSW top-10 against the exact cosine scan on
//! the Cora-scale clustered embedding must keep mean recall@10 ≥ 0.95.

use aneci_bench::clustered_embedding;
use aneci_serve::hnsw::{recall_at_k, HnswConfig, HnswIndex};
use aneci_serve::store::{EmbeddingStore, Metric};

#[test]
fn hnsw_recall_at_10_meets_the_serving_bar() {
    let embedding = clustered_embedding();
    let n = embedding.rows();
    let (k, ef) = (10, 128);
    let store = EmbeddingStore::new(embedding.clone(), None);
    let index = HnswIndex::build(&store, Metric::Cosine, &HnswConfig::default());
    let queries: Vec<usize> = (0..400).map(|i| (i * 97) % n).collect();
    let recall = queries
        .iter()
        .map(|&q| {
            let exact = store.top_k_node(q, k, Metric::Cosine);
            let approx = index.search(embedding.row(q), k, ef, Some(q));
            recall_at_k(&exact, &approx)
        })
        .sum::<f64>()
        / queries.len() as f64;
    assert!(
        recall >= 0.95,
        "ANN recall@10 {recall:.4} is below the 0.95 bar"
    );
}
