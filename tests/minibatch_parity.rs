//! Determinism guarantees of the million-node mini-batch substrate.
//!
//! The mini-batch path adds three new sources of nondeterminism risk — the
//! streaming graph generator, the batch samplers, and the pooled
//! subgraph-extraction kernels. These tests pin the contract that none of
//! them depends on chunk sizes or on how many pool workers participate:
//!
//! 1. **Streaming generator** — `generate_streamed` yields bit-identical
//!    graphs for any edge-chunk size and any `ANECI_NUM_THREADS`.
//! 2. **Batch sampler** — community-aware epoch plans are a serial
//!    seeded-RNG walk, identical across thread counts.
//! 3. **Extraction kernels** — the pooled `extract_submatrix` /
//!    `gather_rows` / `select_columns` kernels and the batched high-order
//!    proximity (a zero-budget `RowStore`'s cut) match their serial references
//!    bit-exactly at every worker count.
//! 4. **End to end** — a community-aware mini-batch training run produces
//!    the same trajectory at 2 and 4 pool workers.

use std::sync::Mutex;

use aneci::autograd::{BatchSampler, BatchStrategy};
use aneci::core::{AneciConfig, MiniBatchTrainer, ReconMode, StopStrategy};
use aneci::graph::{generate_streamed, ProximityConfig, RowStore, StreamingConfig};
use aneci::linalg::{self, pool};

/// Pool reconfiguration is process-global; serialize the tests that touch it.
static POOL_CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn small_stream_cfg() -> StreamingConfig {
    let mut cfg = StreamingConfig::scale(600).expect("valid scale preset");
    cfg.num_communities = 6;
    cfg
}

#[test]
fn streamed_graph_is_invariant_to_chunk_size_and_threads() {
    let _guard = POOL_CONFIG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let cfg = small_stream_cfg();

    let base = generate_streamed(&cfg, 9, 100_000);
    for chunk in [37usize, 512, 4096] {
        let g = generate_streamed(&cfg, 9, chunk);
        assert_eq!(g.adjacency, base.adjacency, "chunk {chunk}: adjacency");
        assert_eq!(g.features, base.features, "chunk {chunk}: features");
        assert_eq!(g.labels, base.labels, "chunk {chunk}: labels");
    }

    pool::force_pool();
    pool::set_num_threads(2);
    let two = generate_streamed(&cfg, 9, 512);
    pool::set_num_threads(4);
    let four = generate_streamed(&cfg, 9, 512);
    assert_eq!(
        two.adjacency, four.adjacency,
        "adjacency depends on threads"
    );
    assert_eq!(two.features, four.features, "features depend on threads");
}

#[test]
fn batch_plans_are_invariant_to_thread_count() {
    let _guard = POOL_CONFIG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let g = generate_streamed(&small_stream_cfg(), 4, 1024);

    let community = BatchStrategy::CommunityAware {
        communities_per_batch: 2,
        hops: 1,
        max_batch_nodes: 200,
    };

    pool::force_pool();
    let mut plans = Vec::new();
    for threads in [2usize, 4] {
        pool::set_num_threads(threads);
        let cs = BatchSampler::new(&g.adjacency, community, Some(&g.labels), 17);
        let per_epoch: Vec<_> = (0..3).map(|e| cs.epoch_plan(e)).collect();
        plans.push(per_epoch);
    }
    assert_eq!(plans[0], plans[1], "batch plans depend on thread count");

    // Plans are well-formed: sorted unique nodes, community batches capped.
    for batch in plans[0].iter().flatten() {
        assert!(!batch.is_empty());
        assert!(batch.windows(2).all(|w| w[0] < w[1]), "unsorted batch");
        assert!(*batch.last().unwrap() < g.num_nodes());
        assert!(batch.len() <= 200, "max_batch_nodes violated");
    }
}

#[test]
fn extraction_kernels_are_invariant_to_thread_count() {
    let _guard = POOL_CONFIG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let g = generate_streamed(&small_stream_cfg(), 23, 1024);
    let nodes: Vec<usize> = (0..g.num_nodes()).step_by(3).collect();
    let reference = linalg::reference::extract_submatrix(&g.adjacency, &nodes);

    pool::force_pool();
    let mut results = Vec::new();
    for threads in [2usize, 4] {
        pool::set_num_threads(threads);
        let sub = g.adjacency.extract_submatrix(&nodes);
        assert_eq!(sub, reference, "{threads} threads: extract != reference");
        let gathered = g.adjacency.gather_rows(&nodes).select_columns(&nodes);
        assert_eq!(gathered, reference, "{threads} threads: gather/select");
        let proximity = ProximityConfig::uniform(2);
        let ho = RowStore::new(&g.adjacency, &proximity, 0).cut(&nodes);
        results.push((sub, ho.a_tilde, ho.k_tilde, ho.m_tilde));
    }
    assert_eq!(results[0], results[1], "extraction depends on thread count");
}

#[test]
fn minibatch_training_is_invariant_to_thread_count() {
    let _guard = POOL_CONFIG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let g = generate_streamed(&small_stream_cfg(), 31, 2048);
    let cfg = AneciConfig {
        hidden_dim: 16,
        embed_dim: 6,
        epochs: 8,
        stop: StopStrategy::FixedEpochs,
        recon: ReconMode::Sampled { neg_ratio: 1 },
        seed: 5,
        ..Default::default()
    };
    let strategy = BatchStrategy::CommunityAware {
        communities_per_batch: 2,
        hops: 1,
        max_batch_nodes: 0,
    };

    pool::force_pool();
    let mut runs = Vec::new();
    for threads in [2usize, 4] {
        pool::set_num_threads(threads);
        let mut t =
            MiniBatchTrainer::try_new(g.adjacency.clone(), g.features.clone(), &cfg).unwrap();
        let report = t.train(strategy, Some(&g.labels)).unwrap();
        runs.push((report.losses, report.modularity, t.embedding().clone()));
    }
    assert_eq!(runs[0].0, runs[1].0, "losses depend on thread count");
    assert_eq!(runs[0].1, runs[1].1, "modularity depends on thread count");
    assert_eq!(runs[0].2, runs[1].2, "embedding depends on thread count");
}
