//! # aneci — Robust Attributed Network Embedding Preserving Community Information
//!
//! A complete, from-scratch Rust reproduction of the ICDE 2022 paper
//! *"Robust Attributed Network Embedding Preserving Community Information"*
//! (AnECI). This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`obs`] | zero-dependency metrics registry, span timers, JSONL telemetry |
//! | [`linalg`] | dense / CSR sparse matrices, multi-threaded kernels, seeded RNG |
//! | [`autograd`] | tape-based reverse-mode autodiff + optimizers |
//! | [`graph`] | attributed graphs, high-order proximity, SBM benchmark generators |
//! | [`core`] | the AnECI model, AnECI+ denoising, anomaly & defense scores |
//! | [`baselines`] | DeepWalk, LINE, GAE/VGAE, DGI, GCN, Dominant, spectral, Louvain |
//! | [`attacks`] | random / FGA / NETTACK-style attacks, outlier seeding |
//! | [`eval`] | metrics, logistic regression, k-means++, isolation forest, t-SNE |
//! | [`serve`] | `.aneci` checkpoints, exact + HNSW ANN queries, JSONL engine, HTTP/1.1 server |
//!
//! ## Quickstart
//!
//! ```
//! use aneci::prelude::*;
//!
//! let graph = karate_club();
//! let config = AneciConfig::builder()
//!     .embed_dim(2)
//!     .epochs(40)
//!     .stop(StopStrategy::FixedEpochs)
//!     .seed(0)
//!     .build()
//!     .unwrap();
//! let (model, _report) = train_aneci(&graph, &config).unwrap();
//! let communities = model.communities();
//! assert_eq!(communities.len(), 34);
//! ```

pub use aneci_attacks as attacks;
pub use aneci_autograd as autograd;
pub use aneci_baselines as baselines;
pub use aneci_core as core;
pub use aneci_eval as eval;
pub use aneci_graph as graph;
pub use aneci_linalg as linalg;
pub use aneci_obs as obs;
pub use aneci_serve as serve;

/// The names most programs need, in one import: graph loading and
/// generation, model configuration (struct presets and the builder),
/// training, anomaly/denoise scoring, the standard metrics, and the
/// serving engine. Examples open with `use aneci::prelude::*;`.
pub mod prelude {
    pub use aneci_core::{
        aneci_plus, defense_score, node_anomaly_scores, train_aneci, AneciConfig,
        AneciConfigBuilder, AneciError, AneciModel, AneciPlus, BatchStrategy, Defense,
        DefenseOutcome, DenoiseConfig, DriftGuard, DriftStats, MiniBatchTrainer, NoDefense,
        ReconMode, SmoothedEncoder, StopStrategy, TrainReport,
    };
    pub use aneci_eval::{accuracy, auc, kmeans_best_of, modularity, nmi};
    pub use aneci_graph::{
        generate_lfr, generate_sbm, generate_streamed, karate_club, AttributedGraph, Benchmark,
        DeltaReport, FeatureKind, GraphDelta, GraphError, LfrConfig, SbmConfig, StreamingConfig,
    };
    pub use aneci_linalg::DenseMatrix;
    pub use aneci_serve::{
        EmbeddingStore, EngineConfig, EngineConfigBuilder, HttpConfig, HttpServer, QueryEngine,
        QueryRequest, QueryResponse, ServerHandle, Snapshot, SnapshotHandle, SnapshotUpdate,
        VectorUpsert,
    };
}
