//! Mini-batch training of the AnECI objective (million-node scale).
//!
//! The full-batch path ([`AneciModel::train`](crate::model::AneciModel::train))
//! builds its operators once over all `N` nodes; every operator it touches
//! (`Â`, `Ã`, the dense reconstruction target) is sized `N×N`-ish, which
//! caps it around the exact-recon threshold. [`MiniBatchTrainer`] trains
//! the *same* objective down the *same* path on induced subgraphs instead.
//! Both trainers run one driver over a [`BatchSampler`] plan; the plan is
//! the only difference:
//!
//! 1. a [`BatchSampler`] plans each epoch's batches — community-aware
//!    subgraph sampling (sample communities, expand `l` hops) or
//!    GraphSAGE-style uniform neighbor sampling;
//! 2. per batch, the driver builds the operators from the batch's rows of
//!    the raw adjacency (`extract_submatrix`, then a cut of the run's
//!    [`RowStore`](aneci_graph::RowStore) of `Ã` rows, which builds each
//!    row once a run while its budget allows — only rows batches touch,
//!    never `N×N`), and keeps the latest batch's in a one-entry cache;
//! 3. the per-batch loss is the model's own `−β₁Q̃ + β₂L_R` on the induced
//!    subgraph.
//!
//! **Parity contract** (pinned by the golden fixtures of
//! `tests/trainer_parity.rs`): with [`BatchStrategy::FullGraph`] the batch
//! operators are bit-exact copies of the full-batch ones, and the
//! negative-sampling RNG walks the same `(seed, 0x5A3)` stream — so a
//! one-batch run reproduces `AneciModel::train` bit for bit.
//!
//! For genuinely partial batches the kept embedding cannot be tracked
//! per-epoch (each batch only sees its own rows), so the trainer keeps the
//! post-training full forward pass instead.

use crate::config::{AneciConfig, StopStrategy};
use crate::error::AneciError;
use crate::model::{embed, init_params, propagation, train_plan, TrainReport};
use aneci_autograd::train_batch::BatchSampler;
use aneci_autograd::ParamSet;
use aneci_linalg::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

pub use aneci_autograd::train_batch::BatchStrategy;

/// Mini-batch trainer of the AnECI objective, for graphs too large for
/// [`AneciModel`](crate::model::AneciModel)'s full-batch precomputation
/// (global high-order proximity, dense targets, the full positive-pair list
/// — all `O(N·deg^l)` or worse). Holds only the raw CSR adjacency and the
/// feature matrix; every training-time operator is batch-local, cut from
/// `Ã` rows that [`MiniBatchTrainer::train`] keeps for the length of the
/// run, up to [`ROW_STORE_BUDGET_BYTES`](crate::config::ROW_STORE_BUDGET_BYTES).
///
/// It initializes its weights exactly as `AneciModel` does, so the two
/// start from identical parameters under the same configuration.
pub struct MiniBatchTrainer {
    config: AneciConfig,
    adjacency: Arc<CsrMatrix>,
    features: Arc<DenseMatrix>,
    params: ParamSet,
    best_embedding: Option<DenseMatrix>,
}

impl MiniBatchTrainer {
    /// Builds a trainer from a raw symmetric adjacency and node features.
    /// Errors with [`AneciError::Config`] on an invalid configuration and
    /// [`AneciError::Shape`] on mismatched dimensions.
    pub fn try_new(
        adjacency: CsrMatrix,
        features: DenseMatrix,
        config: &AneciConfig,
    ) -> Result<Self, AneciError> {
        config.validate()?;
        if adjacency.rows() != adjacency.cols() {
            return Err(AneciError::Shape(format!(
                "adjacency must be square, got {}x{}",
                adjacency.rows(),
                adjacency.cols()
            )));
        }
        if features.rows() != adjacency.rows() {
            return Err(AneciError::Shape(format!(
                "feature rows ({}) must match the node count ({})",
                features.rows(),
                adjacency.rows()
            )));
        }
        Ok(Self {
            config: config.clone(),
            params: init_params(features.cols(), config),
            adjacency: Arc::new(adjacency),
            features: Arc::new(features),
            best_embedding: None,
        })
    }

    /// Trains through the one AnECI driver: per epoch, `strategy` plans a
    /// deterministic batch sequence (seeded from the config seed) and every
    /// batch optimizes the AnECI objective on its induced subgraph.
    /// `communities` (node → community id) is required by
    /// [`BatchStrategy::CommunityAware`] and ignored otherwise.
    ///
    /// [`StopStrategy::ValidationBest`] is not supported here (validation
    /// probes need a full embedding every probe epoch, defeating the point
    /// of batching) and reports [`AneciError::Config`]; use
    /// [`StopStrategy::FixedEpochs`] or
    /// [`StopStrategy::EarlyStopModularity`] — the latter monitors the
    /// epoch-mean batch Q̃. Arguments the sampler rejects (see
    /// [`BatchSampler::try_new`]) report [`AneciError::Config`] too, and a
    /// graph with no nodes [`AneciError::Shape`], before any training
    /// starts.
    ///
    /// With [`BatchStrategy::FullGraph`] this reproduces
    /// [`AneciModel::train`](crate::model::AneciModel::train) bit-exactly
    /// (same operators, same tape op order, same RNG streams).
    pub fn train(
        &mut self,
        strategy: BatchStrategy,
        communities: Option<&[usize]>,
    ) -> Result<TrainReport, AneciError> {
        if let StopStrategy::ValidationBest { .. } = self.config.stop {
            return Err(AneciError::Config(
                "mini-batch training does not support StopStrategy::ValidationBest; \
                 use FixedEpochs or EarlyStopModularity"
                    .into(),
            ));
        }
        let sampler =
            BatchSampler::try_new(&self.adjacency, strategy, communities, self.config.seed)
                .map_err(|e| AneciError::Config(format!("mini-batch strategy: {e}")))?;
        let (report, best_z) = train_plan(
            &self.config,
            &mut self.params,
            &self.adjacency,
            &self.features,
            sampler,
            None,
            None,
        )?;
        self.best_embedding = Some(match best_z {
            Some(z) => z,
            // Partial batches never see a full Z: keep the post-training
            // forward pass (the standard GraphSAGE-style serving answer).
            None => embed(&self.params, &self.features, &propagation(&self.adjacency)),
        });
        Ok(report)
    }

    /// The kept embedding matrix `Z` (after [`MiniBatchTrainer::train`]).
    pub fn embedding(&self) -> &DenseMatrix {
        self.best_embedding
            .as_ref()
            .expect("call train() before embedding()")
    }

    /// Hard community assignment `argmax_k softmax(Z)_i^k`.
    pub fn communities(&self) -> Vec<usize> {
        self.embedding().softmax_rows().argmax_rows()
    }

    /// The model configuration.
    pub fn config(&self) -> &AneciConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{generate_sbm, karate_club, AttributedGraph, SbmConfig};

    fn fixed_cfg(seed: u64) -> AneciConfig {
        AneciConfig {
            hidden_dim: 16,
            embed_dim: 4,
            epochs: 30,
            stop: StopStrategy::FixedEpochs,
            seed,
            ..Default::default()
        }
    }

    fn trainer(g: &AttributedGraph, cfg: &AneciConfig) -> MiniBatchTrainer {
        MiniBatchTrainer::try_new(g.adjacency().clone(), g.features().clone(), cfg).unwrap()
    }

    #[test]
    fn community_aware_minibatch_trains_and_keeps_full_embedding() {
        let mut sbm = SbmConfig::small();
        sbm.num_nodes = 60;
        sbm.num_classes = 3;
        sbm.target_edges = 240;
        let g = generate_sbm(&sbm, 11);
        let mut cfg = fixed_cfg(3);
        cfg.embed_dim = 3;
        cfg.epochs = 20;
        let labels: Vec<usize> = (0..g.num_nodes()).map(|i| i % 3).collect();
        let mut mini = trainer(&g, &cfg);
        let report = mini
            .train(
                BatchStrategy::CommunityAware {
                    communities_per_batch: 1,
                    hops: 1,
                    max_batch_nodes: 0,
                },
                Some(&labels),
            )
            .unwrap();
        assert_eq!(report.epochs_run, 20);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert_eq!(mini.embedding().shape(), (60, 3));
    }

    #[test]
    fn neighbor_sampling_minibatch_trains() {
        let g = karate_club();
        let mut cfg = fixed_cfg(5);
        cfg.epochs = 10;
        let mut mini = trainer(&g, &cfg);
        let report = mini
            .train(
                BatchStrategy::NeighborSampling {
                    seeds_per_batch: 8,
                    fanout: 3,
                    hops: 2,
                },
                None,
            )
            .unwrap();
        assert_eq!(report.epochs_run, 10);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert_eq!(mini.embedding().shape(), (34, 4));
    }

    #[test]
    fn empty_graph_is_a_shape_error() {
        let strategies = [
            BatchStrategy::FullGraph,
            BatchStrategy::CommunityAware {
                communities_per_batch: 1,
                hops: 1,
                max_batch_nodes: 0,
            },
        ];
        for strategy in strategies {
            let mut mini = MiniBatchTrainer::try_new(
                CsrMatrix::from_triplets(0, 0, &[]),
                DenseMatrix::zeros(0, 3),
                &fixed_cfg(1),
            )
            .unwrap();
            let err = mini.train(strategy, Some(&[])).unwrap_err();
            assert!(matches!(err, AneciError::Shape(_)), "{strategy:?}: {err}");
            assert!(mini.best_embedding.is_none(), "{strategy:?}");
        }
    }

    #[test]
    fn validation_best_is_rejected() {
        let g = karate_club();
        let mut validation = fixed_cfg(1);
        validation.stop = StopStrategy::ValidationBest { eval_every: 5 };
        let labels = vec![0; g.num_nodes()];
        let community = |communities_per_batch| BatchStrategy::CommunityAware {
            communities_per_batch,
            hops: 1,
            max_batch_nodes: 0,
        };
        let neighbor = |seeds_per_batch, fanout| BatchStrategy::NeighborSampling {
            seeds_per_batch,
            fanout,
            hops: 1,
        };
        let cases: [(&AneciConfig, BatchStrategy, Option<&[usize]>); 6] = [
            (&validation, BatchStrategy::FullGraph, None),
            (&fixed_cfg(1), community(1), None),
            (&fixed_cfg(1), community(1), Some(&labels[..10])),
            (&fixed_cfg(1), community(0), Some(&labels)),
            (&fixed_cfg(1), neighbor(0, 3), None),
            (&fixed_cfg(1), neighbor(8, 0), None),
        ];
        for (cfg, strategy, communities) in cases {
            let mut mini = trainer(&g, cfg);
            let err = mini.train(strategy, communities).unwrap_err();
            assert!(matches!(err, AneciError::Config(_)), "{strategy:?}: {err}");
            // Rejected before the engine ran: nothing trained or kept.
            assert_eq!(mini.params.get(0), trainer(&g, cfg).params.get(0));
            assert!(mini.best_embedding.is_none(), "{strategy:?}");
        }
    }
}
