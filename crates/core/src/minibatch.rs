//! Mini-batch training of the AnECI objective (million-node scale).
//!
//! [`AneciModel::train`] builds its operators once over all `N` nodes;
//! every operator it touches (`Â`, `Ã`, the dense reconstruction target)
//! is sized `N×N`-ish, which caps it around the exact-recon threshold.
//! [`AneciModel::train_plan`] trains the *same* model on the *same*
//! objective down the *same* path on induced subgraphs instead, and a model
//! built with [`AneciModel::from_parts`] builds no whole-graph operator
//! until a whole-graph call needs it. The plan is the only difference:
//!
//! 1. a [`BatchSampler`](aneci_autograd::train_batch::BatchSampler) plans
//!    each epoch's batches — community-aware subgraph sampling (sample
//!    communities, expand `l` hops);
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
//! per-epoch (each batch only sees its own rows), so the model keeps the
//! post-training full forward pass instead; it checkpoints, restores and
//! fine-tunes like a model trained whole. [`MiniBatchTrainer`] wraps the
//! model under the names the `bench_e2e` benchmark imports.

use crate::config::AneciConfig;
use crate::error::AneciError;
use crate::model::{AneciModel, TrainReport};
use aneci_linalg::{CsrMatrix, DenseMatrix};

pub use aneci_autograd::train_batch::BatchStrategy;

/// One [`AneciModel`] built with [`AneciModel::from_parts`] and trained
/// with [`AneciModel::train_plan`]. New code calls the model directly.
pub struct MiniBatchTrainer {
    model: AneciModel,
}

impl MiniBatchTrainer {
    /// [`AneciModel::from_parts`].
    pub fn try_new(
        adjacency: CsrMatrix,
        features: DenseMatrix,
        config: &AneciConfig,
    ) -> Result<Self, AneciError> {
        AneciModel::from_parts(adjacency, features, config).map(|model| Self { model })
    }

    /// [`AneciModel::train_plan`].
    pub fn train(
        &mut self,
        strategy: BatchStrategy,
        communities: Option<&[usize]>,
    ) -> Result<TrainReport, AneciError> {
        self.model.train_plan(strategy, communities)
    }

    /// [`AneciModel::embedding`].
    pub fn embedding(&self) -> &DenseMatrix {
        self.model.embedding()
    }

    /// [`AneciModel::communities`].
    pub fn communities(&self) -> Vec<usize> {
        self.model.communities()
    }

    /// [`AneciModel::config`].
    pub fn config(&self) -> &AneciConfig {
        self.model.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopStrategy;
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
            assert!(mini.model.best_embedding.is_none(), "{strategy:?}");
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
        let cases: [(&AneciConfig, BatchStrategy, Option<&[usize]>); 4] = [
            (&validation, BatchStrategy::FullGraph, None),
            (&fixed_cfg(1), community(1), None),
            (&fixed_cfg(1), community(1), Some(&labels[..10])),
            (&fixed_cfg(1), community(0), Some(&labels)),
        ];
        for (cfg, strategy, communities) in cases {
            let mut mini = trainer(&g, cfg);
            let err = mini.train(strategy, communities).unwrap_err();
            assert!(matches!(err, AneciError::Config(_)), "{strategy:?}: {err}");
            // Rejected before the engine ran: nothing trained or kept.
            assert_eq!(
                mini.model.params.get(0),
                trainer(&g, cfg).model.params.get(0)
            );
            assert!(mini.model.best_embedding.is_none(), "{strategy:?}");
        }
    }
}
