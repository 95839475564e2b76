//! # aneci-core
//!
//! The paper's contribution: **A**ttributed **n**etwork **E**mbedding
//! preserving **C**ommunity **I**nformation (AnECI, ICDE 2022).
//!
//! * [`config::AneciConfig`] — hyperparameters with the paper's per-task
//!   presets (classification / community detection / anomaly detection);
//! * [`model::AneciModel`] — GCN encoder (Eq. 2–3), fused generalized
//!   modularity `Q̃` over high-order proximity and overlapping communities
//!   (Eq. 13–14), high-order reconstruction decoder (Eq. 15–17), joint
//!   objective (Eq. 18), training with the paper's three stopping
//!   strategies;
//! * [`minibatch`] — million-node scale: [`MiniBatchTrainer`] trains the
//!   same objective through the same driver as [`model::AneciModel`], over
//!   a community-aware or neighbor-sampled batch plan instead of the
//!   full-graph one, and is bit-exact with full-batch training under the
//!   `FullGraph` strategy;
//! * [`anomaly`] — membership-entropy node anomaly scores, edge anomaly
//!   scores, the defense score `DS(δ)` of Sec. VI-B1;
//! * [`denoise`] — **AnECI+**, the two-stage denoising variant
//!   (Algorithm 1);
//! * [`checkpoint`] — the versioned, checksummed `.aneci` binary format
//!   that persists a trained model (embedding, membership, encoder weights,
//!   config) bit-exactly for the serving layer (`aneci-serve`).
//!
//! ```no_run
//! use aneci_core::{AneciConfig, train_aneci};
//! use aneci_graph::karate_club;
//!
//! let graph = karate_club();
//! let config = AneciConfig::for_community_detection(2, 0);
//! let (model, report) = train_aneci(&graph, &config).unwrap();
//! println!("Q̃ = {:.3}", report.modularity.last().unwrap());
//! println!("communities: {:?}", model.communities());
//! ```

pub mod anomaly;
pub mod checkpoint;
pub mod config;
pub mod defense;
pub mod denoise;
pub mod error;
pub mod minibatch;
pub mod model;
pub mod modularity_defs;

pub use anomaly::{
    combined_anomaly_scores, defense_score, edge_anomaly_scores, neighborhood_anomaly_scores,
    node_anomaly_scores,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{AneciConfig, AneciConfigBuilder, ReconMode, StopStrategy};
pub use defense::{AneciPlus, Defense, DefenseOutcome, NoDefense, SmoothedEncoder};
pub use denoise::{aneci_plus, DenoiseConfig, DenoiseResult};
pub use error::AneciError;
pub use minibatch::{BatchStrategy, MiniBatchTrainer};
pub use model::{rigidity, train_aneci, AneciModel, DriftGuard, DriftStats, TrainReport, ValProbe};
pub use modularity_defs::{
    classic_modularity, eq_modularity, generalized_modularity, one_hot_membership, qstar_modularity,
};

#[cfg(test)]
mod proptests {
    use crate::model::rigidity;
    use aneci_linalg::DenseMatrix;
    use proptest::prelude::*;

    proptest! {
        /// For any row-stochastic P, rigidity lies in [1/k, 1] — the bounds
        /// Fig. 9b relies on.
        #[test]
        fn rigidity_bounds_for_stochastic_rows(v in prop::collection::vec(-5.0..5.0f64, 20)) {
            let p = DenseMatrix::from_vec(5, 4, v).softmax_rows();
            let r = rigidity(&p);
            prop_assert!(r >= 0.25 - 1e-9, "r = {r}");
            prop_assert!(r <= 1.0 + 1e-9, "r = {r}");
        }

        /// Node anomaly entropy scores are permutation-equivariant in the
        /// community axis.
        #[test]
        fn entropy_scores_invariant_to_community_relabel(v in prop::collection::vec(-4.0..4.0f64, 12)) {
            let p = DenseMatrix::from_vec(4, 3, v).softmax_rows();
            let base = crate::anomaly::node_anomaly_scores(&p);
            // Reverse the community axis.
            let flipped = DenseMatrix::from_fn(4, 3, |r, c| p.get(r, 2 - c));
            let flipped_scores = crate::anomaly::node_anomaly_scores(&flipped);
            for (a, b) in base.iter().zip(&flipped_scores) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }
}
