//! AnECI hyperparameters.
//!
//! Two construction paths:
//!
//! * struct literal + `..Default::default()` — kept working for back-compat
//!   (validation then happens when the config is first used);
//! * [`AneciConfig::builder`] — fluent setters whose
//!   [`build`](AneciConfigBuilder::build) runs [`AneciConfig::validate`] and
//!   returns a typed [`AneciError`], so a bad parameter fails at
//!   construction instead of deep inside `AneciModel::new`.

use crate::error::AneciError;
use aneci_graph::ProximityConfig;
use serde::{Deserialize, Serialize};

/// The encoder's LeakyReLU negative slope (`a = 0.01`, Sec. IV-B).
pub const LEAKY_ALPHA: f64 = 0.01;

/// Node count above which [`ReconMode::Auto`] switches from the exact to the
/// sampled reconstruction loss.
pub const EXACT_RECON_MAX_NODES: usize = 1800;

/// Bytes of `Ã` rows one training run keeps for reuse across its batches
/// (an [`aneci_graph::RowStore`], 12 bytes per stored entry plus 8 per
/// row). The whole `Ã` of a 10k-node streamed graph (~1M entries, 12 MB)
/// and of the 100k tier (12.4M entries, 149 MB) fits; on the 1M tier the
/// rows first touched up to the budget are kept and the rest are rebuilt
/// by each batch that holds them.
pub const ROW_STORE_BUDGET_BYTES: usize = 256 << 20;

/// How the high-order reconstruction loss `L_R` (Eq. 17) is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ReconMode {
    /// Exact dense double sum over all `N²` pairs. Used automatically up to
    /// [`EXACT_RECON_MAX_NODES`] nodes.
    Exact,
    /// Negative-sampled estimate: every stored entry of `Ã` is a positive
    /// pair; `neg_ratio` × as many uniformly-random zero pairs are drawn
    /// fresh each epoch.
    Sampled {
        /// Number of negative pairs per positive pair.
        neg_ratio: usize,
    },
    /// Choose per graph: `Exact` up to [`EXACT_RECON_MAX_NODES`] nodes,
    /// `Sampled` above it.
    Auto,
}

/// Stopping strategy (Sec. V-D describes one per downstream task).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StopStrategy {
    /// Run exactly this many epochs (community detection: 600).
    FixedEpochs,
    /// Run all epochs, keep the embedding with the best validation-set
    /// classification accuracy, probed every `eval_every` epochs (node
    /// classification: 150 epochs).
    ValidationBest {
        /// Probe period in epochs.
        eval_every: usize,
    },
    /// Early-stop when the modularity training loss has not improved for
    /// `patience` epochs (anomaly detection: patience 20/40).
    EarlyStopModularity {
        /// Epochs without improvement tolerated.
        patience: usize,
    },
}

/// Full configuration of the AnECI model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AneciConfig {
    /// Hidden width of the first GCN layer.
    pub hidden_dim: usize,
    /// Embedding size `h` (the second GCN layer's width). For community
    /// tasks the paper sets `h = |C|` so `P = softmax(Z)` is the membership.
    pub embed_dim: usize,
    /// High-order proximity construction (Definition 3).
    pub proximity: ProximityConfig,
    /// Weight `β₁` on the (negated) modularity `Q̃` in Eq. 18.
    pub beta1: f64,
    /// Weight `β₂` on the reconstruction loss `L_R` in Eq. 18.
    pub beta2: f64,
    /// Learning rate (Adam).
    pub lr: f64,
    /// Weight decay (decoupled).
    pub weight_decay: f64,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Stopping strategy.
    pub stop: StopStrategy,
    /// Reconstruction-loss evaluation mode.
    pub recon: ReconMode,
    /// RNG seed (weights + negative sampling).
    pub seed: u64,
}

impl Default for AneciConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 64,
            embed_dim: 16,
            proximity: ProximityConfig::uniform(2),
            beta1: 1.0,
            beta2: 1.0,
            lr: 0.01,
            weight_decay: 0.0,
            epochs: 150,
            stop: StopStrategy::ValidationBest { eval_every: 10 },
            recon: ReconMode::Auto,
            seed: 0,
        }
    }
}

impl AneciConfig {
    /// A fluent builder starting from [`AneciConfig::default`]. The
    /// terminal [`build`](AneciConfigBuilder::build) validates, so invalid
    /// parameter combinations surface as [`AneciError::Config`] at
    /// construction time.
    pub fn builder() -> AneciConfigBuilder {
        AneciConfigBuilder::default()
    }

    /// The paper's node-classification setup: 150 epochs, keep the best
    /// validation embedding.
    pub fn for_classification(seed: u64) -> Self {
        Self::builder()
            .seed(seed)
            .build()
            .expect("classification preset is valid")
    }

    /// The paper's community-detection setup: `h = num_communities`,
    /// 600 epochs, fixed stop. Third-order proximity — communities are a
    /// mesoscopic structure and benefit from the longer horizon (Fig. 9a
    /// shows the same effect for robustness).
    pub fn for_community_detection(num_communities: usize, seed: u64) -> Self {
        Self::builder()
            .embed_dim(num_communities)
            .epochs(600)
            .proximity(ProximityConfig::uniform(3))
            .stop(StopStrategy::FixedEpochs)
            .seed(seed)
            .build()
            .expect("community-detection preset is valid")
    }

    /// The paper's anomaly-detection setup: early stop on the modularity
    /// loss with the given patience (20 for Cora/Citeseer, 40 for
    /// Polblogs/Pubmed).
    pub fn for_anomaly_detection(num_communities: usize, patience: usize, seed: u64) -> Self {
        Self::builder()
            .embed_dim(num_communities)
            .epochs(300)
            .stop(StopStrategy::EarlyStopModularity { patience })
            .seed(seed)
            .build()
            .expect("anomaly-detection preset is valid")
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), AneciError> {
        let bad = |msg: &str| Err(AneciError::Config(msg.into()));
        if self.hidden_dim == 0 || self.embed_dim == 0 {
            return bad("layer widths must be positive");
        }
        if self.epochs == 0 {
            return bad("epochs must be positive");
        }
        if self.proximity.weights.is_empty() {
            return bad("proximity needs at least one weight");
        }
        if self.lr <= 0.0 {
            return bad("learning rate must be positive");
        }
        if self.beta1 < 0.0 || self.beta2 < 0.0 {
            return bad("loss weights must be non-negative");
        }
        if let StopStrategy::ValidationBest { eval_every } = self.stop {
            if eval_every == 0 {
                return bad("eval_every must be positive");
            }
        }
        if let ReconMode::Sampled { neg_ratio } = self.recon {
            if neg_ratio == 0 {
                return bad("neg_ratio must be positive");
            }
        }
        Ok(())
    }
}

/// Fluent constructor for [`AneciConfig`]; see [`AneciConfig::builder`].
///
/// Every setter overrides one field of the [`AneciConfig::default`]
/// baseline; [`build`](AneciConfigBuilder::build) validates the result.
///
/// ```
/// use aneci_core::{AneciConfig, StopStrategy};
///
/// let cfg = AneciConfig::builder()
///     .embed_dim(8)
///     .epochs(200)
///     .stop(StopStrategy::FixedEpochs)
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.embed_dim, 8);
/// assert!(AneciConfig::builder().epochs(0).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct AneciConfigBuilder {
    config: AneciConfig,
}

impl AneciConfigBuilder {
    /// Hidden width of the first GCN layer.
    pub fn hidden_dim(mut self, v: usize) -> Self {
        self.config.hidden_dim = v;
        self
    }

    /// Embedding size `h` (for community tasks, the community count).
    pub fn embed_dim(mut self, v: usize) -> Self {
        self.config.embed_dim = v;
        self
    }

    /// High-order proximity construction (Definition 3).
    pub fn proximity(mut self, v: ProximityConfig) -> Self {
        self.config.proximity = v;
        self
    }

    /// Weight `β₁` on the (negated) modularity in Eq. 18.
    pub fn beta1(mut self, v: f64) -> Self {
        self.config.beta1 = v;
        self
    }

    /// Weight `β₂` on the reconstruction loss in Eq. 18.
    pub fn beta2(mut self, v: f64) -> Self {
        self.config.beta2 = v;
        self
    }

    /// Learning rate (Adam).
    pub fn lr(mut self, v: f64) -> Self {
        self.config.lr = v;
        self
    }

    /// Decoupled weight decay.
    pub fn weight_decay(mut self, v: f64) -> Self {
        self.config.weight_decay = v;
        self
    }

    /// Maximum training epochs.
    pub fn epochs(mut self, v: usize) -> Self {
        self.config.epochs = v;
        self
    }

    /// Stopping strategy.
    pub fn stop(mut self, v: StopStrategy) -> Self {
        self.config.stop = v;
        self
    }

    /// Reconstruction-loss evaluation mode.
    pub fn recon(mut self, v: ReconMode) -> Self {
        self.config.recon = v;
        self
    }

    /// RNG seed (weights + negative sampling).
    pub fn seed(mut self, v: u64) -> Self {
        self.config.seed = v;
        self
    }

    /// Validates and returns the finished configuration.
    pub fn build(self) -> Result<AneciConfig, AneciError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        AneciConfig::default().validate().unwrap();
    }

    #[test]
    fn presets_follow_paper_protocols() {
        let c = AneciConfig::for_classification(1);
        assert_eq!(c.epochs, 150);
        assert!(matches!(c.stop, StopStrategy::ValidationBest { .. }));

        let cd = AneciConfig::for_community_detection(7, 1);
        assert_eq!(cd.embed_dim, 7);
        assert_eq!(cd.epochs, 600);
        assert_eq!(cd.stop, StopStrategy::FixedEpochs);

        let ad = AneciConfig::for_anomaly_detection(7, 20, 1);
        assert_eq!(ad.stop, StopStrategy::EarlyStopModularity { patience: 20 });
    }

    #[test]
    fn builder_matches_struct_literal() {
        let built = AneciConfig::builder()
            .hidden_dim(32)
            .embed_dim(7)
            .lr(0.02)
            .epochs(250)
            .stop(StopStrategy::FixedEpochs)
            .recon(ReconMode::Sampled { neg_ratio: 3 })
            .seed(9)
            .build()
            .unwrap();
        let literal = AneciConfig {
            hidden_dim: 32,
            embed_dim: 7,
            lr: 0.02,
            epochs: 250,
            stop: StopStrategy::FixedEpochs,
            recon: ReconMode::Sampled { neg_ratio: 3 },
            seed: 9,
            ..Default::default()
        };
        assert_eq!(built, literal);
    }

    #[test]
    fn builder_rejects_invalid_configs_with_typed_error() {
        let err = AneciConfig::builder().epochs(0).build().unwrap_err();
        assert!(matches!(err, AneciError::Config(_)));
        assert!(err.to_string().contains("epochs"));
        assert!(AneciConfig::builder().lr(-0.5).build().is_err());
        assert!(AneciConfig::builder()
            .recon(ReconMode::Sampled { neg_ratio: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = AneciConfig {
            hidden_dim: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AneciConfig {
            lr: -1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AneciConfig {
            recon: ReconMode::Sampled { neg_ratio: 0 },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AneciConfig {
            stop: StopStrategy::ValidationBest { eval_every: 0 },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AneciConfig {
            proximity: ProximityConfig { weights: vec![] },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    /// The `CFG` section of a checkpoint written when the config still had
    /// five more settable values (two here, three in the proximity) decodes
    /// to the default: unknown keys are ignored.
    #[test]
    fn config_json_with_retired_keys_decodes() {
        let json = include_str!("../tests/data/config_with_retired_keys.json");
        let cfg: AneciConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg, AneciConfig::default());
    }
}
