//! # aneci-baselines
//!
//! The comparison methods of the AnECI paper, implemented from scratch:
//!
//! * [`deepwalk`] — truncated random walks + skip-gram negative sampling;
//! * [`line`] — LINE with first/second-order proximity objectives;
//! * [`gae`] — GAE and VGAE (GCN encoder + inner-product decoder);
//! * [`dgi`] — Deep Graph Infomax (corruption + bilinear discriminator);
//! * [`gcn`] — the semi-supervised GCN classifier (Table III, and the
//!   surrogate for the targeted attacks);
//! * [`spectral`] — Laplacian-eigenmaps-style spectral embedding;
//! * [`sdne`] — SDNE deep autoencoder over adjacency rows;
//! * [`robust_gcn`] — DropEdge training of the GCN classifier (the defense
//!   comparator);
//! * [`done`] — DONE-style twin outlier-aware autoencoders;
//! * [`louvain`] — Louvain modularity maximization (Fig. 7 baseline);
//! * [`dominant`] — Dominant GCN autoencoder for anomaly detection (Fig. 6);
//! * [`embedder`] — a uniform [`embedder::Embedder`] trait + default suite.

pub mod deepwalk;
pub mod defense;
pub mod dgi;
pub mod dominant;
pub mod done;
pub mod embedder;
pub mod gae;
pub mod gcn;
pub mod line;
pub mod louvain;
pub mod robust_gcn;
pub mod sdne;
pub mod spectral;

pub use deepwalk::{deepwalk, DeepWalkConfig};
pub use defense::RobustGcnDefense;
pub use dgi::{Dgi, DgiConfig};
pub use dominant::{Dominant, DominantConfig};
pub use done::{Done, DoneConfig};
pub use embedder::{default_suite, Embedder};
pub use gae::{Gae, GaeConfig};
pub use gcn::{GcnClassifier, GcnConfig};
pub use line::{line, LineConfig, LineOrder};
pub use louvain::louvain;
pub use robust_gcn::{RobustGcn, RobustGcnConfig};
pub use sdne::{Sdne, SdneConfig};
pub use spectral::{spectral_embedding, top_eigenvectors, SpectralConfig};
