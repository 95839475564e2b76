//! The AnECI model (Sec. IV of the paper).
//!
//! Architecture:
//!
//! 1. **Encoder** (Sec. IV-B): two spectral graph-convolution layers
//!    `H⁽ˡ⁺¹⁾ = φ(D^-1/2 Â D^-1/2 H⁽ˡ⁾ W⁽ˡ⁾)` with LeakyReLU(0.01) between
//!    them; the output is the embedding `Z ∈ R^{N×h}` and the soft community
//!    membership `P = softmax(Z)` (Eq. 3).
//! 2. **Community preservation** (Sec. IV-C): the generalized modularity
//!    `Q̃ = tr(Pᵀ B̃ P) / M̃` (Eq. 14) over the high-order proximity `Ã`
//!    with `B̃_ij = Ã_ij − k̃_i k̃_j / M̃`, where the paper's `2M̃` is the
//!    total mass `M̃ = Σ_ij Ã_ij` (see the convention note on
//!    `modularity`); computed in fused form `[Σ(P ⊙ ÃP) − ‖Pᵀk̃‖²/M̃] / M̃`
//!    so `B̃` is never materialized.
//! 3. **Decoder** (Sec. IV-D): `Â = sigmoid(P Pᵀ)` reconstructing `Ã` under
//!    the generalized cross-entropy `L_R` (Eq. 17) — exact on small graphs,
//!    negative-sampled on large ones.
//!
//! The joint objective is `min −β₁ Q̃ + β₂ L_R` (Eq. 18), optimized with
//! Adam. Note `L_R` here is *averaged* over the evaluated pairs (rather than
//! summed) so `β₂` keeps the same meaning in exact and sampled modes.
//!
//! This module writes the objective once — the operators of a node set
//! (`Operators::new`), the encoder, `joint_loss` and the weight initializer
//! — and trains it down one path: one driver runs the shared engine over a
//! [`BatchSampler`] plan. [`AneciModel::train`] hands it the `FullGraph`
//! plan with the model's whole-graph operators as the batch of nodes
//! `0..N`; [`AneciModel::train_plan`] hands it a sampling strategy's plan.

use crate::checkpoint::Checkpoint;
use crate::config::{
    AneciConfig, ReconMode, StopStrategy, EXACT_RECON_MAX_NODES, LEAKY_ALPHA,
    ROW_STORE_BUDGET_BYTES,
};
use crate::error::AneciError;
use crate::features::Features;
use aneci_autograd::train::{Objective, StepOutput, StopRule, TrainStep, Trainer};
use aneci_autograd::{Adam, BatchSampler, BatchStrategy, BcePair, ParamSet, Tape, Var};
use aneci_graph::{AttributedGraph, HighOrder, RowStore};
use aneci_linalg::rng::{derive_seed, seeded_rng, xavier_uniform};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use aneci_obs::{span, Gauge, Histogram};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A validation probe: maps `(epoch, Z)` to a score (higher is better).
/// Drives [`crate::config::StopStrategy::ValidationBest`] checkpointing.
pub type ValProbe<'a> = &'a mut dyn FnMut(usize, &DenseMatrix) -> f64;

/// Per-epoch training telemetry.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Total loss per epoch.
    pub losses: Vec<f64>,
    /// Generalized modularity `Q̃` per epoch.
    pub modularity: Vec<f64>,
    /// Rigidity index `tr(PᵀP)/N` per epoch (Fig. 9b).
    pub rigidity: Vec<f64>,
    /// `(epoch, validation score)` pairs when a validation probe ran.
    pub val_scores: Vec<(usize, f64)>,
    /// Epoch whose embedding was kept.
    pub best_epoch: usize,
    /// Number of epochs actually executed (early stopping may cut short).
    pub epochs_run: usize,
}

/// The reconstruction target of `L_R` (Eq. 17).
#[derive(Clone)]
enum ReconTarget {
    /// `Ã` itself, for the exact loss over every pair.
    Dense(Arc<DenseMatrix>),
    /// The stored entries of `Ã`, the positive pairs of the sampled loss,
    /// with the bit set the negative sampler tests its draws against when
    /// it fits ([`StoredBits::fits`]).
    Pairs {
        positives: Arc<[BcePair]>,
        stored: Option<Arc<StoredBits>>,
    },
}

/// The nonzero entries of an `n×n` `Ã` as an `n²`-bit set: the negative
/// sampler tests a draw with one probe instead of a binary search of its
/// row. A bit is set only for a value that is not `0.0`, so an absent bit
/// means exactly `Ã.get(i, j) == 0.0`, explicit zeros included.
struct StoredBits {
    n: usize,
    words: Vec<u64>,
}

impl StoredBits {
    /// True when the bits of an `n`-node set take no more memory than the
    /// `pairs` positive pairs they sit beside.
    fn fits(n: usize, pairs: usize) -> bool {
        n.saturating_mul(n).div_ceil(64) * 8 <= pairs * std::mem::size_of::<BcePair>()
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        let bit = i * self.n + j;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// The positive pairs of the sampled loss, every stored entry of `Ã` in row
/// order, and their [`StoredBits`] when those fit, in one walk of the rows.
/// The walk is an exact-length iterator, so the list is allocated once at
/// `nnz` and filled in place.
fn stored_pairs(a_tilde: &CsrMatrix) -> (Arc<[BcePair]>, Option<StoredBits>) {
    let n = a_tilde.rows();
    let (indptr, indices, values) = (a_tilde.indptr(), a_tilde.indices(), a_tilde.values());
    let mut bits = StoredBits::fits(n, a_tilde.nnz()).then(|| StoredBits {
        n,
        words: vec![0u64; (n * n).div_ceil(64)],
    });
    let mut row = 0;
    let positives = (0..a_tilde.nnz())
        .map(|k| {
            while indptr[row + 1] <= k {
                row += 1;
            }
            let (j, v) = (indices[k], values[k]);
            if let Some(bits) = bits.as_mut().filter(|_| v != 0.0) {
                let bit = row * n + j as usize;
                bits.words[bit / 64] |= 1 << (bit % 64);
            }
            (row as u32, j, v)
        })
        .collect();
    (positives, bits)
}

/// The fixed operators of the objective over one node set: the whole graph
/// for [`AneciModel`], one induced subgraph per mini-batch. A clone shares
/// the matrices and copies only the `N×1` column `k̃`.
#[derive(Clone)]
pub(crate) struct Operators {
    /// The GCN propagation operator `Â` (Eq. 2).
    norm_adj: Arc<CsrMatrix>,
    /// The high-order proximity `Ã`.
    a_tilde: Arc<CsrMatrix>,
    /// Row sums of `Ã` as a column vector.
    k_tilde: DenseMatrix,
    /// Total mass of `Ã`.
    m_tilde: f64,
    target: ReconTarget,
}

impl Operators {
    /// Builds the operators of the node set with raw (hollow) adjacency
    /// `adjacency` and high-order proximity `ho`: [`HighOrder::build`] for a
    /// whole graph, a [`RowStore`] cut for a batch. The target is
    /// dense under [`ReconMode::Exact`], and under [`ReconMode::Auto`] up to
    /// [`EXACT_RECON_MAX_NODES`] nodes; otherwise it is the positive pairs.
    pub(crate) fn new(adjacency: &CsrMatrix, ho: HighOrder, config: &AneciConfig) -> Self {
        let exact = match config.recon {
            ReconMode::Exact => true,
            ReconMode::Sampled { .. } => false,
            ReconMode::Auto => adjacency.rows() <= EXACT_RECON_MAX_NODES,
        };
        let target = if exact {
            ReconTarget::Dense(Arc::new(ho.a_tilde.to_dense()))
        } else {
            let (positives, stored) = stored_pairs(&ho.a_tilde);
            ReconTarget::Pairs {
                positives,
                stored: stored.map(Arc::new),
            }
        };
        Self {
            norm_adj: propagation(adjacency),
            a_tilde: Arc::new(ho.a_tilde),
            k_tilde: DenseMatrix::column(&ho.k_tilde),
            m_tilde: ho.m_tilde,
            target,
        }
    }
}

/// `D^-1/2 (A + I) D^-1/2` of a raw (hollow) adjacency: the operator the
/// encoder propagates over (Eq. 2).
pub(crate) fn propagation(adjacency: &CsrMatrix) -> Arc<CsrMatrix> {
    Arc::new(adjacency.add_identity().sym_normalize())
}

/// The training engine: the stop rule for `config.stop`, and Adam. `probe`
/// says whether a validation probe drives [`StopStrategy::ValidationBest`]:
/// its score is maximized, the loss fallback minimized.
fn engine(config: &AneciConfig, probe: bool) -> (Trainer, Adam) {
    let stop = match config.stop {
        StopStrategy::FixedEpochs => StopRule::FixedEpochs,
        // Strict comparison (margin 0): ties keep the earlier epoch.
        StopStrategy::ValidationBest { .. } => StopRule::BestMonitor {
            objective: if probe {
                Objective::Maximize
            } else {
                Objective::Minimize
            },
            patience: 0,
            min_delta: 0.0,
        },
        // Improvement means Q̃ rising by more than 1e-9. Patience 0 stops
        // on the first stalled epoch, which is the engine's patience 1 (its
        // 0 means "never stop").
        StopStrategy::EarlyStopModularity { patience } => StopRule::BestMonitor {
            objective: Objective::Maximize,
            patience: patience.max(1),
            min_delta: 1e-9,
        },
    };
    let trainer = Trainer::new(config.epochs)
        .stop(stop)
        .observe_as("core.train");
    let opt = Adam::new(config.lr).with_weight_decay(config.weight_decay);
    (trainer, opt)
}

/// The encoder (Eq. 2–3) on a tape: two graph convolutions over `norm_adj`
/// with a LeakyReLU between them. Returns the embedding `Z`.
fn encode(tape: &mut Tape, w: &[Var], features: &Features, norm_adj: &Arc<CsrMatrix>) -> Var {
    let xw = features.times(tape, w[0]);
    let h1 = tape.spmm(norm_adj, xw);
    let a1 = tape.leaky_relu(h1, LEAKY_ALPHA);
    let hw = tape.matmul(a1, w[1]);
    tape.spmm(norm_adj, hw)
}

/// The tape variables of one pass of the joint objective.
pub(crate) struct JointLoss {
    /// The embedding `Z`.
    pub(crate) z: Var,
    /// The soft membership `P = softmax(Z)` (Eq. 3).
    p: Var,
    /// The generalized modularity `Q̃`.
    q: Var,
    /// `−β₁Q̃ + β₂L_R` (Eq. 18).
    pub(crate) loss: Var,
}

/// One pass of the AnECI objective `−β₁Q̃ + β₂L_R` (Eq. 18) over the node
/// set of `ops`, each stage under its span (`encode`, `modularity`,
/// `decode`). A sampled target draws its negatives from `rng`.
fn joint_loss(
    tape: &mut Tape,
    w: &[Var],
    features: &Features,
    ops: &Operators,
    config: &AneciConfig,
    rng: &mut StdRng,
) -> JointLoss {
    let (z, p) = {
        let _s = span("encode");
        let z = encode(tape, w, features, &ops.norm_adj);
        (z, tape.softmax_rows(z))
    };
    let q = {
        let _s = span("modularity");
        modularity(tape, p, &ops.a_tilde, &ops.k_tilde, ops.m_tilde)
    };
    let recon = {
        let _s = span("decode");
        reconstruction(tape, p, ops, config.recon, rng)
    };
    let neg_q = tape.neg(q);
    let q_term = tape.scale(neg_q, config.beta1);
    let r_term = tape.scale(recon, config.beta2);
    let loss = tape.add(q_term, r_term);
    JointLoss { z, p, q, loss }
}

/// A scalar `0` with no gradient: `Q̃` of an empty `Ã` and `L_R` of an
/// empty pair set, as in a batch of isolated nodes.
fn zero(tape: &mut Tape) -> Var {
    let z = tape.constant(DenseMatrix::zeros(1, 1));
    tape.sum(z)
}

/// The fused generalized modularity `Q̃` (Eq. 14) as a tape scalar:
/// `[Σ(P ⊙ ÃP) − ‖Pᵀk̃‖²/M̃] / M̃`, with `k̃` the row sums of `Ã` as a
/// column and `M̃` their total.
///
/// Convention note: the paper writes `2M̃` to mirror classic modularity,
/// where `Σ_ij A_ij = 2M` for a symmetric adjacency. Our `M̃` is already
/// the *total mass* `Σ_ij Ã_ij`, so the total mass itself is the correct
/// normalizer — with it, the trivial one-community partition scores
/// exactly 0 (as classic modularity does) instead of ¼, and Property 1
/// still holds because for an unnormalized symmetric `Ã = A` the mass
/// equals `2M`.
fn modularity(
    tape: &mut Tape,
    p: Var,
    a_tilde: &Arc<CsrMatrix>,
    k_tilde: &DenseMatrix,
    mass: f64,
) -> Var {
    if mass == 0.0 {
        return zero(tape);
    }
    let sp = tape.spmm(a_tilde, p);
    let term1 = {
        let h = tape.hadamard(p, sp);
        tape.sum(h)
    };
    let k = tape.constant(k_tilde.clone());
    let y = tape.matmul_tn(p, k); // h×1 vector Pᵀk̃
    let term2 = tape.frob_sq(y);
    let t2 = tape.scale(term2, 1.0 / mass);
    let diff = tape.sub(term1, t2);
    tape.scale(diff, 1.0 / mass)
}

/// `Q̃` of a constant membership `p`: [`modularity`] on a fresh tape.
pub(crate) fn q_tilde(
    a_tilde: &Arc<CsrMatrix>,
    k_tilde: &DenseMatrix,
    mass: f64,
    p: &DenseMatrix,
) -> f64 {
    let mut tape = Tape::new();
    let p = tape.constant(p.clone());
    let q = modularity(&mut tape, p, a_tilde, k_tilde, mass);
    tape.scalar(q)
}

/// The reconstruction loss `L_R` (Eq. 17) as a tape scalar, averaged over
/// the evaluated pairs: on a sampled target, the shared positives followed
/// by this pass's negatives, which the tape op takes over.
fn reconstruction(
    tape: &mut Tape,
    p: Var,
    ops: &Operators,
    recon: ReconMode,
    rng: &mut StdRng,
) -> Var {
    let n = ops.norm_adj.rows();
    match &ops.target {
        ReconTarget::Dense(target) => {
            let loss = tape.dense_recon_bce(p, target, 1.0);
            tape.scale(loss, 1.0 / (n * n) as f64)
        }
        ReconTarget::Pairs { positives, stored } => {
            let stored = stored.as_deref();
            let negatives = sample_negatives(recon, positives.len(), &ops.a_tilde, stored, n, rng);
            let pairs = positives.len() + negatives.len();
            if pairs == 0 {
                return zero(tape);
            }
            let loss = tape.pair_bce(p, positives, negatives);
            tape.scale(loss, 1.0 / pairs as f64)
        }
    }
}

/// Everything one batch's loss needs: the batch's feature rows and its
/// operators, keyed by its sorted node list.
struct BatchArtifacts {
    nodes: Vec<usize>,
    /// Feature rows of the batch, in batch order.
    features: Features,
    /// The batch's operators; `Ã` is restricted to the batch (rows *and*
    /// columns).
    ops: Operators,
}

impl BatchArtifacts {
    /// Builds the operators of the subgraph induced by `nodes` from its rows
    /// of the raw adjacency: `Ã[S,S]` is cut from `rows`, the run's store of
    /// `Ã` rows over the same adjacency, which builds only the rows it does
    /// not keep yet (never `N×N`).
    fn build(
        rows: &mut RowStore<'_>,
        adjacency: &CsrMatrix,
        features: &Features,
        config: &AneciConfig,
        nodes: &[usize],
    ) -> Self {
        let _s = span("batch.prepare");
        let sub = adjacency.extract_submatrix(nodes);
        let ho = rows.cut(nodes);
        Self {
            nodes: nodes.to_vec(),
            features: features.select_rows(nodes),
            ops: Operators::new(&sub, ho, config),
        }
    }
}

/// A trained (or in-training) AnECI model bound to one graph.
pub struct AneciModel {
    config: AneciConfig,
    /// The raw (unnormalized, hollow) adjacency, retained for
    /// [`AneciModel::fine_tune`] to patch and [`AneciModel::drift_check`]
    /// to retrain on.
    adjacency: Arc<CsrMatrix>,
    /// `X`, as CSR when that is smaller ([`Features`]).
    features: Features,
    /// The whole graph's operators. [`AneciModel::try_new`] builds them at
    /// set-up; a model built from parts builds them only when a whole-graph
    /// call first needs them, which a mini-batch plan never does.
    ops: OnceLock<Operators>,
    pub(crate) params: ParamSet,
    pub(crate) best_embedding: Option<DenseMatrix>,
    /// Fine-tune passes applied so far (drives the periodic drift oracle).
    fine_tunes: usize,
}

impl AneciModel {
    /// Prepares the model: builds the propagation operator, the high-order
    /// proximity, the reconstruction target, and Xavier-initialized weights.
    /// Panics on an invalid configuration; [`AneciModel::try_new`] is the
    /// non-panicking variant.
    pub fn new(graph: &AttributedGraph, config: &AneciConfig) -> Self {
        Self::try_new(graph, config).expect("invalid AnECI configuration")
    }

    /// Like [`AneciModel::new`] but reports an invalid configuration as
    /// [`AneciError::Config`] instead of panicking.
    pub fn try_new(graph: &AttributedGraph, config: &AneciConfig) -> Result<Self, AneciError> {
        let features = Features::new(graph.features());
        let model = Self::from_features(graph.adjacency().clone(), features, config)?;
        model.operators();
        Ok(model)
    }

    /// A model of a raw symmetric (hollow) adjacency and node features with
    /// [`AneciModel::try_new`]'s weights but none of its whole-graph
    /// operators, so it holds `O(E + N·d)` until a whole-graph call needs
    /// more: the model for [`AneciModel::train_plan`]. Errors with
    /// [`AneciError::Config`] on an invalid configuration and
    /// [`AneciError::Shape`] on mismatched dimensions. The model keeps
    /// `features` itself, or only its CSR form when that is smaller.
    pub fn from_parts(
        adjacency: CsrMatrix,
        features: DenseMatrix,
        config: &AneciConfig,
    ) -> Result<Self, AneciError> {
        Self::from_features(adjacency, Features::from_owned(features), config)
    }

    /// [`AneciModel::from_parts`] over features already in their form.
    fn from_features(
        adjacency: CsrMatrix,
        features: Features,
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
        // Xavier-initialized encoder weights from the `(seed, 0xA0EC1)` stream.
        let mut rng = seeded_rng(derive_seed(config.seed, 0xA0EC1));
        let mut params = ParamSet::new();
        params.register(
            "w1",
            xavier_uniform(features.cols(), config.hidden_dim, &mut rng),
        );
        params.register(
            "w2",
            xavier_uniform(config.hidden_dim, config.embed_dim, &mut rng),
        );
        Ok(Self {
            config: config.clone(),
            params,
            adjacency: Arc::new(adjacency),
            features,
            ops: OnceLock::new(),
            best_embedding: None,
            fine_tunes: 0,
        })
    }

    /// The whole graph's operators, built on first use.
    fn operators(&self) -> &Operators {
        self.ops.get_or_init(|| {
            let ho = HighOrder::build(&self.adjacency, &self.config.proximity);
            Operators::new(&self.adjacency, ho, &self.config)
        })
    }

    /// Trains the model through the shared [`Trainer`] engine. `val_score`,
    /// when given, maps `(epoch, Z)` to a validation score (higher is
    /// better) and drives the [`StopStrategy::ValidationBest`]
    /// checkpointing; without it, the lowest-loss epoch is kept instead.
    ///
    /// Errors with [`AneciError::Diverged`] when the loss goes non-finite;
    /// the parameters are rolled back to the last finite state, so the
    /// model remains usable (e.g. for a warm restart at a lower LR). A
    /// graph with no nodes is an [`AneciError::Shape`].
    pub fn train(&mut self, val_score: Option<ValProbe<'_>>) -> Result<TrainReport, AneciError> {
        let ops = self.operators().clone();
        self.run(BatchStrategy::FullGraph, None, Some(ops), val_score)
    }

    /// Trains the model over a batch plan: per epoch, `strategy` plans a
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
    /// starts; divergence as [`AneciModel::train`] does.
    ///
    /// With [`BatchStrategy::FullGraph`] this reproduces
    /// [`AneciModel::train`] bit-exactly. After partial batches, which
    /// never see a full `Z`, the kept embedding is the post-training
    /// [`AneciModel::forward_embedding`].
    pub fn train_plan(
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
        let full_ops = self.ops.get().cloned();
        self.run(strategy, communities, full_ops, None)
    }

    /// The one training path of [`AneciModel::train`] and
    /// [`AneciModel::train_plan`], with their errors: trains the weights
    /// over `strategy`'s plan and keeps the embedding. `full_ops`, when
    /// given, are the whole graph's operators, taken as the already-built
    /// batch of nodes `0..N`. The run keeps the `Ã` rows its batches build,
    /// up to [`ROW_STORE_BUDGET_BYTES`], and drops them when it returns.
    fn run(
        &mut self,
        strategy: BatchStrategy,
        communities: Option<&[usize]>,
        full_ops: Option<Operators>,
        val_score: Option<ValProbe<'_>>,
    ) -> Result<TrainReport, AneciError> {
        let (config, adjacency, features) = (&self.config, &*self.adjacency, &self.features);
        let sampler = BatchSampler::try_new(adjacency, strategy, communities, config.seed)
            .map_err(|e| AneciError::Config(format!("mini-batch strategy: {e}")))?;
        let n = adjacency.rows();
        if n == 0 {
            return Err(AneciError::Shape(
                "cannot train on a graph with no nodes".into(),
            ));
        }
        let (trainer, mut opt) = engine(config, val_score.is_some());
        // The driver, with the run's row store and last batch, is dropped
        // before the fallback forward pass below.
        let (run, report, best_z) = {
            let mut driver = AneciStep {
                config,
                adjacency,
                features,
                sampler,
                plan: Vec::new(),
                rows: RowStore::new(adjacency, &config.proximity, ROW_STORE_BUDGET_BYTES),
                cache: full_ops.map(|ops| BatchArtifacts {
                    nodes: (0..n).collect(),
                    features: features.clone(),
                    ops,
                }),
                val_score,
                rng: seeded_rng(derive_seed(config.seed, 0x5A3)),
                report: TrainReport::default(),
                prev_q: None,
                q_sum: 0.0,
                rig_sum: 0.0,
                cur_z: None,
                best_z: None,
                obs_q: aneci_obs::histogram("core.train.q_tilde"),
                obs_dq: aneci_obs::histogram("core.train.delta_q"),
                obs_nodes: aneci_obs::histogram("train.batch.nodes"),
                obs_sample_ns: aneci_obs::histogram_time_ns("train.batch.sample_ns"),
                obs_step_ns: aneci_obs::histogram_time_ns("train.batch.step_ns"),
                obs_store_bytes: aneci_obs::gauge("train.row_store.bytes"),
            };
            let run = trainer.run(&mut self.params, &mut opt, &mut driver)?;
            (run, driver.report, driver.best_z)
        };
        let report = TrainReport {
            losses: run.losses,
            best_epoch: run.best_epoch,
            epochs_run: run.epochs_run,
            ..report
        };
        self.best_embedding = Some(match best_z {
            Some(z) => z,
            // Partial batches never see a full `Z`: keep the post-training
            // forward pass (the standard GraphSAGE-style serving answer).
            None => self.forward_embedding(),
        });
        Ok(report)
    }

    /// A fresh forward pass with the *current* parameters — before any
    /// training this is the untrained (Laplacian-smoothing) encoder output,
    /// which the ablation study (Table IV "+Encoder") uses directly. A
    /// model without its whole-graph operators builds `Â` for the pass and
    /// nothing else.
    pub fn forward_embedding(&self) -> DenseMatrix {
        match self.ops.get() {
            Some(ops) => self.embed_over(&ops.norm_adj),
            None => self.embed_over(&propagation(&self.adjacency)),
        }
    }

    /// The encoder under the current parameters on the model's features,
    /// propagating over `norm_adj` instead of the model's own `Â`: the
    /// smoothing defense's vote runs it on an edge-dropped copy.
    pub(crate) fn embed_over(&self, norm_adj: &Arc<CsrMatrix>) -> DenseMatrix {
        let mut tape = Tape::new();
        let w = self.params.leaf_all(&mut tape);
        let z = encode(&mut tape, &w, &self.features, norm_adj);
        tape.value(z).clone()
    }

    /// The kept embedding matrix `Z` (after [`AneciModel::train`]).
    pub fn embedding(&self) -> &DenseMatrix {
        self.best_embedding
            .as_ref()
            .expect("call train() before embedding()")
    }

    /// The soft community-membership matrix `P = softmax(Z)` (Eq. 3).
    pub fn membership(&self) -> DenseMatrix {
        self.embedding().softmax_rows()
    }

    /// Hard community assignment: `argmax_k p_i^k` (Sec. VI-D).
    pub fn communities(&self) -> Vec<usize> {
        self.membership().argmax_rows()
    }

    /// The generalized modularity `Q̃` of an arbitrary membership matrix
    /// under this model's `Ã`: the training loss's own `Q̃` on a constant
    /// `P`, which tests also pin to Eq. 13.
    pub fn q_tilde_of(&self, p: &DenseMatrix) -> f64 {
        assert_eq!(p.rows(), self.adjacency.rows(), "membership row mismatch");
        let ops = self.operators();
        q_tilde(&ops.a_tilde, &ops.k_tilde, ops.m_tilde, p)
    }

    /// Read access to the high-order proximity used by the model.
    pub fn a_tilde(&self) -> &CsrMatrix {
        &self.operators().a_tilde
    }

    /// The high-order degree vector `k̃`.
    pub fn k_tilde(&self) -> &DenseMatrix {
        &self.operators().k_tilde
    }

    /// The total high-order mass `M̃`.
    pub fn m_tilde(&self) -> f64 {
        self.operators().m_tilde
    }

    /// The model configuration.
    pub fn config(&self) -> &AneciConfig {
        &self.config
    }

    /// Snapshots the trained model into a durable [`Checkpoint`]: embedding,
    /// membership, encoder weights and configuration. Errors with
    /// [`AneciError::Untrained`] if the model has not been trained (there is
    /// no kept embedding to persist).
    pub fn checkpoint(&self) -> Result<Checkpoint, AneciError> {
        let embedding = self.best_embedding.clone().ok_or(AneciError::Untrained)?;
        let membership = embedding.softmax_rows();
        let weights = (0..self.params.len())
            .map(|s| (self.params.name(s).to_string(), self.params.get(s).clone()))
            .collect();
        Ok(Checkpoint {
            config: self.config.clone(),
            embedding,
            membership,
            weights,
        })
    }

    /// Saves a [`Checkpoint`] of the trained model to `path` (conventionally
    /// `*.aneci`). See [`crate::checkpoint`] for the format.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<(), AneciError> {
        let ckpt = self.checkpoint()?;
        ckpt.save(path)?;
        Ok(())
    }

    /// Loads a [`Checkpoint`] from `path`. Convenience twin of
    /// [`Checkpoint::load`] so save/load live on the same type.
    pub fn load_checkpoint(path: impl AsRef<std::path::Path>) -> Result<Checkpoint, AneciError> {
        Ok(Checkpoint::load(path)?)
    }

    /// Rebuilds a trained model from a checkpoint and the graph it was
    /// trained on: the encoder weights and kept embedding are restored
    /// bit-exactly, so `embedding()`, `membership()`, `communities()` and a
    /// warm-started `train()` all behave as they did before persistence,
    /// whatever plan trained it. Like [`AneciModel::from_parts`], it builds
    /// no whole-graph operator until a whole-graph call needs one.
    ///
    /// Errors with [`AneciError::Shape`] when the checkpoint does not match
    /// the graph (node count) or the weights do not match the configured
    /// architecture.
    pub fn from_checkpoint(graph: &AttributedGraph, ckpt: &Checkpoint) -> Result<Self, AneciError> {
        if ckpt.embedding.rows() != graph.num_nodes() {
            return Err(AneciError::Shape(format!(
                "checkpoint covers {} nodes but the graph has {}",
                ckpt.embedding.rows(),
                graph.num_nodes()
            )));
        }
        let features = Features::new(graph.features());
        let mut model = Self::from_features(graph.adjacency().clone(), features, &ckpt.config)?;
        if ckpt.weights.len() != model.params.len() {
            return Err(AneciError::Shape(format!(
                "checkpoint has {} weight tensors, architecture expects {}",
                ckpt.weights.len(),
                model.params.len()
            )));
        }
        for slot in 0..model.params.len() {
            let want_name = model.params.name(slot).to_string();
            let (name, value) = &ckpt.weights[slot];
            if *name != want_name {
                return Err(AneciError::Shape(format!(
                    "weight slot {slot} is '{name}' in the checkpoint but '{want_name}' here"
                )));
            }
            if value.shape() != model.params.get(slot).shape() {
                return Err(AneciError::Shape(format!(
                    "weight '{name}' is {}x{} in the checkpoint but {}x{} here",
                    value.rows(),
                    value.cols(),
                    model.params.get(slot).rows(),
                    model.params.get(slot).cols()
                )));
            }
            *model.params.get_mut(slot) = value.clone();
        }
        model.best_embedding = Some(ckpt.embedding.clone());
        Ok(model)
    }

    /// Warm-start fine-tuning after a [`GraphDelta`]: applies the delta to
    /// the model's retained adjacency and features (CSR patch-and-compact),
    /// incrementally refreshes the high-order proximity via
    /// [`HighOrder::refresh`] (bit-exact vs. a rebuild), rebuilds the
    /// reconstruction targets, and resumes training **from the current
    /// parameters** for `epochs` fixed epochs through the shared `Trainer`.
    ///
    /// DropEdge-style robustness (see the baselines) is why this is
    /// principled: the encoder tolerates exactly the local perturbations a
    /// delta introduces, so a few warm epochs re-converge where a cold
    /// start would need hundreds. Pair with [`AneciModel::drift_check`] (or
    /// use [`AneciModel::fine_tune_guarded`]) to bound accumulated drift
    /// against a full-retrain oracle.
    pub fn fine_tune(
        &mut self,
        delta: &aneci_graph::GraphDelta,
        epochs: usize,
    ) -> Result<TrainReport, AneciError> {
        if epochs == 0 {
            return Err(AneciError::Config(
                "fine_tune requires at least one epoch".into(),
            ));
        }
        let (new_adj, report) = aneci_graph::delta::apply_to_csr(&self.adjacency, delta)?;
        // A delta that touches no features keeps sharing the model's; one
        // that does is patched densely and its result sized again.
        let features = if delta.touches_features() {
            let x = self.features.to_dense();
            Features::from_owned(aneci_graph::delta::apply_to_features(&x, None, delta)?.0)
        } else {
            self.features.clone()
        };

        // Incremental proximity refresh — only rows whose l-hop
        // neighbourhood changed are recomputed. Once `train` returns the
        // model is the operators' only holder, so `Ã` moves into the
        // refresh uncopied. A model that never built them builds them on
        // the new graph, which a refresh matches bit for bit.
        let ho = match self.ops.take() {
            Some(ops) => {
                let mut ho = HighOrder {
                    a_tilde: Arc::unwrap_or_clone(ops.a_tilde),
                    k_tilde: ops.k_tilde.into_vec(),
                    m_tilde: ops.m_tilde,
                };
                ho.refresh(&new_adj, &self.config.proximity, &report);
                ho
            }
            None => HighOrder::build(&new_adj, &self.config.proximity),
        };

        self.ops = OnceLock::from(Operators::new(&new_adj, ho, &self.config));
        self.adjacency = Arc::new(new_adj);
        self.features = features;
        // Any kept embedding predates the delta (and may have the wrong row
        // count after node appends); training below re-establishes it.
        self.best_embedding = None;
        self.fine_tunes += 1;

        // Resume from the current parameters for a fixed warm-up budget,
        // leaving the persistent configuration untouched.
        let saved = (self.config.epochs, self.config.stop);
        self.config.epochs = epochs;
        self.config.stop = StopStrategy::FixedEpochs;
        let outcome = self.train(None);
        (self.config.epochs, self.config.stop) = saved;
        outcome
    }

    /// Compares this model's communities against a **full retrain oracle**
    /// — a fresh model trained from scratch on the current (post-delta)
    /// graph with this model's own configuration and seed. Returns the
    /// comparison on success; errors with [`AneciError::Drift`] when the
    /// fine-tuned modularity falls more than `guard.q_tolerance` below the
    /// oracle's or the NMI between the two community assignments drops
    /// under `guard.min_nmi`.
    ///
    /// This is the expensive periodic check of the fine-tune loop (a full
    /// training run); [`AneciModel::fine_tune_guarded`] schedules it every
    /// `guard.check_every` deltas.
    pub fn drift_check(&self, guard: &DriftGuard) -> Result<DriftStats, AneciError> {
        let membership = self.membership(); // Untrained error surfaces here
        let edges: Vec<(usize, usize)> = self
            .adjacency
            .iter()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
            .collect();
        let graph = AttributedGraph::from_edges(
            self.adjacency.rows(),
            &edges,
            self.features.to_dense().into_owned(),
            None,
        );
        let (oracle, _) = train_aneci(&graph, &self.config)?;
        let stats = DriftStats {
            q_tilde: self.q_tilde_of(&membership),
            oracle_q_tilde: self.q_tilde_of(&oracle.membership()),
            nmi: aneci_eval::nmi(&self.communities(), &oracle.communities()),
        };
        if stats.q_tilde < stats.oracle_q_tilde - guard.q_tolerance || stats.nmi < guard.min_nmi {
            return Err(AneciError::Drift {
                q_tilde: stats.q_tilde,
                oracle_q_tilde: stats.oracle_q_tilde,
                nmi: stats.nmi,
            });
        }
        Ok(stats)
    }

    /// [`AneciModel::fine_tune`] plus the periodic oracle comparison: every
    /// `guard.check_every`-th fine-tune runs [`AneciModel::drift_check`]
    /// and propagates its [`AneciError::Drift`]. Returns the training
    /// report and the drift comparison when one ran.
    pub fn fine_tune_guarded(
        &mut self,
        delta: &aneci_graph::GraphDelta,
        epochs: usize,
        guard: &DriftGuard,
    ) -> Result<(TrainReport, Option<DriftStats>), AneciError> {
        let report = self.fine_tune(delta, epochs)?;
        let stats = if guard.check_every > 0 && self.fine_tunes.is_multiple_of(guard.check_every) {
            Some(self.drift_check(guard)?)
        } else {
            None
        };
        Ok((report, stats))
    }

    /// Number of fine-tune passes applied since construction — the counter
    /// [`AneciModel::fine_tune_guarded`] schedules oracle checks by.
    pub fn fine_tunes(&self) -> usize {
        self.fine_tunes
    }
}

/// Tolerances for the periodic full-retrain drift oracle of
/// [`AneciModel::fine_tune_guarded`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftGuard {
    /// Run the oracle comparison every this many fine-tunes (`1` = every
    /// call, `0` = never).
    pub check_every: usize,
    /// Allowed Q̃ shortfall below the oracle before tripping.
    pub q_tolerance: f64,
    /// Minimum NMI between fine-tuned and oracle communities.
    pub min_nmi: f64,
}

impl Default for DriftGuard {
    fn default() -> Self {
        Self {
            check_every: 8,
            q_tolerance: 0.05,
            min_nmi: 0.5,
        }
    }
}

/// The drift comparison of [`AneciModel::drift_check`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftStats {
    /// Q̃ of the fine-tuned model's communities.
    pub q_tilde: f64,
    /// Q̃ of the full-retrain oracle's communities.
    pub oracle_q_tilde: f64,
    /// NMI between the two community assignments.
    pub nmi: f64,
}

/// The one AnECI training driver, behind [`AneciModel::train`] and
/// [`AneciModel::train_plan`]: per epoch, the sampler's plan; per batch,
/// the joint loss on the batch's operators. It carries the
/// negative-sampling stream, the per-epoch report rows (epoch means over
/// the batches, so a one-batch epoch reports its batch's values), the
/// `core.train.*` and `train.batch.*` telemetry, validation
/// probing and the kept embedding.
struct AneciStep<'a, 'v> {
    config: &'a AneciConfig,
    adjacency: &'a CsrMatrix,
    features: &'a Features,
    sampler: BatchSampler<'a>,
    /// The current epoch's batches.
    plan: Vec<Vec<usize>>,
    /// The `Ã` rows the run's batches have built, kept for later batches.
    rows: RowStore<'a>,
    /// The latest batch's artifacts: a one-entry cache keyed by its nodes.
    cache: Option<BatchArtifacts>,
    val_score: Option<ValProbe<'v>>,
    /// The `(seed, 0x5A3)` negative-sampling stream.
    rng: StdRng,
    report: TrainReport,
    prev_q: Option<f64>,
    /// Per-epoch sums, reset by `on_epoch`.
    q_sum: f64,
    rig_sum: f64,
    /// `Z` of the latest batch when it covered every node.
    cur_z: Option<DenseMatrix>,
    best_z: Option<DenseMatrix>,
    obs_q: Histogram,
    obs_dq: Histogram,
    obs_nodes: Histogram,
    obs_sample_ns: Histogram,
    obs_step_ns: Histogram,
    obs_store_bytes: Gauge,
}

impl AneciStep<'_, '_> {
    /// The [`StopStrategy::ValidationBest`] monitor of a full batch: the
    /// probe's score on probe epochs, or the loss without a probe; `None`
    /// between probes.
    fn validate(
        &mut self,
        epoch: usize,
        eval_every: usize,
        z: &DenseMatrix,
        loss: f64,
    ) -> Option<f64> {
        // Keep the first embedding until a probe improves on it.
        if self.best_z.is_none() {
            self.best_z = Some(z.clone());
        }
        if epoch % eval_every != eval_every - 1 && epoch + 1 != self.config.epochs {
            return None;
        }
        let Some(probe) = self.val_score.as_mut() else {
            return Some(loss);
        };
        let score = probe(epoch, z);
        self.report.val_scores.push((epoch, score));
        Some(score)
    }
}

impl TrainStep for AneciStep<'_, '_> {
    fn plan(&mut self, epoch: usize) -> usize {
        let started = Instant::now();
        self.plan = self.sampler.epoch_plan(epoch);
        self.obs_sample_ns
            .observe(started.elapsed().as_nanos() as f64);
        self.plan.len()
    }

    fn step(&mut self, tape: &mut Tape, w: &[Var], epoch: usize, batch: usize) -> StepOutput {
        let nodes = &self.plan[batch];
        self.obs_nodes.observe(nodes.len() as f64);
        let art = match &mut self.cache {
            Some(art) if art.nodes == *nodes => art,
            cache => {
                // Free the previous batch's operators before building the next.
                *cache = None;
                let art = BatchArtifacts::build(
                    &mut self.rows,
                    self.adjacency,
                    self.features,
                    self.config,
                    nodes,
                );
                self.obs_store_bytes.set(self.rows.bytes() as f64);
                cache.insert(art)
            }
        };
        let pass = joint_loss(tape, w, &art.features, &art.ops, self.config, &mut self.rng);
        let q = tape.scalar(pass.q);
        self.q_sum += q;
        self.rig_sum += rigidity(tape.value(pass.p));
        let z = (nodes.len() == self.adjacency.rows()).then(|| tape.value(pass.z).clone());
        let monitor = match self.config.stop {
            StopStrategy::FixedEpochs => None,
            // "observed modularity training loss": improvement means the
            // epoch-mean Q̃ rising.
            StopStrategy::EarlyStopModularity { .. } => Some(q),
            // Validation probes need a full embedding.
            StopStrategy::ValidationBest { eval_every } => z
                .as_ref()
                .and_then(|z| self.validate(epoch, eval_every, z, tape.scalar(pass.loss))),
        };
        self.cur_z = z;
        StepOutput {
            loss: pass.loss,
            monitor,
        }
    }

    fn batch_done(&mut self, started: Instant) {
        self.obs_step_ns
            .observe(started.elapsed().as_nanos() as f64);
    }

    fn on_best(&mut self, _epoch: usize, _params: &ParamSet) {
        // Only a batch covering every node yields a `Z` to keep; partial
        // plans fall back to the post-training forward pass.
        if let Some(z) = self.cur_z.take() {
            self.best_z = Some(z);
        }
    }

    fn on_epoch(&mut self) {
        let batches = self.plan.len() as f64;
        let q_mean = self.q_sum / batches;
        self.obs_q.observe(q_mean);
        self.obs_dq.observe(q_mean - self.prev_q.unwrap_or(q_mean));
        self.prev_q = Some(q_mean);
        self.report.modularity.push(q_mean);
        self.report.rigidity.push(self.rig_sum / batches);
        (self.q_sum, self.rig_sum) = (0.0, 0.0);
    }
}

/// The negative BCE pairs of one sampled-reconstruction pass: `neg_ratio`
/// uniform `(i, j)` draws over `0..n` for each of the `positives` (the
/// stored entries of `Ã`), keeping those where `Ã` stores no nonzero: one
/// probe of `stored` when its bit set was built, a binary search of the row
/// of `a_tilde` otherwise. The full-batch and mini-batch paths both sample
/// here, so they walk `rng` identically. The pass's pair list is the
/// positives followed by these.
fn sample_negatives(
    recon: ReconMode,
    positives: usize,
    a_tilde: &CsrMatrix,
    stored: Option<&StoredBits>,
    n: usize,
    rng: &mut StdRng,
) -> Vec<BcePair> {
    let neg_ratio = match recon {
        ReconMode::Sampled { neg_ratio } => neg_ratio,
        _ => 1,
    };
    let draws = positives * neg_ratio;
    let n = n as u32;
    let mut negatives = Vec::with_capacity(draws);
    for _ in 0..draws {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let (r, c) = (i as usize, j as usize);
        let absent = match stored {
            Some(bits) => !bits.contains(r, c),
            None => a_tilde.get(r, c) == 0.0,
        };
        if absent {
            negatives.push((i, j, 0.0));
        }
    }
    negatives
}

/// Rigidity index `tr(PᵀP)/N` (Sec. VI-E3): 1 ⟺ hard partition.
pub fn rigidity(p: &DenseMatrix) -> f64 {
    if p.rows() == 0 {
        return 0.0;
    }
    p.dot(p) / p.rows() as f64
}

/// One-call convenience: build, train and return `(model, report)`. Errors
/// with [`AneciError::Config`] when the configuration is invalid.
pub fn train_aneci(
    graph: &AttributedGraph,
    config: &AneciConfig,
) -> Result<(AneciModel, TrainReport), AneciError> {
    let mut model = AneciModel::try_new(graph, config)?;
    let report = model.train(None)?;
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AneciConfig, ReconMode, StopStrategy};
    use aneci_graph::{generate_sbm, karate_club, SbmConfig};

    fn quick_config(seed: u64) -> AneciConfig {
        AneciConfig {
            hidden_dim: 16,
            embed_dim: 4,
            epochs: 40,
            stop: StopStrategy::FixedEpochs,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn training_reduces_loss_on_karate() {
        let g = karate_club();
        let mut cfg = quick_config(1);
        cfg.embed_dim = 2;
        let (_, report) = train_aneci(&g, &cfg).unwrap();
        assert_eq!(report.epochs_run, 40);
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        assert!(report.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn modularity_rises_during_training() {
        let g = karate_club();
        let (_, report) = train_aneci(&g, &quick_config(2)).unwrap();
        let early: f64 = report.modularity[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = report.modularity[report.modularity.len() - 5..]
            .iter()
            .sum::<f64>()
            / 5.0;
        assert!(late > early, "Q̃ should rise: {early} -> {late}");
    }

    #[test]
    fn q_tilde_matches_bruteforce_eq13() {
        // Brute force Eq. 13: Q̃ = 1/(2M̃) Σ_k Σ_ij α_ik α_jk (Ã_ij − k̃_i k̃_j/(2M̃)).
        let g = karate_club();
        let model = AneciModel::new(&g, &quick_config(3));
        let n = g.num_nodes();
        let mut rng = seeded_rng(7);
        let p = aneci_linalg::rng::gaussian_matrix(n, 3, 1.0, &mut rng).softmax_rows();
        let fast = model.q_tilde_of(&p);

        let a = model.a_tilde().to_dense();
        let k = model.k_tilde();
        let mass = model.m_tilde();
        let mut slow = 0.0;
        for kk in 0..3 {
            for i in 0..n {
                for j in 0..n {
                    slow += p.get(i, kk)
                        * p.get(j, kk)
                        * (a.get(i, j) - k.get(i, 0) * k.get(j, 0) / mass);
                }
            }
        }
        slow /= mass;
        assert!((fast - slow).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    #[test]
    fn hard_partition_recovers_classic_high_order_modularity() {
        // Property 1 (paper Sec. IV-C4): with one-hot memberships the
        // generalized Q̃ equals the hard-partition modularity (Eq. 9) on Ã.
        let g = karate_club();
        let model = AneciModel::new(&g, &quick_config(4));
        let labels = g.labels.clone().unwrap();
        let n = g.num_nodes();
        let mut p = DenseMatrix::zeros(n, 2);
        for (i, &l) in labels.iter().enumerate() {
            p.set(i, l, 1.0);
        }
        let q_soft_form = model.q_tilde_of(&p);

        // Hard-partition Eq. 9 evaluated directly (total-mass convention).
        let a = model.a_tilde().to_dense();
        let k = model.k_tilde();
        let mass = model.m_tilde();
        let mut q_hard = 0.0;
        for i in 0..n {
            for j in 0..n {
                if labels[i] == labels[j] {
                    q_hard += a.get(i, j) - k.get(i, 0) * k.get(j, 0) / mass;
                }
            }
        }
        q_hard /= mass;
        assert!((q_soft_form - q_hard).abs() < 1e-9);
        // And the true factions have strongly positive high-order modularity.
        assert!(q_hard > 0.2, "Q̃(factions) = {q_hard}");
    }

    #[test]
    fn recovers_planted_communities_on_sbm() {
        let mut sbm = SbmConfig::small();
        sbm.num_nodes = 200;
        sbm.num_classes = 3;
        sbm.target_edges = 1200;
        sbm.homophily = 0.9;
        let g = generate_sbm(&sbm, 11);
        let mut cfg = quick_config(12);
        cfg.embed_dim = 3;
        cfg.epochs = 120;
        cfg.lr = 0.02;
        let (model, _) = train_aneci(&g, &cfg).unwrap();
        let pred = model.communities();
        let truth = g.labels.as_ref().unwrap();
        let nmi = aneci_eval::nmi(&pred, truth);
        assert!(nmi > 0.6, "NMI = {nmi}");
    }

    #[test]
    fn early_stopping_halts_on_stalled_modularity() {
        let g = karate_club();
        let mut cfg = quick_config(5);
        cfg.epochs = 500;
        cfg.stop = StopStrategy::EarlyStopModularity { patience: 10 };
        let (_, report) = train_aneci(&g, &cfg).unwrap();
        assert!(report.epochs_run < 500, "early stop never triggered");
        assert!(report.best_epoch < report.epochs_run);
    }

    #[test]
    fn validation_best_keeps_highest_scoring_embedding() {
        let g = karate_club();
        let mut cfg = quick_config(6);
        cfg.epochs = 30;
        cfg.stop = StopStrategy::ValidationBest { eval_every: 5 };
        let mut model = AneciModel::new(&g, &cfg);
        // A synthetic validation score that prefers epoch 14.
        let mut cb = |epoch: usize, _z: &DenseMatrix| -(epoch as f64 - 14.0).abs();
        let report = model.train(Some(&mut cb)).unwrap();
        assert_eq!(report.best_epoch, 14);
        assert!(!report.val_scores.is_empty());
    }

    #[test]
    fn sampled_and_exact_recon_agree_directionally() {
        let g = karate_club();
        let mut exact_cfg = quick_config(7);
        exact_cfg.recon = ReconMode::Exact;
        let mut sampled_cfg = quick_config(7);
        sampled_cfg.recon = ReconMode::Sampled { neg_ratio: 5 };
        let (m1, r1) = train_aneci(&g, &exact_cfg).unwrap();
        let (m2, r2) = train_aneci(&g, &sampled_cfg).unwrap();
        // Both reach positive modularity; both losses fall.
        assert!(*r1.modularity.last().unwrap() > 0.0);
        assert!(*r2.modularity.last().unwrap() > 0.0);
        assert!(r1.losses.last().unwrap() < &r1.losses[0]);
        assert!(r2.losses.last().unwrap() < &r2.losses[0]);
        // And the learned communities agree reasonably with each other.
        let same = m1
            .communities()
            .iter()
            .zip(m2.communities())
            .filter(|(a, b)| **a == *b)
            .count();
        let _ = same; // clusters may be permuted; just assert they trained
    }

    #[test]
    fn membership_rows_are_distributions() {
        let g = karate_club();
        let (model, _) = train_aneci(&g, &quick_config(8)).unwrap();
        let p = model.membership();
        for row in p.rows_iter() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn rigidity_bounds() {
        // One-hot rows → rigidity 1; uniform rows over k → 1/k.
        let onehot = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!((rigidity(&onehot) - 1.0).abs() < 1e-12);
        let uniform = DenseMatrix::filled(3, 4, 0.25);
        assert!((rigidity(&uniform) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = karate_club();
        let (m1, _) = train_aneci(&g, &quick_config(9)).unwrap();
        let (m2, _) = train_aneci(&g, &quick_config(9)).unwrap();
        assert_eq!(m1.embedding(), m2.embedding());
    }

    #[test]
    fn checkpoint_restores_model_bit_exactly() {
        let g = karate_club();
        let (model, _) = train_aneci(&g, &quick_config(21)).unwrap();
        let ckpt = model.checkpoint().unwrap();
        let bytes = ckpt.to_bytes().unwrap();
        let loaded = crate::checkpoint::Checkpoint::from_bytes(&bytes).unwrap();
        let restored = AneciModel::from_checkpoint(&g, &loaded).unwrap();
        assert_eq!(restored.embedding(), model.embedding());
        assert_eq!(restored.membership(), model.membership());
        assert_eq!(restored.communities(), model.communities());
        // The restored weights drive the same forward pass.
        assert_eq!(restored.forward_embedding(), model.forward_embedding());
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A model built from parts and trained on partial batches (the graph
    /// and plan of `tests/golden/minibatch_partial.txt`) checkpoints with
    /// its weights and restores bit for bit; its whole-graph operators,
    /// built on first use, are a `try_new` model's.
    #[test]
    fn partial_plan_model_checkpoints_and_restores_its_weights() {
        let scfg = aneci_graph::StreamingConfig {
            num_communities: 6,
            ..aneci_graph::StreamingConfig::scale(600).unwrap()
        };
        let streamed = aneci_graph::generate_streamed(&scfg, 31, 2048);
        let g = streamed.to_attributed();
        let cfg = AneciConfig {
            embed_dim: 6,
            epochs: 8,
            recon: ReconMode::Sampled { neg_ratio: 1 },
            ..quick_config(5)
        };
        let strategy = BatchStrategy::CommunityAware {
            communities_per_batch: 2,
            hops: 1,
            max_batch_nodes: 0,
        };
        let mut model =
            AneciModel::from_parts(g.adjacency().clone(), g.features().clone(), &cfg).unwrap();
        model.train_plan(strategy, Some(&streamed.labels)).unwrap();
        assert!(model.ops.get().is_none(), "partial batches build no Ã");

        let ckpt = model.checkpoint().unwrap();
        let names: Vec<&str> = ckpt.weights.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["w1", "w2"], "the checkpoint carries both weights");
        for (slot, (name, w)) in ckpt.weights.iter().enumerate() {
            assert_eq!(bits(w), bits(model.params.get(slot)), "checkpoint {name}");
        }
        let loaded = Checkpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
        let restored = AneciModel::from_checkpoint(&g, &loaded).unwrap();
        assert_eq!(bits(restored.embedding()), bits(model.embedding()));
        for slot in 0..model.params.len() {
            let name = model.params.name(slot);
            let (got, want) = (restored.params.get(slot), model.params.get(slot));
            assert_eq!(bits(got), bits(want), "restored {name}");
        }
        // A partial plan keeps the post-training forward pass, which the
        // restored weights reproduce.
        assert_eq!(bits(&restored.forward_embedding()), bits(model.embedding()));

        let p = model.membership();
        let fresh = AneciModel::try_new(&g, &cfg).unwrap();
        assert_eq!(
            model.q_tilde_of(&p).to_bits(),
            fresh.q_tilde_of(&p).to_bits()
        );
    }

    #[test]
    fn checkpoint_rejects_mismatched_graph() {
        let g = karate_club();
        let (model, _) = train_aneci(&g, &quick_config(22)).unwrap();
        let ckpt = model.checkpoint().unwrap();
        let mut sbm = SbmConfig::small();
        sbm.num_nodes = 50;
        let other = generate_sbm(&sbm, 1);
        assert!(AneciModel::from_checkpoint(&other, &ckpt).is_err());
    }

    #[test]
    fn checkpoint_before_training_errors() {
        let g = karate_club();
        let model = AneciModel::new(&g, &quick_config(23));
        assert!(model.checkpoint().is_err());
    }

    #[test]
    fn fine_tune_matches_fresh_model_state_and_resumes() {
        let g = karate_club();
        let cfg = quick_config(31);
        let mut model = AneciModel::new(&g, &cfg);
        model.train(None).unwrap();
        let delta = aneci_graph::GraphDelta::new()
            .add_edge(0, 33)
            .remove_edge(0, 1);
        let report = model.fine_tune(&delta, 5).unwrap();
        assert_eq!(report.epochs_run, 5);
        assert_eq!(model.fine_tunes(), 1);
        // Config restored after the warm-up override.
        assert_eq!(model.config().epochs, cfg.epochs);
        assert_eq!(model.config().stop, cfg.stop);
        // The refreshed proximity state is bit-identical to a from-scratch
        // model on the edited graph.
        let mut edited = g.clone();
        edited.apply_delta(&delta).unwrap();
        let fresh = AneciModel::new(&edited, &cfg);
        assert_eq!(model.a_tilde(), fresh.a_tilde());
        assert_eq!(model.k_tilde(), fresh.k_tilde());
        assert_eq!(model.m_tilde(), fresh.m_tilde());
        // And the model is trained (has a kept embedding of the right size).
        assert_eq!(model.embedding().rows(), g.num_nodes());
    }

    /// Parameter gradients of one joint-loss step at the model's current
    /// weights, with a fixed negative-sampling stream.
    fn one_step_grads(model: &AneciModel) -> Vec<DenseMatrix> {
        let mut tape = Tape::new();
        let w = model.params.leaf_all(&mut tape);
        let pass = joint_loss(
            &mut tape,
            &w,
            &model.features,
            model.operators(),
            &model.config,
            &mut seeded_rng(1),
        );
        tape.backward(pass.loss);
        model.params.grads(&tape, &w)
    }

    #[test]
    fn fine_tune_backward_uses_the_new_operators() {
        let g = karate_club();
        let mut cfg = quick_config(34);
        cfg.epochs = 3;
        for recon in [ReconMode::Exact, ReconMode::Sampled { neg_ratio: 1 }] {
            cfg.recon = recon;
            // Train on the pre-delta Â and Ã first, then check that one
            // step after the delta is exactly a fresh model's step.
            let mut model = AneciModel::new(&g, &cfg);
            model.train(None).unwrap();
            let delta = aneci_graph::GraphDelta::new()
                .add_edge(0, 33)
                .remove_edge(0, 1);
            model.fine_tune(&delta, 1).unwrap();

            let mut edited = g.clone();
            edited.apply_delta(&delta).unwrap();
            let mut fresh = AneciModel::new(&edited, &cfg);
            fresh.params = model.params.clone();
            assert_eq!(one_step_grads(&model), one_step_grads(&fresh), "{recon:?}");
        }
    }

    #[test]
    fn empty_graph_is_a_shape_error_until_a_delta_adds_nodes() {
        let empty = AttributedGraph::from_edges(0, &[], DenseMatrix::zeros(0, 3), None);
        let mut model = AneciModel::new(&empty, &quick_config(35));
        let err = model.train(None).unwrap_err();
        assert!(matches!(err, AneciError::Shape(_)), "{err}");
        assert!(model.checkpoint().is_err(), "nothing was trained");
        // The check runs at training time: a delta that adds nodes makes
        // the same model trainable.
        let delta = aneci_graph::GraphDelta::new()
            .add_node(vec![1.0, 0.0, 0.0])
            .add_node(vec![0.0, 1.0, 0.0])
            .add_edge(0, 1);
        let report = model.fine_tune(&delta, 2).unwrap();
        assert_eq!(report.epochs_run, 2);
        assert_eq!(model.embedding().rows(), 2);
    }

    #[test]
    fn empty_proximity_weights_are_a_config_error() {
        let g = karate_club();
        let mut cfg = quick_config(36);
        cfg.proximity.weights.clear();
        let err = AneciModel::try_new(&g, &cfg).err().expect("empty weights");
        assert!(matches!(err, AneciError::Config(_)), "{err}");
        let err = AneciModel::from_parts(g.adjacency().clone(), g.features().clone(), &cfg)
            .err()
            .expect("empty weights");
        assert!(matches!(err, AneciError::Config(_)), "{err}");
    }

    /// A delta the patch rejects, on the graph or on the features, leaves
    /// the model as it was; an edge-only delta keeps sharing the features.
    #[test]
    fn fine_tune_shares_unchanged_features_and_rejects_deltas_whole() {
        let g = karate_club();
        let mut model = AneciModel::new(&g, &quick_config(37));
        model.train(None).unwrap();
        let (a_tilde, embedding) = (model.a_tilde().clone(), model.embedding().clone());
        let features = model.features.clone();
        let delta = aneci_graph::GraphDelta::new;
        for rejected in [
            delta().add_edge(0, 99),
            delta().add_edge(0, 33).set_attribute(0, vec![1.0]),
        ] {
            let err = model.fine_tune(&rejected, 1).unwrap_err();
            assert!(matches!(err, AneciError::Shape(_)), "{err}");
            assert!(model.ops.get().is_some(), "the operators stay in the model");
            assert_eq!(model.a_tilde(), &a_tilde);
            assert!(model.features.shares(&features));
            assert_eq!(model.embedding(), &embedding);
            assert_eq!(model.fine_tunes(), 0);
        }
        model.fine_tune(&delta().add_edge(0, 33), 1).unwrap();
        assert!(model.features.shares(&features), "edges only");
        model
            .fine_tune(&delta().set_attribute(0, vec![0.5; g.num_features()]), 1)
            .unwrap();
        assert!(!model.features.shares(&features));
        assert!(model.features.to_dense().row(0).iter().all(|&v| v == 0.5));
    }

    /// Every way of building a model keeps `X` in the smaller form:
    /// karate's identity features as CSR only, with no dense copy, the
    /// streamed graph's Gaussian features dense and uncopied.
    #[test]
    fn every_constructor_keeps_features_in_the_smaller_form() {
        let sparse = |m: &AneciModel| matches!(m.features, Features::Sparse(_));
        let g = karate_club();
        let cfg = quick_config(38);
        let (model, _) = train_aneci(&g, &cfg).unwrap();
        assert!(sparse(&model), "try_new");
        let parts =
            AneciModel::from_parts(g.adjacency().clone(), g.features().clone(), &cfg).unwrap();
        assert!(sparse(&parts), "from_parts");
        let restored = AneciModel::from_checkpoint(&g, &model.checkpoint().unwrap()).unwrap();
        assert!(sparse(&restored), "from_checkpoint");
        let mut tuned = model;
        let touch = aneci_graph::GraphDelta::new().set_attribute(1, vec![0.5; g.num_features()]);
        tuned.fine_tune(&touch, 1).unwrap();
        assert!(sparse(&tuned), "a feature delta, sized again");

        let scfg = aneci_graph::StreamingConfig::scale(600).unwrap();
        let streamed = aneci_graph::generate_streamed(&scfg, 31, 2048);
        let g = streamed.to_attributed();
        let ptr = streamed.features.as_slice().as_ptr();
        let parts = AneciModel::from_parts(streamed.adjacency, streamed.features, &cfg).unwrap();
        let Features::Dense(x) = &parts.features else {
            panic!("from_parts: Gaussian features stay dense");
        };
        assert_eq!(x.as_slice().as_ptr(), ptr, "from_parts keeps its matrix");
        let built = AneciModel::try_new(&g, &cfg).unwrap();
        assert!(!sparse(&built), "try_new: Gaussian features stay dense");
    }

    #[test]
    fn fine_tune_zero_epochs_is_a_config_error() {
        let g = karate_club();
        let mut model = AneciModel::new(&g, &quick_config(32));
        model.train(None).unwrap();
        assert!(matches!(
            model.fine_tune(&aneci_graph::GraphDelta::new(), 0),
            Err(AneciError::Config(_))
        ));
    }

    #[test]
    fn drift_check_passes_when_fine_tune_converges() {
        let g = karate_club();
        let mut cfg = quick_config(33);
        cfg.embed_dim = 2;
        let mut model = AneciModel::new(&g, &cfg);
        model.train(None).unwrap();
        // A gentle delta plus a full warm-up budget: communities should
        // stay close to the oracle's.
        let delta = aneci_graph::GraphDelta::new().add_edge(4, 12);
        let guard = DriftGuard {
            check_every: 1,
            q_tolerance: 0.15,
            min_nmi: 0.1,
        };
        let (report, stats) = model.fine_tune_guarded(&delta, 40, &guard).unwrap();
        assert_eq!(report.epochs_run, 40);
        let stats = stats.expect("check_every=1 must run the oracle");
        assert!(stats.nmi >= 0.1, "NMI vs oracle: {}", stats.nmi);
    }

    /// With one community, the model and the oracle both put every node in
    /// it: two identical trivial partitions, which agree perfectly.
    #[test]
    fn drift_check_scores_two_trivial_partitions_as_agreeing() {
        let g = karate_club();
        let mut cfg = quick_config(33);
        cfg.embed_dim = 1;
        let mut model = AneciModel::new(&g, &cfg);
        model.train(None).unwrap();
        let delta = aneci_graph::GraphDelta::new().add_edge(4, 12);
        let guard = DriftGuard {
            check_every: 1,
            ..DriftGuard::default()
        };
        let (_, stats) = model.fine_tune_guarded(&delta, 1, &guard).unwrap();
        let stats = stats.expect("check_every=1 must run the oracle");
        assert_eq!(stats.nmi, 1.0);
    }

    /// One pass's negatives drawn from `ops` twice from the same seed: with
    /// a bit set of its `Ã` and with the binary search.
    fn negatives_both_ways(ops: &Operators, seed: u64) -> (Vec<BcePair>, Vec<BcePair>) {
        let ReconTarget::Pairs { positives, .. } = &ops.target else {
            panic!("the operators carry a dense target");
        };
        let (_, bits) = stored_pairs(&ops.a_tilde);
        let bits = bits.expect("the bit set fits beside the pairs");
        let recon = ReconMode::Sampled { neg_ratio: 2 };
        let n = ops.a_tilde.rows();
        let draw = |stored| {
            let mut rng = seeded_rng(seed);
            sample_negatives(recon, positives.len(), &ops.a_tilde, stored, n, &mut rng)
        };
        (draw(Some(&bits)), draw(None))
    }

    #[test]
    fn bit_set_sampler_matches_binary_search() {
        let sampled = |seed| AneciConfig {
            recon: ReconMode::Sampled { neg_ratio: 2 },
            ..quick_config(seed)
        };
        let karate = AneciModel::try_new(&karate_club(), &sampled(1)).unwrap();
        let sbm = SbmConfig {
            num_nodes: 300,
            target_edges: 1200,
            ..SbmConfig::small()
        };
        let cfg = AneciConfig {
            proximity: aneci_graph::ProximityConfig::uniform(3),
            ..sampled(2)
        };
        let model = AneciModel::try_new(&generate_sbm(&sbm, 17), &cfg).unwrap();
        let nodes: Vec<usize> = (0..300).filter(|v| v % 3 != 1).collect();
        let mut rows = RowStore::new(&model.adjacency, &cfg.proximity, 0);
        let batch =
            BatchArtifacts::build(&mut rows, &model.adjacency, &model.features, &cfg, &nodes);
        for (name, ops) in [
            ("karate", karate.operators()),
            ("sbm", model.operators()),
            ("batch", &batch.ops),
        ] {
            let ReconTarget::Pairs { stored, .. } = &ops.target else {
                panic!("{name}: sampled recon builds pairs");
            };
            assert!(
                stored.is_some(),
                "{name}: the bit set fits beside the pairs"
            );
            for seed in [3, 4] {
                let (bits, search) = negatives_both_ways(ops, seed);
                assert!(!bits.is_empty(), "{name}: no negative kept");
                assert_eq!(bits, search, "{name}, seed {seed}: the samplers disagree");
            }
        }
    }

    #[test]
    fn bit_set_is_built_only_when_no_larger_than_the_pairs() {
        // 64 nodes: 4096 bits, 512 bytes, the size of 32 pairs.
        assert!(StoredBits::fits(64, 32));
        assert!(!StoredBits::fits(64, 31));
        // 65 nodes: 4225 bits round up to 67 words, 536 bytes (33.5 pairs).
        assert!(StoredBits::fits(65, 34));
        assert!(!StoredBits::fits(65, 33));
        // Through `Operators::new`: a 64-node `Ã` storing 32 entries, then 31.
        let cfg = AneciConfig {
            recon: ReconMode::Sampled { neg_ratio: 1 },
            ..quick_config(1)
        };
        let hollow = CsrMatrix::from_triplets(64, 64, &[]);
        for (entries, built) in [(32, true), (31, false)] {
            let trips: Vec<_> = (0..entries).map(|i| (i, (i * 7) % 64, 1.0)).collect();
            let ho = HighOrder {
                a_tilde: CsrMatrix::from_triplets(64, 64, &trips),
                k_tilde: vec![0.0; 64],
                m_tilde: entries as f64,
            };
            let ops = Operators::new(&hollow, ho, &cfg);
            let ReconTarget::Pairs { positives, stored } = &ops.target else {
                panic!("sampled recon builds pairs");
            };
            assert_eq!(positives.len(), entries);
            assert_eq!(stored.is_some(), built, "{entries} stored entries");
        }
    }

    #[test]
    fn explicit_zero_in_a_tilde_is_absent_to_both_samplers() {
        // 3×3 with an explicit 0.0 stored at (0, 1).
        let a = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 1, 1, 2],
            vec![0.5, 0.0, 1.0, 1.0],
        );
        let (positives, bits) = stored_pairs(&a);
        let bits = bits.expect("9 bits fit beside 4 pairs");
        assert!(!bits.contains(0, 1));
        assert!(bits.contains(0, 0) && bits.contains(1, 1) && bits.contains(2, 2));
        assert_eq!(a.get(0, 1), 0.0);
        let want: Vec<BcePair> = a.iter().map(|(i, j, v)| (i as u32, j as u32, v)).collect();
        assert_eq!(
            *positives, *want,
            "every stored entry, explicit zero included"
        );
        let recon = ReconMode::Sampled { neg_ratio: 8 };
        let draw =
            |stored| sample_negatives(recon, positives.len(), &a, stored, 3, &mut seeded_rng(5));
        let (with_bits, with_search) = (draw(Some(&bits)), draw(None));
        assert_eq!(with_bits, with_search);
        assert!(
            with_bits.contains(&(0, 1, 0.0)),
            "the explicit zero is drawn as a negative"
        );
    }

    /// Asserts that two operator sets are equal bit for bit.
    fn assert_same_bits(got: &Operators, want: &Operators, case: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let csr = |m: &CsrMatrix| (m.indptr().to_vec(), m.indices().to_vec(), bits(m.values()));
        assert_eq!(csr(&got.norm_adj), csr(&want.norm_adj), "{case}: Â");
        assert_eq!(csr(&got.a_tilde), csr(&want.a_tilde), "{case}: Ã");
        let k = |o: &Operators| bits(o.k_tilde.as_slice());
        assert_eq!(k(got), k(want), "{case}: k̃");
        assert_eq!(got.m_tilde.to_bits(), want.m_tilde.to_bits(), "{case}: M̃");
        let (
            ReconTarget::Pairs { positives, stored },
            ReconTarget::Pairs {
                positives: want_positives,
                stored: want_stored,
            },
        ) = (&got.target, &want.target)
        else {
            panic!("{case}: sampled recon builds pairs");
        };
        let pairs = |p: &[BcePair]| {
            p.iter()
                .map(|&(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(positives), pairs(want_positives), "{case}: positives");
        let words = |s: &Option<Arc<StoredBits>>| s.as_ref().map(|b| b.words.clone());
        assert_eq!(words(stored), words(want_stored), "{case}: bit set");
    }

    /// Batch operators cut from a row store equal a fresh cut of a
    /// zero-budget [`RowStore`] plus [`Operators::new`] bit for bit, for a
    /// store that keeps nothing, one that keeps part of `Ã` and one that
    /// keeps all of it, over two epochs of overlapping batches and then a
    /// batch of every node.
    #[test]
    fn store_cut_batches_match_fresh_builds_bit_for_bit() {
        // Six planted communities, two a batch plus a one-hop halo: the
        // halos overlap, so later batches find some of their rows kept.
        let scfg = aneci_graph::StreamingConfig {
            num_communities: 6,
            ..aneci_graph::StreamingConfig::scale(600).unwrap()
        };
        let g = aneci_graph::generate_streamed(&scfg, 31, 2048);
        let cfg = AneciConfig {
            recon: ReconMode::Sampled { neg_ratio: 1 },
            ..quick_config(5)
        };
        let strategy = BatchStrategy::CommunityAware {
            communities_per_batch: 2,
            hops: 1,
            max_batch_nodes: 0,
        };
        let sampler = BatchSampler::new(&g.adjacency, strategy, Some(&g.labels), cfg.seed);
        let plan: Vec<Vec<usize>> = (0..2).flat_map(|e| sampler.epoch_plan(e)).collect();
        assert!(
            plan.len() >= 4 && plan.iter().all(|b| b.len() < 600),
            "partial batches"
        );
        let whole = HighOrder::build(&g.adjacency, &cfg.proximity).a_tilde;
        let whole_bytes = whole.nnz() * 12 + whole.rows() * 8;
        let all: Vec<usize> = (0..600).collect();
        let model = AneciModel::try_new(&g.to_attributed(), &cfg).unwrap();
        let features = Features::new(&g.features);
        for budget in [0, whole_bytes / 3, whole_bytes] {
            let mut rows = RowStore::new(&g.adjacency, &cfg.proximity, budget);
            for (b, nodes) in plan.iter().enumerate() {
                let case = format!("budget {budget}, batch {b}");
                let cut = BatchArtifacts::build(&mut rows, &g.adjacency, &features, &cfg, nodes);
                let fresh = Operators::new(
                    &g.adjacency.extract_submatrix(nodes),
                    RowStore::new(&g.adjacency, &cfg.proximity, 0).cut(nodes),
                    &cfg,
                );
                assert_same_bits(&cut.ops, &fresh, &case);
                assert_eq!(
                    *cut.features.to_dense(),
                    g.features.select_rows(nodes),
                    "{case}"
                );
            }
            let kept = rows.bytes();
            match budget {
                0 => assert_eq!(kept, 0, "a zero budget keeps nothing"),
                b if b == whole_bytes => assert_eq!(kept, whole_bytes, "every row is kept"),
                b => assert!(0 < kept && kept <= b, "part kept: {kept} of {b}"),
            }
            let full = BatchArtifacts::build(&mut rows, &g.adjacency, &features, &cfg, &all);
            assert_same_bits(
                &full.ops,
                model.operators(),
                &format!("budget {budget}, every node"),
            );
            assert_eq!(rows.bytes(), kept, "a cut of every node keeps no row");
        }
    }

    use aneci_linalg::rng::seeded_rng;
}
