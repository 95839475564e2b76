//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of matrix operations as they are executed
//! (define-by-run). Each node stores its forward value; [`Tape::backward`]
//! runs a single reverse sweep accumulating gradients. Nodes are addressed by
//! the lightweight [`Var`] index — no `Rc`/`RefCell` appears in the public
//! API.
//!
//! Besides the generic primitives (products, activations, reductions), the
//! tape offers three *fused* operations that the paper's objectives need to
//! stay `O(nnz)` instead of `O(N²)`:
//!
//! * [`Tape::spmm`] — sparse-constant × dense-variable product for GCN
//!   propagation and the `ÃP` term of the modularity;
//! * [`Tape::dense_recon_bce`] — the generalized cross-entropy of
//!   `sigmoid(P Pᵀ)` against a dense target (Eq. 17), with the `N×N` score
//!   matrix never leaving the op;
//! * [`Tape::pair_bce`] — the negative-sampled estimator of the same loss for
//!   large graphs.
//!
//! Constants a model reuses every epoch are recorded by reference, not
//! copied: [`Tape::constant`] keeps the `Arc` it is given, so a caller
//! that passes `Arc::clone(&x)` shares `x` with the tape, and
//! [`Tape::spmm`] differentiates through its sparse operand without ever
//! transposing it.

use aneci_linalg::{pool, sigmoid, CsrMatrix, DenseMatrix};
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw index of this node on its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One training-example pair for [`Tape::pair_bce`]: `(i, j, target)`.
pub type BcePair = (u32, u32, f64);

enum Op {
    Leaf,
    MatMul(Var, Var),
    MatMulTn(Var, Var),
    SpMm(Arc<CsrMatrix>, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    Scale(Var, f64),
    Neg(Var),
    LeakyRelu(Var, f64),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Exp(Var),
    SoftmaxRows(Var),
    Transpose(Var),
    Sum(Var),
    MeanAll(Var),
    FrobSq(Var),
    Dot(Var, Var),
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Arc<[usize]>,
        rows: Arc<[usize]>,
    },
    DenseReconBce {
        p: Var,
        target: Arc<DenseMatrix>,
        pos_weight: f64,
    },
    PairBce {
        p: Var,
        /// The pair list `head ++ tail`, never concatenated.
        head: Arc<[BcePair]>,
        tail: Vec<BcePair>,
        /// `σ(s)` of every pair from the forward pass, unclamped.
        sig: Vec<f64>,
    },
}

struct Node {
    value: Arc<DenseMatrix>,
    op: Op,
    requires_grad: bool,
}

/// Clamp used inside every log-sigmoid to avoid `ln(0)`.
const SIG_EPS: f64 = 1e-12;

/// Sums `f` over the same `grain`-sized chunks `pool::parallel_map_chunks`
/// would use, in the same order, without touching the pool. Loss reductions
/// use this as their below-threshold path so the float association — and
/// therefore the result — never depends on the thread count.
fn serial_chunked_sum(items: usize, grain: usize, f: impl Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0;
    let mut lo = 0;
    while lo < items {
        let hi = (lo + grain.max(1)).min(items);
        total += f(lo, hi);
        lo = hi;
    }
    total
}

/// [`serial_chunked_sum`] over the chunks of `out`, each handed to `f` with
/// its start index: the serial twin of `pool::parallel_map_chunks_mut`.
fn serial_chunked_sum_mut(
    out: &mut [f64],
    grain: usize,
    f: impl Fn(usize, &mut [f64]) -> f64,
) -> f64 {
    let grain = grain.max(1);
    let mut total = 0.0;
    for (chunk, slice) in out.chunks_mut(grain).enumerate() {
        total += f(chunk * grain, slice);
    }
    total
}

/// Pairs per block of the [`Tape::pair_bce`] forward: a block computes all
/// its dots, then all its σ, then its loss terms, so the `exp` and `ln` of
/// neighbouring pairs overlap instead of waiting on each other.
const PAIR_BLOCK: usize = 256;

/// The pairs at positions `lo..hi` of the list `head ++ tail`: the slice of
/// each part that covers them.
fn pair_range<'a>(
    head: &'a [BcePair],
    tail: &'a [BcePair],
    lo: usize,
    hi: usize,
) -> [&'a [BcePair]; 2] {
    let cut = head.len();
    [
        &head[lo.min(cut)..hi.min(cut)],
        &tail[lo.max(cut) - cut..hi.max(cut) - cut],
    ]
}

/// `out[k] = p_i · p_j` for the `k`-th pair `(i, j, _)`, four pairs at a
/// time. Each dot is the left-to-right fold from `-0.0` that `.sum()` runs;
/// interleaving four of them only lets their adds overlap.
fn pair_dots(pv: &DenseMatrix, pairs: &[BcePair], out: &mut [f64]) {
    let d = pv.cols();
    let row = |r: u32| &pv.row(r as usize)[..d];
    let mut quads = pairs.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).zip(&mut outs) {
        let (a0, b0) = (row(q[0].0), row(q[0].1));
        let (a1, b1) = (row(q[1].0), row(q[1].1));
        let (a2, b2) = (row(q[2].0), row(q[2].1));
        let (a3, b3) = (row(q[3].0), row(q[3].1));
        let mut s = [-0.0f64; 4];
        for k in 0..d {
            s[0] += a0[k] * b0[k];
            s[1] += a1[k] * b1[k];
            s[2] += a2[k] * b2[k];
            s[3] += a3[k] * b3[k];
        }
        o.copy_from_slice(&s);
    }
    for (&(i, j, _), o) in quads.remainder().iter().zip(outs.into_remainder()) {
        *o = row(i).iter().zip(row(j)).map(|(&a, &b)| a * b).sum();
    }
}

/// One pair's term of `L_R` from `σ(s)`. A target of exactly 0 or 1 zeroes
/// one of the two log terms; skipping its `ln` is exact, because `0·ln(c)`
/// is `−0.0` for the clamped `c`, which adds as nothing.
#[inline]
fn pair_bce_term(sig: f64, t: f64) -> f64 {
    let c = sig.clamp(SIG_EPS, 1.0 - SIG_EPS);
    if t == 0.0 {
        (1.0 - c).ln()
    } else if t == 1.0 {
        c.ln()
    } else {
        t * c.ln() + (1.0 - t) * (1.0 - c).ln()
    }
}

/// The recording tape. Create one per forward pass (graphs are dynamic).
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<DenseMatrix>>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: impl Into<Arc<DenseMatrix>>, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value: value.into(),
            op,
            requires_grad,
        });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &DenseMatrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node after [`Tape::backward`]; zeros if
    /// the node was never reached.
    pub fn grad(&self, v: Var) -> DenseMatrix {
        match &self.grads[v.0] {
            Some(g) => g.clone(),
            None => DenseMatrix::zeros(self.nodes[v.0].value.rows(), self.nodes[v.0].value.cols()),
        }
    }

    /// Scalar value of a `1×1` node (panics otherwise).
    pub fn scalar(&self, v: Var) -> f64 {
        let m = self.value(v);
        assert_eq!(
            m.shape(),
            (1, 1),
            "scalar: node is {}x{}",
            m.rows(),
            m.cols()
        );
        m.get(0, 0)
    }

    // ----- node constructors -------------------------------------------------

    /// Records a differentiable leaf (a parameter).
    pub fn leaf(&mut self, value: DenseMatrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a constant (no gradient flows into it). The tape keeps the
    /// `Arc`: a constant passed as `Arc::clone(&x)` is shared, not copied.
    pub fn constant(&mut self, value: impl Into<Arc<DenseMatrix>>) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Dense product `a * b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::MatMul(a, b), rg)
    }

    /// `aᵀ * b` without materializing the transpose.
    pub fn matmul_tn(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul_tn(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::MatMulTn(a, b), rg)
    }

    /// Sparse-constant × dense product `s * x` (GCN propagation).
    pub fn spmm(&mut self, s: &Arc<CsrMatrix>, x: Var) -> Var {
        let value = s.spmm_dense(self.value(x));
        let rg = self.requires(x);
        self.push(value, Op::SpMm(Arc::clone(s), x), rg)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Sub(a, b), rg)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Hadamard(a, b), rg)
    }

    /// Scalar multiple `alpha * a`.
    pub fn scale(&mut self, a: Var, alpha: f64) -> Var {
        let value = self.value(a).scale(alpha);
        let rg = self.requires(a);
        self.push(value, Op::Scale(a, alpha), rg)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let value = self.value(a).scale(-1.0);
        let rg = self.requires(a);
        self.push(value, Op::Neg(a), rg)
    }

    /// LeakyReLU with negative slope `alpha` (the paper uses `alpha = 0.01`).
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        let value = self.value(a).map(|v| if v > 0.0 { v } else { alpha * v });
        let rg = self.requires(a);
        self.push(value, Op::LeakyRelu(a, alpha), rg)
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.max(0.0));
        let rg = self.requires(a);
        self.push(value, Op::Relu(a), rg)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(sigmoid);
        let rg = self.requires(a);
        self.push(value, Op::Sigmoid(a), rg)
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f64::tanh);
        let rg = self.requires(a);
        self.push(value, Op::Tanh(a), rg)
    }

    /// Elementwise exponential (the VGAE reparameterization needs
    /// `std = exp(logvar / 2)`).
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f64::exp);
        let rg = self.requires(a);
        self.push(value, Op::Exp(a), rg)
    }

    /// Row-wise softmax (Eq. 3 of the paper: `P = softmax(Z)`).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        let rg = self.requires(a);
        self.push(value, Op::SoftmaxRows(a), rg)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        let rg = self.requires(a);
        self.push(value, Op::Transpose(a), rg)
    }

    /// Sum of all entries, as a `1×1` node.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = DenseMatrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let rg = self.requires(a);
        self.push(value, Op::Sum(a), rg)
    }

    /// Mean of all entries, as a `1×1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = DenseMatrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let rg = self.requires(a);
        self.push(value, Op::MeanAll(a), rg)
    }

    /// Sum of squared entries `‖a‖²_F`, as a `1×1` node (L2 regularizer).
    pub fn frob_sq(&mut self, a: Var) -> Var {
        let v = self.value(a);
        let value = DenseMatrix::from_vec(1, 1, vec![v.dot(v)]);
        let rg = self.requires(a);
        self.push(value, Op::FrobSq(a), rg)
    }

    /// Frobenius inner product `<a, b>`, as a `1×1` node.
    pub fn dot(&mut self, a: Var, b: Var) -> Var {
        let value = DenseMatrix::from_vec(1, 1, vec![self.value(a).dot(self.value(b))]);
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Dot(a, b), rg)
    }

    /// Mean softmax cross-entropy of `logits` against integer `labels`,
    /// evaluated only on the `rows` subset (the labelled training nodes).
    /// Returns a `1×1` node.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize], rows: &[usize]) -> Var {
        assert!(!rows.is_empty(), "softmax_cross_entropy: empty row set");
        let lv = self.value(logits);
        assert_eq!(
            labels.len(),
            lv.rows(),
            "labels must cover every row of logits"
        );
        let mut loss = 0.0;
        for &r in rows {
            let row = lv.row(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + row.iter().map(|v| (v - max).exp()).sum::<f64>().ln();
            loss += lse - row[labels[r]];
        }
        loss /= rows.len() as f64;
        let value = DenseMatrix::from_vec(1, 1, vec![loss]);
        let rg = self.requires(logits);
        self.push(
            value,
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.into(),
                rows: rows.into(),
            },
            rg,
        )
    }

    /// Generalized cross-entropy of `sigmoid(p pᵀ)` against a dense target in
    /// `[0,1]` (Eq. 17). `pos_weight` rescales the positive term, matching
    /// the class-imbalance weighting used by GAE. Returns a `1×1` node.
    ///
    /// The `N×N` score matrix is produced and consumed inside the op; the
    /// tape only stores `p` and the target.
    pub fn dense_recon_bce(&mut self, p: Var, target: &Arc<DenseMatrix>, pos_weight: f64) -> Var {
        let pv = self.value(p);
        assert_eq!(pv.rows(), target.rows(), "dense_recon_bce: row mismatch");
        assert_eq!(
            target.rows(),
            target.cols(),
            "dense_recon_bce: target must be square"
        );
        let n = pv.rows();
        let d = pv.cols();
        // Per-row partial losses, pooled over i and summed in chunk order
        // (deterministic across thread counts).
        let row_loss = |lo: usize, hi: usize| -> f64 {
            let mut loss = 0.0;
            for i in lo..hi {
                let pi = pv.row(i);
                for j in 0..n {
                    let pj = pv.row(j);
                    let s: f64 = pi.iter().zip(pj).map(|(&a, &b)| a * b).sum();
                    let sig = sigmoid(s).clamp(SIG_EPS, 1.0 - SIG_EPS);
                    let t = target.get(i, j);
                    loss -= pos_weight * t * sig.ln() + (1.0 - t) * (1.0 - sig).ln();
                }
            }
            loss
        };
        // Both paths reduce over the same fixed chunk decomposition in the
        // same order, so the loss is bit-identical across thread counts;
        // the threshold only decides whether the chunks run pooled.
        let grain = pool::row_grain(n, 1);
        let loss = if pool::should_parallelize(n * n * d) {
            pool::parallel_map_chunks(n, grain, row_loss).iter().sum()
        } else {
            serial_chunked_sum(n, grain, row_loss)
        };
        let value = DenseMatrix::from_vec(1, 1, vec![loss]);
        let rg = self.requires(p);
        self.push(
            value,
            Op::DenseReconBce {
                p,
                target: Arc::clone(target),
                pos_weight,
            },
            rg,
        )
    }

    /// Negative-sampled estimator of [`Tape::dense_recon_bce`]: the loss is
    /// summed over the explicit `(i, j, target)` pairs only. Returns a `1×1`
    /// node.
    ///
    /// The pairs are the list `head` followed by `tail`, walked as one list
    /// and never concatenated: `head` is a list the caller shares across
    /// passes (AnECI's positive pairs), `tail` the pairs of this pass alone
    /// (its negatives), which the op takes over. A caller with one list
    /// passes it as `head` and an empty `tail`.
    ///
    /// The forward is pooled over fixed chunks of the list and sums their
    /// partial losses in chunk order. Inside a chunk it runs in phases over
    /// blocks of pairs: every dot product, then every `σ(s)`, then every
    /// loss term in pair order, so the result is the one pair-at-a-time loop
    /// bit for bit. Each pair's `σ(s)` stays on the tape (8 bytes a pair),
    /// so the backward pass reads it instead of recomputing the dot product.
    pub fn pair_bce(&mut self, p: Var, head: &Arc<[BcePair]>, tail: Vec<BcePair>) -> Var {
        let pv = self.value(p);
        let len = head.len() + tail.len();
        let mut sig = vec![0.0; len];
        // Each chunk writes its pairs' σ(s) in place and returns its loss.
        let pair_loss = |lo: usize, mut sig: &mut [f64]| -> f64 {
            let mut loss = 0.0;
            for part in pair_range(head, &tail, lo, lo + sig.len()) {
                let (part_sig, rest) = std::mem::take(&mut sig).split_at_mut(part.len());
                sig = rest;
                for (block, out) in part.chunks(PAIR_BLOCK).zip(part_sig.chunks_mut(PAIR_BLOCK)) {
                    pair_dots(pv, block, out);
                    for s in out.iter_mut() {
                        *s = sigmoid(*s);
                    }
                    for (&(_, _, t), &s) in block.iter().zip(&*out) {
                        loss -= pair_bce_term(s, t);
                    }
                }
            }
            loss
        };
        // Same fixed-decomposition reduction as `dense_recon_bce`: identical
        // chunk partial sums on both paths, so the loss is thread-count
        // invariant.
        let grain = pool::row_grain(len, 64);
        let loss = if pool::should_parallelize(len * pv.cols()) {
            pool::parallel_map_chunks_mut(&mut sig, grain, pair_loss)
                .iter()
                .sum()
        } else {
            serial_chunked_sum_mut(&mut sig, grain, pair_loss)
        };
        let value = DenseMatrix::from_vec(1, 1, vec![loss]);
        let rg = self.requires(p);
        self.push(
            value,
            Op::PairBce {
                p,
                head: Arc::clone(head),
                tail,
                sig,
            },
            rg,
        )
    }

    // ----- backward ----------------------------------------------------------

    fn accumulate(&mut self, v: Var, g: DenseMatrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs the reverse sweep from a scalar `1×1` loss node, filling
    /// gradients for every reachable differentiable node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1×1 scalar node"
        );
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[loss.0] = Some(DenseMatrix::filled(1, 1, 1.0));
        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].requires_grad {
                continue;
            }
            let Some(g) = self.grads[idx].take() else {
                continue;
            };
            self.backprop_node(idx, &g);
            self.grads[idx] = Some(g);
        }
    }

    fn backprop_node(&mut self, idx: usize, g: &DenseMatrix) {
        // Apart from the σ cache of `PairBce`, `Op` owns only Vars, Arcs and
        // scalars, so cloning what we need out of the node keeps the borrow
        // checker happy at negligible cost.
        match &self.nodes[idx].op {
            Op::Leaf => {}
            &Op::MatMul(a, b) => {
                if self.requires(a) {
                    // dA = g * Bᵀ
                    let da = g.matmul(&self.nodes[b.0].value.transpose());
                    self.accumulate(a, da);
                }
                if self.requires(b) {
                    // dB = Aᵀ * g
                    let db = self.nodes[a.0].value.matmul_tn(g);
                    self.accumulate(b, db);
                }
            }
            &Op::MatMulTn(a, b) => {
                // y = aᵀ b; dA = b gᵀ, dB = a g
                if self.requires(a) {
                    let da = self.nodes[b.0].value.matmul(&g.transpose());
                    self.accumulate(a, da);
                }
                if self.requires(b) {
                    let db = self.nodes[a.0].value.matmul(g);
                    self.accumulate(b, db);
                }
            }
            Op::SpMm(s, x) => {
                let (s, x) = (Arc::clone(s), *x);
                if self.requires(x) {
                    // dX = Sᵀ * g, straight from the rows of S. Our
                    // propagation operators are symmetric only up to
                    // rounding (and Ã is row-normalized), so S itself
                    // would not do.
                    let dx = s.spmm_dense_tn(g);
                    self.accumulate(x, dx);
                }
            }
            &Op::Add(a, b) => {
                if self.requires(a) {
                    self.accumulate(a, g.clone());
                }
                if self.requires(b) {
                    self.accumulate(b, g.clone());
                }
            }
            &Op::Sub(a, b) => {
                if self.requires(a) {
                    self.accumulate(a, g.clone());
                }
                if self.requires(b) {
                    self.accumulate(b, g.scale(-1.0));
                }
            }
            &Op::Hadamard(a, b) => {
                if self.requires(a) {
                    let da = g.hadamard(&self.nodes[b.0].value);
                    self.accumulate(a, da);
                }
                if self.requires(b) {
                    let db = g.hadamard(&self.nodes[a.0].value);
                    self.accumulate(b, db);
                }
            }
            &Op::Scale(a, alpha) => {
                if self.requires(a) {
                    self.accumulate(a, g.scale(alpha));
                }
            }
            &Op::Neg(a) => {
                if self.requires(a) {
                    self.accumulate(a, g.scale(-1.0));
                }
            }
            &Op::LeakyRelu(a, alpha) => {
                if self.requires(a) {
                    let da = self.nodes[a.0]
                        .value
                        .zip(g, |x, gv| if x > 0.0 { gv } else { alpha * gv });
                    self.accumulate(a, da);
                }
            }
            &Op::Relu(a) => {
                if self.requires(a) {
                    let da = self.nodes[a.0]
                        .value
                        .zip(g, |x, gv| if x > 0.0 { gv } else { 0.0 });
                    self.accumulate(a, da);
                }
            }
            &Op::Sigmoid(a) => {
                if self.requires(a) {
                    let y = &self.nodes[idx].value;
                    let da = y.zip(g, |s, gv| gv * s * (1.0 - s));
                    self.accumulate(a, da);
                }
            }
            &Op::Tanh(a) => {
                if self.requires(a) {
                    let y = &self.nodes[idx].value;
                    let da = y.zip(g, |t, gv| gv * (1.0 - t * t));
                    self.accumulate(a, da);
                }
            }
            &Op::Exp(a) => {
                if self.requires(a) {
                    let y = &self.nodes[idx].value;
                    let da = y.zip(g, |e, gv| gv * e);
                    self.accumulate(a, da);
                }
            }
            &Op::SoftmaxRows(a) => {
                if self.requires(a) {
                    let y = &self.nodes[idx].value;
                    let mut da = DenseMatrix::zeros(y.rows(), y.cols());
                    // Rows are independent: pooled when large enough.
                    da.par_rows_mut(2 * y.cols(), |r, dr| {
                        let yr = y.row(r);
                        let gr = g.row(r);
                        let inner: f64 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                        for ((o, &yv), &gv) in dr.iter_mut().zip(yr).zip(gr) {
                            *o = yv * (gv - inner);
                        }
                    });
                    self.accumulate(a, da);
                }
            }
            &Op::Transpose(a) => {
                if self.requires(a) {
                    self.accumulate(a, g.transpose());
                }
            }
            &Op::Sum(a) => {
                if self.requires(a) {
                    let s = g.get(0, 0);
                    let (r, c) = self.nodes[a.0].value.shape();
                    self.accumulate(a, DenseMatrix::filled(r, c, s));
                }
            }
            &Op::MeanAll(a) => {
                if self.requires(a) {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let s = g.get(0, 0) / (r * c) as f64;
                    self.accumulate(a, DenseMatrix::filled(r, c, s));
                }
            }
            &Op::FrobSq(a) => {
                if self.requires(a) {
                    let s = 2.0 * g.get(0, 0);
                    self.accumulate(a, self.nodes[a.0].value.scale(s));
                }
            }
            &Op::Dot(a, b) => {
                let s = g.get(0, 0);
                if self.requires(a) {
                    self.accumulate(a, self.nodes[b.0].value.scale(s));
                }
                if self.requires(b) {
                    self.accumulate(b, self.nodes[a.0].value.scale(s));
                }
            }
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                rows,
            } => {
                let (logits, labels, rows) = (*logits, Arc::clone(labels), Arc::clone(rows));
                if self.requires(logits) {
                    let lv = &self.nodes[logits.0].value;
                    let mut dl = DenseMatrix::zeros(lv.rows(), lv.cols());
                    let scale = g.get(0, 0) / rows.len() as f64;
                    for &r in rows.iter() {
                        let row = lv.row(r);
                        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let exps: Vec<f64> = row.iter().map(|v| (v - max).exp()).collect();
                        let z: f64 = exps.iter().sum();
                        let dr = dl.row_mut(r);
                        for (c, (o, e)) in dr.iter_mut().zip(exps).enumerate() {
                            let p = e / z;
                            *o = scale * (p - if c == labels[r] { 1.0 } else { 0.0 });
                        }
                    }
                    self.accumulate(logits, dl);
                }
            }
            Op::DenseReconBce {
                p,
                target,
                pos_weight,
            } => {
                let (p, target, w) = (*p, Arc::clone(target), *pos_weight);
                if self.requires(p) {
                    let pv = &self.nodes[p.0].value;
                    let n = pv.rows();
                    // dL/dS_ij = sigmoid(S_ij)*(w*T_ij + 1 - T_ij) - w*T_ij
                    // dL/dP = (G + Gᵀ) P, computed without storing G by two
                    // accumulation passes over rows.
                    let mut grad_s = DenseMatrix::zeros(n, n);
                    // Each output row needs a full pass over P: pooled over
                    // i when n²·d clears the threshold.
                    grad_s.par_rows_mut(n * pv.cols(), |i, row| {
                        let pi = pv.row(i);
                        for (j, o) in row.iter_mut().enumerate() {
                            let pj = pv.row(j);
                            let s: f64 = pi.iter().zip(pj).map(|(&a, &b)| a * b).sum();
                            let sig = sigmoid(s);
                            let t = target.get(i, j);
                            *o = sig * (w * t + 1.0 - t) - w * t;
                        }
                    });
                    let gsym = grad_s.add(&grad_s.transpose());
                    let mut dp = gsym.matmul(pv);
                    dp.scale_inplace(g.get(0, 0));
                    self.accumulate(p, dp);
                }
            }
            Op::PairBce { p, head, tail, sig } => {
                let p = *p;
                if self.requires(p) {
                    let pv = &self.nodes[p.0].value;
                    let mut dp = DenseMatrix::zeros(pv.rows(), pv.cols());
                    let scale = g.get(0, 0);
                    // dL/ds = σ(s) − t with the forward's σ, scattered to
                    // both rows of each pair in one serial pass in pair
                    // order.
                    let pairs = head.iter().chain(tail).zip(sig);
                    dp.add_pair_rows(
                        pv,
                        pairs.map(|(&(i, j, t), &sig)| (i as usize, j as usize, scale * (sig - t))),
                    );
                    self.accumulate(p, dp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn scalar_chain_gradient() {
        // f(x) = sum(3 * x)  =>  df/dx = 3 everywhere.
        let mut t = Tape::new();
        let x = t.leaf(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let y = t.scale(x, 3.0);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x), DenseMatrix::filled(2, 2, 3.0));
        assert_eq!(t.scalar(loss), 30.0);
    }

    #[test]
    fn matmul_gradients_match_formula() {
        // L = sum(A*B): dA = 1 Bᵀ, dB = Aᵀ 1.
        let mut t = Tape::new();
        let a = t.leaf(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum(c);
        t.backward(loss);
        let ones = DenseMatrix::filled(2, 2, 1.0);
        let da = ones.matmul(&t.value(b).transpose());
        let db = t.value(a).transpose().matmul(&ones);
        assert!(t.grad(a).sub(&da).max_abs() < 1e-12);
        assert!(t.grad(b).sub(&db).max_abs() < 1e-12);
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // L = sum(x) + sum(x) => grad = 2.
        let mut t = Tape::new();
        let x = t.leaf(DenseMatrix::filled(2, 3, 1.0));
        let s1 = t.sum(x);
        let s2 = t.sum(x);
        let loss = t.add(s1, s2);
        t.backward(loss);
        assert_eq!(t.grad(x), DenseMatrix::filled(2, 3, 2.0));
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(DenseMatrix::filled(2, 2, 1.0));
        let c = t.constant(DenseMatrix::filled(2, 2, 5.0));
        let y = t.hadamard(x, c);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x), DenseMatrix::filled(2, 2, 5.0));
        assert_eq!(t.grad(c), DenseMatrix::zeros(2, 2));
    }

    #[test]
    fn spmm_gradient_matches_dense() {
        let s = Arc::new(CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 2.0),
                (1, 0, 2.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (0, 0, 0.5),
            ],
        ));
        let mut rng = seeded_rng(21);
        let x0 = gaussian_matrix(3, 4, 1.0, &mut rng);

        let mut t = Tape::new();
        let x = t.leaf(x0.clone());
        let y = t.spmm(&s, x);
        let sq = t.frob_sq(y);
        t.backward(sq);
        let got = t.grad(x);

        // d/dX ||S X||² = 2 Sᵀ S X
        let sd = s.to_dense();
        let want = sd.transpose().matmul(&sd.matmul(&x0)).scale(2.0);
        assert!(got.sub(&want).max_abs() < 1e-10);
    }

    #[test]
    fn backward_requires_scalar_loss() {
        let mut t = Tape::new();
        let x = t.leaf(DenseMatrix::filled(2, 2, 1.0));
        let y = t.scale(x, 2.0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = Tape::new();
            let x2 = t2.leaf(DenseMatrix::filled(2, 2, 1.0));
            t2.backward(x2);
        }));
        assert!(result.is_err());
        let loss = t.sum(y);
        t.backward(loss); // fine
    }

    #[test]
    fn softmax_rows_gradient_zero_for_uniform_target() {
        // L = sum(softmax(x)) = rows, a constant: gradient must be ~0.
        let mut t = Tape::new();
        let x = t.leaf(DenseMatrix::from_rows(&[
            &[0.3, -1.0, 2.0],
            &[0.0, 0.0, 1.0],
        ]));
        let p = t.softmax_rows(x);
        let loss = t.sum(p);
        t.backward(loss);
        assert!(t.grad(x).max_abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_decreases_along_gradient() {
        let mut rng = seeded_rng(22);
        let logits0 = gaussian_matrix(6, 3, 1.0, &mut rng);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let rows = vec![0, 2, 4, 5];

        let eval = |m: &DenseMatrix| {
            let mut t = Tape::new();
            let l = t.leaf(m.clone());
            let loss = t.softmax_cross_entropy(l, &labels, &rows);
            (t.scalar(loss), {
                t.backward(loss);
                t.grad(l)
            })
        };
        let (l0, g) = eval(&logits0);
        let mut stepped = logits0.clone();
        stepped.axpy(-0.1, &g);
        let (l1, _) = eval(&stepped);
        assert!(l1 < l0, "step along -grad should reduce CE: {l0} -> {l1}");
    }

    #[test]
    fn pair_bce_matches_dense_recon_on_full_pairs() {
        let mut rng = seeded_rng(23);
        let p0 = gaussian_matrix(5, 3, 0.5, &mut rng);
        let target = Arc::new(DenseMatrix::from_fn(5, 5, |r, c| ((r + c) % 2) as f64));
        let mut pairs: Vec<BcePair> = Vec::new();
        for i in 0..5u32 {
            for j in 0..5u32 {
                pairs.push((i, j, target.get(i as usize, j as usize)));
            }
        }
        let pairs: Arc<[BcePair]> = pairs.into();

        let mut t1 = Tape::new();
        let p1 = t1.leaf(p0.clone());
        let dense_loss = t1.dense_recon_bce(p1, &target, 1.0);
        t1.backward(dense_loss);

        let mut t2 = Tape::new();
        let p2 = t2.leaf(p0.clone());
        let pair_loss = t2.pair_bce(p2, &pairs, Vec::new());
        t2.backward(pair_loss);

        assert!((t1.scalar(dense_loss) - t2.scalar(pair_loss)).abs() < 1e-9);
        assert!(t1.grad(p1).sub(&t2.grad(p2)).max_abs() < 1e-9);
    }

    /// The pair BCE as it was before the σ cache: the forward evaluates
    /// both log terms of every pair, the backward recomputes every dot
    /// product and σ and copies both rows. Returns the loss and `dL/dP`
    /// for an upstream gradient `scale`.
    fn pair_bce_reference(pv: &DenseMatrix, pairs: &[BcePair], scale: f64) -> (f64, DenseMatrix) {
        let pair_loss = |lo: usize, hi: usize| -> f64 {
            let mut loss = 0.0;
            for &(i, j, t) in &pairs[lo..hi] {
                let s: f64 = pv
                    .row(i as usize)
                    .iter()
                    .zip(pv.row(j as usize))
                    .map(|(&a, &b)| a * b)
                    .sum();
                let sig = sigmoid(s).clamp(SIG_EPS, 1.0 - SIG_EPS);
                loss -= t * sig.ln() + (1.0 - t) * (1.0 - sig).ln();
            }
            loss
        };
        let grain = pool::row_grain(pairs.len(), 64);
        let loss = if pool::should_parallelize(pairs.len() * pv.cols()) {
            pool::parallel_map_chunks(pairs.len(), grain, pair_loss)
                .iter()
                .sum()
        } else {
            serial_chunked_sum(pairs.len(), grain, pair_loss)
        };
        let mut dp = DenseMatrix::zeros(pv.rows(), pv.cols());
        for &(i, j, t) in pairs {
            let (i, j) = (i as usize, j as usize);
            let s: f64 = pv.row(i).iter().zip(pv.row(j)).map(|(&a, &b)| a * b).sum();
            let coeff = scale * (sigmoid(s) - t);
            let pi = pv.row(i).to_vec();
            let pj = pv.row(j).to_vec();
            for (o, v) in dp.row_mut(i).iter_mut().zip(&pj) {
                *o += coeff * v;
            }
            for (o, v) in dp.row_mut(j).iter_mut().zip(&pi) {
                *o += coeff * v;
            }
        }
        (loss, dp)
    }

    /// `rows × d` scores wide enough that some σ saturate into the clamp,
    /// with every fifth row exactly zero and the row after it negative.
    fn pair_bce_scores(rows: usize, d: usize, seed: u64) -> DenseMatrix {
        let g = gaussian_matrix(rows, d, 2.5, &mut seeded_rng(seed));
        DenseMatrix::from_fn(rows, d, |r, c| match r % 5 {
            0 => 0.0,
            1 => -g.get(r, c).abs(),
            _ => g.get(r, c),
        })
    }

    /// `count` pairs over `rows` rows cycling through the targets 0, 1 and
    /// 0.37, self-pairs included.
    fn cycled_pairs(count: usize, rows: usize) -> Vec<BcePair> {
        (0..count)
            .map(|k| {
                let (i, j) = ((k * 7) % rows, (k * 13 + 5) % rows);
                (i as u32, j as u32, [0.0, 1.0, 0.37][k % 3])
            })
            .collect()
    }

    /// `pair_bce` on `pairs` split into the head `..split` and the tail
    /// `split..`, against the reference, bit for bit.
    fn assert_pair_bce_matches(p0: &DenseMatrix, pairs: &[BcePair], split: usize, case: &str) {
        let scale = 1.0 / pairs.len().max(1) as f64;
        let (want_loss, want_grad) = pair_bce_reference(p0, pairs, scale);
        let mut t = Tape::new();
        let p = t.leaf(p0.clone());
        let head: Arc<[BcePair]> = pairs[..split].into();
        let l = t.pair_bce(p, &head, pairs[split..].to_vec());
        let loss = t.scale(l, scale);
        t.backward(loss);
        assert_eq!(t.scalar(l).to_bits(), want_loss.to_bits(), "loss, {case}");
        let got = t.grad(p);
        for (g, w) in got.as_slice().iter().zip(want_grad.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "gradient, {case}");
        }
    }

    /// The blocked, two-part kernel against the one-pair-at-a-time
    /// reference: counts around the 4-pair groups and the 256-pair blocks,
    /// widths around the 4 SIMD lanes, the split between the two parts at
    /// its ends and in the middle, serial and pooled. The long lists give
    /// every chunk several blocks. On an AVX2 host it reruns itself with the
    /// scalar fallback forced, so both backward dispatches are checked.
    #[test]
    fn pair_bce_matches_recompute_reference_bit_exactly() {
        pool::force_pool();
        let counts = (0..=9).chain(255..=257).chain(1023..=1025);
        for threshold in [usize::MAX, 1] {
            pool::set_par_threshold(threshold);
            for d in [1, 3, 4, 5, 7, 32, 33] {
                let p0 = pair_bce_scores(40, d, 24 + d as u64);
                for count in counts.clone() {
                    let pairs = cycled_pairs(count, 40);
                    for split in [0, count.min(1), count / 2, count] {
                        let case =
                            format!("threshold {threshold}, d {d}, {count} pairs, split {split}");
                        assert_pair_bce_matches(&p0, &pairs, split, &case);
                    }
                }
            }
            // Self-pairs with every target, then repeats of earlier pairs.
            let p0 = pair_bce_scores(40, 5, 24);
            let mut pairs = cycled_pairs(3000, 40);
            pairs.extend([(3, 3, 0.0), (3, 3, 1.0), (3, 3, 0.37)]);
            pairs.extend_from_within(..50);
            assert_pair_bce_matches(
                &p0,
                &pairs,
                1500,
                &format!("threshold {threshold}, repeats"),
            );
            // 1,200 pairs a chunk: five blocks, the last one partial.
            let p0 = pair_bce_scores(300, 3, 25);
            let pairs = cycled_pairs(64 * 1200, 300);
            assert_pair_bce_matches(&p0, &pairs, 40_000, &format!("threshold {threshold}, long"));
        }
        aneci_linalg::golden::rerun_scalar(
            "tape::tests::pair_bce_matches_recompute_reference_bit_exactly",
        );
    }

    #[test]
    fn spmm_backward_is_the_product_with_the_transpose() {
        // Non-symmetric and non-square: d<G, S X>/dX = Sᵀ G, bit for bit
        // what a product with the built transpose gives.
        let s = Arc::new(CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 2.0),
                (0, 3, -1.0),
                (1, 2, 3.0),
                (2, 0, 0.5),
                (2, 1, 0.25),
            ],
        ));
        let mut rng = seeded_rng(25);
        let x0 = gaussian_matrix(4, 2, 1.0, &mut rng);
        let g0 = gaussian_matrix(3, 2, 1.0, &mut rng);
        let mut t = Tape::new();
        let x = t.leaf(x0);
        let y = t.spmm(&s, x);
        let g = t.constant(g0.clone());
        let loss = t.dot(y, g);
        t.backward(loss);
        assert_eq!(t.grad(x), s.transpose().spmm_dense(&g0));
    }

    #[test]
    fn constants_share_their_value() {
        let x = Arc::new(DenseMatrix::filled(3, 2, 1.5));
        let mut t = Tape::new();
        let c = t.constant(Arc::clone(&x));
        assert!(std::ptr::eq(t.value(c), &*x));
    }
}
