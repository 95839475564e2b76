//! The node features `X` of the encoder's first layer (Eq. 2), held in the
//! smaller of two forms.
//!
//! Bag-of-words attributes are mostly zeros: the Cora-scale SBM stores
//! about 54k nonzeros in its 2,708 × 1,433 matrix (1.4%). Held as CSR, the
//! first layer `X·W₁` and `W₁`'s gradient `Xᵀ·G` multiply only those
//! nonzeros, and the model keeps no dense copy of `X`. Dense features (the
//! streamed graphs' Gaussian ones) stay dense and run the dense product,
//! bit for bit as before. The form is chosen by bytes alone, like the
//! negative sampler's bit set: CSR when its `8·(N+1) + 12·nnz` bytes are
//! fewer than the dense `8·N·d`. Nothing else selects it.

use aneci_autograd::{Tape, Var};
use aneci_linalg::{CsrMatrix, DenseMatrix};
use std::borrow::Cow;
use std::sync::Arc;

/// Node features in the form that takes fewer bytes. A clone shares the
/// matrix.
#[derive(Clone, Debug)]
pub(crate) enum Features {
    Dense(Arc<DenseMatrix>),
    Sparse(Arc<CsrMatrix>),
}

impl Features {
    /// `x` in the smaller form, built straight from the borrowed matrix:
    /// converted when CSR is smaller, copied otherwise.
    pub(crate) fn new(x: &DenseMatrix) -> Self {
        if csr_is_smaller(x) {
            Self::Sparse(Arc::new(CsrMatrix::from_dense(x)))
        } else {
            Self::Dense(Arc::new(x.clone()))
        }
    }

    /// `x` in the smaller form; the dense form keeps `x` itself.
    pub(crate) fn from_owned(x: DenseMatrix) -> Self {
        if csr_is_smaller(&x) {
            Self::Sparse(Arc::new(CsrMatrix::from_dense(&x)))
        } else {
            Self::Dense(Arc::new(x))
        }
    }

    /// Number of nodes `N`.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Self::Dense(x) => x.rows(),
            Self::Sparse(x) => x.rows(),
        }
    }

    /// Number of attributes `d`.
    pub(crate) fn cols(&self) -> usize {
        match self {
            Self::Dense(x) => x.cols(),
            Self::Sparse(x) => x.cols(),
        }
    }

    /// The first layer's product `X·W₁` on `tape`: a dense product of the
    /// constant `X`, or a sparse one whose backward is `W₁`'s gradient
    /// `Xᵀ·G` over the stored entries.
    pub(crate) fn times(&self, tape: &mut Tape, w1: Var) -> Var {
        match self {
            Self::Dense(x) => {
                let x = tape.constant(Arc::clone(x));
                tape.matmul(x, w1)
            }
            Self::Sparse(x) => tape.spmm(x, w1),
        }
    }

    /// The rows `nodes` in their order, in this form: a batch's features.
    pub(crate) fn select_rows(&self, nodes: &[usize]) -> Self {
        match self {
            Self::Dense(x) => Self::Dense(Arc::new(x.select_rows(nodes))),
            Self::Sparse(x) => Self::Sparse(Arc::new(x.gather_rows(nodes))),
        }
    }

    /// The features as a dense matrix: the dense form's own, or one built
    /// from the CSR form.
    pub(crate) fn to_dense(&self) -> Cow<'_, DenseMatrix> {
        match self {
            Self::Dense(x) => Cow::Borrowed(x),
            Self::Sparse(x) => Cow::Owned(x.to_dense()),
        }
    }

    /// True when both hold the same matrix, not merely equal ones.
    #[cfg(test)]
    pub(crate) fn shares(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => Arc::ptr_eq(a, b),
            (Self::Sparse(a), Self::Sparse(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// True when `x`'s entries that are not `0.0` take fewer bytes as CSR
/// (`N + 1` row pointers, a `u32` index and an `f64` value an entry) than
/// `x` does dense.
fn csr_is_smaller(x: &DenseMatrix) -> bool {
    let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
    csr_fits(x.rows(), x.len(), nnz)
}

/// The byte rule of [`csr_is_smaller`] for `rows` rows of `entries` dense
/// entries, `nnz` of them stored, in `u128` so that no count overflows (a
/// zero-width matrix may have more rows than its bytes suggest).
fn csr_fits(rows: usize, entries: usize, nnz: usize) -> bool {
    let (rows, entries, nnz) = (rows as u128, entries as u128, nnz as u128);
    8 * (rows + 1) + 12 * nnz < 8 * entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{karate_club, Benchmark, StreamingConfig};

    fn is_sparse(x: &DenseMatrix) -> bool {
        matches!(Features::new(x), Features::Sparse(_))
    }

    #[test]
    fn the_byte_rule_is_strict() {
        // 10 × 10: 800 dense bytes, 88 bytes of row pointers, so CSR fits
        // up to 59 entries (796 bytes); 60 would tie.
        assert!(csr_fits(10, 100, 59));
        assert!(!csr_fits(10, 100, 60));
        // No rows at all: 8 bytes of pointer against nothing. No width:
        // never CSR, however many rows.
        assert!(!csr_fits(0, 0, 0));
        assert!(!csr_fits(usize::MAX, 0, 0));
    }

    /// Bag-of-words graphs (Cora-scale, karate's identity) take CSR; the
    /// streamed graphs' Gaussian features stay dense.
    #[test]
    fn bag_of_words_takes_csr_and_gaussian_features_stay_dense() {
        let cora = Benchmark::Cora.generate(1.0, 3);
        let x = cora.features();
        let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
        assert!(
            nnz * 50 < x.len(),
            "bag of words: {nnz} of {} stored",
            x.len()
        );
        assert!(is_sparse(x), "Cora-scale bag of words");
        assert!(is_sparse(karate_club().features()), "karate's identity");
        let streamed = aneci_graph::generate_streamed(&StreamingConfig::scale(600).unwrap(), 1, 64);
        assert!(!is_sparse(&streamed.features), "streamed Gaussian features");
        assert!(matches!(
            Features::from_owned(streamed.features.clone()),
            Features::Dense(_)
        ));
    }

    /// Both forms give the same rows and the same dense matrix.
    #[test]
    fn both_forms_hold_the_same_matrix() {
        let g = karate_club();
        let x = g.features();
        let (dense, sparse) = (
            Features::Dense(Arc::new(x.clone())),
            Features::from_owned(x.clone()),
        );
        assert!(matches!(sparse, Features::Sparse(_)));
        assert_eq!(*dense.to_dense(), *x);
        assert_eq!(*sparse.to_dense(), *x);
        assert_eq!((sparse.rows(), sparse.cols()), x.shape());
        let nodes = [5, 0, 33, 5];
        let want = x.select_rows(&nodes);
        assert_eq!(*dense.select_rows(&nodes).to_dense(), want);
        let rows = sparse.select_rows(&nodes);
        assert!(matches!(rows, Features::Sparse(_)));
        assert_eq!(*rows.to_dense(), want);
    }
}
