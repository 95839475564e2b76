//! Reference implementations of the product and extraction kernels.
//!
//! Each function is the plain serial loop its production method replaced:
//! no pool, no SIMD, no blocking, no zero scan and no `linalg.kernel.*`
//! counters. They are test oracles, and the serial legs that
//! `bench_report --kernels` times the production methods against.
//! Production code calls [`DenseMatrix::matmul`],
//! [`DenseMatrix::matmul_tn`], [`CsrMatrix::spmm_dense`] and
//! [`CsrMatrix::extract_submatrix`] instead.

use crate::dense::DenseMatrix;
use crate::sparse::CsrMatrix;

/// `a * b` by the streaming `i-k-j` loop, skipping a zero `a[r, k]`: the
/// inner loop runs over contiguous rows of `b` and of the output.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimension mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        let out_row = out.row_mut(r);
        for (k, &av) in a.row(r).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `aᵀ * b` without materializing the transpose: one serial pass over the
/// rows, skipping a zero `a[r, i]`.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row mismatch {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = DenseMatrix::zeros(a.cols(), b.cols());
    for r in 0..a.rows() {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = out.row_mut(i);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Sparse × dense product `s * d`, one output row at a time.
pub fn spmm_dense(s: &CsrMatrix, d: &DenseMatrix) -> DenseMatrix {
    assert_eq!(s.cols(), d.rows(), "spmm_dense: inner dimension mismatch");
    let mut out = DenseMatrix::zeros(s.rows(), d.cols());
    for r in 0..s.rows() {
        let out_row = out.row_mut(r);
        for (c, v) in s.row_entries(r) {
            let d_row = d.row(c);
            for (o, &dv) in out_row.iter_mut().zip(d_row) {
                *o += v * dv;
            }
        }
    }
    out
}

/// Induced-subgraph extraction `out[i][j] = s[nodes[i]][nodes[j]]` by a
/// per-entry binary search into the node list and triplet assembly.
pub fn extract_submatrix(s: &CsrMatrix, nodes: &[usize]) -> CsrMatrix {
    assert_eq!(
        s.rows(),
        s.cols(),
        "extract_submatrix: matrix must be square"
    );
    let mut triplets = Vec::new();
    for (i, &r) in nodes.iter().enumerate() {
        for (c, v) in s.row_entries(r) {
            if let Ok(j) = nodes.binary_search(&c) {
                triplets.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(nodes.len(), nodes.len(), &triplets)
}
