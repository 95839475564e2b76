//! # aneci-linalg
//!
//! Dense and sparse linear-algebra substrate for the AnECI reproduction.
//!
//! The paper's models are all expressed in terms of a handful of kernels:
//! symmetric-normalized sparse propagation (`D^-1/2 A D^-1/2 · H`), dense
//! weight products, row softmax, and sparse matrix powers for the high-order
//! proximity `Ã`. This crate provides exactly those, with no external BLAS:
//!
//! * [`DenseMatrix`] — row-major `f64` matrices with the usual elementwise,
//!   product, reduction and normalization operations; `matmul` and
//!   `matmul_tn` are the production dense products (cache-blocked,
//!   zero-skipping, pooled over output rows);
//! * [`CsrMatrix`] — compressed-sparse-row matrices with sparse×sparse /
//!   sparse×dense products (`spmm`, `spmm_dense`, `spmm_dense_tn`, all
//!   pooled), normalizations, and subgraph extraction;
//! * [`reference`](mod@reference) — the plain serial loops of those products and of the
//!   subgraph extraction: test oracles and the serial legs of
//!   `bench_report --kernels`, never called by production code;
//! * [`golden`] — the harness of the bit-for-bit fixture tests (one section
//!   per SIMD dispatch, the scalar-dispatch rerun); only tests call it;
//! * [`pool`] — the persistent worker-pool runtime every multi-threaded
//!   kernel dispatches through (`ANECI_NUM_THREADS` sizes it);
//! * [`kernel_stats`] — always-on per-kernel counters recorded into the
//!   `aneci-obs` global registry (`linalg.kernel.*`);
//! * [`rng`] — explicit-seed randomness, Xavier/He initializers, alias-table
//!   sampling;
//! * [`simd`] — runtime-dispatched AVX2/FMA kernels behind the portable
//!   scalar entry points (`ANECI_NO_SIMD` forces the fallbacks);
//! * [`vector`] — flat similarity kernels (dot / cosine / L2) shared by the
//!   serving layer's exact scorer and ANN index;
//! * [`stats`] — small statistics shared across the workspace;
//! * [`sigmoid`] — the logistic function every model and scorer shares.

pub mod dense;
pub mod golden;
pub mod kernel_stats;
pub mod pool;
pub mod reference;
pub mod rng;
pub mod simd;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use dense::DenseMatrix;
pub use sparse::CsrMatrix;

/// The logistic function `σ(x) = 1 / (1 + e^{-x})`. A negative `x` takes
/// the form `e^x / (1 + e^x)`, so no intermediate overflows (`e^{-x}` is
/// infinite below `x ≈ −709`).
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod proptests {
    use crate::{CsrMatrix, DenseMatrix};
    use proptest::prelude::*;

    /// Strategy: random triplet lists for an `r`×`c` sparse matrix.
    fn triplets(r: usize, c: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
        prop::collection::vec((0..r, 0..c, -10.0..10.0f64), 0..40)
    }

    proptest! {
        #[test]
        fn csr_roundtrips_through_dense(t in triplets(8, 6)) {
            let s = CsrMatrix::from_triplets(8, 6, &t);
            let d = s.to_dense();
            let mut back_trips = Vec::new();
            for r in 0..8 {
                for c in 0..6 {
                    if d.get(r, c) != 0.0 {
                        back_trips.push((r, c, d.get(r, c)));
                    }
                }
            }
            let back = CsrMatrix::from_triplets(8, 6, &back_trips);
            prop_assert_eq!(back, s);
        }

        #[test]
        fn csr_transpose_involutive(t in triplets(7, 9)) {
            let s = CsrMatrix::from_triplets(7, 9, &t);
            prop_assert_eq!(s.transpose().transpose(), s);
        }

        #[test]
        fn spmm_agrees_with_dense(a in triplets(6, 5), b in triplets(5, 7)) {
            let sa = CsrMatrix::from_triplets(6, 5, &a);
            let sb = CsrMatrix::from_triplets(5, 7, &b);
            let sparse = sa.spmm(&sb).to_dense();
            let dense = sa.to_dense().matmul(&sb.to_dense());
            prop_assert!(sparse.sub(&dense).max_abs() < 1e-9);
        }

        #[test]
        fn matmul_distributes_over_add(
            a in prop::collection::vec(-5.0..5.0f64, 12),
            b in prop::collection::vec(-5.0..5.0f64, 12),
            c in prop::collection::vec(-5.0..5.0f64, 12),
        ) {
            let a = DenseMatrix::from_vec(3, 4, a);
            let b = DenseMatrix::from_vec(4, 3, b);
            let c = DenseMatrix::from_vec(4, 3, c);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            prop_assert!(lhs.sub(&rhs).max_abs() < 1e-9);
        }

        #[test]
        fn softmax_rows_always_normalized(v in prop::collection::vec(-50.0..50.0f64, 20)) {
            let m = DenseMatrix::from_vec(4, 5, v);
            let s = m.softmax_rows();
            for row in s.rows_iter() {
                let sum: f64 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
                prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }

        #[test]
        fn row_normalize_unit_rows(t in triplets(6, 6)) {
            let s = CsrMatrix::from_triplets(6, 6, &t).row_normalize();
            for r in 0..6 {
                let sum: f64 = s.row_entries(r).map(|(_, v)| v).sum();
                if s.row_nnz(r) > 0 {
                    prop_assert!((sum - 1.0).abs() < 1e-9);
                }
            }
        }
    }
}
