//! Multi-threaded kernels.
//!
//! The reproduction must train several GCNs on graphs with up to ~20k nodes
//! and 500–3700-dimensional features on CPU, so the two hot products —
//! dense×dense and sparse×dense — get row-parallel versions. All of them run
//! on the persistent worker pool in [`crate::pool`] (no per-call thread
//! spawning): workers split the *output rows*, so each chunk writes a
//! disjoint region and no synchronization is needed, and chunk boundaries
//! depend only on the problem size, so results are identical across thread
//! counts.
//!
//! The dense product additionally uses the cache-blocked register-tiled
//! microkernel from [`crate::dense`], which beats the streaming axpy loop
//! roughly 2× even single-threaded at GCN-layer sizes.

use std::cell::RefCell;

use crate::dense::{self, DenseMatrix};
use crate::kernel_stats::{self, Kernel};
use crate::pool::{self, SendPtr};
use crate::simd;
use crate::sparse::CsrMatrix;
use crate::vector;

/// Dense matrix product `a * b`: cache-blocked microkernel, pooled over
/// output rows above the pool threshold.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "par::matmul: inner dimension mismatch {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let work = m * k * n;
    kernel_stats::record(Kernel::Matmul, 2 * work as u64, || {
        simd::record_dispatch();
        let mut out = DenseMatrix::zeros(m, n);
        let ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        if pool::should_parallelize(work) {
            pool::parallel_for(m, pool::row_grain(m, 4), |lo, hi| {
                // SAFETY (in callee): chunks own disjoint output row ranges.
                dense::matmul_rows_into(a, b, lo, hi, ptr.get());
            });
        } else {
            dense::matmul_rows_into(a, b, 0, m, ptr.get());
        }
        out
    })
}

/// Sparse × dense product `s * d`, pooled over output rows. Row chunks are
/// claimed via an atomic index, so uneven row sparsity load-balances.
pub fn spmm_dense(s: &CsrMatrix, d: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        s.cols(),
        d.rows(),
        "par::spmm_dense: inner dimension mismatch"
    );
    let m = s.rows();
    let n = d.cols();
    let work = s.nnz() * n;
    kernel_stats::record(Kernel::SpmmDense, 2 * work as u64, || {
        simd::record_dispatch();
        let mut out = DenseMatrix::zeros(m, n);
        let ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        let fill_rows = |lo: usize, hi: usize| {
            // SAFETY: chunks own disjoint output row ranges and `out`
            // outlives the parallel region.
            let dst =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo * n), (hi - lo) * n) };
            for (local_r, out_row) in dst.chunks_exact_mut(n.max(1)).enumerate() {
                for (c, v) in s.row_entries(lo + local_r) {
                    vector::axpy(out_row, v, d.row(c));
                }
            }
        };
        if n > 0 && pool::should_parallelize(work) {
            // Fine grain: sparse rows are uneven, let the atomic index
            // load-balance many small chunks.
            pool::parallel_for(m, pool::row_grain(m, 1), fill_rows);
        } else {
            fill_rows(0, m);
        }
        out
    })
}

/// `sᵀ * d` without building `sᵀ`, bit-identical to
/// `spmm_dense(&s.transpose(), d)`: output row `j` adds `s[i][j] · d[i]`
/// for `i` ascending, the order row `j` of the transpose lists them, with
/// the same `axpy`. Each chunk owns a range of output rows and walks every
/// row of `s`, finding the columns it owns by binary search (CSR rows are
/// sorted).
pub fn spmm_dense_tn(s: &CsrMatrix, d: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        s.rows(),
        d.rows(),
        "par::spmm_dense_tn: inner dimension mismatch"
    );
    let m = s.cols();
    let n = d.cols();
    let work = s.nnz() * n;
    kernel_stats::record(Kernel::SpmmDense, 2 * work as u64, || {
        simd::record_dispatch();
        let mut out = DenseMatrix::zeros(m, n);
        let ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        let (indptr, indices, values) = (s.indptr(), s.indices(), s.values());
        let fill_rows = |lo: usize, hi: usize| {
            // SAFETY: chunks own disjoint output row ranges and `out`
            // outlives the parallel region.
            let dst =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo * n), (hi - lo) * n) };
            for i in 0..s.rows() {
                let row = indptr[i]..indptr[i + 1];
                let cols = &indices[row.clone()];
                let start = cols.partition_point(|&c| (c as usize) < lo);
                for (&c, &v) in cols[start..].iter().zip(&values[row][start..]) {
                    let j = c as usize;
                    if j >= hi {
                        break;
                    }
                    let o = (j - lo) * n;
                    vector::axpy(&mut dst[o..o + n], v, d.row(i));
                }
            }
        };
        if n > 0 && pool::should_parallelize(work) {
            // Every chunk walks all of `s`, so keep them few: one per core.
            // The output does not depend on the chunking.
            let chunks = pool::hardware_parallelism().min(8);
            pool::parallel_for(m, m.div_ceil(chunks).max(1), fill_rows);
        } else {
            fill_rows(0, m);
        }
        out
    })
}

thread_local! {
    /// The calling thread's [`matmul_tn`] partials: kept across calls, so
    /// a call does not fault in fresh pages for them. At most
    /// `7 · a.cols · b.cols` doubles (5.1 MB at Cora's 1433×64).
    static TN_PARTIALS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `aᵀ * b`, computed as a fixed sequence of row-block partial products
/// summed in block order.
///
/// The block decomposition depends only on the shape — never on the thread
/// count or the parallel threshold — so the result is bit-identical whether
/// the blocks execute pooled or serial. (An earlier version switched to a
/// direct serial accumulation below the threshold, which rounded the long
/// reduction differently and made seeded runs diverge across thread
/// counts.) Rounding may differ from the strictly-serial
/// [`DenseMatrix::matmul_tn`] by ~1e-12 relative. Each row of `a` adds
/// only its nonzero entries, found by [`dense::nonzero_union`]'s scan.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.rows(), b.rows(), "par::matmul_tn: row mismatch");
    let m = a.rows();
    let (p, q) = (a.cols(), b.cols());
    let work = m * p * q;
    kernel_stats::record(Kernel::MatmulTn, 2 * work as u64, || {
        simd::record_dispatch();
        let mut out = DenseMatrix::zeros(p, q);
        let size = p * q;
        if m == 0 || size == 0 {
            return out;
        }
        // Each block accumulates a full `p × q` partial, so keep the block
        // count low: ≤8 blocks bounds both the extra memory and the final
        // block-ordered reduction while still feeding the pool. Block 0
        // accumulates into `out`, block `i ≥ 1` into partial `i − 1`.
        let grain = m.div_ceil(8).max(32);
        let blocks = m.div_ceil(grain);
        TN_PARTIALS.with_borrow_mut(|partials| {
            if partials.len() < (blocks - 1) * size {
                partials.resize((blocks - 1) * size, 0.0);
            }
            let dst = SendPtr(out.as_mut_slice().as_mut_ptr());
            let scratch = SendPtr(partials.as_mut_ptr());
            pool::parallel_for(m, grain, |lo, hi| {
                let block = lo / grain;
                // SAFETY: each block owns its accumulator: `out` for block
                // 0, partial `block − 1` of the `blocks − 1` in `partials`
                // otherwise; both outlive the parallel region.
                let acc = unsafe {
                    if block == 0 {
                        std::slice::from_raw_parts_mut(dst.get(), size)
                    } else {
                        let part = std::slice::from_raw_parts_mut(
                            scratch.get().add((block - 1) * size),
                            size,
                        );
                        part.fill(0.0);
                        part
                    }
                };
                let mut nonzero = Vec::with_capacity(p);
                for r in lo..hi {
                    let (a_row, b_row) = (a.row(r), b.row(r));
                    dense::nonzero_union(a_row, a_row, 0, &mut nonzero);
                    for &i in &nonzero {
                        vector::axpy(&mut acc[i * q..(i + 1) * q], a_row[i], b_row);
                    }
                }
            });
            let parts = &partials[..(blocks - 1) * size];
            out.par_rows_mut((blocks - 1) * q, |i, row| {
                for part in parts.chunks_exact(size) {
                    for (o, &v) in row.iter_mut().zip(&part[i * q..(i + 1) * q]) {
                        *o += v;
                    }
                }
            });
        });
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::force_pool;
    use crate::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn par_matmul_matches_serial_small() {
        let mut rng = seeded_rng(10);
        let a = gaussian_matrix(13, 7, 1.0, &mut rng);
        let b = gaussian_matrix(7, 9, 1.0, &mut rng);
        assert!(matmul(&a, &b).sub(&a.matmul(&b)).max_abs() < 1e-12);
    }

    #[test]
    fn par_matmul_matches_serial_large() {
        force_pool();
        let mut rng = seeded_rng(11);
        let a = gaussian_matrix(256, 256, 1.0, &mut rng);
        let b = gaussian_matrix(256, 256, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = a.matmul(&b);
        assert!(fast.sub(&slow).max_abs() < 1e-9);
    }

    #[test]
    fn par_matmul_handles_uneven_chunks() {
        force_pool();
        let mut rng = seeded_rng(12);
        // Row count not divisible by typical thread counts.
        let a = gaussian_matrix(257, 130, 1.0, &mut rng);
        let b = gaussian_matrix(130, 131, 1.0, &mut rng);
        let fast = matmul(&a, &b);
        assert_eq!(fast.shape(), (257, 131));
        assert!(fast.sub(&a.matmul(&b)).max_abs() < 1e-10);
    }

    #[test]
    fn par_spmm_matches_serial() {
        force_pool();
        let mut rng = seeded_rng(13);
        let trips: Vec<(usize, usize, f64)> = (0..5000)
            .map(|i| ((i * 37) % 300, (i * 61) % 300, (i % 10) as f64 - 4.5))
            .collect();
        let s = CsrMatrix::from_triplets(300, 300, &trips);
        let d = gaussian_matrix(300, 500, 1.0, &mut rng);
        let fast = spmm_dense(&s, &d);
        let slow = s.spmm_dense(&d);
        assert!(fast.sub(&slow).max_abs() < 1e-10);
    }

    #[test]
    fn par_matmul_tn_matches_serial() {
        force_pool();
        let mut rng = seeded_rng(14);
        let a = gaussian_matrix(500, 64, 1.0, &mut rng);
        let b = gaussian_matrix(500, 64, 1.0, &mut rng);
        let fast = matmul_tn(&a, &b);
        let slow = a.matmul_tn(&b);
        assert!(fast.sub(&slow).max_abs() < 1e-9);
    }
}
