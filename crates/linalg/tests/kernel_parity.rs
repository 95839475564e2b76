//! Parity suite: every pooled kernel must match its serial counterpart to
//! 1e-10 (bit-identical where the docs promise it) across adversarial
//! shapes — 1×N, N×1, empty rows, prime row counts, all-zero sparse rows.
//! The products' counterparts are the oracles in `aneci_linalg::reference`,
//! the ones the unit tests and `bench_report --kernels` use.
//!
//! `force_pool` drops the pool threshold to 1 and guarantees ≥4 threads, so
//! every kernel here genuinely takes the pooled path even on small inputs
//! and single-core CI runners.
//!
//! The `simd_*` tests at the bottom hold the dispatched vector kernels to
//! their `*_scalar` references: within the documented ULP envelope when the
//! AVX2 path is active (FMA + different association), and bit-for-bit when
//! dispatch falls back — including a subprocess run with `ANECI_NO_SIMD`
//! forcing the fallback on AVX2-capable machines.

use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::{pool, reference, simd, vector};
use aneci_linalg::{CsrMatrix, DenseMatrix};

const TOL: f64 = 1e-10;

/// Deterministic dense test matrix with a sprinkling of exact zeros (so the
/// zero-skip branches of the kernels are exercised).
fn dense(rows: usize, cols: usize, seed: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |r, c| {
        let x = (r * 31 + c * 7 + seed * 13) % 17;
        if x == 0 {
            0.0
        } else {
            x as f64 * 0.25 - 2.0
        }
    })
}

/// Sparse matrix with structurally empty rows (every third row) and a row
/// whose entries would cancel in products.
fn sparse(rows: usize, cols: usize, seed: usize) -> CsrMatrix {
    let mut trips = Vec::new();
    for r in 0..rows {
        if r % 3 == 1 {
            continue; // empty row
        }
        for j in 0..4 {
            let c = (r * 7 + j * 11 + seed) % cols;
            trips.push((r, c, ((r + j + seed) % 5) as f64 - 2.0));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &trips)
}

#[test]
fn matmul_parity_adversarial_shapes() {
    pool::force_pool();
    // (m, k, n): 1×N, N×1, prime row counts, tile remainders, tiny.
    for &(m, k, n) in &[
        (1usize, 300usize, 64usize),
        (300, 300, 1),
        (257, 131, 67),
        (64, 64, 64),
        (3, 2, 5),
        (97, 17, 8),
    ] {
        let a = dense(m, k, 1);
        let b = dense(k, n, 2);
        let pooled = a.matmul(&b);
        let serial = reference::matmul(&a, &b);
        assert!(
            pooled.sub(&serial).max_abs() < TOL,
            "matmul parity failed at {m}x{k}x{n}"
        );
    }
}

#[test]
fn matmul_tn_parity() {
    pool::force_pool();
    for &(m, k, n) in &[(1usize, 5usize, 7usize), (257, 31, 19), (500, 64, 64)] {
        let a = dense(m, k, 3);
        let b = dense(m, n, 4);
        let pooled = a.matmul_tn(&b);
        let serial = reference::matmul_tn(&a, &b);
        assert!(
            pooled.sub(&serial).max_abs() < TOL,
            "matmul_tn parity failed at ({m}){k}x{n}"
        );
    }
}

#[test]
fn spmm_dense_parity_with_empty_rows() {
    pool::force_pool();
    for &(m, n, d) in &[(1usize, 40usize, 8usize), (257, 101, 33), (90, 90, 1)] {
        let s = sparse(m, n, 5);
        let x = dense(n, d, 6);
        let pooled = s.spmm_dense(&x);
        let serial = reference::spmm_dense(&s, &x);
        assert!(
            pooled.sub(&serial).max_abs() < TOL,
            "spmm_dense parity failed at {m}x{n}x{d}"
        );
        // Structurally empty input rows must yield exactly-zero output rows.
        for r in 0..m {
            if s.row_nnz(r) == 0 {
                assert!(pooled.row(r).iter().all(|&v| v == 0.0), "row {r} not zero");
            }
        }
    }
}

#[test]
fn spmm_dense_tn_matches_product_with_the_transpose_bit_exactly() {
    pool::force_pool();
    for &(m, n, d) in &[
        (1usize, 40usize, 8usize),
        (257, 101, 33),
        (90, 90, 1),
        (40, 1, 5),
    ] {
        let s = sparse(m, n, 11);
        let x = dense(m, d, 12);
        let want = s.transpose().spmm_dense(&x);
        for threads in [2, 4] {
            pool::set_num_threads(threads);
            let got = s.spmm_dense_tn(&x);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{n}x{d} at {threads} threads");
            }
        }
    }
}

#[test]
fn sparse_spmm_parity() {
    pool::force_pool();
    for &(m, k, n) in &[(1usize, 50usize, 50usize), (211, 103, 157), (60, 60, 60)] {
        let a = sparse(m, k, 7);
        let b = sparse(k, n, 8);
        let pooled = a.spmm(&b);
        let serial = reference::spmm_dense(&a, &b.to_dense());
        assert!(
            pooled.to_dense().sub(&serial).max_abs() < TOL,
            "sparse spmm parity failed at {m}x{k}x{n}"
        );
    }
}

#[test]
fn sparse_transpose_parity_is_exact() {
    pool::force_pool();
    for &(m, n) in &[(1usize, 80usize), (257, 61), (96, 1), (100, 100)] {
        let s = sparse(m, n, 9);
        let t = s.transpose();
        assert_eq!(t.to_dense(), s.to_dense().transpose(), "transpose {m}x{n}");
        assert_eq!(t.transpose(), s, "double transpose {m}x{n}");
    }
}

#[test]
fn normalize_parity_is_exact() {
    pool::force_pool();
    let s = sparse(257, 257, 11);
    let rn = s.row_normalize();
    for r in 0..s.rows() {
        let orig: f64 = s.row_entries(r).map(|(_, v)| v).sum();
        if s.row_nnz(r) > 0 && orig != 0.0 {
            let sum: f64 = rn.row_entries(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < TOL, "row {r} sums to {sum}");
        } else {
            // Empty rows and exactly-cancelling rows pass through unchanged.
            let unchanged: Vec<_> = s.row_entries(r).collect();
            assert_eq!(rn.row_entries(r).collect::<Vec<_>>(), unchanged);
        }
    }
    // Symmetric normalization against a dense reference.
    let sym = s.sym_normalize();
    let deg: Vec<f64> = s.to_dense().row_sums();
    let dense_ref = DenseMatrix::from_fn(s.rows(), s.cols(), |i, j| {
        let (di, dj) = (deg[i], deg[j]);
        if di > 0.0 && dj > 0.0 {
            s.get(i, j) / (di.sqrt() * dj.sqrt())
        } else {
            0.0
        }
    });
    assert!(sym.to_dense().sub(&dense_ref).max_abs() < TOL);
}

#[test]
fn dense_elementwise_and_reductions_parity() {
    pool::force_pool();
    // Big enough to clear the elementwise floor (1<<12 entries).
    let a = dense(257, 67, 12);
    let b = dense(257, 67, 13);

    let mapped = a.map(|v| v * 2.0 - 1.0);
    let zipped = a.zip(&b, |x, y| x * y + 0.5);
    for i in 0..a.len() {
        let (x, y) = (a.as_slice()[i], b.as_slice()[i]);
        assert_eq!(mapped.as_slice()[i], x * 2.0 - 1.0);
        assert_eq!(zipped.as_slice()[i], x * y + 0.5);
    }

    let serial_sum: f64 = a.as_slice().iter().sum();
    assert!((a.sum() - serial_sum).abs() < TOL * serial_sum.abs().max(1.0));
    let serial_dot: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x * y)
        .sum();
    assert!((a.dot(&b) - serial_dot).abs() < TOL * serial_dot.abs().max(1.0));

    assert_eq!(a.transpose().transpose(), a);

    let mut soft = a.clone();
    soft.softmax_rows_inplace();
    for row in soft.rows_iter() {
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

#[test]
fn pooled_results_stable_across_thread_caps() {
    pool::force_pool();
    let mut rng = seeded_rng(99);
    let a = gaussian_matrix(129, 65, 1.0, &mut rng);
    let b = gaussian_matrix(65, 33, 1.0, &mut rng);
    let wide = a.matmul(&b);
    // Capping participation must not change a single bit: the chunk
    // decomposition depends only on the problem shape.
    pool::set_num_threads(2);
    let narrow = a.matmul(&b);
    pool::set_num_threads(4);
    assert_eq!(wide, narrow);
}

#[test]
fn nested_parallel_for_does_not_deadlock() {
    pool::force_pool();
    use std::sync::atomic::{AtomicUsize, Ordering};
    let total = AtomicUsize::new(0);
    pool::parallel_for(16, 1, |lo, hi| {
        for _ in lo..hi {
            pool::parallel_for(32, 4, |ilo, ihi| {
                // Two levels down: still must run (inline) and terminate.
                pool::parallel_for(8, 2, |jlo, jhi| {
                    total.fetch_add((ihi - ilo) * (jhi - jlo), Ordering::Relaxed);
                });
            });
        }
    });
    // 16 outer × (sum over inner chunks of chunk_len) pairs…: every inner
    // element pairs with every innermost element: 16 * 32 * 8 with the
    // chunk-product decomposition summing to the same total.
    assert_eq!(total.load(Ordering::Relaxed), 16 * 32 * 8);
}

// ---------------------------------------------------------------------------
// SIMD vs scalar parity
// ---------------------------------------------------------------------------

/// Deterministic vector with modest values and exact zeros sprinkled in.
fn vec_pattern(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let x = (i * 31 + seed * 7) % 23;
            if x == 0 {
                0.0
            } else {
                x as f64 * 0.125 - 1.25
            }
        })
        .collect()
}

/// Forward-error envelope for a `len`-term reassociated FMA reduction:
/// `len · ~4096 ULP` relative to the scalar result. Loose enough for any
/// legal association, tight enough that a wrong element (not just a
/// reordered sum) fails by many orders of magnitude.
fn ulp_tol(len: usize, reference: f64) -> f64 {
    (len.max(1) as f64) * 1e-12 * reference.abs().max(1.0)
}

/// Lengths hitting every dispatch regime: empty, scalar tail only,
/// `len % 4 != 0` remainders, exact lane multiples, and past the 8- and
/// 16-wide unroll boundaries.
const SIMD_LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33, 100, 257];

/// Asserts the dispatched reduction kernels equal their scalar references
/// bitwise — the contract whenever dispatch has fallen back.
fn assert_reductions_bit_exact() {
    for &len in SIMD_LENS {
        let a = vec_pattern(len, 1);
        let b = vec_pattern(len, 2);
        assert_eq!(
            vector::dot(&a, &b).to_bits(),
            vector::dot_scalar(&a, &b).to_bits(),
            "dot len {len}"
        );
        assert_eq!(
            vector::squared_euclidean(&a, &b).to_bits(),
            vector::squared_euclidean_scalar(&a, &b).to_bits(),
            "squared_euclidean len {len}"
        );
        let mut y = vec_pattern(len, 3);
        let mut y_ref = y.clone();
        vector::axpy(&mut y, -0.75, &a);
        vector::axpy_scalar(&mut y_ref, -0.75, &a);
        assert_eq!(y, y_ref, "axpy len {len}");
    }
}

#[test]
fn simd_reductions_match_scalar_within_documented_ulp() {
    for &len in SIMD_LENS {
        let a = vec_pattern(len, 1);
        let b = vec_pattern(len, 2);

        let (d, d_ref) = (vector::dot(&a, &b), vector::dot_scalar(&a, &b));
        assert!((d - d_ref).abs() <= ulp_tol(len, d_ref), "dot len {len}");

        let (e, e_ref) = (
            vector::squared_euclidean(&a, &b),
            vector::squared_euclidean_scalar(&a, &b),
        );
        assert!(
            (e - e_ref).abs() <= ulp_tol(len, e_ref),
            "squared_euclidean len {len}"
        );

        // axpy is elementwise: one FMA per lane, so the envelope is 1 ULP
        // per element, not len-scaled.
        let mut y = vec_pattern(len, 3);
        let mut y_ref = y.clone();
        vector::axpy(&mut y, -0.75, &a);
        vector::axpy_scalar(&mut y_ref, -0.75, &a);
        for (i, (&s, &r)) in y.iter().zip(&y_ref).enumerate() {
            assert!((s - r).abs() <= ulp_tol(1, r), "axpy len {len} lane {i}");
        }
    }
    if !simd::avx2_active() {
        // Fallback dispatch must not merely be close — it must be the
        // scalar kernel.
        assert_reductions_bit_exact();
    }
}

#[test]
fn simd_batched_scans_match_scalar() {
    // (rows, dim) covering empty scans, empty queries, d % 4 != 0, and
    // past-unroll dims.
    for &(n, d) in &[
        (0usize, 8usize),
        (1, 0),
        (3, 1),
        (5, 3),
        (4, 5),
        (7, 13),
        (2, 96),
        (3, 257),
    ] {
        let q = vec_pattern(d, 4);
        let qn = vector::norm2(&q);
        let mut rows = vec_pattern(n * d, 5);
        if n > 0 {
            // Force one all-zero row so the zero-norm branch is exercised.
            rows[..d].fill(0.0);
        }
        let norms: Vec<f64> = (0..n)
            .map(|i| {
                let row = &rows[i * d..(i + 1) * d];
                vector::dot_scalar(row, row).sqrt()
            })
            .collect();

        let mut cos = vec![f64::NAN; n];
        let mut cos_ref = vec![f64::NAN; n];
        vector::cosine_scores(&q, qn, &rows, &norms, &mut cos);
        vector::cosine_scores_scalar(&q, qn, &rows, &norms, &mut cos_ref);
        for i in 0..n {
            assert!(
                (cos[i] - cos_ref[i]).abs() <= ulp_tol(d, cos_ref[i]),
                "cosine_scores ({n}x{d}) row {i}: {} vs {}",
                cos[i],
                cos_ref[i]
            );
        }
        if n > 0 && d > 0 {
            assert_eq!(cos[0], 0.0, "zero-norm row must score exactly 0");
        }

        let mut dots = vec![f64::NAN; n];
        let mut dots_ref = vec![f64::NAN; n];
        vector::dot_scores(&q, &rows, &mut dots);
        vector::dot_scores_scalar(&q, &rows, &mut dots_ref);
        for i in 0..n {
            assert!(
                (dots[i] - dots_ref[i]).abs() <= ulp_tol(d, dots_ref[i]),
                "dot_scores ({n}x{d}) row {i}"
            );
        }
        if d == 0 {
            // Empty query: both scans define the score as exactly 0.
            assert!(cos.iter().chain(&dots).all(|&v| v == 0.0));
        }
        if !simd::avx2_active() {
            assert_eq!(cos, cos_ref, "fallback cosine must be bit-exact");
            assert_eq!(dots, dots_ref, "fallback dot scan must be bit-exact");
        }
    }
}

#[test]
fn forced_fallback_is_bit_exact() {
    if std::env::var_os("ANECI_NO_SIMD").is_some() {
        // Child process (or an environment already forcing the fallback):
        // dispatch must have resolved to scalar, and every dispatched
        // kernel must be bitwise-identical to its reference.
        assert!(
            !simd::avx2_active(),
            "ANECI_NO_SIMD must force the scalar fallback"
        );
        assert_reductions_bit_exact();
        let q = vec_pattern(13, 4);
        let rows = vec_pattern(5 * 13, 5);
        let norms: Vec<f64> = rows
            .chunks_exact(13)
            .map(|r| vector::dot_scalar(r, r).sqrt())
            .collect();
        let (mut a, mut b) = (vec![0.0; 5], vec![0.0; 5]);
        vector::cosine_scores(&q, vector::norm2(&q), &rows, &norms, &mut a);
        vector::cosine_scores_scalar(&q, vector::norm2(&q), &rows, &norms, &mut b);
        assert_eq!(a, b);
        vector::dot_scores(&q, &rows, &mut a);
        vector::dot_scores_scalar(&q, &rows, &mut b);
        assert_eq!(a, b);
        return;
    }
    // Parent: rerun just this test in a child with the fallback forced.
    // Dispatch latches on first use, so the flag can't be flipped in-process.
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "forced_fallback_is_bit_exact"])
        .env("ANECI_NO_SIMD", "1")
        .output()
        .expect("spawn forced-fallback child");
    assert!(
        out.status.success(),
        "forced-fallback child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
