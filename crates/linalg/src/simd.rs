//! Runtime-dispatched SIMD vector kernels (AVX2 + FMA, `f64x4`).
//!
//! Every kernel here has a portable scalar counterpart in [`crate::vector`]
//! or [`crate::dense`]; the public entry points in those modules consult
//! [`avx2_active`] once per call and branch to the intrinsics below only
//! when the CPU reports both `avx2` and `fma` at runtime. Setting the
//! `ANECI_NO_SIMD` environment variable (to any value) before the process
//! starts forces the scalar fallbacks everywhere, which is how the parity
//! suite pins down bit-exact scalar behavior on wide machines.
//!
//! # Numerics
//!
//! The floating-point kernels but one use fused multiply-add and a
//! different summation association than the scalar kernels, so results
//! agree to within a few ULP (relative ~`len · ε`), not bit-for-bit. The
//! exception is `pair_rows`, behind
//! [`DenseMatrix::add_pair_rows`](crate::DenseMatrix::add_pair_rows) (the
//! pair-BCE backward): it enables AVX2 without FMA and keeps the scalar
//! loop's order, so its output is the same under both dispatches.
//! (`nonzero_union` builds integer index lists, the same under both
//! dispatches too.) What *is* guaranteed:
//!
//! * dispatch depends only on the CPU and the environment — never on the
//!   thread count, pool state, or input values — so every determinism
//!   guarantee in [`crate::pool`] (bit-identical results across thread
//!   counts on one machine) is preserved;
//! * for a fixed dispatch decision each kernel is a fixed-association
//!   reduction, so repeated calls are bit-identical.
//!
//! # Telemetry
//!
//! [`record_dispatch`] feeds `linalg.simd.dispatch.vector` /
//! `linalg.simd.dispatch.fallback` counters and the
//! `linalg.simd.dispatch.width` gauge into the `aneci-obs` registry. The
//! names carry a `dispatch` path segment on purpose: like the pool's
//! serial/pooled counters they describe machine-dependent execution choices,
//! so deterministic snapshots drop them automatically.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

const UNRESOLVED: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

/// Resolved dispatch decision; made once per process.
static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn resolve() -> u8 {
    let decided = if std::env::var_os("ANECI_NO_SIMD").is_some() {
        SCALAR
    } else {
        detect()
    };
    STATE.store(decided, Ordering::Relaxed);
    aneci_obs::gauge("linalg.simd.dispatch.width").set(if decided == AVX2 { 4.0 } else { 1.0 });
    decided
}

#[cfg(target_arch = "x86_64")]
fn detect() -> u8 {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        AVX2
    } else {
        SCALAR
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> u8 {
    SCALAR
}

/// True when the AVX2+FMA kernels are in use (CPU supports them and
/// `ANECI_NO_SIMD` is not set). One relaxed atomic load after the first
/// call, so it is cheap enough for per-kernel-call dispatch.
#[inline]
pub fn avx2_active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNRESOLVED => resolve() == AVX2,
        s => s == AVX2,
    }
}

/// Cached handles for the dispatch telemetry counters.
fn dispatch_counters() -> &'static (aneci_obs::Counter, aneci_obs::Counter) {
    static COUNTERS: OnceLock<(aneci_obs::Counter, aneci_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            aneci_obs::counter("linalg.simd.dispatch.vector"),
            aneci_obs::counter("linalg.simd.dispatch.fallback"),
        )
    })
}

/// Records one kernel-level dispatch decision (vector vs scalar fallback)
/// into the obs registry. Called once per high-level kernel invocation
/// (a matmul, a top-k scan, an index build) — not per inner dot product —
/// so the counters stay cheap and readable.
#[inline]
pub fn record_dispatch() {
    let c = dispatch_counters();
    if avx2_active() {
        c.0.inc();
    } else {
        c.1.inc();
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (x86_64 only; callers gate on `avx2_active`)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Dot product with four 4-lane accumulators (16 elements per
    /// iteration) and FMA. Lanes are combined in a fixed order, so the
    /// result is deterministic for a given input.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 8)),
                _mm256_loadu_pd(bp.add(i + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 12)),
                _mm256_loadu_pd(bp.add(i + 12)),
                acc3,
            );
            i += 16;
        }
        while i + 4 <= n {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            sum = f64::mul_add(*ap.add(i), *bp.add(i), sum);
            i += 1;
        }
        sum
    }

    /// `y[i] += alpha * x[i]` with FMA.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `y.len() == x.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        let n = y.len();
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                av,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        while i + 4 <= n {
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) = f64::mul_add(alpha, *xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// Squared Euclidean distance `‖a − b‖²`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 8 <= n {
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            let d1 = _mm256_sub_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
            );
            acc0 = _mm256_fmadd_pd(d0, d0, acc0);
            acc1 = _mm256_fmadd_pd(d1, d1, acc1);
            i += 8;
        }
        while i + 4 <= n {
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
            acc0 = _mm256_fmadd_pd(d0, d0, acc0);
            i += 4;
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        while i < n {
            let d = *ap.add(i) - *bp.add(i);
            sum = f64::mul_add(d, d, sum);
            i += 1;
        }
        sum
    }

    /// Batched cosine scan: scores a query against every `d`-length row of
    /// `rows` (a flat row-major block) with one dispatched call, so the
    /// per-row cost is just the inlined dot product plus one divide —
    /// `#[target_feature]` functions can't be inlined into plain callers,
    /// so a per-row `dot` call would pay call + `vzeroupper` overhead per
    /// row instead of per scan. Zero norms score 0, matching
    /// `vector::cosine_with_norms`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `rows.len() == norms.len() * d`,
    /// `out.len() == norms.len()`, `d == q.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cosine_scores(q: &[f64], qn: f64, rows: &[f64], norms: &[f64], out: &mut [f64]) {
        let d = q.len();
        debug_assert_eq!(rows.len(), norms.len() * d);
        debug_assert_eq!(out.len(), norms.len());
        for (i, row) in rows.chunks_exact(d.max(1)).enumerate() {
            let s = dot(q, row);
            let nr = *norms.get_unchecked(i);
            *out.get_unchecked_mut(i) = if qn == 0.0 || nr == 0.0 {
                0.0
            } else {
                s / (qn * nr)
            };
        }
    }

    /// Batched dot scan: `out[i] = q · rows[i]` over a flat row-major
    /// block, one dispatched call per scan (see [`cosine_scores`]).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA; `rows.len() == out.len() * d`,
    /// `d == q.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_scores(q: &[f64], rows: &[f64], out: &mut [f64]) {
        let d = q.len();
        debug_assert_eq!(rows.len(), out.len() * d);
        for (i, row) in rows.chunks_exact(d.max(1)).enumerate() {
            *out.get_unchecked_mut(i) = dot(q, row);
        }
    }

    /// The 2×12 matmul register tile with FMA:
    /// `out[i, j] += a_i[p] * b[p, j]` over `p ∈ ks`, for `i ∈ 0..2`,
    /// `j ∈ 0..12`. Six `f64x4` accumulators (two rows × three column
    /// vectors) plus two broadcasts and three `b` loads stay well inside the
    /// 16 ymm registers. The blocked matmul passes a contiguous `ks` for a
    /// full `k` block and the block's nonzero list otherwise.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. For every `p` that `ks` yields,
    /// `a0.add(p)` and `a1.add(p)` must be readable (the two `a` rows) and
    /// `b.add(p * b_stride)` must start ≥12 readable doubles (row `p` of `b`
    /// at the tile's first column); `out0`/`out1` must point at two
    /// exclusively-owned output row segments of ≥12 doubles.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_2x12(
        a0: *const f64,
        a1: *const f64,
        b: *const f64,
        b_stride: usize,
        ks: impl Iterator<Item = usize>,
        out0: *mut f64,
        out1: *mut f64,
    ) {
        let mut c00 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c02 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c12 = _mm256_setzero_pd();
        for p in ks {
            let brow = b.add(p * b_stride);
            let b0 = _mm256_loadu_pd(brow);
            let b1 = _mm256_loadu_pd(brow.add(4));
            let b2 = _mm256_loadu_pd(brow.add(8));
            let av0 = _mm256_set1_pd(*a0.add(p));
            c00 = _mm256_fmadd_pd(av0, b0, c00);
            c01 = _mm256_fmadd_pd(av0, b1, c01);
            c02 = _mm256_fmadd_pd(av0, b2, c02);
            let av1 = _mm256_set1_pd(*a1.add(p));
            c10 = _mm256_fmadd_pd(av1, b0, c10);
            c11 = _mm256_fmadd_pd(av1, b1, c11);
            c12 = _mm256_fmadd_pd(av1, b2, c12);
        }
        _mm256_storeu_pd(out0, _mm256_add_pd(_mm256_loadu_pd(out0), c00));
        _mm256_storeu_pd(
            out0.add(4),
            _mm256_add_pd(_mm256_loadu_pd(out0.add(4)), c01),
        );
        _mm256_storeu_pd(
            out0.add(8),
            _mm256_add_pd(_mm256_loadu_pd(out0.add(8)), c02),
        );
        _mm256_storeu_pd(out1, _mm256_add_pd(_mm256_loadu_pd(out1), c10));
        _mm256_storeu_pd(
            out1.add(4),
            _mm256_add_pd(_mm256_loadu_pd(out1.add(4)), c11),
        );
        _mm256_storeu_pd(
            out1.add(8),
            _mm256_add_pd(_mm256_loadu_pd(out1.add(8)), c12),
        );
    }

    /// For each `(i, j, c)` of `pairs`, in order: row `i` of `out` gains
    /// `c` times row `j` of `x`, then row `j` of `out` gains `c` times row
    /// `i` of `x` (rows `d` wide, row-major). Each lane multiplies, rounds,
    /// then adds (`vmulpd` then `vaddpd`), and the `d % 4` tail runs the
    /// scalar `o += c * v`; Rust never fuses that statement, so this is the
    /// scalar loop's arithmetic four lanes at a time, with the same bits.
    /// Only `avx2` is enabled, so no FMA can be emitted here.
    ///
    /// # Safety
    /// The CPU must support AVX2; `out.len() == x.len()`, a multiple of
    /// `d`. Row indices are bounds-checked.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pair_rows(
        out: &mut [f64],
        x: &[f64],
        d: usize,
        pairs: impl Iterator<Item = (usize, usize, f64)>,
    ) {
        debug_assert_eq!(out.len(), x.len());
        for (i, j, c) in pairs {
            add_scaled_row(&mut out[i * d..(i + 1) * d], c, &x[j * d..(j + 1) * d]);
            add_scaled_row(&mut out[j * d..(j + 1) * d], c, &x[i * d..(i + 1) * d]);
        }
    }

    /// `y[k] += c * x[k]`, multiply then add, four lanes at a time.
    ///
    /// # Safety
    /// The CPU must support AVX2; `y.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add_scaled_row(y: &mut [f64], c: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        let n = y.len();
        let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
        let cv = _mm256_set1_pd(c);
        let mut k = 0;
        while k + 4 <= n {
            let prod = _mm256_mul_pd(cv, _mm256_loadu_pd(xp.add(k)));
            _mm256_storeu_pd(yp.add(k), _mm256_add_pd(_mm256_loadu_pd(yp.add(k)), prod));
            k += 4;
        }
        while k < n {
            *yp.add(k) += c * *xp.add(k);
            k += 1;
        }
    }

    /// `PACK[mask]` lists the set bits of a 4-bit mask, ascending, packed
    /// to the front (the lanes past its popcount are never kept).
    const PACK: [[u64; 4]; 16] = {
        let mut table = [[0u64; 4]; 16];
        let mut mask = 0;
        while mask < 16 {
            let (mut lane, mut len) = (0, 0);
            while lane < 4 {
                if mask & (1 << lane) != 0 {
                    table[mask][len] = lane as u64;
                    len += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    /// Writes to `ks`, ascending, every `base + i` where `r0[i]` or
    /// `r1[i]` is not `0.0` (NaN counts as nonzero, `-0.0` as zero). Each
    /// group of four compares to one movemask, whose indices are written
    /// four at a time from [`PACK`] and kept up to its popcount.
    ///
    /// # Safety
    /// The CPU must support AVX2; `r0.len() == r1.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nonzero_union(r0: &[f64], r1: &[f64], base: usize, ks: &mut Vec<usize>) {
        debug_assert_eq!(r0.len(), r1.len());
        let n = r0.len();
        ks.clear();
        ks.reserve(n);
        let (p0, p1, out) = (r0.as_ptr(), r1.as_ptr(), ks.as_mut_ptr());
        let zero = _mm256_setzero_pd();
        let (mut i, mut len) = (0, 0);
        while i + 4 <= n {
            let nz0 = _mm256_cmp_pd::<_CMP_NEQ_UQ>(_mm256_loadu_pd(p0.add(i)), zero);
            let nz1 = _mm256_cmp_pd::<_CMP_NEQ_UQ>(_mm256_loadu_pd(p1.add(i)), zero);
            let mask = _mm256_movemask_pd(_mm256_or_pd(nz0, nz1)) as usize;
            let lanes = _mm256_loadu_si256(PACK[mask].as_ptr().cast());
            let idx = _mm256_add_epi64(lanes, _mm256_set1_epi64x((base + i) as i64));
            // SAFETY: `len ≤ i` and `i + 4 ≤ n ≤ capacity`, so the four
            // slots written lie inside the reserved capacity.
            _mm256_storeu_si256(out.add(len).cast(), idx);
            len += mask.count_ones() as usize;
            i += 4;
        }
        while i < n {
            if *p0.add(i) != 0.0 || *p1.add(i) != 0.0 {
                *out.add(len) = base + i;
                len += 1;
            }
            i += 1;
        }
        // SAFETY: every slot below `len` was written above.
        ks.set_len(len);
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::{
    axpy as axpy_avx2, cosine_scores as cosine_scores_avx2, dot as dot_avx2,
    dot_scores as dot_scores_avx2, squared_euclidean as squared_euclidean_avx2,
};
#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{
    nonzero_union as nonzero_union_avx2, pair_rows as pair_rows_avx2, tile_2x12 as tile_2x12_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_stable_and_honors_env() {
        let first = avx2_active();
        // Resolution is cached: repeated queries must agree.
        for _ in 0..4 {
            assert_eq!(avx2_active(), first);
        }
        if std::env::var_os("ANECI_NO_SIMD").is_some() {
            assert!(!first, "ANECI_NO_SIMD must force the scalar fallback");
        }
    }

    #[test]
    fn dispatch_metrics_are_dropped_from_deterministic_snapshots() {
        record_dispatch();
        let snap = aneci_obs::global().snapshot();
        // The raw snapshot sees them…
        assert!(snap
            .names()
            .iter()
            .any(|n| n.starts_with("linalg.simd.dispatch")));
        // …the deterministic view must not (machine-dependent values).
        let det = snap.deterministic();
        assert!(
            !det.names()
                .iter()
                .any(|n| n.starts_with("linalg.simd.dispatch")),
            "simd dispatch metrics leaked into the deterministic snapshot"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_within_ulp() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        for len in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 31, 32, 33, 100, 257,
        ] {
            let a: Vec<f64> = (0..len)
                .map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.37)
                .collect();
            let b: Vec<f64> = (0..len)
                .map(|i| ((i * 53 % 23) as f64 - 11.0) * 0.21)
                .collect();
            let scalar: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let simd = unsafe { dot_avx2(&a, &b) };
            let tol = 1e-13 * (len as f64 + 1.0) * scalar.abs().max(1.0);
            assert!(
                (simd - scalar).abs() <= tol,
                "dot len {len}: {simd} vs {scalar}"
            );

            let sq_scalar: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let sq_simd = unsafe { squared_euclidean_avx2(&a, &b) };
            let tol = 1e-13 * (len as f64 + 1.0) * sq_scalar.max(1.0);
            assert!((sq_simd - sq_scalar).abs() <= tol, "sqeuclid len {len}");

            let mut y_simd = b.clone();
            let mut y_scalar = b.clone();
            unsafe { axpy_avx2(&mut y_simd, 0.73, &a) };
            for (y, &x) in y_scalar.iter_mut().zip(&a) {
                *y += 0.73 * x;
            }
            for (i, (&s, &r)) in y_simd.iter().zip(&y_scalar).enumerate() {
                assert!(
                    (s - r).abs() <= 1e-14 * r.abs().max(1.0),
                    "axpy len {len} lane {i}"
                );
            }
        }
    }
}
