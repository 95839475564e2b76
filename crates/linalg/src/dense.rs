//! Dense, row-major, `f64` matrices.
//!
//! This is the workhorse type of the whole reproduction: GCN activations,
//! weight matrices, embeddings and membership matrices are all [`DenseMatrix`].
//! The layout is plain row-major `Vec<f64>` so rows are contiguous and can be
//! handed out as slices, which the pooled kernels rely on: workers split
//! the *output rows*, so each chunk writes a disjoint region, and chunk
//! boundaries depend only on the problem size, so results are identical
//! across thread counts.

use crate::kernel_stats::{self, Kernel};
use crate::pool::{self, SendPtr};
use crate::{simd, vector};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

/// Elementwise kernels below this many entries always run serially (they are
/// memory-bound, so the pool threshold is consulted on top of this floor).
const ELEMENTWISE_MIN: usize = 1 << 12;

/// Flat-array grain: at most 64 chunks, at least 4096 entries per chunk.
#[inline]
fn flat_grain(len: usize) -> usize {
    len.div_ceil(64).max(1 << 12)
}

#[inline]
fn par_elementwise(len: usize) -> bool {
    len >= ELEMENTWISE_MIN && pool::should_parallelize(len)
}

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl DenseMatrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a single-column matrix from a vector.
    pub fn column(values: &[f64]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Checks the storage invariant (`data.len() == rows * cols`) without
    /// panicking. Constructors enforce it; the check exists for
    /// serde-deserialized matrices, where a malformed file must turn into an
    /// `Err` from the load path rather than a row-slicing panic later.
    pub fn check_invariants(&self) -> Result<(), String> {
        let want = self
            .rows
            .checked_mul(self.cols)
            .ok_or_else(|| format!("shape {}x{} overflows", self.rows, self.cols))?;
        if self.data.len() != want {
            return Err(format!(
                "data length {} does not match shape {}x{}",
                self.data.len(),
                self.rows,
                self.cols
            ));
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Row `r` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        if par_elementwise(self.data.len()) {
            // Split the *input rows* across chunks: chunk `lo..hi` writes
            // the output columns `lo..hi`, a disjoint entry set per chunk.
            let ptr = SendPtr(out.data.as_mut_ptr());
            let (rows, cols) = (self.rows, self.cols);
            let grain = pool::row_grain(rows, 32);
            pool::parallel_for(rows, grain, move |lo, hi| {
                // SAFETY: entries `(c, r)` for `r ∈ lo..hi` are disjoint
                // across chunks and `out` outlives the call.
                let out_data = ptr.get();
                transpose_block(&self.data, out_data, rows, cols, lo, hi);
            });
        } else {
            transpose_block(
                &self.data,
                out.data.as_mut_ptr(),
                self.rows,
                self.cols,
                0,
                self.rows,
            );
        }
        out
    }

    /// Elementwise map into a new matrix (pooled above the elementwise
    /// threshold; the closure must therefore be `Sync`).
    pub fn map(&self, f: impl Fn(f64) -> f64 + Sync) -> DenseMatrix {
        if par_elementwise(self.data.len()) {
            let mut out = DenseMatrix::zeros(self.rows, self.cols);
            let ptr = SendPtr(out.data.as_mut_ptr());
            pool::parallel_for(self.data.len(), flat_grain(self.data.len()), |lo, hi| {
                // SAFETY: chunks cover disjoint ranges of `out.data`.
                let dst = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
                for (o, &v) in dst.iter_mut().zip(&self.data[lo..hi]) {
                    *o = f(v);
                }
            });
            return out;
        }
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64 + Sync) {
        if par_elementwise(self.data.len()) {
            let ptr = SendPtr(self.data.as_mut_ptr());
            pool::parallel_for(self.data.len(), flat_grain(self.data.len()), |lo, hi| {
                // SAFETY: chunks cover disjoint ranges of `self.data`.
                let dst = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
                for v in dst {
                    *v = f(*v);
                }
            });
            return;
        }
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self + other`, elementwise.
    pub fn add(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`, elementwise.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip(other, |a, b| a - b)
    }

    /// `self ⊙ other` (Hadamard product).
    pub fn hadamard(&self, other: &DenseMatrix) -> DenseMatrix {
        self.zip(other, |a, b| a * b)
    }

    /// Generic elementwise zip of two same-shape matrices (pooled above the
    /// elementwise threshold; the closure must therefore be `Sync`).
    pub fn zip(&self, other: &DenseMatrix, f: impl Fn(f64, f64) -> f64 + Sync) -> DenseMatrix {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        if par_elementwise(self.data.len()) {
            let mut out = DenseMatrix::zeros(self.rows, self.cols);
            let ptr = SendPtr(out.data.as_mut_ptr());
            pool::parallel_for(self.data.len(), flat_grain(self.data.len()), |lo, hi| {
                // SAFETY: chunks cover disjoint ranges of `out.data`.
                let dst = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
                for ((o, &a), &b) in dst
                    .iter_mut()
                    .zip(&self.data[lo..hi])
                    .zip(&other.data[lo..hi])
                {
                    *o = f(a, b);
                }
            });
            return out;
        }
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Generic elementwise zip in place: `self[i] = f(self[i], other[i])`.
    pub fn zip_inplace(&mut self, other: &DenseMatrix, f: impl Fn(f64, f64) -> f64 + Sync) {
        assert_eq!(self.shape(), other.shape(), "zip_inplace: shape mismatch");
        if par_elementwise(self.data.len()) {
            let ptr = SendPtr(self.data.as_mut_ptr());
            pool::parallel_for(self.data.len(), flat_grain(self.data.len()), |lo, hi| {
                // SAFETY: chunks cover disjoint ranges of `self.data`.
                let dst = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
                for (a, &b) in dst.iter_mut().zip(&other.data[lo..hi]) {
                    *a = f(*a, b);
                }
            });
            return;
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &DenseMatrix) {
        self.zip_inplace(other, |a, b| a + b);
    }

    /// `self += alpha * other`, elementwise (axpy).
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) {
        self.zip_inplace(other, |a, b| a + alpha * b);
    }

    /// For each `(i, j, c)` of `pairs`, in order: row `i` gains `c` times
    /// row `j` of `x`, then row `j` gains `c` times row `i` of `x` (the
    /// gradient scatter of a loss over row pairs). Serial, in pair order, so
    /// every row sums its terms in the same order on every run. Each product
    /// is rounded before it is added, under either SIMD dispatch, so the
    /// AVX2 path gives the scalar loop's bits.
    pub fn add_pair_rows(
        &mut self,
        x: &DenseMatrix,
        pairs: impl Iterator<Item = (usize, usize, f64)>,
    ) {
        assert_eq!(self.shape(), x.shape(), "add_pair_rows: shape mismatch");
        simd::record_dispatch();
        #[cfg(target_arch = "x86_64")]
        if simd::avx2_active() {
            // SAFETY: the dispatch verified AVX2, and the shapes agree.
            return unsafe { simd::pair_rows_avx2(&mut self.data, &x.data, self.cols, pairs) };
        }
        for (i, j, c) in pairs {
            for (o, &v) in self.row_mut(i).iter_mut().zip(x.row(j)) {
                *o += c * v;
            }
            for (o, &v) in self.row_mut(j).iter_mut().zip(x.row(i)) {
                *o += c * v;
            }
        }
    }

    /// `alpha * self` into a new matrix.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        self.map(|v| v * alpha)
    }

    /// `self *= alpha` in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        self.map_inplace(|v| v * alpha);
    }

    /// Sum of all entries.
    ///
    /// Above the elementwise threshold this is a chunked reduction: partial
    /// sums are computed per chunk and combined in chunk order, so the result
    /// is deterministic across thread counts but may round differently from a
    /// strict left-to-right serial sum (within ~1e-12 relative).
    pub fn sum(&self) -> f64 {
        if par_elementwise(self.data.len()) {
            let partials = pool::parallel_map_chunks(
                self.data.len(),
                flat_grain(self.data.len()),
                |lo, hi| self.data[lo..hi].iter().sum::<f64>(),
            );
            return partials.iter().sum();
        }
        self.data.iter().sum()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius inner product `<self, other>` (chunk-ordered reduction
    /// above the elementwise threshold, see [`DenseMatrix::sum`]).
    pub fn dot(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot: shape mismatch");
        if par_elementwise(self.data.len()) {
            let partials = pool::parallel_map_chunks(
                self.data.len(),
                flat_grain(self.data.len()),
                |lo, hi| {
                    self.data[lo..hi]
                        .iter()
                        .zip(&other.data[lo..hi])
                        .map(|(&a, &b)| a * b)
                        .sum::<f64>()
                },
            );
            return partials.iter().sum();
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "trace: matrix is not square");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }

    /// Dense matrix product `self * other`: cache-blocked microkernel,
    /// pooled over output rows above the pool threshold.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimension mismatch {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k) = self.shape();
        let n = other.cols;
        let work = m * k * n;
        kernel_stats::record(Kernel::Matmul, 2 * work as u64, || {
            simd::record_dispatch();
            let mut out = DenseMatrix::zeros(m, n);
            let ptr = SendPtr(out.data.as_mut_ptr());
            if pool::should_parallelize(work) {
                pool::parallel_for(m, pool::row_grain(m, 4), |lo, hi| {
                    // SAFETY (in callee): chunks own disjoint output row ranges.
                    matmul_rows_into(self, other, lo, hi, ptr.get());
                });
            } else {
                matmul_rows_into(self, other, 0, m, ptr.get());
            }
            out
        })
    }

    /// `selfᵀ * other`, computed as a fixed sequence of row-block partial
    /// products summed in block order.
    ///
    /// The block decomposition depends only on the shape — never on the
    /// thread count or the parallel threshold — so the result is
    /// bit-identical whether the blocks execute pooled or serial. (An
    /// earlier version switched to a direct serial accumulation below the
    /// threshold, which rounded the long reduction differently and made
    /// seeded runs diverge across thread counts.) Rounding may differ from
    /// the strictly-serial [`crate::reference::matmul_tn`] by ~1e-12
    /// relative. Each row of `self` adds only its nonzero entries, found by
    /// the same scan the blocked product uses.
    pub fn matmul_tn(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: row mismatch {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let m = self.rows;
        let (p, q) = (self.cols, other.cols);
        let work = m * p * q;
        kernel_stats::record(Kernel::MatmulTn, 2 * work as u64, || {
            simd::record_dispatch();
            let mut out = DenseMatrix::zeros(p, q);
            let size = p * q;
            if m == 0 || size == 0 {
                return out;
            }
            // Each block accumulates a full `p × q` partial, so keep the
            // block count low: ≤8 blocks bounds both the extra memory and
            // the final block-ordered reduction while still feeding the
            // pool. Block 0 accumulates into `out`, block `i ≥ 1` into
            // partial `i − 1`.
            let grain = m.div_ceil(8).max(32);
            let blocks = m.div_ceil(grain);
            TN_PARTIALS.with_borrow_mut(|partials| {
                if partials.len() < (blocks - 1) * size {
                    partials.resize((blocks - 1) * size, 0.0);
                }
                let dst = SendPtr(out.data.as_mut_ptr());
                let scratch = SendPtr(partials.as_mut_ptr());
                pool::parallel_for(m, grain, |lo, hi| {
                    let block = lo / grain;
                    // SAFETY: each block owns its accumulator: `out` for
                    // block 0, partial `block − 1` of the `blocks − 1` in
                    // `partials` otherwise; both outlive the parallel region.
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
                        let (a_row, b_row) = (self.row(r), other.row(r));
                        nonzero_union(a_row, a_row, 0, &mut nonzero);
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

    /// Row-wise softmax (each output row sums to 1). Numerically stabilized.
    pub fn softmax_rows(&self) -> DenseMatrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax (rows are independent, so the pooled path
    /// is bit-identical to serial).
    pub fn softmax_rows_inplace(&mut self) {
        let cols = self.cols.max(1);
        // `exp` makes softmax compute-heavier than plain elementwise ops, so
        // weight the work estimate accordingly.
        if self.cols > 0 && par_elementwise(self.data.len() * 8) {
            self.par_rows_mut(8 * self.cols, |_r, row| softmax_row(row));
            return;
        }
        for row in self.data.chunks_exact_mut(cols) {
            softmax_row(row);
        }
    }

    /// Applies `f` to every row in parallel when `rows * work_per_row`
    /// clears the pool threshold, serially otherwise. Rows are disjoint, so
    /// the pooled path produces output identical to the serial path.
    ///
    /// `work_per_row` is an estimate of flops per row used only for the
    /// serial/parallel decision.
    pub fn par_rows_mut(&mut self, work_per_row: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let (rows, cols) = (self.rows, self.cols);
        if cols == 0 || rows == 0 {
            return;
        }
        if pool::should_parallelize(rows.saturating_mul(work_per_row.max(1))) {
            let ptr = SendPtr(self.data.as_mut_ptr());
            let grain = pool::row_grain(rows, 1);
            pool::parallel_for(rows, grain, |lo, hi| {
                // SAFETY: row ranges are disjoint across chunks.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(ptr.get().add(lo * cols), (hi - lo) * cols)
                };
                for (i, row) in dst.chunks_exact_mut(cols).enumerate() {
                    f(lo + i, row);
                }
            });
            return;
        }
        for (r, row) in self.data.chunks_exact_mut(cols).enumerate() {
            f(r, row);
        }
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        self.rows_iter().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hstack(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        DenseMatrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Selects a subset of rows into a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Index of the maximum entry in each row (ties broken toward the lower
    /// index). Returns an empty vector for zero-column matrices.
    pub fn argmax_rows(&self) -> Vec<usize> {
        if self.cols == 0 {
            return vec![0; self.rows];
        }
        self.rows_iter()
            .map(|row| {
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// True when every entry is finite (no NaN/∞) — useful as a training
    /// sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

thread_local! {
    /// The calling thread's [`DenseMatrix::matmul_tn`] partials: kept
    /// across calls, so a call does not fault in fresh pages for them. At
    /// most `7 · a.cols · b.cols` doubles (5.1 MB at Cora's 1433×64).
    static TN_PARTIALS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Stabilized softmax of one row, in place.
#[inline]
fn softmax_row(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Transposes input rows `lo..hi` of the `rows`×`cols` row-major `src` into
/// the corresponding output *columns* of the `cols`×`rows` buffer at `dst`,
/// one 32×32 cache block at a time so both sides stay cache-resident.
///
/// Callers must guarantee exclusive access to output entries `(c, r)` for
/// `r ∈ lo..hi` — chunks owning disjoint input-row ranges satisfy this.
fn transpose_block(src: &[f64], dst: *mut f64, rows: usize, cols: usize, lo: usize, hi: usize) {
    const TB: usize = 32;
    let mut r0 = lo;
    while r0 < hi {
        let r1 = (r0 + TB).min(hi);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    // SAFETY: `(c, r)` with `r ∈ lo..hi` is owned by this
                    // call per the contract above, and `dst` has
                    // `rows * cols` entries.
                    unsafe {
                        *dst.add(c * rows + r) = src[r * cols + c];
                    }
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

// ---------------------------------------------------------------------------
// Blocked matmul microkernel
// ---------------------------------------------------------------------------

/// Register-tile height (rows of `a` per microkernel invocation). Tuned by
/// sweep at 512³: 2×12 beats 4×8 — fewer accumulators spill on plain
/// x86-64 (SSE2) codegen while the wider tile keeps `b` reuse high.
const MR: usize = 2;
/// Register-tile width (columns of `b` per microkernel invocation).
const NR: usize = 12;
/// K-dimension cache block: `KC` rows of `b` (~`KC * NR * 8` bytes per tile
/// column panel) stay in L1/L2 while a whole row panel streams past.
const KC: usize = 128;

/// Computes rows `lo..hi` of `a * b`, accumulating into the full
/// `a.rows × b.cols` row-major buffer at `out` (rows `lo..hi` must be
/// zero-initialized or hold a partial sum to accumulate onto).
///
/// Uses an `MR`×`NR` register-blocked microkernel with `KC` k-tiling for
/// shapes that fit it and falls back to the streaming axpy loop otherwise.
/// Each row pair walks, per `KC` block, only the `k` where one of its rows
/// is nonzero ([`nonzero_union`]): an empty list skips the pair-block, a
/// full one runs the contiguous tile, and any other list drives the same
/// tile through its indices. A skipped `k` would add exactly nothing, so
/// the output is the one the contiguous tile gives (DESIGN.md §4.6). For
/// a fixed `(lo, hi)` the result does not depend on how other row ranges
/// are scheduled, so pooled calls are deterministic across thread counts.
///
/// Callers must guarantee exclusive access to output rows `lo..hi`.
fn matmul_rows_into(a: &DenseMatrix, b: &DenseMatrix, lo: usize, hi: usize, out: *mut f64) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert!(hi <= a.rows);
    let (k_dim, n) = (a.cols, b.cols);
    // Small shapes: tile bookkeeping costs more than it saves, and thin
    // matrices can't fill a register tile. Stream each row over every `k`.
    if k_dim < 8 || n < NR || hi - lo < MR {
        for r in lo..hi {
            axpy_row_range(a, b, r, 0..k_dim, 0..n, out);
        }
        return;
    }
    // SIMD dispatch is resolved once per call: it depends only on the CPU
    // and `ANECI_NO_SIMD`, so pooled and serial executions of the same
    // ranges stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = crate::simd::avx2_active();
    #[cfg(not(target_arch = "x86_64"))]
    let use_avx2 = false;
    let mut ks = Vec::with_capacity(KC);
    let mut kk = 0;
    while kk < k_dim {
        let kc = KC.min(k_dim - kk);
        let block = |r: usize| &a.row(r)[kk..kk + kc];
        let mut r = lo;
        while r + MR <= hi {
            nonzero_union(block(r), block(r + 1), kk, &mut ks);
            // SAFETY (both calls): rows `r..r+MR` lie in `lo..hi`, which
            // this call owns exclusively; every `k` lies in `kk..kk + kc`,
            // below `a.cols`; `use_avx2` is the dispatch's answer.
            if ks.len() == kc {
                unsafe { row_pair(a, b, r, kk..kk + kc, use_avx2, out) };
            } else if !ks.is_empty() {
                unsafe { row_pair(a, b, r, ks.iter().copied(), use_avx2, out) };
            }
            r += MR;
        }
        for ri in r..hi {
            nonzero_union(block(ri), block(ri), kk, &mut ks);
            axpy_row_range(a, b, ri, ks.iter().copied(), 0..n, out);
        }
        kk += kc;
    }
}

/// Writes to `ks`, ascending, every `base + i` where `r0[i]` or `r1[i]`
/// is not `0.0` (NaN counts as nonzero, `-0.0` as zero). The list is
/// integer data, so both SIMD dispatches build the same one; pass one row
/// twice for its own nonzeros.
fn nonzero_union(r0: &[f64], r1: &[f64], base: usize, ks: &mut Vec<usize>) {
    debug_assert_eq!(r0.len(), r1.len());
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_active() {
        // SAFETY: the dispatch verified AVX2, and the lengths agree.
        return unsafe { crate::simd::nonzero_union_avx2(r0, r1, base, ks) };
    }
    ks.clear();
    let nonzero = |(i, (&x, &y)): (usize, (&f64, &f64))| (x != 0.0 || y != 0.0).then_some(base + i);
    ks.extend(r0.iter().zip(r1).enumerate().filter_map(nonzero));
}

/// Rows `r` and `r + 1` of `a * b` over the `k` that `ks` yields: the
/// register tile across every full `NR`-column panel, the axpy edge kernel
/// on the remaining `n % NR` columns.
///
/// # Safety
/// The caller must own output rows `r..r+MR` exclusively; `r + MR <= a.rows`
/// must hold, every `k` in `ks` must be below `a.cols`, and `use_avx2`
/// must only be set when [`crate::simd::avx2_active`] is.
unsafe fn row_pair(
    a: &DenseMatrix,
    b: &DenseMatrix,
    r: usize,
    ks: impl Iterator<Item = usize> + Clone,
    use_avx2: bool,
    out: *mut f64,
) {
    let n = b.cols;
    let mut c = 0;
    while c + NR <= n {
        // SAFETY: the caller's contract covers the rows, the `k` and the
        // dispatch, and `c + NR <= n` keeps the tile's columns in bounds.
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            crate::simd::tile_2x12_avx2(
                a.data.as_ptr().add(r * a.cols),
                a.data.as_ptr().add((r + 1) * a.cols),
                b.data.as_ptr().add(c),
                n,
                ks.clone(),
                out.add(r * n + c),
                out.add((r + 1) * n + c),
            );
            c += NR;
            continue;
        }
        let _ = use_avx2;
        tile_mr_nr(a, b, r, c, ks.clone(), out);
        c += NR;
    }
    if c < n {
        for ri in r..r + MR {
            axpy_row_range(a, b, ri, ks.clone(), c..n, out);
        }
    }
}

/// `MR`×`NR` register tile: accumulates
/// `out[r..r+MR, c..c+NR] += a[r..r+MR, p] * b[p, c..c+NR]` over `p ∈ ks`.
/// Every `p` the caller passes has a nonzero in one of the rows, so the
/// tile needs no zero test of its own; a per-row skip inside it would
/// defeat the compiler's software pipelining and cost more than it saves.
///
/// # Safety
/// The caller must own output rows `r..r+MR` exclusively; `r + MR <= a.rows`,
/// `c + NR <= b.cols` and every `p < a.cols` must hold.
#[inline]
unsafe fn tile_mr_nr(
    a: &DenseMatrix,
    b: &DenseMatrix,
    r: usize,
    c: usize,
    ks: impl Iterator<Item = usize>,
    out: *mut f64,
) {
    let n = b.cols;
    let mut acc = [[0.0_f64; NR]; MR];
    for p in ks {
        let mut av = [0.0_f64; MR];
        for (i, v) in av.iter_mut().enumerate() {
            *v = *a.data.get_unchecked((r + i) * a.cols + p);
        }
        let b_row = std::slice::from_raw_parts(b.data.as_ptr().add(p * n + c), NR);
        for (acc_row, &ai) in acc.iter_mut().zip(&av) {
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += ai * bv;
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        let dst = out.add((r + i) * n + c);
        for (j, &v) in acc_row.iter().enumerate() {
            *dst.add(j) += v;
        }
    }
}

/// Scalar edge kernel: accumulates
/// `out[r, cs] += a[r, p] * b[p, cs]` over the `p` that `ks` yields and the
/// column range `cs`, skipping a zero `a[r, p]`. The caller must own
/// output row `r` exclusively.
fn axpy_row_range(
    a: &DenseMatrix,
    b: &DenseMatrix,
    r: usize,
    ks: impl Iterator<Item = usize>,
    cs: std::ops::Range<usize>,
    out: *mut f64,
) {
    let n = b.cols;
    let (c0, c1) = (cs.start, cs.end);
    // SAFETY: the caller owns row `r`, and `c0..c1` is in bounds.
    let out_row = unsafe { std::slice::from_raw_parts_mut(out.add(r * n + c0), c1 - c0) };
    for p in ks {
        let av = a.data[r * a.cols + p];
        if av == 0.0 {
            continue;
        }
        let b_row = &b.data[p * n + c0..p * n + c1];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, DenseMatrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = DenseMatrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.5 - 2.0);
        let b = DenseMatrix::from_fn(5, 4, |r, c| (r + c) as f64 * 0.25);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.sub(&slow).max_abs() < 1e-12);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = DenseMatrix::from_fn(7, 11, |r, c| (r * 13 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_positive() {
        let m =
            DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0], &[100.0, 100.0, 100.0]]);
        let s = m.softmax_rows();
        for row in s.rows_iter() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Uniform logits give uniform probabilities.
        for &v in s.row(2) {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let m = DenseMatrix::from_rows(&[&[1e8, 1e8 + 1.0]]);
        let s = m.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_sums() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.sum(), 10.0);
        assert!((m.mean() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn trace_and_dot() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.trace(), 5.0);
        assert_eq!(m.dot(&m), 1.0 + 4.0 + 9.0 + 16.0);
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let m = DenseMatrix::from_rows(&[&[0.5, 0.5, 0.1], &[0.0, 1.0, 0.2]]);
        assert_eq!(m.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn select_rows_copies_expected_rows() {
        let m = DenseMatrix::from_fn(5, 2, |r, c| (r * 2 + c) as f64);
        let s = m.select_rows(&[4, 0]);
        assert_eq!(s, DenseMatrix::from_rows(&[&[8.0, 9.0], &[0.0, 1.0]]));
    }

    #[test]
    fn hstack_concatenates() {
        let a = DenseMatrix::from_rows(&[&[1.0], &[2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let h = a.hstack(&b);
        assert_eq!(
            h,
            DenseMatrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]])
        );
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = DenseMatrix::filled(2, 2, 1.0);
        let b = DenseMatrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, DenseMatrix::filled(2, 2, 2.0));
        assert_eq!(a.scale(2.0), DenseMatrix::filled(2, 2, 4.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn blocked_matmul_rows_matches_naive() {
        // Shapes chosen to hit the tile path, every edge case (row/col/k
        // remainders), and the small-shape fallback.
        for &(m, k, n) in &[
            (1usize, 9usize, 8usize),
            (4, 8, 8),
            (5, 17, 13),
            (12, 135, 33),
            (7, 256, 8),
        ] {
            let a = DenseMatrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 11) as f64 - 5.0);
            let b = DenseMatrix::from_fn(k, n, |r, c| ((r * 13 + c * 3) % 7) as f64 * 0.25 - 0.5);
            let mut blocked = DenseMatrix::zeros(m, n);
            matmul_rows_into(&a, &b, 0, m, blocked.as_mut_slice().as_mut_ptr());
            let naive = crate::reference::matmul(&a, &b);
            assert!(
                blocked.sub(&naive).max_abs() < 1e-10,
                "blocked kernel diverged on {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn zip_inplace_matches_zip() {
        let a = DenseMatrix::from_fn(6, 5, |r, c| (r + c) as f64);
        let b = DenseMatrix::from_fn(6, 5, |r, c| (r * c) as f64 * 0.5);
        let mut c = a.clone();
        c.zip_inplace(&b, |x, y| x * 2.0 - y);
        assert_eq!(c, a.zip(&b, |x, y| x * 2.0 - y));
    }
}
