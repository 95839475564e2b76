//! Compressed sparse row (CSR) matrices.
//!
//! Adjacency matrices, normalized propagation operators and high-order
//! proximity matrices are all stored in CSR form. Column indices inside every
//! row are kept **sorted and deduplicated** — every constructor enforces this
//! invariant and the property tests in this module defend it.

use crate::dense::DenseMatrix;
use crate::kernel_stats::{self, Kernel};
use crate::pool::{self, SendPtr};
use crate::{simd, vector};
use serde::{Deserialize, Serialize};

/// Chunk-nnz floor below which `spmm_rows` skips its output pre-sizing
/// pass. The estimate costs one degree lookup per stored entry — about a
/// tenth of the multiply work on sparse rows — which only pays for itself
/// once the output is big enough for doubling-growth reallocs to dominate.
const SPMM_PRESIZE_MIN_NNZ: usize = 1 << 16;

/// Per-row-range kernel output: per-row entry counts plus the concatenated
/// indices/values for those rows. Chunks of these are stitched back together
/// in row order, so pooled kernels produce output identical to serial.
type RowChunk = (Vec<usize>, Vec<u32>, Vec<f64>);

/// A CSR sparse matrix of `f64`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<u32>,
    /// Values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n`×`n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed; explicit zeros (including sums cancelling to zero) are dropped.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut by_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds {rows}x{cols}"
            );
            by_row[r].push((c as u32, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for row in &mut by_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                i = j;
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds directly from raw CSR parts, validating the invariants.
    ///
    /// # Panics
    /// Panics when `indptr` is not monotone, lengths disagree, or indices
    /// within a row are unsorted / duplicated / out of range.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows+1");
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        assert_eq!(
            *indptr.last().unwrap(),
            indices.len(),
            "indptr end must equal nnz"
        );
        for r in 0..rows {
            assert!(indptr[r] <= indptr[r + 1], "indptr must be monotone");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r}: indices must be strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "row {r}: column index out of range");
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Checks the CSR invariants without panicking: `indptr` monotone with
    /// the right length and end, `indices`/`values` aligned, and every row's
    /// indices strictly increasing and in range. Constructors enforce all of
    /// this, so the check exists for matrices that *bypassed* a constructor —
    /// chiefly serde-deserialized ones, where a malformed file must surface
    /// as `Err` from the load path instead of an out-of-bounds panic later.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err(format!(
                "indptr length {} != rows+1 = {}",
                self.indptr.len(),
                self.rows + 1
            ));
        }
        if self.indices.len() != self.values.len() {
            return Err(format!(
                "indices/values length mismatch: {} vs {}",
                self.indices.len(),
                self.values.len()
            ));
        }
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr must start at 0 and end at nnz".into());
        }
        // Full monotonicity first: together with the endpoint check above it
        // bounds every indptr value by nnz, making the row slicing below safe.
        for r in 0..self.rows {
            if self.indptr[r] > self.indptr[r + 1] {
                return Err(format!("indptr not monotone at row {r}"));
            }
        }
        for r in 0..self.rows {
            let row = &self.indices[self.indptr[r]..self.indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r}: indices not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= self.cols {
                    return Err(format!("row {r}: column {last} out of range"));
                }
            }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Raw row pointers.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Raw values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(column, value)` pairs of row `r`.
    #[inline]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[r]..self.indptr[r + 1];
        self.indices[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Value at `(r, c)` (binary-searching the row); zero if absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let range = self.indptr[r]..self.indptr[r + 1];
        match self.indices[range.clone()].binary_search(&(c as u32)) {
            Ok(pos) => self.values[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// The entries of `d` that are not `0.0`, in CSR form: NaN is kept and
    /// `±0.0` is dropped, the entries the dense products' zero-skip visits.
    /// One pass counts each row's entries and one fills them; a row is
    /// walked in column order, so it comes out sorted without a check.
    ///
    /// # Panics
    /// Panics when `d` has more columns than a `u32` index can name.
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        let (rows, cols) = d.shape();
        assert!(
            u32::try_from(cols).is_ok(),
            "from_dense: {cols} columns overflow a u32 index"
        );
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        let mut nnz = 0;
        for r in 0..rows {
            nnz += d.row(r).iter().filter(|&&v| v != 0.0).count();
            indptr.push(nnz);
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for r in 0..rows {
            for (c, &v) in d.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
        }
        CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Transposes the matrix — a serial O(nnz) counting sort. Entries within
    /// an output row stay ordered by source row.
    pub fn transpose(&self) -> CsrMatrix {
        kernel_stats::record(Kernel::SparseTranspose, self.nnz() as u64, || {
            let mut counts = vec![0usize; self.cols + 1];
            for &c in &self.indices {
                counts[c as usize + 1] += 1;
            }
            for i in 0..self.cols {
                counts[i + 1] += counts[i];
            }
            let indptr = counts.clone();
            let mut indices = vec![0u32; self.nnz()];
            let mut values = vec![0.0; self.nnz()];
            let mut next = counts;
            for r in 0..self.rows {
                for (c, v) in self.row_entries(r) {
                    let pos = next[c];
                    indices[pos] = r as u32;
                    values[pos] = v;
                    next[c] += 1;
                }
            }
            CsrMatrix {
                rows: self.cols,
                cols: self.rows,
                indptr,
                indices,
                values,
            }
        })
    }

    /// Sparse × dense product `self * d`, pooled over output rows. Row
    /// chunks are claimed via an atomic index, so uneven row sparsity
    /// load-balances.
    pub fn spmm_dense(&self, d: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, d.rows(), "spmm_dense: inner dimension mismatch");
        let m = self.rows;
        let n = d.cols();
        let work = self.nnz() * n;
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
                    for (c, v) in self.row_entries(lo + local_r) {
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

    /// `selfᵀ * d` without building `selfᵀ`, bit-identical to
    /// `self.transpose().spmm_dense(d)`: output row `j` adds
    /// `self[i][j] · d[i]` for `i` ascending, the order row `j` of the
    /// transpose lists them, with the same `axpy`. Each chunk owns a range
    /// of output rows and walks every row of `self`, finding the columns it
    /// owns by binary search (CSR rows are sorted).
    pub fn spmm_dense_tn(&self, d: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows,
            d.rows(),
            "spmm_dense_tn: inner dimension mismatch"
        );
        let m = self.cols;
        let n = d.cols();
        let work = self.nnz() * n;
        kernel_stats::record(Kernel::SpmmDense, 2 * work as u64, || {
            simd::record_dispatch();
            let mut out = DenseMatrix::zeros(m, n);
            let ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
            let fill_rows = |lo: usize, hi: usize| {
                // SAFETY: chunks own disjoint output row ranges and `out`
                // outlives the parallel region.
                let dst =
                    unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo * n), (hi - lo) * n) };
                for i in 0..self.rows {
                    let row = self.indptr[i]..self.indptr[i + 1];
                    let cols = &self.indices[row.clone()];
                    let start = cols.partition_point(|&c| (c as usize) < lo);
                    for (&c, &v) in cols[start..].iter().zip(&self.values[row][start..]) {
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
                // Every chunk walks all of `self`, so keep them few: one per
                // core. The output does not depend on the chunking.
                let chunks = pool::hardware_parallelism().min(8);
                pool::parallel_for(m, m.div_ceil(chunks).max(1), fill_rows);
            } else {
                fill_rows(0, m);
            }
            out
        })
    }

    /// Sparse × sparse matrix product (classic Gustavson row-merge), pooled
    /// over output rows above the pool threshold.
    pub fn spmm(&self, other: &CsrMatrix) -> CsrMatrix {
        let mut out = CsrMatrix::zeros(self.rows, other.cols);
        self.spmm_into(other, &mut out);
        out
    }

    /// [`CsrMatrix::spmm`] writing into `out`, reusing its buffers (the
    /// proximity power loop calls this every order; reuse keeps it from
    /// re-materializing multi-million-entry vectors each time).
    pub fn spmm_into(&self, other: &CsrMatrix, out: &mut CsrMatrix) {
        assert_eq!(self.cols, other.rows, "spmm: inner dimension mismatch");
        // Expected multiply-adds: every stored entry of `self` expands one
        // average row of `other`.
        let est = self.nnz() * other.nnz() / other.rows.max(1);
        kernel_stats::record(Kernel::Spmm, 2 * est as u64, || {
            let chunks = if pool::should_parallelize(est) {
                let grain = pool::row_grain(self.rows, 16);
                pool::parallel_map_chunks(self.rows, grain, |lo, hi| self.spmm_rows(other, lo, hi))
            } else {
                vec![self.spmm_rows(other, 0, self.rows)]
            };
            assemble_rows_into(self.rows, other.cols, &chunks, out);
        });
    }

    /// Gustavson row-merge of rows `lo..hi` with chunk-local scratch.
    /// Explicit zeros (sums cancelling exactly) are dropped, matching the
    /// constructor invariant.
    fn spmm_rows(&self, other: &CsrMatrix, lo: usize, hi: usize) -> RowChunk {
        let mut lens = Vec::with_capacity(hi - lo);
        // Pre-size the output from degree counts when the chunk is large:
        // every stored entry of rows `lo..hi` expands at most one full row
        // of `other` (and a row never exceeds `other.cols` distinct
        // columns), which is what keeps the proximity power loop from
        // paying doubling-growth reallocs on multi-million-entry products.
        // The estimation pass is O(chunk nnz) — roughly one multiply-row's
        // worth of work per entry — so small chunks skip it and let vector
        // doubling do its (cheap at that size) thing.
        let chunk_nnz = self.indptr[hi] - self.indptr[lo];
        let est = if chunk_nnz >= SPMM_PRESIZE_MIN_NNZ {
            let mut est = 0usize;
            for r in lo..hi {
                for pos in self.indptr[r]..self.indptr[r + 1] {
                    est = est.saturating_add(other.row_nnz(self.indices[pos] as usize));
                }
            }
            est.min((hi - lo).saturating_mul(other.cols))
        } else {
            0
        };
        let mut indices: Vec<u32> = Vec::with_capacity(est);
        let mut values: Vec<f64> = Vec::with_capacity(est);
        // Dense accumulator with an O(1) "touched" marker array.
        let mut acc = vec![0.0f64; other.cols];
        let mut mark = vec![false; other.cols];
        let mut touched: Vec<u32> = Vec::new();
        for r in lo..hi {
            touched.clear();
            let before = indices.len();
            for (k, a) in self.row_entries(r) {
                for (c, b) in other.row_entries(k) {
                    if !mark[c] {
                        mark[c] = true;
                        touched.push(c as u32);
                    }
                    acc[c] += a * b;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let v = acc[c as usize];
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
                acc[c as usize] = 0.0;
                mark[c as usize] = false;
            }
            lens.push(indices.len() - before);
        }
        (lens, indices, values)
    }

    /// Elementwise sum `self + alpha * other` on matching shapes.
    pub fn add_scaled(&self, other: &CsrMatrix, alpha: f64) -> CsrMatrix {
        let mut out = CsrMatrix::zeros(self.rows, self.cols);
        self.add_scaled_into(other, alpha, &mut out);
        out
    }

    /// [`CsrMatrix::add_scaled`] writing into `out`, reusing its buffers.
    pub fn add_scaled_into(&self, other: &CsrMatrix, alpha: f64, out: &mut CsrMatrix) {
        assert_eq!(self.shape(), other.shape(), "add_scaled: shape mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.indptr.clear();
        out.indptr.reserve(self.rows + 1);
        out.indptr.push(0);
        out.indices.clear();
        out.values.clear();
        let cap = self.nnz() + other.nnz();
        out.indices.reserve(cap);
        out.values.reserve(cap);
        for r in 0..self.rows {
            let mut a = self.indptr[r];
            let a_end = self.indptr[r + 1];
            let mut b = other.indptr[r];
            let b_end = other.indptr[r + 1];
            while a < a_end || b < b_end {
                let (c, v) = if b >= b_end || (a < a_end && self.indices[a] < other.indices[b]) {
                    let entry = (self.indices[a], self.values[a]);
                    a += 1;
                    entry
                } else if a >= a_end || other.indices[b] < self.indices[a] {
                    let entry = (other.indices[b], alpha * other.values[b]);
                    b += 1;
                    entry
                } else {
                    let entry = (self.indices[a], self.values[a] + alpha * other.values[b]);
                    a += 1;
                    b += 1;
                    entry
                };
                if v != 0.0 {
                    out.indices.push(c);
                    out.values.push(v);
                }
            }
            out.indptr.push(out.indices.len());
        }
    }

    /// Scales every value by `alpha` in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Row sums (the "degrees" of a weighted adjacency matrix).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row_entries(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Row-normalizes: every nonempty row is divided by its sum so it sums
    /// to 1. This is the `f(·)` of Definition 3 in the paper.
    pub fn row_normalize(&self) -> CsrMatrix {
        let mut out = self.clone();
        out.row_normalize_inplace();
        out
    }

    /// In-place row normalization (rows own disjoint value ranges, so the
    /// pooled path is bit-identical to serial).
    pub fn row_normalize_inplace(&mut self) {
        let nnz = self.nnz();
        let rows = self.rows;
        let indptr = &self.indptr;
        let vptr = SendPtr(self.values.as_mut_ptr());
        let body = |lo: usize, hi: usize| {
            for r in lo..hi {
                let (s, e) = (indptr[r], indptr[r + 1]);
                // SAFETY: each row's value range is touched by exactly one
                // chunk.
                let row = unsafe { std::slice::from_raw_parts_mut(vptr.get().add(s), e - s) };
                let sum: f64 = row.iter().sum();
                if sum != 0.0 {
                    for v in row {
                        *v /= sum;
                    }
                }
            }
        };
        if pool::should_parallelize(nnz) {
            pool::parallel_for(rows, pool::row_grain(rows, 64), body);
        } else {
            body(0, rows);
        }
    }

    /// Symmetric normalization `D^-1/2 * self * D^-1/2` where `D` is the
    /// diagonal of row sums. Rows with zero sum are left zeroed. Pooled over
    /// rows above the pool threshold (bit-identical to serial).
    pub fn sym_normalize(&self) -> CsrMatrix {
        let deg = self.row_sums();
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = self.clone();
        let rows = out.rows;
        let indptr = &out.indptr;
        let indices = &out.indices;
        let vptr = SendPtr(out.values.as_mut_ptr());
        let inv = &inv_sqrt;
        let body = |lo: usize, hi: usize| {
            for r in lo..hi {
                let dr = inv[r];
                for pos in indptr[r]..indptr[r + 1] {
                    // SAFETY: each row's value range is touched by exactly
                    // one chunk.
                    unsafe {
                        *vptr.get().add(pos) *= dr * inv[indices[pos] as usize];
                    }
                }
            }
        };
        if pool::should_parallelize(self.nnz()) {
            pool::parallel_for(rows, pool::row_grain(rows, 64), body);
        } else {
            body(0, rows);
        }
        out
    }

    /// True if `self` equals its transpose (exact value comparison).
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        self == &t
    }

    /// Adds the identity (self-loops): `self + I`. Existing diagonal entries
    /// are incremented.
    pub fn add_identity(&self) -> CsrMatrix {
        assert_eq!(self.rows, self.cols, "add_identity: matrix must be square");
        self.add_scaled(&CsrMatrix::identity(self.rows), 1.0)
    }

    /// Density = nnz / (rows*cols).
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Row gather: `out[i] = self[rows[i]]`, keeping all columns. `rows` may
    /// repeat and need not be sorted — this is a straight per-row copy,
    /// pooled over the selected rows.
    pub fn gather_rows(&self, rows: &[usize]) -> CsrMatrix {
        let est: usize = rows.iter().map(|&r| self.row_nnz(r)).sum();
        kernel_stats::record(Kernel::SubgraphExtract, est as u64, || {
            let copy = |lo: usize, hi: usize| -> RowChunk {
                let mut lens = Vec::with_capacity(hi - lo);
                let cap: usize = rows[lo..hi].iter().map(|&r| self.row_nnz(r)).sum();
                let mut indices: Vec<u32> = Vec::with_capacity(cap);
                let mut values: Vec<f64> = Vec::with_capacity(cap);
                for &r in &rows[lo..hi] {
                    let (s, e) = (self.indptr[r], self.indptr[r + 1]);
                    indices.extend_from_slice(&self.indices[s..e]);
                    values.extend_from_slice(&self.values[s..e]);
                    lens.push(e - s);
                }
                (lens, indices, values)
            };
            let chunks = if pool::should_parallelize(est) {
                let grain = pool::row_grain(rows.len(), 64);
                pool::parallel_map_chunks(rows.len(), grain, copy)
            } else {
                vec![copy(0, rows.len())]
            };
            let mut out = CsrMatrix::zeros(rows.len(), self.cols);
            assemble_rows_into(rows.len(), self.cols, &chunks, &mut out);
            out
        })
    }

    /// Column restriction with relabeling: keeps every row but only the
    /// columns in `keep` (sorted strictly increasing), renumbering column
    /// `keep[j]` to `j`. Pooled over rows; per-row filtering makes the
    /// output identical for any chunk decomposition.
    pub fn select_columns(&self, keep: &[usize]) -> CsrMatrix {
        let colmap = inverse_column_map(self.cols, keep);
        kernel_stats::record(Kernel::SubgraphExtract, self.nnz() as u64, || {
            restrict_rows(&colmap, keep.len(), self.rows, self.nnz(), |r| self.row(r))
        })
    }

    /// Induced-subgraph extraction with node relabeling:
    /// `out[i][j] = self[nodes[i]][nodes[j]]` for `nodes` sorted strictly
    /// increasing. This is the mini-batch subgraph kernel: a fused row
    /// gather + column restriction, pooled over the selected rows with the
    /// same per-row-chunk stitching the product kernel uses, with
    /// chunk buffers pre-sized from the selected rows' degree counts.
    pub fn extract_submatrix(&self, nodes: &[usize]) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "extract_submatrix: matrix must be square"
        );
        let colmap = inverse_column_map(self.cols, nodes);
        let est: usize = nodes.iter().map(|&r| self.row_nnz(r)).sum();
        kernel_stats::record(Kernel::SubgraphExtract, est as u64, || {
            restrict_rows(&colmap, nodes.len(), nodes.len(), est, |i| {
                self.row(nodes[i])
            })
        })
    }

    /// Stacks `rows`, the `(indices, values)` of CSR rows `cols` wide,
    /// keeping only the columns in `keep` (sorted strictly increasing) and
    /// renumbering column `keep[j]` to `j`: the column restriction of
    /// [`CsrMatrix::extract_submatrix`], over rows that need not come from
    /// one matrix. Pooled over the rows like it.
    pub fn stack_restricted(cols: usize, keep: &[usize], rows: &[(&[u32], &[f64])]) -> CsrMatrix {
        let colmap = inverse_column_map(cols, keep);
        let est: usize = rows.iter().map(|(indices, _)| indices.len()).sum();
        kernel_stats::record(Kernel::SubgraphExtract, est as u64, || {
            restrict_rows(&colmap, keep.len(), rows.len(), est, |i| rows[i])
        })
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[range.clone()], &self.values[range])
    }
}

/// The one column-restriction kernel behind the extraction methods: output
/// row `i` holds the entries of `row(i)` whose column `colmap` keeps
/// (old → new column, `u32::MAX` drops it), in order, `cols` columns wide.
/// Pooled over the `count` rows when `est` (their stored entries) clears the
/// threshold; per-row filtering makes the output identical either way.
fn restrict_rows<'s>(
    colmap: &[u32],
    cols: usize,
    count: usize,
    est: usize,
    row: impl Fn(usize) -> (&'s [u32], &'s [f64]) + Sync,
) -> CsrMatrix {
    let filter = |lo: usize, hi: usize| -> RowChunk {
        let mut lens = Vec::with_capacity(hi - lo);
        let cap: usize = (lo..hi).map(|i| row(i).0.len()).sum();
        let mut indices: Vec<u32> = Vec::with_capacity(cap);
        let mut values: Vec<f64> = Vec::with_capacity(cap);
        for i in lo..hi {
            let before = indices.len();
            let (cs, vs) = row(i);
            for (&c, &v) in cs.iter().zip(vs) {
                let nc = colmap[c as usize];
                if nc != u32::MAX {
                    indices.push(nc);
                    values.push(v);
                }
            }
            lens.push(indices.len() - before);
        }
        (lens, indices, values)
    };
    let chunks = if pool::should_parallelize(est) {
        pool::parallel_map_chunks(count, pool::row_grain(count, 64), filter)
    } else {
        vec![filter(0, count)]
    };
    let mut out = CsrMatrix::zeros(count, cols);
    assemble_rows_into(count, cols, &chunks, &mut out);
    out
}

/// Dense old→new column map for the extraction kernels: `map[keep[j]] = j`,
/// `u32::MAX` everywhere else. Validates that `keep` is sorted strictly
/// increasing and in bounds.
fn inverse_column_map(cols: usize, keep: &[usize]) -> Vec<u32> {
    assert!(
        keep.len() < u32::MAX as usize,
        "extract: too many selected nodes"
    );
    let mut map = vec![u32::MAX; cols];
    let mut prev: Option<usize> = None;
    for (new, &old) in keep.iter().enumerate() {
        assert!(old < cols, "extract: node {old} out of bounds ({cols})");
        assert!(
            prev.is_none_or(|p| p < old),
            "extract: nodes must be sorted strictly increasing"
        );
        map[old] = new as u32;
        prev = Some(old);
    }
    map
}

/// Stitches per-row-range kernel outputs (in row order) into `out`, reusing
/// its buffers. The concatenation order matches the serial loop exactly.
fn assemble_rows_into(rows: usize, cols: usize, chunks: &[RowChunk], out: &mut CsrMatrix) {
    out.rows = rows;
    out.cols = cols;
    out.indptr.clear();
    out.indptr.reserve(rows + 1);
    out.indptr.push(0);
    let nnz: usize = chunks.iter().map(|(_, idx, _)| idx.len()).sum();
    out.indices.clear();
    out.indices.reserve(nnz);
    out.values.clear();
    out.values.reserve(nnz);
    let mut total = 0usize;
    for (lens, indices, values) in chunks {
        debug_assert_eq!(indices.len(), values.len());
        for &len in lens {
            total += len;
            out.indptr.push(total);
        }
        out.indices.extend_from_slice(indices);
        out.values.extend_from_slice(values);
    }
    debug_assert_eq!(out.indptr.len(), rows + 1);
    debug_assert_eq!(out.indices.len(), nnz);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
            ],
        )
    }

    #[test]
    fn extract_submatrix_matches_reference_and_dense() {
        let m = sample();
        for nodes in [vec![0usize, 2], vec![1], vec![0, 1, 2], vec![]] {
            let sub = m.extract_submatrix(&nodes);
            assert_eq!(sub, crate::reference::extract_submatrix(&m, &nodes));
            for (i, &r) in nodes.iter().enumerate() {
                for (j, &c) in nodes.iter().enumerate() {
                    assert_eq!(sub.get(i, j), m.get(r, c));
                }
            }
        }
        // Extracting every node is a bit-exact copy.
        assert_eq!(m.extract_submatrix(&[0, 1, 2]), m);
    }

    #[test]
    fn gather_and_select_columns_round_trip() {
        let m = sample();
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.get(0, 1), 5.0);
        assert_eq!(g.get(1, 2), 2.0);
        assert_eq!(g.get(2, 0), 4.0);
        let s = m.select_columns(&[0, 2]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(2, 0), 4.0);
        assert_eq!(s.get(2, 1), 0.0);
        // gather(all rows) then select(all cols) is the identity.
        assert_eq!(m.gather_rows(&[0, 1, 2]).select_columns(&[0, 1, 2]), m);
    }

    #[test]
    #[should_panic(expected = "sorted strictly increasing")]
    fn extract_submatrix_rejects_unsorted_nodes() {
        sample().extract_submatrix(&[2, 0]);
    }

    #[test]
    fn triplets_dedup_and_sum() {
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, -1.0), (1, 0, 1.0)]);
        assert_eq!(m.get(0, 1), 3.0);
        // Entries cancelling to zero are dropped entirely.
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn get_and_iter_roundtrip() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 5.0);
        let trips: Vec<_> = m.iter().collect();
        let back = CsrMatrix::from_triplets(3, 3, &trips);
        assert_eq!(back, m);
    }

    #[test]
    fn to_dense_matches() {
        let d = sample().to_dense();
        assert_eq!(
            d,
            DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 3.0], &[4.0, 5.0, 0.0]])
        );
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmm_dense_matches_dense_matmul() {
        let m = sample();
        let d = DenseMatrix::from_fn(3, 4, |r, c| (r + c) as f64 * 0.5);
        let fast = m.spmm_dense(&d);
        let slow = m.to_dense().matmul(&d);
        assert!(fast.sub(&slow).max_abs() < 1e-12);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let a = sample();
        let b = sample().transpose();
        let fast = a.spmm(&b).to_dense();
        let slow = a.to_dense().matmul(&b.to_dense());
        assert!(fast.sub(&slow).max_abs() < 1e-12);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let a = sample();
        let i = CsrMatrix::identity(3);
        assert_eq!(i.spmm(&a), a);
        assert_eq!(a.spmm(&i), a);
    }

    #[test]
    fn add_scaled_matches_dense() {
        let a = sample();
        let b = sample().transpose();
        let fast = a.add_scaled(&b, 2.0).to_dense();
        let slow = a.to_dense().add(&b.to_dense().scale(2.0));
        assert!(fast.sub(&slow).max_abs() < 1e-12);
    }

    #[test]
    fn add_scaled_drops_cancellations() {
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0)]);
        let b = CsrMatrix::from_triplets(1, 2, &[(0, 0, -0.5)]);
        let sum = a.add_scaled(&b, 2.0);
        assert_eq!(sum.nnz(), 0);
    }

    #[test]
    fn row_normalize_rows_sum_to_one() {
        let m = sample().row_normalize();
        for r in 0..3 {
            let s: f64 = m.row_entries(r).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
    }

    #[test]
    fn sym_normalize_karate_style() {
        // Path graph 0-1-2 with self loops: degrees 2,3,2 after A+I.
        let a =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let ai = a.add_identity();
        let n = ai.sym_normalize();
        // Entry (0,0) = 1 / (sqrt(2)*sqrt(2)) = 0.5
        assert!((n.get(0, 0) - 0.5).abs() < 1e-12);
        // Entry (0,1) = 1 / (sqrt(2)*sqrt(3))
        assert!((n.get(0, 1) - 1.0 / (2.0f64.sqrt() * 3.0f64.sqrt())).abs() < 1e-12);
        // Symmetric input stays symmetric.
        assert!(n.is_symmetric());
    }

    #[test]
    fn add_identity_increments_diagonal() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0)]);
        let mi = m.add_identity();
        assert_eq!(mi.get(0, 0), 3.0);
        assert_eq!(mi.get(1, 1), 1.0);
        assert_eq!(mi.get(0, 1), 1.0);
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        assert!(!sample().is_symmetric());
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 2.0)]);
        assert!(s.is_symmetric());
    }

    #[test]
    fn from_raw_validates() {
        let ok = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert_eq!(ok.get(0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match() {
        let a = sample();
        let b = sample().transpose();
        // One shared output buffer reused across two different kernels.
        let mut out = CsrMatrix::zeros(0, 0);
        a.spmm_into(&b, &mut out);
        assert_eq!(out, a.spmm(&b));
        a.add_scaled_into(&b, 0.5, &mut out);
        assert_eq!(out, a.add_scaled(&b, 0.5));
    }

    #[test]
    fn pooled_sparse_kernels_match_serial() {
        crate::pool::force_pool();
        let trips: Vec<(usize, usize, f64)> = (0..4000)
            .map(|i| ((i * 37) % 200, (i * 61) % 200, ((i % 9) as f64) - 4.0))
            .collect();
        let s = CsrMatrix::from_triplets(200, 200, &trips);
        // With force_pool the threshold is 1, so these all take the pooled
        // path; compare against the serial implementations.
        let spmm_par = s.spmm(&s);
        let spmm_ser = {
            let chunk = s.spmm_rows(&s, 0, s.rows());
            let mut out = CsrMatrix::zeros(0, 0);
            assemble_rows_into(s.rows(), s.cols(), &[chunk], &mut out);
            out
        };
        assert_eq!(spmm_par, spmm_ser);
    }

    /// `from_dense` keeps exactly the entries that are not `0.0`: NaN and
    /// infinities stay, both zeros go; empty rows and shapes survive.
    #[test]
    fn from_dense_keeps_what_is_not_zero() {
        let d = DenseMatrix::from_rows(&[
            &[0.0, 2.0, -0.0, f64::NAN],
            &[0.0, 0.0, 0.0, 0.0],
            &[-1.5, f64::INFINITY, 0.0, 3.0],
        ]);
        let s = CsrMatrix::from_dense(&d);
        assert!(s.check_invariants().is_ok());
        assert_eq!(s.shape(), (3, 4));
        assert_eq!(s.indptr(), &[0, 2, 2, 5]);
        assert_eq!(s.indices(), &[1, 3, 0, 1, 3]);
        let bits: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = [2.0, f64::NAN, -1.5, f64::INFINITY, 3.0]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);
        let back = s.to_dense();
        for (r, row) in d.rows_iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let got = back.get(r, c);
                assert!(got.to_bits() == v.to_bits() || (v == 0.0 && got == 0.0));
            }
        }
        let dense = sample().to_dense();
        assert_eq!(CsrMatrix::from_dense(&dense), sample());
        for (r, c) in [(0, 0), (0, 5), (4, 0)] {
            let empty = CsrMatrix::from_dense(&DenseMatrix::zeros(r, c));
            assert_eq!(empty, CsrMatrix::zeros(r, c), "{r}x{c}");
        }
    }

    #[test]
    fn density_and_row_nnz() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert!((m.density() - 5.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 1);
    }

    #[test]
    fn check_invariants_accepts_valid_and_rejects_malformed() {
        assert!(sample().check_invariants().is_ok());
        assert!(CsrMatrix::zeros(0, 0).check_invariants().is_ok());

        // Hand-build malformed matrices through serde (the only way invalid
        // state can enter), mirroring what a corrupt JSON file produces.
        let bad_indptr: CsrMatrix = serde_json::from_str(
            r#"{"rows":2,"cols":2,"indptr":[0,50,1],"indices":[0],"values":[1.0]}"#,
        )
        .unwrap();
        assert!(bad_indptr.check_invariants().is_err());

        let bad_col: CsrMatrix = serde_json::from_str(
            r#"{"rows":1,"cols":2,"indptr":[0,1],"indices":[7],"values":[1.0]}"#,
        )
        .unwrap();
        assert!(bad_col.check_invariants().is_err());

        let unsorted: CsrMatrix = serde_json::from_str(
            r#"{"rows":1,"cols":3,"indptr":[0,2],"indices":[2,0],"values":[1.0,1.0]}"#,
        )
        .unwrap();
        assert!(unsorted.check_invariants().is_err());

        let misaligned: CsrMatrix = serde_json::from_str(
            r#"{"rows":1,"cols":3,"indptr":[0,1],"indices":[0],"values":[1.0,2.0]}"#,
        )
        .unwrap();
        assert!(misaligned.check_invariants().is_err());
    }
}
