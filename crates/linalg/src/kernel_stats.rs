//! Always-on per-kernel counters (calls, elements/flops, wall time), backed
//! by the [`aneci_obs`] global registry.
//!
//! Every kernel wrapped in [`record`] bumps three relaxed atomic counters in
//! the process-wide registry:
//!
//! * `linalg.kernel.<name>.calls` — invocations;
//! * `linalg.kernel.<name>.elems` — scalar work (flops or element visits)
//!   reported by the caller. For `matmul` and `matmul_tn` it is the
//!   shape's dense `2·m·k·n` even though both skip zero entries of their
//!   left operand, so a rate derived from it is a dense-equivalent rate:
//!   on sparse inputs read `wall_ns` instead;
//! * `linalg.kernel.<name>.wall_ns` — accumulated wall time (excluded from
//!   [`aneci_obs::Snapshot::deterministic`], like every `_ns` metric).
//!
//! With the persistent-handle registry the cost is two `Instant` reads and
//! three relaxed `fetch_add`s per kernel call, so they always run. Readers
//! take windows as differences of two registry snapshots.

use std::sync::OnceLock;
use std::time::Instant;

use aneci_obs::Counter;

/// Instrumented kernels. Extend this (and [`Kernel::name`], and
/// [`Kernel::ALL`]) when new kernels are wrapped in [`record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Dense × dense product (`DenseMatrix::matmul`).
    Matmul = 0,
    /// Dense transposed product (`DenseMatrix::matmul_tn`).
    MatmulTn,
    /// CSR × dense product (`CsrMatrix::spmm_dense` and
    /// `CsrMatrix::spmm_dense_tn`).
    SpmmDense,
    /// CSR × CSR product (`CsrMatrix::spmm`).
    Spmm,
    /// CSR transpose.
    SparseTranspose,
    /// Induced-subgraph gather with node relabeling
    /// (`CsrMatrix::extract_submatrix` / `select_columns` / `gather_rows`).
    SubgraphExtract,
}

/// Number of [`Kernel`] variants (size of the counter table).
const KERNEL_COUNT: usize = 6;

impl Kernel {
    /// Stable display name used in metric names and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::MatmulTn => "matmul_tn",
            Kernel::SpmmDense => "spmm_dense",
            Kernel::Spmm => "spmm",
            Kernel::SparseTranspose => "sparse_transpose",
            Kernel::SubgraphExtract => "subgraph_extract",
        }
    }

    /// Every instrumented kernel, in table order.
    pub const ALL: [Kernel; KERNEL_COUNT] = [
        Kernel::Matmul,
        Kernel::MatmulTn,
        Kernel::SpmmDense,
        Kernel::Spmm,
        Kernel::SparseTranspose,
        Kernel::SubgraphExtract,
    ];
}

/// Cached registry handles for one kernel.
struct Row {
    calls: Counter,
    elems: Counter,
    wall_ns: Counter,
}

fn table() -> &'static [Row; KERNEL_COUNT] {
    static TABLE: OnceLock<[Row; KERNEL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        Kernel::ALL.map(|k| {
            let name = k.name();
            Row {
                calls: aneci_obs::counter(&format!("linalg.kernel.{name}.calls")),
                elems: aneci_obs::counter(&format!("linalg.kernel.{name}.elems")),
                wall_ns: aneci_obs::counter(&format!("linalg.kernel.{name}.wall_ns")),
            }
        })
    })
}

/// Runs `f`, charging its wall time and `flops` scalar-work units to
/// `kernel` in the global observability registry.
#[inline]
pub fn record<R>(kernel: Kernel, flops: u64, f: impl FnOnce() -> R) -> R {
    let row = &table()[kernel as usize];
    let start = Instant::now();
    let out = f();
    row.calls.add(1);
    row.elems.add(flops);
    row.wall_ns.add(start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests in this binary run kernels concurrently and share the
    /// global registry, so assert monotone deltas rather than exact totals.
    #[test]
    fn record_accumulates_and_reset_windows() {
        let read = |name: &str| {
            aneci_obs::global()
                .snapshot()
                .counter(&format!("linalg.kernel.matmul.{name}"))
                .unwrap_or(0)
        };
        let (calls, elems) = (read("calls"), read("elems"));
        let v = record(Kernel::Matmul, 100, || 41 + 1);
        assert_eq!(v, 42);
        record(Kernel::Matmul, 50, || ());
        assert!(read("calls") >= calls + 2);
        assert!(read("elems") >= elems + 150);
    }
}
