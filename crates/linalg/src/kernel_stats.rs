//! Always-on per-kernel counters (calls, elements/flops, wall time), backed
//! by the [`aneci_obs`] global registry.
//!
//! Every kernel wrapped in [`record`] bumps three relaxed atomic counters in
//! the process-wide registry:
//!
//! * `linalg.kernel.<name>.calls` — invocations;
//! * `linalg.kernel.<name>.elems` — scalar work (flops or element visits)
//!   reported by the caller;
//! * `linalg.kernel.<name>.wall_ns` — accumulated wall time (excluded from
//!   [`aneci_obs::Snapshot::deterministic`], like every `_ns` metric).
//!
//! With the persistent-handle registry the cost is two `Instant` reads and
//! three relaxed `fetch_add`s per kernel call, so they always run.
//! [`snapshot`] / [`reset`] give window semantics by subtracting a baseline
//! instead of zeroing the shared registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use aneci_obs::Counter;

/// Instrumented kernels. Extend this (and [`Kernel::name`], and
/// [`Kernel::ALL`]) when new kernels are wrapped in [`record`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Dense × dense product (`par::matmul`).
    Matmul = 0,
    /// Dense transposed product (`par::matmul_tn`).
    MatmulTn,
    /// CSR × dense product (`par::spmm_dense`).
    SpmmDense,
    /// CSR × CSR product (`CsrMatrix::spmm`).
    Spmm,
    /// CSR transpose.
    SparseTranspose,
    /// Top-k row pruning.
    PruneTopK,
    /// Induced-subgraph gather with node relabeling
    /// (`CsrMatrix::extract_submatrix` / `select_columns` / `gather_rows`).
    SubgraphExtract,
}

/// Number of [`Kernel`] variants (size of the counter table).
const KERNEL_COUNT: usize = 7;

impl Kernel {
    /// Stable display name used in metric names and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::MatmulTn => "matmul_tn",
            Kernel::SpmmDense => "spmm_dense",
            Kernel::Spmm => "spmm",
            Kernel::SparseTranspose => "sparse_transpose",
            Kernel::PruneTopK => "prune_top_k",
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
        Kernel::PruneTopK,
        Kernel::SubgraphExtract,
    ];
}

/// One kernel's accumulated totals since the last [`reset`], as returned by
/// [`snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel display name.
    pub kernel: &'static str,
    /// Number of [`record`] invocations.
    pub calls: u64,
    /// Total scalar work (flops / element visits) reported by callers.
    pub flops: u64,
    /// Total wall time spent inside the kernel, in nanoseconds.
    pub wall_ns: u64,
}

/// Cached registry handles plus the `reset` baseline for one kernel.
struct Row {
    calls: Counter,
    elems: Counter,
    wall_ns: Counter,
    base_calls: AtomicU64,
    base_elems: AtomicU64,
    base_wall_ns: AtomicU64,
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
                base_calls: AtomicU64::new(0),
                base_elems: AtomicU64::new(0),
                base_wall_ns: AtomicU64::new(0),
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

/// Totals for every kernel since the last [`reset`] (process start if never
/// reset), in [`Kernel::ALL`] order.
pub fn snapshot() -> Vec<KernelStat> {
    table()
        .iter()
        .zip(Kernel::ALL)
        .map(|(row, k)| KernelStat {
            kernel: k.name(),
            calls: row
                .calls
                .get()
                .saturating_sub(row.base_calls.load(Ordering::Relaxed)),
            flops: row
                .elems
                .get()
                .saturating_sub(row.base_elems.load(Ordering::Relaxed)),
            wall_ns: row
                .wall_ns
                .get()
                .saturating_sub(row.base_wall_ns.load(Ordering::Relaxed)),
        })
        .collect()
}

/// Starts a fresh measurement window: subsequent [`snapshot`]s report only
/// activity after this call. The shared registry counters stay monotone —
/// only this module's baseline moves.
pub fn reset() {
    for row in table().iter() {
        row.base_calls.store(row.calls.get(), Ordering::Relaxed);
        row.base_elems.store(row.elems.get(), Ordering::Relaxed);
        row.base_wall_ns.store(row.wall_ns.get(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests in this binary run kernels concurrently and share the
    /// global registry, so assert monotone deltas rather than exact totals.
    #[test]
    fn record_accumulates_and_reset_windows() {
        let before = snapshot();
        let b = before
            .iter()
            .find(|s| s.kernel == "matmul")
            .unwrap()
            .clone();
        let v = record(Kernel::Matmul, 100, || 41 + 1);
        assert_eq!(v, 42);
        record(Kernel::Matmul, 50, || ());
        let after = snapshot();
        let a = after.iter().find(|s| s.kernel == "matmul").unwrap().clone();
        assert!(a.calls >= b.calls + 2);
        assert!(a.flops >= b.flops + 150);
        // The registry counter matches the pre-baseline total.
        let snap = aneci_obs::global().snapshot();
        assert!(snap.counter("linalg.kernel.matmul.calls").unwrap() >= a.calls);
    }
}
