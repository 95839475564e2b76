//! Persistent worker-pool runtime shared by every multi-threaded kernel.
//!
//! Earlier revisions spawned fresh OS threads through `std::thread::scope` on
//! every kernel call; at thousands of small-to-medium products per training
//! epoch the spawn/join overhead dominated. This module keeps a single,
//! lazily-initialized pool of workers alive for the whole process and exposes
//! a chunked [`parallel_for`] on top of it.
//!
//! # Threading policy
//!
//! * **Pool size.** The pool is created on first use with
//!   `available_parallelism()` threads (the calling thread counts as one
//!   worker, so `threads - 1` OS threads are spawned). The environment
//!   variable `ANECI_NUM_THREADS` overrides the size at initialization, and
//!   [`set_num_threads`] overrides both — before the pool exists it fixes the
//!   size, afterwards it caps how many workers participate in each job.
//!   There is deliberately **no hardcoded upper cap** (the old code clamped
//!   at 16 threads): machines with more cores should use them, and users who
//!   want fewer say so explicitly.
//! * **Serial threshold.** Kernels consult [`should_parallelize`] with an
//!   estimate of their scalar work (multiply-adds or element visits); below
//!   the threshold (default `1 << 17`, overridable with
//!   [`set_par_threshold`]) they run serially on the calling thread. The
//!   persistent pool makes dispatch cheap (a condvar wake, no spawn), so the
//!   threshold is an order of magnitude lower than the old per-call-spawn
//!   value of `1 << 20`.
//! * **Scheduling.** [`parallel_for`] splits the index space into chunks of a
//!   caller-chosen grain. Chunks are claimed with an atomic fetch-add
//!   ("work stealing" by self-scheduling): a worker that drew cheap chunks
//!   simply claims more, so uneven work — e.g. power-law sparse rows — load
//!   balances instead of being pinned to fixed contiguous per-thread slabs.
//! * **Determinism.** The chunk decomposition depends only on `(items,
//!   grain)`, never on the thread count, and every chunk writes disjoint
//!   output (or produces a partial that is reduced in chunk order). Kernel
//!   results are therefore **bit-identical across thread counts**. Chunked
//!   reductions may differ from a strictly sequential summation at the
//!   floating-point rounding level (the partials are associated differently),
//!   but always reproducibly so.
//! * **Nesting.** A `parallel_for` issued from inside another `parallel_for`
//!   (on a worker or on the submitting thread) runs inline and serially on
//!   the current thread instead of re-entering the pool, so recursive or
//!   accidentally nested calls cannot deadlock.
//! * **Panics.** A panic inside the body is caught on the worker, the job is
//!   drained, and the panic is re-raised on the calling thread. The pool
//!   itself survives.
//! * **Lifecycle.** Workers live for the rest of the process and park on a
//!   condvar while idle; there is no shutdown (the OS reclaims them at exit).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Default serial/parallel cutoff in scalar work units (see module docs).
const DEFAULT_PAR_THRESHOLD: usize = 1 << 17;

/// Runtime override for the thread count (0 = not set).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Runtime override for the work threshold (0 = not set).
static THRESHOLD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is executing inside a pool job (either as a
    /// worker or as the submitting thread): nested calls must run inline.
    static IN_PARALLEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the number of threads kernels may use. Takes effect immediately: if
/// the pool already exists the value caps participation per job (it cannot
/// grow past the size the pool was created with); otherwise it fixes the
/// pool size. `n` is clamped to at least 1.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::SeqCst);
}

/// Sets the scalar-work threshold below which kernels run serially.
pub fn set_par_threshold(work: usize) {
    THRESHOLD_OVERRIDE.store(work.max(1), Ordering::SeqCst);
}

/// The current serial/parallel work threshold.
fn par_threshold() -> usize {
    match THRESHOLD_OVERRIDE.load(Ordering::Relaxed) {
        0 => DEFAULT_PAR_THRESHOLD,
        n => n,
    }
}

/// Thread count requested by override/env/hardware, ignoring any live pool.
fn configured_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    if let Some(n) = *ENV.get_or_init(|| {
        std::env::var("ANECI_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&v| v > 0)
    }) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The number of threads a kernel dispatched right now would use.
pub fn num_threads() -> usize {
    match POOL.get() {
        Some(pool) => configured_threads().min(pool.n_workers + 1),
        None => configured_threads(),
    }
}

/// True when `work` scalar operations are worth dispatching to the pool.
#[inline]
pub fn should_parallelize(work: usize) -> bool {
    work >= par_threshold() && num_threads() > 1
}

/// Raw pointer wrapper that lets disjoint-region writers cross the closure
/// `Sync` bound. Safety contract: every chunk must touch a region no other
/// chunk touches, and the pointee must outlive the `parallel_for` call.
pub(crate) struct SendPtr<T>(pub *mut T);
// Manual impls: the derive would put a spurious `T: Copy` bound on the
// wrapper, but copying a raw pointer never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// A published job: a type-erased pointer to the chunk-draining closure that
/// lives on the submitting thread's stack. The submitter blocks until every
/// worker has finished with it, which keeps the borrow alive.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn() + Sync),
}
unsafe impl Send for Job {}

struct JobSlot {
    job: Option<Job>,
    /// Monotone job id so a worker never runs the same job twice.
    epoch: u64,
    /// Workers still executing (or yet to pick up) the current job.
    active: usize,
}

struct Shared {
    slot: Mutex<JobSlot>,
    work_cv: Condvar,
    done_cv: Condvar,
}

struct Pool {
    shared: &'static Shared,
    n_workers: usize,
    /// Serializes job submission; held for the whole `parallel_for`.
    submit: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads().max(1);
        let n_workers = threads - 1;
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            slot: Mutex::new(JobSlot {
                job: None,
                epoch: 0,
                active: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        for i in 0..n_workers {
            std::thread::Builder::new()
                .name(format!("aneci-pool-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("aneci-linalg pool: failed to spawn worker");
        }
        Pool {
            shared,
            n_workers,
            submit: Mutex::new(()),
        }
    })
}

fn worker_loop(shared: &'static Shared) {
    // Anything the worker runs is by definition inside a job: nested
    // parallel_for calls from kernel bodies must run inline.
    IN_PARALLEL.with(|f| f.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut guard = lock(&shared.slot);
            loop {
                match guard.job {
                    Some(job) if guard.epoch != seen => {
                        seen = guard.epoch;
                        break job;
                    }
                    _ => {
                        guard = shared
                            .work_cv
                            .wait(guard)
                            .unwrap_or_else(|p| p.into_inner())
                    }
                }
            }
        };
        // The task closure handles user panics itself; this catch is a last
        // line of defense so a worker can never die and strand the pool.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.task)() }));
        let mut guard = lock(&shared.slot);
        guard.active -= 1;
        if guard.active == 0 {
            guard.job = None;
            shared.done_cv.notify_all();
        }
    }
}

impl Pool {
    /// Publishes `task` to all workers, runs it on the calling thread too,
    /// and blocks until every worker has finished with it.
    fn execute(&self, task: &(dyn Fn() + Sync)) {
        let _submit = lock(&self.submit);
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function blocks (done_cv below) until every worker has finished
        // running the job, so the pointee strictly outlives all uses.
        let erased: *const (dyn Fn() + Sync) = unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
                task as *const _,
            )
        };
        {
            let mut guard = lock(&self.shared.slot);
            guard.job = Some(Job { task: erased });
            guard.epoch = guard.epoch.wrapping_add(1);
            guard.active = self.n_workers;
            self.shared.work_cv.notify_all();
        }
        let was = IN_PARALLEL.with(|f| f.replace(true));
        let caller_result = catch_unwind(AssertUnwindSafe(task));
        IN_PARALLEL.with(|f| f.set(was));
        let mut guard = lock(&self.shared.slot);
        while guard.active > 0 {
            guard = self
                .shared
                .done_cv
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
        guard.job = None;
        drop(guard);
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Number of chunks `parallel_for` will use for `(items, grain)`.
#[inline]
fn chunk_count(items: usize, grain: usize) -> usize {
    items.div_ceil(grain.max(1))
}

/// Runs `f(lo, hi)` over disjoint index ranges covering `0..items`, each of
/// length `grain` (the last possibly shorter). Chunks are claimed dynamically
/// by an atomic index so uneven per-index work load balances. Runs inline
/// serially when the pool has one thread, the range fits one chunk, or the
/// call is nested inside another `parallel_for`.
pub fn parallel_for(items: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
    run_chunks(items, grain, &|_chunk, lo, hi| f(lo, hi));
}

/// Maps every chunk to a value and returns them in **chunk order** (index
/// order), so reductions over the result are deterministic for a fixed
/// `(items, grain)` regardless of thread count.
pub fn parallel_map_chunks<T: Send>(
    items: usize,
    grain: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    let n_chunks = chunk_count(items, grain);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n_chunks);
    out.resize_with(n_chunks, || None);
    {
        let ptr = SendPtr(out.as_mut_ptr());
        run_chunks(items, grain, &move |chunk, lo, hi| {
            // SAFETY: each chunk index is claimed exactly once, so every
            // slot is written by exactly one executor; `out` outlives the
            // call because `run_chunks` joins before returning.
            unsafe { *ptr.get().add(chunk) = Some(f(lo, hi)) };
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("parallel_map_chunks: chunk skipped"))
        .collect()
}

/// [`parallel_map_chunks`] over the `grain`-sized chunks of `data`: `f(lo,
/// chunk)` gets each chunk's start index and exclusive access to it, so a
/// reduction can also write per-item results in place.
pub fn parallel_map_chunks_mut<T: Send, R: Send>(
    data: &mut [T],
    grain: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_map_chunks(data.len(), grain, move |lo, hi| {
        // SAFETY: the chunks partition `0..data.len()` and each is claimed
        // exactly once; `data` outlives the call, which joins before
        // returning.
        f(lo, unsafe {
            std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo)
        })
    })
}

/// Cached handles for the serial/pooled dispatch-decision counters.
/// Dispatch choice depends on the thread count, so these metrics live under
/// a `dispatch` segment and are excluded from deterministic snapshots.
fn dispatch_counters() -> &'static (aneci_obs::Counter, aneci_obs::Counter) {
    static COUNTERS: OnceLock<(aneci_obs::Counter, aneci_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            aneci_obs::counter("linalg.pool.dispatch.serial"),
            aneci_obs::counter("linalg.pool.dispatch.pooled"),
        )
    })
}

fn run_chunks(items: usize, grain: usize, f: &(dyn Fn(usize, usize, usize) + Sync)) {
    if items == 0 {
        return;
    }
    let grain = grain.max(1);
    let n_chunks = items.div_ceil(grain);
    let serial = n_chunks == 1 || num_threads() <= 1 || IN_PARALLEL.with(|flag| flag.get());
    if serial {
        dispatch_counters().0.inc();
        for chunk in 0..n_chunks {
            let lo = chunk * grain;
            f(chunk, lo, (lo + grain).min(items));
        }
        return;
    }
    let pool = pool();
    // Re-read the cap now that the pool definitely exists.
    let cap = configured_threads().min(pool.n_workers + 1);
    if cap <= 1 {
        dispatch_counters().0.inc();
        for chunk in 0..n_chunks {
            let lo = chunk * grain;
            f(chunk, lo, (lo + grain).min(items));
        }
        return;
    }
    dispatch_counters().1.inc();
    let next = AtomicUsize::new(0);
    let executors = AtomicUsize::new(0);
    let panicked = AtomicBool::new(false);
    let task = || {
        // Honor a reduced thread cap: surplus workers bow out immediately.
        if executors.fetch_add(1, Ordering::Relaxed) >= cap {
            return;
        }
        loop {
            if panicked.load(Ordering::Relaxed) {
                break;
            }
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                break;
            }
            let lo = chunk * grain;
            let hi = (lo + grain).min(items);
            if catch_unwind(AssertUnwindSafe(|| f(chunk, lo, hi))).is_err() {
                panicked.store(true, Ordering::SeqCst);
                break;
            }
        }
    };
    pool.execute(&task);
    if panicked.load(Ordering::SeqCst) {
        panic!("aneci-linalg pool: a parallel_for body panicked");
    }
}

/// A deterministic row grain: at most 64 chunks, at least `min_rows` rows
/// per chunk, independent of the thread count (see module docs).
#[inline]
pub fn row_grain(rows: usize, min_rows: usize) -> usize {
    rows.div_ceil(64).max(min_rows).max(1)
}

/// Cached hardware core count (`std::thread::available_parallelism`, 1 on
/// error). A machine property, not a runtime knob: unlike [`num_threads`]
/// it never changes during a process, so kernels whose *output* is
/// chunking-invariant may scale their chunk count by it without breaking
/// the cross-thread-count determinism guarantee.
#[inline]
pub fn hardware_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Test/bench helper: forces a real multi-thread pool into existence (even
/// on a single-core machine) and drops the threshold to 1 so parallel code
/// paths are genuinely exercised. Not part of the public API surface.
#[doc(hidden)]
pub fn force_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if POOL.get().is_none() && configured_threads() < 4 {
            set_num_threads(4);
        }
        set_par_threshold(1);
        let _ = pool();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_once() {
        force_pool();
        let hits: Vec<AtomicU64> = (0..1003).map(|_| AtomicU64::new(0)).collect();
        parallel_for(1003, 17, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_chunks_returns_chunk_order() {
        force_pool();
        let out = parallel_map_chunks(100, 9, |lo, hi| (lo, hi));
        assert_eq!(out.len(), chunk_count(100, 9));
        let mut expect_lo = 0;
        for &(lo, hi) in &out {
            assert_eq!(lo, expect_lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 100);
    }

    #[test]
    fn parallel_map_chunks_mut_hands_out_each_chunk_once() {
        force_pool();
        let mut data = vec![0usize; 100];
        let sums = parallel_map_chunks_mut(&mut data, 9, |lo, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v += lo + k;
            }
            chunk.len()
        });
        assert_eq!(
            sums,
            (0..100)
                .step_by(9)
                .map(|lo| 9.min(100 - lo))
                .collect::<Vec<_>>()
        );
        assert_eq!(data, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        force_pool();
        let total = AtomicU64::new(0);
        parallel_for(8, 1, |lo, hi| {
            for _ in lo..hi {
                // Nested call must complete (inline) rather than deadlock.
                parallel_for(10, 2, |ilo, ihi| {
                    total.fetch_add((ihi - ilo) as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        force_pool();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(64, 1, |lo, _| {
                if lo == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still work after a panicking job.
        let count = AtomicU64::new(0);
        parallel_for(64, 4, |lo, hi| {
            count.fetch_add((hi - lo) as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn zero_items_is_a_noop() {
        force_pool();
        parallel_for(0, 8, |_, _| panic!("must not run"));
    }

    #[test]
    fn thresholds_are_configurable() {
        force_pool();
        set_par_threshold(12345);
        assert_eq!(par_threshold(), 12345);
        set_par_threshold(1);
        assert_eq!(par_threshold(), 1);
        assert!(num_threads() >= 1);
    }
}
