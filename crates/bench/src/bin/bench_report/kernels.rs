//! `--kernels`: each hot product against its serial reference, and each
//! dispatched SIMD vector kernel against its scalar reference, in one
//! table. The perf regression gate: no pooled row may fall below 1.0×, and
//! with AVX2 active no SIMD row may either.

use super::{Bar, Gate, Report};
use aneci_graph::Benchmark;
use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::{pool, reference, simd, vector, CsrMatrix};
use rand::Rng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One timed kernel: its reference leg against its production leg, each
/// the best of `reps` runs.
#[derive(Default, Serialize)]
struct Row {
    /// `pooled` (serial reference vs the pooled production kernel) or
    /// `simd` (the `*_scalar` reference vs the dispatched vector kernel).
    kind: &'static str,
    kernel: &'static str,
    shape: String,
    reps: usize,
    reference_ns: u64,
    production_ns: u64,
    speedup: f64,
}

impl Row {
    fn new(kind: &'static str, kernel: &'static str, shape: String, reps: usize) -> Self {
        Self {
            kind,
            kernel,
            shape,
            reps,
            ..Self::default()
        }
    }

    /// Times `reference` with the pool threshold sky-high (serial), then
    /// `production` with it at 1 (pooled), which is where it is left.
    fn time<A, B>(mut self, reference: impl FnMut() -> A, production: impl FnMut() -> B) -> Self {
        fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
            let times = (0..reps).map(|_| {
                let t = Instant::now();
                black_box(f());
                t.elapsed().as_nanos() as u64
            });
            times.min().expect("at least one rep")
        }
        pool::set_par_threshold(usize::MAX);
        self.reference_ns = best(self.reps, reference);
        pool::set_par_threshold(1);
        self.production_ns = best(self.reps, production);
        self.speedup = self.reference_ns as f64 / self.production_ns.max(1) as f64;
        self
    }
}

/// Random sparse square matrix with ~`deg` entries per row.
fn random_csr(n: usize, deg: usize, seed: u64) -> CsrMatrix {
    let mut rng = seeded_rng(seed);
    let mut trips = Vec::with_capacity(n * deg);
    for r in 0..n {
        for _ in 0..deg {
            let c = rng.gen_range(0..n);
            trips.push((r, c, rng.gen_range(0.1..1.0)));
        }
    }
    CsrMatrix::from_triplets(n, n, &trips)
}

pub fn run() -> Report {
    // Inputs in the order the seeded stream has always produced them.
    let mut rng = seeded_rng(7);
    let mut gaussian = |r, c| gaussian_matrix(r, c, 1.0, &mut rng);
    let (a256, b256) = (gaussian(256, 256), gaussian(256, 256));
    let (a512, b512) = (gaussian(512, 512), gaussian(512, 512));
    let (tall_a, tall_b) = (gaussian(4000, 128), gaussian(4000, 128));
    let (sparse, dense) = (random_csr(8192, 16, 11), gaussian(8192, 128));
    let square = random_csr(4096, 12, 13);
    // The first encoder layer of `train-full` and its weight gradient: the
    // Cora-scale attributes (2708×1433, 1.4% nonzero) times a 1433×64
    // weight, and `Xᵀg` for a 2708×64 upstream gradient, on their own
    // stream. The production kernels must skip the zeros the naive loop
    // skips.
    let cora = Benchmark::Cora.generate(1.0, 1);
    let x = cora.features();
    let (m, k) = x.shape();
    let mut cora_rng = seeded_rng(1);
    let w = gaussian_matrix(k, 64, 1.0, &mut cora_rng);
    let g = gaussian_matrix(m, 64, 1.0, &mut cora_rng);
    // The vector kernels: the serve scorer's dot and the row products'
    // axpy, sixteen calls a run on a long in-cache vector, and the
    // exact-top-k cosine scan the store's `top_of_range` runs (norms
    // precomputed, like `EmbeddingStore`) over a range sized to stay
    // cache-resident: larger scans measure DRAM bandwidth instead. Their
    // buffers are slices of one allocation from a 64-byte boundary on; each
    // length is a multiple of 8, so no AVX2 load splits a cache line and the
    // rows time the kernels, not where the allocator put their inputs (a
    // 16-byte start made the AVX2 dot and axpy legs 25-35% slower).
    let (len, n, d) = (4096, 512, 256);
    let mut buf = vec![0.0f64; 7 + 4 * len + n * d + d + 3 * n];
    let start = buf.as_ptr().align_offset(64);
    let (va, rest) = buf[start..].split_at_mut(len);
    let (vb, rest) = rest.split_at_mut(len);
    let (y_ref, rest) = rest.split_at_mut(len);
    let (y, rest) = rest.split_at_mut(len);
    let (emb, rest) = rest.split_at_mut(n * d);
    let (q, rest) = rest.split_at_mut(d);
    let (norms, rest) = rest.split_at_mut(n);
    let (scores_ref, rest) = rest.split_at_mut(n);
    let scores = &mut rest[..n];
    va.iter_mut()
        .chain(vb.iter_mut())
        .for_each(|v| *v = rng.gen_range(-1.0..1.0));
    emb.copy_from_slice(gaussian_matrix(n, d, 1.0, &mut rng).as_slice());
    q.iter_mut().for_each(|v| *v = rng.gen_range(-1.0..1.0));
    norms
        .iter_mut()
        .zip(emb.chunks(d))
        .for_each(|(norm, row)| *norm = vector::norm2(row));
    let (va, vb, emb, q, norms) = (&*va, &*vb, &*emb, &*q, &*norms);
    let qn = vector::norm2(q);

    // The 256 case is fast enough to be scheduler-noise-prone on a busy
    // box, so it gets more reps than the larger shapes. `spmm` runs the one
    // production kernel on both legs, toggled serial/pooled by the
    // threshold.
    let rows = [
        Row::new("pooled", "matmul", "256x256x256".into(), 13)
            .time(|| reference::matmul(&a256, &b256), || a256.matmul(&b256)),
        Row::new("pooled", "matmul", "512x512x512".into(), 7)
            .time(|| reference::matmul(&a512, &b512), || a512.matmul(&b512)),
        Row::new("pooled", "matmul_tn", "128x4000x128".into(), 3).time(
            || reference::matmul_tn(&tall_a, &tall_b),
            || tall_a.matmul_tn(&tall_b),
        ),
        Row::new("pooled", "matmul", format!("cora X {m}x{k}x64"), 5)
            .time(|| reference::matmul(x, &w), || x.matmul(&w)),
        Row::new("pooled", "matmul_tn", format!("cora Xt {k}x{m}x64"), 5)
            .time(|| reference::matmul_tn(x, &g), || x.matmul_tn(&g)),
        Row::new(
            "pooled",
            "spmm_dense",
            format!("8192x8192(nnz={})x128", sparse.nnz()),
            3,
        )
        .time(
            || reference::spmm_dense(&sparse, &dense),
            || sparse.spmm_dense(&dense),
        ),
        Row::new("pooled", "spmm", format!("4096^2(nnz={})", square.nnz()), 3)
            .time(|| square.spmm(&square), || square.spmm(&square)),
        Row::new("simd", "dot", format!("len={len}"), 200).time(
            || [(); 16].map(|()| vector::dot_scalar(black_box(va), black_box(vb))),
            || [(); 16].map(|()| vector::dot(black_box(va), black_box(vb))),
        ),
        Row::new("simd", "axpy", format!("len={len}"), 200).time(
            || [(); 16].map(|()| vector::axpy_scalar(black_box(&mut *y_ref), 0.5, black_box(va))),
            || [(); 16].map(|()| vector::axpy(black_box(&mut *y), 0.5, black_box(va))),
        ),
        Row::new("simd", "cosine_scan", format!("{n}x{d}"), 50).time(
            || vector::cosine_scores_scalar(q, qn, emb, norms, black_box(&mut *scores_ref)),
            || vector::cosine_scores(q, qn, emb, norms, black_box(&mut *scores)),
        ),
    ];

    for r in &rows {
        println!(
            "  {:<6} {:<12} {:<28} reference {:>12} ns  production {:>12} ns  {:.2}x",
            r.kind, r.kernel, r.shape, r.reference_ns, r.production_ns, r.speedup
        );
    }
    let gates = rows
        .iter()
        .filter(|r| r.kind == "pooled" || simd::avx2_active())
        .map(|r| {
            let name = format!("{}_speedup {} [{}]", r.kind, r.kernel, r.shape);
            Gate::new(name, r.speedup, Bar::AtLeast(1.0))
        })
        .collect();
    Report {
        body: serde_json::json!({ "kernels": rows }),
        gates,
    }
}
