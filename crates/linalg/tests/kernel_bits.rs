//! Bit-level fixture of the dense products: `DenseMatrix::matmul` and
//! `DenseMatrix::matmul_tn` must reproduce the output hashes recorded in
//! `kernel_bits.txt`, one section per SIMD dispatch.
//!
//! The cases cross six shapes with five sparsity patterns of the left
//! operand and two kinds of values. The shapes cover odd row chunks (a
//! pooled grain of 5 rows, a last chunk of one row), column counts that
//! leave a remainder after the 12-wide register tile, inner dimensions on
//! and across the 128-wide `k` block, and the small shapes that take the
//! streaming loop. The patterns are all zeros, 1.4% nonzero (the density
//! of the Cora-scale attributes), 30%, fully dense, and "blocks", where
//! each row's 128-wide `k` block is either all zero or full. Every case
//! runs pooled (every product chunked, 4 threads) and serial (1 thread,
//! one chunk).
//!
//! The test reruns itself under the scalar dispatch on an AVX2 host;
//! `aneci_linalg::golden` holds the protocol that re-records the fixture.

use std::fmt::Write as _;

use aneci_linalg::golden::{self, Fixture};
use aneci_linalg::{pool, DenseMatrix};

/// `(m, k, n)`: `matmul` multiplies an `m×k` by a `k×n`; `matmul_tn`
/// multiplies the transpose of the same `m×k` by an `m×n`.
const SHAPES: [(usize, usize, usize); 6] = [
    (301, 300, 64), // pooled grain 5, last chunk 1 row; k = 2·128 + 44; n % 12 = 4
    (37, 129, 30),  // grain 4, last chunk 1 row; k = 128 + 1; n % 12 = 6
    (64, 128, 12),  // one full k block, one full tile column
    (130, 256, 24), // two full k blocks, even rows
    (9, 20, 13),    // small, odd rows, n % 12 = 1
    (5, 7, 40),     // k < 8: the streaming loop
];

const PATTERNS: [&str; 5] = ["zero", "cora", "30pct", "dense", "blocks"];

/// SplitMix64: the inputs depend on nothing but this file.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(salt, r, c)`.
fn unit(salt: u64, r: usize, c: usize) -> f64 {
    let h = mix(mix(mix(salt) ^ r as u64) ^ c as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A real value in `[-2, 2)` with a varied mantissa.
fn real(salt: u64, r: usize, c: usize) -> f64 {
    4.0 * unit(salt ^ 0x5eed, r, c) - 2.0
}

/// The `m×k` left operand: `pattern` decides which entries are nonzero,
/// and `binary` whether they are `1.0` or real.
fn left(m: usize, k: usize, pattern: &str, binary: bool) -> DenseMatrix {
    DenseMatrix::from_fn(m, k, |r, c| {
        let keep = match pattern {
            "zero" => false,
            "cora" => unit(1, r, c) < 0.014,
            "30pct" => unit(2, r, c) < 0.3,
            "dense" => true,
            "blocks" => unit(3, r, c / 128) < 0.5,
            _ => unreachable!("unknown pattern {pattern}"),
        };
        match (keep, binary) {
            (false, _) => 0.0,
            (true, true) => 1.0,
            (true, false) => real(4, r, c),
        }
    })
}

/// The fixture lines: `<mode> <kernel> <m>x<k>x<n> <pattern> <values>
/// <hash>`.
fn fixture_lines() -> String {
    let mut out = String::new();
    for (mode, threads) in [("pooled", 4), ("serial", 1)] {
        pool::force_pool();
        pool::set_num_threads(threads);
        for &(m, k, n) in &SHAPES {
            let b = DenseMatrix::from_fn(k, n, |r, c| real(5, r, c));
            let g = DenseMatrix::from_fn(m, n, |r, c| real(6, r, c));
            for pattern in PATTERNS {
                for (values, binary) in [("binary", true), ("real", false)] {
                    let a = left(m, k, pattern, binary);
                    let case = format!("{m}x{k}x{n} {pattern} {values}");
                    let ab = golden::bits_hash(&a.matmul(&b));
                    let atg = golden::bits_hash(&a.matmul_tn(&g));
                    writeln!(out, "{mode} matmul {case} {ab:016x}").unwrap();
                    writeln!(out, "{mode} matmul_tn {case} {atg:016x}").unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn dense_products_match_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/kernel_bits.txt");
    Fixture::new(path).assert(&fixture_lines());
    golden::rerun_scalar("dense_products_match_fixture");
}
