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
//! A plain run compares the host's dispatch section; on an AVX2 host,
//! `scalar_dispatch_matches_fixture` reruns the comparison in a child with
//! `ANECI_NO_SIMD=1`. `ANECI_REGEN_GOLDEN=1` rewrites the current
//! dispatch's section instead; record the scalar section first, because
//! the default run's child compares against it:
//!
//! ```sh
//! ANECI_REGEN_GOLDEN=1 ANECI_NO_SIMD=1 cargo test -q -p aneci-linalg --test kernel_bits
//! ANECI_REGEN_GOLDEN=1 cargo test -q -p aneci-linalg --test kernel_bits
//! ```

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use aneci_linalg::{pool, simd, DenseMatrix};

/// Held by both tests, so a regenerating run never rewrites the fixture
/// while the scalar child reads it.
static FIXTURE_LOCK: Mutex<()> = Mutex::new(());

fn lock_fixture() -> MutexGuard<'static, ()> {
    FIXTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

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

/// FNV-1a over the bit patterns of every entry, row-major.
fn bits_hash(m: &DenseMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in m.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn dispatch() -> &'static str {
    if simd::avx2_active() {
        "avx2"
    } else {
        "scalar"
    }
}

/// The fixture lines of this dispatch: `<dispatch> <mode> <kernel>
/// <m>x<k>x<n> <pattern> <values> <hash>`.
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
                    let tag = format!("{} {mode}", dispatch());
                    let case = format!("{m}x{k}x{n} {pattern} {values}");
                    let ab = bits_hash(&a.matmul(&b));
                    let atg = bits_hash(&a.matmul_tn(&g));
                    writeln!(out, "{tag} matmul {case} {ab:016x}").unwrap();
                    writeln!(out, "{tag} matmul_tn {case} {atg:016x}").unwrap();
                }
            }
        }
    }
    out
}

fn fixture_path() -> String {
    format!("{}/tests/kernel_bits.txt", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn dense_products_match_fixture() {
    let _guard = lock_fixture();
    let got = fixture_lines();
    let path = fixture_path();
    let file = std::fs::read_to_string(&path).unwrap_or_default();
    let section = format!("{} ", dispatch());
    if std::env::var_os("ANECI_REGEN_GOLDEN").is_some() {
        let mut lines: Vec<&str> = file
            .lines()
            .filter(|l| !l.starts_with(&section))
            .chain(got.lines())
            .collect();
        lines.sort_by_key(|l| l.split(' ').next()); // stable: keeps case order
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        return;
    }
    let want: Vec<&str> = file.lines().filter(|l| l.starts_with(&section)).collect();
    assert!(
        !want.is_empty(),
        "no fixture section for the {} dispatch; record it with ANECI_REGEN_GOLDEN=1",
        dispatch()
    );
    let got: Vec<&str> = got.lines().collect();
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty() && want.len() == got.len(),
        "{} of {} products left the fixture:\n{}",
        moved.len(),
        want.len(),
        moved.join("\n")
    );
}

#[test]
fn scalar_dispatch_matches_fixture() {
    let _guard = lock_fixture();
    if !simd::avx2_active() {
        // This process already compares the scalar section.
        return;
    }
    // Dispatch latches on first use, so the scalar section needs a child
    // started with the fallback forced. It only compares.
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "dense_products_match_fixture"])
        .env("ANECI_NO_SIMD", "1")
        .env_remove("ANECI_REGEN_GOLDEN")
        .output()
        .expect("spawn the scalar-dispatch child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "scalar-dispatch child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("1 passed"),
        "the child ran other than the fixture test:\n{stdout}"
    );
}
