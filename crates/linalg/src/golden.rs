//! The harness of every bit-for-bit pin: fixture files with one section
//! per SIMD dispatch, the hash their lines record, and the rerun that
//! checks the scalar section on an AVX2 host. Only tests call it.
//!
//! Every line of a fixture's section starts with its dispatch's tag,
//! `avx2` or `scalar`: the FMA kernels round differently from the scalar
//! fallback, so each dispatch keeps its own numbers. Sections are sorted
//! by tag; within one, lines stay in recorded order. A fixture may start
//! with one `rng` line ([`Fixture::with_rng_line`]), the first draw of
//! `seeded_rng(0)`, so a change to the `StdRng` stream fails that line
//! first.
//!
//! A plain run compares the current dispatch's section. A pinned test
//! ends with [`rerun_scalar`], which on an AVX2 host runs it again in a
//! child started with `ANECI_NO_SIMD=1` (dispatch latches on first use),
//! so one run checks both sections. With `ANECI_REGEN_GOLDEN` set,
//! [`Fixture::assert`] rewrites the current dispatch's section instead
//! and keeps the other one. The child never rewrites, so a change meant
//! to move the numbers records the scalar section first, then the AVX2
//! one, checks both with a plain run and reviews the diff:
//!
//! ```sh
//! ANECI_REGEN_GOLDEN=1 ANECI_NO_SIMD=1 cargo test -q <tests>
//! ANECI_REGEN_GOLDEN=1 cargo test -q <tests>
//! cargo test -q <tests>
//! git diff --stat
//! ```

use std::path::PathBuf;
use std::process::Command;

use rand::Rng;

use crate::rng::seeded_rng;
use crate::{simd, DenseMatrix};

/// Set, it turns every [`Fixture::assert`] into a rewrite of its section.
const REGEN: &str = "ANECI_REGEN_GOLDEN";

/// The tag of the current SIMD dispatch, which names its section.
fn dispatch() -> &'static str {
    if simd::avx2_active() {
        "avx2"
    } else {
        "scalar"
    }
}

/// FNV-1a over the bit patterns of every entry, row-major.
pub fn bits_hash(m: &DenseMatrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in m.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The first line of a fixture recorded under the seeded `StdRng` stream.
fn rng_line() -> String {
    format!("rng {:016x}", seeded_rng(0).gen::<u64>())
}

/// One fixture file. The lines a test hands it carry no dispatch tag: the
/// fixture adds the current one.
pub struct Fixture {
    path: PathBuf,
    rng_line: bool,
}

impl Fixture {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Fixture {
            path: path.into(),
            rng_line: false,
        }
    }

    /// The same file, whose first line names the `StdRng` stream.
    pub fn with_rng_line(self) -> Self {
        Fixture {
            rng_line: true,
            ..self
        }
    }

    /// Compares `got` with the current dispatch's section, or with
    /// `ANECI_REGEN_GOLDEN` set, rewrites that section.
    pub fn assert(&self, got: &str) {
        if std::env::var_os(REGEN).is_some() {
            self.rewrite(got);
        } else {
            self.check(got);
        }
    }

    /// Compares `got` with the current dispatch's section; never rewrites.
    pub fn check(&self, got: &str) {
        let file = self.read();
        let name = self.path.display();
        if self.rng_line {
            assert_eq!(
                file.lines().next(),
                Some(rng_line().as_str()),
                "{name}: recorded under another StdRng stream"
            );
        }
        let section = format!("{} ", dispatch());
        let want: Vec<&str> = file.lines().filter(|l| l.starts_with(&section)).collect();
        assert!(
            !want.is_empty(),
            "{name}: no {} section; record it with {REGEN}=1",
            dispatch()
        );
        let got = tagged(got);
        let got: Vec<&str> = got.lines().collect();
        let moved: Vec<String> = want
            .iter()
            .zip(&got)
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want {w}\n  got  {g}"))
            .collect();
        assert!(
            moved.is_empty() && want.len() == got.len(),
            "{name}: {} of {} lines moved, {} got; the first:\n{}",
            moved.len(),
            want.len(),
            got.len(),
            moved[..moved.len().min(8)].join("\n")
        );
    }

    fn rewrite(&self, got: &str) {
        let file = self.read();
        let section = format!("{} ", dispatch());
        let got = tagged(got);
        let mut lines: Vec<&str> = file
            .lines()
            .filter(|l| !l.starts_with("rng ") && !l.starts_with(&section))
            .chain(got.lines())
            .collect();
        lines.sort_by_key(|l| l.split(' ').next()); // stable: keeps recorded order
        let head = if self.rng_line {
            rng_line() + "\n"
        } else {
            String::new()
        };
        std::fs::write(&self.path, format!("{head}{}\n", lines.join("\n"))).unwrap();
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.path).unwrap_or_default()
    }
}

/// `got` with the current dispatch's tag before every line.
fn tagged(got: &str) -> String {
    got.lines()
        .map(|l| format!("{} {l}\n", dispatch()))
        .collect()
}

/// Runs the test named `test` (as the harness lists it) again in a child
/// of this test binary with `ANECI_NO_SIMD=1` and without
/// `ANECI_REGEN_GOLDEN`, so the child only compares, and fails unless the
/// child ran and passed that one test. Under the scalar dispatch it does
/// nothing: this process already checks the scalar section.
pub fn rerun_scalar(test: &str) {
    if !simd::avx2_active() {
        return;
    }
    assert!(
        std::env::var_os("ANECI_NO_SIMD").is_none(),
        "ANECI_NO_SIMD must force the scalar fallback"
    );
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", test])
        .env("ANECI_NO_SIMD", "1")
        .env_remove(REGEN)
        .output()
        .expect("spawn the scalar-dispatch child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("test result: ok. 1 passed;"),
        "the scalar-dispatch rerun of {test} did not pass that one test:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
