//! The training engine's memory policy: once `Trainer::run` has run in a
//! process, a burst of multi-megabyte blocks freed and allocated again
//! reuses the heap instead of faulting its pages in afresh.
//!
//! The rounds mimic a training step's buffers (each block above glibc's
//! default mmap threshold, the round larger than its default trim
//! threshold). Under glibc's defaults each round faults nearly every page
//! again. This file is its own test binary with one test, so no other test
//! shares its heap or its fault counter.
#![cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]

use std::os::raw::{c_int, c_ulong};

use aneci_autograd::{Adam, ParamSet, Tape, Trainer, Var};
use aneci_linalg::DenseMatrix;

const MIB: usize = 1 << 20;
const BLOCKS_MIB: [usize; 5] = [8, 6, 7, 5, 3];
const PAGE: usize = 4096;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}
/// `<linux/prctl.h>`: with its argument 1, transparent huge pages are off
/// for the calling process (and its children) from then on.
const PR_SET_THP_DISABLE: c_int = 41;

/// Allocates and writes every block, then frees them all. Writing faults in
/// each page the heap does not already hold.
fn round() {
    let blocks: Vec<Vec<u8>> = BLOCKS_MIB.iter().map(|&mib| vec![1u8; mib * MIB]).collect();
    std::hint::black_box(&blocks);
}

#[test]
fn a_step_reuses_the_memory_the_last_step_freed() {
    // Where transparent huge pages are on for every mapping, a fresh 8 MiB
    // block may fault once per 2 MiB, and the default policy could then
    // stay under the bound. With them off, each fault is a 4 KiB page.
    // SAFETY: the call takes integers by value and only sets a flag of this
    // process's memory map.
    let (on, unused): (c_ulong, c_ulong) = (1, 0);
    let thp_off = unsafe { prctl(PR_SET_THP_DISABLE, on, unused, unused, unused) };
    assert_eq!(thp_off, 0, "prctl(PR_SET_THP_DISABLE) failed");

    let mut params = ParamSet::new();
    params.register("w", DenseMatrix::filled(1, 1, 1.0));
    let mut opt = Adam::new(0.1);
    let mut step = |tape: &mut Tape, w: &[Var], _epoch: usize| tape.frob_sq(w[0]);
    Trainer::new(1)
        .run(&mut params, &mut opt, &mut step)
        .expect("one epoch of a quadratic trains");

    let pages = BLOCKS_MIB.iter().sum::<usize>() * MIB / PAGE; // 7,424
    let mut faults = 0;
    for _ in 0..4 {
        let before = aneci_obs::minor_faults().expect("minflt available on Linux");
        round();
        faults = aneci_obs::minor_faults().unwrap() - before;
    }
    assert!(
        (faults as usize) < pages / 16,
        "the last round faulted {faults} of its {pages} pages in again"
    );
}
