//! Parity and robustness guarantees of the shared training engine.
//!
//! These tests pin down three properties of AnECI training:
//!
//! 1. **Golden trajectories** — [`AneciModel::train`] reproduces the
//!    fixtures checked in under `tests/golden/` bit for bit under every stop
//!    strategy, and [`MiniBatchTrainer::train`] with one
//!    [`BatchStrategy::FullGraph`] batch retraces every fixture whose stop
//!    strategy it supports. A fixture pins every [`TrainReport`] field
//!    (per-epoch loss, Q̃ and rigidity as f64 bits, validation scores, kept
//!    epoch, epochs run) plus an embedding hash, pooled and serial, with one
//!    section per SIMD dispatch. The karate fixtures were recorded from the
//!    hand-rolled reference loop before it was deleted, so matching one bit
//!    for bit is matching that loop.
//! 2. **Thread invariance** — trajectories do not depend on how many pool
//!    workers participate (`ANECI_NUM_THREADS` / `set_num_threads`).
//! 3. **Typed divergence** — models that previously trained through NaNs
//!    (Dominant, DONE) now surface a clean [`TrainError::Diverged`].
//!
//! The karate fixtures run the dense reconstruction loss. The sampled path
//! (`ReconMode::Sampled`, the one every graph above `EXACT_RECON_MAX_NODES`
//! trains) has its own fixture on a 300-node SBM, and a mini-batch plan of
//! partial batches, each cut from the run's store of `Ã` rows, has one on a
//! 600-node streamed graph. GAE's sampled loss, which shares `pair_bce` with
//! AnECI's, has one on a 250-node SBM, and the GCN classifier, early-stopped
//! on its validation loss, one on a 300-node SBM with a split.
//!
//! A plain run compares the host's dispatch section; on an AVX2 host,
//! `scalar_dispatch_matches_golden_fixtures` reruns the golden tests in a
//! child with the scalar fallback forced, so both sections are checked.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use aneci::autograd::train::TrainError;
use aneci::baselines::{
    Dominant, DominantConfig, Done, DoneConfig, Gae, GaeConfig, GcnClassifier, GcnConfig,
};
use aneci::core::{
    classic_modularity, AneciConfig, AneciModel, BatchStrategy, MiniBatchTrainer, ReconMode,
    StopStrategy, TrainReport, ValProbe,
};
use aneci::graph::{
    generate_sbm, generate_streamed, karate_club, sample_split, AttributedGraph, SbmConfig,
    StreamingConfig,
};
use aneci::linalg::pool;
use aneci::linalg::rng::seeded_rng;
use aneci::linalg::{simd, DenseMatrix};
use rand::Rng;

/// The golden and thread-invariance tests mutate process-global pool
/// configuration; every test in this binary takes this lock so a run never
/// sees the dispatch mode change halfway.
static POOL_CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn lock_pool_config() -> MutexGuard<'static, ()> {
    POOL_CONFIG_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn quick_cfg(stop: StopStrategy, seed: u64, epochs: usize) -> AneciConfig {
    AneciConfig {
        hidden_dim: 16,
        embed_dim: 4,
        epochs,
        stop,
        seed,
        ..Default::default()
    }
}

/// The SIMD dispatch names a fixture section: the FMA kernels round
/// differently from the scalar fallback (`ANECI_NO_SIMD`).
fn dispatch() -> &'static str {
    if simd::avx2_active() {
        "avx2"
    } else {
        "scalar"
    }
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

/// The fixture lines of one training run, floats as hex bits:
/// `<tag> <epoch> <loss> <Q̃> <rigidity>` per epoch, `<tag> val <epoch>
/// <score>` per validation probe, `<tag> kept <best epoch> <epochs run>`,
/// then `<tag> embedding <hash>`.
fn golden_lines(tag: &str, report: &TrainReport, embedding: &DenseMatrix) -> String {
    let mut out = String::new();
    let epochs = report.losses.iter().zip(&report.modularity);
    for (epoch, ((loss, q), rig)) in epochs.zip(&report.rigidity).enumerate() {
        let (loss, q, rig) = (loss.to_bits(), q.to_bits(), rig.to_bits());
        writeln!(out, "{tag} {epoch} {loss:016x} {q:016x} {rig:016x}").unwrap();
    }
    for (epoch, score) in &report.val_scores {
        writeln!(out, "{tag} val {epoch} {:016x}", score.to_bits()).unwrap();
    }
    let (best, run) = (report.best_epoch, report.epochs_run);
    writeln!(out, "{tag} kept {best} {run}").unwrap();
    writeln!(out, "{tag} embedding {:016x}", bits_hash(embedding)).unwrap();
    out
}

/// Runs `train` once per pool configuration and concatenates the fixture
/// lines it returns for the tag `<dispatch> <mode>`. Pooled: every kernel
/// takes its chunked path (threshold 1, >1 worker). Serial: one thread, so
/// every kernel runs on the calling thread.
fn golden_runs(mut train: impl FnMut(&str) -> String) -> String {
    let mut got = String::new();
    for (mode, threads) in [("pooled", 4), ("serial", 1)] {
        pool::force_pool();
        pool::set_num_threads(threads);
        got.push_str(&train(&format!("{} {mode}", dispatch())));
    }
    got
}

/// Checks `got` against the current dispatch's section of
/// `tests/golden/<name>.txt`. With `ANECI_REGEN_GOLDEN` set it rewrites that
/// section instead and keeps the other one: `ANECI_REGEN_GOLDEN=1 cargo test
/// -q --test trainer_parity` records the current dispatch, and adding
/// `ANECI_NO_SIMD=1` records the scalar one.
fn assert_golden(name: &str, got: &str) {
    if std::env::var_os("ANECI_REGEN_GOLDEN").is_none() {
        return check_golden(name, got);
    }
    let path = golden_path(name);
    let section = format!("{} ", dispatch());
    let file = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: Vec<&str> = file
        .lines()
        .filter(|l| !l.starts_with("rng ") && !l.starts_with(&section))
        .chain(got.lines())
        .collect();
    lines.sort_by_key(|l| l.split(' ').next()); // stable: keeps run order
    std::fs::write(&path, format!("{}\n{}\n", rng_line(), lines.join("\n"))).unwrap();
}

/// [`assert_golden`] without the rewrite: the mini-batch twins of the
/// full-batch runs only ever compare against the fixture the full-batch run
/// records.
fn check_golden(name: &str, got: &str) {
    let file = std::fs::read_to_string(golden_path(name)).unwrap_or_default();
    assert_eq!(
        file.lines().next(),
        Some(rng_line().as_str()),
        "{name}: the fixture was recorded under another StdRng stream"
    );
    let section = format!("{} ", dispatch());
    let want: Vec<&str> = file.lines().filter(|l| l.starts_with(&section)).collect();
    assert!(
        !want.is_empty(),
        "{name}: no fixture section for the {} dispatch; record it with ANECI_REGEN_GOLDEN=1",
        dispatch()
    );
    assert_eq!(
        want,
        got.lines().collect::<Vec<_>>(),
        "{name}: the trajectory left the golden fixture"
    );
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Every number in a fixture follows from the seeded StdRng stream, which
/// the first draw identifies.
fn rng_line() -> String {
    let probe: u64 = seeded_rng(0).gen();
    format!("rng {probe:016x}")
}

/// Trains a fresh model with [`AneciModel::train`] and returns its report
/// and fixture lines.
fn full_batch(
    tag: &str,
    g: &AttributedGraph,
    cfg: &AneciConfig,
    probe: Option<ValProbe<'_>>,
) -> (TrainReport, String) {
    let mut model = AneciModel::new(g, cfg);
    let report = model.train(probe).unwrap();
    let lines = golden_lines(tag, &report, model.embedding());
    (report, lines)
}

/// Trains with [`MiniBatchTrainer`] on one [`BatchStrategy::FullGraph`]
/// batch per epoch, which must replay the full-batch epoch op for op: same
/// operators, tape order and RNG streams.
fn full_graph_minibatch(
    tag: &str,
    g: &AttributedGraph,
    cfg: &AneciConfig,
) -> (TrainReport, String) {
    let mut mini =
        MiniBatchTrainer::try_new(g.adjacency().clone(), g.features().clone(), cfg).unwrap();
    let report = mini.train(BatchStrategy::FullGraph, None).unwrap();
    let lines = golden_lines(tag, &report, mini.embedding());
    (report, lines)
}

fn fixed_epochs_cfg() -> AneciConfig {
    quick_cfg(StopStrategy::FixedEpochs, 42, 50)
}

/// Seed 7 over 300 epochs stops after 83, so the run reaches the stop.
fn early_stop_cfg() -> AneciConfig {
    quick_cfg(StopStrategy::EarlyStopModularity { patience: 8 }, 7, 300)
}

fn assert_stopped_early(tag: &str, report: &TrainReport, cfg: &AneciConfig) {
    assert!(
        report.epochs_run < cfg.epochs,
        "{tag}: early stopping never fired"
    );
}

#[test]
fn fixed_epochs_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = fixed_epochs_cfg();
    let got = golden_runs(|tag| full_batch(tag, &g, &cfg, None).1);
    assert_golden("karate_fixed_epochs", &got);
}

#[test]
fn minibatch_full_graph_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = fixed_epochs_cfg();
    let got = golden_runs(|tag| full_graph_minibatch(tag, &g, &cfg).1);
    check_golden("karate_fixed_epochs", &got);
}

#[test]
fn early_stop_modularity_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = early_stop_cfg();
    let got = golden_runs(|tag| {
        let (report, lines) = full_batch(tag, &g, &cfg, None);
        assert_stopped_early(tag, &report, &cfg);
        lines
    });
    assert_golden("karate_early_stop", &got);
}

#[test]
fn minibatch_early_stop_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = early_stop_cfg();
    // With one full-coverage batch per epoch, the epoch-mean batch Q̃ that
    // mini-batch training monitors is the full-batch Q̃, so both stop at
    // the same epoch and keep the same embedding.
    let got = golden_runs(|tag| {
        let (report, lines) = full_graph_minibatch(tag, &g, &cfg);
        assert_stopped_early(tag, &report, &cfg);
        lines
    });
    check_golden("karate_early_stop", &got);
}

#[test]
fn validation_best_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = quick_cfg(StopStrategy::ValidationBest { eval_every: 10 }, 3, 50);
    let got = golden_runs(|tag| {
        // A real validation score: the classic modularity of the hard
        // communities on the input graph. It peaks mid-run and then ties, so
        // the strict comparison keeps the first peak.
        let mut probe = |_epoch: usize, z: &DenseMatrix| {
            classic_modularity(g.adjacency(), &z.softmax_rows().argmax_rows())
        };
        let (report, lines) = full_batch(tag, &g, &cfg, Some(&mut probe));
        assert!(
            report.best_epoch + 1 < report.epochs_run,
            "{tag}: the probe kept the last epoch"
        );
        lines
    });
    assert_golden("karate_validation_probe", &got);
}

#[test]
fn validation_loss_fallback_matches_reference_loop_bit_exactly() {
    let _guard = lock_pool_config();
    let g = karate_club();
    // Without a probe the lowest-loss probe epoch is kept. Strong weight
    // decay turns the loss back up before the last epoch.
    let cfg = AneciConfig {
        lr: 0.2,
        weight_decay: 0.5,
        ..quick_cfg(StopStrategy::ValidationBest { eval_every: 5 }, 7, 50)
    };
    let got = golden_runs(|tag| {
        let (report, lines) = full_batch(tag, &g, &cfg, None);
        assert!(
            report.best_epoch + 1 < report.epochs_run,
            "{tag}: the loss fallback kept the last epoch"
        );
        lines
    });
    assert_golden("karate_validation_loss", &got);
}

#[test]
fn training_is_invariant_to_kernel_thread_count() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = quick_cfg(StopStrategy::FixedEpochs, 11, 50);
    let gae_cfg = GaeConfig {
        epochs: 30,
        seed: 11,
        ..Default::default()
    };

    // Serial dispatch (one thread) legitimately rounds reductions differently
    // from pooled dispatch: `DenseMatrix::sum`/`dot` use a strict
    // left-to-right sum serially but chunk-ordered partials when pooled. The
    // invariance contract under test is the pooled one: the chunk
    // decomposition — and therefore the training trajectory — depends only on
    // `(items, grain)`, never on how many workers participate. So compare two
    // pooled worker counts (force_pool also drops the par threshold to 1, so
    // karate-sized work genuinely takes the chunked paths).
    pool::force_pool();

    pool::set_num_threads(2);
    let two_aneci = {
        let mut m = AneciModel::new(&g, &cfg);
        m.train(None).unwrap().losses
    };
    let two_gae = Gae::fit(&g, &gae_cfg).losses;

    pool::set_num_threads(4);
    let four_aneci = {
        let mut m = AneciModel::new(&g, &cfg);
        m.train(None).unwrap().losses
    };
    let four_gae = Gae::fit(&g, &gae_cfg).losses;

    assert_eq!(two_aneci, four_aneci, "AnECI depends on thread count");
    assert_eq!(two_gae, four_gae, "GAE depends on thread count");
}

#[test]
fn dominant_divergence_is_a_typed_error() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = DominantConfig {
        lr: 1e200,
        epochs: 20,
        ..Default::default()
    };
    match Dominant::try_fit(&g, &cfg) {
        Err(TrainError::Diverged { epoch, loss }) => {
            assert!(epoch < 20, "diverged late: epoch {epoch}");
            assert!(!loss.is_finite(), "reported loss should be non-finite");
        }
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("expected Dominant to diverge at lr = 1e200"),
    }
}

#[test]
fn done_divergence_is_a_typed_error() {
    let _guard = lock_pool_config();
    let g = karate_club();
    let cfg = DoneConfig {
        lr: 1e200,
        rounds: 2,
        epochs_per_round: 15,
        ..Default::default()
    };
    match Done::try_fit(&g, &cfg) {
        Err(TrainError::Diverged { epoch, loss }) => {
            assert!(epoch < 15, "diverged late: epoch {epoch}");
            assert!(!loss.is_finite(), "reported loss should be non-finite");
        }
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("expected DONE to diverge at lr = 1e200"),
    }
}

/// A 300-node SBM whose ~40k BCE pairs per epoch put `pair_bce` well past
/// the default pooling threshold, so each pool configuration drives it down
/// a different branch.
fn golden_graph() -> AttributedGraph {
    let sbm = SbmConfig {
        num_nodes: 300,
        target_edges: 1200,
        ..SbmConfig::small()
    };
    generate_sbm(&sbm, 17)
}

#[test]
fn sampled_recon_matches_golden_fixture() {
    let _guard = lock_pool_config();
    let g = golden_graph();
    let cfg = AneciConfig {
        recon: ReconMode::Sampled { neg_ratio: 1 },
        ..quick_cfg(StopStrategy::FixedEpochs, 5, 12)
    };
    let got = golden_runs(|tag| {
        let (_, lines) = full_batch(tag, &g, &cfg, None);
        assert_eq!(
            full_graph_minibatch(tag, &g, &cfg).1,
            lines,
            "{tag}: FullGraph mini-batch left the full-batch trajectory"
        );
        lines
    });
    assert_golden("sampled_recon", &got);
}

/// A plan of genuinely partial batches: the 600-node streamed graph with six
/// planted communities of `tests/minibatch_parity.rs`, two communities per
/// batch plus their one-hop halo, on the sampled loss. Each batch trains on
/// its own cut of `Ã` (rows and columns restricted to the batch, `k̃` and
/// `M̃` summed over the cut), which no `FullGraph` fixture exercises.
#[test]
fn minibatch_partial_matches_golden_fixture() {
    let _guard = lock_pool_config();
    let scfg = StreamingConfig {
        num_communities: 6,
        ..StreamingConfig::scale(600).expect("valid scale preset")
    };
    let g = generate_streamed(&scfg, 31, 2048);
    let cfg = AneciConfig {
        embed_dim: 6,
        recon: ReconMode::Sampled { neg_ratio: 1 },
        ..quick_cfg(StopStrategy::FixedEpochs, 5, 8)
    };
    let strategy = BatchStrategy::CommunityAware {
        communities_per_batch: 2,
        hops: 1,
        max_batch_nodes: 0,
    };
    let got = golden_runs(|tag| {
        let mut mini =
            MiniBatchTrainer::try_new(g.adjacency.clone(), g.features.clone(), &cfg).unwrap();
        let report = mini.train(strategy, Some(&g.labels)).unwrap();
        golden_lines(tag, &report, mini.embedding())
    });
    assert_golden("minibatch_partial", &got);
}

/// GAE on a graph above its `exact_threshold`: each epoch's loss is
/// `pair_bce` over the shared positive pairs and that epoch's negatives, its
/// two parts. The fixture pins every epoch's loss and the embedding.
#[test]
fn gae_sampled_matches_golden_fixture() {
    let _guard = lock_pool_config();
    let sbm = SbmConfig {
        num_nodes: 250,
        ..SbmConfig::small()
    };
    let g = generate_sbm(&sbm, 3);
    let cfg = GaeConfig {
        epochs: 30,
        exact_threshold: 100,
        ..Default::default()
    };
    let got = golden_runs(|tag| {
        let model = Gae::fit(&g, &cfg);
        let mut lines = String::new();
        for (epoch, loss) in model.losses.iter().enumerate() {
            writeln!(lines, "{tag} {epoch} {:016x}", loss.to_bits()).unwrap();
        }
        let hash = bits_hash(model.embedding());
        writeln!(lines, "{tag} embedding {hash:016x}").unwrap();
        lines
    });
    assert_golden("gae_sampled", &got);
}

/// GCN with early stopping on the validation loss: a 300-node, three-class
/// SBM with 20/60/150 train/val/test nodes a class, 60 epochs, patience 5.
/// The fixture pins every epoch's training and validation loss and hashes of
/// the kept weights. The validation loss falls in every epoch here, so the
/// kept weights are the snapshot taken before the last update.
#[test]
fn gcn_classifier_matches_golden_fixture() {
    let _guard = lock_pool_config();
    let sbm = SbmConfig {
        num_nodes: 300,
        num_classes: 3,
        target_edges: 1200,
        ..SbmConfig::small()
    };
    let mut g = generate_sbm(&sbm, 7);
    let labels = g.labels.clone().unwrap();
    g.set_split(sample_split(&labels, 20, 60, 150, 7));
    let cfg = GcnConfig {
        epochs: 60,
        patience: 5,
        ..Default::default()
    };
    let got = golden_runs(|tag| {
        let model = GcnClassifier::fit(&g, &cfg);
        let (train, val) = (&model.train_losses, &model.val_losses);
        assert_eq!(
            train.len(),
            val.len(),
            "{tag}: one validation loss an epoch"
        );
        let mut lines = String::new();
        for (epoch, (t, v)) in train.iter().zip(val).enumerate() {
            let (t, v) = (t.to_bits(), v.to_bits());
            writeln!(lines, "{tag} {epoch} {t:016x} {v:016x}").unwrap();
        }
        let (w1, w2) = model.weights();
        writeln!(lines, "{tag} w1 {:016x}", bits_hash(&w1)).unwrap();
        writeln!(lines, "{tag} w2 {:016x}", bits_hash(&w2)).unwrap();
        lines
    });
    assert_golden("gcn_early_stop", &got);
}

/// Every test of this binary that compares a golden fixture.
const GOLDEN_TESTS: [&str; 10] = [
    "fixed_epochs_matches_reference_loop_bit_exactly",
    "minibatch_full_graph_matches_reference_loop_bit_exactly",
    "early_stop_modularity_matches_reference_loop_bit_exactly",
    "minibatch_early_stop_matches_reference_loop_bit_exactly",
    "validation_best_matches_reference_loop_bit_exactly",
    "validation_loss_fallback_matches_reference_loop_bit_exactly",
    "sampled_recon_matches_golden_fixture",
    "minibatch_partial_matches_golden_fixture",
    "gae_sampled_matches_golden_fixture",
    "gcn_classifier_matches_golden_fixture",
];

#[test]
fn scalar_dispatch_matches_golden_fixtures() {
    // Held while the child reads the fixtures, so a regenerating run here
    // never rewrites one under it.
    let _guard = lock_pool_config();
    if !simd::avx2_active() {
        // This process already compares the scalar section.
        return;
    }
    // Dispatch latches on first use, so the scalar section needs a child
    // started with the fallback forced. It only compares: a regeneration
    // request does not reach it.
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "--test-threads", "1"])
        .args(GOLDEN_TESTS)
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
    let ran = format!("{} passed", GOLDEN_TESTS.len());
    assert!(
        stdout.contains(&ran),
        "the child ran other than the {} golden tests:\n{stdout}",
        GOLDEN_TESTS.len()
    );
}
