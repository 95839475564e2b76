//! Telemetry integration tests: training against the global `aneci-obs`
//! registry must (a) emit the documented span/metric names and (b) produce a
//! bit-identical deterministic snapshot regardless of the worker-thread
//! count, since the pool's chunk decomposition is thread-count-independent.
//!
//! All tests share the process-global registry, so they serialize on a
//! mutex and reset the registry at the top.

use std::sync::Mutex;

use aneci::autograd::BatchSampler;
use aneci::linalg::pool;
use aneci::obs;
use aneci::prelude::*;

/// Serializes registry access across the tests in this binary.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn train_karate() -> (AneciModel, TrainReport) {
    let graph = karate_club();
    let config = AneciConfig::builder()
        .embed_dim(2)
        .epochs(30)
        .stop(StopStrategy::FixedEpochs)
        .seed(42)
        .build()
        .expect("valid config");
    train_aneci(&graph, &config).expect("training failed")
}

#[test]
fn training_emits_documented_spans_and_metrics() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    obs::global().reset();

    let (_, report) = train_karate();
    let snap = obs::global().snapshot();

    // Phase spans: one `core.train` wrapper, one child span per epoch phase.
    for name in [
        "span.core.train.calls",
        "span.core.train.encode.calls",
        "span.core.train.modularity.calls",
        "span.core.train.decode.calls",
        "span.core.train.step.calls",
    ] {
        assert!(
            snap.counter(name).is_some_and(|c| c > 0),
            "missing span counter {name}; have: {:?}",
            snap.names()
        );
    }
    assert_eq!(snap.counter("span.core.train.calls"), Some(1));
    assert_eq!(
        snap.counter("span.core.train.encode.calls"),
        Some(report.epochs_run as u64),
        "one encode span per epoch"
    );

    // Training-value histograms observe once per epoch.
    for name in [
        "core.train.loss",
        "core.train.q_tilde",
        "core.train.delta_q",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("missing histogram {name}"));
        assert_eq!(h.count, report.epochs_run as u64);
    }
    assert_eq!(
        snap.counter("core.train.epochs"),
        Some(report.epochs_run as u64)
    );

    // The always-on kernel counters saw work during training.
    let kernel_calls: u64 = snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("linalg.kernel.") && n.ends_with(".calls"))
        .map(|(_, v)| v)
        .sum();
    assert!(kernel_calls > 0, "no linalg kernel calls recorded");
}

#[test]
fn deterministic_snapshot_is_thread_count_invariant() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pool::force_pool();

    obs::global().reset();
    pool::set_num_threads(1);
    train_karate();
    let single = obs::global().snapshot().deterministic();

    obs::global().reset();
    pool::set_num_threads(4);
    train_karate();
    let multi = obs::global().snapshot().deterministic();

    assert!(
        !single.counters.is_empty() && !single.histograms.is_empty(),
        "deterministic snapshot should retain counters and histograms"
    );
    assert_eq!(
        single, multi,
        "deterministic registry snapshot must not depend on the thread count"
    );
}

#[test]
fn deterministic_filter_drops_timing_and_cache_metrics() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    obs::global().reset();

    train_karate();
    let snap = obs::global().snapshot();
    let det = snap.deterministic();

    assert!(
        snap.names().iter().any(|n| n.ends_with("_ns")),
        "full snapshot should contain wall-time metrics"
    );
    for name in det.names() {
        assert!(
            !name.ends_with("_ns"),
            "deterministic snapshot leaked timing metric {name}"
        );
        assert!(
            !name
                .split('.')
                .any(|seg| seg == "dispatch" || seg == "cache"),
            "deterministic snapshot leaked scheduling metric {name}"
        );
    }
}

/// Opened once per batch whose operators the trainer has to build.
const PREPARE_CALLS: &str = "span.core.train.batch.prepare.calls";

/// `(count, sum)` of a histogram in `snap`, `(0, 0)` when absent.
fn count_and_sum(snap: &obs::Snapshot, name: &str) -> (u64, f64) {
    snap.histogram(name).map_or((0, 0.0), |h| (h.count, h.sum))
}

#[test]
fn batch_telemetry_counts_the_sampler_plans() {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());

    // Mini-batch: two community batches per epoch, each hop-expanded.
    let graph = karate_club();
    let labels = graph.labels.clone().expect("karate has factions");
    let config = AneciConfig::builder()
        .embed_dim(2)
        .epochs(6)
        .stop(StopStrategy::FixedEpochs)
        .seed(42)
        .build()
        .expect("valid config");
    let strategy = BatchStrategy::CommunityAware {
        communities_per_batch: 1,
        hops: 1,
        max_batch_nodes: 0,
    };
    obs::global().reset();
    let mut mini =
        AneciModel::from_parts(graph.adjacency().clone(), graph.features().clone(), &config)
            .expect("valid model");
    let report = mini
        .train_plan(strategy, Some(&labels))
        .expect("training failed");
    let snap = obs::global().snapshot();

    let sampler = BatchSampler::new(graph.adjacency(), strategy, Some(&labels), config.seed);
    let plans: Vec<Vec<Vec<usize>>> = (0..report.epochs_run)
        .map(|epoch| sampler.epoch_plan(epoch))
        .collect();
    let batches = plans.iter().map(Vec::len).sum::<usize>() as u64;
    let nodes = plans.iter().flatten().map(Vec::len).sum::<usize>() as f64;
    let epochs = report.epochs_run as u64;
    assert_eq!(batches, 2 * epochs, "one batch per faction");
    assert_eq!(
        count_and_sum(&snap, "train.batch.nodes"),
        (batches, nodes),
        "one observation per planned batch, of its node count"
    );
    assert_eq!(count_and_sum(&snap, "train.batch.step_ns").0, batches);
    assert_eq!(count_and_sum(&snap, "train.batch.sample_ns").0, epochs);
    let prepared = snap.counter(PREPARE_CALLS).unwrap_or(0);
    assert!(
        (1..=batches).contains(&prepared),
        "one prepare span per cache miss, got {prepared}"
    );

    // Full batch: one batch of every node per epoch, and its prebuilt
    // operators never open a `batch.prepare` span.
    obs::global().reset();
    let (_, report) = train_karate();
    let snap = obs::global().snapshot();
    let epochs = report.epochs_run as u64;
    let n = graph.num_nodes() as f64;
    assert_eq!(
        count_and_sum(&snap, "train.batch.nodes"),
        (epochs, epochs as f64 * n)
    );
    assert_eq!(count_and_sum(&snap, "train.batch.step_ns").0, epochs);
    assert_eq!(count_and_sum(&snap, "train.batch.sample_ns").0, epochs);
    assert_eq!(snap.counter(PREPARE_CALLS).unwrap_or(0), 0);
}
