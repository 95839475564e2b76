//! End-to-end integration tests spanning every crate: dataset generation →
//! model training → attack → defense → evaluation.
//!
//! These run in release mode comfortably; under `cargo test` (debug) they
//! are still sized to finish in seconds each.

use aneci::attacks::random_attack;
use aneci::baselines::{Gae, GaeConfig};
use aneci::core::{train_aneci, AneciConfig, StopStrategy};
use aneci::eval::logreg::evaluate_embedding;
use aneci::eval::{modularity, nmi};
use aneci::graph::{generate_sbm, sample_split, Benchmark, FeatureKind, SbmConfig};

fn small_benchmark(seed: u64) -> aneci::graph::AttributedGraph {
    let config = SbmConfig {
        num_nodes: 240,
        num_classes: 3,
        target_edges: 1100,
        homophily: 0.88,
        degree_exponent: Some(2.6),
        feature_dim: 96,
        features: FeatureKind::BagOfWords {
            p_signal: 0.3,
            p_noise: 0.01,
        },
    };
    let mut g = generate_sbm(&config, seed);
    let labels = g.labels.clone().unwrap();
    g.set_split(sample_split(&labels, 15, 45, 120, seed));
    g
}

fn quick_aneci(seed: u64) -> AneciConfig {
    AneciConfig {
        hidden_dim: 32,
        embed_dim: 8,
        epochs: 80,
        stop: StopStrategy::FixedEpochs,
        seed,
        ..Default::default()
    }
}

/// The headline pipeline: AnECI embeddings classify well above chance and
/// above the raw-feature baseline under the paper's logreg protocol.
#[test]
fn classification_pipeline_beats_raw_features() {
    let g = small_benchmark(1);
    let labels = g.labels.clone().unwrap();
    let (model, report) = train_aneci(&g, &quick_aneci(1)).unwrap();
    assert!(report.losses.last().unwrap().is_finite());

    let acc_aneci = evaluate_embedding(
        model.embedding(),
        &labels,
        &g.split.train,
        &g.split.test,
        3,
        1,
    );
    let acc_raw = evaluate_embedding(g.features(), &labels, &g.split.train, &g.split.test, 3, 1);
    assert!(
        acc_aneci > 1.0 / 3.0 + 0.2,
        "AnECI accuracy too low: {acc_aneci}"
    );
    assert!(
        acc_aneci >= acc_raw - 0.05,
        "AnECI ({acc_aneci}) should not trail raw features ({acc_raw}) meaningfully"
    );
}

/// Community pipeline: the learned membership recovers the planted
/// partition with positive modularity and solid NMI.
#[test]
fn community_pipeline_recovers_planted_partition() {
    let g = small_benchmark(2);
    let mut cfg = quick_aneci(2);
    cfg.embed_dim = 3;
    cfg.epochs = 150;
    let (model, _) = train_aneci(&g, &cfg).unwrap();
    let communities = model.communities();
    let truth = g.labels.as_ref().unwrap();
    let q = modularity(g.adjacency(), &communities);
    let agreement = nmi(&communities, truth);
    assert!(q > 0.3, "modularity {q}");
    assert!(agreement > 0.5, "NMI {agreement}");
}

/// Robustness ordering (the paper's central claim, Fig. 2): under a heavy
/// random attack, AnECI's embedding isolates fake edges better than GAE's.
#[test]
fn aneci_defense_score_beats_gae_under_attack() {
    let g = small_benchmark(3);
    let attack = random_attack(&g, 0.3, 3);
    let poisoned = attack.apply(&g).unwrap();
    let clean_edges = g.edge_list();

    let (aneci, _) = train_aneci(&poisoned, &quick_aneci(3)).unwrap();
    let ds_aneci = aneci::core::defense_score(aneci.embedding(), &clean_edges, attack.fake_edges());

    let gae = Gae::fit(
        &poisoned,
        &GaeConfig {
            epochs: 80,
            seed: 3,
            ..Default::default()
        },
    );
    let ds_gae = aneci::core::defense_score(gae.embedding(), &clean_edges, attack.fake_edges());

    assert!(
        ds_aneci > ds_gae,
        "expected AnECI defense score ({ds_aneci:.3}) > GAE ({ds_gae:.3})"
    );
    assert!(
        ds_aneci > 1.1,
        "AnECI should clearly separate fakes: DS = {ds_aneci:.3}"
    );
}

/// Attacks degrade accuracy; the drop must be visible for a pairwise
/// method retrained on the poisoned graph.
#[test]
fn random_attack_degrades_gae_accuracy() {
    let g = small_benchmark(4);
    let labels = g.labels.clone().unwrap();
    let eval = |graph: &aneci::graph::AttributedGraph| {
        let gae = Gae::fit(
            graph,
            &GaeConfig {
                epochs: 80,
                seed: 4,
                ..Default::default()
            },
        );
        evaluate_embedding(
            gae.embedding(),
            &labels,
            &g.split.train,
            &g.split.test,
            3,
            4,
        )
    };
    let clean = eval(&g);
    let poisoned = eval(&random_attack(&g, 0.5, 4).apply(&g).unwrap());
    assert!(
        poisoned < clean + 0.02,
        "50% noise should not improve GAE: clean {clean:.3}, poisoned {poisoned:.3}"
    );
}

/// The scaled benchmark generators expose the paper's Table II statistics.
#[test]
fn benchmark_generation_respects_table_ii_shape() {
    for dataset in Benchmark::ALL {
        let g = dataset.generate(0.1, 5);
        let cfg = dataset.config(0.1);
        assert_eq!(g.num_nodes(), cfg.num_nodes, "{}", dataset.name());
        let m = g.num_edges() as f64;
        let want = cfg.target_edges as f64;
        assert!(
            (m - want).abs() / want < 0.15,
            "{}: {m} edges vs target {want}",
            dataset.name()
        );
        assert_eq!(g.num_classes(), cfg.num_classes);
        g.validate().unwrap();
        assert!(!g.split.train.is_empty() && !g.split.test.is_empty());
    }
}
