//! `--robust`: the attack × defense × budget scenario matrix on a labelled
//! SBM — every attack (random, FGA, NETTACK, outlier seeding) × every
//! defense (none, AnECI+, smoothing, robust-GCN) × three perturbation
//! budgets: defense scores, NMI retention, the certification rate and
//! query-time detection TPR/FPR. Gated on AnECI+ ≥ the undefended baseline
//! on mean NMI retention at every budget, smoothing certifying ≥ 60% of
//! clean nodes, and the serving detector flagging ≥ 80% of
//! poisoned-neighborhood queries at ≤ 5% FPR.

use super::{Bar, Gate, Report, Samples};
use aneci_attacks::{
    fga_attack, nettack_attack, random_attack, seed_outliers, select_targets, FgaConfig,
    NettackConfig, OutlierType,
};
use aneci_baselines::defense::RobustGcnDefense;
use aneci_baselines::robust_gcn::RobustGcnConfig;
use aneci_core::anomaly::defense_score;
use aneci_core::defense::{AneciPlus, Defense, NoDefense, SmoothedEncoder};
use aneci_core::{AneciConfig, DenoiseConfig, StopStrategy};
use aneci_eval::nmi;
use aneci_graph::{generate_sbm, sample_split, FeatureKind, SbmConfig};
use aneci_serve::engine::EngineConfig;
use aneci_serve::store::{EmbeddingStore, Metric};
use aneci_serve::QueryEngine;
use std::collections::{BTreeMap, BTreeSet};

pub fn run() -> Report {
    const SEED: u64 = 7;
    const BUDGETS: [usize; 3] = [1, 2, 3];
    const DETECT_K: usize = 10;

    let mut graph = generate_sbm(
        &SbmConfig {
            num_nodes: 120,
            num_classes: 3,
            target_edges: 700,
            homophily: 0.9,
            degree_exponent: None,
            feature_dim: 40,
            features: FeatureKind::BagOfWords {
                p_signal: 0.3,
                p_noise: 0.01,
            },
        },
        SEED,
    );
    let labels = graph.labels.clone().unwrap();
    // The surrogate-driven attacks and the GCN defense train on the split.
    graph.set_split(sample_split(&labels, 10, 20, 60, SEED));

    let config = AneciConfig {
        hidden_dim: 16,
        embed_dim: 3,
        epochs: 40,
        stop: StopStrategy::FixedEpochs,
        seed: SEED,
        ..Default::default()
    };
    let defenses: Vec<Box<dyn Defense>> = vec![
        Box::new(NoDefense {
            config: config.clone(),
        }),
        Box::new(AneciPlus {
            config: config.clone(),
            denoise: DenoiseConfig::default(),
        }),
        Box::new(SmoothedEncoder::with_config(config.clone())),
        Box::new(RobustGcnDefense {
            config: RobustGcnConfig {
                epochs: 60,
                seed: SEED,
                ..Default::default()
            },
        }),
    ];

    // Clean baselines: one defended run per defense on the unattacked graph.
    let mut clean_nmi = BTreeMap::new();
    let mut cert_fraction_clean = 0.0;
    let mut defense_rows = Vec::new();
    for d in &defenses {
        let out = d.defend(&graph).unwrap_or_else(|e| {
            panic!("{} failed on the clean graph: {e}", d.name());
        });
        let score = nmi(&out.communities, &labels);
        if d.name() == "smoothing" {
            cert_fraction_clean = out.certified_fraction();
        }
        defense_rows.push(serde_json::json!({
            "defense": d.name(),
            "clean_nmi": score,
            "certified_fraction": out.certified_fraction(),
        }));
        clean_nmi.insert(d.name().to_string(), score);
        println!(
            "  clean  {:<11} nmi {score:.3}  certified {:.2}",
            d.name(),
            out.certified_fraction()
        );
    }
    let mut gates = vec![Gate::new(
        "smoothing_certified_fraction",
        cert_fraction_clean,
        Bar::AtLeast(0.60),
    )];

    // The full sweep: every attack × budget, every defense on the result.
    let targets = select_targets(&graph, 10, 8);
    let mut matrix = Vec::new();
    // Per defense and budget, the mean NMI retention across the attacks.
    let mut retention_means = BTreeMap::<String, Vec<f64>>::new();
    let mut last_outlier_run = None;
    for &budget in &BUDGETS {
        let fga = FgaConfig {
            perturbations_per_target: budget,
            ..Default::default()
        };
        let nettack = NettackConfig {
            perturbations_per_target: budget,
            seed: SEED,
            ..Default::default()
        };
        let fraction = 0.05 * budget as f64;
        let attacks = [
            ("random", random_attack(&graph, 0.1 * budget as f64, SEED)),
            ("fga", fga_attack(&graph, &targets, &fga)),
            ("nettack", nettack_attack(&graph, &targets, &nettack)),
            (
                "outliers",
                seed_outliers(&graph, fraction, &[OutlierType::Structural], SEED),
            ),
        ];
        for (attack, outcome) in &attacks {
            let attacked = outcome.apply(&graph).unwrap_or_else(|e| {
                panic!("{attack} (budget {budget}) produced a bad delta: {e}");
            });
            let fakes: BTreeSet<(usize, usize)> = outcome
                .fake_edges()
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v)))
                .collect();
            let clean_edges: Vec<(usize, usize)> = attacked
                .edge_list()
                .into_iter()
                .filter(|&(u, v)| !fakes.contains(&(u.min(v), u.max(v))))
                .collect();
            let fake_edges: Vec<(usize, usize)> = fakes.iter().copied().collect();
            for d in &defenses {
                let out = d.defend(&attacked).unwrap_or_else(|e| {
                    panic!("{} failed under {attack} attack: {e}", d.name());
                });
                let score = nmi(&out.communities, &labels);
                let base = clean_nmi[d.name()];
                let retention = if base > 0.0 { score / base } else { 0.0 };
                let ds = defense_score(&out.embedding, &clean_edges, &fake_edges);
                retention_means
                    .entry(d.name().to_string())
                    .or_insert_with(|| vec![0.0; BUDGETS.len()])[budget - 1] +=
                    retention / attacks.len() as f64;
                matrix.push(serde_json::json!({
                    "attack": attack,
                    "budget": budget,
                    "defense": d.name(),
                    "nmi": score,
                    "nmi_retention": retention,
                    "defense_score": ds,
                    "budget_spent": outcome.budget_spent,
                }));
                println!(
                    "  {attack:<8} b{budget}  {:<11} nmi {score:.3}  retention {retention:.3}  DS {ds:.3}",
                    d.name(),
                );
                if (*attack, d.name(), budget) == ("outliers", "none", BUDGETS[2]) {
                    last_outlier_run = Some((out, outcome.outlier_mask(graph.num_nodes())));
                }
            }
        }
    }
    // AnECI+ may trail no defense only by float noise (1e-9) at any budget.
    for (i, &budget) in BUDGETS.iter().enumerate() {
        let (plus, none) = (retention_means["aneci_plus"][i], retention_means["none"][i]);
        let name = format!("aneci_plus_retention_b{budget}");
        gates.push(Gate::new(name, plus, Bar::AtLeast(none - 1e-9)));
    }

    // Query-time poisoned-neighborhood detection: serve the undefended
    // embedding of the heaviest outlier run with its real anomaly scores,
    // calibrate θ on the clean-node score distribution (95th percentile, so
    // per-node FPR is bounded by construction), and measure the flag rate
    // over queries whose true top-k mass sits on planted outliers.
    let (out, truth) = last_outlier_run.expect("outlier cell missing from sweep");
    let clean_scores: Vec<f64> = out
        .anomaly_scores
        .iter()
        .zip(&truth)
        .filter(|&(_, &is_outlier)| !is_outlier)
        .map(|(&s, _)| s)
        .collect();
    let clean_scores = Samples::new(clean_scores);
    let sorted = clean_scores.sorted();
    let theta = sorted[((sorted.len() as f64 * 0.95) as usize).min(sorted.len() - 1)];
    let store = EmbeddingStore::new(out.embedding.clone(), Some(out.membership.clone()))
        .with_anomaly_scores(out.anomaly_scores.clone());
    let engine = QueryEngine::new(
        store,
        EngineConfig::builder()
            .suspect_score(theta)
            .default_k(DETECT_K)
            .build()
            .unwrap(),
    );
    let snap = engine.snapshot();
    let (mut poisoned, mut flagged_poisoned, mut clean, mut flagged_clean) =
        (0u32, 0u32, 0u32, 0u32);
    for node in 0..snap.store.num_nodes() {
        let hits = snap.store.top_k_node(node, DETECT_K, Metric::Cosine);
        let (mut mass, mut hot) = (0.0f64, 0.0f64);
        for &(id, score) in &hits {
            let m = score.max(0.0);
            mass += m;
            if truth[id] {
                hot += m;
            }
        }
        let truly_poisoned = mass > 0.0 && hot / mass >= 0.5;
        let resp = engine.run_line(&format!(r#"{{"op":"top_k","node":{node},"k":{DETECT_K}}}"#));
        let is_flagged = resp.contains(r#""suspect":true"#);
        if truly_poisoned {
            poisoned += 1;
            flagged_poisoned += u32::from(is_flagged);
        } else {
            clean += 1;
            flagged_clean += u32::from(is_flagged);
        }
    }
    // A rate of no queries reads 0 (hits never exceed their total).
    let rate = |hits: u32, of: u32| f64::from(hits) / f64::from(of.max(1));
    let (tpr, fpr) = (rate(flagged_poisoned, poisoned), rate(flagged_clean, clean));
    println!(
        "  detect θ {theta:.3}: {flagged_poisoned}/{poisoned} poisoned-neighborhood queries flagged \
         (TPR {tpr:.2}), {flagged_clean}/{clean} clean flagged (FPR {fpr:.3})"
    );
    gates.extend([
        Gate::new("poisoned_queries", f64::from(poisoned), Bar::AtLeast(1.0)),
        Gate::new("detection_tpr", tpr, Bar::AtLeast(0.80)),
        Gate::new("detection_fpr", fpr, Bar::AtMost(0.05)),
    ]);
    let body = serde_json::json!({
        "graph": {"nodes": 120, "classes": 3, "edges": graph.num_edges(), "seed": SEED},
        "budgets": BUDGETS,
        "defenses": defense_rows,
        "matrix": matrix,
        "nmi_retention_mean_by_budget": retention_means,
        "detection": {
            "theta": theta,
            "suspect_mass": QueryEngine::SUSPECT_MASS,
            "k": DETECT_K,
            "poisoned_queries": poisoned,
            "flagged_poisoned": flagged_poisoned,
            "clean_queries": clean,
            "flagged_clean": flagged_clean,
            "tpr": tpr,
            "fpr": fpr,
        },
    });
    Report { body, gates }
}
