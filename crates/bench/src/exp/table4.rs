//! Table IV — ablation study (paper: on Cora).
//!
//! Variants:
//!
//! * **Raw feature** — the attribute matrix `X` itself;
//! * **+Encoder** — the *untrained* GCN encoder output (pure Laplacian
//!   smoothing of `X`, as the paper's visualization discussion describes);
//! * **+Modularity** — AnECI trained with the modularity term only
//!   (`β₂ = 0`);
//! * **Full model** — AnECI with both loss terms.
//!
//! Tasks: node classification (logistic regression, ACC), anomaly detection
//! (Mix outliers; a uniform isolation-forest scoring over every variant's
//! embedding so the comparison is apples-to-apples), and community
//! detection (k-means++ partition scored by modularity).

use crate::{classify, print_table, ExpArgs};
use aneci_attacks::{seed_outliers, OutlierType};
use aneci_core::{AneciConfig, AneciModel, StopStrategy};
use aneci_eval::{auc, isolation_forest_scores, kmeans_best_of, modularity, IsolationForestConfig};
use aneci_graph::AttributedGraph;
use aneci_linalg::rng::derive_seed;
use aneci_linalg::stats::mean;
use aneci_linalg::DenseMatrix;

/// The four ablation variants.
#[derive(Clone, Copy, Debug)]
pub enum Variant {
    /// `X` as the embedding.
    RawFeature,
    /// Untrained encoder (graph smoothing of `X`).
    EncoderOnly,
    /// Modularity loss only (`β₂ = 0`).
    PlusModularity,
    /// Full AnECI objective.
    Full,
}

impl Variant {
    /// All variants in table order.
    pub const ALL: [Variant; 4] = [
        Self::RawFeature,
        Self::EncoderOnly,
        Self::PlusModularity,
        Self::Full,
    ];

    /// Row label.
    pub fn name(&self) -> &'static str {
        match self {
            Self::RawFeature => "Raw feature",
            Self::EncoderOnly => "+Encoder",
            Self::PlusModularity => "+Modularity",
            Self::Full => "Full model",
        }
    }

    /// Produces the variant's embedding for a graph.
    pub fn embed(&self, graph: &AttributedGraph, seed: u64) -> DenseMatrix {
        match self {
            Self::RawFeature => graph.features().clone(),
            Self::EncoderOnly => {
                // Untrained encoder = forward pass with the Xavier init.
                let config = AneciConfig {
                    seed,
                    ..Default::default()
                };
                AneciModel::new(graph, &config).forward_embedding()
            }
            Self::PlusModularity => {
                let config = AneciConfig {
                    beta2: 0.0,
                    epochs: 150,
                    stop: StopStrategy::FixedEpochs,
                    seed,
                    ..Default::default()
                };
                let mut model = AneciModel::new(graph, &config);
                model.train(None).expect("training failed");
                model.embedding().clone()
            }
            Self::Full => {
                let config = AneciConfig {
                    epochs: 150,
                    stop: StopStrategy::FixedEpochs,
                    seed,
                    ..Default::default()
                };
                let mut model = AneciModel::new(graph, &config);
                model.train(None).expect("training failed");
                model.embedding().clone()
            }
        }
    }
}

/// Runs the Table IV ablation (first requested dataset; paper uses Cora).
pub fn run(args: &ExpArgs) {
    let dataset = args.datasets[0];
    let mut acc = vec![Vec::new(); 4];
    let mut auc_scores = vec![Vec::new(); 4];
    let mut mods = vec![Vec::new(); 4];

    for round in 0..args.rounds {
        let seed = derive_seed(args.seed, round as u64 + 4000);
        let graph = dataset.generate(args.scale, seed);
        let k = graph.num_classes().max(2);
        let outcome = seed_outliers(
            &graph,
            0.05,
            &[
                OutlierType::Structural,
                OutlierType::Attribute,
                OutlierType::Combined,
            ],
            seed,
        );
        let seeded = outcome.apply(&graph).expect("outlier delta");
        let truth = outcome.outlier_mask(graph.num_nodes());
        eprintln!("[table4] {} round {round}", dataset.name());

        for (slot, variant) in Variant::ALL.iter().enumerate() {
            // Classification on the clean graph.
            let z = variant.embed(&graph, seed);
            acc[slot].push(classify(&graph, &z, seed));

            // Anomaly detection on the seeded graph.
            let z_anom = variant.embed(&seeded, seed);
            let scores = isolation_forest_scores(
                &z_anom,
                &IsolationForestConfig {
                    seed,
                    ..Default::default()
                },
            );
            auc_scores[slot].push(auc(&scores, &truth));

            // Community detection on the clean graph.
            let partition = kmeans_best_of(&z, k, 100, 5, seed).assignments;
            mods[slot].push(modularity(graph.adjacency(), &partition));
        }
    }

    let rows: Vec<Vec<String>> = Variant::ALL
        .iter()
        .enumerate()
        .map(|(slot, v)| {
            vec![
                v.name().to_string(),
                format!("{:.3}", mean(&acc[slot])),
                format!("{:.3}", mean(&auc_scores[slot])),
                format!("{:.3}", mean(&mods[slot])),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Table IV — ablation on {} (ACC / AUC / Modularity)",
            dataset.name()
        ),
        &[
            "variant",
            "classification ACC",
            "anomaly AUC",
            "community Q",
        ],
        &rows,
    );
}
