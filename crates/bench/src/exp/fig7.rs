//! Fig. 7 — community detection measured by modularity (Eq. 4).
//!
//! The paper's fairness protocol: attributes are replaced by the identity
//! matrix (vGraph/ComE use structure only). AnECI assigns each node to
//! `argmax_k p_i^k`; embedding baselines are clustered with k-means++; the
//! Louvain row is the classical direct-maximization reference.

use crate::{print_table, write_csv, ExpArgs};
use aneci_baselines::{deepwalk, louvain, DeepWalkConfig, Dgi, DgiConfig, Gae, GaeConfig};
use aneci_core::{train_aneci, AneciConfig};
use aneci_eval::{kmeans_best_of, modularity};
use aneci_linalg::rng::derive_seed;
use aneci_linalg::stats::mean;
use aneci_linalg::DenseMatrix;

const METHODS: [&str; 5] = ["DeepWalk+KM", "GAE+KM", "DGI+KM", "Louvain", "AnECI"];

/// Runs the Fig. 7 experiment.
pub fn run(args: &ExpArgs) {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &dataset in &args.datasets {
        let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); METHODS.len()];
        for round in 0..args.rounds {
            let seed = derive_seed(args.seed, round as u64 + 777);
            let mut graph = dataset.generate(args.scale, seed);
            // Identity attributes for fairness (Sec. VI-D).
            graph.set_features(DenseMatrix::identity(graph.num_nodes()));
            let k = graph.num_classes().max(2);
            eprintln!("[fig7] {} round {} (k = {k})", dataset.name(), round);

            let cluster = |z: &DenseMatrix, seed: u64| -> Vec<usize> {
                kmeans_best_of(z, k, 100, 5, seed).assignments
            };
            let q = |partition: Vec<usize>| modularity(graph.adjacency(), &partition);

            let z = deepwalk(
                &graph,
                &DeepWalkConfig {
                    seed,
                    ..Default::default()
                },
            );
            per_method[0].push(q(cluster(&z, seed)));

            let gae = Gae::fit(
                &graph,
                &GaeConfig {
                    seed,
                    ..Default::default()
                },
            );
            per_method[1].push(q(cluster(gae.embedding(), seed)));

            let dgi = Dgi::fit(
                &graph,
                &DgiConfig {
                    seed,
                    ..Default::default()
                },
            );
            per_method[2].push(q(cluster(dgi.embedding(), seed)));

            per_method[3].push(q(louvain(&graph, seed)));

            let config = AneciConfig::for_community_detection(k, seed);
            let (model, _) = train_aneci(&graph, &config).unwrap();
            per_method[4].push(q(model.communities()));
        }
        let means: Vec<f64> = per_method.iter().map(|s| mean(s)).collect();
        rows.push({
            let mut r = vec![dataset.name().to_string()];
            r.extend(means.iter().map(|m| format!("{m:.3}")));
            r
        });
        for (name, m) in METHODS.iter().zip(&means) {
            csv_rows.push(vec![
                name.to_string(),
                dataset.name().to_string(),
                format!("{m:.4}"),
            ]);
        }
    }
    print_table(
        "Fig. 7 — community detection modularity (identity attributes)",
        &[
            "dataset",
            "DeepWalk+KM",
            "GAE+KM",
            "DGI+KM",
            "Louvain",
            "AnECI",
        ],
        &rows,
    );
    let path = write_csv(
        &args.out_dir,
        "fig7.csv",
        "method,dataset,modularity",
        &csv_rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
}
