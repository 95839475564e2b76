//! Community detection on a planted-partition network: AnECI's softmax
//! membership vs Louvain and k-means over baseline embeddings (the Fig. 7
//! protocol), scored by modularity and NMI against the planted truth.
//! Also demonstrates graph I/O: the generated network is saved to and
//! reloaded from JSON before use.
//!
//! ```sh
//! cargo run --release --example community_detection
//! ```

use aneci::baselines::{deepwalk, louvain, DeepWalkConfig};
use aneci::graph::io::{load_json, save_json};
use aneci::prelude::*;

fn main() {
    let seed = 3;
    let config = SbmConfig {
        num_nodes: 800,
        num_classes: 5,
        target_edges: 4000,
        homophily: 0.85,
        degree_exponent: Some(2.5),
        feature_dim: 200,
        features: FeatureKind::BagOfWords {
            p_signal: 0.2,
            p_noise: 0.01,
        },
    };
    let generated = generate_sbm(&config, seed);

    // Round-trip through JSON (checkpointing a generated benchmark).
    let path = std::env::temp_dir().join("aneci_example_sbm.json");
    save_json(&generated, &path).expect("save graph");
    let graph = load_json(&path).expect("load graph");
    println!(
        "generated + reloaded SBM: {} nodes, {} edges, {} planted communities",
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_classes()
    );
    let truth = graph.labels.clone().unwrap();
    let k = graph.num_classes();

    println!("\n{:<22}{:>12}{:>8}", "method", "modularity", "NMI");

    // Louvain: direct modularity maximization.
    let lv = louvain(&graph, seed);
    println!(
        "{:<22}{:>12.3}{:>8.3}",
        "Louvain",
        modularity(graph.adjacency(), &lv),
        nmi(&lv, &truth)
    );

    // DeepWalk + k-means++.
    let z = deepwalk(
        &graph,
        &DeepWalkConfig {
            dim: 16,
            seed,
            ..Default::default()
        },
    );
    let km = kmeans_best_of(&z, k, 100, 5, seed).assignments;
    println!(
        "{:<22}{:>12.3}{:>8.3}",
        "DeepWalk + k-means++",
        modularity(graph.adjacency(), &km),
        nmi(&km, &truth)
    );

    // AnECI: the membership matrix is the clustering.
    let (model, report) = train_aneci(&graph, &AneciConfig::for_community_detection(k, seed))
        .expect("training failed");
    let communities = model.communities();
    println!(
        "{:<22}{:>12.3}{:>8.3}",
        "AnECI (argmax P)",
        modularity(graph.adjacency(), &communities),
        nmi(&communities, &truth)
    );
    println!(
        "\nAnECI generalized modularity Q̃ rose {:.4} → {:.4} over {} epochs",
        report.modularity.first().unwrap(),
        report.modularity.last().unwrap(),
        report.epochs_run
    );
    std::fs::remove_file(path).ok();
}
