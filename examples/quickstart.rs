//! Quickstart: train AnECI on Zachary's karate club and inspect what it
//! learned.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aneci::prelude::*;

fn main() {
    // 1. Load the (real, embedded) karate-club network: 34 nodes, 78 edges,
    //    two ground-truth factions.
    let graph = karate_club();
    println!(
        "graph: {} nodes, {} edges, homophily {:.2}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.edge_homophily().unwrap()
    );

    // 2. Train AnECI with the community-detection preset (embedding size =
    //    number of communities, so softmax(Z) is the membership matrix).
    let config = AneciConfig::for_community_detection(2, 42);
    let (model, report) = train_aneci(&graph, &config).expect("training failed");
    println!(
        "trained {} epochs; final loss {:.4}, final Q̃ {:.4}",
        report.epochs_run,
        report.losses.last().unwrap(),
        report.modularity.last().unwrap()
    );

    // 3. Read out the hard community assignment and score it.
    let communities = model.communities();
    let truth = graph.labels.as_ref().unwrap();
    println!(
        "modularity of learned partition: {:.3}",
        modularity(graph.adjacency(), &communities)
    );
    println!(
        "NMI vs the real factions:        {:.3}",
        nmi(&communities, truth)
    );

    // 4. The soft membership also gives an anomaly score per node: nodes
    //    straddling both factions have high membership entropy.
    let scores = node_anomaly_scores(&model.membership());
    let mut ranked: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("most community-ambiguous members (the bridge nodes):");
    for (node, score) in ranked.iter().take(5) {
        println!(
            "  node {node:2}  entropy {score:.3}  degree {}",
            graph.degree(*node)
        );
    }

    // 5. Persist the trained model as a `.aneci` checkpoint and reload it.
    //    The round trip is bit-exact; `aneci_http` can serve queries from
    //    this file (see the serve_queries example).
    let path = std::env::temp_dir().join("quickstart.aneci");
    model.save_checkpoint(&path).expect("saving checkpoint");
    let reloaded = AneciModel::load_checkpoint(&path).expect("loading checkpoint");
    assert_eq!(
        reloaded,
        model.checkpoint().unwrap(),
        "checkpoint round trip must be bit-exact"
    );
    println!(
        "checkpoint: saved + reloaded {} nodes x {} dims bit-exactly at {}",
        reloaded.num_nodes(),
        reloaded.embed_dim(),
        path.display()
    );
}
