//! LFR stress test: sweep the mixing parameter μ on an LFR-style benchmark
//! (power-law degrees *and* community sizes — much harder than a balanced
//! SBM) and watch community detection degrade gracefully for AnECI, Louvain
//! and spectral embedding + k-means as communities blur.
//!
//! ```sh
//! cargo run --release --example lfr_benchmark
//! ```

use aneci::baselines::{louvain, spectral_embedding, SpectralConfig};
use aneci::graph::graph_stats;
use aneci::prelude::*;

fn main() {
    let seed = 13;
    println!(
        "{:<6}{:>22}{:>22}{:>22}",
        "μ", "Louvain (Q / NMI)", "Spectral+KM (Q / NMI)", "AnECI (Q / NMI)"
    );
    for mu in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let config = LfrConfig {
            num_nodes: 400,
            mean_degree: 10.0,
            mu,
            feature_dim: 64,
            ..Default::default()
        };
        let g = generate_lfr(&config, seed);
        let truth = g.labels.clone().unwrap();
        let k = g.num_classes();

        let lv = louvain(&g, seed);
        let (q_lv, n_lv) = (modularity(g.adjacency(), &lv), nmi(&lv, &truth));

        let z = spectral_embedding(
            &g,
            &SpectralConfig {
                dim: k.max(4),
                seed,
                ..Default::default()
            },
        );
        let km = kmeans_best_of(&z, k, 100, 5, seed).assignments;
        let (q_km, n_km) = (modularity(g.adjacency(), &km), nmi(&km, &truth));

        let (model, _) = train_aneci(&g, &AneciConfig::for_community_detection(k, seed))
            .expect("training failed");
        let an = model.communities();
        let (q_an, n_an) = (modularity(g.adjacency(), &an), nmi(&an, &truth));

        println!(
            "{mu:<6.1}{:>11.3} /{:>7.3}{:>12.3} /{:>7.3}{:>12.3} /{:>7.3}",
            q_lv, n_lv, q_km, n_km, q_an, n_an
        );
    }

    // Show what the generator actually produced at the hardest setting.
    let g = generate_lfr(
        &LfrConfig {
            num_nodes: 400,
            mu: 0.5,
            ..Default::default()
        },
        seed,
    );
    let s = graph_stats(&g);
    println!(
        "\nμ=0.5 graph: {} nodes, {} edges, mean degree {:.1}, max degree {}, \
         {} components, transitivity {:.3}, homophily {:.2}",
        s.nodes,
        s.edges,
        s.mean_degree,
        s.max_degree,
        s.components,
        s.transitivity,
        s.homophily.unwrap_or(0.0)
    );
}
