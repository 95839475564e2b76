//! `--scale [max_nodes]`: stream a planted-partition graph at each tier,
//! train AnECI through the community-aware mini-batch path, and report
//! nodes/sec, peak RSS and each training leg's minor page faults next to
//! the run's `Ã` row store and its budget. The 10k tier also A/Bs against
//! full-batch training and gates on quality (NMI/modularity within 0.02)
//! and throughput (mini-batch ≥ 1.0× full-batch nodes/sec).

use super::{Bar, Gate, Report};
use aneci_core::config::ROW_STORE_BUDGET_BYTES;
use aneci_core::{
    classic_modularity, AneciConfig, AneciModel, BatchStrategy, ReconMode, StopStrategy,
};
use aneci_eval::metrics::nmi;
use aneci_graph::{generate_streamed, ProximityConfig, StreamingConfig};
use std::time::Instant;

/// Sum of the `train.batch.nodes` histogram — total nodes processed by
/// `train` and `train_plan` since process start (deltas around a run give
/// its throughput numerator).
fn batch_nodes_sum() -> f64 {
    aneci_obs::global()
        .snapshot()
        .histogram("train.batch.nodes")
        .map_or(0.0, |h| h.sum)
}

/// Process peak RSS in MB (None off-Linux).
fn peak_rss_mb() -> Option<f64> {
    aneci_obs::peak_rss_bytes().map(|b| b as f64 / 1e6)
}

/// Runs `f` and returns its result, its wall time in seconds and the minor
/// page faults the process took meanwhile (None off-Linux). The counter is
/// read outside the timed region, so the time is `f`'s alone.
fn timed_with_faults<T>(f: impl FnOnce() -> T) -> (T, f64, Option<u64>) {
    let before = aneci_obs::minor_faults();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let faults = before.zip(aneci_obs::minor_faults()).map(|(b, a)| a - b);
    (out, secs, faults)
}

pub fn run(max_nodes: usize) -> Report {
    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect();
    assert!(
        !sizes.is_empty(),
        "--scale cap {max_nodes} excludes every tier (smallest is 10000)"
    );

    let mut tiers: Vec<serde_json::Value> = Vec::new();
    let mut fullbatch_10k: Option<serde_json::Value> = None;
    let mut gates = Vec::new();

    for &n in &sizes {
        let scfg = StreamingConfig::scale(n).expect("valid scale preset");
        let k = scfg.num_communities;
        let t = Instant::now();
        let streamed = generate_streamed(&scfg, 42, 100_000);
        let gen_secs = t.elapsed().as_secs_f64();
        let edges = streamed.num_edges();

        // Tier knobs: the 10k tier keeps `embed = k` so argmax membership
        // is a community detector (the NMI gate needs that); the big tiers
        // measure throughput at a fixed width. Batches target a few
        // thousand to ~20k nodes before hop expansion.
        let epochs = if n <= 10_000 { 12 } else { 3 };
        let embed_dim = if n <= 10_000 { k } else { 32 };
        let target_batch = (n / 3).clamp(2_000, 20_000);
        let communities_per_batch = (k * target_batch).div_ceil(n).max(1);
        let config = AneciConfig {
            hidden_dim: 32,
            embed_dim,
            epochs,
            stop: StopStrategy::FixedEpochs,
            recon: ReconMode::Sampled { neg_ratio: 1 },
            proximity: ProximityConfig::uniform(2),
            seed: 42,
            ..AneciConfig::default()
        };
        let strategy = BatchStrategy::CommunityAware {
            communities_per_batch,
            hops: 1,
            max_batch_nodes: 0,
        };

        let mut mini = AneciModel::from_parts(
            streamed.adjacency.clone(),
            streamed.features.clone(),
            &config,
        )
        .expect("scale config is valid");
        let nodes_before = batch_nodes_sum();
        let (report, train_secs, mini_faults) = timed_with_faults(|| {
            mini.train_plan(strategy, Some(&streamed.labels))
                .expect("mini-batch training failed")
        });
        let nodes_processed = batch_nodes_sum() - nodes_before;
        let mini_nps = nodes_processed / train_secs.max(1e-12);
        let peak_mb = peak_rss_mb();
        // The bytes of `Ã` rows the run kept for its later batches.
        let store_mb = aneci_obs::global()
            .snapshot()
            .gauge("train.row_store.bytes")
            .map(|b| b / 1e6);
        let budget_mb = ROW_STORE_BUDGET_BYTES as f64 / 1e6;

        println!(
            "tier {n}: {k} communities, {edges} edges (gen {gen_secs:.1}s) — \
             {epochs} epochs in {train_secs:.1}s, {mini_nps:.0} nodes/s, \
             peak RSS {}, {} minor faults, row store {} of {budget_mb:.0} MB",
            peak_mb.map_or("n/a".into(), |m| format!("{m:.0} MB")),
            mini_faults.map_or("n/a".into(), |f| f.to_string()),
            store_mb.map_or("n/a".into(), |m| format!("{m:.1}")),
        );

        tiers.push(serde_json::json!({
            "nodes": n,
            "communities": k,
            "edges": edges,
            "generation_secs": gen_secs,
            "epochs": report.epochs_run,
            "communities_per_batch": communities_per_batch,
            "train_secs": train_secs,
            "nodes_processed": nodes_processed,
            "nodes_per_sec": mini_nps,
            "final_loss": report.losses.last().copied(),
            "peak_rss_mb": peak_mb,
            "minor_faults": mini_faults,
            "row_store_mb": store_mb,
            "row_store_budget_mb": budget_mb,
        }));

        // Full-batch A/B + quality/throughput gates at the 10k tier: the
        // same graph through `AneciModel::train`, compared on NMI against
        // the planted labels, hard-partition modularity, and nodes/sec.
        if n == 10_000 {
            let graph = streamed.to_attributed();
            let mut full = AneciModel::try_new(&graph, &config).expect("scale config is valid");
            let (full_report, full_secs, full_faults) =
                timed_with_faults(|| full.train(None).expect("full-batch training failed"));
            let full_nps = (n * full_report.epochs_run) as f64 / full_secs.max(1e-12);

            let full_pred = full.communities();
            let mini_pred = mini.communities();
            let full_nmi = nmi(&full_pred, &streamed.labels);
            let mini_nmi = nmi(&mini_pred, &streamed.labels);
            let full_q = classic_modularity(&streamed.adjacency, &full_pred);
            let mini_q = classic_modularity(&streamed.adjacency, &mini_pred);
            let nps_ratio = mini_nps / full_nps.max(1e-12);

            println!(
                "  full-batch A/B: NMI {full_nmi:.3} vs {mini_nmi:.3} (mini), \
                 Q {full_q:.3} vs {mini_q:.3}, \
                 {full_nps:.0} vs {mini_nps:.0} nodes/s ({nps_ratio:.2}x), \
                 {} full-batch minor faults",
                full_faults.map_or("n/a".into(), |f| f.to_string()),
            );

            gates = vec![
                Gate::new("10k_mini_nmi", mini_nmi, Bar::AtLeast(full_nmi - 0.02)),
                Gate::new("10k_mini_modularity", mini_q, Bar::AtLeast(full_q - 0.02)),
                Gate::new("10k_nodes_per_sec_ratio", nps_ratio, Bar::AtLeast(1.0)),
            ];
            fullbatch_10k = Some(serde_json::json!({
                "full_secs": full_secs,
                "full_nodes_per_sec": full_nps,
                "mini_nodes_per_sec": mini_nps,
                "nodes_per_sec_ratio": nps_ratio,
                "full_nmi": full_nmi,
                "mini_nmi": mini_nmi,
                "full_modularity": full_q,
                "mini_modularity": mini_q,
                "peak_rss_mb": peak_rss_mb(),
                "full_minor_faults": full_faults,
            }));
        }
    }

    Report {
        body: serde_json::json!({
            "max_nodes": max_nodes,
            "tiers": tiers,
            "fullbatch_10k": fullbatch_10k,
        }),
        gates,
    }
}
