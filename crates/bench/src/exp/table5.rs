//! Table V — running-time comparison.
//!
//! Wall-clock seconds per training epoch and total (training + embedding
//! extraction) per method per dataset, mirroring the paper's two blocks.
//! `bench_report --kernels` covers the kernel-level numbers.

use crate::{print_table, write_csv, ExpArgs};
use aneci_baselines::{
    deepwalk, line, DeepWalkConfig, Dgi, DgiConfig, Gae, GaeConfig, GcnClassifier, GcnConfig,
    LineConfig,
};
use aneci_core::{train_aneci, AneciConfig, StopStrategy};
use aneci_eval::time_it;

/// Runs the Table V timing sweep (1 round; timings are means over epochs).
pub fn run(args: &ExpArgs) {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &dataset in &args.datasets {
        let graph = dataset.generate(args.scale, args.seed);
        eprintln!(
            "[table5] {}: N={} M={}",
            dataset.name(),
            graph.num_nodes(),
            graph.num_edges()
        );
        let mut push = |method: &str, per_epoch: f64, total: f64| {
            rows.push(vec![
                dataset.name().to_string(),
                method.to_string(),
                format!("{per_epoch:.4}"),
                format!("{total:.2}"),
            ]);
            csv_rows.push(vec![
                method.to_string(),
                dataset.name().to_string(),
                format!("{per_epoch:.5}"),
                format!("{total:.3}"),
            ]);
        };

        let (_, t) = time_it(|| {
            deepwalk(
                &graph,
                &DeepWalkConfig {
                    seed: args.seed,
                    ..Default::default()
                },
            )
        });
        push("DeepWalk", t / 2.0, t); // 2 corpus passes ≈ "epochs"

        let (_, t) = time_it(|| {
            line(
                &graph,
                &LineConfig {
                    seed: args.seed,
                    ..Default::default()
                },
            )
        });
        push("LINE", t, t);

        let gae_cfg = GaeConfig {
            seed: args.seed,
            ..Default::default()
        };
        let (_, t) = time_it(|| Gae::fit(&graph, &gae_cfg));
        push("GAE", t / gae_cfg.epochs as f64, t);

        let vgae_cfg = GaeConfig {
            variational: true,
            seed: args.seed,
            ..Default::default()
        };
        let (_, t) = time_it(|| Gae::fit(&graph, &vgae_cfg));
        push("VGAE", t / vgae_cfg.epochs as f64, t);

        let dgi_cfg = DgiConfig {
            seed: args.seed,
            ..Default::default()
        };
        let (_, t) = time_it(|| Dgi::fit(&graph, &dgi_cfg));
        push("DGI", t / dgi_cfg.epochs as f64, t);

        let gcn_cfg = GcnConfig {
            patience: 0,
            seed: args.seed,
            ..Default::default()
        };
        let (model, t) = time_it(|| GcnClassifier::fit(&graph, &gcn_cfg));
        push("GCN", t / model.train_losses.len() as f64, t);

        let aneci_cfg = AneciConfig {
            epochs: 150,
            stop: StopStrategy::FixedEpochs,
            seed: args.seed,
            ..Default::default()
        };
        let ((_, report), t) = time_it(|| train_aneci(&graph, &aneci_cfg).unwrap());
        push("AnECI", t / report.epochs_run as f64, t);
    }
    print_table(
        "Table V — running time (seconds/epoch, total seconds)",
        &["dataset", "method", "s/epoch", "total s"],
        &rows,
    );
    let path = write_csv(
        &args.out_dir,
        "table5.csv",
        "method,dataset,sec_per_epoch,total_sec",
        &csv_rows,
    )
    .expect("write csv");
    println!("wrote {}", path.display());
}
