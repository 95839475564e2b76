//! # aneci-bench
//!
//! Shared harness for the experiment binaries (one per table/figure of the
//! paper — see `DESIGN.md` §3 and the `src/bin/` directory):
//!
//! | binary | artifact |
//! |---|---|
//! | `exp_table3` | Table III — node classification on clean graphs |
//! | `exp_fig2`   | Fig. 2 — defense score vs perturbation rate |
//! | `exp_fig3`   | Fig. 3 — accuracy under NETTACK |
//! | `exp_fig4`   | Fig. 4 — accuracy under FGA |
//! | `exp_fig5`   | Fig. 5 — accuracy under random attack |
//! | `exp_fig6`   | Fig. 6 — anomaly detection AUC |
//! | `exp_fig7`   | Fig. 7 — community detection modularity |
//! | `exp_table4` | Table IV — ablation study |
//! | `exp_fig8`   | Fig. 8 — t-SNE coordinates (CSV) |
//! | `exp_fig9`   | Fig. 9 — proximity order & rigidity curves |
//! | `exp_table5` | Table V — running-time comparison |
//! | `run_all`    | everything above, sequentially |
//!
//! Every binary accepts `--scale <f>` (dataset down-scaling, default 0.25),
//! `--seed <u64>`, `--rounds <n>` (independent repetitions) and
//! `--datasets a,b,c`.

use aneci_core::{AneciConfig, AneciModel, StopStrategy};
use aneci_eval::logreg::evaluate_embedding;
use aneci_graph::{AttributedGraph, Benchmark};
use aneci_linalg::rng::{gaussian_matrix, seeded_rng};
use aneci_linalg::DenseMatrix;

/// Parsed command-line arguments shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Number of independent repetitions to average.
    pub rounds: usize,
    /// Datasets to run.
    pub datasets: Vec<Benchmark>,
    /// Output directory for CSV artifacts.
    pub out_dir: String,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 0.25,
            seed: 7,
            rounds: 3,
            datasets: Benchmark::ALL.to_vec(),
            out_dir: "results".to_string(),
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args()`; prints a usage message and exits with
    /// status 2 on bad input.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1).collect()) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: <exp> [--scale f] [--seed u64] [--rounds n] \
                     [--datasets cora,citeseer,polblogs,pubmed] [--out-dir dir]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Fallible parser over an explicit argument vector (unit-testable).
    pub fn try_parse(args: Vec<String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut i = 0;
        while i < args.len() {
            let value = |i: &mut usize| -> Result<String, String> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
            };
            match args[i].as_str() {
                "--scale" => {
                    out.scale = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?
                }
                "--seed" => {
                    out.seed = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?
                }
                "--rounds" => {
                    out.rounds = value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --rounds: {e}"))?
                }
                "--out-dir" => out.out_dir = value(&mut i)?,
                "--datasets" => {
                    out.datasets = value(&mut i)?
                        .split(',')
                        .map(|s| {
                            Benchmark::parse(s).ok_or_else(|| {
                                format!(
                                    "unknown dataset {s} (expected cora, citeseer, polblogs or pubmed)"
                                )
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <exp> [--scale f] [--seed u64] [--rounds n] \
                         [--datasets cora,citeseer,polblogs,pubmed] [--out-dir dir]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        if !(out.scale > 0.0 && out.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".into());
        }
        if out.rounds == 0 {
            return Err("--rounds must be at least 1".into());
        }
        Ok(out)
    }
}

/// Renders an aligned text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:<width$}  ", width = w));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats `mean ± std` the way the paper's tables do (accuracy in %).
pub fn fmt_pct(samples: &[f64]) -> String {
    let mean = aneci_linalg::stats::mean(samples) * 100.0;
    let std = aneci_linalg::stats::std_dev(samples) * 100.0;
    format!("{mean:.1}±{std:.1}")
}

/// Trains AnECI with the node-classification protocol (validation-probed
/// checkpointing via logistic regression on the validation split) and
/// returns the kept embedding.
pub fn aneci_classification_embedding(graph: &AttributedGraph, seed: u64) -> DenseMatrix {
    let config = AneciConfig {
        stop: StopStrategy::ValidationBest { eval_every: 15 },
        seed,
        ..AneciConfig::for_classification(seed)
    };
    let labels = graph.labels.clone().expect("needs labels");
    let k = graph.num_classes();
    let (train, val) = (graph.split.train.clone(), graph.split.val.clone());
    let mut model = AneciModel::new(graph, &config);
    if val.is_empty() {
        model.train(None).expect("training failed");
    } else {
        let mut probe =
            |_epoch: usize, z: &DenseMatrix| evaluate_embedding(z, &labels, &train, &val, k, seed);
        model.train(Some(&mut probe)).expect("training failed");
    }
    model.embedding().clone()
}

/// The classification protocol of Sec. VI-A: logistic regression on the
/// frozen embedding, accuracy on the test split.
pub fn classify(graph: &AttributedGraph, embedding: &DenseMatrix, seed: u64) -> f64 {
    let labels = graph.labels.as_ref().expect("needs labels");
    evaluate_embedding(
        embedding,
        labels,
        &graph.split.train,
        &graph.split.test,
        graph.num_classes(),
        seed,
    )
}

/// Like [`classify`], but evaluates accuracy on an arbitrary node subset
/// (the targeted-attack experiments score target nodes only).
pub fn classify_subset(
    graph: &AttributedGraph,
    embedding: &DenseMatrix,
    nodes: &[usize],
    seed: u64,
) -> f64 {
    let labels = graph.labels.as_ref().expect("needs labels");
    evaluate_embedding(
        embedding,
        labels,
        &graph.split.train,
        nodes,
        graph.num_classes(),
        seed,
    )
}

/// Cora-scale community-structured embedding: the SBM generator's community
/// labels drive a clustered layout (centroid + noise) shaped like a trained
/// model's — the regime the serving recall@10 ≥ 0.95 bar is about. Shared
/// by `bench_report --dynamic` and the recall test.
pub fn clustered_embedding() -> DenseMatrix {
    let graph = Benchmark::Cora.generate(1.0, 7);
    let labels = graph.labels.clone().expect("benchmark graphs are labelled");
    let n = graph.num_nodes();
    let dim = 128;
    let mut rng = seeded_rng(21);
    let centroids = gaussian_matrix(labels.iter().max().unwrap() + 1, dim, 1.0, &mut rng);
    let noise = gaussian_matrix(n, dim, 1.0, &mut rng);
    DenseMatrix::from_fn(n, dim, |r, c| {
        3.0 * centroids.get(labels[r], c) + 0.8 * noise.get(r, c)
    })
}

/// Writes CSV rows to a file under `out_dir`.
pub fn write_csv(
    out_dir: &str,
    file: &str,
    header: &str,
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = std::path::Path::new(out_dir).join(file);
    let mut text = String::from(header);
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::{karate_club, Split};

    #[test]
    fn try_parse_accepts_valid_args() {
        let a = ExpArgs::try_parse(
            [
                "--scale",
                "0.5",
                "--seed",
                "9",
                "--rounds",
                "2",
                "--datasets",
                "cora,pubmed",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        )
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 9);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.datasets.len(), 2);
    }

    #[test]
    fn try_parse_rejects_bad_input() {
        let parse =
            |args: &[&str]| ExpArgs::try_parse(args.iter().map(|s| s.to_string()).collect());
        assert!(parse(&["--datasets", "bogus"])
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(parse(&["--scale", "0"]).unwrap_err().contains("(0, 1]"));
        assert!(parse(&["--scale", "1.5"]).unwrap_err().contains("(0, 1]"));
        assert!(parse(&["--seed"]).unwrap_err().contains("missing value"));
        assert!(parse(&["--seed", "abc"])
            .unwrap_err()
            .contains("bad --seed"));
        assert!(parse(&["--rounds", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn fmt_pct_shape() {
        assert_eq!(fmt_pct(&[0.8, 0.8, 0.8]), "80.0±0.0");
        let s = fmt_pct(&[0.7, 0.9]);
        assert!(s.starts_with("80.0±"));
    }

    #[test]
    fn classify_pipeline_runs_on_karate() {
        let mut g = karate_club();
        g.set_split(Split {
            train: vec![0, 33, 1, 32],
            val: vec![2, 31],
            test: (3..31).collect(),
        });
        let z = aneci_classification_embedding(&g, 1);
        assert_eq!(z.rows(), 34);
        let acc = classify(&g, &z, 1);
        assert!(acc > 0.6, "karate classification accuracy {acc}");
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("aneci_bench_test");
        let path = write_csv(
            dir.to_str().unwrap(),
            "t.csv",
            "a,b",
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }
}
pub mod exp;
