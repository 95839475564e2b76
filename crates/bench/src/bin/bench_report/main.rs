//! Gated benchmark suites whose `BENCH_*.json` files are compared from
//! change to change.
//!
//! * `--kernels` ([`kernels`]) times each hot kernel against its serial
//!   reference and each SIMD vector kernel against its scalar reference.
//! * `--scale [max_nodes]` ([`scale`]) is the million-node scaling
//!   benchmark: it streams planted-partition graphs at N ∈ {10k, 100k, 1M}
//!   (capped at `max_nodes`, default 1M), trains them through the
//!   community-aware mini-batch path, and A/Bs the 10k tier against
//!   full-batch training.
//! * `--dynamic` ([`dynamic`]) rolls graph deltas through incremental
//!   `HighOrder::refresh`, then churns a live server's embedding through
//!   `POST /v1/admin/reindex` while readers hammer `/v1/query`.
//! * `--robust` ([`robust`]) sweeps every attack × defense × budget on a
//!   labelled SBM and measures query-time poisoned-neighborhood detection.
//! * `--all` re-invokes this binary once per suite above (with `--scale`
//!   capped at 10k nodes), streams their output, and exits non-zero if any
//!   suite fails — the one-command regression sweep.
//!
//! A suite returns its results and the gates it checked (name, value, bar,
//! verdict). This file alone writes them to `BENCH_<suite>.json` at the
//! repo root under one `run` header (pool threads, available cores, AVX2
//! state), prints every gate's verdict, and exits 1 if any gate failed.
//!
//! Serving throughput and latency are measured by the `bench_e2e` benchmark
//! (`serve-read`, `serve-churn`), not here.
//!
//! Run with `cargo run --release -p aneci-bench --bin bench_report
//! [-- --kernels | -- --scale [N] | -- --dynamic | -- --robust | -- --all]`;
//! no argument means `--kernels`, and any other argument exits 2 with usage.
//! `ANECI_NUM_THREADS` caps the pooled measurements as usual;
//! `ANECI_NO_SIMD=1` forces the scalar fallback (the header then records
//! `"avx2": false`, and the SIMD rows are not gated).

mod dynamic;
mod kernels;
mod robust;
mod scale;

use aneci_linalg::{pool, simd};
use serde::Serialize;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

const USAGE: &str =
    "usage: bench_report [--kernels | --scale [max_nodes] | --dynamic | --robust | --all]";

/// What one suite measured: its results and the gates it checked.
struct Report {
    /// A JSON object whose fields follow the `run` header in the file.
    body: Value,
    gates: Vec<Gate>,
}

/// One gate a suite checked: the measured value, the bar it had to clear,
/// and the verdict.
#[derive(Serialize)]
struct Gate {
    name: String,
    value: f64,
    bar: String,
    pass: bool,
}

/// The comparison a gate's value must satisfy. A NaN value fails every bar.
enum Bar {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
    Equals(f64),
}

impl Gate {
    fn new(name: impl Into<String>, value: f64, bar: Bar) -> Self {
        let (op, bar, pass) = match bar {
            Bar::AtLeast(b) => (">=", b, value >= b),
            Bar::AtMost(b) => ("<=", b, value <= b),
            Bar::Below(b) => ("<", b, value < b),
            Bar::Equals(b) => ("==", b, value == b),
        };
        Self {
            name: name.into(),
            value,
            bar: format!("{op} {bar}"),
            pass,
        }
    }
}

/// Samples of one measurement, sorted on construction so every percentile
/// reads sorted data.
struct Samples(Vec<f64>);

impl Samples {
    fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self(samples)
    }

    /// The samples in ascending order.
    fn sorted(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank `p`-th percentile (`p` in [0, 1]); 0 with no samples.
    fn percentile(&self, p: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[(((n - 1) as f64 * p).round() as usize).min(n - 1)],
        }
    }
}

/// Where a suite ran: the header of every `BENCH_*.json`.
#[derive(Serialize)]
struct Run {
    pool_threads: usize,
    available_cores: usize,
    avx2: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match args.as_slice() {
        [] | ["--kernels"] => run_suite("kernels", kernels::run),
        ["--dynamic"] => run_suite("dynamic", dynamic::run),
        ["--robust"] => run_suite("robust", robust::run),
        ["--all"] => run_all_suites(),
        ["--scale"] => run_suite("scale", || scale::run(1_000_000)),
        ["--scale", max_nodes] => match max_nodes.parse::<usize>() {
            Ok(max_nodes) => run_suite("scale", || scale::run(max_nodes)),
            Err(_) => usage_error(&format!("--scale takes a node count, got `{max_nodes}`")),
        },
        _ => usage_error(&format!("unknown arguments: {}", args.join(" "))),
    };
    std::process::exit(code);
}

fn usage_error(error: &str) -> i32 {
    eprintln!("error: {error}\n{USAGE}");
    2
}

/// Runs one suite on the forced pool (≥ 4 threads, threshold 1) and
/// records it in `BENCH_<name>.json`; returns the exit status.
fn run_suite(name: &str, suite: impl FnOnce() -> Report) -> i32 {
    pool::force_pool();
    let run = Run {
        pool_threads: pool::num_threads(),
        available_cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        avx2: simd::avx2_active(),
    };
    if run.pool_threads > run.available_cores {
        eprintln!(
            "warning: pool runs {} threads but the machine reports only {} hardware core(s); \
             timings oversubscribe and pooled ones understate real speedups",
            run.pool_threads, run.available_cores
        );
    }
    let t = Instant::now();
    let report = suite();
    println!("{name} ran in {:.1} s", t.elapsed().as_secs_f64());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    record(name, &path, &run, &report)
}

/// Writes `report` to `path` under the `run` header, prints every gate's
/// verdict, and returns the exit status: 1 if any gate failed, else 0.
fn record(suite: &str, path: &Path, run: &Run, report: &Report) -> i32 {
    let mut file = serde_json::Object::new();
    file.insert("run", serde_json::json!(run));
    if let Value::Object(body) = &report.body {
        for (key, value) in body.iter() {
            file.insert(key, value.clone());
        }
    }
    file.insert("gates", serde_json::json!(report.gates));
    let text = serde_json::to_string_pretty(&Value::Object(file)).expect("a JSON value prints");
    std::fs::write(path, text + "\n")
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));

    println!("wrote {}", path.display());
    let mut failed = Vec::new();
    for gate in &report.gates {
        let verdict = if gate.pass { "pass" } else { "FAIL" };
        println!(
            "  {verdict} {}: {} (bar {})",
            gate.name, gate.value, gate.bar
        );
        if !gate.pass {
            failed.push(gate.name.as_str());
        }
    }
    if failed.is_empty() {
        return 0;
    }
    eprintln!("FAIL: {suite} gates failed: {}", failed.join(", "));
    1
}

/// `--all`: re-invokes this binary once per suite and fails if any fails.
/// Subprocesses keep each suite's exit status (and its obs registry)
/// isolated while one command drives the whole sweep.
fn run_all_suites() -> i32 {
    let exe = std::env::current_exe().expect("cannot locate bench_report binary");
    let suites: &[&[&str]] = &[
        &["--kernels"],
        &["--dynamic"],
        &["--robust"],
        &["--scale", "10000"],
    ];
    let mut failed = Vec::new();
    for suite in suites {
        println!("=== bench_report {} ===", suite.join(" "));
        let status = std::process::Command::new(&exe)
            .args(*suite)
            .status()
            .unwrap_or_else(|e| panic!("spawning {} failed: {e}", suite.join(" ")));
        if !status.success() {
            failed.push(suite.join(" "));
        }
    }
    if failed.is_empty() {
        println!("all {} suites passed their gates", suites.len());
        return 0;
    }
    eprintln!("{} suite(s) failed: {}", failed.len(), failed.join(", "));
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_percentiles_do_not_depend_on_input_order() {
        let sorted = Samples::new(vec![3.0, 12.5, 27.7, 28.4, 29.9, 31.0]);
        let unsorted = Samples::new(vec![28.4, 3.0, 27.7, 31.0, 12.5, 29.9]);
        assert_eq!(unsorted.sorted(), sorted.sorted());
        for samples in [&sorted, &unsorted] {
            assert_eq!(samples.percentile(0.0), 3.0);
            assert_eq!(samples.percentile(0.50), 28.4);
            assert_eq!(samples.percentile(0.99), 31.0);
        }
        assert_eq!(Samples::new(Vec::new()).percentile(0.99), 0.0);
    }

    #[test]
    fn a_failed_gate_fails_the_suite_and_is_named_in_its_file() {
        let path = std::env::temp_dir().join(format!("bench_report_{}.json", std::process::id()));
        let run = Run {
            pool_threads: 1,
            available_cores: 1,
            avx2: false,
        };
        let report = |value| Report {
            body: serde_json::json!({"rows": 3}),
            gates: vec![
                Gate::new("holds", 1.0, Bar::Equals(1.0)),
                Gate::new("speedup", value, Bar::AtLeast(1.0)),
            ],
        };
        assert_eq!(record("test", &path, &run, &report(1.5)), 0);
        assert_eq!(record("test", &path, &run, &report(0.5)), 1);

        let text = std::fs::read_to_string(&path).expect("record wrote the file");
        std::fs::remove_file(&path).expect("remove the test file");
        let file: Value = serde_json::from_str(&text).expect("the file is JSON");
        let expected = serde_json::json!({
            "run": {"pool_threads": 1, "available_cores": 1, "avx2": false},
            "rows": 3,
            "gates": [
                {"name": "holds", "value": 1.0, "bar": "== 1", "pass": true},
                {"name": "speedup", "value": 0.5, "bar": ">= 1", "pass": false},
            ],
        });
        assert_eq!(file, expected, "{text}");
    }
}
