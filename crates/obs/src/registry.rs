//! The metrics registry: named counters, gauges and fixed-bucket histograms
//! with cheap atomic handles and deterministic snapshots.
//!
//! Registration (name → handle) takes a mutex; recording through a handle is
//! lock-free (relaxed atomics), so callers cache handles for hot paths and
//! look them up by name only for cold ones. [`Registry::reset`] zeroes every
//! metric **in place** — existing handles stay valid — which is what lets
//! benchmarks and tests isolate runs without re-plumbing instrumentation.
//!
//! Snapshots order metrics by name (the registry stores them in `BTreeMap`s)
//! so two snapshots of identical state serialize to identical bytes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::sink::json;

/// Adds `v` to an `f64` stored as bits in an atomic cell (CAS loop).
fn f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Lowers (or raises, per `keep`) an `f64`-as-bits atomic cell to `v`.
fn f64_update(cell: &AtomicU64, v: f64, keep: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if keep(f64::from_bits(cur), v) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

struct HistogramCore {
    /// Ascending bucket upper bounds; an implicit overflow bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket observation counts.
    bucket_counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len() + 1;
        Self {
            bounds,
            bucket_counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn reset(&self) {
        for c in &self.bucket_counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// A fixed-bucket distribution. Cloning shares the underlying cells.
///
/// With an empty bound list the histogram is a running stat (count / sum /
/// min / max / mean, no percentiles), which is what value metrics with
/// unknown range (training loss, gradient norms) use. Latency metrics use
/// the exponential bounds of [`Registry::histogram_time_ns`].
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation (NaN is ignored — a poisoned measurement
    /// must not wedge min/max forever).
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let core = &self.core;
        let idx = core.bounds.partition_point(|&b| b < v);
        core.bucket_counts[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        f64_add(&core.sum_bits, v);
        f64_update(&core.min_bits, v, |cur, new| cur <= new);
        f64_update(&core.max_bits, v, |cur, new| cur >= new);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }
}

/// Exponential (factor-2) nanosecond latency bounds: 256 ns … ~34 s.
pub fn time_bounds_ns() -> Vec<f64> {
    (0..28).map(|i| 256.0 * f64::powi(2.0, i)).collect()
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// A collection of named metrics. Most code uses the process-wide
/// [`crate::global`] registry; tests and embedders can hold their own.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = lock(&self.inner);
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell }
    }

    /// The gauge named `name`, created on first use (initial value 0.0).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = lock(&self.inner);
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits())))
            .clone();
        Gauge { cell }
    }

    /// The stat-only histogram named `name` (no buckets), created on first
    /// use. If the name already exists, the existing histogram is returned
    /// regardless of its bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// The latency histogram named `name` with the [`time_bounds_ns`]
    /// buckets, created on first use.
    pub fn histogram_time_ns(&self, name: &str) -> Histogram {
        self.histogram_with(name, &time_bounds_ns())
    }

    /// The histogram named `name` with the given ascending bucket upper
    /// bounds, created on first use (first registration wins the bounds).
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let mut inner = lock(&self.inner);
        let core = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCore::new(bounds.to_vec())))
            .clone();
        Histogram { core }
    }

    /// Zeroes every metric in place. Handles held by instrumented code stay
    /// valid and keep recording into the same cells.
    pub fn reset(&self) {
        let inner = lock(&self.inner);
        for c in inner.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.store(0.0f64.to_bits(), Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            h.reset();
        }
    }

    /// A point-in-time copy of every metric, ordered by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock(&self.inner);
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    let count = h.count.load(Ordering::Relaxed);
                    (
                        k.clone(),
                        HistogramSnapshot {
                            count,
                            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                            min: if count == 0 {
                                0.0
                            } else {
                                f64::from_bits(h.min_bits.load(Ordering::Relaxed))
                            },
                            max: if count == 0 {
                                0.0
                            } else {
                                f64::from_bits(h.max_bits.load(Ordering::Relaxed))
                            },
                            bounds: h.bounds.clone(),
                            bucket_counts: h
                                .bucket_counts
                                .iter()
                                .map(|c| c.load(Ordering::Relaxed))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Bucket upper bounds (ascending); an overflow bucket follows.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket counts.
    pub bucket_counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `p`-quantile (`p ∈ [0, 1]`) by nearest-rank bucket
    /// lookup with linear interpolation inside the bucket, clamped to the
    /// observed `[min, max]`. Exact when a bucket holds one distinct value;
    /// otherwise accurate to the bucket width. `None` for a bucketless
    /// histogram, which has nothing to estimate from; `0.0` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.bounds.is_empty() {
            return None;
        }
        if self.count == 0 {
            return Some(0.0);
        }
        // Nearest-rank target, 0-based — same convention as the percentile
        // helper in `bench_report`.
        let target = (p.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target < seen + c {
                // Bucket i spans (lo, hi]; clamp to observed extremes.
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] }.max(self.min);
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                }
                .min(self.max)
                .max(lo);
                // Midpoint-of-rank interpolation within the bucket.
                let frac = ((target - seen) as f64 + 0.5) / c as f64;
                return Some(lo + (hi - lo) * frac);
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Median estimate (`None` without buckets).
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate (`None` without buckets).
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate (`None` without buckets).
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// The `p50`/`p95`/`p99` members of this histogram's JSON object, each
    /// preceded by `,` and `gap`; empty for a bucketless histogram.
    fn json_percentiles(&self, gap: &str) -> String {
        [
            ("p50", self.p50()),
            ("p95", self.p95()),
            ("p99", self.p99()),
        ]
        .into_iter()
        .filter_map(|(key, v)| v.map(|v| format!(",{gap}\"{key}\":{gap}{}", json::number(v))))
        .collect()
    }
}

/// True for metric names whose values legitimately vary run-to-run: wall
/// times (`*_ns`) and anything under a `dispatch` or `cache` path segment
/// (thread-count- or scheduling-dependent). See the crate docs.
fn is_nondeterministic(name: &str) -> bool {
    name.ends_with("_ns")
        || name
            .split('.')
            .any(|seg| seg == "dispatch" || seg == "cache")
}

/// A point-in-time copy of a whole registry, ordered by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// State of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Names of all metrics (all three kinds), ascending.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.gauges.iter().map(|(n, _)| n.as_str()))
            .chain(self.histograms.iter().map(|(n, _)| n.as_str()))
            .collect();
        names.sort_unstable();
        names
    }

    /// Projects onto the thread-count- and wall-clock-independent metrics
    /// (see the crate docs for the naming rule). Two runs with the same seed
    /// and workload produce **equal** deterministic views regardless of
    /// `ANECI_NUM_THREADS`.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| !is_nondeterministic(n))
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| !is_nondeterministic(n))
                .cloned()
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(n, _)| !is_nondeterministic(n))
                .cloned()
                .collect(),
        }
    }

    /// One JSON object for the whole snapshot (the `GET /v1/metrics` body,
    /// which `bench_e2e` reads).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::string(n)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json::string(n), json::number(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}{}}}",
                json::string(n),
                h.count,
                json::number(h.sum),
                json::number(h.min),
                json::number(h.max),
                json::number(h.mean()),
                h.json_percentiles(" "),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// One JSON line per metric — the JSONL telemetry form.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (n, v) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}\n",
                json::string(n)
            ));
        }
        for (n, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json::string(n),
                json::number(*v)
            ));
        }
        for (n, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}{}}}\n",
                json::string(n),
                h.count,
                json::number(h.sum),
                json::number(h.min),
                json::number(h.max),
                h.json_percentiles(""),
            ));
        }
        out
    }

    /// Human-readable summary, aligned into sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (n, v) in &self.counters {
                out.push_str(&format!("  {n:<w$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let w = self.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (n, v) in &self.gauges {
                out.push_str(&format!("  {n:<w$}  {v:.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let w = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (n, h) in &self.histograms {
                let percentiles = match (h.p50(), h.p95(), h.p99()) {
                    (Some(p50), Some(p95), Some(p99)) => {
                        format!("p50={p50:<12.4} p95={p95:<12.4} p99={p99:<12.4} ")
                    }
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "  {n:<w$}  n={:<8} mean={:<12.4} {percentiles}min={:<12.4} max={:.4}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("a.calls");
        c.inc();
        c.add(4);
        // A second handle to the same name shares the cell.
        reg.counter("a.calls").inc();
        reg.gauge("a.level").set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.calls"), Some(6));
        assert_eq!(snap.gauge("a.level"), Some(2.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn reset_zeroes_in_place_and_handles_survive() {
        let reg = Registry::new();
        let c = reg.counter("x");
        let h = reg.histogram("y");
        c.add(7);
        h.observe(3.0);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(0));
        assert_eq!(snap.histogram("y").unwrap().count, 0);
        // Old handles still record into the same metric.
        c.inc();
        h.observe(1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.histogram("y").unwrap().count, 1);
    }

    #[test]
    fn histogram_buckets_match_brute_force() {
        let reg = Registry::new();
        let bounds = [1.0, 2.0, 4.0, 8.0];
        let h = reg.histogram_with("lat", &bounds);
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 7919.0) % 10.0).collect();
        for &s in &samples {
            h.observe(s);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();

        // Brute-force reference bucketing: first bound >= v, overflow last.
        let mut expect = vec![0u64; bounds.len() + 1];
        for &s in &samples {
            let idx = bounds.iter().position(|&b| s <= b).unwrap_or(bounds.len());
            expect[idx] += 1;
        }
        assert_eq!(hs.bucket_counts, expect);
        assert_eq!(hs.count, 1000);
        let sum: f64 = samples.iter().sum();
        assert!((hs.sum - sum).abs() < 1e-9 * sum.abs().max(1.0));
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(hs.min, min);
        assert_eq!(hs.max, max);
    }

    #[test]
    fn percentile_estimates_land_in_the_right_bucket() {
        let reg = Registry::new();
        let bounds: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let h = reg.histogram_with("p", &bounds);
        // 0..1000 scaled to 0..100, uniformly.
        let mut samples: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_by(f64::total_cmp);
        let hs = reg.snapshot().histogram("p").cloned().unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let est = hs.percentile(p).unwrap();
            // Brute-force nearest-rank sample quantile.
            let exact = samples[((samples.len() - 1) as f64 * p).round() as usize];
            assert!(
                (est - exact).abs() <= 1.0 + 1e-9,
                "p={p}: estimate {est} vs exact {exact} (bucket width 1)"
            );
        }
        // Degenerate single-value histogram is exact at every quantile.
        let one = reg.histogram_with("one", &bounds);
        for _ in 0..5 {
            one.observe(42.5);
        }
        let hs = reg.snapshot().histogram("one").cloned().unwrap();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert!((hs.percentile(p).unwrap() - 42.5).abs() < 1e-9);
        }
    }

    #[test]
    fn statonly_histogram_reports_no_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("loss");
        for v in [-4.0, -2.0, 0.0, 2.0, 4.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("loss").cloned().unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, -4.0);
        assert_eq!(hs.max, 4.0);
        assert!((hs.mean() - 0.0).abs() < 1e-12);
        assert_eq!((hs.p50(), hs.p95(), hs.p99()), (None, None, None));
        assert_eq!(
            snap.to_jsonl(),
            "{\"type\":\"histogram\",\"name\":\"loss\",\"count\":5,\"sum\":0,\"min\":-4,\"max\":4}\n"
        );
        for dump in [snap.to_json(), snap.render()] {
            assert!(dump.contains("mean") && !dump.contains("p50"), "{dump}");
        }
        // A bucketed histogram still reports them.
        reg.histogram_with("lat", &[1.0, 2.0]).observe(1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("lat").unwrap().p50(), Some(1.5));
        assert!(snap
            .to_jsonl()
            .contains(",\"p50\":1.5,\"p95\":1.5,\"p99\":1.5}"));
        assert!(snap
            .to_json()
            .contains(", \"p50\": 1.5, \"p95\": 1.5, \"p99\": 1.5}"));
    }

    #[test]
    fn nan_observations_are_ignored() {
        let reg = Registry::new();
        let h = reg.histogram("v");
        h.observe(f64::NAN);
        h.observe(1.0);
        let hs = reg.snapshot().histogram("v").cloned().unwrap();
        assert_eq!(hs.count, 1);
        assert_eq!(hs.min, 1.0);
    }

    #[test]
    fn deterministic_view_filters_times_dispatch_and_cache() {
        let reg = Registry::new();
        reg.counter("linalg.kernel.matmul.calls").inc();
        reg.counter("linalg.pool.dispatch.pooled").inc();
        reg.counter("serve.cache.hits").inc();
        reg.histogram_time_ns("span.core.train.encode_ns")
            .observe(5.0);
        reg.histogram("core.train.loss").observe(1.0);
        let det = reg.snapshot().deterministic();
        let names = det.names();
        assert!(names.contains(&"linalg.kernel.matmul.calls"));
        assert!(names.contains(&"core.train.loss"));
        assert!(!names.contains(&"linalg.pool.dispatch.pooled"));
        assert!(!names.contains(&"serve.cache.hits"));
        assert!(!names.contains(&"span.core.train.encode_ns"));
    }

    #[test]
    fn snapshots_of_identical_state_are_equal() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("b").add(2);
            reg.counter("a").add(1);
            reg.histogram_with("h", &[1.0, 2.0]).observe(1.5);
            reg.gauge("g").set(0.25);
            reg.snapshot()
        };
        let (s1, s2) = (mk(), mk());
        assert_eq!(s1, s2);
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s1.to_jsonl(), s2.to_jsonl());
        // Name ordering is sorted regardless of registration order.
        assert_eq!(
            s1.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b"]
        );
    }

    #[test]
    fn json_render_is_well_formed_enough() {
        let reg = Registry::new();
        reg.counter("c.one").inc();
        reg.gauge("g.two").set(1.5);
        reg.histogram("h.three").observe(2.0);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"c.one\": 1"));
        assert!(json.contains("\"g.two\": 1.5"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces:\n{json}"
        );
        let rendered = snap.render();
        assert!(rendered.contains("c.one"));
        assert!(rendered.contains("h.three"));
    }

    #[test]
    fn time_bounds_are_ascending() {
        let b = time_bounds_ns();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(b[0], 256.0);
    }
}
