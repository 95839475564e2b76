//! # aneci-obs
//!
//! The workspace-wide observability substrate: a lightweight metrics
//! registry, hierarchical span timers, and a JSONL telemetry sink — with
//! **zero external dependencies**, so it sits below `aneci-linalg` in the
//! crate graph and every layer records into the same registry:
//!
//! * `aneci-linalg` — kernel invocation counters, elements processed, wall
//!   time, pooled-vs-serial dispatch decisions;
//! * `aneci-core` — per-epoch training metrics (loss, `Q̃`, `ΔQ̃`, gradient
//!   norms) and phase spans (`encode` / `modularity` / `decode` / `step`);
//! * `aneci-serve` — query latency histograms, HNSW hop counts, cache
//!   hits/misses, and the HTTP front end's `serve.http.*` series
//!   (per-route counters, status classes, connections, keep-alive reuses,
//!   load sheds, and the `serve.http.request_ns` latency histogram — all
//!   of which `GET /metrics` serves back out as a snapshot).
//!
//! ## Model
//!
//! Three metric kinds, all addressed by dot-separated hierarchical names
//! (`layer.component.metric`):
//!
//! * [`Counter`] — monotone `u64`;
//! * [`Gauge`] — last-written `f64`;
//! * [`Histogram`] — fixed-bucket distribution with count/sum/min/max and
//!   percentile estimation (`p50`/`p95`/`p99`).
//!
//! Handles are cheap `Arc`-backed clones; recording is one or two relaxed
//! atomic operations, so instrumentation is always on, with no switch to
//! turn it off.
//!
//! ## Determinism
//!
//! [`Snapshot::deterministic`] projects a snapshot onto the metrics that are
//! reproducible across thread counts and wall clocks: it drops every metric
//! whose name ends in `_ns` (wall times) and every metric with a `dispatch`
//! or `cache` path segment (whose values legitimately depend on the thread
//! count or on scheduling). Everything that remains — kernel call counts,
//! elements processed, training losses, hop counts, span call counts — is
//! bit-identical for a fixed seed regardless of `ANECI_NUM_THREADS`, which
//! the telemetry test suite pins.
//!
//! ## Example
//!
//! ```
//! use aneci_obs as obs;
//!
//! let reg = obs::Registry::new();
//! reg.counter("demo.events").add(3);
//! reg.histogram("demo.value").observe(1.5);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! assert_eq!(snap.histogram("demo.value").unwrap().count, 1);
//! ```

pub mod proc;
pub mod registry;
pub mod sink;
pub mod span;

pub use proc::{current_rss_bytes, minor_faults, peak_rss_bytes};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use sink::{install_jsonl_sink, install_writer, sink_active, uninstall_sink};
pub use span::{span, SpanGuard};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented layer records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Convenience: a counter in the [`global`] registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Convenience: a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Convenience: a stat-only histogram in the [`global`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Convenience: a nanosecond-latency histogram in the [`global`] registry.
pub fn histogram_time_ns(name: &str) -> Histogram {
    global().histogram_time_ns(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_round_trip() {
        counter("lib.test.count").add(2);
        gauge("lib.test.gauge").set(0.5);
        histogram("lib.test.hist").observe(4.0);
        let snap = global().snapshot();
        assert!(snap.counter("lib.test.count").unwrap() >= 2);
        assert_eq!(snap.gauge("lib.test.gauge"), Some(0.5));
        assert!(snap.histogram("lib.test.hist").unwrap().count >= 1);
    }
}
