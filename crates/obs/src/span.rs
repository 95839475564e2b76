//! Hierarchical span timers.
//!
//! A span is a named region of work. Spans nest per-thread: opening a span
//! inside another dot-joins the names, so
//!
//! ```
//! use aneci_obs::span;
//! {
//!     let _train = span("demo.train");
//!     let _enc = span("encode"); // records as "demo.train.encode"
//! }
//! let snap = aneci_obs::global().snapshot();
//! assert_eq!(snap.counter("span.demo.train.encode.calls"), Some(1));
//! ```
//!
//! On exit (guard drop) a span records into the global registry:
//!
//! * `span.<path>_ns` — wall-time histogram (exponential ns buckets);
//! * `span.<path>.calls` — invocation counter.
//!
//! The `_ns` histogram is excluded from [`crate::Snapshot::deterministic`];
//! the `.calls` counter is not, so the *shape* of a run (which phases ran,
//! how many times) is part of the deterministic view even though the
//! timings are not. If a JSONL sink is installed, each exit additionally
//! emits a `{"type":"span",...}` event line.

use std::cell::RefCell;
use std::time::Instant;

use crate::sink::{self, json};

thread_local! {
    /// Dot-joined path of currently open spans on this thread.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Opens a span named `name` nested under this thread's currently open
/// spans. The returned guard records the span on drop.
pub fn span(name: &str) -> SpanGuard {
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}.{name}"),
            None => name.to_string(),
        };
        stack.push(path.clone());
        path
    });
    SpanGuard {
        path,
        start: Instant::now(),
    }
}

/// RAII guard for an open span; records timing and call count on drop.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    /// Full dot-joined path.
    path: String,
    start: Instant,
}

impl SpanGuard {
    /// The span's full dot-joined path.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let path = &self.path;
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own frame. Out-of-order drops (guards stored and
            // dropped in a different order) pop whatever is on top; paths
            // were fixed at open time so metrics stay correct.
            stack.pop();
        });
        crate::global()
            .histogram_time_ns(&format!("span.{path}_ns"))
            .observe(wall_ns as f64);
        crate::global().counter(&format!("span.{path}.calls")).inc();
        if sink::sink_active() {
            sink::emit_line(&format!(
                "{{\"type\":\"span\",\"path\":{},\"wall_ns\":{wall_ns}}}",
                json::string(path)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_dot_join_paths() {
        {
            let outer = span("spantest.outer");
            assert_eq!(outer.path(), "spantest.outer");
            let inner = span("inner");
            assert_eq!(inner.path(), "spantest.outer.inner");
        }
        // Siblings after the nest see the correct parent again.
        {
            let _outer = span("spantest.outer");
            let second = span("second");
            assert_eq!(second.path(), "spantest.outer.second");
        }
        let snap = crate::global().snapshot();
        assert_eq!(snap.counter("span.spantest.outer.calls"), Some(2));
        assert_eq!(snap.counter("span.spantest.outer.inner.calls"), Some(1));
        assert_eq!(snap.counter("span.spantest.outer.second.calls"), Some(1));
        let h = snap.histogram("span.spantest.outer_ns").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.min >= 0.0);
    }

    #[test]
    fn span_stack_is_per_thread() {
        let _outer = span("spantest.main");
        let handle = std::thread::spawn(|| {
            // A fresh thread has an empty stack — no inherited parent.
            let g = span("spantest.worker");
            g.path().to_string()
        });
        assert_eq!(handle.join().unwrap(), "spantest.worker");
    }
}
