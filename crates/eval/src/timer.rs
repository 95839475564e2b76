//! Wall-clock measurement helpers for the runtime comparison (Table V).

use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Accumulates named timing samples and reports means.
#[derive(Debug, Default)]
pub struct TimingTable {
    entries: Vec<(String, Vec<f64>)>,
}

impl TimingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample under `name`.
    pub fn record(&mut self, name: &str, seconds: f64) {
        if let Some((_, samples)) = self.entries.iter_mut().find(|(n, _)| n == name) {
            samples.push(seconds);
        } else {
            self.entries.push((name.to_string(), vec![seconds]));
        }
    }

    /// Times `f` and records the duration, returning the closure's output.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = time_it(f);
        self.record(name, secs);
        out
    }

    /// `(name, mean_seconds, samples)` rows in insertion order.
    pub fn rows(&self) -> Vec<(String, f64, usize)> {
        self.entries
            .iter()
            .map(|(n, s)| (n.clone(), aneci_linalg::stats::mean(s), s.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_value_and_positive_duration() {
        let (v, secs) = time_it(|| (0..1000).sum::<usize>());
        assert_eq!(v, 499500);
        assert!(secs >= 0.0);
    }

    #[test]
    fn table_accumulates_by_name() {
        let mut t = TimingTable::new();
        t.record("a", 1.0);
        t.record("a", 3.0);
        t.record("b", 5.0);
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "a");
        assert!((rows[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(rows[0].2, 2);
    }
}
