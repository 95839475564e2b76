//! Wall-clock measurement for the runtime comparison (Table V).

use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
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
}
