//! Seeded randomness helpers and weight initializers.
//!
//! Every stochastic component of the reproduction takes an explicit `u64`
//! seed and routes it through [`seeded_rng`], so experiments are reproducible
//! bit-for-bit. Gaussians are produced with Box–Muller rather than pulling in
//! `rand_distr`.

use crate::dense::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the project-wide deterministic RNG from a seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream label, so that
/// independent components of one experiment don't share RNG streams.
/// (SplitMix64 finalizer — good avalanche behaviour.)
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A standard-normal sample via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// A normal sample with the given mean and standard deviation.
pub fn normal(rng: &mut impl Rng, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// A matrix of i.i.d. `N(0, std²)` entries.
pub fn gaussian_matrix(rows: usize, cols: usize, std: f64, rng: &mut impl Rng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| std * standard_normal(rng))
}

/// A matrix of i.i.d. `U(-a, a)` entries.
pub fn uniform_matrix(rows: usize, cols: usize, a: f64, rng: &mut impl Rng) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

/// Glorot/Xavier uniform initializer: `U(-√(6/(fan_in+fan_out)), +…)`.
/// This matches the initializer used by the reference GCN implementations.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> DenseMatrix {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform_matrix(fan_in, fan_out, a, rng)
}

/// Samples `k` distinct indices from `0..n` (Floyd's algorithm; O(k) memory).
pub fn sample_distinct(n: usize, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

/// Fisher–Yates shuffle of a slice.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Samples an index from an unnormalized non-negative weight vector.
pub fn sample_weighted(weights: &[f64], rng: &mut impl Rng) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "sample_weighted: all weights are zero");
    let mut t = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        t -= w;
        if t <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Precomputed alias table for O(1) sampling from a fixed discrete
/// distribution — used heavily by the skip-gram negative samplers.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from unnormalized non-negative weights.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "AliasTable: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "AliasTable: all weights are zero");
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: remaining buckets are full.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never constructible; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derive_seed_changes_with_stream() {
        let s = 7;
        assert_ne!(derive_seed(s, 0), derive_seed(s, 1));
        assert_eq!(derive_seed(s, 3), derive_seed(s, 3));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(1);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = seeded_rng(2);
        let w = xavier_uniform(100, 50, &mut rng);
        let a = (6.0 / 150.0f64).sqrt();
        assert!(w.as_slice().iter().all(|&v| v > -a && v < a));
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = seeded_rng(3);
        for _ in 0..50 {
            let v = sample_distinct(20, 10, &mut rng);
            assert_eq!(v.len(), 10);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(v.iter().all(|&i| i < 20));
        }
        // Edge case: k == n returns a permutation of 0..n.
        let all = sample_distinct(5, 5, &mut rng);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn alias_table_matches_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let mut rng = seeded_rng(4);
        let mut counts = [0usize; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0;
            let observed = c as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "cat {i}: {observed} vs {expected}"
            );
        }
    }

    #[test]
    fn sample_weighted_respects_zero_mass() {
        let mut rng = seeded_rng(5);
        for _ in 0..100 {
            let i = sample_weighted(&[0.0, 1.0, 0.0], &mut rng);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded_rng(6);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should change order"
        );
    }
}
