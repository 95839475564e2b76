//! The modularity-function landscape of Sec. IV-C, implemented side by side.
//!
//! The paper motivates its generalized modularity `Q̃` (Eq. 13) by analyzing
//! three earlier definitions:
//!
//! * [`classic_modularity`] — Newman's `Q` (Eq. 4): first-order proximity,
//!   hard partitions;
//! * [`eq_modularity`] — `EQ` of Shen et al. (Eq. 11): overlap handled by
//!   the `1/(O_i O_j)` factor — satisfies Property 1 but **not** Property 2
//!   (it cannot weight a node's communities differently);
//! * [`qstar_modularity`] — `Q*` of Chen et al. (Eq. 12) — the paper proves
//!   by contradiction it violates Property 1 (it never reduces to the
//!   classic `Q` on hard partitions with more than one community);
//! * [`generalized_modularity`] — the paper's `Q̃` (Eq. 13) with
//!   `γ = α_i α_j`: satisfies both properties and extends to high-order
//!   proximity.
//!
//! The tests in this module machine-check each of those claims, which pins
//! the implementation to the paper's theory section.

use crate::model::q_tilde;
use aneci_linalg::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

/// Newman's modularity `Q` (Eq. 4) on an arbitrary weighted proximity
/// matrix with a hard partition: the evaluation crate's one
/// implementation, under the name the theory section uses.
pub use aneci_eval::modularity as classic_modularity;

/// `EQ` (Eq. 11): overlapping extension weighting each pair by
/// `1/(O_i O_j)` where `O_i` is the number of communities node `i` belongs
/// to. `memberships[i]` lists the communities of node `i`.
pub fn eq_modularity(proximity: &CsrMatrix, memberships: &[Vec<usize>], num_comms: usize) -> f64 {
    assert_eq!(
        proximity.rows(),
        memberships.len(),
        "membership length mismatch"
    );
    let n = proximity.rows();
    let k: Vec<f64> = proximity.row_sums();
    let two_m: f64 = k.iter().sum();
    if two_m == 0.0 {
        return 0.0;
    }
    let dense = proximity.to_dense();
    let mut q = 0.0;
    for c in 0..num_comms {
        for i in 0..n {
            if !memberships[i].contains(&c) {
                continue;
            }
            for j in 0..n {
                if !memberships[j].contains(&c) {
                    continue;
                }
                let oi = memberships[i].len() as f64;
                let oj = memberships[j].len() as f64;
                q += (dense.get(i, j) - k[i] * k[j] / two_m) / (oi * oj);
            }
        }
    }
    q / two_m
}

/// `Q*` (Eq. 12): the soft-weight definition of [36], with
/// `γ_{i,j,c} = α_{i,c} α_{j,c}` for the observed term and the averaged
/// product form for the expected term. `alpha` is the `N × K` soft
/// membership (rows sum to 1).
pub fn qstar_modularity(proximity: &CsrMatrix, alpha: &DenseMatrix) -> f64 {
    let n = proximity.rows();
    assert_eq!(alpha.rows(), n, "membership row mismatch");
    let kc = alpha.cols();
    let dense = proximity.to_dense();
    let m: f64 = proximity.sum();
    if m == 0.0 {
        return 0.0;
    }
    let mut q = 0.0;
    for c in 0..kc {
        // Observed: Σ_ij γ_ijc E_ij with γ = α_ic α_jc.
        for i in 0..n {
            for j in 0..n {
                q += alpha.get(i, c) * alpha.get(j, c) * dense.get(i, j);
            }
        }
        // Expected: (1/N²) Σ_ij [Σ_l γ_ilc E_il][Σ_l γ_ljc E_lj]  — the
        // doubly-averaged form of Eq. 12.
        let mut row_mass = vec![0.0; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for l in 0..n {
                row_mass[i] += alpha.get(i, c) * alpha.get(l, c) * dense.get(i, l);
            }
        }
        let total: f64 = row_mass.iter().sum();
        q -= total * total / (n as f64 * n as f64);
    }
    q / m
}

/// The paper's generalized modularity `Q̃` (Eq. 13) on an arbitrary
/// proximity matrix: `Q̃ = (1/2M̃) Σ_c Σ_ij α_ic α_jc (Ã_ij − k̃_i k̃_j / 2M̃)`
/// with `k̃` the row sums of `proximity` and `2M̃` their total. It is the
/// training loss's own fused `O(nnz·K + N·K)` form, evaluated on a
/// constant `α`.
pub fn generalized_modularity(proximity: &CsrMatrix, alpha: &DenseMatrix) -> f64 {
    assert_eq!(alpha.rows(), proximity.rows(), "membership row mismatch");
    let k_tilde = proximity.row_sums();
    let mass: f64 = k_tilde.iter().sum();
    q_tilde(
        &Arc::new(proximity.clone()),
        &DenseMatrix::column(&k_tilde),
        mass,
        alpha,
    )
}

/// Converts a hard partition into the one-hot membership matrix.
pub fn one_hot_membership(partition: &[usize], num_comms: usize) -> DenseMatrix {
    let mut p = DenseMatrix::zeros(partition.len(), num_comms);
    for (i, &c) in partition.iter().enumerate() {
        assert!(c < num_comms, "community label out of range");
        p.set(i, c, 1.0);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use aneci_graph::karate_club;
    use aneci_linalg::rng::{gaussian_matrix, seeded_rng};

    fn karate_proximity() -> (CsrMatrix, Vec<usize>) {
        let g = karate_club();
        (g.adjacency().clone(), g.labels.clone().unwrap())
    }

    /// **Property 1 for Q̃** (the paper's central theoretical claim): with
    /// one-hot memberships the generalized modularity *equals* the classic
    /// modularity exactly.
    #[test]
    fn generalized_reduces_to_classic_on_hard_partitions() {
        let (a, partition) = karate_proximity();
        let alpha = one_hot_membership(&partition, 2);
        let q_soft = generalized_modularity(&a, &alpha);
        let q_hard = classic_modularity(&a, &partition);
        assert!(
            (q_soft - q_hard).abs() < 1e-12,
            "Property 1 violated: Q̃ = {q_soft}, Q = {q_hard}"
        );
    }

    /// **Property 1 for EQ**: with disjoint memberships (O_i = 1) EQ also
    /// degenerates to the classic modularity — the paper concedes this.
    #[test]
    fn eq_reduces_to_classic_on_hard_partitions() {
        let (a, partition) = karate_proximity();
        let memberships: Vec<Vec<usize>> = partition.iter().map(|&c| vec![c]).collect();
        let eq = eq_modularity(&a, &memberships, 2);
        let q = classic_modularity(&a, &partition);
        assert!((eq - q).abs() < 1e-12, "EQ = {eq}, Q = {q}");
    }

    /// **Property 1 fails for Q\*** (the paper's proof-by-contradiction,
    /// Sec. IV-C4): on a hard 2-community partition Q* does NOT equal the
    /// classic modularity.
    #[test]
    fn qstar_violates_property_one() {
        let (a, partition) = karate_proximity();
        let alpha = one_hot_membership(&partition, 2);
        let qstar = qstar_modularity(&a, &alpha);
        let q = classic_modularity(&a, &partition);
        assert!(
            (qstar - q).abs() > 1e-3,
            "expected Q* ({qstar}) ≠ Q ({q}) on a hard partition with |C| > 1"
        );
    }

    /// **Property 2 for Q̃**: changing the *weights* of an overlapping node
    /// changes the modularity — the function is sensitive to how strongly a
    /// node belongs to each community.
    #[test]
    fn generalized_satisfies_property_two() {
        let (a, partition) = karate_proximity();
        let mut alpha = one_hot_membership(&partition, 2);
        // Make node 8 (a bridge) overlap with different weightings.
        alpha.set(8, 0, 0.7);
        alpha.set(8, 1, 0.3);
        let q_a = generalized_modularity(&a, &alpha);
        alpha.set(8, 0, 0.3);
        alpha.set(8, 1, 0.7);
        let q_b = generalized_modularity(&a, &alpha);
        assert!(
            (q_a - q_b).abs() > 1e-6,
            "Property 2 violated: weights don't matter ({q_a} vs {q_b})"
        );
    }

    /// **Property 2 fails for EQ**: membership lists carry no weights, so
    /// any two weightings of the same overlap are indistinguishable — the
    /// paper's criticism of Eq. 11 — which we witness through the API shape:
    /// EQ of an overlapping node is strictly between the two hard
    /// assignments but cannot interpolate continuously.
    #[test]
    fn eq_is_weight_blind() {
        let (a, partition) = karate_proximity();
        let mut memberships: Vec<Vec<usize>> = partition.iter().map(|&c| vec![c]).collect();
        memberships[8] = vec![0, 1]; // overlap with NO possible weighting
        let eq_overlap = eq_modularity(&a, &memberships, 2);
        // Whatever "70/30" or "30/70" a user intends, EQ gives one number.
        // Check it differs from both hard assignments (so the overlap did
        // something) yet admits no second value.
        memberships[8] = vec![0];
        let eq_hard0 = eq_modularity(&a, &memberships, 2);
        memberships[8] = vec![1];
        let eq_hard1 = eq_modularity(&a, &memberships, 2);
        assert!((eq_overlap - eq_hard0).abs() > 1e-9);
        assert!((eq_overlap - eq_hard1).abs() > 1e-9);
    }

    /// Q̃ prefers the true communities over random soft memberships.
    #[test]
    fn generalized_discriminates_structure() {
        let (a, partition) = karate_proximity();
        let truth = one_hot_membership(&partition, 2);
        let mut rng = seeded_rng(5);
        let random = gaussian_matrix(34, 2, 1.0, &mut rng).softmax_rows();
        assert!(generalized_modularity(&a, &truth) > generalized_modularity(&a, &random) + 0.1);
    }

    /// The fused generalized form matches the brute-force triple sum of
    /// Eq. 13 on random soft memberships.
    #[test]
    fn generalized_matches_bruteforce_eq13() {
        let (a, _) = karate_proximity();
        let mut rng = seeded_rng(6);
        let alpha = gaussian_matrix(34, 3, 1.0, &mut rng).softmax_rows();
        let fast = generalized_modularity(&a, &alpha);

        let dense = a.to_dense();
        let k: Vec<f64> = a.row_sums();
        let two_m: f64 = k.iter().sum();
        let mut slow = 0.0;
        for c in 0..3 {
            for i in 0..34 {
                for j in 0..34 {
                    slow +=
                        alpha.get(i, c) * alpha.get(j, c) * (dense.get(i, j) - k[i] * k[j] / two_m);
                }
            }
        }
        slow /= two_m;
        assert!((fast - slow).abs() < 1e-10, "fast {fast} slow {slow}");
    }

    /// High-order flavour: Q̃ on `Ã = ½(A + A²)` of the karate factions is
    /// also strongly positive — the quantity the training loss maximizes.
    #[test]
    fn generalized_on_high_order_proximity() {
        let g = karate_club();
        let ho =
            aneci_graph::HighOrder::build(g.adjacency(), &aneci_graph::ProximityConfig::uniform(2));
        let alpha = one_hot_membership(g.labels.as_ref().unwrap(), 2);
        let q = generalized_modularity(&ho.a_tilde, &alpha);
        assert!(q > 0.2, "high-order Q̃ = {q}");
    }
}
