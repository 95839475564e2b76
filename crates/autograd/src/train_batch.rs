//! Batch plans for mini-batch training.
//!
//! [`BatchSampler`] cuts each epoch's node set into batches; a
//! [`TrainStep`](crate::train::TrainStep) that returns the plan's length
//! from [`plan`](crate::train::TrainStep::plan) trains one batch per step
//! of the engine's one epoch loop.
//!
//! * [`BatchStrategy::CommunityAware`] — sample whole communities, then
//!   their l-hop neighborhoods, so the modularity term is computed on a
//!   coherent induced subgraph (the signal AnECI's loss depends on);
//! * [`BatchStrategy::FullGraph`] — one batch with every node, the plan of
//!   full-batch training.
//!
//! Sampling is a *serial* walk of one RNG stream derived from
//! `(seed, 0xBA7C, epoch)` — no pooled code touches it — so plans are
//! bit-identical across `ANECI_NUM_THREADS` and chunk decompositions by
//! construction (pinned by `tests/minibatch_parity.rs`). Strategies that
//! cut the graph drop empty batches.

use aneci_linalg::rng::{derive_seed, seeded_rng, shuffle};
use aneci_linalg::CsrMatrix;

/// RNG stream label for batch sampling (derived once per sampler seed; the
/// epoch index is derived on top per plan).
const BATCH_STREAM: u64 = 0xBA7C;

/// How an epoch's node set is cut into training batches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchStrategy {
    /// One batch holding every node: full-batch training.
    FullGraph,
    /// Community-aware subgraph sampling: shuffle the communities, group
    /// `communities_per_batch` of them per batch, and expand each group's
    /// member set by `hops` adjacency hops (the high-order neighborhood the
    /// proximity matrix couples them to), capping the batch at
    /// `max_batch_nodes` nodes (`0` = uncapped).
    CommunityAware {
        /// Communities seeding each batch.
        communities_per_batch: usize,
        /// Neighborhood expansion hops added around the sampled communities.
        hops: usize,
        /// Hard cap on nodes per batch after expansion (`0` = uncapped).
        max_batch_nodes: usize,
    },
}

/// Deterministic per-epoch batch planner over a CSR adjacency. Community
/// assignments are optional; [`BatchStrategy::CommunityAware`] requires
/// them.
pub struct BatchSampler<'a> {
    adjacency: &'a CsrMatrix,
    strategy: BatchStrategy,
    seed: u64,
    /// Members of each community, ascending (CommunityAware only).
    groups: Vec<Vec<u32>>,
}

impl<'a> BatchSampler<'a> {
    /// Builds a sampler. `communities[i]` is node `i`'s community id;
    /// required for [`BatchStrategy::CommunityAware`], ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics on the invalid arguments [`Self::try_new`] reports.
    pub fn new(
        adjacency: &'a CsrMatrix,
        strategy: BatchStrategy,
        communities: Option<&[usize]>,
        seed: u64,
    ) -> Self {
        Self::try_new(adjacency, strategy, communities, seed)
            .unwrap_or_else(|e| panic!("batch sampler: {e}"))
    }

    /// Like [`Self::new`], but describes an invalid argument in the error
    /// instead of panicking: a non-square adjacency, a zero batch size, or
    /// missing or mis-sized community assignments.
    pub fn try_new(
        adjacency: &'a CsrMatrix,
        strategy: BatchStrategy,
        communities: Option<&[usize]>,
        seed: u64,
    ) -> Result<Self, String> {
        let n = adjacency.rows();
        if adjacency.cols() != n {
            return Err("adjacency must be square".into());
        }
        let groups = match strategy {
            BatchStrategy::FullGraph => Vec::new(),
            BatchStrategy::CommunityAware {
                communities_per_batch,
                ..
            } => {
                if communities_per_batch == 0 {
                    return Err("communities_per_batch must be at least 1".into());
                }
                let labels = communities.ok_or("CommunityAware requires community assignments")?;
                if labels.len() != n {
                    return Err(format!(
                        "one community per node required, got {} for {n} nodes",
                        labels.len()
                    ));
                }
                let k = labels.iter().copied().max().map_or(0, |m| m + 1);
                let mut groups = vec![Vec::new(); k];
                for (i, &c) in labels.iter().enumerate() {
                    groups[c].push(i as u32);
                }
                groups.retain(|g| !g.is_empty());
                groups
            }
        };
        Ok(Self {
            adjacency,
            strategy,
            seed,
            groups,
        })
    }

    /// The batch plan for `epoch`: each batch is a sorted, deduplicated node
    /// list. Serial seeded-RNG walk — identical for any thread count.
    pub fn epoch_plan(&self, epoch: usize) -> Vec<Vec<usize>> {
        let n = self.adjacency.rows();
        let mut rng = seeded_rng(derive_seed(
            derive_seed(self.seed, BATCH_STREAM),
            epoch as u64,
        ));
        match self.strategy {
            BatchStrategy::FullGraph => vec![(0..n).collect()],
            BatchStrategy::CommunityAware {
                communities_per_batch,
                hops,
                max_batch_nodes,
            } => {
                let mut order: Vec<usize> = (0..self.groups.len()).collect();
                shuffle(&mut order, &mut rng);
                let mut visited = vec![false; n];
                let cap = if max_batch_nodes == 0 {
                    usize::MAX
                } else {
                    max_batch_nodes
                };
                order
                    .chunks(communities_per_batch)
                    .map(|group_ids| {
                        let mut batch: Vec<usize> = Vec::new();
                        for &g in group_ids {
                            for &m in &self.groups[g] {
                                if batch.len() >= cap {
                                    break;
                                }
                                if !visited[m as usize] {
                                    visited[m as usize] = true;
                                    batch.push(m as usize);
                                }
                            }
                        }
                        self.expand_hops(&mut batch, &mut visited, hops, cap);
                        for &v in &batch {
                            visited[v] = false;
                        }
                        batch.sort_unstable();
                        batch
                    })
                    .filter(|b| !b.is_empty())
                    .collect()
            }
        }
    }

    /// Expands `batch` by `hops` BFS rounds over the adjacency, marking
    /// `visited`: each frontier node adds its whole neighborhood, bounded
    /// by `cap` total nodes.
    fn expand_hops(&self, batch: &mut Vec<usize>, visited: &mut [bool], hops: usize, cap: usize) {
        let indptr = self.adjacency.indptr();
        let indices = self.adjacency.indices();
        let mut frontier_start = 0usize;
        for _ in 0..hops {
            let frontier_end = batch.len();
            if frontier_start == frontier_end || batch.len() >= cap {
                break;
            }
            for fi in frontier_start..frontier_end {
                let node = batch[fi];
                for &nb in &indices[indptr[node]..indptr[node + 1]] {
                    let nb = nb as usize;
                    if !visited[nb] && batch.len() < cap {
                        visited[nb] = true;
                        batch.push(nb);
                    }
                }
                if batch.len() >= cap {
                    break;
                }
            }
            frontier_start = frontier_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> CsrMatrix {
        let mut trips = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            trips.push((i, j, 1.0));
            trips.push((j, i, 1.0));
        }
        CsrMatrix::from_triplets(n, n, &trips)
    }

    #[test]
    fn community_plan_covers_all_members_and_is_seed_stable() {
        let a = ring(12);
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let strat = BatchStrategy::CommunityAware {
            communities_per_batch: 1,
            hops: 0,
            max_batch_nodes: 0,
        };
        let s = BatchSampler::new(&a, strat, Some(&labels), 9);
        let plan = s.epoch_plan(0);
        assert_eq!(plan.len(), 3);
        let mut all: Vec<usize> = plan.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        // Same seed+epoch → same plan; different epoch → (generally) not.
        assert_eq!(
            plan,
            BatchSampler::new(&a, strat, Some(&labels), 9).epoch_plan(0)
        );
    }

    #[test]
    fn hop_expansion_adds_ring_neighbors() {
        let a = ring(10);
        let labels: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        let strat = BatchStrategy::CommunityAware {
            communities_per_batch: 1,
            hops: 1,
            max_batch_nodes: 0,
        };
        let s = BatchSampler::new(&a, strat, Some(&labels), 1);
        for batch in s.epoch_plan(3) {
            // One hop around a contiguous arc adds the two boundary nodes.
            assert_eq!(batch.len(), 7, "batch {batch:?}");
            assert!(batch.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }
}
