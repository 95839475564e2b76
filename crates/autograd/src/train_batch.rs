//! Mini-batch training on the shared engine.
//!
//! [`Trainer::run_batched`] feeds the engine's one epoch loop a batch plan
//! instead of [`Trainer::run`]'s single loss per epoch: each batch gets its
//! own loss, backward and Adam step, and the epoch-level contract (best
//! tracking, divergence guard, early stopping, telemetry) is the loop's
//! own, so an epoch whose plan holds a single batch covering every node
//! executes *exactly* the [`Trainer::run`] pipeline, which is what the
//! full-batch/mini-batch parity test pins bit-exactly.
//!
//! [`BatchSampler`] produces the per-epoch batch plans:
//!
//! * [`BatchStrategy::CommunityAware`] — sample whole communities, then
//!   their l-hop neighborhoods, so the modularity term is computed on a
//!   coherent induced subgraph (the signal AnECI's loss depends on);
//! * [`BatchStrategy::NeighborSampling`] — GraphSAGE-style uniform neighbor
//!   expansion from shuffled seed nodes, the generic fallback when no
//!   community structure is known;
//! * [`BatchStrategy::FullGraph`] — one batch with every node (the parity /
//!   debugging strategy).
//!
//! Sampling is a *serial* walk of one RNG stream derived from
//! `(seed, 0xBA7C, epoch)` — no pooled code touches it — so plans are
//! bit-identical across `ANECI_NUM_THREADS` and chunk decompositions by
//! construction (pinned by `tests/minibatch_parity.rs`).
//!
//! Every batch records `train.batch.nodes` (histogram), and wall-time
//! histograms `train.batch.sample_ns` / `train.batch.step_ns` (excluded,
//! like all `_ns` metrics, from deterministic obs snapshots).
//! [`Trainer::run`] records none of them: a full-batch run has no batch
//! plan.

use crate::optim::{Adam, ParamSet};
use crate::tape::{Tape, Var};
use crate::train::{Epochs, StepOutput, TrainError, TrainRun, Trainer};
use aneci_linalg::rng::{derive_seed, sample_distinct, seeded_rng, shuffle};
use aneci_linalg::CsrMatrix;
use aneci_obs::Histogram;
use std::time::Instant;

/// RNG stream label for batch sampling (derived once per sampler seed; the
/// epoch index is derived on top per plan).
const BATCH_STREAM: u64 = 0xBA7C;

/// How an epoch's node set is cut into training batches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchStrategy {
    /// One batch holding every node — the reference strategy:
    /// `run_batched` with this plan is bit-exact with `run`.
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
    /// GraphSAGE-style uniform neighbor sampling: shuffle all nodes, take
    /// `seeds_per_batch` seeds per batch, and for `hops` rounds add up to
    /// `fanout` uniformly-sampled neighbors of every frontier node.
    NeighborSampling {
        /// Seed nodes per batch.
        seeds_per_batch: usize,
        /// Neighbors sampled per frontier node per hop.
        fanout: usize,
        /// Expansion rounds.
        hops: usize,
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
    /// instead of panicking: a non-square adjacency, a zero batch size, a
    /// zero fanout with hops to expand, or missing or mis-sized community
    /// assignments.
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
            BatchStrategy::NeighborSampling {
                seeds_per_batch,
                fanout,
                hops,
            } => {
                if seeds_per_batch == 0 {
                    return Err("seeds_per_batch must be at least 1".into());
                }
                if hops > 0 && fanout == 0 {
                    return Err("fanout must be at least 1 when hops > 0".into());
                }
                Vec::new()
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
                        self.expand_hops(&mut batch, &mut visited, hops, cap, None);
                        for &v in &batch {
                            visited[v] = false;
                        }
                        batch.sort_unstable();
                        batch
                    })
                    .filter(|b| !b.is_empty())
                    .collect()
            }
            BatchStrategy::NeighborSampling {
                seeds_per_batch,
                fanout,
                hops,
            } => {
                let mut order: Vec<usize> = (0..n).collect();
                shuffle(&mut order, &mut rng);
                let mut visited = vec![false; n];
                order
                    .chunks(seeds_per_batch)
                    .map(|seeds| {
                        let mut batch: Vec<usize> = Vec::new();
                        for &s in seeds {
                            if !visited[s] {
                                visited[s] = true;
                                batch.push(s);
                            }
                        }
                        self.expand_hops(
                            &mut batch,
                            &mut visited,
                            hops,
                            usize::MAX,
                            Some((fanout, &mut rng)),
                        );
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
    /// `visited`. With `sample = Some((fanout, rng))` each frontier node
    /// contributes at most `fanout` uniformly-sampled neighbors
    /// (GraphSAGE); with `None` the full neighborhood is taken, bounded by
    /// `cap` total nodes.
    fn expand_hops(
        &self,
        batch: &mut Vec<usize>,
        visited: &mut [bool],
        hops: usize,
        cap: usize,
        mut sample: Option<(usize, &mut rand::rngs::StdRng)>,
    ) {
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
                let (s, e) = (indptr[node], indptr[node + 1]);
                let deg = e - s;
                let mut push = |pos: usize, batch: &mut Vec<usize>| {
                    let nb = indices[pos] as usize;
                    if !visited[nb] && batch.len() < cap {
                        visited[nb] = true;
                        batch.push(nb);
                    }
                };
                match sample {
                    Some((fanout, ref mut rng)) if deg > fanout => {
                        // Distinct neighbor positions, uniform without
                        // replacement; the RNG walk stays serial.
                        for off in sample_distinct(deg, fanout, rng) {
                            push(s + off, batch);
                        }
                    }
                    _ => {
                        for pos in s..e {
                            push(pos, batch);
                        }
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

/// One batch of model-specific work for [`Trainer::run_batched`] — the
/// batched counterpart of [`crate::train::TrainStep`].
pub trait BatchTrainStep {
    /// Builds this batch's loss on a fresh tape. `nodes` is the sorted node
    /// set of batch `batch_index` (of `batch_count`) in epoch `epoch`.
    /// The returned monitor values are averaged over the epoch's batches
    /// for the stop rule.
    fn step(
        &mut self,
        tape: &mut Tape,
        params: &[Var],
        epoch: usize,
        batch_index: usize,
        batch_count: usize,
        nodes: &[usize],
    ) -> StepOutput;

    /// Fires when the epoch-level monitored metric improves (and every
    /// epoch under [`StopRule::FixedEpochs`](crate::train::StopRule)),
    /// before the epoch's final optimizer step — mirroring
    /// [`crate::train::TrainStep::on_best`].
    fn on_best(&mut self, _epoch: usize, _params: &ParamSet) {}

    /// Fires at the end of every epoch, after its last optimizer step.
    fn on_epoch(&mut self) {}
}

/// [`Trainer::run_batched`]'s epochs: the plan's non-empty batches, each
/// recorded in the `train.batch.*` histograms.
struct Planned<'a> {
    plan: &'a mut dyn FnMut(usize) -> Vec<Vec<usize>>,
    step: &'a mut dyn BatchTrainStep,
    batches: Vec<Vec<usize>>,
    nodes_h: Histogram,
    sample_ns_h: Histogram,
    step_ns_h: Histogram,
}

impl Epochs for Planned<'_> {
    fn plan(&mut self, epoch: usize) -> usize {
        let sample_start = Instant::now();
        self.batches = (self.plan)(epoch);
        self.sample_ns_h
            .observe(sample_start.elapsed().as_nanos() as f64);
        self.batches.retain(|b| !b.is_empty());
        self.batches.len()
    }

    fn step(&mut self, tape: &mut Tape, params: &[Var], epoch: usize, batch: usize) -> StepOutput {
        let nodes = &self.batches[batch];
        self.nodes_h.observe(nodes.len() as f64);
        self.step
            .step(tape, params, epoch, batch, self.batches.len(), nodes)
    }

    fn batch_done(&mut self, started: Instant) {
        self.step_ns_h.observe(started.elapsed().as_nanos() as f64);
    }

    fn on_best(&mut self, epoch: usize, params: &ParamSet) {
        self.step.on_best(epoch, params);
    }

    fn on_epoch(&mut self) {
        self.step.on_epoch();
    }
}

impl Trainer {
    /// Mini-batch variant of [`Trainer::run`]: per epoch, `plan(epoch)`
    /// yields the batch node sets; every non-empty batch gets a fresh tape,
    /// its own loss, backward and optimizer step. Epoch-level loss/monitor
    /// are the means over the epoch's batches; best tracking fires between
    /// the last batch's forward and its optimizer step. Both entry points
    /// run the same epoch loop, so a one-batch-per-epoch plan covering all
    /// nodes reproduces [`Trainer::run`] bit-exactly.
    pub fn run_batched(
        &self,
        params: &mut ParamSet,
        opt: &mut Adam,
        plan: &mut dyn FnMut(usize) -> Vec<Vec<usize>>,
        step: &mut dyn BatchTrainStep,
    ) -> Result<TrainRun, TrainError> {
        let mut epochs = Planned {
            plan,
            step,
            batches: Vec::new(),
            nodes_h: aneci_obs::histogram("train.batch.nodes"),
            sample_ns_h: aneci_obs::histogram_time_ns("train.batch.sample_ns"),
            step_ns_h: aneci_obs::histogram_time_ns("train.batch.step_ns"),
        };
        self.run_epochs(params, opt, &mut epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::StopRule;
    use aneci_linalg::DenseMatrix;

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

    #[test]
    fn neighbor_sampling_bounds_fanout() {
        let a = ring(20);
        let strat = BatchStrategy::NeighborSampling {
            seeds_per_batch: 4,
            fanout: 1,
            hops: 1,
        };
        let s = BatchSampler::new(&a, strat, None, 5);
        let plan = s.epoch_plan(0);
        assert_eq!(plan.len(), 5);
        for batch in &plan {
            // 4 seeds, each adding at most one neighbor.
            assert!(batch.len() <= 8, "batch {batch:?}");
            assert!(batch.windows(2).all(|w| w[0] < w[1]));
        }
        // Seeds partition the nodes even though expansions overlap.
        let total: usize = plan.iter().map(|b| b.len()).sum();
        assert!(total >= 20);
    }

    #[test]
    fn full_graph_single_batch_matches_run_bit_exactly() {
        // Quadratic bowl, identical init: run() vs run_batched(FullGraph).
        let target = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        let build = || {
            let mut p = ParamSet::new();
            p.register("x", DenseMatrix::zeros(2, 2));
            p
        };

        let mut p1 = build();
        let mut o1 = Adam::new(0.05);
        let t1 = target.clone();
        let mut s1 = move |tape: &mut Tape, w: &[Var], _e: usize| -> Var {
            let c = tape.constant(t1.clone());
            let d = tape.sub(w[0], c);
            tape.frob_sq(d)
        };
        let r1 = Trainer::new(40).run(&mut p1, &mut o1, &mut s1).unwrap();

        struct Bowl(DenseMatrix);
        impl BatchTrainStep for Bowl {
            fn step(
                &mut self,
                tape: &mut Tape,
                w: &[Var],
                _epoch: usize,
                _bi: usize,
                _bc: usize,
                nodes: &[usize],
            ) -> StepOutput {
                assert_eq!(nodes.len(), 2, "plan hands the full node set");
                let c = tape.constant(self.0.clone());
                let d = tape.sub(w[0], c);
                StepOutput::new(tape.frob_sq(d))
            }
        }
        let mut p2 = build();
        let mut o2 = Adam::new(0.05);
        let a = ring(2);
        let sampler = BatchSampler::new(&a, BatchStrategy::FullGraph, None, 0);
        let r2 = Trainer::new(40)
            .run_batched(
                &mut p2,
                &mut o2,
                &mut |e| sampler.epoch_plan(e),
                &mut Bowl(target),
            )
            .unwrap();

        assert_eq!(r1.losses, r2.losses);
        assert_eq!(p1.get(0), p2.get(0));
        assert_eq!(r1.best_epoch, r2.best_epoch);
    }
    #[test]
    fn multi_batch_epochs_keep_the_epoch_contract() {
        // Per-batch monitors: epoch means 2, 3, 8/3, 4, 2, 1 improve at
        // epochs 0, 1 and 3; batch 2 of epoch 2 and batch 0 of epoch 4
        // would improve on their own.
        const MONITORS: [[f64; 3]; 6] = [
            [1.0, 2.0, 3.0],
            [3.0, 3.0, 3.0],
            [0.0, 0.0, 8.0],
            [4.0, 4.0, 4.0],
            [6.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
        ];
        /// The quadratic bowl scaled by `batch + 1`, NaN at `nan_at`.
        struct Scripted {
            nan_at: Option<(usize, usize)>,
            /// Loss and parameters of every batch's forward pass.
            seen: Vec<(f64, DenseMatrix)>,
            best: Vec<(usize, DenseMatrix)>,
        }
        impl BatchTrainStep for Scripted {
            fn step(
                &mut self,
                tape: &mut Tape,
                w: &[Var],
                epoch: usize,
                bi: usize,
                bc: usize,
                nodes: &[usize],
            ) -> StepOutput {
                assert_eq!(bc, 3, "the empty batch is skipped");
                assert!(!nodes.is_empty());
                let c = tape.constant(DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]));
                let d = tape.sub(w[0], c);
                let sq = tape.frob_sq(d);
                let scale = if self.nan_at == Some((epoch, bi)) {
                    f64::NAN
                } else {
                    (bi + 1) as f64
                };
                let loss = tape.scale(sq, scale);
                self.seen
                    .push((tape.scalar(loss), tape.value(w[0]).clone()));
                StepOutput::with_monitor(loss, MONITORS[epoch][bi])
            }
            fn on_best(&mut self, epoch: usize, params: &ParamSet) {
                self.best.push((epoch, params.get(0).clone()));
            }
        }
        let train = |nan_at| {
            let mut params = ParamSet::new();
            params.register("x", DenseMatrix::zeros(2, 2));
            let mut step = Scripted {
                nan_at,
                seen: Vec::new(),
                best: Vec::new(),
            };
            let run = Trainer::new(MONITORS.len())
                .stop(StopRule::maximize(2))
                .run_batched(
                    &mut params,
                    &mut Adam::new(0.05),
                    &mut |_| vec![vec![0], vec![], vec![1], vec![0, 1]],
                    &mut step,
                );
            (run, params, step)
        };

        let (run, _, step) = train(None);
        let run = run.unwrap();
        // Epoch loss: the mean of the three batch losses the step saw.
        let means: Vec<f64> = step
            .seen
            .chunks(3)
            .map(|b| (b[0].0 + b[1].0 + b[2].0) / 3.0)
            .collect();
        assert_eq!(run.losses, means);
        // Epoch monitor: the batch mean; patience 2 counts stalled epochs
        // (2, then 4 and 5), so the run stops after epoch 5.
        let monitors: Vec<(usize, f64)> = [2.0, 3.0, 8.0 / 3.0, 4.0, 2.0, 1.0]
            .into_iter()
            .enumerate()
            .collect();
        assert_eq!(run.monitors, monitors);
        assert_eq!((run.epochs_run, run.stopped_early), (6, true));
        assert_eq!((run.best_epoch, run.best_monitor), (3, Some(4.0)));
        // on_best: once per improving epoch, with the parameters the
        // epoch's last batch saw, before its optimizer step.
        let best: Vec<(usize, DenseMatrix)> = [0, 1, 3]
            .into_iter()
            .map(|e| (e, step.seen[3 * e + 2].1.clone()))
            .collect();
        assert_eq!(step.best, best);

        // A NaN loss fails its epoch and restores the parameters of the
        // last finite batch: the second batch of the same epoch, or the
        // previous epoch's last batch.
        for (nan_at, last_finite) in [((1, 2), 4), ((2, 0), 5)] {
            let (run, params, step) = train(Some(nan_at));
            let err = run.unwrap_err();
            assert!(
                matches!(err, TrainError::Diverged { epoch, loss } if epoch == nan_at.0 && loss.is_nan()),
                "{err:?}"
            );
            assert_eq!(*params.get(0), step.seen[last_finite].1, "{nan_at:?}");
        }
    }
}
