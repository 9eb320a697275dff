//! Parallel DDS — the paper's Alg. 2.
//!
//! `N` worker threads share a global best point. Each iteration, every
//! thread generates `pointsPerIteration` candidates by perturbing the global
//! best, keeps its local best, and a synchronized reduction installs the
//! best local best as the next global best. To stop the threads from
//! exploring the same neighbourhood, thread groups use different perturbation
//! radii: the first quarter uses `r₁`, the next `r₂`, and so on
//! (`r = [0.2, 0.3, 0.4, 0.5]`, Fig. 6).
//!
//! A run is two steps. [`Draws::new`] makes every random draw the run
//! consumes: the initial points from the seed's stream, and, from each
//! worker's own stream, which dimensions every candidate perturbs and by how
//! much. None of it reads the objective or the point — a move is a dimension
//! and an `f64` delta added before reflection — so the draws are a function
//! of the space, the parameters and the seed alone. [`Draws::run_in`] then
//! replays them: it applies each candidate's deltas to its worker's local
//! best and evaluates. A caller that searches the same space with the same
//! parameters again (the runtime, once per quantum) keeps the draws and pays
//! only for the replay; [`parallel_search_in`] is draw-then-replay in one
//! call.
//!
//! The iteration loop stays on the calling thread and fans each iteration's
//! per-worker candidate batches out through [`util::pool::for_each_slot`]:
//! inline — what the runtime does — or, when the caller hands in a
//! [`WorkerPool`], as one scope per iteration, whose threads are spawned and
//! joined inside it (a cost the inline path does not pay; measured slower on
//! this substrate). Each worker replays its own slice of the draws and the
//! reduction runs on the orchestrator in worker-index order, so the result
//! does not depend on who runs a worker — no pool, a 1-wide pool and an
//! 8-wide pool return the same bits.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use util::WorkerPool;

use crate::objective::Objective;
use crate::rng::standard_normal;
use crate::{SearchResult, SearchSpace};

/// Parameters of the parallel DDS run, defaulting to the paper's Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelDdsParams {
    /// Iteration budget (Fig. 6: 40).
    pub max_iters: usize,
    /// Perturbation radii assigned to thread groups (Fig. 6:
    /// `[0.2, 0.3, 0.4, 0.5]`).
    pub r_values: Vec<f64>,
    /// Candidates each thread generates per iteration (Fig. 6: 10).
    pub points_per_iteration: usize,
    /// Number of uniformly random starting points (Fig. 6: 50).
    pub initial_points: usize,
    /// Logical worker threads; the paper uses one per core. With a pool
    /// back-end this is the number of RNG streams, not OS threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record every evaluated point (for the Fig. 10(a) scatter).
    pub record_explored: bool,
}

impl Default for ParallelDdsParams {
    fn default() -> Self {
        ParallelDdsParams {
            max_iters: 40,
            r_values: vec![0.2, 0.3, 0.4, 0.5],
            points_per_iteration: 10,
            initial_points: 50,
            threads: 8,
            seed: 0xDD5,
            record_explored: false,
        }
    }
}

/// Evaluated points, in evaluation order (only filled when
/// `record_explored` is set).
type ExploredLog = Vec<(Vec<usize>, f64)>;

fn validate(params: &ParallelDdsParams) {
    assert!(params.max_iters > 0, "need at least one iteration");
    assert!(
        params.points_per_iteration > 0,
        "need at least one point per iteration"
    );
    assert!(params.initial_points > 0, "need at least one initial point");
    assert!(params.threads > 0, "need at least one thread");
    assert!(
        !params.r_values.is_empty(),
        "need at least one perturbation radius"
    );
}

/// The seed of logical worker `t`, spread by the SplitMix64 golden gamma.
fn worker_seed(seed: u64, t: usize) -> u64 {
    seed ^ util::rng64::GOLDEN_GAMMA.wrapping_mul(t as u64 + 1)
}

/// The perturbation radius of logical worker `t` (Alg. 2: the first N/4
/// threads use r₁, the next N/4 use r₂, …).
fn worker_radius(params: &ParallelDdsParams, t: usize) -> f64 {
    let group = t * params.r_values.len() / params.threads;
    params.r_values[group.min(params.r_values.len() - 1)]
}

/// Every random draw of one parallel DDS run over one space, made up front
/// and replayed by [`Draws::run_in`] against any objective.
///
/// Candidates are numbered iteration, then worker, then candidate; candidate
/// `c`'s moves are `ends[c - 1]..ends[c]` of `dims` and `deltas`, in the
/// order the worker's stream drew them. A move is about 10 bytes: the 16 ×
/// 108 runtime problem at Fig. 6's parameters holds ≈ 13.6 k of them.
#[derive(Debug)]
pub struct Draws {
    space: SearchSpace,
    params: ParallelDdsParams,
    /// The `initial_points` random starting points, back to back.
    initial: Vec<usize>,
    /// The dimension each move perturbs.
    dims: Vec<u16>,
    /// The delta each move adds, `r · #confs · N(0, 1)`, before reflection.
    deltas: Vec<f64>,
    /// One past each candidate's last move.
    ends: Vec<u32>,
}

impl Draws {
    /// Draws everything a run of `params` over `space` consumes: the
    /// initial points from the `seed` stream, then, iteration by iteration,
    /// each worker's `points_per_iteration` candidates from its own stream
    /// — a Bernoulli(`p_select`) choice per free dimension, one uniformly
    /// chosen free dimension when none was chosen, and a normal delta per
    /// chosen dimension.
    ///
    /// # Panics
    ///
    /// Panics if any of `max_iters`, `points_per_iteration`,
    /// `initial_points`, `threads`, or `r_values` is zero/empty, or if the
    /// space has more than 65 536 dimensions.
    pub fn new(space: &SearchSpace, params: &ParallelDdsParams) -> Draws {
        validate(params);
        assert!(
            space.dims() <= 1 << 16,
            "a move names its dimension in 16 bits"
        );
        let mut rng = StdRng::seed_from_u64(params.seed);
        let initial = (0..params.initial_points)
            .flat_map(|_| space.random_point(&mut rng))
            .collect();

        let free = space.free_dims();
        let candidates = params.max_iters * params.threads * params.points_per_iteration;
        assert!(
            candidates.saturating_mul(free.len().max(1)) <= u32::MAX as usize,
            "a candidate's end offset is 32 bits"
        );
        let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
        let mut rngs: Vec<StdRng> = (0..params.threads)
            .map(|t| StdRng::seed_from_u64(worker_seed(params.seed, t)))
            .collect();
        let mut draws = Draws {
            space: space.clone(),
            params: params.clone(),
            initial,
            dims: Vec::new(),
            deltas: Vec::new(),
            ends: Vec::with_capacity(candidates),
        };
        for i in 1..=params.max_iters {
            let p_select = 1.0 - (i as f64).ln() / ln_max;
            for (t, rng) in rngs.iter_mut().enumerate() {
                let scale = worker_radius(params, t) * space.num_choices() as f64;
                for _ in 0..params.points_per_iteration {
                    let start = draws.dims.len();
                    for &d in &free {
                        if rng.random_range(0.0..1.0) < p_select {
                            draws.push_move(d, scale * standard_normal(rng));
                        }
                    }
                    if draws.dims.len() == start && !free.is_empty() {
                        let d = free[rng.random_range(0..free.len())];
                        draws.push_move(d, scale * standard_normal(rng));
                    }
                    draws.ends.push(draws.dims.len() as u32);
                }
            }
        }
        draws.dims.shrink_to_fit();
        draws.deltas.shrink_to_fit();
        draws
    }

    fn push_move(&mut self, d: usize, delta: f64) {
        self.dims.push(d as u16);
        self.deltas.push(delta);
    }

    /// Whether these are the draws of `params` over `space`, i.e. whether
    /// replaying them is the same search as drawing afresh.
    pub fn matches(&self, space: &SearchSpace, params: &ParallelDdsParams) -> bool {
        self.space == *space && self.params == *params
    }

    /// Replays the run, maximizing `objective`, with each iteration's
    /// logical workers dispatched to `pool` when one is given.
    ///
    /// Bit-identical to drawing while searching, whatever the pool's width
    /// and with no pool at all: each worker applies its own candidates'
    /// moves in drawn order, and the reduction happens on the orchestrator
    /// in worker-index order.
    pub fn run_in(&self, pool: Option<&WorkerPool>, objective: &dyn Objective) -> SearchResult {
        let params = &self.params;
        let mut explored = Vec::new();
        let (mut best_point, mut best_value) = self.initial_phase(objective, &mut explored);

        let mut workers: Vec<Worker> = (0..params.threads).map(|_| Worker::default()).collect();
        for i in 0..params.max_iters {
            util::pool::for_each_slot(pool, &mut workers, |t, w| {
                let first = (i * params.threads + t) * params.points_per_iteration;
                w.local = self.worker_iteration(
                    objective,
                    first,
                    &best_point,
                    best_value,
                    &mut w.explored,
                );
            });
            // Reduction in worker-index order (Alg. 2: install the best local
            // best as the next global best, ties to the lowest index).
            let locals = workers.iter_mut().map(|w| std::mem::take(&mut w.local));
            (best_point, best_value) = util::reduce::ordered_best(locals, (best_point, best_value));
        }

        explored.extend(util::reduce::ordered_concat(
            workers.into_iter().map(|w| w.explored),
        ));
        SearchResult {
            best_point,
            best_value,
            evaluations: params.initial_points
                + params.max_iters * params.points_per_iteration * params.threads,
            explored,
        }
    }

    /// Phase 1 (Alg. 2 lines 5-6): the random initial points, the first
    /// strictly best becoming the incumbent. Done serially — it is a tiny
    /// fraction of the work.
    fn initial_phase(
        &self,
        objective: &dyn Objective,
        explored: &mut ExploredLog,
    ) -> (Vec<usize>, f64) {
        let mut best: (&[usize], f64) = (&[], f64::NAN);
        for (k, p) in self.initial.chunks_exact(self.space.dims()).enumerate() {
            let v = objective.evaluate(p);
            if self.params.record_explored {
                explored.push((p.to_vec(), v));
            }
            if k == 0 || v > best.1 {
                best = (p, v);
            }
        }
        (best.0.to_vec(), best.1)
    }

    /// The moves of candidate `c`, as a range of `dims` and `deltas`.
    fn moves(&self, c: usize) -> Range<usize> {
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[c] as usize
    }

    /// One logical worker's share of one iteration: the
    /// `points_per_iteration` candidates from `first` on, each perturbed from
    /// the worker's local best (which starts at the global best), greedily
    /// keeping the local best.
    fn worker_iteration(
        &self,
        objective: &dyn Objective,
        first: usize,
        global_point: &[usize],
        global_value: f64,
        explored: &mut ExploredLog,
    ) -> (Vec<usize>, f64) {
        let mut local_point = global_point.to_vec();
        let mut local_value = global_value;
        let mut candidate = local_point.clone();
        for c in first..first + self.params.points_per_iteration {
            candidate.copy_from_slice(&local_point);
            let moves = self.moves(c);
            for (&d, &delta) in self.dims[moves.clone()].iter().zip(&self.deltas[moves]) {
                let d = usize::from(d);
                candidate[d] = self.space.reflect(candidate[d] as f64 + delta);
            }
            let v = objective.evaluate(&candidate);
            if self.params.record_explored {
                explored.push((candidate.clone(), v));
            }
            if v > local_value {
                local_value = v;
                std::mem::swap(&mut local_point, &mut candidate);
            }
        }
        (local_point, local_value)
    }
}

/// One logical worker's slots: its evaluation log across iterations and the
/// per-iteration best it hands to the reduction.
#[derive(Default)]
struct Worker {
    explored: ExploredLog,
    local: (Vec<usize>, f64),
}

/// Runs parallel DDS (Alg. 2), maximizing `objective` over `space`, with the
/// logical workers run inline on the calling thread.
///
/// Deterministic for a fixed seed: each logical worker owns one seeded RNG
/// stream and the reduction breaks ties by worker index.
///
/// # Panics
///
/// Panics if any of `max_iters`, `points_per_iteration`, `initial_points`,
/// `threads`, or `r_values` is zero/empty.
pub fn parallel_search(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> SearchResult {
    parallel_search_in(None, space, objective, params)
}

/// [`parallel_search`] with each iteration's logical workers dispatched to
/// `pool` when one is given: [`Draws::new`], then [`Draws::run_in`].
/// Bit-identical for the same `params` whatever the pool's width, and with
/// no pool at all.
pub fn parallel_search_in(
    pool: Option<&WorkerPool>,
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> SearchResult {
    Draws::new(space, params).run_in(pool, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::PenaltyTable;
    use crate::serial::{search, DdsParams};

    fn separable(target: usize) -> impl Fn(&[usize]) -> f64 + Sync {
        move |x: &[usize]| {
            -x.iter()
                .map(|&v| (v as f64 - target as f64).abs())
                .sum::<f64>()
        }
    }

    #[test]
    fn finds_separable_optimum() {
        let space = SearchSpace::new(16, 108);
        let result = parallel_search(&space, &separable(54), &ParallelDdsParams::default());
        assert!(
            result.best_value > -40.0,
            "best value {}",
            result.best_value
        );
    }

    #[test]
    fn respects_frozen_dimensions() {
        let mut space = SearchSpace::new(8, 108);
        space.freeze(0, 100);
        space.freeze(7, 3);
        let result = parallel_search(&space, &separable(50), &ParallelDdsParams::default());
        assert_eq!(result.best_point[0], 100);
        assert_eq!(result.best_point[7], 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = SearchSpace::new(8, 108);
        let params = ParallelDdsParams {
            threads: 4,
            ..ParallelDdsParams::default()
        };
        let a = parallel_search(&space, &separable(30), &params);
        let b = parallel_search(&space, &separable(30), &params);
        assert_eq!(a.best_point, b.best_point);
    }

    /// Alg. 2 drawing while it searches, inline: the search before the
    /// draws were split off, kept as the reference every replay must match.
    fn drawing_search(
        space: &SearchSpace,
        objective: &dyn Objective,
        params: &ParallelDdsParams,
    ) -> SearchResult {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut best_point = space.random_point(&mut rng);
        let mut best_value = objective.evaluate(&best_point);
        let mut explored = Vec::new();
        if params.record_explored {
            explored.push((best_point.clone(), best_value));
        }
        for _ in 1..params.initial_points {
            let p = space.random_point(&mut rng);
            let v = objective.evaluate(&p);
            if params.record_explored {
                explored.push((p.clone(), v));
            }
            if v > best_value {
                best_value = v;
                best_point = p;
            }
        }

        let free = space.free_dims();
        let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
        let mut workers: Vec<(StdRng, f64, ExploredLog)> = (0..params.threads)
            .map(|t| {
                let rng = StdRng::seed_from_u64(worker_seed(params.seed, t));
                (rng, worker_radius(params, t), Vec::new())
            })
            .collect();
        for i in 1..=params.max_iters {
            let p_select = 1.0 - (i as f64).ln() / ln_max;
            let locals: Vec<(Vec<usize>, f64)> = workers
                .iter_mut()
                .map(|(rng, r, log)| {
                    worker_iteration(
                        space,
                        objective,
                        params,
                        &free,
                        *r,
                        p_select,
                        &best_point,
                        best_value,
                        rng,
                        log,
                    )
                })
                .collect();
            (best_point, best_value) = util::reduce::ordered_best(locals, (best_point, best_value));
        }
        explored.extend(util::reduce::ordered_concat(
            workers.into_iter().map(|(_, _, log)| log),
        ));
        SearchResult {
            best_point,
            best_value,
            evaluations: params.initial_points
                + params.max_iters * params.points_per_iteration * params.threads,
            explored,
        }
    }

    /// One logical worker's share of one iteration, drawing each move as it
    /// applies it.
    #[allow(clippy::too_many_arguments)]
    fn worker_iteration(
        space: &SearchSpace,
        objective: &dyn Objective,
        params: &ParallelDdsParams,
        free: &[usize],
        r: f64,
        p_select: f64,
        global_point: &[usize],
        global_value: f64,
        rng: &mut StdRng,
        explored: &mut ExploredLog,
    ) -> (Vec<usize>, f64) {
        let mut local_point = global_point.to_vec();
        let mut local_value = global_value;
        let mut candidate = local_point.clone();
        for _ in 0..params.points_per_iteration {
            candidate.copy_from_slice(&local_point);
            let mut perturbed_any = false;
            for &d in free {
                if rng.random_range(0.0..1.0) < p_select {
                    let delta = r * space.num_choices() as f64 * standard_normal(rng);
                    candidate[d] = space.reflect(candidate[d] as f64 + delta);
                    perturbed_any = true;
                }
            }
            if !perturbed_any && !free.is_empty() {
                let d = free[rng.random_range(0..free.len())];
                let delta = r * space.num_choices() as f64 * standard_normal(rng);
                candidate[d] = space.reflect(candidate[d] as f64 + delta);
            }
            let v = objective.evaluate(&candidate);
            if params.record_explored {
                explored.push((candidate.clone(), v));
            }
            if v > local_value {
                local_value = v;
                std::mem::swap(&mut local_point, &mut candidate);
            }
        }
        (local_point, local_value)
    }

    /// The replay against the drawing search, over the three `PenaltyTable`
    /// shapes in use (the runtime's 16 × 108 under a binding cap, `paper
    /// fig10`'s 16 × 108 beside 32 W, Flicker's 5 × 27), a space with frozen
    /// dimensions and a one-dimensional one, at 50 seeds each, inline and
    /// on pools of width 1, 2 and 8.
    #[test]
    fn replayed_draws_match_the_drawing_search_to_the_bit() {
        let pools: Vec<WorkerPool> = [1, 2, 8].into_iter().map(WorkerPool::new).collect();
        let check = |space: &SearchSpace, objective: &dyn Objective, shape: &str| {
            for seed in 0..50 {
                let params = ParallelDdsParams {
                    seed,
                    record_explored: true,
                    ..ParallelDdsParams::default()
                };
                let want = drawing_search(space, objective, &params);
                let draws = Draws::new(space, &params);
                for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                    let width = pool.map_or(0, WorkerPool::threads);
                    let got = draws.run_in(pool, objective);
                    let at = format!("{shape}, seed {seed}, pool width {width}");
                    assert_eq!(got.best_point, want.best_point, "{at}");
                    assert_eq!(got.best_value.to_bits(), want.best_value.to_bits(), "{at}");
                    assert_eq!(got.evaluations, want.evaluations, "{at}");
                    assert_eq!(got.explored, want.explored, "{at}");
                }
            }
        };

        let mut rng = StdRng::seed_from_u64(0xD4A55);
        for (slots, choices, partitioned, base, max) in [
            (16, 108, true, (49.3, 4.0), (89.0, 32.0)),
            (16, 108, true, (32.0, 2.0), (70.0, 32.0)),
            (5, 27, false, (48.0, 0.0), (60.0, f64::INFINITY)),
        ] {
            let mut row = |range: Range<f64>| -> Vec<f64> {
                (0..choices)
                    .map(|_| rng.random_range(range.clone()))
                    .collect()
            };
            let bips: Vec<Vec<f64>> = (0..slots).map(|_| row(0.05..4.0)).collect();
            let watts: Vec<Vec<f64>> = (0..slots).map(|_| row(1.0..4.0)).collect();
            let ways = (0..choices)
                .map(|c| {
                    if partitioned {
                        [0.5, 1.0, 2.0, 4.0][c % 4]
                    } else {
                        0.0
                    }
                })
                .collect();
            let table = PenaltyTable::new(bips.iter().zip(&watts), ways, base, max);
            let space = SearchSpace::new(slots, choices);
            check(&space, &table, &format!("{slots} × {choices} table"));
        }
        let mut frozen = SearchSpace::new(12, 108);
        frozen.freeze(0, 100);
        frozen.freeze(11, 3);
        check(&frozen, &separable(50), "12 dims, 2 frozen");
        check(&SearchSpace::new(1, 108), &separable(50), "1 dim");
    }

    #[test]
    fn draws_match_only_their_own_space_and_params() {
        let space = SearchSpace::new(8, 108);
        let params = ParallelDdsParams::default();
        let draws = Draws::new(&space, &params);
        assert!(draws.matches(&space, &params));
        assert!(!draws.matches(&SearchSpace::new(9, 108), &params));
        let mut frozen = space.clone();
        frozen.freeze(3, 7);
        assert!(!draws.matches(&frozen, &params));
        let reseeded = ParallelDdsParams {
            seed: params.seed + 1,
            ..params.clone()
        };
        assert!(!draws.matches(&space, &reseeded));
    }

    #[test]
    fn parallel_matches_or_beats_budget_matched_serial() {
        // With the same total evaluation budget, the multi-radius parallel
        // search should be at least competitive on a rugged objective.
        let space = SearchSpace::new(16, 108);
        let objective = |x: &[usize]| {
            x.iter()
                .map(|&v| {
                    let d = (v as f64 - 70.0).abs();
                    (50.0 - d) + 5.0 * (v as f64 * 0.9).sin()
                })
                .sum::<f64>()
        };
        let par_params = ParallelDdsParams {
            threads: 4,
            ..ParallelDdsParams::default()
        };
        let par = parallel_search(&space, &objective, &par_params);
        let serial_budget = par.evaluations - par_params.initial_points;
        let ser = search(
            &space,
            &objective,
            &DdsParams {
                max_iters: serial_budget,
                ..DdsParams::default()
            },
        );
        assert!(
            par.best_value > ser.best_value * 0.95,
            "parallel {} vs serial {}",
            par.best_value,
            ser.best_value
        );
    }

    #[test]
    fn evaluation_count_matches_formula() {
        let space = SearchSpace::new(4, 10);
        let params = ParallelDdsParams {
            threads: 2,
            max_iters: 5,
            points_per_iteration: 3,
            initial_points: 7,
            record_explored: true,
            ..ParallelDdsParams::default()
        };
        let result = parallel_search(&space, &separable(5), &params);
        assert_eq!(result.evaluations, 7 + 5 * 3 * 2);
        assert_eq!(result.explored.len(), result.evaluations);
    }

    #[test]
    fn single_thread_works() {
        let space = SearchSpace::new(6, 20);
        let params = ParallelDdsParams {
            threads: 1,
            ..ParallelDdsParams::default()
        };
        let result = parallel_search(&space, &separable(10), &params);
        assert!(space.contains(&result.best_point));
    }
}
