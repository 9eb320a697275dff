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
//! The iteration loop stays on the calling thread and fans each iteration's
//! per-worker candidate batches out through [`util::pool::for_each_slot`]:
//! inline — what the runtime does — or, when the caller hands in a
//! [`WorkerPool`], as one scope per iteration, whose threads are spawned and
//! joined inside it (a cost the inline path does not pay; measured slower on
//! this substrate). Per-worker RNG streams persist across iterations and the
//! reduction runs on the orchestrator in worker-index order, so the result
//! does not depend on who runs a worker — no pool, a 1-wide pool and an
//! 8-wide pool return the same bits.

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

/// Phase 1 (Alg. 2 lines 5-6): random initial points, best becomes the
/// incumbent. Done serially — it is a tiny fraction of the work.
fn initial_phase(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> (Vec<usize>, f64, ExploredLog) {
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
    (best_point, best_value, explored)
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

/// One logical worker's share of one iteration: `points_per_iteration`
/// candidates perturbed from the global best, greedily keeping the local
/// best.
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
    explored: &mut Vec<(Vec<usize>, f64)>,
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

/// One logical worker: its RNG stream and perturbation radius persist across
/// iterations; `local` is the slot its per-iteration best lands in.
struct Worker {
    rng: StdRng,
    radius: f64,
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
/// `pool` when one is given.
///
/// Bit-identical for the same `params` whatever the pool's physical thread
/// count, and with no pool at all: per-worker RNG streams live on the
/// orchestrator across iterations, and the reduction happens on the
/// orchestrator in worker-index order.
pub fn parallel_search_in(
    pool: Option<&WorkerPool>,
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> SearchResult {
    validate(params);
    let (mut best_point, mut best_value, initial_explored) =
        initial_phase(space, objective, params);

    let free = space.free_dims();
    let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
    let mut workers: Vec<Worker> = (0..params.threads)
        .map(|t| Worker {
            rng: StdRng::seed_from_u64(worker_seed(params.seed, t)),
            radius: worker_radius(params, t),
            explored: Vec::new(),
            local: Default::default(),
        })
        .collect();

    for i in 1..=params.max_iters {
        let p_select = 1.0 - (i as f64).ln() / ln_max;
        util::pool::for_each_slot(pool, &mut workers, |_, w| {
            w.local = worker_iteration(
                space,
                objective,
                params,
                &free,
                w.radius,
                p_select,
                &best_point,
                best_value,
                &mut w.rng,
                &mut w.explored,
            );
        });
        // Reduction in worker-index order (Alg. 2: install the best local
        // best as the next global best, ties to the lowest index).
        let locals = workers.iter_mut().map(|w| std::mem::take(&mut w.local));
        (best_point, best_value) = util::reduce::ordered_best(locals, (best_point, best_value));
    }

    let mut explored = initial_explored;
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

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn pooled_search_is_bit_identical_to_inline_at_any_width() {
        let space = SearchSpace::new(10, 108);
        let params = ParallelDdsParams {
            threads: 4,
            record_explored: true,
            ..ParallelDdsParams::default()
        };
        let objective = separable(66);
        let inline = parallel_search_in(None, &space, &objective, &params);
        for pool_width in [1, 2, 8] {
            let pool = WorkerPool::new(pool_width);
            let pooled = parallel_search_in(Some(&pool), &space, &objective, &params);
            assert_eq!(pooled.best_point, inline.best_point);
            assert_eq!(pooled.best_value.to_bits(), inline.best_value.to_bits());
            assert_eq!(pooled.evaluations, inline.evaluations);
            assert_eq!(pooled.explored, inline.explored);
        }
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
