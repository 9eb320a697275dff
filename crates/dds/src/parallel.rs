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
//! of the space, the parameters and the seed alone. A delta is stored as
//! the integer shift that provably lands on the same choice from every
//! current choice (see [`Draws`]); the rare one with no such shift keeps its
//! `f64`. [`Draws::run_in`] then replays them: each worker applies a
//! candidate's moves to its local best in place, evaluates, and undoes them
//! when the candidate loses. A caller that searches the same space with the
//! same parameters again (the runtime, once per quantum) keeps the draws and
//! pays only for the replay; [`parallel_search_in`] is draw-then-replay in
//! one call.
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
    assert!(
        params.r_values.iter().all(|r| r.is_finite() && *r > 0.0),
        "need finite, positive perturbation radii"
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
/// `c`'s moves are `ends[c - 1]..ends[c]` of `moves`, in the order the
/// worker's stream drew them. A move is 4 bytes, a `u16` dimension and an
/// `i16` shift: the 16 × 108 runtime problem at Fig. 6's parameters holds
/// ≈ 13.6 k of them.
///
/// # Integer moves
///
/// A drawn move adds `δ = r · #confs · N(0, 1)` to the current choice `c` and
/// reflects: `SearchSpace::reflect(c as f64 + δ)`. It is stored as the shift
/// `s = δ.round()` when, writing `n` for `#confs`,
///
/// * `n < 2¹¹`,
/// * `|δ| ≤ 16 n`, and
/// * `|frac(δ) − ½| ≥ 2⁻²⁰` (δ is not within 2⁻²⁰ of a rounding tie),
///
/// and replayed by mirroring the integer `c + s` the way `reflect` mirrors
/// `c + δ` (about 0, and about `n − ½`) until it lies in `0..n`. That is
/// exact for every `c` in `0..n`:
///
/// * In real arithmetic both mirrors map half-integers to half-integers, so
///   `c + δ` stays as far from a tie as δ is. Away from a tie, rounding
///   commutes with each mirror and `round(c + δ) = c + s`. Where the two
///   loops stop differently — `x ∈ [n − ½, n)`, which `reflect` clamps to
///   `n − 1`, or `x ∈ (−½, 0)` — one extra integer mirror gives the same
///   choice.
/// * In `f64`, `|c + δ| < 17 n` takes at most 35 of `reflect`'s 64 passes
///   (≈ 17 n / (n − ½): 34 at `n = 1`, 18 at `n = 108`), and every
///   intermediate stays below 2¹⁶ in magnitude, so each of the at most 71
///   roundings errs by at most 2⁻³⁸: under 2⁻³¹ in all, far inside the 2⁻²⁰
///   margin. A branch taken differently on a value that close to 0 or `n`
///   lands on the same choice, since those points are ½ from any tie.
///
/// `tests::integer_shifts_replay_reflect_exactly` checks every `c` on the
/// bounds, at ties and a few ulp off them. A move outside the rule keeps its
/// `f64` delta in `fallback` and replays through `reflect`: about one in
/// 5 · 10⁵ at the paper's radii (the 2⁻²⁰ margin), every move of a space of
/// 2¹¹ or more choices.
#[derive(Debug)]
pub struct Draws {
    space: SearchSpace,
    params: ParallelDdsParams,
    /// The `initial_points` random starting points, back to back.
    initial: Vec<usize>,
    /// Every move, candidate after candidate.
    moves: Vec<Move>,
    /// The delta of every move whose shift is [`FALLBACK`], by ascending
    /// move index.
    fallback: Vec<(u32, f64)>,
    /// One past each candidate's last move.
    ends: Vec<u32>,
}

/// One drawn move: the dimension it perturbs and the shift it applies.
#[derive(Debug, Clone, Copy)]
struct Move {
    dim: u16,
    shift: i16,
}

/// The shift of a move whose delta [`integer_shift`] cannot encode; it
/// replays from `Draws::fallback`. No encoded shift reaches it: `|s| ≤ 16 n
/// < 2¹⁵`.
const FALLBACK: i16 = i16::MIN;

/// The integer shift that replays `delta` exactly from every choice of a
/// `choices`-wide dimension, when the rule of [`Draws`] grants one.
fn integer_shift(delta: f64, choices: usize) -> Option<i16> {
    const TIE_MARGIN: f64 = 1.0 / (1u32 << 20) as f64;
    let tie_distance = ((delta - delta.trunc()).abs() - 0.5).abs();
    let exact =
        choices < 1 << 11 && delta.abs() <= 16.0 * choices as f64 && tie_distance >= TIE_MARGIN;
    exact.then(|| delta.round() as i16)
}

/// `SearchSpace::reflect` on the integers: mirrors `choice + shift` about 0
/// and about `choices − ½` until it lies in `0..choices`. For `k ≥ 0`,
/// `min(k, 2n − 1 − k)` is `k` inside `0..n` and its mirror above, so each
/// pass is one mirror pair without a data-dependent branch.
#[inline]
fn reflect_shifted(choice: usize, shift: i16, choices: usize) -> usize {
    let n = choices as i32;
    let mut k = choice as i32 + i32::from(shift);
    loop {
        k = k.abs();
        k = k.min(2 * n - 1 - k);
        if k >= 0 {
            return k as usize;
        }
    }
}

impl Draws {
    /// Draws everything a run of `params` over `space` consumes: the
    /// initial points from the `seed` stream, then, iteration by iteration,
    /// each worker's `points_per_iteration` candidates from its own stream
    /// — a Bernoulli(`p_select`) choice per dimension, one uniformly chosen
    /// dimension when none was chosen, and a normal delta per chosen
    /// dimension.
    ///
    /// # Panics
    ///
    /// Panics if any of `max_iters`, `points_per_iteration`,
    /// `initial_points`, `threads`, or `r_values` is zero/empty, if a radius
    /// is not finite and positive, or if the space has more than 65 536
    /// dimensions.
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

        let dims = space.dims();
        let candidates = params.max_iters * params.threads * params.points_per_iteration;
        assert!(
            candidates.saturating_mul(dims) <= u32::MAX as usize,
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
            moves: Vec::new(),
            fallback: Vec::new(),
            ends: Vec::with_capacity(candidates),
        };
        for i in 1..=params.max_iters {
            let p_select = 1.0 - (i as f64).ln() / ln_max;
            for (t, rng) in rngs.iter_mut().enumerate() {
                let scale = worker_radius(params, t) * space.num_choices() as f64;
                for _ in 0..params.points_per_iteration {
                    let start = draws.moves.len();
                    for d in 0..dims {
                        if rng.random_range(0.0..1.0) < p_select {
                            draws.push_move(d, scale * standard_normal(rng));
                        }
                    }
                    if draws.moves.len() == start {
                        let d = rng.random_range(0..dims);
                        draws.push_move(d, scale * standard_normal(rng));
                    }
                    draws.ends.push(draws.moves.len() as u32);
                }
            }
        }
        draws.moves.shrink_to_fit();
        draws.fallback.shrink_to_fit();
        draws
    }

    fn push_move(&mut self, d: usize, delta: f64) {
        let shift = match integer_shift(delta, self.space.num_choices()) {
            Some(shift) => shift,
            None => {
                self.fallback.push((self.moves.len() as u32, delta));
                FALLBACK
            }
        };
        self.moves.push(Move {
            dim: d as u16,
            shift,
        });
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
    pub fn run_in<O: Objective + ?Sized>(
        &self,
        pool: Option<&WorkerPool>,
        objective: &O,
    ) -> SearchResult {
        let params = &self.params;
        let mut explored = Vec::new();
        let (mut best_point, mut best_value) = self.initial_phase(objective, &mut explored);

        let mut workers: Vec<Worker> = (0..params.threads)
            .map(|_| Worker {
                point: best_point.clone(),
                value: best_value,
                undo: Vec::new(),
                explored: Vec::new(),
            })
            .collect();
        for i in 0..params.max_iters {
            util::pool::for_each_slot(pool, &mut workers, |t, w| {
                w.point.copy_from_slice(&best_point);
                w.value = best_value;
                let first = (i * params.threads + t) * params.points_per_iteration;
                self.worker_iteration(objective, first, w);
            });
            // Reduction in worker-index order (Alg. 2: install the best local
            // best as the next global best, ties to the lowest index).
            let locals = workers.iter().map(|w| (Some(&w.point), w.value));
            if let (Some(point), value) = util::reduce::ordered_best(locals, (None, best_value)) {
                best_point.copy_from_slice(point);
                best_value = value;
            }
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
    fn initial_phase<O: Objective + ?Sized>(
        &self,
        objective: &O,
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

    /// The moves of candidate `c`, as a range of `moves`.
    fn span(&self, c: usize) -> Range<usize> {
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        start..self.ends[c] as usize
    }

    /// The delta of move `m`, whose shift is [`FALLBACK`].
    fn fallback_delta(&self, m: usize) -> f64 {
        let at = self.fallback.partition_point(|&(k, _)| (k as usize) < m);
        self.fallback[at].1
    }

    /// One logical worker's share of one iteration: the
    /// `points_per_iteration` candidates from `first` on, each applied to
    /// the worker's local best in place (it starts at the global best),
    /// evaluated, and undone unless it is strictly better.
    fn worker_iteration<O: Objective + ?Sized>(&self, objective: &O, first: usize, w: &mut Worker) {
        let choices = self.space.num_choices();
        for c in first..first + self.params.points_per_iteration {
            let span = self.span(c);
            for (m, &Move { dim, shift }) in span.clone().zip(&self.moves[span]) {
                let d = usize::from(dim);
                let choice = w.point[d];
                w.undo.push((d, choice));
                w.point[d] = if shift == FALLBACK {
                    self.space.reflect(choice as f64 + self.fallback_delta(m))
                } else {
                    reflect_shifted(choice, shift, choices)
                };
            }
            let v = objective.evaluate(&w.point);
            if self.params.record_explored {
                w.explored.push((w.point.clone(), v));
            }
            if v > w.value {
                w.value = v;
                w.undo.clear();
            } else {
                for (d, choice) in w.undo.drain(..).rev() {
                    w.point[d] = choice;
                }
            }
        }
    }
}

/// One logical worker's state for a whole run: its local best, which each
/// candidate is applied to and undone from in place, and its evaluation log
/// across iterations.
struct Worker {
    point: Vec<usize>,
    value: f64,
    /// `(dimension, previous choice)` for each move of the candidate under
    /// evaluation.
    undo: Vec<(usize, usize)>,
    explored: ExploredLog,
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
/// `threads`, or `r_values` is zero/empty, or if a radius is not finite and
/// positive.
pub fn parallel_search<O: Objective + ?Sized>(
    space: &SearchSpace,
    objective: &O,
    params: &ParallelDdsParams,
) -> SearchResult {
    parallel_search_in(None, space, objective, params)
}

/// [`parallel_search`] with each iteration's logical workers dispatched to
/// `pool` when one is given: [`Draws::new`], then [`Draws::run_in`].
/// Bit-identical for the same `params` whatever the pool's width, and with
/// no pool at all.
pub fn parallel_search_in<O: Objective + ?Sized>(
    pool: Option<&WorkerPool>,
    space: &SearchSpace,
    objective: &O,
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
            for choice in candidate.iter_mut() {
                if rng.random_range(0.0..1.0) < p_select {
                    let delta = r * space.num_choices() as f64 * standard_normal(rng);
                    *choice = space.reflect(*choice as f64 + delta);
                    perturbed_any = true;
                }
            }
            if !perturbed_any {
                let d = rng.random_range(0..space.dims());
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
    /// fig10`'s 16 × 108 beside 32 W, Flicker's 5 × 27), a one-dimensional
    /// space, and a 4 × 3 one at radius 8 whose
    /// deltas often exceed `16 · #confs` and so replay from the fallback
    /// list, at 50 seeds each, inline and on pools of width 1, 2 and 8.
    #[test]
    fn replayed_draws_match_the_drawing_search_to_the_bit() {
        let pools: Vec<WorkerPool> = [1, 2, 8].into_iter().map(WorkerPool::new).collect();
        let check = |space: &SearchSpace,
                     objective: &dyn Objective,
                     base: &ParallelDdsParams,
                     shape: &str| {
            let mut fallbacks = 0;
            for seed in 0..50 {
                let params = ParallelDdsParams {
                    seed,
                    record_explored: true,
                    ..base.clone()
                };
                let want = drawing_search(space, objective, &params);
                let draws = Draws::new(space, &params);
                fallbacks += draws.fallback.len();
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
            fallbacks
        };
        let fig6 = ParallelDdsParams::default();

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
            check(&space, &table, &fig6, &format!("{slots} × {choices} table"));
        }
        check(&SearchSpace::new(1, 108), &separable(50), &fig6, "1 dim");
        let wide = ParallelDdsParams {
            r_values: vec![8.0],
            ..fig6.clone()
        };
        let fallbacks = check(
            &SearchSpace::new(4, 3),
            &separable(1),
            &wide,
            "4 × 3, r = 8",
        );
        assert!(
            fallbacks > 0,
            "the 4 × 3 shape never used the fallback list"
        );
    }

    /// Every `c` in `0..n` for `n ∈ {1, 2, 3, 27, 108}`: a delta the rule
    /// encodes lands, as an integer shift, where `reflect` lands. Covered:
    /// a sweep of `[−16 n, 16 n]`, tiny and signed-zero deltas, deltas on
    /// and just past `±16 n`, and deltas on the 2⁻²⁰ tie margin. Exact ties,
    /// ties ± 1–4 ulp and deltas past `16 n` are not encoded.
    #[test]
    fn integer_shifts_replay_reflect_exactly() {
        const MARGIN: f64 = 1.0 / (1u32 << 20) as f64;
        let ulps = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
        for n in [1usize, 2, 3, 27, 108] {
            let space = SearchSpace::new(1, n);
            let bound = 16.0 * n as f64;
            // An irrational step spreads the sweep's fractional parts.
            let step = std::f64::consts::FRAC_1_PI;
            let steps = (bound / step) as i64;
            let mut deltas: Vec<f64> = (-steps..=steps).map(|j| j as f64 * step).collect();
            deltas.extend([0.0, -0.0, 1e-300, -1e-300, f64::MIN_POSITIVE, 0.49, -0.51]);
            for tie in [0.5, 1.5, n as f64 - 0.5, n as f64 + 0.5, bound - 0.5] {
                for x in [tie, -tie] {
                    for k in -4..=4 {
                        assert_eq!(integer_shift(ulps(x, k), n), None, "{x} {k:+} ulp");
                    }
                    deltas.extend([x + MARGIN, x - MARGIN]);
                }
            }
            for edge in [bound, ulps(bound, -1), bound - 0.25] {
                deltas.extend([edge, -edge]);
            }
            for past in [ulps(bound, 1), bound + 0.25] {
                assert_eq!(integer_shift(past, n), None, "{past} at n = {n}");
                assert_eq!(integer_shift(-past, n), None, "{} at n = {n}", -past);
            }
            for delta in deltas {
                let Some(shift) = integer_shift(delta, n) else {
                    let tie_distance = ((delta - delta.trunc()).abs() - 0.5).abs();
                    assert!(tie_distance < MARGIN, "{delta} not encoded at n = {n}");
                    continue;
                };
                for c in 0..n {
                    assert_eq!(
                        reflect_shifted(c, shift, n),
                        space.reflect(c as f64 + delta),
                        "n = {n}, c = {c}, delta = {delta:e}, shift = {shift}"
                    );
                }
            }
        }
        assert_eq!(integer_shift(f64::NAN, 108), None);
        assert_eq!(integer_shift(f64::INFINITY, 108), None);
        assert_eq!(integer_shift(3.2, 1 << 11), None);
    }

    fn draws_with_radius(r: f64) -> Draws {
        let params = ParallelDdsParams {
            r_values: vec![0.2, r],
            ..ParallelDdsParams::default()
        };
        Draws::new(&SearchSpace::new(4, 10), &params)
    }

    #[test]
    #[should_panic(expected = "need finite, positive perturbation radii")]
    fn nan_radius_rejected() {
        draws_with_radius(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "need finite, positive perturbation radii")]
    fn zero_radius_rejected() {
        draws_with_radius(0.0);
    }

    #[test]
    #[should_panic(expected = "need finite, positive perturbation radii")]
    fn negative_radius_rejected() {
        draws_with_radius(-0.2);
    }

    #[test]
    fn draws_match_only_their_own_space_and_params() {
        let space = SearchSpace::new(8, 108);
        let params = ParallelDdsParams::default();
        let draws = Draws::new(&space, &params);
        assert!(draws.matches(&space, &params));
        assert!(!draws.matches(&SearchSpace::new(9, 108), &params));
        assert!(!draws.matches(&SearchSpace::new(8, 107), &params));
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
