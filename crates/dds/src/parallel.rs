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
//! `f64`. [`Draws::run_in`] then replays them. For each candidate a worker
//! looks up where its moves land from its local best, without touching the
//! point. When the objective offers a [`Bound`] (a [`PenaltyTable`] does),
//! the worker adds up the moves' cell differences and rejects the candidate
//! unscored if its certified bound is no better than the local best: on the
//! runtime's tables about 98 % of candidates go that way. Every other
//! candidate is applied to the local best in place, scored by the objective,
//! and undone unless it wins. So every value the search accepts and every
//! comparison it makes is the objective's own, and the result is bit for
//! bit the one of scoring every candidate. A caller that searches the same
//! space with the same parameters again (the runtime, once per quantum)
//! keeps the draws and pays only for the replay; [`parallel_search_in`] is
//! draw-then-replay in one call.
//!
//! [`PenaltyTable`]: crate::PenaltyTable
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

use crate::objective::{Bound, Objective, Scored};
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
///
/// # Replay
///
/// A candidate's moves name distinct dimensions in ascending order, so each
/// lands where it would from the unchanged local best, and the replay can
/// judge a candidate from the cells it moves to and from before it writes a
/// single choice. With recording on, or an objective that offers no
/// [`Bound`], every candidate is scored.
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
    /// in worker-index order. When the objective offers a [`Bound`] (and
    /// the run records nothing), a candidate whose bound is no better than
    /// its worker's local best is rejected unscored; it could not have
    /// replaced that best, so every accepted value and every comparison is
    /// the same as scoring it. Debug builds score each rejected candidate
    /// anyway and assert that it would have lost.
    pub fn run_in<O: Objective + ?Sized>(
        &self,
        pool: Option<&WorkerPool>,
        objective: &O,
    ) -> SearchResult {
        let params = &self.params;
        let bound = objective.bound().filter(|b| {
            !params.record_explored && b.fits(self.space.dims(), self.space.num_choices())
        });
        let score = |point: &[usize]| match &bound {
            Some(b) => b.score(point),
            None => Scored::bare(objective.evaluate(point)),
        };
        let mut explored = Vec::new();
        let (mut best_point, mut best) = self.initial_phase(&score, &mut explored);

        let mut workers: Vec<Worker> = (0..params.threads)
            .map(|_| Worker {
                point: best_point.clone(),
                best,
                undo: Vec::new(),
                scored: 0,
                explored: Vec::new(),
            })
            .collect();
        for i in 0..params.max_iters {
            util::pool::for_each_slot(pool, &mut workers, |t, w| {
                w.point.copy_from_slice(&best_point);
                w.best = best;
                let first = (i * params.threads + t) * params.points_per_iteration;
                self.worker_iteration(bound.as_ref(), &score, first, w);
            });
            // Reduction in worker-index order (Alg. 2: install the best local
            // best as the next global best, ties to the lowest index).
            let locals = workers.iter().map(|w| (Some(w), w.best.value));
            if let (Some(w), _) = util::reduce::ordered_best(locals, (None, best.value)) {
                best_point.copy_from_slice(&w.point);
                best = w.best;
            }
        }

        let scored = params.initial_points + workers.iter().map(|w| w.scored).sum::<usize>();
        explored.extend(util::reduce::ordered_concat(
            workers.into_iter().map(|w| w.explored),
        ));
        SearchResult {
            best_point,
            best_value: best.value,
            evaluations: params.initial_points
                + params.max_iters * params.points_per_iteration * params.threads,
            scored,
            explored,
        }
    }

    /// Phase 1 (Alg. 2 lines 5-6): the random initial points, the first
    /// strictly best becoming the incumbent. Done serially — it is a tiny
    /// fraction of the work.
    fn initial_phase(
        &self,
        score: &impl Fn(&[usize]) -> Scored,
        explored: &mut ExploredLog,
    ) -> (Vec<usize>, Scored) {
        let mut best: (&[usize], Scored) = (&[], Scored::bare(f64::NAN));
        for (k, p) in self.initial.chunks_exact(self.space.dims()).enumerate() {
            let s = score(p);
            if self.params.record_explored {
                explored.push((p.to_vec(), s.value));
            }
            if k == 0 || s.value > best.1.value {
                best = (p, s);
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

    /// Where move `m` of a candidate lands from choice `from`.
    #[inline]
    fn landing(&self, m: usize, shift: i16, from: usize) -> usize {
        if shift == FALLBACK {
            self.space.reflect(from as f64 + self.fallback_delta(m))
        } else {
            reflect_shifted(from, shift, self.space.num_choices())
        }
    }

    /// One logical worker's share of one iteration: the
    /// `points_per_iteration` candidates from `first` on, each judged
    /// against the worker's local best (it starts at the global best). With
    /// a `bound`, a candidate's moves are looked up without touching the
    /// point, and their cell differences reject it unless it might win. A
    /// candidate not rejected is applied to the point in place, scored, and
    /// undone unless it is strictly better.
    fn worker_iteration(
        &self,
        bound: Option<&Bound>,
        score: &impl Fn(&[usize]) -> Scored,
        first: usize,
        w: &mut Worker,
    ) {
        for c in first..first + self.params.points_per_iteration {
            let moves = || self.span(c).zip(&self.moves[self.span(c)]);
            let rejected = bound.is_some_and(|b| {
                let mut delta = (0.0, 0.0, 0.0);
                for (m, &Move { dim, shift }) in moves() {
                    let d = usize::from(dim);
                    let from = w.point[d];
                    b.add_move(&mut delta, d, from, self.landing(m, shift, from));
                }
                b.upper(&w.best, delta) <= w.best.value
            });
            if rejected && !cfg!(debug_assertions) {
                continue;
            }
            w.undo.clear();
            for (m, &Move { dim, shift }) in moves() {
                let d = usize::from(dim);
                let from = w.point[d];
                w.undo.push((d, from));
                w.point[d] = self.landing(m, shift, from);
            }
            let s = score(&w.point);
            if rejected {
                debug_assert!(
                    s.value <= w.best.value || s.value.is_nan(),
                    "rejected candidate {c} scores {} over its incumbent's {}",
                    s.value,
                    w.best.value
                );
            } else {
                w.scored += 1;
                if self.params.record_explored {
                    w.explored.push((w.point.clone(), s.value));
                }
                if s.value > w.best.value {
                    w.best = s;
                    continue;
                }
            }
            for &(d, from) in &w.undo {
                w.point[d] = from;
            }
        }
    }
}

/// One logical worker's state for a whole run: its local best, which each
/// candidate that might win is applied to and undone from in place, and its
/// counts and evaluation log across iterations.
struct Worker {
    point: Vec<usize>,
    /// The local best's score, with the sums the bound starts from.
    best: Scored,
    /// `(dimension, previous choice)` for each move of the candidate under
    /// evaluation.
    undo: Vec<(usize, usize)>,
    /// Candidates scored exactly.
    scored: usize,
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

    /// The 4 × 3 space at radius 8 that the root suite's replay test uses
    /// for the fallback list: its deltas often exceed `16 · #confs`.
    #[test]
    fn wide_radii_on_a_narrow_space_use_the_fallback_list() {
        let params = ParallelDdsParams {
            r_values: vec![8.0],
            ..ParallelDdsParams::default()
        };
        let draws = Draws::new(&SearchSpace::new(4, 3), &params);
        assert!(
            !draws.fallback.is_empty(),
            "the 4 × 3 shape never used the fallback list"
        );
    }

    /// A candidate's moves name distinct dimensions, which is what lets the
    /// replay look every move up from the unchanged local best.
    #[test]
    fn a_candidate_moves_each_dimension_at_most_once() {
        let draws = Draws::new(&SearchSpace::new(16, 108), &ParallelDdsParams::default());
        for c in 0..draws.ends.len() {
            let dims: Vec<u16> = draws.moves[draws.span(c)].iter().map(|m| m.dim).collect();
            assert!(
                dims.windows(2).all(|w| w[0] < w[1]),
                "candidate {c}: {dims:?}"
            );
        }
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
