//! The parallel DDS replay against the search that draws as it goes, and
//! the replay's work counter.
//!
//! `dds::Draws::run_in` judges a candidate from the cell differences of its
//! moves and scores it only when `PenaltyTable`'s certified bound says it
//! might beat its worker's local best. The reference below scores every
//! candidate, so equal bits here mean the bound never rejected a winner.
//! The tables are built to make that hard: cells a few ulps apart, exact
//! ties, BIPS at the `1e-9` floor, binding caps and way budgets, and
//! penalty weights of 0, 2 and 1e6.

use std::ops::Range;

use dds::rng::standard_normal;
use dds::{Draws, Objective, ParallelDdsParams, PenaltyTable, SearchResult, SearchSpace};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use util::WorkerPool;

/// Scored points, in scoring order, when recording.
type ExploredLog = Vec<(Vec<usize>, f64)>;

/// Alg. 2 drawing while it searches, inline, scoring every candidate: the
/// search before the draws were split off and the bound added.
fn drawing_search(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> SearchResult {
    let record = |log: &mut ExploredLog, point: &[usize], value: f64| {
        if params.record_explored {
            log.push((point.to_vec(), value));
        }
    };
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut best_point = space.random_point(&mut rng);
    let mut best_value = objective.evaluate(&best_point);
    let mut explored = Vec::new();
    record(&mut explored, &best_point, best_value);
    for _ in 1..params.initial_points {
        let p = space.random_point(&mut rng);
        let v = objective.evaluate(&p);
        record(&mut explored, &p, v);
        if v > best_value {
            best_value = v;
            best_point = p;
        }
    }

    let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
    // Each worker's stream and radius: the seed spread by the SplitMix64
    // golden gamma, and the first quarter of the workers on r₁, the next
    // on r₂, and so on.
    let mut workers: Vec<(StdRng, f64, ExploredLog)> = (0..params.threads)
        .map(|t| {
            let seed = params.seed ^ util::rng64::GOLDEN_GAMMA.wrapping_mul(t as u64 + 1);
            let group = (t * params.r_values.len() / params.threads).min(params.r_values.len() - 1);
            (
                StdRng::seed_from_u64(seed),
                params.r_values[group],
                Vec::new(),
            )
        })
        .collect();
    for i in 1..=params.max_iters {
        let p_select = 1.0 - (i as f64).ln() / ln_max;
        let mut locals = Vec::with_capacity(params.threads);
        for (rng, r, log) in &mut workers {
            let scale = *r * space.num_choices() as f64;
            let mut local = (best_point.clone(), best_value);
            for _ in 0..params.points_per_iteration {
                let mut candidate = local.0.clone();
                let mut perturbed_any = false;
                for choice in candidate.iter_mut() {
                    if rng.random_range(0.0..1.0) < p_select {
                        *choice = space.reflect(*choice as f64 + scale * standard_normal(rng));
                        perturbed_any = true;
                    }
                }
                if !perturbed_any {
                    let d = rng.random_range(0..space.dims());
                    candidate[d] =
                        space.reflect(candidate[d] as f64 + scale * standard_normal(rng));
                }
                let v = objective.evaluate(&candidate);
                record(log, &candidate, v);
                if v > local.1 {
                    local = (candidate, v);
                }
            }
            locals.push(local);
        }
        (best_point, best_value) = util::reduce::ordered_best(locals, (best_point, best_value));
    }
    explored.extend(util::reduce::ordered_concat(
        workers.into_iter().map(|(_, _, log)| log),
    ));
    let evaluations =
        params.initial_points + params.max_iters * params.points_per_iteration * params.threads;
    SearchResult {
        best_point,
        best_value,
        evaluations,
        scored: evaluations,
        explored,
    }
}

/// Replays `seeds` against the drawing search, with recording off and on,
/// inline and on every pool, comparing the bits of the point, the value and
/// the candidate count (and, recording, every scored point). Returns the
/// candidates judged and those scored exactly with recording off.
fn check<O: Objective>(
    space: &SearchSpace,
    objective: &O,
    base: &ParallelDdsParams,
    seeds: Range<u64>,
    pools: &[WorkerPool],
    shape: &str,
) -> (usize, usize) {
    let (mut judged, mut scored) = (0, 0);
    for seed in seeds {
        let recording = ParallelDdsParams {
            seed,
            record_explored: true,
            ..base.clone()
        };
        let want = drawing_search(space, objective, &recording);
        for record_explored in [false, true] {
            let params = ParallelDdsParams {
                record_explored,
                ..recording.clone()
            };
            let draws = Draws::new(space, &params);
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let width = pool.map_or(0, WorkerPool::threads);
                let got = draws.run_in(pool, objective);
                let at = format!(
                    "{shape}, seed {seed}, recording {record_explored}, pool width {width}"
                );
                assert_eq!(got.best_point, want.best_point, "{at}");
                assert_eq!(got.best_value.to_bits(), want.best_value.to_bits(), "{at}");
                assert_eq!(got.evaluations, want.evaluations, "{at}");
                let explored: &[_] = if record_explored { &want.explored } else { &[] };
                assert_eq!(got.explored, explored, "{at}");
                assert!(got.scored <= got.evaluations, "{at}");
                if record_explored {
                    assert_eq!(
                        got.scored, got.evaluations,
                        "{at}: recording scores every candidate"
                    );
                } else if width == 0 {
                    judged += got.evaluations;
                    scored += got.scored;
                }
            }
        }
    }
    (judged, scored)
}

/// How a table's cells are drawn.
#[derive(Clone, Copy, Debug)]
enum Cells {
    /// BIPS in `0.05..4`, Watts in `1..4`.
    Spread,
    /// BIPS up to 60 ulps off 1, so exponents lie a rounding or two from
    /// another benefit, and Watts a few ulps off a level per slot.
    UnitTies,
    /// ln BIPS a few ulps off a level per slot, from the floor up, and Watts
    /// a few ulps off a level per slot.
    LevelTies,
    /// ln BIPS up to 20 ulps off a level near 300 per slot, far above any
    /// chip's, where the roundings of the sums dwarf the benefit's slack.
    HugeTies,
    /// BIPS of 1 everywhere and Watts a few ulps off a level per slot, under
    /// a cap every point misses: the Watts sums' roundings decide.
    PowerTies,
    /// BIPS from `{0.5, 1, 2}` and Watts from `{1, 2, 3}`: many exact ties.
    ExactTies,
    /// `Spread` with a third of the BIPS at or below the `1e-9` floor.
    Floor,
}

const KINDS: [Cells; 7] = [
    Cells::Spread,
    Cells::UnitTies,
    Cells::LevelTies,
    Cells::HugeTies,
    Cells::PowerTies,
    Cells::ExactTies,
    Cells::Floor,
];

/// A slot-major `(BIPS rows, Watts rows)` pair of `slots × choices` cells.
fn cells(
    rng: &mut StdRng,
    kind: Cells,
    slots: usize,
    choices: usize,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let ulps = |x: f64, k: i64| f64::from_bits((x.to_bits() as i64 + k) as u64);
    let few = |rng: &mut StdRng, k: usize| rng.random_range(0..2 * k + 1) as i64 - k as i64;
    let mut bips = Vec::with_capacity(slots);
    let mut watts = Vec::with_capacity(slots);
    for _ in 0..slots {
        let ln_level = rng.random_range(-20.7..1.4);
        let w0 = rng.random_range(1.0..4.0);
        let (b, w): (Vec<f64>, Vec<f64>) = (0..choices)
            .map(|_| match kind {
                Cells::Spread => (rng.random_range(0.05..4.0), rng.random_range(1.0..4.0)),
                Cells::UnitTies => (ulps(1.0, few(rng, 60)), ulps(w0, few(rng, 3))),
                Cells::LevelTies => (ulps(ln_level, few(rng, 3)).exp(), ulps(w0, few(rng, 3))),
                Cells::HugeTies => (
                    ulps(ln_level + 300.0, few(rng, 20)).exp(),
                    ulps(w0, few(rng, 3)),
                ),
                Cells::PowerTies => (1.0, ulps(w0, few(rng, 3))),
                Cells::ExactTies => (
                    [0.5, 1.0, 2.0][rng.random_range(0..3)],
                    [1.0, 2.0, 3.0][rng.random_range(0..3)],
                ),
                Cells::Floor => {
                    let b = [0.0, 1e-12, rng.random_range(0.05..4.0)][rng.random_range(0..3)];
                    (b, rng.random_range(1.0..4.0))
                }
            })
            .unzip();
        bips.push(b);
        watts.push(w);
    }
    (bips, watts)
}

/// The runtime's way per configuration: ½, 1, 2 and 4 ways in turn.
fn runtime_ways(choices: usize) -> Vec<f64> {
    (0..choices).map(|c| [0.5, 1.0, 2.0, 4.0][c % 4]).collect()
}

/// A 108-choice table of `kind` beside the LC tenants' 49.3 W on 4 ways,
/// under a cap that binds (that every point misses, for `PowerTies`), with
/// a binding way budget when `tight_ways`, and `weight` per excess Watt and
/// way.
fn runtime_table(
    rng: &mut StdRng,
    kind: Cells,
    slots: usize,
    tight_ways: bool,
    weight: f64,
) -> PenaltyTable {
    let (bips, watts) = cells(rng, kind, slots, 108);
    let base = (49.3, 4.0);
    let cap = binding_cap(base.0, &watts)
        - if matches!(kind, Cells::PowerTies) {
            1.0
        } else {
            0.0
        };
    let max_ways = if tight_ways {
        base.1 + slots as f64
    } else {
        32.0
    };
    let mut table = PenaltyTable::new(
        bips.iter().zip(&watts),
        runtime_ways(108),
        base,
        (cap, max_ways),
    );
    (table.penalty_power, table.penalty_cache) = (weight, weight);
    table
}

/// The mean chip power of a uniformly random point: a cap there binds on
/// about half the points.
fn binding_cap(base_watts: f64, watts: &[Vec<f64>]) -> f64 {
    base_watts
        + watts
            .iter()
            .map(|row| row.iter().sum::<f64>() / row.len() as f64)
            .sum::<f64>()
}

/// The replay scores every candidate the drawing search would accept, to
/// the bit, with recording off (the bound at work) and on (every candidate
/// scored): 1–16 slots × 108 choices under a binding cap, half of them
/// under a binding way budget, over every kind of cells, with penalty
/// weights 0, 2 and 1e6; Flicker's
/// unpartitioned 5 × 27 (∞ ways); and two closures, which offer no bound (a
/// 1-dimension space, and a 4 × 3 one at radius 8 that replays moves from
/// the fallback list). Inline, and for every fourth slot count and
/// Flicker's shape on pools of width 1, 2 and 8.
#[test]
fn the_bounded_replay_matches_the_drawing_search_to_the_bit() {
    let pools: Vec<WorkerPool> = [1, 2, 8].into_iter().map(WorkerPool::new).collect();
    let fig6 = ParallelDdsParams::default();
    let mut rng = StdRng::seed_from_u64(0xB0_07D);
    let (mut judged, mut scored) = (0, 0);
    for slots in 1..=16 {
        for (k, kind) in KINDS.into_iter().enumerate() {
            let weight = [0.0, 2.0, 1e6][(slots + k) % 3];
            let table = runtime_table(&mut rng, kind, slots, (slots + k) % 2 == 0, weight);
            let shape = format!("{slots} × 108, {kind:?} cells, weight {weight}");
            let pools = if slots % 4 == 0 { &pools[..] } else { &[] };
            let (j, s) = check(
                &SearchSpace::new(slots, 108),
                &table,
                &fig6,
                0..2,
                pools,
                &shape,
            );
            judged += j;
            scored += s;
        }
    }
    for kind in [Cells::Spread, Cells::LevelTies, Cells::Floor] {
        let (bips, watts) = cells(&mut rng, kind, 5, 27);
        let table = PenaltyTable::new(
            bips.iter().zip(&watts),
            vec![0.0; 27],
            (48.0, 0.0),
            (binding_cap(48.0, &watts), f64::INFINITY),
        );
        let shape = format!("Flicker's 5 × 27, {kind:?} cells");
        let (j, s) = check(
            &SearchSpace::new(5, 27),
            &table,
            &fig6,
            0..4,
            &pools,
            &shape,
        );
        judged += j;
        scored += s;
    }
    assert!(
        scored * 2 < judged,
        "the bound rejected only {} of {judged} candidates",
        judged - scored
    );

    let separable =
        |target: f64| move |x: &[usize]| -x.iter().map(|&v| (v as f64 - target).abs()).sum::<f64>();
    let (j, s) = check(
        &SearchSpace::new(1, 108),
        &separable(50.0),
        &fig6,
        0..8,
        &pools,
        "1 dim",
    );
    assert_eq!(s, j, "a closure offers no bound");
    let wide = ParallelDdsParams {
        r_values: vec![8.0],
        ..fig6.clone()
    };
    check(
        &SearchSpace::new(4, 3),
        &separable(1.0),
        &wide,
        0..8,
        &pools,
        "4 × 3, r = 8",
    );
}

/// The same comparison, inline, on 96 more 16-slot near-tie tables: 24
/// each of `UnitTies`, `LevelTies` and `HugeTies` at weight 0, where the
/// benefit's slack and the ln BIPS margin decide, and of `PowerTies` at
/// weights 2 and 1e6, where the Watts margin decides. Each loosened rule —
/// no slack, no ln BIPS margin, no Watts margin — loses a winner here.
#[test]
fn near_ties_cost_the_bounded_replay_no_winner() {
    let fig6 = ParallelDdsParams::default();
    let mut rng = StdRng::seed_from_u64(0x7_1E5);
    for t in 0..96 {
        let (kind, weight) = [
            (Cells::UnitTies, 0.0),
            (Cells::LevelTies, 0.0),
            (Cells::HugeTies, 0.0),
            (Cells::PowerTies, [2.0, 1e6][t / 4 % 2]),
        ][t % 4];
        let table = runtime_table(&mut rng, kind, 16, t % 8 < 4, weight);
        let shape = format!("near-tie table {t}, {kind:?} cells, weight {weight}");
        check(
            &SearchSpace::new(16, 108),
            &table,
            &fig6,
            t as u64..t as u64 + 1,
            &[],
            &shape,
        );
    }
}

/// On tables of the runtime's shape — 16 batch slots × 108 configurations
/// beside the LC tenants' Watts and ways, under a cap that binds on about
/// half the points — the bound rejects at least nine in ten candidates, so
/// the search scores exactly at most one in ten. A change that loosens the
/// bound shows here before it shows in the benchmark.
#[test]
fn the_bound_rejects_nine_in_ten_candidates_of_the_runtime_shape() {
    let mut rng = StdRng::seed_from_u64(0x5C0_4ED);
    for table_seed in 0..20 {
        let table = runtime_table(&mut rng, Cells::Spread, 16, false, 2.0);
        let params = ParallelDdsParams {
            seed: table_seed,
            ..ParallelDdsParams::default()
        };
        let result = dds::parallel_search(&SearchSpace::new(16, 108), &table, &params);
        assert_eq!(result.evaluations, 3250);
        let rejected = result.evaluations - result.scored;
        assert!(
            rejected * 10 >= result.evaluations * 9,
            "table {table_seed}: the bound rejected {rejected} of {} candidates",
            result.evaluations
        );
    }
}
