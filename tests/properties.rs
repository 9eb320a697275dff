//! Property-based tests over the core data structures and invariants,
//! spanning the simulator, queueing, search, and inference crates.
//!
//! The harness is a deterministic seeded-input loop (crates.io — and hence
//! `proptest` — is unavailable in the build container): each property runs
//! against `CASES` pseudo-random inputs from a fixed seed, so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use recsys::{RatingMatrix, Reconstructor, ValueTransform};
use simulator::power::CoreKind;
use simulator::{
    AppProfile, CacheAlloc, Chip, CoreConfig, JobConfig, PerfModel, PowerModel, SystemParams,
    NUM_JOB_CONFIGS,
};
use workloads::queueing::MmcQueue;

/// Cases per property; inputs are drawn from a per-property fixed seed.
const CASES: usize = 128;

fn rng_for(property: &str) -> StdRng {
    // Stable per-property stream: hash the name into the master seed.
    let tag = property
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    StdRng::seed_from_u64(0xC0FFEE ^ tag)
}

/// A valid application profile spanning the calibrated space.
fn arb_profile(rng: &mut StdRng) -> AppProfile {
    AppProfile {
        ilp: rng.random_range(0.5..5.5),
        fe_sensitivity: rng.random_range(0.0..1.0),
        be_sensitivity: rng.random_range(0.0..1.0),
        ls_sensitivity: rng.random_range(0.0..1.0),
        mem_fraction: rng.random_range(0.05..0.6),
        l1_miss_rate: rng.random_range(0.005..0.5),
        llc_miss_floor: rng.random_range(0.0..0.9),
        llc_working_set_ways: rng.random_range(0.2..12.0),
        mlp: rng.random_range(1.0..9.0),
        activity: rng.random_range(0.4..1.4),
    }
}

#[test]
fn job_config_index_roundtrips() {
    for idx in 0..NUM_JOB_CONFIGS {
        let jc = JobConfig::from_index(idx);
        assert_eq!(jc.index(), idx);
    }
}

#[test]
fn generated_profiles_validate() {
    let mut rng = rng_for("generated_profiles_validate");
    for _ in 0..CASES {
        let profile = arb_profile(&mut rng);
        assert!(
            profile.validate().is_ok(),
            "profile failed validation: {profile:?}"
        );
    }
}

#[test]
fn ipc_is_positive_and_within_structural_caps() {
    let mut rng = rng_for("ipc_is_positive_and_within_structural_caps");
    let perf = PerfModel::new(SystemParams::default());
    for _ in 0..CASES {
        let profile = arb_profile(&mut rng);
        let jc = JobConfig::from_index(rng.random_range(0..NUM_JOB_CONFIGS));
        let contention = rng.random_range(0.0..6.0);
        let ipc = perf.ipc(&profile, jc.core, jc.cache.ways(), contention);
        assert!(ipc > 0.0);
        assert!(ipc <= f64::from(jc.core.fe.lanes()) + 1e-9);
        assert!(ipc <= f64::from(jc.core.be.lanes()) + 1e-9);
    }
}

#[test]
fn widest_config_dominates_every_other() {
    let mut rng = rng_for("widest_config_dominates_every_other");
    let perf = PerfModel::new(SystemParams::default());
    for _ in 0..CASES {
        let profile = arb_profile(&mut rng);
        let jc = JobConfig::from_index(rng.random_range(0..NUM_JOB_CONFIGS));
        let this = perf.ipc(&profile, jc.core, jc.cache.ways(), 0.0);
        let widest = perf.ipc(&profile, CoreConfig::widest(), CacheAlloc::Four.ways(), 0.0);
        assert!(widest >= this - 1e-9, "widest {widest} < {this} at {jc:?}");
    }
}

#[test]
fn power_is_positive_and_increases_with_width() {
    let mut rng = rng_for("power_is_positive_and_increases_with_width");
    let power = PowerModel::new(SystemParams::default(), CoreKind::Reconfigurable);
    for _ in 0..CASES {
        let profile = arb_profile(&mut rng);
        let ipc = rng.random_range(0.0..6.0);
        let narrow = power
            .core_watts(&profile, CoreConfig::narrowest(), ipc)
            .get();
        let wide = power.core_watts(&profile, CoreConfig::widest(), ipc).get();
        assert!(narrow > 0.0);
        assert!(wide > narrow);
    }
}

#[test]
fn contention_never_helps() {
    let mut rng = rng_for("contention_never_helps");
    let perf = PerfModel::new(SystemParams::default());
    for _ in 0..CASES {
        let profile = arb_profile(&mut rng);
        let jc = JobConfig::from_index(rng.random_range(0..NUM_JOB_CONFIGS));
        let (c1, c2) = (rng.random_range(0.0..3.0), rng.random_range(0.0..3.0));
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let ipc_lo = perf.ipc(&profile, jc.core, jc.cache.ways(), lo);
        let ipc_hi = perf.ipc(&profile, jc.core, jc.cache.ways(), hi);
        assert!(ipc_hi <= ipc_lo + 1e-12);
    }
}

#[test]
fn queue_p99_exceeds_median_and_grows_with_load() {
    let mut rng = rng_for("queue_p99_exceeds_median_and_grows_with_load");
    for _ in 0..CASES {
        let servers = rng.random_range(1..32);
        let mu = rng.random_range(0.1..5.0);
        let (rho1, rho2) = (rng.random_range(0.05..0.9), rng.random_range(0.05..0.9));
        let (lo, hi) = if rho1 <= rho2 {
            (rho1, rho2)
        } else {
            (rho2, rho1)
        };
        let k = servers as f64;
        let q_lo = MmcQueue::new(servers, mu, lo * k * mu);
        let q_hi = MmcQueue::new(servers, mu, hi * k * mu);
        assert!(q_hi.p99_ms().get() >= q_lo.p99_ms().get() - 1e-9);
        assert!(q_lo.p99_ms().get() >= q_lo.response_quantile(0.5).get());
    }
}

#[test]
fn frame_power_and_instructions_are_consistent() {
    let mut rng = rng_for("frame_power_and_instructions_are_consistent");
    let chip = Chip::new(SystemParams::default(), CoreKind::Reconfigurable);
    // Frame simulation is the hot path; a reduced case count keeps the test
    // under a second without losing input diversity.
    for _ in 0..CASES / 4 {
        let profile = arb_profile(&mut rng);
        let jc = JobConfig::from_index(rng.random_range(0..NUM_JOB_CONFIGS));
        let ms = rng.random_range(0.5..100.0);
        let cores = vec![simulator::CoreState::Active {
            job: simulator::JobId(0),
            config: jc.core,
        }];
        let partition: simulator::LlcPartition =
            [(simulator::JobId(0), jc.cache)].into_iter().collect();
        let r = chip.simulate_frame(&cores, &[profile], &partition, ms);
        assert!(r.chip_watts.get() > 0.0);
        assert!(r.total_instructions() > 0.0);
        // Instructions scale linearly with duration.
        let r2 = chip.simulate_frame(&cores, &[profile], &partition, ms * 2.0);
        let ratio = r2.total_instructions() / r.total_instructions();
        assert!((ratio - 2.0).abs() < 1e-6);
    }
}

#[test]
fn completion_preserves_observations_and_stays_finite() {
    let mut rng = rng_for("completion_preserves_observations_and_stays_finite");
    for _ in 0..CASES / 8 {
        let seed_vals: Vec<f64> = (0..19).map(|_| rng.random_range(0.5..10.0)).collect();
        // 4 dense rows, 2 sparse rows over 4 columns.
        let mut m = RatingMatrix::new(6, 4);
        for (i, v) in seed_vals.iter().take(16).enumerate() {
            m.set(i / 4, i % 4, *v);
        }
        m.set(4, 0, seed_vals[16]);
        m.set(4, 3, seed_vals[17]);
        m.set(5, 1, seed_vals[18]);
        let out = Reconstructor::default().complete(&m, ValueTransform::Log);
        for (r, c, v) in m.observed() {
            assert_eq!(out.get(r, c), v);
        }
        for r in 0..6 {
            for c in 0..4 {
                assert!(out.get(r, c).is_finite());
                assert!(out.get(r, c) > 0.0);
            }
        }
    }
}

#[test]
fn dds_results_are_always_in_bounds() {
    let mut rng = rng_for("dds_results_are_always_in_bounds");
    for _ in 0..CASES / 4 {
        let dims = rng.random_range(1..20);
        let choices = rng.random_range(1..200);
        let seed = rng.random_range(0..1000) as u64;
        let space = dds::SearchSpace::new(dims, choices);
        let objective = move |x: &[usize]| -(x.iter().sum::<usize>() as f64);
        let params = dds::serial::DdsParams {
            max_iters: 30,
            initial_points: 5,
            seed,
            ..Default::default()
        };
        let result = dds::serial::search(&space, &objective, &params);
        assert!(space.contains(&result.best_point));
    }
}

#[test]
fn reflection_maps_any_value_into_range() {
    let mut rng = rng_for("reflection_maps_any_value_into_range");
    for _ in 0..CASES {
        let choices = rng.random_range(1..500);
        let value = rng.random_range(-1e4..1e4);
        let space = dds::SearchSpace::new(1, choices);
        assert!(
            space.reflect(value) < choices,
            "reflect({value}) out of range"
        );
    }
}

/// Every point parallel DDS returns — or even evaluates — lies in the
/// space, and running the workers on a pool changes nothing.
#[test]
fn parallel_dds_stays_in_bounds_pooled_and_unpooled() {
    let mut rng = rng_for("parallel_dds_stays_in_bounds_pooled_and_unpooled");
    let pool = util::WorkerPool::new(2);
    for _ in 0..CASES / 16 {
        let dims = rng.random_range(1..8);
        let choices = rng.random_range(1..30);
        let space = dds::SearchSpace::new(dims, choices);
        let objective = move |x: &[usize]| x.iter().map(|&c| (c as f64).sin()).sum::<f64>();
        let params = dds::ParallelDdsParams {
            max_iters: 10,
            initial_points: 4,
            seed: rng.random_range(0..1000) as u64,
            record_explored: true,
            ..Default::default()
        };
        let inline = dds::parallel_search_in(None, &space, &objective, &params);
        for (point, _) in &inline.explored {
            assert!(space.contains(point), "explored point escaped the space");
        }
        assert!(space.contains(&inline.best_point));
        let pooled = dds::parallel_search_in(Some(&pool), &space, &objective, &params);
        assert_eq!(pooled, inline, "the pool changed the search");
    }
}

/// With an overwhelming penalty weight, DDS must never *prefer* an
/// infeasible plan: the returned point satisfies the power and way-capacity
/// constraints unless no evaluated point was feasible at all.
#[test]
fn overwhelming_penalty_never_prefers_an_infeasible_plan() {
    let mut rng = rng_for("overwhelming_penalty_never_prefers_an_infeasible_plan");
    for _ in 0..CASES / 16 {
        let dims = rng.random_range(2..6);
        let choices = rng.random_range(3..12);
        let bips: Vec<Vec<f64>> = (0..dims)
            .map(|_| (0..choices).map(|_| rng.random_range(0.1..4.0)).collect())
            .collect();
        let watts: Vec<Vec<f64>> = (0..dims)
            .map(|_| (0..choices).map(|_| rng.random_range(1.0..10.0)).collect())
            .collect();
        let ways: Vec<f64> = (0..choices).map(|_| rng.random_range(0.5..8.0)).collect();
        // A cap somewhere between all-minimum and all-maximum demand, so
        // feasibility actually bites on most cases.
        let min_watts: f64 = watts
            .iter()
            .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
            .sum();
        let max_watts: f64 = watts
            .iter()
            .map(|row| row.iter().cloned().fold(0.0, f64::max))
            .sum();
        let max_power = rng.random_range(min_watts..max_watts.max(min_watts + 1e-9));
        let max_ways = rng.random_range(2.0..(8.0 * dims as f64));
        let mut objective = dds::PenaltyTable::new(
            bips.iter().zip(&watts),
            ways,
            (0.0, 0.0),
            (max_power, max_ways),
        );
        objective.penalty_power = 1e6;
        objective.penalty_cache = 1e6;
        let space = dds::SearchSpace::new(dims, choices);
        let params = dds::ParallelDdsParams {
            max_iters: 12,
            initial_points: 6,
            seed: rng.random_range(0..1000) as u64,
            record_explored: true,
            ..Default::default()
        };
        let result = dds::parallel_search_in(None, &space, &objective, &params);
        let any_feasible = result
            .explored
            .iter()
            .any(|(point, _)| objective.is_feasible(point));
        assert!(
            objective.is_feasible(&result.best_point) || !any_feasible,
            "returned an infeasible plan while a feasible one was evaluated"
        );
    }
}

/// The circuit breaker is `&mut self` and owned by the deciding thread, so
/// whatever reports to it arrives as some sequence of calls. Over any such
/// sequence it agrees after every call with a reference model of the Closed
/// and Open rules, a burst of failures opens it exactly once, and a close
/// quorum of successes closes it exactly once.
#[test]
fn breaker_ledger_survives_any_order_of_reports() {
    use cuttlesys::faults::{
        CircuitBreaker, BREAKER_CLOSE_AFTER, BREAKER_OPEN_AFTER, BREAKER_PROBE_INTERVAL,
    };

    /// The Closed and Open rules: Closed counts consecutive failures, Open
    /// counts probe successes, the other kind of report restarts the count,
    /// and reaching the quorum flips the state and restarts everything.
    #[derive(Debug, Default)]
    struct Model {
        open: bool,
        count: usize,
        quanta_open: usize,
        opens: usize,
        closes: usize,
    }

    impl Model {
        fn report(&mut self, failed: bool) {
            self.count = if failed != self.open {
                self.count + 1
            } else {
                0
            };
            let quorum = if self.open {
                BREAKER_CLOSE_AFTER
            } else {
                BREAKER_OPEN_AFTER
            };
            if self.count == quorum {
                self.opens += usize::from(!self.open);
                self.closes += usize::from(self.open);
                (self.open, self.count, self.quanta_open) = (!self.open, 0, 0);
            }
        }
    }

    const SUCCESS: usize = 1;
    const FAILURE: usize = 2;

    /// Makes one call (0 begins a quantum) on both, then compares them.
    fn step(b: &mut CircuitBreaker, m: &mut Model, call: usize) {
        match call {
            SUCCESS => {
                b.on_success();
                m.report(false);
            }
            FAILURE => {
                b.on_failure();
                m.report(true);
            }
            _ => {
                b.begin_quantum();
                m.quanta_open += usize::from(m.open);
            }
        }
        let probes = m.open && m.quanta_open.is_multiple_of(BREAKER_PROBE_INTERVAL);
        assert_eq!(
            (b.is_open(), b.opens, b.closes, b.should_probe()),
            (m.open, m.opens, m.closes, probes),
            "{b:?} vs {m:?}"
        );
    }

    let mut rng = rng_for("breaker_ledger_survives_any_order_of_reports");
    for _ in 0..CASES * 16 {
        let (mut b, mut m) = (CircuitBreaker::new(), Model::default());
        for _ in 0..rng.random_range(0..40) {
            step(&mut b, &mut m, rng.random_range(0..3));
        }
        let opens = b.opens + usize::from(!b.is_open());
        for _ in 0..BREAKER_OPEN_AFTER + rng.random_range(0..4) {
            step(&mut b, &mut m, FAILURE);
        }
        assert!(b.is_open(), "{b:?}");
        assert_eq!(b.opens, opens, "re-tripping while open double-counted");
        let closes = b.closes + 1;
        for _ in 0..BREAKER_CLOSE_AFTER + rng.random_range(0..4) {
            step(&mut b, &mut m, SUCCESS);
        }
        assert!(!b.is_open(), "{b:?}");
        assert_eq!(b.closes, closes, "the close is recorded exactly once");
    }
}
