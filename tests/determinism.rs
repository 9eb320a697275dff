//! Determinism regression tests for the perf-path machinery.
//!
//! The worker pool and the pooled reconstruction fan-out must be
//! *scheduling-invisible*: the same seed and scenario produce a
//! bit-identical [`RunRecord`] whether the pool is 1, 2, or 8 threads wide,
//! or absent entirely (`pool_threads: 0`: the solves run inline on the
//! deciding thread — the reference the widths are held to). This holds
//! because the fan-out is serial-equivalent by construction: serial SGD per
//! matrix, results written to disjoint slots. (The DDS search always runs
//! inline; `dds::parallel`'s own test holds its pooled form to the same
//! standard.)
//!
//! The one intentional exception is HOGWILD SGD (`hogwild::fit_parallel_in`
//! with more than one worker, on a pool — nothing in the runtime calls it):
//! its lock-free racy updates make the solve scheduling-*dependent*, exactly
//! as in the paper. That nondeterminism is
//! not covered up here — it is documented and bounded: the RMSE spread
//! across repeated racy runs must stay small.

use cuttlesys::runtime::{CuttleSysManager, PerfConfig};
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{RunRecord, Scenario};
use recsys::{hogwild, RatingMatrix, SgdConfig};
use util::WorkerPool;
use workloads::loadgen::LoadPattern;

fn scenario() -> Scenario {
    Scenario {
        cap: LoadPattern::Constant(0.7),
        duration_slices: 5,
        noise: 0.0,
        phases: false,
        ..Scenario::paper_default()
    }
    .with_load(LoadPattern::Constant(0.8))
}

/// One run, with host wall-clock stage times zeroed.
fn run_with(perf: PerfConfig) -> RunRecord {
    let s = scenario();
    let mut manager = CuttleSysManager::for_scenario(&s).with_perf(perf);
    run_scenario(&s, &mut manager).comparable()
}

#[test]
fn run_records_are_bit_identical_across_pool_widths() {
    let reference = run_with(PerfConfig {
        pool_threads: 0,
        ..PerfConfig::default()
    });
    for threads in [1, 2, 8] {
        let pooled = run_with(PerfConfig {
            pool_threads: threads,
            ..PerfConfig::default()
        });
        assert_eq!(
            reference, pooled,
            "pool width {threads} changed a decision output"
        );
    }
}

#[test]
fn warm_started_runs_are_reproducible_at_any_pool_width() {
    // Warm start intentionally differs *from the cold path*; it must still
    // be bit-for-bit reproducible with itself at every pool width, because
    // the warm solves are serial and the fan-out is slot-disjoint.
    let warm = PerfConfig::default().with_warm_start(true);
    let reference = run_with(warm.with_pool_threads(1));
    for threads in [2, 8] {
        let pooled = run_with(warm.with_pool_threads(threads));
        assert_eq!(
            reference, pooled,
            "warm start at pool width {threads} changed a decision output"
        );
    }
}

#[test]
fn hogwild_nondeterminism_is_bounded() {
    // The deliberate exception: a multi-threaded HOGWILD reconstructor is
    // racy and scheduling-dependent. Quantify the damage rather than assert
    // it away: across repeated runs on the same matrix, train RMSE must
    // stay in a narrow band (the paper's "small bounded inaccuracy"). The
    // race needs real threads, so the session gets a pool (none = inline).
    let pool = WorkerPool::new(4);
    let mut m = RatingMatrix::new(12, 20);
    for r in 0..10 {
        for c in 0..20 {
            m.set(r, c, 1.0 + r as f64 * 0.4 + c as f64 * 0.1);
        }
    }
    for (r, c) in [(10, 0), (10, 7), (11, 3), (11, 15)] {
        m.set(r, c, 1.0 + r as f64 * 0.4 + c as f64 * 0.1);
    }
    let rmses: Vec<f64> = (0..5)
        .map(|_| hogwild::fit_parallel_in(Some(&pool), &m, &SgdConfig::default(), 4).train_rmse)
        .collect();
    let lo = rmses.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = rmses.iter().cloned().fold(0.0, f64::max);
    assert!(
        hi.is_finite() && lo > 0.0,
        "degenerate RMSE band: {rmses:?}"
    );
    assert!(
        hi - lo < 0.05,
        "HOGWILD RMSE spread must stay small: {rmses:?}"
    );
    assert!(hi < 0.5, "HOGWILD must still converge: {rmses:?}");
}
