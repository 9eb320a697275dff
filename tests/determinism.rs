//! The one place this workspace is allowed to be nondeterministic.
//!
//! A node's decision quantum runs on the deciding thread alone — the
//! fold-in reconstruction and the DDS search fan out nowhere — so there is
//! no pool width for a [`cuttlesys::types::RunRecord`] to depend on
//! (`tests/end_to_end.rs::runs_are_deterministic_for_a_fixed_seed` holds
//! replay; `dds::parallel`'s and the cluster's own tests hold their pooled
//! forms to the inline reference).
//!
//! The intentional exception is HOGWILD SGD (`hogwild::fit_parallel_in`
//! with more than one worker, on a pool — nothing in the runtime calls it):
//! its lock-free racy updates make the solve scheduling-*dependent*, exactly
//! as in the paper. That nondeterminism is
//! not covered up here — it is documented and bounded: the RMSE spread
//! across repeated racy runs must stay small.

use recsys::{hogwild, RatingMatrix, SgdConfig};
use util::WorkerPool;

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
