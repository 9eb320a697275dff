//! Plan-level power accounting shared by the CuttleSys pipeline stages and
//! the baseline managers.
//!
//! Two pieces of arithmetic recur across the runtime and the gating/Flicker
//! baselines: gating jobs in descending power until a budget is met (§VI-B's
//! last resort, as a mask and as the batch actions of the all-narrowest
//! plan), and netting a profiling frame's energy out of the slice budget so
//! the steady state is planned against what is actually left. They live here
//! so every manager agrees on the arithmetic. A plan's predicted chip power
//! is not summed here: the quantum's `dds::PenaltyTable` answers that.

use simulator::JobConfig;

use crate::types::BatchAction;

/// §VI-B's last resort, shared by CuttleSys and Flicker: starting from
/// every batch job running (predicted per-core power `job_watts[j]`) on top
/// of `base_watts`, gate jobs in descending power — replacing each gated
/// job's Watts with `gated_watts` — until the predicted total fits
/// `cap_watts`. Returns the gating mask (`true` = gated).
pub fn gate_descending_power(
    job_watts: &[f64],
    base_watts: f64,
    cap_watts: f64,
    gated_watts: f64,
) -> Vec<bool> {
    let mut gated = vec![false; job_watts.len()];
    let mut power = base_watts + job_watts.iter().sum::<f64>();
    let mut order: Vec<usize> = (0..job_watts.len()).collect();
    order.sort_by(|&a, &b| job_watts[b].total_cmp(&job_watts[a]));
    for j in order {
        if power <= cap_watts {
            break;
        }
        power -= job_watts[j] - gated_watts;
        gated[j] = true;
    }
    gated
}

/// The §VI-B plan as batch actions: every job of `active` (global batch
/// indices; `narrowest_watts[slot]` is what job `active[slot]` is predicted
/// to draw at the narrowest configuration) runs narrowest unless
/// [`gate_descending_power`] gates it; every other of the `num_batch` jobs is
/// gated. The repair stage and the safe-mode plan both end here.
pub fn narrowest_then_gate(
    num_batch: usize,
    active: &[usize],
    narrowest_watts: &[f64],
    base_watts: f64,
    cap_watts: f64,
    gated_watts: f64,
) -> Vec<BatchAction> {
    let gated = gate_descending_power(narrowest_watts, base_watts, cap_watts, gated_watts);
    let mut actions = vec![BatchAction::Gated; num_batch];
    for (&j, &g) in active.iter().zip(&gated) {
        if !g {
            actions[j] = BatchAction::Run(JobConfig::profiling_low());
        }
    }
    actions
}

/// The steady-state power budget left after a profiling prefix.
///
/// A cap constrains the *slice-average* power. A manager that spends
/// `spent_ms` of the `slice_ms` quantum profiling at `spent_watts` must
/// plan its steady state against the remaining energy:
///
/// ```text
/// (cap × slice − spent_watts × spent_ms) / (slice − spent_ms)
/// ```
///
/// Without this correction a high-power profiling frame (e.g. the gating
/// baseline's 1 ms all-widest probe) silently tips the slice average over
/// the cap even when the steady state itself fits. Degenerate inputs
/// (no time left, or a profile so hungry the remainder is negative) clamp
/// to zero.
pub fn steady_state_budget(cap_watts: f64, slice_ms: f64, spent_ms: f64, spent_watts: f64) -> f64 {
    let remaining_ms = slice_ms - spent_ms;
    if remaining_ms <= 0.0 {
        return 0.0;
    }
    ((cap_watts * slice_ms - spent_watts * spent_ms) / remaining_ms).max(0.0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn gating_stops_exactly_when_under_cap() {
        // base 10 W + jobs 5+4+3+2 W = 24 W against a 17 W cap with 0.5 W
        // gated cores: gating the 5 W job leaves 19.5, gating the 4 W job
        // leaves 16 — under the cap, so exactly two jobs gate.
        let gated = gate_descending_power(&[5.0, 4.0, 3.0, 2.0], 10.0, 17.0, 0.5);
        assert_eq!(gated, vec![true, true, false, false]);
    }

    #[test]
    fn gating_is_a_no_op_when_already_under() {
        let gated = gate_descending_power(&[5.0, 4.0], 1.0, 20.0, 0.5);
        assert_eq!(gated, vec![false, false]);
    }

    #[test]
    fn gating_exhausts_all_jobs_at_impossible_caps() {
        let gated = gate_descending_power(&[5.0, 4.0, 3.0], 100.0, 1.0, 0.5);
        assert_eq!(gated, vec![true, true, true]);
    }

    #[test]
    fn budget_nets_out_profiling_energy() {
        // 100 W cap over 100 ms with 1 ms spent at 150 W: the steady state
        // may use (10000 − 150) / 99 ≈ 99.49 W.
        let b = steady_state_budget(100.0, 100.0, 1.0, 150.0);
        assert!((b - (100.0 * 100.0 - 150.0) / 99.0).abs() < 1e-12);
        // A frugal profile frame leaves more than the cap.
        assert!(steady_state_budget(100.0, 100.0, 1.0, 50.0) > 100.0);
        // No profiling: the budget is the cap.
        assert!((steady_state_budget(100.0, 100.0, 0.0, 0.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn budget_clamps_degenerate_inputs() {
        assert_eq!(steady_state_budget(100.0, 100.0, 100.0, 150.0), 0.0);
        assert_eq!(steady_state_budget(1.0, 100.0, 99.0, 200.0), 0.0);
    }
}
