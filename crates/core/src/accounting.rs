//! Plan-level power accounting shared by the CuttleSys pipeline stages and
//! the baseline managers.
//!
//! Two pieces of arithmetic recur across the runtime and the baselines:
//! §VI-B's last resort as the batch actions of the all-narrowest plan
//! (gating through `baselines::gating`'s one greedy victim loop), and
//! netting a profiling frame's energy out of the slice budget so the steady
//! state is planned against what is actually left. They live here so every
//! manager agrees on the arithmetic. A plan's predicted chip power is not
//! summed here: the quantum's `dds::PenaltyTable` answers that.

use baselines::gating::{gate_in_order, GatingOrder};
use simulator::JobConfig;

use crate::types::BatchAction;

/// §VI-B's last resort, shared by the repair stage and the safe-mode plan:
/// every job of `active` (global batch indices; `narrowest_watts[slot]` is
/// what job `active[slot]` is predicted to draw at the narrowest
/// configuration) runs narrowest on top of `base_watts`, and jobs are gated
/// in descending power — each drawing `gated_watts` instead — until the
/// predicted total fits `cap_watts`; every other of the `num_batch` jobs is
/// gated.
pub fn narrowest_then_gate(
    num_batch: usize,
    active: &[usize],
    narrowest_watts: &[f64],
    base_watts: f64,
    cap_watts: f64,
    gated_watts: f64,
) -> Vec<BatchAction> {
    // Descending power orders on Watts alone; the BIPS slot goes unread.
    let cores: Vec<(f64, f64)> = narrowest_watts.iter().map(|&w| (0.0, w)).collect();
    let gated = gate_in_order(
        &cores,
        base_watts,
        cap_watts,
        gated_watts,
        GatingOrder::DescendingPower,
    );
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
