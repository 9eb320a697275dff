//! Oracle-like asymmetric multicore (§VII-C).
//!
//! The chip has two fixed core types — big (equivalent to {6,6,6}) and small
//! (equivalent to {2,2,2}). The paper's oracle ignores migration overheads
//! and each timeslice picks the best number of big/small cores, maps the
//! latency-critical service to big cores (to meet QoS), and places each
//! batch job on a big or small core to maximize throughput under the power
//! budget. The realistic comparison point fixes the split at 50-50.

use crate::gating::{select_gated, GatingOrder};

/// Per-batch-job throughput/power on each core type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreChoice {
    /// Throughput on a big core (BIPS).
    pub bips_big: f64,
    /// Power on a big core (W).
    pub watts_big: f64,
    /// Throughput on a small core (BIPS).
    pub bips_small: f64,
    /// Power on a small core (W).
    pub watts_small: f64,
}

/// Inputs to the asymmetric planner for one timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymmetricInput {
    /// Total cores on the chip.
    pub num_cores: usize,
    /// Cores occupied by latency-critical tenants (always big cores).
    pub lc_cores: usize,
    /// Total power of the latency-critical tenants' cores (W).
    pub lc_watts: f64,
    /// Each batch job's behaviour on the two core types.
    pub batch: Vec<CoreChoice>,
    /// Chip power budget (W).
    pub budget: f64,
    /// Residual power of a gated core (W).
    pub gated_watts: f64,
}

/// A placement decision for one timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymmetricPlan {
    /// Number of big cores on the chip (including the LC cores).
    pub big_cores: usize,
    /// For each batch job: `true` if placed on a big core.
    pub on_big: Vec<bool>,
    /// For each batch job: `true` if its core is gated to meet the budget.
    pub gated: Vec<bool>,
    /// Sum of `ln(BIPS)` over running batch jobs (gmean surrogate).
    pub log_throughput: f64,
    /// Total batch throughput (BIPS) of running jobs.
    pub total_bips: f64,
    /// Chip power of the plan (W).
    pub power: f64,
}

impl AsymmetricPlan {
    fn feasible(&self, budget: f64) -> bool {
        self.power <= budget
    }
}

/// Plans placement for a *given* number of big cores.
///
/// Batch jobs start on small cores; upgrades to spare big cores are granted
/// greedily by `Δln(BIPS)/ΔW`. If even the all-small placement busts the
/// budget, batch cores are gated in descending power order (the paper's best
/// gating policy).
///
/// Returns `None` if the split cannot host the LC service (`big <
/// lc_cores`) or the chip has fewer cores than jobs require.
pub fn plan_with_big_count(input: &AsymmetricInput, big: usize) -> Option<AsymmetricPlan> {
    if big < input.lc_cores || big > input.num_cores {
        return None;
    }
    let batch_cores = input.num_cores - input.lc_cores;
    if input.batch.len() > batch_cores {
        return None;
    }
    let spare_big = big - input.lc_cores;
    let mut on_big = vec![false; input.batch.len()];
    // Greedy upgrades by log-throughput gain per extra Watt.
    let mut candidates: Vec<(usize, f64)> = input
        .batch
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let gain = (c.bips_big.max(1e-12).ln() - c.bips_small.max(1e-12).ln())
                / (c.watts_big - c.watts_small).max(1e-9);
            (i, gain)
        })
        .collect();
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in candidates.iter().take(spare_big) {
        on_big[i] = true;
    }

    let lc_watts = input.lc_watts;
    let per_job: Vec<(f64, f64)> = input
        .batch
        .iter()
        .zip(&on_big)
        .map(|(c, &big)| {
            if big {
                (c.bips_big, c.watts_big)
            } else {
                (c.bips_small, c.watts_small)
            }
        })
        .collect();
    let gated = select_gated(
        &per_job,
        lc_watts,
        input.budget,
        input.gated_watts,
        GatingOrder::DescendingPower,
    );

    let mut power = lc_watts;
    let mut log_tput = 0.0;
    let mut total = 0.0;
    for ((bips, watts), &g) in per_job.iter().zip(&gated) {
        if g {
            power += input.gated_watts;
        } else {
            power += watts;
            log_tput += bips.max(1e-12).ln();
            total += bips;
        }
    }
    Some(AsymmetricPlan {
        big_cores: big,
        on_big,
        gated,
        log_throughput: log_tput,
        total_bips: total,
        power,
    })
}

/// The oracle: evaluates every feasible big/small split and returns the plan
/// maximizing total batch throughput among budget-feasible plans (falling
/// back to the lowest-power plan when nothing is feasible).
pub fn oracle_plan(input: &AsymmetricInput) -> AsymmetricPlan {
    let mut best: Option<AsymmetricPlan> = None;
    let mut fallback: Option<AsymmetricPlan> = None;
    for big in input.lc_cores..=input.num_cores {
        let Some(plan) = plan_with_big_count(input, big) else {
            continue;
        };
        if plan.feasible(input.budget) {
            let better = best.as_ref().is_none_or(|b| plan.total_bips > b.total_bips);
            if better {
                best = Some(plan.clone());
            }
        }
        if fallback.as_ref().is_none_or(|f| plan.power < f.power) {
            fallback = Some(plan);
        }
    }
    best.or(fallback)
        .expect("at least one split must be plannable")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(budget: f64) -> AsymmetricInput {
        AsymmetricInput {
            num_cores: 8,
            lc_cores: 4,
            lc_watts: 16.0,
            batch: vec![
                CoreChoice {
                    bips_big: 4.0,
                    watts_big: 5.0,
                    bips_small: 1.0,
                    watts_small: 1.5,
                },
                CoreChoice {
                    bips_big: 3.0,
                    watts_big: 4.5,
                    bips_small: 1.5,
                    watts_small: 1.2,
                },
                CoreChoice {
                    bips_big: 2.0,
                    watts_big: 4.0,
                    bips_small: 1.8,
                    watts_small: 1.0,
                },
                CoreChoice {
                    bips_big: 3.5,
                    watts_big: 5.5,
                    bips_small: 0.8,
                    watts_small: 1.4,
                },
            ],
            budget,
            gated_watts: 0.05,
        }
    }

    #[test]
    fn generous_budget_puts_everyone_on_big_cores() {
        let plan = oracle_plan(&input(100.0));
        assert_eq!(plan.big_cores, 8);
        assert!(plan.on_big.iter().all(|&b| b));
        assert!(plan.gated.iter().all(|&g| !g));
    }

    #[test]
    fn tight_budget_moves_jobs_to_small_cores() {
        // LC alone needs 16 W; budget 22 leaves ~6 W for 4 batch jobs → all
        // small (≈5.1 W) fits, any big upgrade does not.
        let plan = oracle_plan(&input(22.0));
        assert!(plan.power <= 22.0);
        assert!(plan.on_big.iter().filter(|&&b| b).count() <= 1);
        assert!(plan.gated.iter().all(|&g| !g), "no gating needed: {plan:?}");
    }

    #[test]
    fn brutal_budget_gates_batch_cores() {
        // 18 W: LC (16 W) + 4 small jobs (5.1 W) still over → gating.
        let plan = oracle_plan(&input(18.0));
        assert!(plan.power <= 18.0, "power {}", plan.power);
        assert!(plan.gated.iter().any(|&g| g));
    }

    #[test]
    fn upgrades_prefer_big_benefit_jobs() {
        // Exactly one spare big core: job 3 has the biggest log gain
        // (0.8 → 3.5 ≈ 1.47 nats / 4.1 W ≈ 0.36) vs job 0
        // (1.0 → 4.0 ≈ 1.39 / 3.5 ≈ 0.40) — job 0 wins per Watt.
        let plan = plan_with_big_count(&input(100.0), 5).unwrap();
        assert_eq!(plan.on_big.iter().filter(|&&b| b).count(), 1);
        assert!(plan.on_big[0], "expected job 0 upgraded: {plan:?}");
    }

    #[test]
    fn split_smaller_than_lc_is_rejected() {
        assert!(plan_with_big_count(&input(50.0), 3).is_none());
        assert!(plan_with_big_count(&input(50.0), 9).is_none());
    }

    #[test]
    fn fifty_fifty_split_is_plannable() {
        let plan = plan_with_big_count(&input(100.0), 4).unwrap();
        // 4 big cores all used by LC: every batch job on small cores.
        assert!(plan.on_big.iter().all(|&b| !b));
    }

    #[test]
    fn oracle_beats_or_matches_fixed_splits_when_feasible() {
        for budget in [20.0, 25.0, 30.0, 40.0] {
            let oracle = oracle_plan(&input(budget));
            if let Some(fixed) = plan_with_big_count(&input(budget), 4) {
                if fixed.power <= budget && oracle.power <= budget {
                    assert!(
                        oracle.total_bips >= fixed.total_bips - 1e-9,
                        "oracle must dominate 50-50 at budget {budget}"
                    );
                }
            }
        }
    }
}
