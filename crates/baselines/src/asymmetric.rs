//! Oracle-like asymmetric multicore (§VII-C).
//!
//! The chip has two fixed core types — big (equivalent to {6,6,6}) and small
//! (equivalent to {2,2,2}). The paper's oracle ignores migration overheads
//! and each timeslice picks the best number of big/small cores, maps the
//! latency-critical service to big cores (to meet QoS), and places each
//! batch job on a big or small core to maximize throughput under the power
//! budget. The realistic comparison point fixes the split at 50-50.

use simulator::CoreConfig;

use crate::gating::{select_gated, GatingOrder};

/// Places each batch job on a big ({6,6,6}) or a small ({2,2,2}) core, or
/// gates it, for one timeslice. Returns each job's core (`None` = gated).
///
/// `rows[j]` is batch job `j`'s `(bips, watts)` on a big core and on a
/// small one. The latency-critical tenants occupy `lc_cores` big cores and
/// draw `lc_watts`; a gated core draws `gated_watts`. Every big-core count
/// from `lc_cores` to `num_cores` is tried — or only `big_cores` (at least
/// `lc_cores`), the realistic fixed split, when the chip has that many.
/// Per count, batch jobs start on small cores, the spare big cores go
/// greedily by `Δln(BIPS)/ΔW`, and if the placement busts `budget`, batch
/// cores are gated in descending power order (the paper's best gating
/// policy) by [`select_gated`]. The count whose plan fits `budget` with the
/// most total batch BIPS wins; when none fits, the lowest-power plan does.
///
/// # Panics
///
/// Panics if the chip has fewer than `lc_cores + rows.len()` cores.
pub fn place(
    rows: &[[(f64, f64); 2]],
    num_cores: usize,
    lc_cores: usize,
    lc_watts: f64,
    budget: f64,
    gated_watts: f64,
    big_cores: Option<usize>,
) -> Vec<Option<CoreConfig>> {
    assert!(
        lc_cores + rows.len() <= num_cores,
        "at least one split must be plannable"
    );
    let mut upgrades: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, [(bips_big, watts_big), (bips_small, watts_small)])| {
            let gain = (bips_big.max(1e-12).ln() - bips_small.max(1e-12).ln())
                / (watts_big - watts_small).max(1e-9);
            (i, gain)
        })
        .collect();
    upgrades.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let splits = match big_cores.map(|n| n.max(lc_cores)) {
        Some(n) if n <= num_cores => n..=n,
        _ => lc_cores..=num_cores,
    };
    // (total BIPS, plan) of the best fitting count; (power, plan) of the
    // lowest-power one.
    let mut best: Option<(f64, Vec<Option<CoreConfig>>)> = None;
    let mut fallback: Option<(f64, Vec<Option<CoreConfig>>)> = None;
    for big in splits {
        let mut on_big = vec![false; rows.len()];
        for &(i, _) in upgrades.iter().take(big - lc_cores) {
            on_big[i] = true;
        }
        let per_job: Vec<(f64, f64)> = rows
            .iter()
            .zip(&on_big)
            .map(|(row, &b)| row[usize::from(!b)])
            .collect();
        let gated = select_gated(
            &per_job,
            lc_watts,
            budget,
            gated_watts,
            GatingOrder::DescendingPower,
        );
        let mut power = lc_watts;
        let mut total_bips = 0.0;
        for (&(bips, watts), &g) in per_job.iter().zip(&gated) {
            if g {
                power += gated_watts;
            } else {
                power += watts;
                total_bips += bips;
            }
        }
        let plan: Vec<Option<CoreConfig>> = on_big
            .iter()
            .zip(&gated)
            .map(|(&b, &g)| {
                (!g).then(|| {
                    if b {
                        CoreConfig::widest()
                    } else {
                        CoreConfig::narrowest()
                    }
                })
            })
            .collect();
        if power <= budget && best.as_ref().is_none_or(|(t, _)| total_bips > *t) {
            best = Some((total_bips, plan.clone()));
        }
        if fallback.as_ref().is_none_or(|(p, _)| power < *p) {
            fallback = Some((power, plan));
        }
    }
    best.or(fallback)
        .map(|(_, plan)| plan)
        .expect("the split range is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: Option<CoreConfig> = Some(CoreConfig::widest());

    /// Four batch jobs beside a 4-core, 16 W LC tenant on an 8-core chip:
    /// `[(bips, watts) big, (bips, watts) small]`.
    const ROWS: [[(f64, f64); 2]; 4] = [
        [(4.0, 5.0), (1.0, 1.5)],
        [(3.0, 4.5), (1.5, 1.2)],
        [(2.0, 4.0), (1.8, 1.0)],
        [(3.5, 5.5), (0.8, 1.4)],
    ];

    fn plan(budget: f64, big_cores: Option<usize>) -> Vec<Option<CoreConfig>> {
        place(&ROWS, 8, 4, 16.0, budget, 0.05, big_cores)
    }

    /// The plan's chip power and total batch BIPS.
    fn power_and_bips(plan: &[Option<CoreConfig>]) -> (f64, f64) {
        plan.iter()
            .zip(&ROWS)
            .fold((16.0, 0.0), |(p, t), (core, row)| match core {
                None => (p + 0.05, t),
                Some(c) => {
                    let (bips, watts) = row[usize::from(*c != CoreConfig::widest())];
                    (p + watts, t + bips)
                }
            })
    }

    #[test]
    fn generous_budget_puts_everyone_on_big_cores() {
        assert!(plan(100.0, None).iter().all(|&c| c == BIG));
    }

    #[test]
    fn tight_budget_moves_jobs_to_small_cores() {
        // LC alone needs 16 W; budget 22 leaves ~6 W for 4 batch jobs → all
        // small (≈5.1 W) fits, any big upgrade does not.
        let p = plan(22.0, None);
        assert!(power_and_bips(&p).0 <= 22.0);
        assert!(p.iter().filter(|&&c| c == BIG).count() <= 1);
        assert!(p.iter().all(Option::is_some), "no gating needed: {p:?}");
    }

    #[test]
    fn brutal_budget_gates_batch_cores() {
        // 18 W: LC (16 W) + 4 small jobs (5.1 W) still over → gating.
        let p = plan(18.0, None);
        assert!(power_and_bips(&p).0 <= 18.0, "{p:?}");
        assert!(p.iter().any(Option::is_none));
    }

    #[test]
    fn upgrades_prefer_big_benefit_jobs() {
        // Exactly one spare big core: job 3 has the biggest log gain
        // (0.8 → 3.5 ≈ 1.47 nats / 4.1 W ≈ 0.36) vs job 0
        // (1.0 → 4.0 ≈ 1.39 / 3.5 ≈ 0.40) — job 0 wins per Watt.
        let p = plan(100.0, Some(5));
        assert_eq!(p.iter().filter(|&&c| c == BIG).count(), 1);
        assert_eq!(p[0], BIG, "expected job 0 upgraded: {p:?}");
    }

    #[test]
    fn a_fixed_split_holds_the_lc_cores_and_fits_the_chip() {
        // Fewer big cores than the LC tenant holds: the LC cores are the
        // big ones, so every batch job runs small.
        assert!(plan(50.0, Some(3))
            .iter()
            .all(|&c| c == Some(CoreConfig::narrowest())));
        // More than the chip has: the oracle's search.
        assert_eq!(plan(50.0, Some(9)), plan(50.0, None));
    }

    #[test]
    fn fifty_fifty_split_is_plannable() {
        // 4 big cores all used by LC: every batch job on small cores.
        assert!(plan(100.0, Some(4))
            .iter()
            .all(|&c| c == Some(CoreConfig::narrowest())));
    }

    #[test]
    fn oracle_beats_or_matches_fixed_splits_when_feasible() {
        for budget in [20.0, 25.0, 30.0, 40.0] {
            let (oracle_watts, oracle_bips) = power_and_bips(&plan(budget, None));
            let (fixed_watts, fixed_bips) = power_and_bips(&plan(budget, Some(4)));
            if fixed_watts <= budget && oracle_watts <= budget {
                assert!(
                    oracle_bips >= fixed_bips - 1e-9,
                    "oracle must dominate 50-50 at budget {budget}"
                );
            }
        }
    }
}
