//! maxBIPS (Isci et al. \[29\]) — the classic global DVFS power manager.
//!
//! Given each core's throughput/power at every DVFS operating point,
//! maxBIPS picks per-core modes that maximize total BIPS under the chip
//! power budget. The original evaluates all mode combinations; for the
//! ladder sizes that matter a greedy marginal-utility descent (downgrade
//! the core losing the fewest BIPS per Watt saved) reaches the same
//! solutions and scales, and is what we implement.
//!
//! This baseline exists to quantify the paper's motivation: under tight
//! caps on a modern (voltage-floor-limited) process, DVFS alone cannot
//! reach the low-power operating points reconfiguration can.

/// One core's options: `(bips, watts)` at each ladder state, highest
/// frequency first (monotone non-increasing in both).
pub type CoreOptions = Vec<(f64, f64)>;

/// A maxBIPS allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxBipsPlan {
    /// Chosen ladder index per core.
    pub states: Vec<usize>,
    /// Total throughput (BIPS).
    pub total_bips: f64,
    /// Total power (W).
    pub total_watts: f64,
    /// Whether the plan fits the budget (false if even the lowest ladder
    /// states exceed it — DVFS has run out of range).
    pub feasible: bool,
}

/// Runs the greedy maxBIPS allocation.
///
/// `fixed_watts` covers power the allocator cannot touch (e.g. the
/// latency-critical service's cores held at nominal frequency).
///
/// # Panics
///
/// Panics if any core has an empty option list.
pub fn max_bips(cores: &[CoreOptions], fixed_watts: f64, budget: f64) -> MaxBipsPlan {
    for (i, options) in cores.iter().enumerate() {
        assert!(!options.is_empty(), "core {i} has no DVFS operating points");
    }
    let mut states = vec![0usize; cores.len()];
    let mut total_watts = fixed_watts + cores.iter().map(|o| o[0].1).sum::<f64>();
    let mut total_bips: f64 = cores.iter().map(|o| o[0].0).sum();

    while total_watts > budget {
        // Downgrade the core with the smallest BIPS loss per Watt saved.
        let mut best: Option<(usize, f64)> = None;
        for (i, options) in cores.iter().enumerate() {
            let s = states[i];
            if s + 1 >= options.len() {
                continue;
            }
            let d_bips = options[s].0 - options[s + 1].0;
            let d_watts = (options[s].1 - options[s + 1].1).max(1e-9);
            let cost = d_bips / d_watts;
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        let Some((i, _)) = best else {
            // Every core already at the bottom of its ladder.
            return MaxBipsPlan {
                states,
                total_bips,
                total_watts,
                feasible: false,
            };
        };
        let s = states[i];
        total_bips -= cores[i][s].0 - cores[i][s + 1].0;
        total_watts -= cores[i][s].1 - cores[i][s + 1].1;
        states[i] = s + 1;
    }
    MaxBipsPlan {
        states,
        total_bips,
        total_watts,
        feasible: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three ladder states per core: (bips, watts).
    fn cores() -> Vec<CoreOptions> {
        vec![
            vec![(4.0, 5.0), (3.0, 3.5), (2.2, 2.5)], // compute-bound: big loss
            vec![(2.0, 5.0), (1.9, 3.5), (1.7, 2.5)], // memory-bound: tiny loss
        ]
    }

    #[test]
    fn generous_budget_keeps_everything_at_nominal() {
        let plan = max_bips(&cores(), 0.0, 100.0);
        assert_eq!(plan.states, vec![0, 0]);
        assert!(plan.feasible);
        assert_eq!(plan.total_bips, 6.0);
    }

    #[test]
    fn downclocks_the_memory_bound_core_first() {
        // Need to shed 1.5 W: core 1 loses 0.1 BIPS/1.5 W; core 0 loses 1.0.
        let plan = max_bips(&cores(), 0.0, 9.0);
        assert_eq!(
            plan.states,
            vec![0, 1],
            "memory-bound core downclocks first"
        );
        assert!(plan.feasible);
        assert!(plan.total_watts <= 9.0);
    }

    #[test]
    fn exhausted_ladder_reports_infeasible() {
        let plan = max_bips(&cores(), 0.0, 1.0);
        assert!(!plan.feasible);
        assert_eq!(plan.states, vec![2, 2], "everything at the ladder bottom");
    }

    #[test]
    fn fixed_power_reduces_the_available_budget() {
        let with_fixed = max_bips(&cores(), 4.0, 13.0);
        let without = max_bips(&cores(), 0.0, 13.0);
        assert!(with_fixed.total_bips < without.total_bips);
    }

    #[test]
    #[should_panic(expected = "no DVFS operating points")]
    fn empty_options_rejected() {
        let _ = max_bips(&[vec![]], 0.0, 10.0);
    }
}
