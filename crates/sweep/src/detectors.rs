//! The detector layer: reducing hundreds of runs to a pass/fail table.
//!
//! Each detector is a pure function over the per-run metric series —
//! no clock, no RNG, no I/O — so the verdict a sweep reaches is as
//! deterministic as the runs themselves. A detector *trips* when its
//! statistic crosses its threshold constant in any run of a cell;
//! the report then aggregates trips per cell and fleet-wide, and the
//! CLI exits nonzero when anything tripped.

use util::json::JsonValue;

/// Detector names, sorted: the order of the summary's trip counts.
pub const DETECTOR_NAMES: &[&str] = &[
    "degraded_residency",
    "displaced_persistence",
    "qos_violation_streak",
    "safe_mode_residency",
    "tenant_loss",
    "throughput_cliff",
];

// Trip thresholds. Counts trip at ≥ threshold; residencies and the cliff
// are fractions in `[0, 1]` ("trip at ≥ fraction of quanta" / "trip when
// throughput drops by ≥ fraction between adjacent quanta").

/// Longest run of consecutive QoS-violating quanta tolerated before the
/// streak detector trips.
pub const QOS_VIOLATION_STREAK: usize = 3;
/// Fraction of quanta spent in safe mode that trips the residency detector.
pub const SAFE_MODE_RESIDENCY: f64 = 0.25;
/// Fraction of quanta spent anywhere on the degradation ladder that trips
/// the residency detector.
pub const DEGRADED_RESIDENCY: f64 = 0.75;
/// Relative throughput drop between adjacent quanta that counts as a cliff.
pub const THROUGHPUT_CLIFF: f64 = 0.6;
/// Consecutive quanta a displaced tenant may wait for re-placement before
/// the persistence detector trips (cluster only).
pub const DISPLACED_PERSISTENCE: usize = 3;
/// Tenants lost outright (crashed with their node, never re-placed)
/// tolerated per run (cluster only).
pub const TENANT_LOSS: usize = 0;

/// Longest run of consecutive `true`s in a boolean series.
///
/// Monotone: appending to the series never decreases the result, and
/// the result over a prefix never exceeds the result over the whole.
pub fn max_true_streak(series: &[bool]) -> usize {
    let mut best = 0;
    let mut cur = 0;
    for &v in series {
        if v {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 0;
        }
    }
    best
}

/// Largest relative drop between adjacent values of a throughput
/// series: `max((prev - next) / prev)` over positive `prev`, clamped
/// at 0. A constant series — any constant, including all-zero — always
/// yields exactly `0.0`.
pub fn max_adjacent_drop(series: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for pair in series.windows(2) {
        let (prev, next) = (pair[0], pair[1]);
        if prev > 0.0 {
            worst = worst.max((prev - next) / prev);
        }
    }
    worst
}

/// Fraction of `total` quanta spent in some state; 0 when `total` is 0.
pub fn residency(count: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        count as f64 / total as f64
    }
}

/// One detector's verdict over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Detector name (one of [`DETECTOR_NAMES`], or `"run_error"`).
    pub detector: &'static str,
    /// The observed statistic.
    pub value: f64,
    /// The threshold it was compared against.
    pub threshold: f64,
    /// Whether the detector tripped.
    pub tripped: bool,
}

impl Finding {
    /// The finding as a JSON object for the summary.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "detector".to_string(),
                JsonValue::Str(self.detector.to_string()),
            ),
            ("value".to_string(), JsonValue::Num(self.value)),
            ("threshold".to_string(), JsonValue::Num(self.threshold)),
            ("tripped".to_string(), JsonValue::Bool(self.tripped)),
        ])
    }
}

/// The metric series one run exposes to the detectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSeries {
    /// Per-quantum "did any LC tenant violate QoS this quantum".
    pub qos_violated: Vec<bool>,
    /// Quanta spent in safe mode.
    pub safe_mode_quanta: usize,
    /// Quanta spent anywhere on the degradation ladder.
    pub degraded_quanta: usize,
    /// Per-quantum batch throughput (instructions; fleet-summed for
    /// cluster runs, with crashed nodes contributing zero).
    pub throughput: Vec<f64>,
    /// Per-quantum count of displaced-but-unplaced tenants (cluster
    /// only; empty for single-node runs).
    pub displaced: Vec<usize>,
    /// Tenants lost outright by the end of the run (cluster only).
    pub tenants_lost: usize,
    /// Total quanta the run executed.
    pub quanta: usize,
    /// A run that panicked or failed to produce a record; always trips.
    pub error: Option<String>,
}

/// Evaluates every detector against one run's series.
///
/// Single-node runs get the four node-level detectors; the two fleet
/// detectors are appended only when the run carried fleet state (a
/// non-empty `displaced` series or a nonzero loss count), so
/// single-node summaries stay free of vacuous cluster rows. A run
/// `error` adds an always-tripped `run_error` finding.
pub fn evaluate(series: &RunSeries) -> Vec<Finding> {
    let mut findings = Vec::new();
    let streak = max_true_streak(&series.qos_violated);
    findings.push(Finding {
        detector: "qos_violation_streak",
        value: streak as f64,
        threshold: QOS_VIOLATION_STREAK as f64,
        tripped: streak >= QOS_VIOLATION_STREAK,
    });
    let safe_res = residency(series.safe_mode_quanta, series.quanta);
    findings.push(Finding {
        detector: "safe_mode_residency",
        value: safe_res,
        threshold: SAFE_MODE_RESIDENCY,
        tripped: safe_res >= SAFE_MODE_RESIDENCY,
    });
    let deg_res = residency(series.degraded_quanta, series.quanta);
    findings.push(Finding {
        detector: "degraded_residency",
        value: deg_res,
        threshold: DEGRADED_RESIDENCY,
        tripped: deg_res >= DEGRADED_RESIDENCY,
    });
    let cliff = max_adjacent_drop(&series.throughput);
    findings.push(Finding {
        detector: "throughput_cliff",
        value: cliff,
        threshold: THROUGHPUT_CLIFF,
        tripped: cliff >= THROUGHPUT_CLIFF,
    });
    let fleet_run = !series.displaced.is_empty() || series.tenants_lost > 0;
    if fleet_run {
        let displaced_streak =
            max_true_streak(&series.displaced.iter().map(|&d| d > 0).collect::<Vec<_>>());
        findings.push(Finding {
            detector: "displaced_persistence",
            value: displaced_streak as f64,
            threshold: DISPLACED_PERSISTENCE as f64,
            tripped: displaced_streak >= DISPLACED_PERSISTENCE,
        });
        findings.push(Finding {
            detector: "tenant_loss",
            value: series.tenants_lost as f64,
            threshold: TENANT_LOSS as f64,
            tripped: series.tenants_lost > TENANT_LOSS,
        });
    }
    if series.error.is_some() {
        findings.push(Finding {
            detector: "run_error",
            value: 1.0,
            threshold: 0.0,
            tripped: true,
        });
    }
    findings
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn streak_counts_longest_run_only() {
        assert_eq!(max_true_streak(&[]), 0);
        assert_eq!(max_true_streak(&[false, false]), 0);
        assert_eq!(max_true_streak(&[true, false, true, true, true, false]), 3);
        assert_eq!(max_true_streak(&[true; 5]), 5);
    }

    #[test]
    fn cliff_is_zero_on_constant_and_rising_series() {
        assert_eq!(max_adjacent_drop(&[]), 0.0);
        assert_eq!(max_adjacent_drop(&[5.0; 8]), 0.0);
        assert_eq!(max_adjacent_drop(&[0.0; 8]), 0.0);
        assert_eq!(max_adjacent_drop(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(max_adjacent_drop(&[10.0, 4.0, 8.0]), 0.6);
        // A full collapse to zero is a 100% cliff.
        assert_eq!(max_adjacent_drop(&[10.0, 0.0]), 1.0);
    }

    #[test]
    fn fleet_detectors_only_appear_for_fleet_runs() {
        let single = RunSeries {
            quanta: 4,
            qos_violated: vec![false; 4],
            throughput: vec![1.0; 4],
            ..RunSeries::default()
        };
        let names: Vec<_> = evaluate(&single).iter().map(|f| f.detector).collect();
        assert!(!names.contains(&"displaced_persistence"));
        assert!(!names.contains(&"tenant_loss"));

        let fleet = RunSeries {
            displaced: vec![0, 1, 1, 1],
            ..single
        };
        let findings = evaluate(&fleet);
        let disp = findings
            .iter()
            .find(|f| f.detector == "displaced_persistence")
            .unwrap();
        assert_eq!(disp.value, 3.0);
        assert!(
            disp.tripped,
            "3-quantum displacement streak meets the default threshold"
        );
    }

    #[test]
    fn run_error_always_trips() {
        let series = RunSeries {
            quanta: 1,
            error: Some("boom".to_string()),
            ..RunSeries::default()
        };
        let findings = evaluate(&series);
        let err = findings.iter().find(|f| f.detector == "run_error").unwrap();
        assert!(err.tripped);
    }
}
