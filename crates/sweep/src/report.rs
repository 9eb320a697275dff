//! Cross-seed statistics and the byte-stable `summary.json`.
//!
//! Everything here is a pure function of the [`SweepOutcome`]: no
//! wall-clock, no hostnames, no paths — the summary of a sweep is the
//! same byte sequence on every machine, at every pool width, for every
//! on-disk seed ordering. Statistics reduce in sorted-seed order, so
//! float summation order is fixed by construction.

use util::json::JsonValue;

use crate::detectors::DETECTOR_NAMES;
use crate::runner::{CellOutcome, RunOutcome, SweepOutcome};
use crate::spec::SweepSpec;

/// Min/mean/max/standard deviation of one metric across a cell's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Smallest observation.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observation.
    pub max: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Reduces observations (already in sorted-seed order) to [`Stats`].
pub fn stats(values: &[f64]) -> Stats {
    if values.is_empty() {
        return Stats {
            min: 0.0,
            mean: 0.0,
            max: 0.0,
            std: 0.0,
        };
    }
    let n = values.len() as f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    let mean = sum / n;
    let mut var = 0.0;
    for &v in values {
        var += (v - mean) * (v - mean);
    }
    Stats {
        min,
        mean,
        max,
        std: (var / n).sqrt(),
    }
}

impl Stats {
    fn to_json(self) -> JsonValue {
        JsonValue::Obj(vec![
            ("min".to_string(), JsonValue::Num(self.min)),
            ("mean".to_string(), JsonValue::Num(self.mean)),
            ("max".to_string(), JsonValue::Num(self.max)),
            ("std".to_string(), JsonValue::Num(self.std)),
        ])
    }
}

/// The cross-seed metrics a cell reports, in a fixed order.
const STAT_METRICS: &[&str] = &[
    "batch_instructions",
    "qos_violations",
    "power_violations",
    "worst_tail_ratio",
    "degraded_quanta",
    "safe_mode_quanta",
    "injected_fault_slices",
];

fn metric_of(run: &RunOutcome, metric: &str) -> f64 {
    let m = &run.metrics;
    match metric {
        "batch_instructions" => m.batch_instructions,
        "qos_violations" => m.qos_violations as f64,
        "power_violations" => m.power_violations as f64,
        "worst_tail_ratio" => m.worst_tail_ratio,
        "degraded_quanta" => m.series.degraded_quanta as f64,
        "safe_mode_quanta" => m.series.safe_mode_quanta as f64,
        "injected_fault_slices" => m.injected_fault_slices as f64,
        _ => 0.0,
    }
}

/// Cross-seed stats for one cell, keyed by metric name in fixed order.
pub fn cell_stats(cell: &CellOutcome) -> Vec<(&'static str, Stats)> {
    STAT_METRICS
        .iter()
        .map(|&metric| {
            let values: Vec<f64> = cell.runs.iter().map(|r| metric_of(r, metric)).collect();
            (metric, stats(&values))
        })
        .collect()
}

/// The detectors that tripped in any of a cell's runs, sorted and
/// deduplicated (the summary's `tripped` list and the pass/fail table's
/// column).
pub fn tripped_detectors(cell: &CellOutcome) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = cell
        .runs
        .iter()
        .flat_map(|run| &run.findings)
        .filter(|f| f.tripped)
        .map(|f| f.detector)
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn run_to_json(run: &RunOutcome) -> JsonValue {
    let m = &run.metrics;
    let mut fields = vec![
        ("seed".to_string(), JsonValue::from(m.seed as usize)),
        ("quanta".to_string(), JsonValue::from(m.series.quanta)),
        (
            "qos_violations".to_string(),
            JsonValue::from(m.qos_violations),
        ),
        (
            "power_violations".to_string(),
            JsonValue::from(m.power_violations),
        ),
        (
            "worst_tail_ratio".to_string(),
            JsonValue::Num(m.worst_tail_ratio),
        ),
        (
            "batch_instructions".to_string(),
            JsonValue::Num(m.batch_instructions),
        ),
        (
            "degraded_quanta".to_string(),
            JsonValue::from(m.series.degraded_quanta),
        ),
        (
            "safe_mode_quanta".to_string(),
            JsonValue::from(m.series.safe_mode_quanta),
        ),
        (
            "injected_fault_slices".to_string(),
            JsonValue::from(m.injected_fault_slices),
        ),
    ];
    if let Some(c) = &m.cluster {
        fields.push((
            "cluster".to_string(),
            JsonValue::Obj(vec![
                ("nodes".to_string(), JsonValue::from(c.nodes)),
                ("evacuations".to_string(), JsonValue::from(c.evacuations)),
                (
                    "displaced_final".to_string(),
                    JsonValue::from(c.displaced_final),
                ),
                ("tenants_lost".to_string(), JsonValue::from(c.tenants_lost)),
                (
                    "fleet_degraded_quanta".to_string(),
                    JsonValue::from(c.fleet_degraded_quanta),
                ),
            ]),
        ));
    }
    if let Some(err) = &m.series.error {
        fields.push(("error".to_string(), JsonValue::Str(err.clone())));
    }
    fields.push((
        "detectors".to_string(),
        JsonValue::Arr(run.findings.iter().map(|f| f.to_json()).collect()),
    ));
    JsonValue::Obj(fields)
}

/// Per-detector trip counts across the whole sweep, in catalogue order
/// (plus `run_error` last when any run errored).
pub fn detector_summary(outcome: &SweepOutcome) -> Vec<(&'static str, usize)> {
    let mut names: Vec<&'static str> = DETECTOR_NAMES.to_vec();
    names.push("run_error");
    names
        .into_iter()
        .map(|name| {
            let trips = outcome
                .cells
                .iter()
                .flat_map(|c| &c.runs)
                .filter(|r| r.findings.iter().any(|f| f.detector == name && f.tripped))
                .count();
            (name, trips)
        })
        .filter(|(name, trips)| *name != "run_error" || *trips > 0)
        .collect()
}

/// Builds the full summary document. Byte-stable: contains nothing but
/// the spec's identity and the deterministic run results.
pub fn summary_json(spec: &SweepSpec, outcome: &SweepOutcome) -> JsonValue {
    let cells: Vec<JsonValue> = outcome
        .cells
        .iter()
        .map(|cell| {
            let stats_fields: Vec<(String, JsonValue)> = cell_stats(cell)
                .into_iter()
                .map(|(metric, s)| (metric.to_string(), s.to_json()))
                .collect();
            let tripped: Vec<JsonValue> = tripped_detectors(cell)
                .into_iter()
                .map(JsonValue::from)
                .collect();
            JsonValue::Obj(vec![
                ("shape".to_string(), JsonValue::Str(cell.cell.shape.label())),
                ("cap".to_string(), JsonValue::Num(cell.cell.cap)),
                ("fault".to_string(), JsonValue::Str(cell.cell.fault.clone())),
                (
                    "fleet_fault".to_string(),
                    JsonValue::Str(cell.cell.fleet_fault.clone()),
                ),
                (
                    "runs".to_string(),
                    JsonValue::Arr(cell.runs.iter().map(run_to_json).collect()),
                ),
                ("stats".to_string(), JsonValue::Obj(stats_fields)),
                ("tripped".to_string(), JsonValue::Arr(tripped)),
            ])
        })
        .collect();
    let det_summary: Vec<JsonValue> = detector_summary(outcome)
        .into_iter()
        .map(|(name, trips)| {
            JsonValue::Obj(vec![
                ("detector".to_string(), JsonValue::from(name)),
                ("trips".to_string(), JsonValue::from(trips)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("name".to_string(), JsonValue::Str(spec.name.clone())),
        ("quanta".to_string(), JsonValue::from(spec.quanta)),
        (
            "topology".to_string(),
            JsonValue::Str(spec.topology.label()),
        ),
        (
            "seeds".to_string(),
            JsonValue::Arr(
                spec.seeds
                    .iter()
                    .map(|&s| JsonValue::from(s as usize))
                    .collect(),
            ),
        ),
        (
            "axes".to_string(),
            JsonValue::Obj(vec![
                (
                    "load_shapes".to_string(),
                    JsonValue::Arr(
                        spec.load_shapes
                            .iter()
                            .map(|s| JsonValue::Str(s.label()))
                            .collect(),
                    ),
                ),
                (
                    "caps".to_string(),
                    JsonValue::Arr(spec.caps.iter().map(|&c| JsonValue::Num(c)).collect()),
                ),
                (
                    "fault_profiles".to_string(),
                    JsonValue::Arr(
                        spec.fault_profiles
                            .iter()
                            .map(|p| JsonValue::Str(p.clone()))
                            .collect(),
                    ),
                ),
                (
                    "fleet_fault_profiles".to_string(),
                    JsonValue::Arr(
                        spec.fleet_fault_profiles
                            .iter()
                            .map(|p| JsonValue::Str(p.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "total_runs".to_string(),
            JsonValue::from(outcome.total_runs()),
        ),
        ("cells".to_string(), JsonValue::Arr(cells)),
        ("detector_summary".to_string(), JsonValue::Arr(det_summary)),
        (
            "verdict".to_string(),
            JsonValue::from(if outcome.tripped() { "fail" } else { "pass" }),
        ),
    ])
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_a_constant_series_have_zero_std() {
        let s = stats(&[3.0, 3.0, 3.0]);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn stats_of_empty_series_are_zero() {
        let s = stats(&[]);
        assert_eq!((s.min, s.mean, s.max, s.std), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.max, 4.0);
        let var: f64 = (2.25 + 0.25 + 0.25 + 2.25) / 4.0;
        assert_eq!(s.std, var.sqrt());
    }
}
