//! The experiment harness: every table and figure of the paper, regenerated
//! by one binary, `paper` (`cargo paper <id> [args]`; `cargo paper list`;
//! `cargo paper record` for all of them at their defaults).
//! The same binary runs the statistical scenario sweeps of the `sweep`
//! crate (`cargo paper sweep <scenario.json> [--out <dir>]`).
//!
//! * [`experiments`] — one module per experiment and the [`REGISTRY`] table
//!   that names them (DESIGN.md §4 is the index, by id).
//! * [`cli`] — the one strict argument parser (each experiment declares its
//!   arguments as data), the one print / exit-status path, and the record.
//! * [`grid`] — the run [`Grid`]: each (scheme, co-location, cap) the
//!   experiments read, run once, and one factor library per chip.
//! * [`report`] — fixed-width [`Table`]s and the [`Report`] an experiment
//!   returns.
//!
//! This file holds what the experiments share: standard scenario
//! construction (the 50 service × mix co-locations of §VII-A), the
//! two-sample reconstruction and search problem several of them start from,
//! and summary statistics.

#![forbid(unsafe_code)]

use cuttlesys::matrices::{JobMatrices, Libraries, Predictions};
use cuttlesys::types::{Scenario, BATCH_JOBS};
use dds::PenaltyTable;
use simulator::power::CoreKind;
use simulator::{AppProfile, Chip, JobConfig, SystemParams};
use workloads::batch;
use workloads::latency::{self, LcService};
use workloads::loadgen::LoadPattern;
use workloads::oracle::Oracle;

pub mod cli;
pub mod experiments;
pub mod grid;
pub mod report;

pub use experiments::REGISTRY;
pub use grid::Grid;
pub use report::{Report, Table};

/// The power caps evaluated in Fig. 5(c) and Fig. 10(b), as fractions of the
/// nominal budget.
pub const POWER_CAPS: [f64; 5] = [0.9, 0.8, 0.7, 0.6, 0.5];

/// Builds the paper's standard co-location: `service` at 80 % load with the
/// `mix_index`-th standard SPEC mix, under a constant cap.
pub fn standard_scenario(service: &LcService, mix_index: u64, cap: f64) -> Scenario {
    Scenario {
        cap: LoadPattern::Constant(cap),
        seed: 1000 + mix_index,
        ..Scenario::paper_default()
    }
    .with_service(*service)
    .with_load(LoadPattern::Constant(0.8))
    .with_mix(batch::mix(BATCH_JOBS, batch::STANDARD_MIX_SEED + mix_index))
}

/// All (service, mix index) pairs of the 50-mix evaluation;
/// `mixes_per_service` trims the sweep for quick runs.
pub fn colocations(mixes_per_service: u64) -> Vec<(LcService, u64)> {
    latency::services()
        .into_iter()
        .flat_map(|svc| (0..mixes_per_service).map(move |m| (svc, m)))
        .collect()
}

/// The exhaustive ground truth of the paper's 32-core reconfigurable chip.
pub fn reference_oracle() -> Oracle {
    Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable))
}

/// Predictions for `apps` as batch jobs the runtime has only just met: each
/// live row holds the two profiling samples (exact oracle values) and is
/// reconstructed against the paper's 16 training applications, beside one
/// unobserved LC tenant at 80 % load, over the reference chip's library in
/// `libraries`. `batch_bips[j]` / `batch_watts[j]` are `apps[j]`'s 108
/// inferred entries.
#[allow(
    clippy::disallowed_methods,
    reason = "the two profiling samples are read from the truth the predictions are then scored against"
)]
pub fn two_sample_predictions(apps: &[AppProfile], libraries: &Libraries) -> Predictions {
    let oracle = reference_oracle();
    let library = libraries.get(oracle.chip().params());
    let mut matrices = JobMatrices::sharing(library, 1, apps.len());
    for (j, app) in apps.iter().enumerate() {
        let (b, w) = (oracle.bips_row(app), oracle.power_row(app));
        for c in [JobConfig::profiling_high(), JobConfig::profiling_low()] {
            matrices.record_sample(1 + j, c.index(), b[c.index()], w[c.index()]);
        }
    }
    matrices.reconstruct(&[0.8])
}

/// The runtime's batch search problem over predicted rows: geo-mean BIPS
/// under the paper's soft power / LLC-way penalties (Fig. 6), beside a
/// pinned LC service drawing a representative 32 W on two ways.
pub fn search_problem(preds: &Predictions, max_power: f64) -> PenaltyTable {
    PenaltyTable::new(
        preds.batch_bips.iter().zip(&preds.batch_watts),
        JobConfig::all().map(|c| c.cache.ways()).collect(),
        (32.0, 2.0),
        (max_power, 32.0),
    )
}

/// Signed percentage errors of `pred` against `truth`, skipping the
/// observed entries `skip` and — when `ceiling` is given — entries whose
/// truth lies above it (saturated tails).
pub fn pct_errors(pred: &[f64], truth: &[f64], skip: &[usize], ceiling: Option<f64>) -> Vec<f64> {
    pred.iter()
        .zip(truth)
        .enumerate()
        .filter(|(i, _)| !skip.contains(i))
        .filter(|(_, (_, t))| ceiling.is_none_or(|c| **t <= c))
        .map(|(_, (p, t))| 100.0 * (p - t) / t)
        .collect()
}

/// Geometric mean of a slice of positive values.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentile of a sample (nearest-rank), `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The box-plot cells of a sample of signed percentage errors — 5th, 25th,
/// 50th, 75th and 95th percentile — as Fig. 5(a)/(b) and Fig. 9 report them.
pub fn error_quantiles(errors: &[f64]) -> Vec<String> {
    [0.05, 0.25, 0.50, 0.75, 0.95]
        .iter()
        .map(|&q| format!("{:+.1}", percentile(errors, q)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocations_cover_five_services() {
        let all = colocations(10);
        assert_eq!(all.len(), 50);
        let quick = colocations(2);
        assert_eq!(quick.len(), 10);
    }

    #[test]
    fn standard_scenarios_differ_by_mix() {
        let svc = latency::service_by_name("silo").unwrap();
        let a = standard_scenario(&svc, 0, 0.7);
        let b = standard_scenario(&svc, 1, 0.7);
        assert_ne!(a.batch_names(), b.batch_names());
        assert_eq!(a.primary_lc().service.name, "silo");
        assert_eq!(a.num_batch(), BATCH_JOBS);
    }

    #[test]
    fn stats_helpers() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(
            error_quantiles(&[-10.0, -5.0, 0.0, 5.0, 10.0]),
            ["-10.0", "-5.0", "+0.0", "+5.0", "+10.0"]
        );
    }
}
