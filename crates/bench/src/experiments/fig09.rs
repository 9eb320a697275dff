//! Fig. 9: prediction error of Flicker's RBF surrogate (3 samples) versus
//! CuttleSys' collaborative filtering (2 samples) for throughput and power
//! — the reconstruction the runtime uses: configuration factors learned by
//! SGD from the known applications, the new row folded in.
//!
//! The paper gives the RBF approach *more* information than SGD (3 samples
//! instead of 2 — it could not converge with 2) and still finds dramatically
//! higher errors, with outliers up to 600 %: an interpolant with no prior
//! has nothing to say about 105 unseen configurations, while collaborative
//! filtering transfers the shape of previously-seen applications.

use baselines::rbf::{job_features, RbfModel};
use simulator::{CacheAlloc, CoreConfig, JobConfig, SectionWidth, NUM_JOB_CONFIGS};
use workloads::batch;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{error_quantiles, pct_errors, reference_oracle, two_sample_predictions, Report, Table};

/// The three RBF samples: the two profiling extremes plus a mid
/// configuration (RBF cannot be fit from 2 samples of a 4-D space in any
/// useful way; the paper likewise gave it 3).
fn rbf_samples() -> [JobConfig; 3] {
    [
        JobConfig::profiling_high(),
        JobConfig::profiling_low(),
        JobConfig::new(
            CoreConfig::new(SectionWidth::Four, SectionWidth::Four, SectionWidth::Four),
            CacheAlloc::Two,
        ),
    ]
}

#[allow(
    clippy::disallowed_methods,
    reason = "Fig. 9 scores RBF and fold-in predictions against ground truth"
)]
pub(super) fn run(_: &Args, grid: &Grid) -> Report {
    let oracle = reference_oracle();
    let samples = rbf_samples();
    let sample_idx: Vec<usize> = samples.iter().map(|c| c.index()).collect();
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();

    let mut rbf_tput = Vec::new();
    let mut rbf_power = Vec::new();
    let mut cf_tput = Vec::new();
    let mut cf_power = Vec::new();

    for app in batch::testing_set() {
        let truth_b = oracle.bips_row(&app.profile);
        let truth_w = oracle.power_row(&app.profile);

        // RBF on three samples over (FE, BE, LS, log-ways) features.
        let xs: Vec<Vec<f64>> = samples.iter().map(|c| job_features(*c)).collect();
        let ys_b: Vec<f64> = sample_idx.iter().map(|&i| truth_b[i]).collect();
        let ys_w: Vec<f64> = sample_idx.iter().map(|&i| truth_w[i]).collect();
        let rbf_b = RbfModel::fit(&xs, &ys_b).expect("3 distinct samples fit");
        let rbf_w = RbfModel::fit(&xs, &ys_w).expect("3 distinct samples fit");
        let pred_b: Vec<f64> = JobConfig::all()
            .map(|c| rbf_b.predict(&job_features(c)))
            .collect();
        let pred_w: Vec<f64> = JobConfig::all()
            .map(|c| rbf_w.predict(&job_features(c)))
            .collect();
        rbf_tput.extend(pct_errors(&pred_b, &truth_b, &sample_idx, None));
        rbf_power.extend(pct_errors(&pred_w, &truth_w, &sample_idx, None));

        // Fold-in on two samples, as at runtime.
        let preds = two_sample_predictions(&[app.profile], grid.libraries());
        cf_tput.extend(pct_errors(&preds.batch_bips[0], &truth_b, &[hi, lo], None));
        cf_power.extend(pct_errors(&preds.batch_watts[0], &truth_w, &[hi, lo], None));
    }

    let mut table = Table::new(
        "Fig. 9: % error, RBF (3 samples) vs SGD fold-in (2 samples), 12 test apps x 108 configs",
        &["metric", "p5", "p25", "p50", "p75", "p95", "|max|"],
    );
    for (name, errors) in [
        ("throughput RBF", &rbf_tput),
        ("power RBF", &rbf_power),
        ("throughput fold-in", &cf_tput),
        ("power fold-in", &cf_power),
    ] {
        let max = errors.iter().fold(0.0_f64, |a, e| a.max(e.abs()));
        let mut row = vec![name.to_string()];
        row.extend(error_quantiles(errors));
        row.push(format!("{max:.0}"));
        table.row(row);
    }
    let mut report = Report::default();
    report.table(table);
    report.line(format!(
        "Paper shape: RBF errors dramatically higher, outliers up to ~600%; {} entries per metric.",
        12 * (NUM_JOB_CONFIGS - 3)
    ));
    report
}
