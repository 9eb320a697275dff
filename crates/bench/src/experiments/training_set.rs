//! §VIII-A2 ablation: reconstruction accuracy vs offline training-set size.
//!
//! Paper: "We select the fewest jobs (16) needed to keep accuracy over 90%
//! for all running jobs. If the training set included 24 jobs instead,
//! inaccuracy drops to 8%, while execution time for reconstruction
//! increases by 18%. On the other hand, decreasing the training set to 8
//! applications increases inaccuracy to 20%."

use std::time::Instant;

use recsys::{RatingMatrix, Reconstructor, ValueTransform};
use simulator::{JobConfig, NUM_JOB_CONFIGS};
use workloads::batch;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{pct_errors, reference_oracle, Report, Table};

#[allow(
    clippy::disallowed_methods,
    reason = "this experiment reports its own wall time, and fills its matrices from and scores them against ground truth; nothing it reads feeds a decision"
)]
pub(super) fn run(_: &Args, _: &Grid) -> Report {
    // The table times learning, so it learns its own factors, not the grid's.
    let oracle = reference_oracle();
    // A fixed diverse ordering of the full catalog: interleave the paper's
    // training and testing sets so every prefix spans behaviours.
    let train_pool = batch::training_set();
    let test_pool = batch::testing_set();
    let mut ordered = Vec::new();
    for i in 0..train_pool.len().max(test_pool.len()) {
        if let Some(b) = train_pool.get(i) {
            ordered.push(*b);
        }
        if let Some(b) = test_pool.get(i) {
            ordered.push(*b);
        }
    }

    let mut table = Table::new(
        "Training-set size vs inference accuracy (throughput rows, 2 samples)",
        &[
            "training apps",
            "mean |err| %",
            "worst app |err| %",
            "reconstruct time",
            "paper",
        ],
    );
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    for (n_train, paper) in [
        (8usize, "~20% inaccuracy"),
        (16, "~10% (chosen)"),
        (24, "~8%, +18% time"),
    ] {
        let training = &ordered[..n_train];
        let testing = &ordered[n_train..];
        let mut errors = Vec::new();
        let mut elapsed = 0.0;
        for app in testing {
            let truth = oracle.bips_row(&app.profile);
            let mut m = RatingMatrix::new(n_train + 1, NUM_JOB_CONFIGS);
            for (r, t) in training.iter().enumerate() {
                m.fill_row(r, &oracle.bips_row(&t.profile));
            }
            m.set(n_train, hi, truth[hi]);
            m.set(n_train, lo, truth[lo]);
            let start = Instant::now();
            let out = Reconstructor::default().complete(&m, ValueTransform::Log);
            elapsed += start.elapsed().as_secs_f64() * 1e3;
            let row: Vec<f64> = (0..NUM_JOB_CONFIGS).map(|c| out.get(n_train, c)).collect();
            let err = pct_errors(&row, &truth, &[], None);
            errors.push(err.iter().map(|e| e.abs()).sum::<f64>() / err.len() as f64);
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let worst = errors.iter().cloned().fold(0.0, f64::max);
        table.row(vec![
            n_train.to_string(),
            format!("{mean:.1}"),
            format!("{worst:.1}"),
            format!("{:.2} ms/app", elapsed / errors.len() as f64),
            paper.to_string(),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report.line("Expected shape: accuracy improves and cost grows with more training rows.");
    report
}
