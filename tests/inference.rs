//! Cross-crate inference tests: collaborative filtering against the
//! simulator's ground truth, and the SGD-vs-RBF comparison of Fig. 9.

use baselines::rbf::{job_features, RbfModel};
use cuttlesys::matrices::JobMatrices;
use recsys::{hogwild, sgd, RatingMatrix, Reconstructor, SgdConfig, ValueTransform};
use simulator::power::CoreKind;
use simulator::{Chip, JobConfig, SystemParams, NUM_JOB_CONFIGS};
use workloads::batch;
use workloads::oracle::Oracle;

fn oracle() -> Oracle {
    Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable))
}

fn mean_abs_pct(pred: &[f64], truth: &[f64]) -> f64 {
    pred.iter()
        .zip(truth)
        .map(|(p, t)| 100.0 * (p - t).abs() / t)
        .sum::<f64>()
        / truth.len() as f64
}

#[test]
fn two_samples_reconstruct_every_test_app_within_budget() {
    let o = oracle();
    let training: Vec<_> = batch::training_set().iter().map(|b| b.profile).collect();
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    for app in batch::testing_set() {
        let truth_b = o.bips_row(&app.profile);
        let truth_w = o.power_row(&app.profile);
        let mut m = JobMatrices::new(o, &training, 1, 1);
        m.record_sample(1, hi, truth_b[hi], truth_w[hi]);
        m.record_sample(1, lo, truth_b[lo], truth_w[lo]);
        let preds = m.reconstruct(&[0.8]);
        let err_b = mean_abs_pct(&preds.batch_bips[0], &truth_b);
        let err_w = mean_abs_pct(&preds.batch_watts[0], &truth_w);
        assert!(err_b < 20.0, "{}: throughput error {err_b:.1}%", app.name);
        assert!(err_w < 8.0, "{}: power error {err_w:.1}%", app.name);
    }
}

#[test]
fn sgd_beats_rbf_at_comparable_sample_budgets() {
    // Fig. 9: RBF with one extra sample still loses badly.
    let o = oracle();
    let training: Vec<_> = batch::training_set().iter().map(|b| b.profile).collect();
    let hi = JobConfig::profiling_high();
    let lo = JobConfig::profiling_low();
    let mid = JobConfig::from_index(NUM_JOB_CONFIGS / 2);

    let mut sgd_total = 0.0;
    let mut rbf_total = 0.0;
    for app in batch::testing_set() {
        let truth = o.bips_row(&app.profile);
        let truth_w = o.power_row(&app.profile);

        let xs: Vec<Vec<f64>> = [hi, lo, mid].iter().map(|c| job_features(*c)).collect();
        let ys: Vec<f64> = [hi, lo, mid].iter().map(|c| truth[c.index()]).collect();
        let rbf = RbfModel::fit(&xs, &ys).expect("3 samples fit");
        let rbf_pred: Vec<f64> = JobConfig::all()
            .map(|c| rbf.predict(&job_features(c)))
            .collect();
        rbf_total += mean_abs_pct(&rbf_pred, &truth);

        let mut m = JobMatrices::new(o, &training, 1, 1);
        m.record_sample(1, hi.index(), truth[hi.index()], truth_w[hi.index()]);
        m.record_sample(1, lo.index(), truth[lo.index()], truth_w[lo.index()]);
        let preds = m.reconstruct(&[0.8]);
        sgd_total += mean_abs_pct(&preds.batch_bips[0], &truth);
    }
    assert!(
        rbf_total > sgd_total * 1.5,
        "RBF ({rbf_total:.0}) should be far worse than SGD ({sgd_total:.0})"
    );
}

#[test]
fn hogwild_quality_matches_serial_on_oracle_data() {
    // Build a real throughput matrix from the oracle, sparse live rows.
    let o = oracle();
    let training = batch::training_set();
    let testing = batch::testing_set();
    let mut m = RatingMatrix::new(training.len() + testing.len(), NUM_JOB_CONFIGS);
    for (r, app) in training.iter().enumerate() {
        m.fill_row(r, &o.bips_row(&app.profile));
    }
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    for (i, app) in testing.iter().enumerate() {
        let truth = o.bips_row(&app.profile);
        m.set(training.len() + i, hi, truth[hi]);
        m.set(training.len() + i, lo, truth[lo]);
    }
    let logm = m.map(|v| v.ln());
    let config = SgdConfig {
        max_iters: 80,
        ..SgdConfig::default()
    };
    let serial = sgd::fit(
        &logm,
        &SgdConfig {
            convergence_tol: 0.0,
            ..config
        },
    );
    // HOGWILD races only on real threads: without a pool the four logical
    // workers would run inline, one after another.
    let pool = util::WorkerPool::new(4);
    let parallel = hogwild::fit_parallel_in(Some(&pool), &logm, &config, 4);
    // The dense training rows make every worker hammer the same column
    // factors, so the race penalty is larger than on sparse data; the
    // model must still land in the same quality regime.
    assert!(
        parallel.train_rmse <= serial.train_rmse * 4.0 + 1e-3,
        "hogwild RMSE {} vs serial {}",
        parallel.train_rmse,
        serial.train_rmse
    );
}

#[test]
fn tail_bucket_predictions_track_load() {
    let o = oracle();
    let training: Vec<_> = batch::training_set().iter().map(|b| b.profile).collect();
    let mut m = JobMatrices::new(o, &training, 1, 1);
    let narrow = JobConfig::profiling_low().index();
    let p_20 = m.reconstruct(&[0.2]);
    let p_90 = m.reconstruct(&[0.9]);
    assert!(
        p_90.lc[0].tail[narrow] > p_20.lc[0].tail[narrow] * 2.0,
        "the narrow config must look far worse at high load: {} vs {}",
        p_90.lc[0].tail[narrow],
        p_20.lc[0].tail[narrow]
    );
}

#[test]
fn log_transform_is_the_right_space_for_tails() {
    // Latency-like rows spanning decades: log-space completion must beat
    // linear-space completion.
    let rows = 12;
    let cols = 40;
    let truth =
        |r: usize, c: usize| 0.5 * (1.0 + 0.2 * (r as f64 * 0.7).sin()) * (0.12 * c as f64).exp();
    let mut m = RatingMatrix::new(rows, cols);
    for r in 0..10 {
        for c in 0..cols {
            m.set(r, c, truth(r, c));
        }
    }
    for r in 10..rows {
        m.set(r, 0, truth(r, 0));
        m.set(r, cols - 1, truth(r, cols - 1));
    }
    let rec = Reconstructor::default();
    let log_out = rec.complete(&m, ValueTransform::Log);
    let lin_out = rec.complete(&m, ValueTransform::Linear);
    let err = |out: &recsys::DenseMatrix| {
        let mut total = 0.0;
        for r in 10..rows {
            for c in 0..cols {
                total += (out.get(r, c) - truth(r, c)).abs() / truth(r, c);
            }
        }
        total
    };
    assert!(
        err(&log_out) < err(&lin_out),
        "log space should win on exponentials"
    );
}
