//! Cross-crate inference tests: collaborative filtering against the
//! simulator's ground truth, and the SGD-vs-RBF comparison of Fig. 9.

use baselines::rbf::{job_features, RbfModel};
use cuttlesys::matrices::JobMatrices;
use recsys::{hogwild, sgd, RatingMatrix, Reconstructor, SgdConfig, SgdModel, ValueTransform};
use simulator::power::CoreKind;
use simulator::{Chip, JobConfig, SystemParams, NUM_JOB_CONFIGS};
use workloads::oracle::Oracle;
use workloads::{batch, latency};

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
    // model must still land in the same quality regime. Both training
    // errors are taken after the fit: the serial `train_rmse` field holds
    // the final epoch's pre-update errors.
    let (serial_rmse, parallel_rmse) = (serial.rmse(&logm), parallel.rmse(&logm));
    assert!(
        parallel_rmse <= serial_rmse * 4.0 + 1e-3,
        "hogwild post-fit RMSE {parallel_rmse} vs serial {serial_rmse}"
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

/// Alg. 1 one observed entry at a time, every parameter read and written
/// through the model's matrices: the formulation `sgd::fit` reorganizes.
/// Starts from `fit` with no epochs, which is the fit's initial state.
fn per_entry_fit(matrix: &RatingMatrix, config: &SgdConfig) -> SgdModel {
    let mut m = sgd::fit(
        matrix,
        &SgdConfig {
            max_iters: 0,
            ..*config
        },
    );
    let observed: Vec<(usize, usize, f64)> = matrix.observed().collect();
    let (eta, lambda) = (config.learning_rate, config.regularization);
    let n = observed.len() as f64;
    let rank = m.q.cols();
    let mut prev_rmse = f64::INFINITY;
    for _ in 0..config.max_iters {
        m.epochs += 1;
        let mut sq_err = 0.0;
        for &(i, j, r) in &observed {
            let residual: f64 = m.q.row(i).iter().zip(m.p.row(j)).map(|(a, b)| a * b).sum();
            let err = r - (m.mu + m.row_bias[i] + m.col_bias[j] + residual);
            sq_err += err * err;
            m.row_bias[i] += eta * (err - lambda * m.row_bias[i]);
            m.col_bias[j] += eta * (err - lambda * m.col_bias[j]);
            for k in 0..rank {
                let qik = m.q.get(i, k);
                let pjk = m.p.get(j, k);
                m.q.set(i, k, qik + eta * (err * pjk - lambda * qik));
                m.p.set(j, k, pjk + eta * (err * qik - lambda * pjk));
            }
        }
        m.train_rmse = (sq_err / n).sqrt();
        if prev_rmse.is_finite()
            && (prev_rmse - m.train_rmse).abs() <= config.convergence_tol * prev_rmse
        {
            break;
        }
        prev_rmse = m.train_rmse;
    }
    m
}

fn model_bits(m: &SgdModel) -> Vec<u64> {
    let mut bits = vec![m.mu.to_bits(), m.train_rmse.to_bits(), m.epochs as u64];
    for part in [&m.row_bias[..], &m.col_bias, m.q.as_slice(), m.p.as_slice()] {
        bits.push(part.len() as u64);
        bits.extend(part.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn sgd_fit_equals_the_per_entry_loop_to_the_bit() {
    // A tail-shaped matrix: 20 ln-space p99 rows (five services at four
    // loads) over the 108 configurations, saturated cells capped as the
    // runtime caps them.
    let o = oracle();
    let tail_rows: Vec<Vec<f64>> = latency::services()
        .iter()
        .flat_map(|svc| [0.3, 0.6, 0.85, 1.1].map(|load| o.tail_row(svc, 16, load)))
        .map(|row| row.iter().map(|t| t.min(100.0).ln()).collect())
        .collect();
    assert_eq!(tail_rows.len(), 20);
    let mut dense = RatingMatrix::new(20, NUM_JOB_CONFIGS);
    for (r, row) in tail_rows.iter().enumerate() {
        dense.fill_row(r, row);
    }
    // Sparse: dense training rows, then live rows with two samples each.
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    let mut sparse = RatingMatrix::new(20, NUM_JOB_CONFIGS);
    for (r, row) in tail_rows.iter().enumerate() {
        if r % 5 == 4 {
            sparse.set(r, hi, row[hi]);
            sparse.set(r, lo, row[lo]);
        } else {
            sparse.fill_row(r, row);
        }
    }
    let mut early_stops = 0;
    for (name, matrix) in [("dense", &dense), ("sparse", &sparse)] {
        for rank in [1, 2, 3, NUM_JOB_CONFIGS] {
            for (max_iters, convergence_tol) in [(60, 0.0), (200, 2e-3)] {
                let config = SgdConfig {
                    rank,
                    max_iters,
                    convergence_tol,
                    ..SgdConfig::default()
                };
                let fast = sgd::fit(matrix, &config);
                let reference = per_entry_fit(matrix, &config);
                assert_eq!(
                    model_bits(&fast),
                    model_bits(&reference),
                    "{name}, rank {rank}, {max_iters} epochs, tol {convergence_tol}"
                );
                assert_eq!(fast.q.cols(), rank);
                if convergence_tol > 0.0 && fast.epochs < max_iters {
                    early_stops += 1;
                }
            }
        }
    }
    // The tolerance runs must actually stop early, or they test nothing
    // the fixed-epoch runs do not.
    assert_eq!(early_stops, 8, "every tolerance run stops early");
}
