//! Serial PQ-reconstruction SGD — the reference implementation of Alg. 1.
//!
//! Given a sparse rating matrix, factorize `R ≈ μ + b_row + b_col + Q·Pᵀ` by
//! stochastic gradient descent over the *observed* entries:
//!
//! ```text
//! ε_ij  ← R_ij − (μ + b_i + c_j + Q_i·P_j)
//! b_i   ← b_i + η(ε_ij − λ·b_i)
//! c_j   ← c_j + η(ε_ij − λ·c_j)
//! Q_i   ← Q_i + η(ε_ij·P_j − λ·Q_i)
//! P_j   ← P_j + η(ε_ij·Q_i − λ·P_j)
//! ```
//!
//! The bias terms are the standard recommender-systems refinement (BellKor):
//! the column bias captures the configuration-wide effect learned from the
//! densely observed training applications, the row bias captures the new
//! application's overall scale — learnable from its two profiling samples —
//! and the `Q·Pᵀ` residual captures per-application preferences among
//! configurations. `Q`/`P` are initialized from a truncated SVD of the
//! mean-imputed bias residual, following the paper's SVD construction.

use crate::matrix::{DenseMatrix, RatingMatrix};
use crate::svd::truncated_svd;

/// Hyper-parameters for the SGD reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Latent factor rank of the residual term.
    pub rank: usize,
    /// Learning rate η.
    pub learning_rate: f64,
    /// Regularization factor λ.
    pub regularization: f64,
    /// Maximum number of epochs over the observed entries.
    pub max_iters: usize,
    /// Stop when the epoch RMSE improves by less than this relative amount.
    pub convergence_tol: f64,
    /// Seed for SVD initialization.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            rank: 2,
            learning_rate: 0.02,
            regularization: 0.02,
            max_iters: 200,
            convergence_tol: 1e-5,
            seed: 0x5EED,
        }
    }
}

/// A fitted biased PQ factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdModel {
    /// Global mean μ of the observed ratings.
    pub mu: f64,
    /// Row (application) biases.
    pub row_bias: Vec<f64>,
    /// Column (configuration) biases.
    pub col_bias: Vec<f64>,
    /// Row factors, `rows × rank`.
    pub q: DenseMatrix,
    /// Column factors, `cols × rank`.
    pub p: DenseMatrix,
    /// RMSE over the observed entries. The two fitters measure it at
    /// different moments: [`fit`] reports the errors met *during* its final
    /// epoch, each taken before that entry's update (infinite when no epoch
    /// ran); [`crate::hogwild::fit_parallel_in`] reports
    /// [`rmse`](SgdModel::rmse) of the finished model. Compare two models'
    /// training error through `rmse`, not through this field.
    pub train_rmse: f64,
    /// Number of epochs actually run.
    pub epochs: usize,
}

impl SgdModel {
    /// Predicted rating for `(row, col)`.
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        let residual: f64 = self
            .q
            .row(row)
            .iter()
            .zip(self.p.row(col))
            .map(|(a, b)| a * b)
            .sum();
        self.mu + self.row_bias[row] + self.col_bias[col] + residual
    }

    /// RMSE of the model's predictions over the observed entries of
    /// `matrix`, in its row-major order.
    pub fn rmse(&self, matrix: &RatingMatrix) -> f64 {
        let sq_err: f64 = matrix
            .observed()
            .map(|(i, j, r)| {
                let e = r - self.predict(i, j);
                e * e
            })
            .sum();
        (sq_err / matrix.observed_len() as f64).sqrt()
    }

    /// The full reconstructed matrix.
    pub fn reconstruct(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.q.rows(), self.p.rows());
        for i in 0..self.q.rows() {
            for j in 0..self.p.rows() {
                out.set(i, j, self.predict(i, j));
            }
        }
        out
    }
}

/// Bias initialization shared by the serial and parallel fitters: global
/// mean, then row/column means of the residuals.
#[allow(clippy::needless_range_loop)] // bias/count vectors indexed in lockstep
pub(crate) fn initial_biases(matrix: &RatingMatrix) -> (f64, Vec<f64>, Vec<f64>) {
    let mu = matrix.global_mean();
    let mut row_bias = vec![0.0; matrix.rows()];
    let mut row_n = vec![0usize; matrix.rows()];
    let mut col_bias = vec![0.0; matrix.cols()];
    let mut col_n = vec![0usize; matrix.cols()];
    for (r, _c, v) in matrix.observed() {
        row_bias[r] += v - mu;
        row_n[r] += 1;
    }
    for (b, n) in row_bias.iter_mut().zip(&row_n) {
        if *n > 0 {
            *b /= *n as f64;
        }
    }
    for (r, c, v) in matrix.observed() {
        col_bias[c] += v - mu - row_bias[r];
        col_n[c] += 1;
    }
    for (b, n) in col_bias.iter_mut().zip(&col_n) {
        if *n > 0 {
            *b /= *n as f64;
        }
    }
    (mu, row_bias, col_bias)
}

/// SVD-based initialization of the P/Q residual factors (Alg. 1 lines 1-2,
/// with the paper's SVD construction applied to the bias residual).
pub(crate) fn initial_factors(
    matrix: &RatingMatrix,
    config: &SgdConfig,
    mu: f64,
    row_bias: &[f64],
    col_bias: &[f64],
) -> (DenseMatrix, DenseMatrix) {
    let mut residual = DenseMatrix::zeros(matrix.rows(), matrix.cols());
    #[allow(clippy::needless_range_loop)] // (r, c) index matrix, biases, and residual together
    for r in 0..matrix.rows() {
        for c in 0..matrix.cols() {
            let base = mu + row_bias[r] + col_bias[c];
            residual.set(r, c, matrix.get(r, c).map_or(0.0, |v| v - base));
        }
    }
    let svd = truncated_svd(&residual, config.rank, 40, config.seed);
    let (q, p) = svd.pq_factors();
    if q.cols() == config.rank {
        return (q, p);
    }
    // Rank was clamped by the matrix shape; pad with zero columns so factor
    // shapes always match the configuration.
    let mut q_pad = DenseMatrix::zeros(q.rows(), config.rank);
    let mut p_pad = DenseMatrix::zeros(p.rows(), config.rank);
    for i in 0..q.rows() {
        for k in 0..q.cols() {
            q_pad.set(i, k, q.get(i, k));
        }
    }
    for j in 0..p.rows() {
        for k in 0..p.cols() {
            p_pad.set(j, k, p.get(j, k));
        }
    }
    (q_pad, p_pad)
}

/// Fits Alg. 1 (with bias terms) on the observed entries of `matrix`:
/// in-place SGD until `max_iters` epochs or relative-RMSE convergence.
///
/// Each epoch visits the observed entries in row-major order, so a row's
/// entries form one run. The row's bias and factor vector are read once at
/// the start of its run, updated in locals (registers, at the default rank
/// 2) across the run, and written back at its end; only the column's bias
/// and factors go through memory per entry. Every update is the same
/// floating-point operation, in the same order, on the same values as the
/// per-entry formulation of the module docs, so the model is the same to the
/// bit at every rank — `tests/inference.rs` checks this against the
/// per-entry loop.
///
/// The model's `train_rmse` is the RMSE of the final epoch's errors, each
/// taken before its entry's update — the figure the convergence test
/// compares — not a pass over the finished model.
///
/// # Panics
///
/// Panics if the matrix has no observed entries.
pub fn fit(matrix: &RatingMatrix, config: &SgdConfig) -> SgdModel {
    assert!(
        matrix.observed_len() > 0,
        "cannot fit an empty rating matrix"
    );
    let (mu, row_bias, col_bias) = initial_biases(matrix);
    let (q, p) = initial_factors(matrix, config, mu, &row_bias, &col_bias);
    let mut model = SgdModel {
        mu,
        row_bias,
        col_bias,
        q,
        p,
        train_rmse: f64::INFINITY,
        epochs: 0,
    };
    let observed: Vec<(usize, usize, f64)> = matrix.observed().collect();
    if model.q.cols() == 2 {
        run_epochs::<[f64; 2]>(&mut model, &observed, config);
    } else {
        run_epochs::<Vec<f64>>(&mut model, &observed, config);
    }
    model
}

/// A row's factor vector while SGD walks the row's run: a fixed-size array
/// at the runtime's rank, so it lives in registers, a `Vec` at any other.
trait RowFactors: AsRef<[f64]> + AsMut<[f64]> {
    fn zeroed(rank: usize) -> Self;
}

impl<const R: usize> RowFactors for [f64; R] {
    fn zeroed(_rank: usize) -> Self {
        [0.0; R]
    }
}

impl RowFactors for Vec<f64> {
    fn zeroed(rank: usize) -> Self {
        vec![0.0; rank]
    }
}

/// The epoch loop of [`fit`], over `observed` in row-major order.
fn run_epochs<Q: RowFactors>(
    model: &mut SgdModel,
    observed: &[(usize, usize, f64)],
    config: &SgdConfig,
) {
    let (mu, eta, lambda) = (model.mu, config.learning_rate, config.regularization);
    let n = observed.len() as f64;
    let mut qi = Q::zeroed(model.q.cols());
    let rank = qi.as_ref().len();
    let mut prev_rmse = f64::INFINITY;
    for _ in 0..config.max_iters {
        model.epochs += 1;
        let mut sq_err = 0.0;
        for run in observed.chunk_by(|a, b| a.0 == b.0) {
            let i = run[0].0;
            let mut bi = model.row_bias[i];
            qi.as_mut().copy_from_slice(model.q.row(i));
            for &(_, j, r) in run {
                let pj = &mut model.p.row_mut(j)[..rank];
                let residual: f64 = qi.as_ref().iter().zip(pj.iter()).map(|(a, b)| a * b).sum();
                let cj = &mut model.col_bias[j];
                let err = r - (mu + bi + *cj + residual);
                sq_err += err * err;
                bi += eta * (err - lambda * bi);
                *cj += eta * (err - lambda * *cj);
                for (qk, pk) in qi.as_mut().iter_mut().zip(pj) {
                    let (qik, pjk) = (*qk, *pk);
                    *qk = qik + eta * (err * pjk - lambda * qik);
                    *pk = pjk + eta * (err * qik - lambda * pjk);
                }
            }
            model.row_bias[i] = bi;
            model.q.row_mut(i).copy_from_slice(qi.as_ref());
        }
        let rmse = (sq_err / n).sqrt();
        model.train_rmse = rmse;
        if prev_rmse.is_finite() && (prev_rmse - rmse).abs() <= config.convergence_tol * prev_rmse {
            break;
        }
        prev_rmse = rmse;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic ground truth with multiplicative app/config
    /// structure plus a low-rank residual — the shape performance matrices
    /// actually have — and a sparse observation of it.
    fn synthetic(
        rows: usize,
        cols: usize,
        known_rows: usize,
        samples: usize,
    ) -> (DenseMatrix, RatingMatrix) {
        let mut truth = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let app_scale = 1.0 + 0.3 * (i as f64 * 0.7).sin();
                let config_effect = 2.0 + (j as f64 * 0.25).cos();
                let residual = 0.2 * (i as f64 * 0.4).sin() * (j as f64 * 0.5).cos();
                truth.set(i, j, app_scale * config_effect + residual);
            }
        }
        let mut obs = RatingMatrix::new(rows, cols);
        for i in 0..known_rows {
            for j in 0..cols {
                obs.set(i, j, truth.get(i, j));
            }
        }
        for i in known_rows..rows {
            for s in 0..samples {
                let j = (s * cols / samples + i) % cols;
                obs.set(i, j, truth.get(i, j));
            }
        }
        (truth, obs)
    }

    #[test]
    fn recovers_held_out_entries_of_structured_matrix() {
        let (truth, obs) = synthetic(20, 30, 16, 2);
        let model = fit(&obs, &SgdConfig::default());
        let mut max_rel = 0.0_f64;
        for i in 16..20 {
            for j in 0..30 {
                let rel = (model.predict(i, j) - truth.get(i, j)).abs() / truth.get(i, j).abs();
                max_rel = max_rel.max(rel);
            }
        }
        assert!(
            max_rel < 0.25,
            "held-out relative error too large: {max_rel}"
        );
    }

    #[test]
    fn train_rmse_is_small_after_convergence() {
        let (_, obs) = synthetic(12, 20, 10, 3);
        let model = fit(&obs, &SgdConfig::default());
        assert!(model.train_rmse < 0.05, "train RMSE {}", model.train_rmse);
        assert!(model.epochs <= SgdConfig::default().max_iters);
    }

    #[test]
    fn convergence_tolerance_stops_early() {
        let (_, obs) = synthetic(10, 15, 8, 3);
        let loose = fit(
            &obs,
            &SgdConfig {
                convergence_tol: 0.05,
                ..SgdConfig::default()
            },
        );
        let tight = fit(
            &obs,
            &SgdConfig {
                convergence_tol: 1e-9,
                ..SgdConfig::default()
            },
        );
        assert!(loose.epochs < tight.epochs);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (_, obs) = synthetic(10, 15, 8, 2);
        let a = fit(&obs, &SgdConfig::default());
        let b = fit(&obs, &SgdConfig::default());
        assert_eq!(a.q, b.q);
        assert_eq!(a.p, b.p);
        assert_eq!(a.row_bias, b.row_bias);
    }

    #[test]
    fn full_rank_configuration_is_supported() {
        // The paper's literal choice: rank = number of configurations.
        let (_, obs) = synthetic(8, 12, 7, 3);
        let model = fit(
            &obs,
            &SgdConfig {
                rank: 12,
                ..SgdConfig::default()
            },
        );
        assert_eq!(model.q.cols(), 12);
        assert!(model.train_rmse < 0.1);
    }

    #[test]
    fn reconstruct_matches_predict() {
        let (_, obs) = synthetic(6, 9, 5, 2);
        let model = fit(&obs, &SgdConfig::default());
        let full = model.reconstruct();
        assert!((full.get(3, 4) - model.predict(3, 4)).abs() < 1e-12);
    }

    #[test]
    fn column_bias_learns_config_effect_from_training_rows() {
        let (_, obs) = synthetic(20, 30, 16, 2);
        let model = fit(&obs, &SgdConfig::default());
        // The config effect 2 + cos(0.25 j) peaks at j = 0 and dips around
        // j = 12-13 (0.25·12.5 ≈ π): the learned column biases must agree.
        assert!(model.col_bias[0] > model.col_bias[13]);
    }

    #[test]
    #[should_panic(expected = "empty rating matrix")]
    fn empty_matrix_rejected() {
        let m = RatingMatrix::new(2, 2);
        let _ = fit(&m, &SgdConfig::default());
    }
}
