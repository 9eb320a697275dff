//! Truncated SVD by power iteration with deflation.
//!
//! Alg. 1 of the paper constructs the initial `P` and `Q` factors from a
//! singular value decomposition of the (mean-imputed) rating matrix:
//! `Q = U·√Σ` and `Pᵀ = √Σ·Vᵀ`, so that `Q·Pᵀ` starts close to the imputed
//! matrix before SGD refines the observed entries. The matrices involved are
//! tiny (tens of applications × 108 configurations), so simple power
//! iteration on `AᵀA` with deflation is accurate and fast.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::matrix::DenseMatrix;

/// A truncated singular value decomposition `A ≈ U·diag(σ)·Vᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedSvd {
    /// Left singular vectors, `rows × rank`.
    pub u: DenseMatrix,
    /// Singular values, length `rank`, non-increasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `cols × rank`.
    pub v: DenseMatrix,
}

impl TruncatedSvd {
    /// Reconstructs the rank-truncated approximation of the original
    /// matrix.
    pub fn reconstruct(&self) -> DenseMatrix {
        let rank = self.sigma.len();
        let rows = self.u.rows();
        let cols = self.v.rows();
        let mut out = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let mut acc = 0.0;
                for k in 0..rank {
                    acc += self.u.get(i, k) * self.sigma[k] * self.v.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// The PQ factor pair used to initialize Alg. 1: `Q = U·√Σ` (rows ×
    /// rank) and `P = V·√Σ` (cols × rank), so `Q·Pᵀ ≈ A`.
    pub fn pq_factors(&self) -> (DenseMatrix, DenseMatrix) {
        let rank = self.sigma.len();
        let mut q = DenseMatrix::zeros(self.u.rows(), rank);
        let mut p = DenseMatrix::zeros(self.v.rows(), rank);
        for k in 0..rank {
            let s = self.sigma[k].max(0.0).sqrt();
            for i in 0..self.u.rows() {
                q.set(i, k, self.u.get(i, k) * s);
            }
            for j in 0..self.v.rows() {
                p.set(j, k, self.v.get(j, k) * s);
            }
        }
        (q, p)
    }
}

fn mat_vec(a: &DenseMatrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x).map(|(aij, xj)| aij * xj).sum())
        .collect()
}

#[allow(clippy::needless_range_loop)] // index-coupled numeric kernels read clearer indexed
fn mat_t_vec(a: &DenseMatrix, y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.cols()];
    for i in 0..a.rows() {
        let yi = y[i];
        for (j, aij) in a.row(i).iter().enumerate() {
            out[j] += aij * yi;
        }
    }
    out
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Computes the top-`rank` singular triples of `a` by power iteration on
/// `AᵀA` with deflation.
///
/// `rank` is clamped to `min(rows, cols)`. `iters` power steps per singular
/// vector (40 is plenty for the well-separated spectra of performance
/// matrices). `seed` controls the random starting vectors.
///
/// # Panics
///
/// Panics if `rank == 0`.
#[allow(clippy::needless_range_loop)] // deflation updates index three buffers in lockstep
pub fn truncated_svd(a: &DenseMatrix, rank: usize, iters: usize, seed: u64) -> TruncatedSvd {
    assert!(rank > 0, "rank must be positive");
    let rank = rank.min(a.rows()).min(a.cols());
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = a.rows();
    let cols = a.cols();
    let mut u = DenseMatrix::zeros(rows, rank);
    let mut v = DenseMatrix::zeros(cols, rank);
    let mut sigma = Vec::with_capacity(rank);
    // Deflated copy of A.
    let mut work = a.clone();
    for k in 0..rank {
        let mut x: Vec<f64> = (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect();
        let n = norm(&x).max(f64::MIN_POSITIVE);
        x.iter_mut().for_each(|xi| *xi /= n);
        for _ in 0..iters {
            let y = mat_vec(&work, &x);
            let mut xn = mat_t_vec(&work, &y);
            let n = norm(&xn);
            if n < 1e-14 {
                break;
            }
            xn.iter_mut().for_each(|xi| *xi /= n);
            x = xn;
        }
        let y = mat_vec(&work, &x);
        let s = norm(&y);
        sigma.push(s);
        let uvec: Vec<f64> = if s > 1e-14 {
            y.iter().map(|yi| yi / s).collect()
        } else {
            vec![0.0; rows]
        };
        for i in 0..rows {
            u.set(i, k, uvec[i]);
        }
        for (j, xj) in x.iter().enumerate() {
            v.set(j, k, *xj);
        }
        // Deflate: A ← A − σ·u·vᵀ.
        for i in 0..rows {
            for j in 0..cols {
                let d = work.get(i, j) - s * uvec[i] * x[j];
                work.set(i, j, d);
            }
        }
    }
    TruncatedSvd { u, sigma, v }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frobenius_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        let mut acc = 0.0;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let d = a.get(i, j) - b.get(i, j);
                acc += d * d;
            }
        }
        acc.sqrt()
    }

    fn rank2_matrix() -> DenseMatrix {
        // A = u1·v1ᵀ·3 + u2·v2ᵀ, exactly rank 2.
        let rows = 6;
        let cols = 8;
        let mut a = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                let u1 = (i as f64 + 1.0).sin();
                let v1 = (j as f64 * 0.7).cos();
                let u2 = (i as f64 * 0.3).cos();
                let v2 = (j as f64 + 2.0).sin();
                a.set(i, j, 3.0 * u1 * v1 + u2 * v2);
            }
        }
        a
    }

    #[test]
    fn exact_recovery_of_low_rank_matrix() {
        let a = rank2_matrix();
        let svd = truncated_svd(&a, 2, 60, 1);
        let err = frobenius_diff(&a, &svd.reconstruct());
        assert!(
            err < 1e-6,
            "rank-2 matrix should be exactly recovered, err = {err}"
        );
    }

    #[test]
    fn singular_values_non_increasing_and_positive() {
        let a = rank2_matrix();
        let svd = truncated_svd(&a, 4, 60, 2);
        for w in svd.sigma.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-9,
                "sigma must be non-increasing: {:?}",
                svd.sigma
            );
        }
        assert!(svd.sigma[0] > 0.0);
        // Rank beyond the true rank collapses to ~0.
        assert!(svd.sigma[3] < 1e-6 * svd.sigma[0]);
    }

    #[test]
    fn pq_factors_reproduce_reconstruction() {
        let a = rank2_matrix();
        let svd = truncated_svd(&a, 2, 60, 3);
        let (q, p) = svd.pq_factors();
        let qp = q.mul_transpose(&p);
        let err = frobenius_diff(&qp, &svd.reconstruct());
        assert!(err < 1e-8);
    }

    #[test]
    fn rank_is_clamped_to_dimensions() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let svd = truncated_svd(&a, 10, 40, 4);
        assert_eq!(svd.sigma.len(), 2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = rank2_matrix();
        let s1 = truncated_svd(&a, 2, 40, 7);
        let s2 = truncated_svd(&a, 2, 40, 7);
        assert_eq!(s1.sigma, s2.sigma);
    }
}
