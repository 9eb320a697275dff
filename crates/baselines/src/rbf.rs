//! Radial-basis-function surrogate fitting — Flicker's inference engine.
//!
//! Flicker profiles a handful of core configurations per job and fits an RBF
//! interpolant to predict performance and power everywhere else. Fig. 9 of
//! the paper shows why this needs ~9 samples: with the 3 samples comparable
//! to SGD's budget, the interpolant extrapolates wildly (outliers up to
//! 600 %). We reproduce a standard Gaussian-kernel RBF with a small ridge
//! term for numerical safety.

use simulator::{CoreConfig, JobConfig};

/// A fitted RBF interpolant over points in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct RbfModel {
    centers: Vec<Vec<f64>>,
    weights: Vec<f64>,
    width: f64,
}

/// Numeric feature vector for a core configuration: lane counts normalized
/// to `[0, 1]`.
pub fn core_features(config: CoreConfig) -> Vec<f64> {
    vec![
        f64::from(config.fe.lanes()) / 6.0,
        f64::from(config.be.lanes()) / 6.0,
        f64::from(config.ls.lanes()) / 6.0,
    ]
}

/// Feature vector for a full job configuration: core lanes plus
/// log2-scaled cache ways.
pub fn job_features(config: JobConfig) -> Vec<f64> {
    let mut f = core_features(config.core);
    // ways ∈ {0.5, 1, 2, 4} → log2 ∈ {−1, 0, 1, 2} → normalized to [0, 1].
    f.push((config.cache.ways().log2() + 1.0) / 3.0);
    f
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl RbfModel {
    /// Fits the interpolant to `(xs, ys)` samples.
    ///
    /// The kernel width is the mean pairwise distance between samples (a
    /// standard heuristic); the linear system is solved by Gaussian
    /// elimination with partial pivoting and a `1e-8` ridge.
    ///
    /// # Errors
    ///
    /// Returns an error when fewer than 2 samples are supplied, dimensions
    /// disagree, or the system is numerically singular (e.g. duplicate
    /// sample points).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<RbfModel, String> {
        if xs.len() < 2 {
            return Err(format!(
                "RBF fitting needs at least 2 samples, got {}",
                xs.len()
            ));
        }
        if xs.len() != ys.len() {
            return Err("xs and ys lengths differ".to_string());
        }
        let dim = xs[0].len();
        if xs.iter().any(|x| x.len() != dim) {
            return Err("inconsistent feature dimensions".to_string());
        }
        let n = xs.len();
        let mut dist_sum = 0.0;
        let mut pairs = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = sq_dist(&xs[i], &xs[j]);
                if d2 < 1e-20 {
                    return Err(format!("duplicate sample points at indices {i} and {j}"));
                }
                dist_sum += d2.sqrt();
                pairs += 1;
            }
        }
        let width = (dist_sum / pairs as f64).max(1e-6);

        // Kernel matrix with ridge.
        let mut a: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        (-sq_dist(&xs[i], &xs[j]) / (2.0 * width * width)).exp()
                            + if i == j { 1e-8 } else { 0.0 }
                    })
                    .collect()
            })
            .collect();
        let mut b = ys.to_vec();

        // Gaussian elimination with partial pivoting.
        #[allow(clippy::needless_range_loop)] // pivoting mutates `a` while scanning by index
        for col in 0..n {
            let (pivot, pivot_val) = (col..n)
                .map(|r| (r, a[r][col].abs()))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("non-empty column");
            if pivot_val < 1e-12 {
                return Err("singular RBF system (duplicate samples?)".to_string());
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            for r in (col + 1)..n {
                let f = a[r][col] / a[col][col];
                for c in col..n {
                    a[r][c] -= f * a[col][c];
                }
                b[r] -= f * b[col];
            }
        }
        let mut weights = vec![0.0; n];
        for r in (0..n).rev() {
            let mut acc = b[r];
            for c in (r + 1)..n {
                acc -= a[r][c] * weights[c];
            }
            weights[r] = acc / a[r][r];
        }
        Ok(RbfModel {
            centers: xs.to_vec(),
            weights,
            width,
        })
    }

    /// Predicted value at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different dimension than the training samples.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.centers[0].len(), "feature dimension mismatch");
        self.centers
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * (-sq_dist(x, c) / (2.0 * self.width * self.width)).exp())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulator::{CacheAlloc, SectionWidth};

    fn grid_samples(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Smooth 2-D function on a grid.
        let f = |x: f64, y: f64| 1.0 + x * x + 0.5 * y;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (i as f64 / (n - 1) as f64, j as f64 / (n - 1) as f64);
                xs.push(vec![x, y]);
                ys.push(f(x, y));
            }
        }
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_exactly() {
        let (xs, ys) = grid_samples(3);
        let model = RbfModel::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!((model.predict(x) - y).abs() < 1e-4, "training point missed");
        }
    }

    #[test]
    fn dense_sampling_interpolates_well() {
        let (xs, ys) = grid_samples(4);
        let model = RbfModel::fit(&xs, &ys).unwrap();
        let f = |x: f64, y: f64| 1.0 + x * x + 0.5 * y;
        let err = (model.predict(&[0.4, 0.6]) - f(0.4, 0.6)).abs();
        assert!(err < 0.1, "interior error {err}");
    }

    #[test]
    fn three_samples_extrapolate_poorly() {
        // The Fig. 9 phenomenon: 3 samples of a curved function leave huge
        // errors away from the samples.
        let f = |x: f64| 5.0 * (3.0 * x).exp() / 20.0;
        let xs: Vec<Vec<f64>> = vec![vec![0.0], vec![0.5], vec![1.0]];
        let ys: Vec<f64> = xs.iter().map(|x| f(x[0])).collect();
        let model = RbfModel::fit(&xs, &ys).unwrap();
        let mut max_rel = 0.0_f64;
        for i in 0..50 {
            let x = i as f64 / 49.0;
            let rel = (model.predict(&[x]) - f(x)).abs() / f(x);
            max_rel = max_rel.max(rel);
        }
        assert!(
            max_rel > 0.10,
            "expected visible sparse-sample error, got {max_rel}"
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(RbfModel::fit(&[vec![0.0]], &[1.0]).is_err());
        assert!(RbfModel::fit(&[vec![0.0], vec![1.0]], &[1.0]).is_err());
        // Duplicate points make the system singular.
        assert!(RbfModel::fit(&[vec![0.3], vec![0.3]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn feature_vectors_are_normalized() {
        let jc = JobConfig::new(
            CoreConfig::new(SectionWidth::Six, SectionWidth::Two, SectionWidth::Four),
            CacheAlloc::Half,
        );
        let f = job_features(jc);
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)), "{f:?}");
        assert_eq!(f[0], 1.0);
        assert_eq!(f[3], 0.0);
    }
}
