//! Fold-in: the configuration side of Alg. 1 learned once, each new row
//! solved in closed form.
//!
//! §V splits the rating matrix into applications characterized offline on
//! every configuration and live rows with a handful of samples. The dense
//! rows never change, so [`ConfigFactors::learn`] runs [`sgd::fit`] over them
//! alone and keeps what it learned about the *configurations*: the global
//! mean `μ`, the column biases and the rank-r column factors `P`. A live row
//! is then a regression on its own observations `Ω` — its bias `b` and factor
//! vector `q` minimise
//!
//! ```text
//! Σ_{c∈Ω} (t(v_c) − μ − col_c − b − q·P_c)² + λ·|Ω|·(b² + ‖q‖²)
//! ```
//!
//! which is the stationary point of Alg. 1's own update for that row with
//! `P` and the column biases held fixed (each of the `|Ω|` per-sample steps
//! shrinks by `λ` once, hence `λ·|Ω|`). The (r + 1) × (r + 1) normal
//! equations are solved directly: no epoch loop, no learning rate, no RNG,
//! and nothing carried from one solve to the next.
//!
//! [`ConfigFactors::fold_in`] runs once per live row per quantum, so it does
//! each piece of arithmetic once: every observation goes through the
//! transform once, feeding both the solve and the clamp range, and the
//! completed row is emitted by walking the sorted observations alongside
//! the columns instead of looking each column up.

use std::collections::BTreeMap;

use crate::matrix::{DenseMatrix, RatingMatrix};
use crate::reconstruction::ValueTransform;
use crate::sgd::{self, SgdConfig};

/// What the dense rows teach about the configurations, in transformed space.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigFactors {
    /// Value-space transform the factors were learned under.
    pub transform: ValueTransform,
    /// Global mean μ of the dense rows.
    pub mu: f64,
    /// Column (configuration) biases.
    pub col_bias: Vec<f64>,
    /// Column factors, `cols × rank`.
    pub p: DenseMatrix,
    /// Regularization factor λ of the row solve.
    pub regularization: f64,
    /// `(min, max)` of the dense rows' entries; predictions are clamped to
    /// this range, joined with the row's own observations and widened 25 %.
    pub range: (f64, f64),
    /// SGD epochs the learning run took.
    pub epochs: usize,
}

impl ConfigFactors {
    /// Learns the configuration factors from fully observed `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    #[allow(
        clippy::expect_used,
        reason = "every row was just filled, so the matrix has observations"
    )]
    pub fn learn(rows: &[Vec<f64>], transform: ValueTransform, config: &SgdConfig) -> Self {
        assert!(!rows.is_empty(), "fold-in needs at least one dense row");
        let mut dense = RatingMatrix::new(rows.len(), rows[0].len());
        for (r, row) in rows.iter().enumerate() {
            let transformed: Vec<f64> = row.iter().map(|&v| transform.forward(v)).collect();
            dense.fill_row(r, &transformed);
        }
        let model = sgd::fit(&dense, config);
        ConfigFactors {
            transform,
            mu: model.mu,
            col_bias: model.col_bias,
            p: model.p,
            regularization: config.regularization,
            range: dense.observed_range().expect("dense rows are observed"),
            epochs: model.epochs,
        }
    }

    /// Solves one row's `(b, q)` from its observed `(column, value)` entries:
    /// element 0 is the row bias, the rest the factor vector. A row without
    /// observations is the library's average application, all zeros.
    pub fn solve_row(&self, observed: &BTreeMap<usize, f64>) -> Vec<f64> {
        self.solve(observed).0
    }

    /// The row's `(b, q)`, and the `(min, max)` of the dense rows' range
    /// joined with the row's transformed observations: one pass, so each
    /// observation goes through the transform once.
    fn solve(&self, observed: &BTreeMap<usize, f64>) -> (Vec<f64>, (f64, f64)) {
        let n = self.p.cols() + 1;
        let mut x = vec![0.0; n];
        if observed.is_empty() {
            return (x, self.range);
        }
        // Normal equations (AᵀA + λ|Ω|·I)·x = Aᵀy over features (1, P_c),
        // kept as an n × (n + 1) augmented system.
        let mut m = vec![vec![0.0; n + 1]; n];
        let mut a = vec![1.0; n];
        let (mut lo, mut hi) = self.range;
        for (&c, &v) in observed {
            let t = self.transform.forward(v);
            (lo, hi) = (lo.min(t), hi.max(t));
            a[1..].copy_from_slice(self.p.row(c));
            let y = t - self.mu - self.col_bias[c];
            for i in 0..n {
                for k in 0..n {
                    m[i][k] += a[i] * a[k];
                }
                m[i][n] += a[i] * y;
            }
        }
        let ridge = self.regularization * observed.len() as f64;
        for (i, row) in m.iter_mut().enumerate() {
            row[i] += ridge;
        }
        // Gaussian elimination with partial pivoting. With λ > 0 the system
        // is positive definite; with λ = 0 and fewer observations than
        // unknowns it is singular, and an unknown without a pivot stays 0.
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&i, &k| m[i][col].abs().total_cmp(&m[k][col].abs()))
                .unwrap_or(col);
            m.swap(col, pivot);
            if m[col][col].abs() < 1e-12 {
                continue;
            }
            let (top, below) = m.split_at_mut(col + 1);
            let pivot_row = &top[col];
            for row in below {
                let f = row[col] / pivot_row[col];
                for (v, p) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                    *v -= f * p;
                }
            }
        }
        for i in (0..n).rev() {
            if m[i][i].abs() < 1e-12 {
                continue;
            }
            let tail: f64 = (i + 1..n).map(|k| m[i][k] * x[k]).sum();
            x[i] = (m[i][n] - tail) / m[i][i];
        }
        (x, (lo, hi))
    }

    /// Completes one row: observed entries pass through exactly, the rest
    /// are predicted from the folded-in `(b, q)` and clamped to the
    /// 25 %-widened range of the dense rows and the row's own observations
    /// (low-rank extrapolation far outside it is never trustworthy).
    ///
    /// Each observation goes through the transform once, for both the solve
    /// and the range, and the columns are emitted by walking the sorted
    /// observations alongside them.
    pub fn fold_in(&self, observed: &BTreeMap<usize, f64>) -> Vec<f64> {
        let (x, (lo, hi)) = self.solve(observed);
        let span = (hi - lo).max(1e-9);
        let (clamp_lo, clamp_hi) = (lo - 0.25 * span, hi + 0.25 * span);
        let mut next = observed.iter().peekable();
        (0..self.col_bias.len())
            .map(|c| match next.next_if(|&(&o, _)| o == c) {
                Some((_, &v)) => v,
                None => {
                    let residual: f64 = x[1..].iter().zip(self.p.row(c)).map(|(q, p)| q * p).sum();
                    let t = self.mu + self.col_bias[c] + x[0] + residual;
                    self.transform.inverse(t.clamp(clamp_lo, clamp_hi))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLS: usize = 12;
    const LAMBDA: f64 = 0.02;

    /// Hand-written rank-2 factors over 12 configurations.
    fn factors() -> ConfigFactors {
        let p: Vec<f64> = (0..COLS)
            .flat_map(|c| [(c as f64 * 0.9).sin(), 0.6 * (c as f64 * 0.5).cos()])
            .collect();
        ConfigFactors {
            transform: ValueTransform::Log,
            mu: 0.7,
            col_bias: (0..COLS).map(|c| 0.1 * c as f64 - 0.5).collect(),
            p: DenseMatrix::from_vec(COLS, 2, p),
            regularization: LAMBDA,
            range: (-1.5, 2.5),
            epochs: 0,
        }
    }

    /// The value the model itself assigns `(b, q)` at column `c`.
    fn generated(f: &ConfigFactors, x: &[f64; 3], c: usize) -> f64 {
        let residual = x[1] * f.p.get(c, 0) + x[2] * f.p.get(c, 1);
        (f.mu + f.col_bias[c] + x[0] + residual).exp()
    }

    fn observe(f: &ConfigFactors, x: &[f64; 3], cols: &[usize]) -> BTreeMap<usize, f64> {
        cols.iter().map(|&c| (c, generated(f, x, c))).collect()
    }

    fn distance(x: &[f64], truth: &[f64; 3]) -> f64 {
        let sq: f64 = x.iter().zip(truth).map(|(a, b)| (a - b) * (a - b)).sum();
        sq.sqrt()
    }

    #[test]
    fn noise_free_observations_recover_the_row_up_to_the_ridge_shrinkage() {
        let f = factors();
        let truth = [0.3, -0.4, 0.25];
        // r + 1 = 3 observations determine the 3 unknowns; what separates
        // the solve from the truth is exactly the ridge's pull towards zero,
        // AᵀA·(x* − x) = λ|Ω|·x (tolerance 1e-9, round-off only).
        let mut previous = f64::INFINITY;
        for cols in [
            &[0, 3, 7][..],
            &[0, 3, 5, 7, 10],
            &[0, 1, 3, 4, 5, 7, 8, 10, 11],
        ] {
            let x = f.solve_row(&observe(&f, &truth, cols));
            let ridge = LAMBDA * cols.len() as f64;
            for i in 0..3 {
                let pull: f64 = cols
                    .iter()
                    .map(|&c| {
                        let a = [1.0, f.p.get(c, 0), f.p.get(c, 1)];
                        let miss: f64 = (0..3).map(|k| a[k] * (truth[k] - x[k])).sum();
                        a[i] * miss
                    })
                    .sum();
                assert!((pull - ridge * x[i]).abs() < 1e-9, "unknown {i}: {pull}");
            }
            // More observations never move the solution further away.
            let gap = distance(&x, &truth);
            assert!(gap <= previous, "gap grew: {previous} -> {gap}");
            previous = gap;
        }
        assert!(
            previous < 0.05,
            "nine observations leave a gap of {previous}"
        );
        // Without the ridge the recovery is exact.
        let exact = ConfigFactors {
            regularization: 0.0,
            ..f.clone()
        };
        let x = exact.solve_row(&observe(&exact, &truth, &[0, 3, 7]));
        assert!(distance(&x, &truth) < 1e-9);
    }

    /// `fold_in` as it was before it transformed each observation once:
    /// `forward` in both the solve and the range, a `get` per column.
    fn reference_fold_in(f: &ConfigFactors, observed: &BTreeMap<usize, f64>) -> Vec<f64> {
        let x = f.solve_row(observed);
        let (lo, hi) = observed.values().fold(f.range, |(lo, hi), &v| {
            let t = f.transform.forward(v);
            (lo.min(t), hi.max(t))
        });
        let span = (hi - lo).max(1e-9);
        let (clamp_lo, clamp_hi) = (lo - 0.25 * span, hi + 0.25 * span);
        (0..f.col_bias.len())
            .map(|c| {
                observed.get(&c).copied().unwrap_or_else(|| {
                    let residual: f64 = x[1..].iter().zip(f.p.row(c)).map(|(q, p)| q * p).sum();
                    let t = f.mu + f.col_bias[c] + x[0] + residual;
                    f.transform.inverse(t.clamp(clamp_lo, clamp_hi))
                })
            })
            .collect()
    }

    #[test]
    fn fold_in_matches_the_reference_to_the_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xF01D);
        for cols in [108, 27] {
            for transform in [ValueTransform::Log, ValueTransform::Linear] {
                let range = (-1.5, 2.5);
                let f = ConfigFactors {
                    transform,
                    mu: rng.random_range(-0.5..1.0),
                    col_bias: (0..cols).map(|_| rng.random_range(-0.8..0.8)).collect(),
                    p: DenseMatrix::from_vec(
                        cols,
                        2,
                        (0..2 * cols).map(|_| rng.random_range(-1.0..1.0)).collect(),
                    ),
                    regularization: LAMBDA,
                    range,
                    epochs: 0,
                };
                let value = |t: f64| match transform {
                    ValueTransform::Log => t.exp(),
                    ValueTransform::Linear => t,
                };
                let mut maps = vec![
                    BTreeMap::new(),
                    BTreeMap::from([(rng.random_range(0..cols), value(0.4))]),
                    (0..cols)
                        .map(|c| (c, value(rng.random_range(range.0..range.1))))
                        .collect(),
                    BTreeMap::from([
                        (0, value(range.0)),
                        (cols / 2, value(range.1)),
                        (cols - 1, 1e-300),
                        (1, 1e6),
                    ]),
                ];
                for len in [2, 5, 17, cols - 1] {
                    maps.push(
                        (0..len)
                            .map(|_| {
                                let c = rng.random_range(0..cols);
                                (c, value(rng.random_range(range.0 - 1.0..range.1 + 1.0)))
                            })
                            .collect(),
                    );
                }
                for obs in &maps {
                    let (got, want) = (f.fold_in(obs), reference_fold_in(&f, obs));
                    assert_eq!(got.len(), cols);
                    for (c, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{cols} columns, {transform:?}, {} observations: column {c}",
                            obs.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_unobserved_row_is_the_average_application() {
        let f = factors();
        let row = f.fold_in(&BTreeMap::new());
        for (c, v) in row.iter().enumerate() {
            assert_eq!(*v, (f.mu + f.col_bias[c]).exp());
        }
    }

    #[test]
    fn observed_entries_pass_through_and_predictions_stay_in_the_widened_range() {
        let f = factors();
        // One observation far above the dense rows' range widens the clamp.
        let mut obs = observe(&f, &[0.3, -0.4, 0.25], &[2, 9]);
        obs.insert(5, 40.0);
        let row = f.fold_in(&obs);
        let (lo, hi) = (f.range.0, 40.0_f64.ln());
        let span = hi - lo;
        for (c, v) in row.iter().enumerate() {
            match obs.get(&c) {
                Some(o) => assert_eq!(v.to_bits(), o.to_bits(), "column {c}"),
                None => {
                    let t = v.ln();
                    assert!(t >= lo - 0.25 * span - 1e-12 && t <= hi + 0.25 * span + 1e-12);
                }
            }
        }
    }

    #[test]
    fn recording_order_cannot_reach_the_bits() {
        let f = factors();
        let truth = [0.3, -0.4, 0.25];
        let forward = observe(&f, &truth, &[0, 3, 5, 7, 10]);
        let mut backward = BTreeMap::new();
        for c in [10, 7, 5, 3, 0] {
            // An overwritten duplicate too: the newest value wins.
            backward.insert(c, 1.0);
            backward.insert(c, generated(&f, &truth, c));
        }
        let (a, b) = (f.fold_in(&forward), f.fold_in(&backward));
        assert!(a.iter().zip(&b).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn degenerate_systems_stay_finite() {
        let mut f = factors();
        // A configuration the factors say nothing about.
        f.p.row_mut(4).fill(0.0);
        let finite = |row: Vec<f64>| assert!(row.iter().all(|v| v.is_finite() && *v > 0.0));
        for lambda in [LAMBDA, 0.0] {
            f.regularization = lambda;
            finite(f.fold_in(&BTreeMap::from([(3, 2.0)])));
            finite(f.fold_in(&BTreeMap::from([(4, 2.0)])));
            finite(f.fold_in(&BTreeMap::from([(4, 2.0), (6, 1e-300)])));
        }
    }

    #[test]
    fn learned_factors_complete_a_two_sample_row() {
        // Multiplicative app-scale × config-effect structure plus a small
        // interaction — the shape performance matrices actually have.
        let truth = |r: usize, c: usize| {
            let (app, cfg) = (
                1.0 + 0.3 * (r as f64 * 0.7).sin(),
                2.0 + (c as f64 * 0.25).cos(),
            );
            app * cfg + 0.15 * (r as f64 * 0.5).sin() * (c as f64 * 0.3).cos()
        };
        let dense: Vec<Vec<f64>> = (0..16)
            .map(|r| (0..30).map(|c| truth(r, c)).collect())
            .collect();
        let f = ConfigFactors::learn(&dense, ValueTransform::Log, &SgdConfig::default());
        assert!(f.epochs > 0 && f.epochs <= SgdConfig::default().max_iters);
        for r in 16..20 {
            let row = f.fold_in(&BTreeMap::from([(1, truth(r, 1)), (29, truth(r, 29))]));
            for (c, v) in row.iter().enumerate() {
                let rel = (v - truth(r, c)).abs() / truth(r, c);
                assert!(rel < 0.25, "({r},{c}): rel err {rel}");
            }
        }
    }
}
