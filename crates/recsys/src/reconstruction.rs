//! The joint-fit reconstruction driver — the reference solver.
//!
//! The paper's Resource Controller re-runs three reconstructions —
//! throughput for batch jobs, tail latency for the latency-critical service,
//! and power for every job — over the whole matrix every decision interval
//! (§V). The runtime here folds live rows into factors learned once
//! ([`crate::foldin`]); this module is the joint fit it is measured against
//! (`paper ablation-{sgd,training-set}`, the differential tests, the perf
//! ledger's probes). It wraps the SGD machinery with the value transforms
//! and observed-entry overlays that make the raw algorithm usable on real
//! measurements:
//!
//! * a matrix is reconstructed in linear or in log space — log for anything
//!   spanning orders of magnitude, such as tail latency whose saturated
//!   configurations report enormous values;
//! * observed entries always pass through exactly — SGD only fills holes.

use util::WorkerPool;

use crate::matrix::{DenseMatrix, RatingMatrix};
use crate::sgd::{self, SgdConfig};

/// Value-space transform applied before SGD and inverted afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueTransform {
    /// Fit ratings as-is.
    Linear,
    /// Fit `ln(value)`; appropriate for heavy-tailed metrics such as p99
    /// latency. Values must be positive.
    Log,
}

impl ValueTransform {
    pub(crate) fn forward(self, v: f64) -> f64 {
        match self {
            ValueTransform::Linear => v,
            ValueTransform::Log => v.max(1e-12).ln(),
        }
    }

    pub(crate) fn inverse(self, v: f64) -> f64 {
        match self {
            ValueTransform::Linear => v,
            ValueTransform::Log => v.exp(),
        }
    }
}

/// Matrix-completion driver combining SGD, transforms, and overlays.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Reconstructor {
    /// SGD hyper-parameters.
    pub config: SgdConfig,
}

impl Reconstructor {
    /// Creates a driver with the given SGD configuration.
    pub fn new(config: SgdConfig) -> Reconstructor {
        Reconstructor { config }
    }

    /// Completes the matrix: missing entries are inferred, observed entries
    /// pass through unchanged, and predictions are clamped to a moderately
    /// widened observed range (low-rank extrapolation far outside the
    /// training range is never trustworthy).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no observed entries.
    #[allow(
        clippy::expect_used,
        reason = "the profiling stage never hands reconstruction an empty matrix (it seeds probe samples first); an empty one is a pipeline-ordering bug worth crashing on"
    )]
    pub fn complete(&self, matrix: &RatingMatrix, transform: ValueTransform) -> DenseMatrix {
        let transformed = matrix.map(|v| transform.forward(v));
        let model = sgd::fit(&transformed, &self.config);
        let (lo, hi) = transformed
            .observed_range()
            .expect("matrix has observations");
        let span = (hi - lo).max(1e-9);
        let (clamp_lo, clamp_hi) = (lo - 0.25 * span, hi + 0.25 * span);
        let mut out = DenseMatrix::zeros(matrix.rows(), matrix.cols());
        for r in 0..matrix.rows() {
            for c in 0..matrix.cols() {
                let value = match matrix.get(r, c) {
                    Some(v) => v,
                    None => transform.inverse(model.predict(r, c).clamp(clamp_lo, clamp_hi)),
                };
                out.set(r, c, value);
            }
        }
        out
    }

    /// Runs [`Reconstructor::complete`] once per input — the paper's "three
    /// reconstructions all run in parallel on the same server" — with the
    /// per-matrix fan-out on the pool when one is given (inline otherwise).
    /// Inputs and outputs correspond by index.
    #[allow(
        clippy::expect_used,
        reason = "the fan-out returned, so every slot was written; a None is a fan-out bug worth crashing on"
    )]
    pub fn complete_all_session(
        &self,
        pool: Option<&WorkerPool>,
        inputs: &[SessionInput<'_>],
    ) -> Vec<DenseMatrix> {
        let mut slots: Vec<Option<DenseMatrix>> = vec![None; inputs.len()];
        util::pool::for_each_slot(pool, &mut slots, |i, slot| {
            *slot = Some(self.complete(inputs[i].matrix, inputs[i].transform));
        });
        slots
            .into_iter()
            .map(|s| s.expect("every reconstruction slot filled"))
            .collect()
    }
}

/// One matrix of a [`Reconstructor::complete_all_session`] batch.
pub struct SessionInput<'a> {
    /// The sparse observations to complete.
    pub matrix: &'a RatingMatrix,
    /// Value-space transform for this matrix.
    pub transform: ValueTransform,
    /// Always `None`: warm starting is gone. Retained for the perf ledger
    /// only, whose probe writes the field.
    pub warm: Option<std::convert::Infallible>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn structured(
        rows: usize,
        cols: usize,
        known: usize,
        samples: usize,
    ) -> (Vec<f64>, RatingMatrix) {
        // Multiplicative app-scale × config-effect structure plus a small
        // interaction — the shape performance matrices actually have.
        let truth: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let app_scale = 1.0 + 0.3 * (r as f64 * 0.7).sin();
                let config_effect = 2.0 + (c as f64 * 0.25).cos();
                app_scale * config_effect + 0.15 * (r as f64 * 0.5).sin() * (c as f64 * 0.3).cos()
            })
            .collect();
        let mut m = RatingMatrix::new(rows, cols);
        for r in 0..known {
            for c in 0..cols {
                m.set(r, c, truth[r * cols + c]);
            }
        }
        for r in known..rows {
            for s in 0..samples {
                let c = (s * cols / samples + r) % cols;
                m.set(r, c, truth[r * cols + c]);
            }
        }
        (truth, m)
    }

    #[test]
    fn observed_entries_pass_through_exactly() {
        let (_, m) = structured(10, 12, 8, 2);
        let out = Reconstructor::default().complete(&m, ValueTransform::Linear);
        for (r, c, v) in m.observed() {
            assert_eq!(out.get(r, c), v);
        }
    }

    #[test]
    fn completion_recovers_structure() {
        let (truth, m) = structured(16, 20, 13, 2);
        let out = Reconstructor::default().complete(&m, ValueTransform::Linear);
        for r in 13..16 {
            for c in 0..20 {
                let t = truth[r * 20 + c];
                let rel = (out.get(r, c) - t).abs() / t;
                assert!(rel < 0.25, "({r},{c}): rel err {rel}");
            }
        }
    }

    #[test]
    fn log_transform_handles_wide_ranges() {
        // Latency-like data spanning 4 orders of magnitude.
        let rows = 10;
        let cols = 12;
        let truth =
            |r: usize, c: usize| 0.5 * 10f64.powf(3.0 * c as f64 / cols as f64 + 0.05 * r as f64);
        let mut m = RatingMatrix::new(rows, cols);
        for r in 0..8 {
            for c in 0..cols {
                m.set(r, c, truth(r, c));
            }
        }
        for (r, c) in [(8, 0), (8, 11), (9, 0), (9, 11)] {
            m.set(r, c, truth(r, c));
        }
        let out = Reconstructor::default().complete(&m, ValueTransform::Log);
        for r in 8..10 {
            for c in 0..cols {
                let t = truth(r, c);
                let ratio = out.get(r, c) / t;
                assert!((0.5..2.0).contains(&ratio), "({r},{c}): ratio {ratio}");
            }
        }
    }

    #[test]
    fn predictions_are_clamped_to_plausible_range() {
        let (_, m) = structured(10, 12, 8, 2);
        let out = Reconstructor::default().complete(&m, ValueTransform::Linear);
        let (lo, hi) = m.observed_range().unwrap();
        let span = hi - lo;
        for r in 0..10 {
            for c in 0..12 {
                let v = out.get(r, c);
                assert!(v >= lo - 0.26 * span && v <= hi + 0.26 * span);
            }
        }
    }

    #[test]
    fn pooled_session_is_bit_identical_to_inline_and_to_complete() {
        let (_, m1) = structured(8, 10, 6, 2);
        let (_, m2) = structured(8, 10, 7, 3);
        let rec = Reconstructor::default();
        let plain = vec![
            rec.complete(&m1, ValueTransform::Linear),
            rec.complete(&m2, ValueTransform::Log),
        ];
        let inputs = [
            SessionInput {
                matrix: &m1,
                transform: ValueTransform::Linear,
                warm: None,
            },
            SessionInput {
                matrix: &m2,
                transform: ValueTransform::Log,
                warm: None,
            },
        ];
        let inline = rec.complete_all_session(None, &inputs);
        let pool = WorkerPool::new(2);
        let pooled = rec.complete_all_session(Some(&pool), &inputs);
        assert_eq!(pooled.len(), 2);
        // Serial SGD per matrix: who runs a matrix cannot change its bits.
        assert_eq!(pooled, inline);
        assert_eq!(pooled, plain);
    }
}
