//! The three-matrix reconstruction driver.
//!
//! Every decision interval the Resource Controller runs three reconstructions
//! — throughput for batch jobs, tail latency for the latency-critical
//! service, and power for every job — in parallel (§V). This module wraps
//! the SGD machinery with the value transforms and observed-entry overlays
//! that make the raw algorithm usable on real measurements:
//!
//! * throughput and power are reconstructed in linear space;
//! * tail latency spans orders of magnitude (saturated configurations are
//!   reported with enormous latencies), so it is reconstructed in log space;
//! * observed entries always pass through exactly — SGD only fills holes.

use util::WorkerPool;

use crate::matrix::{DenseMatrix, RatingMatrix};
use crate::sgd::{self, SgdConfig, SgdModel, WarmStartConfig};

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
    fn forward(self, v: f64) -> f64 {
        match self {
            ValueTransform::Linear => v,
            ValueTransform::Log => v.max(1e-12).ln(),
        }
    }

    fn inverse(self, v: f64) -> f64 {
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
    pub fn complete(&self, matrix: &RatingMatrix, transform: ValueTransform) -> DenseMatrix {
        self.complete_session(matrix, transform, None).dense
    }

    /// [`Reconstructor::complete`] with session state: an optional
    /// `(schedule, prior)` pair to warm-start from the previous quantum's
    /// fitted model.
    ///
    /// The returned [`Completion`] carries the fitted model (in *transformed*
    /// space) so the caller can feed it back as the prior next quantum. Warm
    /// starting silently falls back to a cold fit when the prior's shape no
    /// longer matches the matrix — `Completion::warm_started` reports what
    /// actually happened. With `warm = None` this is
    /// [`Reconstructor::complete`].
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no observed entries.
    pub fn complete_session(
        &self,
        matrix: &RatingMatrix,
        transform: ValueTransform,
        warm: Option<(&WarmStartConfig, &SgdModel)>,
    ) -> Completion {
        let transformed = matrix.map(|v| transform.forward(v));
        let warm_model =
            warm.and_then(|(cfg, prior)| sgd::fit_warm(&transformed, &self.config, cfg, prior));
        let warm_started = warm_model.is_some();
        let model = warm_model.unwrap_or_else(|| sgd::fit(&transformed, &self.config));
        let (lo, hi) = transformed
            .observed_range()
            // lint:allow(PANIC-POLICY, reason = "the profiling stage never hands reconstruction an empty matrix (it seeds probe samples first); an empty one is a pipeline-ordering bug worth crashing on")
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
        Completion {
            dense: out,
            model,
            warm_started,
        }
    }

    /// Runs several reconstructions, one per input, on the calling thread.
    /// The paper's "three reconstructions all run in parallel on the same
    /// server" is [`Reconstructor::complete_all_session`] with a pool.
    pub fn complete_all(&self, inputs: &[(&RatingMatrix, ValueTransform)]) -> Vec<DenseMatrix> {
        inputs.iter().map(|(m, t)| self.complete(m, *t)).collect()
    }

    /// [`Reconstructor::complete_all`] with session state: the per-matrix
    /// fan-out runs on the pool when one is given (inline otherwise), and
    /// each matrix may carry its own warm-start prior. Inputs and outputs
    /// correspond by index.
    pub fn complete_all_session(
        &self,
        pool: Option<&WorkerPool>,
        inputs: &[SessionInput<'_>],
    ) -> Vec<Completion> {
        let mut slots: Vec<Option<Completion>> = (0..inputs.len()).map(|_| None).collect();
        util::pool::for_each_slot(pool, &mut slots, |i, slot| {
            let input = &inputs[i];
            *slot = Some(self.complete_session(input.matrix, input.transform, input.warm));
        });
        slots
            .into_iter()
            // lint:allow(PANIC-POLICY, reason = "the fan-out returned, so every slot was written; a None is a fan-out bug worth crashing on")
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
    /// Optional warm-start schedule and prior model (transformed space).
    pub warm: Option<(&'a WarmStartConfig, &'a SgdModel)>,
}

/// The result of one session-aware completion.
pub struct Completion {
    /// The completed dense matrix (observed entries passed through).
    pub dense: DenseMatrix,
    /// The fitted model, in transformed space — next quantum's warm prior.
    pub model: SgdModel,
    /// Whether the fit actually started from the supplied prior.
    pub warm_started: bool,
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
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
    fn observed_entries_pass_through_exactly() {
        let (_, m) = structured(10, 12, 8, 2);
        let out = Reconstructor::default().complete(&m, ValueTransform::Linear);
        for (r, c, v) in m.observed() {
            assert_eq!(out.get(r, c), v);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
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
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
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
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
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
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
    fn complete_all_runs_multiple_matrices() {
        let (_, m1) = structured(8, 10, 6, 2);
        let (_, m2) = structured(8, 10, 7, 3);
        let rec = Reconstructor::default();
        let outs = rec.complete_all(&[(&m1, ValueTransform::Linear), (&m2, ValueTransform::Log)]);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].rows(), 8);
        assert_eq!(outs[0], rec.complete(&m1, ValueTransform::Linear));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
    fn warm_session_reuses_the_prior_model() {
        let (_, m) = structured(16, 20, 13, 2);
        let rec = Reconstructor::default();
        let first = rec.complete_session(&m, ValueTransform::Linear, None);
        assert!(!first.warm_started);
        let warm_cfg = WarmStartConfig::default();
        let second =
            rec.complete_session(&m, ValueTransform::Linear, Some((&warm_cfg, &first.model)));
        assert!(second.warm_started);
        assert!(second.model.epochs <= warm_cfg.max_epochs);
        // Same observations, warm factors: the refit keeps the fit quality.
        assert!(second.model.train_rmse <= first.model.train_rmse + 0.01);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // training/fit loop; intractable under Miri (DESIGN.md §8)
    fn pooled_session_is_bit_identical_to_inline_and_to_complete_all() {
        let (_, m1) = structured(8, 10, 6, 2);
        let (_, m2) = structured(8, 10, 7, 3);
        let rec = Reconstructor::default();
        let plain = rec.complete_all(&[(&m1, ValueTransform::Linear), (&m2, ValueTransform::Log)]);
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
        for ((pooled, inline), plain) in pooled.iter().zip(&inline).zip(&plain) {
            assert_eq!(pooled.dense, inline.dense);
            assert_eq!(pooled.model, inline.model);
            assert_eq!(&pooled.dense, plain);
        }
    }
}
