//! Flicker (§VIII-E) — the state-of-the-art reconfigurable-multicore runtime
//! for batch workloads.
//!
//! Flicker profiles each job on nine core configurations chosen by a
//! three-level experimental design (3MM3), fits RBF surrogates for
//! throughput and power over the three section widths, and searches the
//! per-job core-configuration space with a genetic algorithm. It manages
//! *core configurations only* — no cache partitioning — and its long
//! profiling phase is what makes it unusable for latency-critical services:
//! the paper measures order-of-magnitude QoS violations when tail-sensitive
//! jobs spend 9-90 ms in narrow profiling configurations.

use simulator::{CoreConfig, SectionWidth, NUM_CORE_CONFIGS};

use crate::rbf::{core_features, RbfModel};

/// The nine profiling configurations of the 3-level design: an L9 orthogonal
/// array over the three sections × three widths, so every width of every
/// section is observed three times with balanced co-levels.
pub fn three_level_design() -> Vec<CoreConfig> {
    const L9: [(usize, usize, usize); 9] = [
        (0, 0, 0),
        (0, 1, 1),
        (0, 2, 2),
        (1, 0, 1),
        (1, 1, 2),
        (1, 2, 0),
        (2, 0, 2),
        (2, 1, 0),
        (2, 2, 1),
    ];
    L9.iter()
        .map(|&(fe, be, ls)| {
            CoreConfig::new(
                SectionWidth::from_index(fe),
                SectionWidth::from_index(be),
                SectionWidth::from_index(ls),
            )
        })
        .collect()
}

/// Per-job RBF surrogates over the 27 core configurations.
#[derive(Debug, Clone)]
pub struct FlickerModel {
    bips: Vec<RbfModel>,
    power: Vec<RbfModel>,
}

impl FlickerModel {
    /// Fits surrogates from profiling samples.
    ///
    /// `samples[j]` holds `(config, bips, watts)` triples for job `j` — the
    /// nine 3MM3 observations (or fewer, as in the Fig. 9 three-sample
    /// stress test).
    ///
    /// # Errors
    ///
    /// Propagates RBF fitting failures (too few or duplicate samples).
    pub fn fit(samples: &[Vec<(CoreConfig, f64, f64)>]) -> Result<FlickerModel, String> {
        let mut bips = Vec::with_capacity(samples.len());
        let mut power = Vec::with_capacity(samples.len());
        for (j, job_samples) in samples.iter().enumerate() {
            let xs: Vec<Vec<f64>> = job_samples
                .iter()
                .map(|(c, _, _)| core_features(*c))
                .collect();
            let ys_b: Vec<f64> = job_samples.iter().map(|&(_, b, _)| b).collect();
            let ys_w: Vec<f64> = job_samples.iter().map(|&(_, _, w)| w).collect();
            bips.push(RbfModel::fit(&xs, &ys_b).map_err(|e| format!("job {j} bips: {e}"))?);
            power.push(RbfModel::fit(&xs, &ys_w).map_err(|e| format!("job {j} power: {e}"))?);
        }
        Ok(FlickerModel { bips, power })
    }

    /// Number of jobs modelled.
    pub fn num_jobs(&self) -> usize {
        self.bips.len()
    }

    /// Predicted throughput of job `j` at `config`.
    pub fn predict_bips(&self, j: usize, config: CoreConfig) -> f64 {
        self.bips[j].predict(&core_features(config))
    }

    /// Predicted power of job `j` at `config`.
    pub fn predict_power(&self, j: usize, config: CoreConfig) -> f64 {
        self.power[j].predict(&core_features(config))
    }

    /// Full predicted throughput row for job `j` over all 27 configurations,
    /// indexed by [`CoreConfig::index`].
    pub fn bips_row(&self, j: usize) -> Vec<f64> {
        (0..NUM_CORE_CONFIGS)
            .map(|i| self.predict_bips(j, CoreConfig::from_index(i)))
            .collect()
    }

    /// Full predicted power row for job `j`.
    pub fn power_row(&self, j: usize) -> Vec<f64> {
        (0..NUM_CORE_CONFIGS)
            .map(|i| self.predict_power(j, CoreConfig::from_index(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l9_design_is_balanced() {
        let design = three_level_design();
        assert_eq!(design.len(), 9);
        // Every width of every section appears exactly three times.
        for section in 0..3 {
            for width in SectionWidth::ALL {
                let count = design
                    .iter()
                    .filter(|c| [c.fe, c.be, c.ls][section] == width)
                    .count();
                assert_eq!(count, 3, "section {section} width {width} unbalanced");
            }
        }
        // All nine rows distinct.
        let mut idx: Vec<usize> = design.iter().map(|c| c.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 9);
    }

    /// A smooth synthetic job response used to exercise the surrogate.
    fn synth_job(scale: f64) -> Vec<(CoreConfig, f64, f64)> {
        three_level_design()
            .into_iter()
            .map(|c| {
                let b = scale
                    * (1.0
                        + 0.4 * f64::from(c.fe.lanes())
                        + 0.3 * f64::from(c.be.lanes())
                        + 0.2 * f64::from(c.ls.lanes()));
                let w = 1.0 + 0.5 * b;
                (c, b, w)
            })
            .collect()
    }

    #[test]
    fn nine_sample_fit_predicts_all_27_reasonably() {
        let model = FlickerModel::fit(&[synth_job(1.0)]).unwrap();
        let truth = |c: CoreConfig| {
            1.0 + 0.4 * f64::from(c.fe.lanes())
                + 0.3 * f64::from(c.be.lanes())
                + 0.2 * f64::from(c.ls.lanes())
        };
        let mut max_rel = 0.0_f64;
        for c in CoreConfig::all() {
            let rel = (model.predict_bips(0, c) - truth(c)).abs() / truth(c);
            max_rel = max_rel.max(rel);
        }
        assert!(
            max_rel < 0.35,
            "9-sample RBF should track a smooth response: {max_rel}"
        );
    }

    #[test]
    fn rows_cover_all_core_configs() {
        let model = FlickerModel::fit(&[synth_job(1.0), synth_job(2.0)]).unwrap();
        assert_eq!(model.num_jobs(), 2);
        assert_eq!(model.bips_row(0).len(), 27);
        assert_eq!(model.power_row(1).len(), 27);
        // Job 1 is scaled 2× — its predictions should dominate job 0's.
        let c = CoreConfig::widest();
        assert!(model.predict_bips(1, c) > model.predict_bips(0, c));
    }

    #[test]
    fn too_few_samples_fail_to_fit() {
        let short: Vec<(CoreConfig, f64, f64)> = synth_job(1.0).into_iter().take(1).collect();
        assert!(FlickerModel::fit(&[short]).is_err());
    }
}
