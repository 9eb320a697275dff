//! Microarchitectural application profiles.
//!
//! An [`AppProfile`] captures everything the analytic performance and power
//! models need to know about an application: how much instruction-level
//! parallelism it exposes, how sensitive it is to each core section being
//! narrowed, and how its memory behaviour responds to LLC capacity. Profiles
//! for the synthetic SPEC CPU2006 and TailBench stand-ins live in the
//! `workloads` crate; this type only defines the parameter space and its
//! invariants.

/// Parameters describing one application's microarchitectural behaviour.
///
/// All fields are plain data so workload catalogs can construct profiles
/// directly; [`AppProfile::validate`] checks the invariants the models rely
/// on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Peak sustainable micro-ops per cycle with unconstrained resources,
    /// in `(0, 6]`.
    pub ilp: f64,
    /// Sensitivity to front-end narrowing, in `[0, 1]` (branchy, large-footprint
    /// codes are high).
    pub fe_sensitivity: f64,
    /// Sensitivity to back-end narrowing, in `[0, 1]` (wide-issue compute codes
    /// are high).
    pub be_sensitivity: f64,
    /// Sensitivity to load/store-queue narrowing, in `[0, 1]` (memory-level
    /// parallel codes are high).
    pub ls_sensitivity: f64,
    /// Fraction of instructions that access memory, in `[0.05, 0.6]`.
    pub mem_fraction: f64,
    /// Fraction of memory accesses that miss the private caches and reach the
    /// LLC, in `[0.005, 0.6]`.
    pub l1_miss_rate: f64,
    /// Asymptotic LLC miss ratio once the working set fits, in `[0, 0.95]`.
    pub llc_miss_floor: f64,
    /// Exponential decay scale (in ways) of the LLC miss curve; small values
    /// mean the working set fits in very few ways.
    pub llc_working_set_ways: f64,
    /// Memory-level parallelism: average outstanding misses overlapping a
    /// miss, in `[1, 10]`.
    pub mlp: f64,
    /// Baseline switching-activity scale for dynamic power, in `[0.4, 1.4]`.
    pub activity: f64,
}

impl AppProfile {
    /// A middle-of-the-road profile, useful for examples and tests.
    pub fn balanced() -> AppProfile {
        AppProfile {
            ilp: 2.6,
            fe_sensitivity: 0.5,
            be_sensitivity: 0.5,
            ls_sensitivity: 0.5,
            mem_fraction: 0.3,
            l1_miss_rate: 0.08,
            llc_miss_floor: 0.12,
            llc_working_set_ways: 2.0,
            mlp: 3.0,
            activity: 1.0,
        }
    }

    /// A compute-bound profile: high ILP, tiny memory footprint.
    pub fn compute_bound() -> AppProfile {
        AppProfile {
            ilp: 4.2,
            fe_sensitivity: 0.7,
            be_sensitivity: 0.9,
            ls_sensitivity: 0.2,
            mem_fraction: 0.18,
            l1_miss_rate: 0.02,
            llc_miss_floor: 0.05,
            llc_working_set_ways: 0.8,
            mlp: 2.0,
            activity: 1.2,
        }
    }

    /// A memory-bound profile: low ILP, large working set, high MLP.
    pub fn memory_bound() -> AppProfile {
        AppProfile {
            ilp: 1.4,
            fe_sensitivity: 0.2,
            be_sensitivity: 0.25,
            ls_sensitivity: 0.9,
            mem_fraction: 0.42,
            l1_miss_rate: 0.25,
            llc_miss_floor: 0.35,
            llc_working_set_ways: 5.0,
            mlp: 6.0,
            activity: 0.7,
        }
    }

    /// Checks that every field is inside the range the models were calibrated
    /// for.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        fn check(name: &str, v: f64, lo: f64, hi: f64) -> Result<(), String> {
            if !v.is_finite() || v < lo || v > hi {
                Err(format!("{name} = {v} outside [{lo}, {hi}]"))
            } else {
                Ok(())
            }
        }
        check("ilp", self.ilp, 0.2, 6.0)?;
        check("fe_sensitivity", self.fe_sensitivity, 0.0, 1.0)?;
        check("be_sensitivity", self.be_sensitivity, 0.0, 1.0)?;
        check("ls_sensitivity", self.ls_sensitivity, 0.0, 1.0)?;
        check("mem_fraction", self.mem_fraction, 0.05, 0.6)?;
        check("l1_miss_rate", self.l1_miss_rate, 0.005, 0.6)?;
        check("llc_miss_floor", self.llc_miss_floor, 0.0, 0.95)?;
        check("llc_working_set_ways", self.llc_working_set_ways, 0.1, 16.0)?;
        check("mlp", self.mlp, 1.0, 10.0)?;
        check("activity", self.activity, 0.4, 1.4)?;
        Ok(())
    }

    /// Replaces any field outside its calibrated range (or non-finite) with
    /// the corresponding field of `fallback`.
    ///
    /// This is the same reject-don't-coerce stance `metrics.rs` takes for
    /// NaN, adapted for a path where panicking is not acceptable: a derived
    /// profile (phase drift, perturbation) that escapes the calibrated space
    /// is resampled from the known-good base rather than silently clamped to
    /// a boundary the models were never validated at.
    #[must_use]
    pub fn rejecting_out_of_range(mut self, fallback: &AppProfile) -> AppProfile {
        fn guard(v: &mut f64, fb: f64, lo: f64, hi: f64) {
            if !v.is_finite() || *v < lo || *v > hi {
                *v = fb;
            }
        }
        let f = fallback;
        guard(&mut self.ilp, f.ilp, 0.2, 6.0);
        guard(&mut self.fe_sensitivity, f.fe_sensitivity, 0.0, 1.0);
        guard(&mut self.be_sensitivity, f.be_sensitivity, 0.0, 1.0);
        guard(&mut self.ls_sensitivity, f.ls_sensitivity, 0.0, 1.0);
        guard(&mut self.mem_fraction, f.mem_fraction, 0.05, 0.6);
        guard(&mut self.l1_miss_rate, f.l1_miss_rate, 0.005, 0.6);
        guard(&mut self.llc_miss_floor, f.llc_miss_floor, 0.0, 0.95);
        guard(
            &mut self.llc_working_set_ways,
            f.llc_working_set_ways,
            0.1,
            16.0,
        );
        guard(&mut self.mlp, f.mlp, 1.0, 10.0);
        guard(&mut self.activity, f.activity, 0.4, 1.4);
        self
    }

    /// LLC miss ratio when the job holds `ways` ways.
    ///
    /// The curve is the classic exponential working-set model:
    /// `floor + (1 - floor) · exp(-ways / scale)` — convex and decreasing in
    /// the allocation, so extra ways always help but with diminishing
    /// returns.
    pub fn llc_miss_rate(&self, ways: f64) -> f64 {
        let span = 1.0 - self.llc_miss_floor;
        (self.llc_miss_floor + span * (-ways / self.llc_working_set_ways).exp()).clamp(0.0, 1.0)
    }

    /// LLC accesses per instruction (memory ops that miss the private
    /// caches).
    pub fn llc_accesses_per_instr(&self) -> f64 {
        self.mem_fraction * self.l1_miss_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_profiles_validate() {
        AppProfile::balanced().validate().unwrap();
        AppProfile::compute_bound().validate().unwrap();
        AppProfile::memory_bound().validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let mut p = AppProfile::balanced();
        p.ilp = 9.0;
        assert!(p.validate().is_err());
        let mut p = AppProfile::balanced();
        p.mem_fraction = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn out_of_range_fields_and_only_those_fall_back() {
        // Every field of the fallback differs from the drifted profile's,
        // so the result shows field by field where each value came from.
        let fallback = AppProfile::memory_bound();
        let mut drifted = AppProfile::balanced();
        drifted.ilp = 9.0; // above calibrated range
        drifted.l1_miss_rate = f64::NAN;
        drifted.activity = 1.1; // fine — must survive untouched

        let fixed = drifted.rejecting_out_of_range(&fallback);
        assert_eq!(
            fixed,
            AppProfile {
                ilp: fallback.ilp,
                l1_miss_rate: fallback.l1_miss_rate,
                ..drifted
            },
            "exactly the out-of-range and NaN fields are resampled"
        );
        assert!(fixed.validate().is_ok());

        // An already-valid profile passes through unchanged.
        let base = AppProfile::balanced();
        assert_eq!(base.rejecting_out_of_range(&fallback), base);
    }

    #[test]
    fn miss_curve_is_monotonically_decreasing() {
        let p = AppProfile::memory_bound();
        let mut prev = p.llc_miss_rate(0.0);
        for i in 1..=32 {
            let m = p.llc_miss_rate(i as f64);
            assert!(m <= prev + 1e-12, "miss rate must not increase with ways");
            prev = m;
        }
    }

    #[test]
    fn miss_curve_approaches_floor() {
        let p = AppProfile::balanced();
        assert!((p.llc_miss_rate(1000.0) - p.llc_miss_floor).abs() < 1e-9);
        assert!(p.llc_miss_rate(0.0) <= 1.0);
    }

    #[test]
    fn llc_accesses_scale_with_memory_intensity() {
        assert!(
            AppProfile::memory_bound().llc_accesses_per_instr()
                > AppProfile::compute_bound().llc_accesses_per_instr()
        );
    }
}
