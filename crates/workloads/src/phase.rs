//! Application phase behaviour.
//!
//! Real applications drift through execution phases, so a 1 ms profiling
//! sample is not perfectly representative of the following 100 ms timeslice —
//! the paper names this as one of the two sources of increased runtime
//! prediction error in Fig. 5(b). A [`PhasedProfile`] wraps a base
//! [`AppProfile`] with slow, seeded sinusoidal modulation of its
//! performance-relevant parameters.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simulator::AppProfile;

/// A profile whose behaviour drifts over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasedProfile {
    /// The time-averaged profile.
    pub base: AppProfile,
    /// Relative modulation amplitude applied to ILP and memory intensity.
    pub amplitude: f64,
    /// Phase period in seconds.
    pub period_s: f64,
    /// Initial phase offset in radians.
    pub phase_offset: f64,
}

impl PhasedProfile {
    /// Wraps a profile with drift parameters drawn from `seed`: amplitude in
    /// `[0.04, 0.12]`, period in `[0.15 s, 0.6 s]` so several phases occur
    /// within a one-second experiment.
    pub fn with_seed(base: AppProfile, seed: u64) -> PhasedProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        PhasedProfile {
            base,
            amplitude: rng.random_range(0.04..0.12),
            period_s: rng.random_range(0.15..0.6),
            phase_offset: rng.random_range(0.0..std::f64::consts::TAU),
        }
    }

    /// A drift-free wrapper (useful to disable phases in ablations).
    pub fn steady(base: AppProfile) -> PhasedProfile {
        PhasedProfile {
            base,
            amplitude: 0.0,
            period_s: 1.0,
            phase_offset: 0.0,
        }
    }

    /// The instantaneous profile at time `t_s`.
    ///
    /// Modulates ILP (inversely) and memory intensity: a "memory phase" has
    /// lower ILP and more LLC traffic, which is how phases move both the
    /// performance and power rows the reconstruction learned from profiling.
    ///
    /// A modulated field that escapes its calibrated range (possible only
    /// for a base profile already near a boundary) is rejected and resampled
    /// from the base via [`AppProfile::rejecting_out_of_range`] — the models
    /// were never validated at clamped boundary values.
    pub fn at(&self, t_s: f64) -> AppProfile {
        if self.amplitude == 0.0 {
            return self.base;
        }
        let s = (std::f64::consts::TAU * t_s / self.period_s + self.phase_offset).sin();
        let mut p = self.base;
        p.ilp *= 1.0 - self.amplitude * s;
        p.l1_miss_rate *= 1.0 + self.amplitude * s;
        p.activity *= 1.0 + 0.5 * self.amplitude * s;
        p.rejecting_out_of_range(&self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_profile_never_moves() {
        let p = PhasedProfile::steady(AppProfile::balanced());
        assert_eq!(p.at(0.0), p.at(0.37));
    }

    #[test]
    fn phased_profile_oscillates_and_stays_valid() {
        let p = PhasedProfile::with_seed(AppProfile::memory_bound(), 5);
        let mut distinct = 0;
        let p0 = p.at(0.0);
        for i in 1..20 {
            let pi = p.at(i as f64 * 0.05);
            pi.validate().expect("drifted profile must stay valid");
            if pi != p0 {
                distinct += 1;
            }
        }
        assert!(distinct > 10, "profile should actually drift");
    }

    #[test]
    fn drift_is_bounded_by_amplitude() {
        let p = PhasedProfile::with_seed(AppProfile::balanced(), 9);
        for i in 0..100 {
            let pi = p.at(i as f64 * 0.01);
            let rel = (pi.ilp - p.base.ilp).abs() / p.base.ilp;
            assert!(rel <= p.amplitude + 1e-9);
        }
    }

    #[test]
    fn drift_past_a_calibrated_boundary_rejects_to_base() {
        let mut base = AppProfile::balanced();
        base.ilp = 5.8; // only 3% headroom under the calibrated 6.0 ceiling
        let p = PhasedProfile {
            base,
            amplitude: 0.12,
            period_s: 0.4,
            phase_offset: 0.0,
        };
        // At t = 3/4 period the sine is -1, so ILP would modulate to
        // 5.8 · 1.12 = 6.5: out of range, so the field falls back to base.
        let pi = p.at(0.3);
        assert_eq!(pi.ilp, base.ilp, "escaped field must resample from base");
        pi.validate().expect("rejected profile is valid again");
    }

    #[test]
    fn seeds_give_different_phases() {
        let a = PhasedProfile::with_seed(AppProfile::balanced(), 1);
        let b = PhasedProfile::with_seed(AppProfile::balanced(), 2);
        assert_ne!(a.phase_offset, b.phase_offset);
    }
}
