//! Analytic per-core and chip power model (the McPAT v1.3 stand-in).
//!
//! Each pipeline section contributes dynamic power — superlinear in its
//! active width and proportional to switching activity — and leakage power,
//! mostly proportional to the non-gated area. Reconfigurable cores pay the
//! AnyCore 18 % energy-per-cycle tax relative to fixed cores (§VII), which is
//! exactly why CuttleSys loses to fixed-core designs at the relaxed 90 %
//! power cap and wins below it. Gated cores (C6) draw a small residual.

use crate::config::{CacheAlloc, CoreConfig, Section, SectionWidth};
use crate::metrics::{Bips, Watts};
use crate::params::SystemParams;
use crate::profile::AppProfile;

/// Whether cores on the chip are reconfigurable (pay the AnyCore overheads)
/// or conventional fixed cores (baseline designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Section-gated reconfigurable core: +18 % energy, −1.67 % frequency.
    Reconfigurable,
    /// Conventional fixed core, as in the gating and asymmetric baselines.
    Fixed,
}

/// Calibration constants of the power model, in Watts at 22 nm / 4 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCalibration {
    /// Peak dynamic power of each six-wide section at activity 1.0:
    /// `[FE, BE, LS]`.
    pub section_dynamic: [f64; 3],
    /// Leakage power of each fully powered six-wide section: `[FE, BE, LS]`.
    pub section_leakage: [f64; 3],
    /// Dynamic power of per-core structures that never scale (L1 caches,
    /// TLBs, clocking).
    pub uncore_dynamic: f64,
    /// Leakage of the non-scalable per-core structures.
    pub uncore_leakage: f64,
    /// Exponent of dynamic power in section width. Multi-ported register
    /// files, wakeup/select logic, and bypass networks grow super-linearly
    /// (toward quadratically) in issue width — the physical basis of
    /// Flicker-style adaptation, where narrowing an unneeded section saves
    /// far more power than performance.
    pub width_exponent: f64,
    /// Fraction of a section's leakage that survives gating (always-on
    /// control and retention).
    pub leakage_floor: f64,
    /// Leakage per allocated LLC way, in Watts.
    pub llc_way_leakage: f64,
    /// Dynamic LLC energy per giga-access per second of traffic, in Watts.
    pub llc_dynamic_per_gaps: f64,
    /// Fraction of peak activity drawn when a section is stalled.
    pub idle_activity: f64,
}

impl Default for PowerCalibration {
    fn default() -> Self {
        PowerCalibration {
            section_dynamic: [1.4, 1.9, 1.0],
            section_leakage: [0.30, 0.40, 0.22],
            uncore_dynamic: 0.40,
            uncore_leakage: 0.25,
            width_exponent: 2.0,
            leakage_floor: 0.15,
            llc_way_leakage: 0.08,
            llc_dynamic_per_gaps: 0.35,
            idle_activity: 0.30,
        }
    }
}

/// The chip power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    params: SystemParams,
    cal: PowerCalibration,
    kind: CoreKind,
}

impl PowerModel {
    /// Creates a model for the given core kind with default calibration.
    pub fn new(params: SystemParams, kind: CoreKind) -> PowerModel {
        PowerModel {
            params,
            cal: PowerCalibration::default(),
            kind,
        }
    }

    /// The kind of cores this model prices.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Energy tax multiplier relative to a fixed core.
    fn energy_tax(&self) -> f64 {
        match self.kind {
            CoreKind::Reconfigurable => 1.0 + self.params.reconfig_energy_penalty,
            CoreKind::Fixed => 1.0,
        }
    }

    /// Activity factor given achieved IPC: stalled cores still clock and
    /// draw the idle fraction, busy cores approach the application's peak
    /// activity.
    fn activity_factor(&self, app: &AppProfile, ipc: f64) -> f64 {
        let utilization = (ipc / 4.0).clamp(0.0, 1.0);
        app.activity * (self.cal.idle_activity + (1.0 - self.cal.idle_activity) * utilization)
    }

    fn section_widths(config: CoreConfig) -> [SectionWidth; 3] {
        [config.fe, config.be, config.ls]
    }

    /// Power of one active core running `app` at the given configuration and
    /// achieved IPC.
    ///
    /// `ipc` should come from [`crate::PerfModel::ipc`] for the same
    /// configuration; dynamic power scales with it through the activity
    /// factor.
    pub fn core_watts(&self, app: &AppProfile, config: CoreConfig, ipc: f64) -> Watts {
        let af = self.activity_factor(app, ipc);
        let mut dynamic = self.cal.uncore_dynamic * af;
        let mut leakage = self.cal.uncore_leakage;
        for (i, _section) in Section::ALL.iter().enumerate() {
            let width = Self::section_widths(config)[i];
            dynamic +=
                self.cal.section_dynamic[i] * width.fraction().powf(self.cal.width_exponent) * af;
            leakage += self.cal.section_leakage[i]
                * (self.cal.leakage_floor + (1.0 - self.cal.leakage_floor) * width.fraction());
        }
        Watts::new((dynamic + leakage) * self.energy_tax())
    }

    /// Residual power of a core parked in C6.
    pub fn gated_core_watts(&self) -> Watts {
        Watts::new(self.params.gated_core_watts)
    }

    /// LLC power attributable to one job: leakage of its allocated ways plus
    /// dynamic energy for its off-chip traffic.
    pub fn llc_watts(&self, cache: CacheAlloc, traffic_gaps: f64) -> Watts {
        Watts::new(
            self.cal.llc_way_leakage * cache.ways()
                + self.cal.llc_dynamic_per_gaps * traffic_gaps.max(0.0),
        )
    }

    /// Power of one core running `app` including its LLC share; convenience
    /// for per-(job, config) oracle tables.
    pub fn job_core_watts(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        cache: CacheAlloc,
        ipc: f64,
        bips: Bips,
    ) -> Watts {
        let traffic = bips.get() * app.llc_accesses_per_instr() * app.llc_miss_rate(cache.ways());
        self.core_watts(app, config, ipc) + self.llc_watts(cache, traffic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheAlloc;
    use crate::perf::PerfModel;

    fn models() -> (PerfModel, PowerModel, PowerModel) {
        let params = SystemParams::default();
        (
            PerfModel::new(params),
            PowerModel::new(params, CoreKind::Reconfigurable),
            PowerModel::new(params, CoreKind::Fixed),
        )
    }

    #[test]
    fn narrower_configs_draw_less_power() {
        let (perf, power, _) = models();
        let app = AppProfile::balanced();
        let hi_ipc = perf.ipc(&app, CoreConfig::widest(), 1.0, 0.0);
        let lo_ipc = perf.ipc(&app, CoreConfig::narrowest(), 1.0, 0.0);
        let hi = power.core_watts(&app, CoreConfig::widest(), hi_ipc);
        let lo = power.core_watts(&app, CoreConfig::narrowest(), lo_ipc);
        assert!(hi.get() > lo.get());
    }

    #[test]
    fn power_monotone_in_width_at_fixed_ipc() {
        let (_, power, _) = models();
        let app = AppProfile::balanced();
        let mut prev = 0.0;
        for config in [
            CoreConfig::narrowest(),
            CoreConfig::new(SectionWidth::Four, SectionWidth::Four, SectionWidth::Four),
            CoreConfig::widest(),
        ] {
            let w = power.core_watts(&app, config, 1.5).get();
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn reconfigurable_pays_18_percent_tax() {
        let (_, reconf, fixed) = models();
        let app = AppProfile::balanced();
        let r = reconf.core_watts(&app, CoreConfig::widest(), 2.0).get();
        let f = fixed.core_watts(&app, CoreConfig::widest(), 2.0).get();
        assert!((r / f - 1.18).abs() < 1e-9);
    }

    #[test]
    fn gated_core_is_nearly_free() {
        let (_, power, _) = models();
        let app = AppProfile::balanced();
        let active = power.core_watts(&app, CoreConfig::narrowest(), 0.5).get();
        assert!(power.gated_core_watts().get() < active / 10.0);
    }

    #[test]
    fn higher_ipc_draws_more_dynamic_power() {
        let (_, power, _) = models();
        let app = AppProfile::balanced();
        let busy = power.core_watts(&app, CoreConfig::widest(), 4.0).get();
        let stalled = power.core_watts(&app, CoreConfig::widest(), 0.2).get();
        assert!(busy > stalled);
        // ...but the stalled core still draws idle power.
        assert!(stalled > 0.5);
    }

    #[test]
    fn llc_power_scales_with_ways_and_traffic() {
        let (_, power, _) = models();
        let quiet = power.llc_watts(CacheAlloc::Half, 0.0).get();
        let big = power.llc_watts(CacheAlloc::Four, 0.0).get();
        let busy = power.llc_watts(CacheAlloc::Four, 1.0).get();
        assert!(big > quiet);
        assert!(busy > big);
    }

    #[test]
    fn per_core_power_is_in_a_plausible_envelope() {
        // Fig. 1 shows ~20-60 W for 16 cores, i.e. roughly 1.5-4 W per core.
        let (perf, power, _) = models();
        for app in [
            AppProfile::balanced(),
            AppProfile::compute_bound(),
            AppProfile::memory_bound(),
        ] {
            let ipc = perf.ipc(&app, CoreConfig::widest(), 2.0, 0.0);
            let w = power.core_watts(&app, CoreConfig::widest(), ipc).get();
            assert!((1.0..8.0).contains(&w), "unexpected per-core power {w}");
        }
    }
}
