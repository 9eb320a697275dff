//! Analytic per-core performance model.
//!
//! Performance is modelled as a CPI stack in the style of interval analysis:
//! a base component set by the application's inherent ILP, one penalty term
//! per narrowed core section, and a memory component driven by the LLC miss
//! curve, DRAM latency, memory-level parallelism, and chip-wide bandwidth
//! contention. The constants are calibrated so the qualitative behaviour of
//! the paper's Fig. 1 holds: narrowing the section an application is
//! sensitive to collapses its throughput, other sections barely matter, and
//! extra LLC ways help exactly the jobs whose working set does not yet fit.

use crate::config::{CacheAlloc, CoreConfig, SectionWidth};
use crate::metrics::Bips;
use crate::params::SystemParams;
use crate::profile::AppProfile;

/// Calibration constants of the CPI stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfCalibration {
    /// Scale of the front-end narrowing penalty.
    pub k_fe: f64,
    /// Scale of the back-end narrowing penalty.
    pub k_be: f64,
    /// Scale of the load/store narrowing penalty.
    pub k_ls: f64,
    /// Exponent with which the load/store queue width scales effective MLP.
    pub ls_mlp_exponent: f64,
    /// Fraction of LLC hit latency that out-of-order execution cannot hide.
    pub llc_exposed_fraction: f64,
}

impl Default for PerfCalibration {
    fn default() -> Self {
        PerfCalibration {
            k_fe: 0.24,
            k_be: 0.28,
            k_ls: 0.20,
            ls_mlp_exponent: 0.7,
            llc_exposed_fraction: 0.35,
        }
    }
}

/// The analytic performance model for one chip.
///
/// The model is pure: every query is a function of the application profile,
/// the configuration, and the supplied contention factor, so it can be used
/// both by the chip simulator (ground truth) and by oracle baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    params: SystemParams,
    cal: PerfCalibration,
}

impl PerfModel {
    /// Creates a model with default calibration.
    pub fn new(params: SystemParams) -> PerfModel {
        PerfModel {
            cal: PerfCalibration::default(),
            params,
        }
    }

    /// The system parameters this model was built with.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Penalty CPI contributed by narrowing one section from six-wide.
    ///
    /// Zero at six-wide; convex in the narrowing (`6/lanes − 1` is 0.5 at
    /// four-wide and 2.0 at two-wide), scaled by the application's
    /// sensitivity to that section.
    fn section_penalty(scale: f64, sensitivity: f64, width: SectionWidth) -> f64 {
        let narrowing = 6.0 / f64::from(width.lanes()) - 1.0;
        scale * sensitivity * narrowing
    }

    /// The contention-free terms of `app`'s CPI stack on `config` with
    /// `ways` LLC ways: everything [`PerfModel::ipc`] computes before memory
    /// contention enters, once per core of a frame however often the
    /// frame's fixed point asks for its IPC.
    pub(crate) fn cpi_terms(&self, app: &AppProfile, config: CoreConfig, ways: f64) -> CpiTerms {
        let miss = app.llc_miss_rate(ways);
        // A narrower load/store queue tracks fewer outstanding misses, so it
        // degrades the MLP the application can exploit — in proportion to how
        // much the application leans on the LS queue in the first place.
        let mlp_exponent = self.cal.ls_mlp_exponent * app.ls_sensitivity;
        let hit_cycles = self.params.llc_latency_cycles * self.cal.llc_exposed_fraction;
        CpiTerms {
            core_cpi: 1.0 / app.ilp
                + Self::section_penalty(self.cal.k_fe, app.fe_sensitivity, config.fe)
                + Self::section_penalty(self.cal.k_be, app.be_sensitivity, config.be)
                + Self::section_penalty(
                    self.cal.k_ls,
                    app.ls_sensitivity * (app.mem_fraction / 0.3),
                    config.ls,
                ),
            apki: app.llc_accesses_per_instr(),
            miss,
            hit_cycles: (1.0 - miss) * hit_cycles,
            dram_latency_cycles: self.params.dram_latency_cycles,
            mlp_eff: (app.mlp * config.ls.fraction().powf(mlp_exponent)).max(1.0),
            fe_lanes: f64::from(config.fe.lanes()),
            be_lanes: f64::from(config.be.lanes()),
        }
    }

    /// Instructions per cycle for `app` on `config` with `ways` LLC ways and
    /// the given memory contention factor (0 = uncontended).
    ///
    /// The result is frequency-independent; combine with
    /// [`PerfModel::bips`] for throughput.
    pub fn ipc(&self, app: &AppProfile, config: CoreConfig, ways: f64, contention: f64) -> f64 {
        self.cpi_terms(app, config, ways).ipc(contention)
    }

    /// Throughput on a *reconfigurable* core (pays the AnyCore frequency
    /// penalty), in BIPS.
    pub fn bips(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        cache: CacheAlloc,
        contention: f64,
    ) -> Bips {
        let ipc = self.ipc(app, config, cache.ways(), contention);
        Bips::new(ipc * self.params.reconfig_frequency_ghz())
    }

    /// Off-chip traffic generated by `app` at the given throughput, in
    /// giga-accesses per second. Input to the bandwidth contention model.
    pub fn dram_traffic_gaps(&self, app: &AppProfile, bips: Bips, ways: f64) -> f64 {
        bips.get() * app.llc_accesses_per_instr() * app.llc_miss_rate(ways)
    }
}

/// One core's CPI stack up to memory contention ([`PerfModel::cpi_terms`]):
/// a base component set by the application's ILP plus the three section
/// penalties, and a memory component of exposed LLC hit latency plus DRAM
/// misses amortized over the effective memory-level parallelism, which
/// bandwidth contention inflates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CpiTerms {
    /// Base CPI plus the front-end, back-end and load/store penalties.
    core_cpi: f64,
    /// LLC accesses per instruction.
    apki: f64,
    /// LLC miss rate at the core's ways.
    miss: f64,
    /// Exposed LLC hit cycles per access, weighted by the hit rate.
    hit_cycles: f64,
    /// DRAM latency before contention, in cycles.
    dram_latency_cycles: f64,
    /// Effective memory-level parallelism.
    mlp_eff: f64,
    fe_lanes: f64,
    be_lanes: f64,
}

impl CpiTerms {
    /// Instructions per cycle under memory contention factor `contention`.
    pub(crate) fn ipc(&self, contention: f64) -> f64 {
        let dram_cycles = self.dram_latency_cycles * (1.0 + contention.max(0.0));
        let memory_cpi = self.apki * (self.hit_cycles + self.miss * dram_cycles / self.mlp_eff);
        let ipc = 1.0 / (self.core_cpi + memory_cpi);
        // Hard structural caps: the core cannot retire more micro-ops per
        // cycle than the narrowest of its fetch and issue widths.
        ipc.min(self.fe_lanes).min(self.be_lanes)
    }

    /// Off-chip traffic at throughput `bips`, as
    /// [`PerfModel::dram_traffic_gaps`] at the core's ways.
    pub(crate) fn dram_traffic_gaps(&self, bips: Bips) -> f64 {
        bips.get() * self.apki * self.miss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheAlloc, CoreConfig, SectionWidth};

    fn model() -> PerfModel {
        PerfModel::new(SystemParams::default())
    }

    #[test]
    fn widest_config_beats_narrowest_for_everyone() {
        let m = model();
        for app in [
            AppProfile::balanced(),
            AppProfile::compute_bound(),
            AppProfile::memory_bound(),
        ] {
            let hi = m.ipc(&app, CoreConfig::widest(), 4.0, 0.0);
            let lo = m.ipc(&app, CoreConfig::narrowest(), 4.0, 0.0);
            assert!(hi > lo, "widest must dominate narrowest");
        }
    }

    #[test]
    fn ipc_monotone_in_each_section() {
        let m = model();
        let app = AppProfile::balanced();
        for base in CoreConfig::all() {
            for section_idx in 0..3 {
                for w in 0..2 {
                    let mut lo_w = [base.fe, base.be, base.ls];
                    lo_w[section_idx] = SectionWidth::from_index(w);
                    let mut hi_w = lo_w;
                    hi_w[section_idx] = SectionWidth::from_index(w + 1);
                    let lo = m.ipc(&app, CoreConfig::new(lo_w[0], lo_w[1], lo_w[2]), 2.0, 0.0);
                    let hi = m.ipc(&app, CoreConfig::new(hi_w[0], hi_w[1], hi_w[2]), 2.0, 0.0);
                    assert!(hi >= lo - 1e-12);
                }
            }
        }
    }

    #[test]
    fn ipc_monotone_in_cache_ways() {
        let m = model();
        let app = AppProfile::memory_bound();
        let c = CoreConfig::widest();
        let mut prev = 0.0;
        for alloc in CacheAlloc::ALL {
            let ipc = m.ipc(&app, c, alloc.ways(), 0.0);
            assert!(ipc >= prev);
            prev = ipc;
        }
    }

    #[test]
    fn contention_hurts_memory_bound_more() {
        let m = model();
        let mem = AppProfile::memory_bound();
        let cpu = AppProfile::compute_bound();
        let c = CoreConfig::widest();
        let mem_drop = m.ipc(&mem, c, 2.0, 0.0) / m.ipc(&mem, c, 2.0, 2.0);
        let cpu_drop = m.ipc(&cpu, c, 2.0, 0.0) / m.ipc(&cpu, c, 2.0, 2.0);
        assert!(mem_drop > cpu_drop);
    }

    #[test]
    fn ipc_respects_structural_width_cap() {
        let m = model();
        let mut app = AppProfile::compute_bound();
        app.fe_sensitivity = 0.0;
        app.be_sensitivity = 0.0;
        app.ls_sensitivity = 0.0;
        let narrow = CoreConfig::new(SectionWidth::Two, SectionWidth::Two, SectionWidth::Six);
        assert!(m.ipc(&app, narrow, 4.0, 0.0) <= 2.0 + 1e-12);
    }

    #[test]
    fn reconfigurable_cores_pay_frequency_tax() {
        let m = model();
        let app = AppProfile::balanced();
        let r = m.bips(&app, CoreConfig::widest(), CacheAlloc::Four, 0.0);
        let nominal = m.ipc(&app, CoreConfig::widest(), CacheAlloc::Four.ways(), 0.0)
            * SystemParams::default().frequency_ghz;
        assert!((r.get() / nominal - (1.0 - 0.0167)).abs() < 1e-9);
    }

    #[test]
    fn ls_width_matters_most_for_memory_bound() {
        // Mirrors the Fig. 1 observation for Xapian: a memory-bound service
        // loses more from LS narrowing than from FE narrowing.
        let m = model();
        let app = AppProfile::memory_bound();
        let full = m.ipc(&app, CoreConfig::widest(), 4.0, 0.0);
        let ls2 = m.ipc(
            &app,
            CoreConfig::new(SectionWidth::Six, SectionWidth::Six, SectionWidth::Two),
            4.0,
            0.0,
        );
        let fe2 = m.ipc(
            &app,
            CoreConfig::new(SectionWidth::Two, SectionWidth::Six, SectionWidth::Six),
            4.0,
            0.0,
        );
        assert!(full - ls2 > full - fe2);
    }

    /// `ipc` through the hoisted terms, bit for bit against the CPI stack
    /// written out in one expression, in the order the terms were always
    /// added, over every configuration, four profiles, every allocation and
    /// contention below and above 0.
    #[test]
    fn ipc_is_the_cpi_stack_written_out_to_the_bit() {
        let m = model();
        let (cal, params) = (PerfCalibration::default(), SystemParams::default());
        let penalty = |scale: f64, sensitivity: f64, width: SectionWidth| {
            scale * sensitivity * (6.0 / f64::from(width.lanes()) - 1.0)
        };
        let mut odd = AppProfile::memory_bound();
        (odd.ilp, odd.mlp, odd.ls_sensitivity) = (1.7, 0.6, 0.9);
        for app in [
            AppProfile::balanced(),
            AppProfile::compute_bound(),
            AppProfile::memory_bound(),
            odd,
        ] {
            for config in CoreConfig::all() {
                for alloc in CacheAlloc::ALL {
                    for contention in [-0.5_f64, 0.0, 0.37, 2.0] {
                        let ways = alloc.ways();
                        let miss = app.llc_miss_rate(ways);
                        let mlp_eff = (app.mlp
                            * config
                                .ls
                                .fraction()
                                .powf(cal.ls_mlp_exponent * app.ls_sensitivity))
                        .max(1.0);
                        let dram_cycles = params.dram_latency_cycles * (1.0 + contention.max(0.0));
                        let memory_cpi = app.llc_accesses_per_instr()
                            * ((1.0 - miss)
                                * (params.llc_latency_cycles * cal.llc_exposed_fraction)
                                + miss * dram_cycles / mlp_eff);
                        let cpi = 1.0 / app.ilp
                            + penalty(cal.k_fe, app.fe_sensitivity, config.fe)
                            + penalty(cal.k_be, app.be_sensitivity, config.be)
                            + penalty(
                                cal.k_ls,
                                app.ls_sensitivity * (app.mem_fraction / 0.3),
                                config.ls,
                            )
                            + memory_cpi;
                        let want = (1.0 / cpi)
                            .min(f64::from(config.fe.lanes()))
                            .min(f64::from(config.be.lanes()));
                        let got = m.ipc(&app, config, ways, contention);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{config:?} {alloc:?} {contention}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dram_traffic_decreases_with_ways() {
        let m = model();
        let app = AppProfile::memory_bound();
        let b = Bips::new(2.0);
        assert!(m.dram_traffic_gaps(&app, b, 0.5) > m.dram_traffic_gaps(&app, b, 4.0));
    }
}
