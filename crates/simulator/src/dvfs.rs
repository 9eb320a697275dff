//! DVFS substrate: voltage/frequency operating points for fixed cores.
//!
//! The paper's motivation (§I, §II-A1) rests on DVFS losing steam as
//! technology scales: "the movement towards processors with razor-thin
//! voltage margins and the increase in leakage power consumption limit the
//! effectiveness of DVFS", while reconfigurable cores gate *capacity* and
//! therefore cut both dynamic and leakage power. This module models a
//! realistic DVFS ladder so that claim can be evaluated quantitatively
//! (see the `paper pareto` experiment): above a voltage knee,
//! frequency scales with voltage (cubic dynamic-power savings); below it,
//! voltage has hit its margin floor and frequency scaling turns linear —
//! the "limited voltage scaling range" regime.

use crate::config::{CacheAlloc, CoreConfig};
use crate::metrics::{Bips, Watts};
use crate::params::SystemParams;
use crate::perf::PerfModel;
use crate::power::{CoreKind, PowerModel};
use crate::profile::AppProfile;

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsState {
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Supply voltage relative to nominal.
    pub voltage_ratio: f64,
}

impl DvfsState {
    /// Dynamic-power multiplier relative to the nominal point: `f·V²`.
    pub fn dynamic_scale(&self, nominal_ghz: f64) -> f64 {
        (self.frequency_ghz / nominal_ghz) * self.voltage_ratio * self.voltage_ratio
    }

    /// Leakage multiplier relative to nominal: leakage tracks voltage
    /// roughly linearly in the near-threshold-adjacent regime.
    pub fn leakage_scale(&self) -> f64 {
        self.voltage_ratio
    }
}

/// A ladder of DVFS operating points for one core, highest first.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsLadder {
    nominal_ghz: f64,
    states: Vec<DvfsState>,
}

impl DvfsLadder {
    /// A modern-process ladder: frequency steps of 0.25 GHz from nominal
    /// down to half-nominal, with voltage scaling `V/V₀ = 0.55 + 0.45·f/f₀`
    /// *clamped at a 0.88 margin floor* — at 22 nm with a 0.8 V nominal
    /// supply, Vmin guardbands leave roughly 0.7 V, i.e. ~0.88 of nominal.
    /// Points below the knee save only linear (frequency) dynamic power and
    /// no leakage, which is exactly the razor-thin-margin effect the paper
    /// describes.
    pub fn modern(params: &SystemParams) -> DvfsLadder {
        let nominal = params.frequency_ghz;
        let mut states = Vec::new();
        let mut f = nominal;
        while f >= nominal * 0.5 - 1e-9 {
            let unclamped = 0.55 + 0.45 * f / nominal;
            states.push(DvfsState {
                frequency_ghz: f,
                voltage_ratio: unclamped.max(0.88),
            });
            f -= 0.25;
        }
        DvfsLadder {
            nominal_ghz: nominal,
            states,
        }
    }

    /// An idealized wide-margin ladder (older process nodes): voltage
    /// scales all the way down with frequency, no floor. Used as the
    /// optimistic bound in the Pareto comparison.
    pub fn wide_margin(params: &SystemParams) -> DvfsLadder {
        let mut ladder = DvfsLadder::modern(params);
        for s in &mut ladder.states {
            s.voltage_ratio = 0.55 + 0.45 * s.frequency_ghz / ladder.nominal_ghz;
        }
        ladder
    }

    /// Nominal frequency in GHz.
    pub fn nominal_ghz(&self) -> f64 {
        self.nominal_ghz
    }

    /// Operating points, highest frequency first.
    pub fn states(&self) -> &[DvfsState] {
        &self.states
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the ladder is empty (never, for the built-in constructors).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Performance and power of one core at a DVFS operating point.
///
/// Frequency changes what a "cycle" means for the memory system: DRAM
/// latency in nanoseconds is fixed, so at lower frequency the *cycle* cost
/// of a miss shrinks — memory-bound applications lose much less performance
/// from down-clocking than compute-bound ones, which is why maxBIPS-style
/// allocators prefer to down-clock them first.
#[derive(Debug, Clone, Copy)]
pub struct DvfsModel {
    params: SystemParams,
    power: PowerModel,
}

impl DvfsModel {
    /// Builds the model for conventional fixed cores (DVFS is the
    /// alternative knob to reconfiguration, not an addition to it here).
    pub fn new(params: SystemParams) -> DvfsModel {
        DvfsModel {
            params,
            power: PowerModel::new(params, CoreKind::Fixed),
        }
    }

    /// IPC at `state`, accounting for the frequency-dependent memory-stall
    /// cost.
    pub fn ipc(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        cache: CacheAlloc,
        state: DvfsState,
    ) -> f64 {
        // Memory latencies in cycles scale with frequency; rebuild a
        // parameter set at the target frequency.
        let f_ratio = state.frequency_ghz / self.params.frequency_ghz;
        let scaled = SystemParams {
            llc_latency_cycles: self.params.llc_latency_cycles * f_ratio,
            dram_latency_cycles: self.params.dram_latency_cycles * f_ratio,
            ..self.params
        };
        PerfModel::new(scaled).ipc(app, config, cache.ways(), 0.0)
    }

    /// Throughput at `state` in BIPS.
    pub fn bips(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        cache: CacheAlloc,
        state: DvfsState,
    ) -> Bips {
        Bips::new(self.ipc(app, config, cache, state) * state.frequency_ghz)
    }

    /// Core power at `state` in Watts: dynamic scaled by `f·V²`, leakage by
    /// `V`, evaluated through the same calibrated power model as the
    /// reconfiguration experiments.
    pub fn watts(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        cache: CacheAlloc,
        state: DvfsState,
    ) -> Watts {
        let ipc = self.ipc(app, config, cache, state);
        // Split the nominal-point power into dynamic and leakage by
        // evaluating the model at zero activity (leakage + idle dynamic).
        let total = self.power.core_watts(app, config, ipc).get();
        let idle = self.power.core_watts(app, config, 0.0).get();
        // Treat the idle draw as ~60% leakage / 40% clock-tree dynamic.
        let leakage = idle * 0.6;
        let dynamic = total - leakage;
        Watts::new(
            dynamic * state.dynamic_scale(self.params.frequency_ghz)
                + leakage * state.leakage_scale(),
        )
    }

    /// The `(bips, watts)` trade-off curve of one application across the
    /// ladder, at a fixed (widest) core configuration.
    pub fn frontier(
        &self,
        app: &AppProfile,
        cache: CacheAlloc,
        ladder: &DvfsLadder,
    ) -> Vec<(f64, f64)> {
        ladder
            .states()
            .iter()
            .map(|&s| {
                (
                    self.bips(app, CoreConfig::widest(), cache, s).get(),
                    self.watts(app, CoreConfig::widest(), cache, s).get(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DvfsModel, DvfsLadder, DvfsLadder) {
        let params = SystemParams::default();
        (
            DvfsModel::new(params),
            DvfsLadder::modern(&params),
            DvfsLadder::wide_margin(&params),
        )
    }

    #[test]
    fn ladder_spans_half_to_nominal() {
        let (_, modern, _) = setup();
        assert_eq!(modern.states()[0].frequency_ghz, 4.0);
        assert!(modern.states().last().unwrap().frequency_ghz >= 2.0 - 1e-9);
        assert!(modern.len() >= 8);
        assert!(!modern.is_empty());
    }

    #[test]
    fn modern_ladder_hits_the_voltage_floor() {
        let (_, modern, wide) = setup();
        let lowest_modern = modern.states().last().unwrap();
        let lowest_wide = wide.states().last().unwrap();
        assert_eq!(lowest_modern.voltage_ratio, 0.88, "margin floor must bind");
        assert!(
            lowest_wide.voltage_ratio < 0.88,
            "wide-margin ladder keeps scaling"
        );
    }

    #[test]
    fn downclocking_saves_power_and_costs_performance() {
        let (model, modern, _) = setup();
        let app = AppProfile::balanced();
        let hi = modern.states()[0];
        let lo = *modern.states().last().unwrap();
        let b_hi = model
            .bips(&app, CoreConfig::widest(), CacheAlloc::Two, hi)
            .get();
        let b_lo = model
            .bips(&app, CoreConfig::widest(), CacheAlloc::Two, lo)
            .get();
        let w_hi = model
            .watts(&app, CoreConfig::widest(), CacheAlloc::Two, hi)
            .get();
        let w_lo = model
            .watts(&app, CoreConfig::widest(), CacheAlloc::Two, lo)
            .get();
        assert!(b_hi > b_lo);
        assert!(w_hi > w_lo);
    }

    #[test]
    fn memory_bound_apps_lose_less_from_downclocking() {
        let (model, modern, _) = setup();
        let lo = *modern.states().last().unwrap();
        let hi = modern.states()[0];
        let ratio = |app: &AppProfile| {
            model
                .bips(app, CoreConfig::widest(), CacheAlloc::Two, lo)
                .get()
                / model
                    .bips(app, CoreConfig::widest(), CacheAlloc::Two, hi)
                    .get()
        };
        assert!(
            ratio(&AppProfile::memory_bound()) > ratio(&AppProfile::compute_bound()),
            "memory-bound should retain more throughput at low frequency"
        );
    }

    #[test]
    fn wide_margins_save_more_power_at_the_bottom() {
        let (model, modern, wide) = setup();
        let app = AppProfile::balanced();
        let lo_m = *modern.states().last().unwrap();
        let lo_w = *wide.states().last().unwrap();
        let w_m = model
            .watts(&app, CoreConfig::widest(), CacheAlloc::Two, lo_m)
            .get();
        let w_w = model
            .watts(&app, CoreConfig::widest(), CacheAlloc::Two, lo_w)
            .get();
        assert!(
            w_w < w_m,
            "the voltage floor must cost power at the ladder bottom"
        );
    }

    #[test]
    fn frontier_is_monotone_in_the_ladder() {
        let (model, modern, _) = setup();
        let front = model.frontier(&AppProfile::balanced(), CacheAlloc::Two, &modern);
        assert_eq!(front.len(), modern.len());
        for pair in front.windows(2) {
            assert!(pair[0].0 >= pair[1].0, "bips decreases down the ladder");
            assert!(pair[0].1 >= pair[1].1, "watts decreases down the ladder");
        }
    }
}
