//! Chip-level parameters (the paper's Table I) plus the calibration constants
//! of the analytic performance and power models.

/// Parameters of the simulated system.
///
/// Defaults reproduce Table I of the paper: a 32-core chip at 4 GHz in 22 nm
/// with a shared 32-way 64 MB LLC, 20-cycle L2 and 200-cycle DRAM access
/// latency, plus the AnyCore-derived reconfiguration overheads of §VII
/// (1.67 % frequency and 18 % energy penalty per cycle; the 19 % area
/// penalty has no model to feed and is not carried).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Number of cores on the chip.
    pub num_cores: usize,
    /// Nominal clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Associativity of the shared LLC (ways available for partitioning).
    pub llc_ways: u32,
    /// LLC hit latency in cycles.
    pub llc_latency_cycles: f64,
    /// DRAM access latency in cycles.
    pub dram_latency_cycles: f64,
    /// Peak off-chip memory bandwidth, expressed in giga-accesses per second
    /// the memory system can sustain before contention queues build up.
    pub memory_bandwidth_gaps: f64,
    /// Relative frequency penalty of reconfigurable cores vs. fixed cores
    /// (AnyCore RTL analysis; 0.0167 = 1.67 %).
    pub reconfig_frequency_penalty: f64,
    /// Relative energy-per-cycle penalty of reconfigurable cores vs. fixed
    /// cores (0.18 = 18 %).
    pub reconfig_energy_penalty: f64,
    /// Residual power of a core parked in the deepest gated state (C6), in
    /// Watts.
    pub gated_core_watts: f64,
    /// Pipeline drain + array power-gating time when a core changes
    /// configuration, in microseconds. AnyCore-style section gating costs
    /// on the order of microseconds; the testbed charges it to every core
    /// whose configuration differs from the previous frame.
    pub reconfig_transition_us: f64,
}

impl SystemParams {
    /// The 16-core homogeneous system used for the §III characterization
    /// (Fig. 1) and for finding each service's maximum load.
    pub fn paper_16core() -> SystemParams {
        SystemParams {
            num_cores: 16,
            ..SystemParams::default()
        }
    }

    /// Effective clock frequency of a reconfigurable core in GHz, after the
    /// AnyCore frequency penalty.
    pub fn reconfig_frequency_ghz(&self) -> f64 {
        self.frequency_ghz * (1.0 - self.reconfig_frequency_penalty)
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            num_cores: 32,
            frequency_ghz: 4.0,
            llc_ways: 32,
            llc_latency_cycles: 20.0,
            dram_latency_cycles: 200.0,
            memory_bandwidth_gaps: 4.0,
            reconfig_frequency_penalty: 0.0167,
            reconfig_energy_penalty: 0.18,
            gated_core_watts: 0.05,
            reconfig_transition_us: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let p = SystemParams::default();
        assert_eq!(p.num_cores, 32);
        assert_eq!(p.frequency_ghz, 4.0);
        assert_eq!(p.llc_ways, 32);
        assert_eq!(p.dram_latency_cycles, 200.0);
        assert_eq!(p.llc_latency_cycles, 20.0);
    }

    #[test]
    fn reconfig_frequency_applies_anycore_penalty() {
        let p = SystemParams::default();
        let f = p.reconfig_frequency_ghz();
        assert!(f < p.frequency_ghz);
        assert!((f - 4.0 * (1.0 - 0.0167)).abs() < 1e-12);
    }

    #[test]
    fn sixteen_core_variant_only_changes_core_count() {
        let p16 = SystemParams::paper_16core();
        assert_eq!(p16.num_cores, 16);
        assert_eq!(p16.frequency_ghz, SystemParams::default().frequency_ghz);
    }
}
