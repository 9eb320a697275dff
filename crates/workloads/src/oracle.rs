//! Ground-truth per-(job, configuration) tables.
//!
//! The oracle exhaustively evaluates the simulator across all 108 job
//! configurations. It serves three distinct roles, mirroring the paper:
//!
//! 1. **Offline characterization** of the "known" training applications that
//!    seed the reconstruction matrices (§V): the paper ran these once,
//!    offline, on the real simulator; we call the analytic models directly.
//! 2. **Accuracy ground truth** for Fig. 5/9: predictions are compared
//!    against these tables.
//! 3. **Oracle baselines** (§VII-C): the oracle-like asymmetric multicore is
//!    defined as having perfect knowledge, which is exactly these tables.
//!
//! Rows are *uncontended* (single job, no co-runners): that is what isolated
//! offline characterization measures, and the gap to contended execution is
//! precisely the runtime error source the paper discusses in Fig. 5(b).
//!
//! No runtime decision may read these rows: `crates/clippy.toml` bans every
//! row reader, and each caller in one of the three roles carries an
//! item-level `#[allow(clippy::disallowed_methods, reason = "…")]`.

use simulator::{AppProfile, Chip, JobConfig};

use crate::latency::LcService;
use crate::queueing::MmcQueue;

/// Exhaustive ground-truth evaluator for one chip.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    chip: Chip,
}

#[allow(
    clippy::disallowed_methods,
    reason = "the oracle composes its own rows; the ban is on its callers"
)]
impl Oracle {
    /// Creates an oracle over `chip` (the chip's core kind determines
    /// whether rows include the reconfigurable-core taxes).
    pub fn new(chip: Chip) -> Oracle {
        Oracle { chip }
    }

    /// The chip being evaluated.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Per-core throughput (BIPS) of `app` in every job configuration,
    /// indexed by [`JobConfig::index`].
    pub fn bips_row(&self, app: &AppProfile) -> Vec<f64> {
        JobConfig::all()
            .map(|jc| {
                self.chip
                    .core_bips(app, jc.core, jc.cache.ways(), 0.0)
                    .get()
            })
            .collect()
    }

    /// Per-core power (Watts, core plus LLC share) of `app` in every job
    /// configuration.
    pub fn power_row(&self, app: &AppProfile) -> Vec<f64> {
        JobConfig::all()
            .map(|jc| {
                let ipc = self.chip.perf().ipc(app, jc.core, jc.cache.ways(), 0.0);
                let bips = self.chip.core_bips(app, jc.core, jc.cache.ways(), 0.0);
                self.chip
                    .power()
                    .job_core_watts(app, jc.core, jc.cache, ipc, bips)
                    .get()
            })
            .collect()
    }

    /// 99th-percentile latency (ms) of `service` on `cores` cores at `load`
    /// (fraction of its max QPS) in every job configuration: the
    /// [`service_rates`](Oracle::service_rates) queued at the load's arrival
    /// rate by [`tail_row_at_rates`](Oracle::tail_row_at_rates).
    pub fn tail_row(&self, service: &LcService, cores: usize, load: f64) -> Vec<f64> {
        Oracle::tail_row_at_rates(service, &self.service_rates(service), cores, load)
    }

    /// Uncontended per-core service rate (requests per millisecond) of
    /// `service` in every job configuration. It does not depend on the
    /// load, so a caller that queues one service at many loads computes it
    /// once.
    pub fn service_rates(&self, service: &LcService) -> Vec<f64> {
        let perf = self.chip.perf();
        let reference = service.reference_ipc(perf);
        JobConfig::all()
            .map(|jc| service.service_rate_against(perf, jc.core, jc.cache, 0.0, reference))
            .collect()
    }

    /// 99th-percentile latency (ms) of `service` on `cores` cores at `load`
    /// for each per-core service rate of `rates` (as from
    /// [`service_rates`](Oracle::service_rates)).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or a rate is not positive and finite.
    pub fn tail_row_at_rates(
        service: &LcService,
        rates: &[f64],
        cores: usize,
        load: f64,
    ) -> Vec<f64> {
        let arrival = service.arrival_rate_per_ms(load);
        rates
            .iter()
            .map(|&mu| MmcQueue::new(cores, mu, arrival).p99_ms().get())
            .collect()
    }

    /// Single-configuration lookups, convenient for spot checks.
    pub fn bips_at(&self, app: &AppProfile, config: JobConfig) -> f64 {
        self.chip
            .core_bips(app, config.core, config.cache.ways(), 0.0)
            .get()
    }

    /// Per-core power of `app` at one configuration.
    pub fn power_at(&self, app: &AppProfile, config: JobConfig) -> f64 {
        let ipc = self
            .chip
            .perf()
            .ipc(app, config.core, config.cache.ways(), 0.0);
        let bips = self
            .chip
            .core_bips(app, config.core, config.cache.ways(), 0.0);
        self.chip
            .power()
            .job_core_watts(app, config.core, config.cache, ipc, bips)
            .get()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests check the oracle's own rows"
)]
mod tests {
    use super::*;
    use crate::latency;
    use simulator::power::CoreKind;
    use simulator::SystemParams;

    fn oracle() -> Oracle {
        Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable))
    }

    #[test]
    fn rows_have_108_entries() {
        let o = oracle();
        let app = AppProfile::balanced();
        assert_eq!(o.bips_row(&app).len(), 108);
        assert_eq!(o.power_row(&app).len(), 108);
        let svc = latency::service_by_name("xapian").unwrap();
        assert_eq!(o.tail_row(&svc, 16, 0.8).len(), 108);
    }

    #[test]
    fn profiling_extremes_bracket_the_row() {
        let o = oracle();
        let app = AppProfile::balanced();
        let row = o.bips_row(&app);
        let hi = row[JobConfig::profiling_high().index()];
        let lo = row[JobConfig::profiling_low().index()];
        assert!(hi > lo);
        // The widest core with 4 ways must be the global max.
        let max = row.iter().cloned().fold(0.0, f64::max);
        let widest_4w = row[JobConfig::all().last().unwrap().index()];
        assert!((max - widest_4w).abs() < 1e-12);
    }

    #[test]
    fn rows_match_spot_lookups() {
        let o = oracle();
        let app = AppProfile::memory_bound();
        let row = o.power_row(&app);
        let jc = JobConfig::from_index(37);
        assert!((row[37] - o.power_at(&app, jc)).abs() < 1e-12);
    }

    #[test]
    fn fixed_chip_rows_differ_from_reconfigurable() {
        let params = SystemParams::default();
        let reconf = Oracle::new(Chip::new(params, CoreKind::Reconfigurable));
        let fixed = Oracle::new(Chip::new(params, CoreKind::Fixed));
        let app = AppProfile::balanced();
        assert!(fixed.bips_row(&app)[0] > reconf.bips_row(&app)[0]);
        assert!(fixed.power_row(&app)[0] < reconf.power_row(&app)[0]);
    }

    #[test]
    fn tail_row_is_load_sensitive() {
        let o = oracle();
        let svc = latency::service_by_name("silo").unwrap();
        let lo = o.tail_row(&svc, 16, 0.2);
        let hi = o.tail_row(&svc, 16, 0.9);
        let idx = JobConfig::profiling_high().index();
        assert!(hi[idx] > lo[idx]);
    }
}
