//! The five TailBench-like latency-critical services.
//!
//! Each service couples a microarchitectural [`AppProfile`] (which drives
//! the simulator's per-core IPC for its request-processing threads) with a
//! queueing model (which turns per-core service capacity and offered load
//! into a 99th-percentile latency). Maximum sustainable loads follow §VII-A:
//! Xapian 22 kQPS, Masstree 17 kQPS, ImgDNN 8 kQPS, Moses 8 kQPS, Silo
//! 24 kQPS, each measured at the knee before saturation on a 16-core system.
//!
//! Section sensitivities encode the paper's Fig. 1 findings: Xapian's tail is
//! set by the load/store queue, Moses' by the front-end, and
//! ImgDNN/Silo/Masstree need wide FE *and* LS sections.

use simulator::{AppProfile, CacheAlloc, CoreConfig, Millis, PerfModel};

use crate::queueing::MmcQueue;

/// The number of cores the per-service maximum load was calibrated on.
pub const CALIBRATION_CORES: usize = 16;

/// Utilization at the saturation knee used to derive base service times.
pub const KNEE_UTILIZATION: f64 = 0.8;

/// A latency-critical interactive service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcService {
    /// Service name, e.g. `"xapian"`.
    pub name: &'static str,
    /// Microarchitectural profile of a request-serving thread.
    pub profile: AppProfile,
    /// Maximum sustainable load in queries per second on the 16-core
    /// calibration system (§VII-A).
    pub max_qps: f64,
    /// The QoS target on 99th-percentile latency, in milliseconds.
    pub qos_ms: f64,
}

impl LcService {
    /// Base per-request service time in milliseconds on the reference
    /// configuration ({6,6,6}, four LLC ways, uncontended), derived from the
    /// calibrated maximum load: at the knee, 16 cores at `KNEE_UTILIZATION`
    /// sustain `max_qps`.
    pub fn base_service_ms(&self) -> f64 {
        let max_per_ms = self.max_qps / 1000.0;
        CALIBRATION_CORES as f64 * KNEE_UTILIZATION / max_per_ms
    }

    /// Reference IPC anchoring the service-rate scaling.
    fn reference_ipc(&self, perf: &PerfModel) -> f64 {
        perf.ipc(
            &self.profile,
            CoreConfig::widest(),
            CacheAlloc::Four.ways(),
            0.0,
        )
    }

    /// Per-core service rate (requests per millisecond) at a configuration:
    /// requests complete proportionally faster when the core achieves higher
    /// IPC.
    pub fn service_rate_per_core(
        &self,
        perf: &PerfModel,
        config: CoreConfig,
        cache: CacheAlloc,
        contention: f64,
    ) -> f64 {
        let ipc = perf.ipc(&self.profile, config, cache.ways(), contention);
        let scale = ipc / self.reference_ipc(perf);
        scale / self.base_service_ms()
    }

    /// Arrival rate (requests per millisecond) at a load fraction of the
    /// calibrated maximum.
    pub fn arrival_rate_per_ms(&self, load: f64) -> f64 {
        (self.max_qps / 1000.0) * load.max(0.0)
    }

    /// The queueing model for this service on `cores` cores at the given
    /// configuration and load fraction.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn queue(
        &self,
        perf: &PerfModel,
        cores: usize,
        config: CoreConfig,
        cache: CacheAlloc,
        load: f64,
        contention: f64,
    ) -> MmcQueue {
        MmcQueue::new(
            cores,
            self.service_rate_per_core(perf, config, cache, contention),
            self.arrival_rate_per_ms(load),
        )
    }

    /// Ground-truth 99th-percentile latency for the given placement.
    pub fn tail_latency_ms(
        &self,
        perf: &PerfModel,
        cores: usize,
        config: CoreConfig,
        cache: CacheAlloc,
        load: f64,
        contention: f64,
    ) -> Millis {
        self.queue(perf, cores, config, cache, load, contention)
            .p99_ms()
    }
}

/// The five TailBench services with paper-calibrated maximum loads.
pub fn services() -> Vec<LcService> {
    vec![
        LcService {
            name: "xapian",
            // Web search: pointer-chasing index traversal; the LS queue sets
            // the tail (Fig. 1: low latency requires a six-way LS queue).
            profile: AppProfile {
                ilp: 2.0,
                fe_sensitivity: 0.30,
                be_sensitivity: 0.30,
                ls_sensitivity: 0.95,
                mem_fraction: 0.42,
                l1_miss_rate: 0.16,
                llc_miss_floor: 0.22,
                llc_working_set_ways: 3.5,
                mlp: 5.0,
                activity: 0.85,
            },
            max_qps: 22_000.0,
            qos_ms: 6.0,
        },
        LcService {
            name: "masstree",
            // In-memory key-value store: needs wide FE and LS.
            profile: AppProfile {
                ilp: 2.4,
                fe_sensitivity: 0.70,
                be_sensitivity: 0.35,
                ls_sensitivity: 0.70,
                mem_fraction: 0.38,
                l1_miss_rate: 0.13,
                llc_miss_floor: 0.25,
                llc_working_set_ways: 3.0,
                mlp: 3.5,
                activity: 0.92,
            },
            max_qps: 17_000.0,
            qos_ms: 8.0,
        },
        LcService {
            name: "imgdnn",
            // Handwriting-recognition DNN: compute-heavy, FE and LS matter.
            profile: AppProfile {
                ilp: 3.4,
                fe_sensitivity: 0.75,
                be_sensitivity: 0.60,
                ls_sensitivity: 0.65,
                mem_fraction: 0.30,
                l1_miss_rate: 0.07,
                llc_miss_floor: 0.15,
                llc_working_set_ways: 2.0,
                mlp: 2.8,
                activity: 1.15,
            },
            max_qps: 8_000.0,
            qos_ms: 20.0,
        },
        LcService {
            name: "moses",
            // Statistical machine translation: big branchy phrase tables;
            // the tail primarily depends on the front-end (Fig. 1).
            profile: AppProfile {
                ilp: 2.6,
                fe_sensitivity: 0.92,
                be_sensitivity: 0.40,
                ls_sensitivity: 0.22,
                mem_fraction: 0.30,
                l1_miss_rate: 0.07,
                llc_miss_floor: 0.20,
                llc_working_set_ways: 2.5,
                mlp: 2.5,
                activity: 1.00,
            },
            max_qps: 8_000.0,
            qos_ms: 15.0,
        },
        LcService {
            name: "silo",
            // In-memory OLTP: short transactions, modest widths suffice but
            // FE and LS both show at high load.
            profile: AppProfile {
                ilp: 2.2,
                fe_sensitivity: 0.60,
                be_sensitivity: 0.35,
                ls_sensitivity: 0.60,
                mem_fraction: 0.36,
                l1_miss_rate: 0.11,
                llc_miss_floor: 0.18,
                llc_working_set_ways: 2.2,
                mlp: 3.0,
                activity: 0.95,
            },
            max_qps: 24_000.0,
            qos_ms: 5.0,
        },
    ]
}

/// Looks a service up by name.
pub fn service_by_name(name: &str) -> Option<LcService> {
    services().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulator::{SectionWidth, SystemParams};

    fn perf() -> PerfModel {
        PerfModel::new(SystemParams::paper_16core())
    }

    #[test]
    fn five_services_with_paper_loads() {
        let svcs = services();
        assert_eq!(svcs.len(), 5);
        let qps: Vec<f64> = svcs.iter().map(|s| s.max_qps).collect();
        assert_eq!(qps, vec![22_000.0, 17_000.0, 8_000.0, 8_000.0, 24_000.0]);
        for s in &svcs {
            s.profile
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(s.qos_ms > 0.0);
        }
    }

    #[test]
    fn base_service_time_matches_knee_calibration() {
        let x = service_by_name("xapian").unwrap();
        // 16 cores * 0.8 / 22 req/ms ≈ 0.58 ms.
        assert!((x.base_service_ms() - 16.0 * 0.8 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn services_meet_qos_at_widest_config_and_80_percent_load() {
        let perf = perf();
        for s in services() {
            let p99 = s.tail_latency_ms(
                &perf,
                CALIBRATION_CORES,
                CoreConfig::widest(),
                CacheAlloc::Four,
                0.8,
                0.0,
            );
            assert!(
                p99.get() <= s.qos_ms,
                "{} violates QoS at widest config: {p99} vs {} ms",
                s.name,
                s.qos_ms
            );
        }
    }

    #[test]
    fn narrowest_config_saturates_at_high_load() {
        let perf = perf();
        for s in services() {
            let q = s.queue(
                &perf,
                CALIBRATION_CORES,
                CoreConfig::narrowest(),
                CacheAlloc::Half,
                0.8,
                0.0,
            );
            assert!(
                q.is_saturated() || q.p99_ms().get() > s.qos_ms,
                "{} should violate QoS in the narrowest config at 80% load",
                s.name
            );
        }
    }

    #[test]
    fn low_load_tolerates_narrow_configs() {
        // Fig. 1: at 20% load, tail latency stays low even for
        // lower-performing configurations.
        let perf = perf();
        for s in services() {
            let mid = CoreConfig::new(SectionWidth::Four, SectionWidth::Four, SectionWidth::Four);
            let p99 = s.tail_latency_ms(&perf, CALIBRATION_CORES, mid, CacheAlloc::One, 0.2, 0.0);
            assert!(
                p99.get() <= s.qos_ms,
                "{} should meet QoS at 20% load on {mid}: {p99}",
                s.name
            );
        }
    }

    #[test]
    fn xapian_is_ls_bound_moses_is_fe_bound() {
        let perf = perf();
        let xapian = service_by_name("xapian").unwrap();
        let moses = service_by_name("moses").unwrap();
        let ls_narrow = CoreConfig::new(SectionWidth::Six, SectionWidth::Six, SectionWidth::Two);
        let fe_narrow = CoreConfig::new(SectionWidth::Two, SectionWidth::Six, SectionWidth::Six);
        let x_ls = xapian
            .tail_latency_ms(&perf, 16, ls_narrow, CacheAlloc::Four, 0.8, 0.0)
            .get();
        let x_fe = xapian
            .tail_latency_ms(&perf, 16, fe_narrow, CacheAlloc::Four, 0.8, 0.0)
            .get();
        assert!(x_ls > x_fe, "xapian should suffer more from LS narrowing");
        let m_ls = moses
            .tail_latency_ms(&perf, 16, ls_narrow, CacheAlloc::Four, 0.8, 0.0)
            .get();
        let m_fe = moses
            .tail_latency_ms(&perf, 16, fe_narrow, CacheAlloc::Four, 0.8, 0.0)
            .get();
        assert!(m_fe > m_ls, "moses should suffer more from FE narrowing");
    }

    #[test]
    fn more_cores_reduce_tail_latency() {
        let perf = perf();
        let s = service_by_name("masstree").unwrap();
        let with_12 = s.tail_latency_ms(&perf, 12, CoreConfig::widest(), CacheAlloc::Two, 0.6, 0.0);
        let with_16 = s.tail_latency_ms(&perf, 16, CoreConfig::widest(), CacheAlloc::Two, 0.6, 0.0);
        assert!(with_16.get() < with_12.get());
    }

    #[test]
    fn lookup_by_name() {
        assert!(service_by_name("silo").is_some());
        assert!(service_by_name("nginx").is_none());
    }
}
