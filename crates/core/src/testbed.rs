//! The simulated server every resource manager runs on.
//!
//! A [`Scenario`] fixes the co-location (one or more TailBench-like services
//! plus a SPEC batch mix, with optional arrival/departure churn), the
//! per-tenant input-load patterns, the power-cap schedule, and the chip.
//! [`run_scenario`] advances it in 100 ms timeslices; each slice the
//! [`ResourceManager`] under test may run short profiling frames (consuming
//! real slice time, as in the paper — "results include all overheads") and
//! must return a [`crate::types::Plan`]; the remainder of the slice runs in
//! steady state. The shared vocabulary (scenarios, plans, records) lives in
//! [`crate::types`]; this module is only the simulation loop.
//!
//! Managers only see *measurements*: noisy per-job throughput and power
//! samples from the frames they request, and each tenant's tail latency from
//! the previous timeslice. Ground truth (exact instructions, chip power, QoS
//! verdicts) goes into the per-slice records that the experiment harness
//! reports.
//!
//! Tail latency over a slice is computed per tenant from the *mixture* of
//! queueing regimes the slice contained: a 1 ms profiling frame in a narrow
//! configuration contributes ~1 % of the window's requests, which is exactly
//! the paper's argument for why Flicker's long profiling phases blow the
//! 99th percentile while CuttleSys' 2 ms split-halves profiling does not.

use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::{CacheAlloc, Chip, CoreState, JobConfig, JobId, LlcPartition};
use workloads::phase::PhasedProfile;
use workloads::queueing::MmcQueue;

use crate::rng_normal;
use crate::types::{BatchAction, ResourceManager, RunRecord, Scenario};

/// A queueing regime segment within a slice, for one LC tenant.
pub(crate) struct TailSegment {
    pub(crate) duration_ms: f64,
    pub(crate) servers: usize,
    pub(crate) service_rate: f64,
    pub(crate) arrival_rate: f64,
}

impl TailSegment {
    /// Service capacity in requests per millisecond.
    fn capacity(&self) -> f64 {
        self.servers as f64 * self.service_rate
    }

    /// Steady-state stochastic p99 with utilization capped below
    /// saturation: the fluid backlog model accounts for overload
    /// separately, so the stochastic component here only models queueing
    /// jitter.
    fn stochastic_p99(&self) -> f64 {
        let capped_arrival = self.arrival_rate.min(0.95 * self.capacity());
        MmcQueue::new(self.servers, self.service_rate, capped_arrival)
            .p99_ms()
            .get()
    }
}

/// The simulated server.
///
/// Fields are `pub(crate)` so [`crate::driver::ScenarioDriver`] — the
/// steppable simulation loop split out of this module — can drive frames
/// and mutate churn state without widening the public API.
pub struct Testbed {
    pub(crate) scenario: Scenario,
    pub(crate) chip: Chip,
    pub(crate) profiles: Vec<PhasedProfile>,
    pub(crate) rng: StdRng,
    pub(crate) now_ms: f64,
    pub(crate) slice_end_ms: f64,
    pub(crate) num_lc: usize,
    /// Per-tenant input load during the current slice.
    pub(crate) current_load: Vec<f64>,
    /// Which batch jobs are present during the current slice (churn).
    pub(crate) active: Vec<bool>,
    // Per-slice accumulators.
    pub(crate) energy_mj: f64,
    pub(crate) instructions: Vec<f64>,
    /// Per-tenant queueing regime segments of the current slice.
    pub(crate) tail_segments: Vec<Vec<TailSegment>>,
    /// Per-tenant fluid backlog carried across slices.
    pub(crate) carry_backlog: Vec<f64>,
    pub(crate) rotation: usize,
    /// Configuration each job ran in during the previous frame, for
    /// charging reconfiguration transition stalls.
    pub(crate) last_config: Vec<Option<JobConfig>>,
}

impl Testbed {
    /// Builds the testbed for a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no LC tenant, or the tenants' combined
    /// core reservation is zero or exceeds the chip.
    pub fn new(scenario: &Scenario) -> Testbed {
        let num_lc = scenario.num_lc();
        assert!(num_lc > 0, "scenario needs at least one LC tenant");
        let total_lc = scenario.total_lc_cores();
        assert!(
            total_lc > 0 && total_lc < scenario.params.num_cores,
            "LC cores must leave room for batch jobs"
        );
        let chip = Chip::new(scenario.params, scenario.kind);
        let num_jobs = num_lc + scenario.num_batch();
        let mut profiles = Vec::with_capacity(num_jobs);
        for (i, lc) in scenario.lc_jobs().iter().enumerate() {
            profiles.push(if scenario.phases {
                PhasedProfile::with_seed(
                    lc.service.profile,
                    scenario.seed ^ (0xABCD + (i as u64) * 0x10000),
                )
            } else {
                PhasedProfile::steady(lc.service.profile)
            });
        }
        for (i, b) in scenario.batch_jobs().iter().enumerate() {
            profiles.push(if scenario.phases {
                PhasedProfile::with_seed(b.app.profile, scenario.seed ^ (0x1000 + i as u64))
            } else {
                PhasedProfile::steady(b.app.profile)
            });
        }
        Testbed {
            chip,
            profiles,
            rng: StdRng::seed_from_u64(scenario.seed),
            now_ms: 0.0,
            slice_end_ms: 0.0,
            num_lc,
            current_load: vec![0.0; num_lc],
            active: vec![true; scenario.num_batch()],
            energy_mj: 0.0,
            instructions: vec![0.0; num_jobs],
            tail_segments: (0..num_lc).map(|_| Vec::new()).collect(),
            carry_backlog: vec![0.0; num_lc],
            rotation: 0,
            last_config: vec![None; num_jobs],
            scenario: scenario.clone(),
        }
    }

    pub(crate) fn noisy(&mut self, value: f64) -> f64 {
        let sigma = self.scenario.noise;
        if sigma == 0.0 {
            return value;
        }
        (value * (1.0 + sigma * rng_normal(&mut self.rng))).max(0.0)
    }

    /// Instantaneous profiles at the current simulation time.
    fn profiles_now(&self) -> Vec<simulator::AppProfile> {
        let t_s = self.now_ms / 1000.0;
        self.profiles.iter().map(|p| p.at(t_s)).collect()
    }

    /// Builds core states and partition for a frame (LC tenants' cores in
    /// priority order, then batch); returns also the list of running batch
    /// jobs (after churn filtering and core-count multiplexing).
    fn frame_layout(
        &mut self,
        lc_configs: &[Vec<JobConfig>],
        batch: &[BatchAction],
    ) -> (Vec<CoreState>, LlcPartition, Vec<usize>) {
        assert_eq!(lc_configs.len(), self.num_lc, "one config list per tenant");
        assert_eq!(
            batch.len(),
            self.scenario.num_batch(),
            "one action per batch job"
        );
        let num_cores = self.scenario.params.num_cores;
        let lc_cores: usize = lc_configs.iter().map(Vec::len).sum();
        assert!(lc_cores < num_cores, "LC cannot occupy the whole chip");
        let batch_cores = num_cores - lc_cores;

        let mut cores = Vec::with_capacity(num_cores);
        let mut partition = LlcPartition::new();
        for (i, configs) in lc_configs.iter().enumerate() {
            for cfg in configs {
                cores.push(CoreState::Active {
                    job: JobId(i),
                    config: cfg.core,
                });
            }
            // Each tenant's cache allocation follows its (first)
            // configuration.
            partition.set(
                JobId(i),
                configs.first().map(|c| c.cache).unwrap_or(CacheAlloc::One),
            );
        }

        let runnable: Vec<usize> = (0..batch.len())
            .filter(|&j| self.active[j] && matches!(batch[j], BatchAction::Run(_)))
            .collect();
        // Time-multiplex when the LC tenants reclaimed cores: rotate which
        // jobs run each frame.
        let running: Vec<usize> = if runnable.len() > batch_cores {
            let start = self.rotation % runnable.len();
            (0..batch_cores)
                .map(|k| runnable[(start + k) % runnable.len()])
                .collect()
        } else {
            runnable
        };
        for &j in &running {
            // `running` only holds `Run` actions by construction.
            let Some(config) = batch[j].config() else {
                continue;
            };
            cores.push(CoreState::Active {
                job: JobId(self.num_lc + j),
                config: config.core,
            });
            partition.set(JobId(self.num_lc + j), config.cache);
        }
        // Remaining cores (gated jobs' cores and any surplus) are gated.
        while cores.len() < num_cores {
            cores.push(CoreState::Gated);
        }
        (cores, partition, running)
    }

    /// Runs one frame, accumulating energy, instructions, and each tenant's
    /// tail segment; returns the frame result and contention.
    pub(crate) fn run_frame(
        &mut self,
        lc_configs: &[Vec<JobConfig>],
        batch: &[BatchAction],
        ms: f64,
    ) -> simulator::FrameResult {
        let (cores, partition, _running) = self.frame_layout(lc_configs, batch);
        let profiles = self.profiles_now();
        let result = self.chip.simulate_frame(&cores, &profiles, &partition, ms);
        self.energy_mj += result.chip_watts.get() * ms;
        // Reconfiguration transition stall: a job whose configuration
        // changed since the previous frame loses the drain/gating time at
        // the head of this frame.
        let transition_ms = self.scenario.params.reconfig_transition_us / 1000.0;
        let mut stall = vec![0.0f64; self.instructions.len()];
        for (i, configs) in lc_configs.iter().enumerate() {
            let lc_now = configs.first().copied();
            if lc_now.is_some() && self.last_config[i].is_some() && self.last_config[i] != lc_now {
                stall[i] = (transition_ms / ms).min(1.0);
            }
            self.last_config[i] = lc_now.or(self.last_config[i]);
        }
        for (j, action) in batch.iter().enumerate() {
            if let BatchAction::Run(cfg) = action {
                let g = self.num_lc + j;
                if self.last_config[g].is_some_and(|prev| prev != *cfg) {
                    stall[g] = (transition_ms / ms).min(1.0);
                }
                self.last_config[g] = Some(*cfg);
            }
        }
        for (j, instr) in self.instructions.iter_mut().enumerate() {
            *instr += result.job_instructions(JobId(j)) * (1.0 - stall[j]);
        }
        // One tail segment per tenant: heterogeneous cores within a tenant
        // are approximated by the mean per-core service rate.
        let lc_specs = self.scenario.lc_jobs();
        for (i, configs) in lc_configs.iter().enumerate() {
            let svc = &lc_specs[i].service;
            let mean_rate = configs
                .iter()
                .map(|c| {
                    svc.service_rate_per_core(self.chip.perf(), c.core, c.cache, result.contention)
                })
                .sum::<f64>()
                / configs.len().max(1) as f64;
            self.tail_segments[i].push(TailSegment {
                duration_ms: ms,
                servers: configs.len().max(1),
                service_rate: mean_rate.max(1e-9),
                arrival_rate: svc.arrival_rate_per_ms(self.current_load[i]),
            });
        }
        self.now_ms += ms;
        result
    }

    /// Tenant `lc`'s 99th percentile latency over the slice, from a
    /// fluid-backlog model over the slice's segments plus a capped
    /// stochastic component.
    ///
    /// The fluid pass integrates the queue length `Q' = λ − kμ(t)` across
    /// segments (carrying backlog across slices, so sustained overload
    /// compounds until the relocation policy reacts); a request arriving at
    /// time `t` waits `Q(t)` drained at the slice's best capacity on top of
    /// the segment's steady-state jitter. The jitter term is additionally
    /// capped at `segment duration + recovery p99`: a request that starts
    /// in a brief narrow-configuration frame finishes under the
    /// configuration that follows it, which is why CuttleSys' 2 ms
    /// profiling barely moves the window p99 while Flicker's 90 ms
    /// profiling destroys it (§VIII-E).
    pub(crate) fn window_p99(&mut self, lc: usize) -> f64 {
        let segments = &self.tail_segments[lc];
        if segments.is_empty() {
            return 0.0;
        }
        let recovery_capacity = segments
            .iter()
            .map(TailSegment::capacity)
            .fold(f64::MIN_POSITIVE, f64::max);
        let recovery_p99 = segments
            .iter()
            .max_by(|a, b| a.capacity().total_cmp(&b.capacity()))
            .map(TailSegment::stochastic_p99)
            .unwrap_or(0.0);

        let mut q = self.carry_backlog[lc];
        let mut samples: Vec<(f64, f64)> = Vec::new();
        for seg in segments {
            let steps = (seg.duration_ms / 0.25).ceil().max(1.0) as usize;
            let dt = seg.duration_ms / steps as f64;
            let jitter = seg.stochastic_p99().min(seg.duration_ms + recovery_p99);
            for _ in 0..steps {
                q = (q + (seg.arrival_rate - seg.capacity()) * dt).max(0.0);
                samples.push((q / recovery_capacity + jitter, dt));
            }
        }
        self.carry_backlog[lc] = q;

        // Weighted 99th percentile over arrival time (arrival rate is
        // constant within a slice, so time weights are arrival weights).
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = samples.iter().map(|s| s.1).sum();
        let mut acc = 0.0;
        for (latency, w) in &samples {
            acc += w;
            if acc >= 0.99 * total {
                return *latency;
            }
        }
        samples.last().map(|s| s.0).unwrap_or(0.0)
    }
}

/// Runs a scenario under a manager, returning ground-truth records.
///
/// When the scenario carries a non-trivial [`crate::faults::FaultPlan`], the
/// testbed realizes its *environment* side: profiling samples are dropped or
/// corrupted before the manager sees them, power telemetry (probe watts and
/// steady-state measurements) blacks out to NaN, and a failed
/// reconfiguration command leaves every job in its previous configuration
/// for the steady phase. All injection is counter-based and never draws from
/// the testbed's measurement-noise RNG, so a clean plan is bit-identical to
/// a build without fault hooks. Ground-truth records always report what
/// physically ran (the *applied* plan) plus the per-slice
/// [`crate::faults::InjectedFaults`] counts.
pub fn run_scenario(scenario: &Scenario, manager: &mut dyn ResourceManager) -> RunRecord {
    let mut driver = crate::driver::ScenarioDriver::new(scenario);
    while !driver.is_done() {
        driver.step(manager);
    }
    driver.into_record(manager.name())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::types::{LcAssignment, Plan, ProfilePlan, ProfileSample, SliceInfo};
    use simulator::CoreConfig;

    /// A trivial manager: everything at the widest configuration.
    struct Widest;

    impl ResourceManager for Widest {
        fn name(&self) -> String {
            "widest".to_string()
        }

        fn plan(
            &mut self,
            info: &SliceInfo,
            _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
        ) -> Plan {
            let cores: Vec<usize> = info.lc.iter().map(|l| l.last_cores).collect();
            Plan::all_widest(&cores, info.num_batch)
        }
    }

    /// A manager that gates every batch job.
    struct AllGated;

    impl ResourceManager for AllGated {
        fn name(&self) -> String {
            "all-gated".to_string()
        }

        fn plan(
            &mut self,
            info: &SliceInfo,
            _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
        ) -> Plan {
            Plan {
                lc: info
                    .lc
                    .iter()
                    .map(|l| LcAssignment {
                        cores: l.last_cores,
                        config: JobConfig::new(CoreConfig::widest(), CacheAlloc::Four),
                    })
                    .collect(),
                batch: vec![BatchAction::Gated; info.num_batch],
            }
        }
    }

    #[test]
    fn widest_plan_runs_and_meets_qos_at_80_percent() {
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        let record = run_scenario(&scenario, &mut Widest);
        assert_eq!(record.slices.len(), 3);
        assert_eq!(
            record.qos_violations(),
            0,
            "widest config must meet QoS: {record:?}"
        );
        assert!(record.batch_instructions() > 0.0);
        // A manager without instrumentation leaves the telemetry empty.
        assert!(record.slices.iter().all(|s| s.telemetry.is_none()));
        assert!(record.stage_summary().is_none());
    }

    #[test]
    fn gating_batch_jobs_zeroes_their_instructions() {
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        let gated = run_scenario(&scenario, &mut AllGated);
        assert_eq!(gated.batch_instructions(), 0.0);
        // The LC service still executes.
        assert!(gated.slices[0].total_instructions > 0.0);
        // And draws far less power than the all-widest plan.
        let widest = run_scenario(&scenario, &mut Widest);
        assert!(gated.slices[0].chip_watts < widest.slices[0].chip_watts / 2.0);
    }

    #[test]
    fn probe_time_is_deducted_from_the_slice() {
        struct Prober {
            probed_ms: f64,
        }
        impl ResourceManager for Prober {
            fn name(&self) -> String {
                "prober".into()
            }
            fn plan(
                &mut self,
                info: &SliceInfo,
                probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
            ) -> Plan {
                let pp = ProfilePlan {
                    lc_configs: info
                        .lc
                        .iter()
                        .map(|l| vec![JobConfig::profiling_high(); l.last_cores])
                        .collect(),
                    batch: vec![BatchAction::Run(JobConfig::profiling_low()); info.num_batch],
                };
                let s = probe(&pp, 1.0);
                self.probed_ms += s.duration_ms;
                assert!(!s.samples.is_empty());
                let cores: Vec<usize> = info.lc.iter().map(|l| l.last_cores).collect();
                Plan::all_widest(&cores, info.num_batch)
            }
        }
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        let mut m = Prober { probed_ms: 0.0 };
        let record = run_scenario(&scenario, &mut m);
        assert_eq!(m.probed_ms, 3.0, "one 1 ms probe per slice");
        assert_eq!(record.slices.len(), 3);
    }

    #[test]
    fn profile_samples_report_distinct_lc_configs() {
        struct SplitProber;
        impl ResourceManager for SplitProber {
            fn name(&self) -> String {
                "split".into()
            }
            fn plan(
                &mut self,
                info: &SliceInfo,
                probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
            ) -> Plan {
                let k = info.primary_lc().last_cores;
                let mut lc_configs = vec![JobConfig::profiling_high(); k];
                for cfg in lc_configs.iter_mut().skip(k / 2) {
                    *cfg = JobConfig::profiling_low();
                }
                let pp = ProfilePlan::single_lc(
                    lc_configs,
                    vec![BatchAction::Run(JobConfig::profiling_high()); info.num_batch],
                );
                let s = probe(&pp, 1.0);
                let lc_samples: Vec<_> = s.samples.iter().filter(|sp| sp.job == 0).collect();
                assert_eq!(lc_samples.len(), 2, "expected high+low LC samples");
                assert!(lc_samples[0].bips > lc_samples[1].bips);
                Plan::all_widest(&[k], info.num_batch)
            }
        }
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        run_scenario(&scenario, &mut SplitProber);
    }

    #[test]
    fn narrow_lc_config_violates_qos_at_high_load() {
        struct NarrowLc;
        impl ResourceManager for NarrowLc {
            fn name(&self) -> String {
                "narrow-lc".into()
            }
            fn plan(
                &mut self,
                info: &SliceInfo,
                _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
            ) -> Plan {
                let cores: Vec<usize> = info.lc.iter().map(|l| l.last_cores).collect();
                let mut plan = Plan::all_widest(&cores, info.num_batch);
                plan.lc[0].config = JobConfig::profiling_low();
                plan
            }
        }
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        let record = run_scenario(&scenario, &mut NarrowLc);
        assert_eq!(record.qos_violations(), record.slices.len());
        assert!(record.worst_tail_ratio() > 2.0);
    }

    #[test]
    fn reclaiming_cores_multiplexes_batch_jobs() {
        struct Reclaimer;
        impl ResourceManager for Reclaimer {
            fn name(&self) -> String {
                "reclaimer".into()
            }
            fn plan(
                &mut self,
                info: &SliceInfo,
                _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
            ) -> Plan {
                Plan::all_widest(&[18], info.num_batch)
            }
        }
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            ..Scenario::quick_demo()
        };
        let reclaimed = run_scenario(&scenario, &mut Reclaimer);
        let baseline = run_scenario(&scenario, &mut Widest);
        // 14 cores for 16 jobs: batch throughput must drop vs 16 cores.
        assert!(
            reclaimed.batch_instructions() < baseline.batch_instructions(),
            "time multiplexing should cost throughput"
        );
        // But every job should still make progress across slices (rotation).
        let per_job: Vec<f64> = (1..=16)
            .map(|j| {
                reclaimed
                    .slices
                    .iter()
                    .map(|s| s.per_job_instructions[j])
                    .sum()
            })
            .collect();
        assert!(
            per_job.iter().all(|&i| i > 0.0),
            "rotation must serve every job: {per_job:?}"
        );
    }

    #[test]
    fn two_tenants_get_independent_tail_records() {
        let scenario = Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: 3,
            ..Scenario::two_service()
        };
        let record = run_scenario(&scenario, &mut Widest);
        assert_eq!(record.slices[0].lc.len(), 2);
        assert_eq!(record.slices[0].lc[0].service, "xapian");
        assert_eq!(record.slices[0].lc[1].service, "masstree");
        // Both tenants serve requests on their own cores; at 40 % load on
        // widest cores neither should violate.
        assert_eq!(record.qos_violations(), 0, "{record:?}");
        for s in &record.slices {
            assert!(s.lc[0].tail_ms > 0.0 && s.lc[1].tail_ms > 0.0);
            assert_eq!(s.lc[0].cores, 8);
            assert_eq!(s.lc[1].cores, 8);
        }
    }

    #[test]
    fn departed_batch_jobs_execute_nothing() {
        let mut scenario = Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: 4,
            ..Scenario::quick_demo()
        };
        // Make batch job 0 depart after slice 1 and batch job 1 arrive at
        // slice 2.
        let mut batch_seen = 0;
        for job in scenario.jobs.iter_mut() {
            if let crate::types::JobSpec::Batch(b) = job {
                match batch_seen {
                    0 => b.depart_slice = Some(2),
                    1 => b.arrive_slice = 2,
                    _ => {}
                }
                batch_seen += 1;
            }
        }
        let record = run_scenario(&scenario, &mut Widest);
        // Batch job 0 (global index 1) runs in slices 0-1, nothing after.
        assert!(record.slices[0].per_job_instructions[1] > 0.0);
        assert!(record.slices[1].per_job_instructions[1] > 0.0);
        assert_eq!(record.slices[2].per_job_instructions[1], 0.0);
        assert_eq!(record.slices[3].per_job_instructions[1], 0.0);
        // Batch job 1 (global index 2) is absent before slice 2.
        assert_eq!(record.slices[0].per_job_instructions[2], 0.0);
        assert_eq!(record.slices[1].per_job_instructions[2], 0.0);
        assert!(record.slices[2].per_job_instructions[2] > 0.0);
        assert!(record.slices[3].per_job_instructions[2] > 0.0);
    }

    #[test]
    fn nominal_budget_is_stable_and_positive() {
        let scenario = Scenario::paper_default();
        let b = scenario.nominal_budget_watts();
        assert!(b > 50.0 && b < 400.0, "implausible budget {b}");
        assert_eq!(b, scenario.nominal_budget_watts());
    }
}
