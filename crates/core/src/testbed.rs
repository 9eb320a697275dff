//! The simulated server every resource manager runs on.
//!
//! A [`Scenario`] fixes the co-location (one or more TailBench-like services
//! plus a SPEC batch mix, with optional arrival/departure churn), the
//! per-tenant input-load patterns, the power-cap schedule, and the chip.
//! [`ScenarioDriver`] owns the simulated node and advances it one 100 ms
//! timeslice per [`ScenarioDriver::step`]; [`run_scenario`] steps it to the
//! scenario's horizon. Each slice the [`ResourceManager`] under test may run
//! short profiling frames (consuming real slice time, as in the paper —
//! "results include all overheads") and must return a
//! [`crate::types::Plan`]; the remainder of the slice runs in steady state.
//! The shared vocabulary (scenarios, plans, records) lives in
//! [`crate::types`].
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
//!
//! Between steps the job population may change, which is what a long-lived
//! control plane needs:
//!
//! * [`ScenarioDriver::admit_batch`] appends a batch job arriving at the
//!   next slice. Its phase profile is seeded from its *index* and evaluated
//!   at absolute simulation time, so a job admitted at slice `k` behaves
//!   bit-identically to a static scenario that declared it with
//!   `arrive_slice = k` from the start.
//! * [`ScenarioDriver::drain_batch`] sets the job's `depart_slice` to the
//!   next slice, so the departure goes through the same churn path as a
//!   static `depart_slice`.
//!
//! The driver touches no wall clock and spawns no threads; every step is a
//! pure function of the seed, the scenario, and the manager's decisions.
//! That keeps the replay guarantee that the control-plane tests pin: a
//! recorded registration trace replayed through the service reproduces the
//! equivalent static scenario's record bit-for-bit.

use dds::rng::standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simulator::{CacheAlloc, Chip, CoreState, JobConfig, JobId, LlcPartition};
use workloads::batch::SpecBenchmark;
use workloads::phase::PhasedProfile;
use workloads::queueing::MmcQueue;

use crate::faults::InjectedFaults;
use crate::types::{
    BatchAction, BatchJobSpec, JobSpec, LcAssignment, LcSliceInfo, LcSliceRecord, Plan,
    ProfilePlan, ProfileSample, ResourceManager, RunRecord, SamplePoint, Scenario, SliceInfo,
    SliceOutcome, SliceRecord, TIMESLICE_MS,
};

/// Job `j`'s phase profile (LC tenants first, then batch jobs, as in every
/// per-job vector). The seed depends on the scenario seed and the index
/// alone, so a batch job admitted at runtime drifts exactly like one the
/// scenario declared.
fn job_profile(scenario: &Scenario, j: usize) -> PhasedProfile {
    let lc = scenario.lc_jobs();
    let (profile, salt) = match lc.get(j) {
        Some(tenant) => (tenant.service.profile, 0xABCD + (j as u64) * 0x10000),
        None => {
            let i = j - lc.len();
            (scenario.batch_jobs()[i].app.profile, 0x1000 + i as u64)
        }
    };
    if scenario.phases {
        PhasedProfile::with_seed(profile, scenario.seed ^ salt)
    } else {
        PhasedProfile::steady(profile)
    }
}

/// A queueing regime segment within a slice, for one LC tenant.
struct TailSegment {
    duration_ms: f64,
    servers: usize,
    service_rate: f64,
    arrival_rate: f64,
}

impl TailSegment {
    /// Service capacity in requests per millisecond.
    fn capacity(&self) -> f64 {
        self.servers as f64 * self.service_rate
    }

    /// Steady-state p99 of the segment's M/M/c queue.
    fn p99(&self, arrival_rate: f64) -> f64 {
        MmcQueue::new(self.servers, self.service_rate, arrival_rate)
            .p99_ms()
            .get()
    }

    /// Steady-state stochastic p99 with utilization capped below
    /// saturation: the fluid backlog model accounts for overload
    /// separately, so the stochastic component here only models queueing
    /// jitter.
    fn stochastic_p99(&self) -> f64 {
        self.p99(self.arrival_rate.min(0.95 * self.capacity()))
    }
}

/// Errors from runtime churn requests on a driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// The batch index does not exist.
    UnknownBatchJob(usize),
    /// The batch job already departed (or never arrived).
    NotRunning(usize),
    /// The LC service index does not exist.
    UnknownLcService(usize),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::UnknownBatchJob(j) => write!(f, "unknown batch job index {j}"),
            DriveError::NotRunning(j) => write!(f, "batch job {j} is not running"),
            DriveError::UnknownLcService(i) => write!(f, "unknown LC service index {i}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// The simulated server: constructed once from a [`Scenario`], stepped one
/// 100 ms timeslice at a time.
pub struct ScenarioDriver {
    scenario: Scenario,
    chip: Chip,
    profiles: Vec<PhasedProfile>,
    rng: StdRng,
    now_ms: f64,
    num_lc: usize,
    /// Per-tenant input load during the current slice.
    current_load: Vec<f64>,
    /// Per-tenant traffic-share multipliers on the declared load.
    lc_shares: Vec<f64>,
    /// Which batch jobs are present during the current slice (churn).
    active: Vec<bool>,
    // Per-slice accumulators.
    energy_mj: f64,
    instructions: Vec<f64>,
    /// Per-tenant queueing regime segments of the current slice.
    tail_segments: Vec<Vec<TailSegment>>,
    /// Per-tenant fluid backlog carried across slices.
    carry_backlog: Vec<f64>,
    /// Configuration each job ran in during the previous frame, for
    /// charging reconfiguration transition stalls.
    last_config: Vec<Option<JobConfig>>,
    /// What each tenant measured and held at the end of the last slice.
    last_tails: Vec<Option<f64>>,
    last_cores: Vec<usize>,
    next_slice: usize,
    slices: Vec<SliceRecord>,
}

impl ScenarioDriver {
    /// Builds the simulated server for a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no LC tenant, or the tenants' combined
    /// core reservation is zero or exceeds the chip.
    pub fn new(scenario: &Scenario) -> ScenarioDriver {
        let num_lc = scenario.num_lc();
        assert!(num_lc > 0, "scenario needs at least one LC tenant");
        let total_lc = scenario.total_lc_cores();
        assert!(
            total_lc > 0 && total_lc < scenario.params.num_cores,
            "LC cores must leave room for batch jobs"
        );
        let num_jobs = num_lc + scenario.num_batch();
        ScenarioDriver {
            chip: Chip::new(scenario.params, scenario.kind),
            profiles: (0..num_jobs).map(|j| job_profile(scenario, j)).collect(),
            rng: StdRng::seed_from_u64(scenario.seed),
            now_ms: 0.0,
            num_lc,
            current_load: vec![0.0; num_lc],
            lc_shares: vec![1.0; num_lc],
            active: vec![true; scenario.num_batch()],
            energy_mj: 0.0,
            instructions: vec![0.0; num_jobs],
            tail_segments: (0..num_lc).map(|_| Vec::new()).collect(),
            carry_backlog: vec![0.0; num_lc],
            last_config: vec![None; num_jobs],
            last_tails: vec![None; num_lc],
            last_cores: scenario.lc_jobs().iter().map(|lc| lc.cores).collect(),
            next_slice: 0,
            slices: Vec::with_capacity(scenario.duration_slices),
            scenario: scenario.clone(),
        }
    }

    /// Scales the offered load of LC service `lc_index` by `share` from the
    /// next slice on. The default share of 1.0 multiplies the declared load
    /// pattern by exactly 1.0, so an untouched driver runs the declared load
    /// to the bit; cluster load balancing moves traffic between replicas
    /// on different nodes by adjusting shares while conserving their sum.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::UnknownLcService`] when `lc_index` is out of
    /// range.
    pub fn set_lc_share(&mut self, lc_index: usize, share: f64) -> Result<(), DriveError> {
        let slot = self
            .lc_shares
            .get_mut(lc_index)
            .ok_or(DriveError::UnknownLcService(lc_index))?;
        *slot = share;
        Ok(())
    }

    /// The current per-LC traffic-share multipliers.
    pub fn lc_shares(&self) -> &[f64] {
        &self.lc_shares
    }

    /// The scenario as currently constituted (runtime churn included).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Index of the next slice [`step`](Self::step) will simulate.
    pub fn next_slice(&self) -> usize {
        self.next_slice
    }

    /// Whether the scenario's declared horizon has been simulated.
    /// [`step`](Self::step) may still be called past the horizon — load and
    /// cap patterns are total functions of time — which is how the service
    /// runs open-ended.
    pub fn is_done(&self) -> bool {
        self.next_slice >= self.scenario.duration_slices
    }

    /// The slice records produced so far.
    pub fn records(&self) -> &[SliceRecord] {
        &self.slices
    }

    /// Consumes the driver into a completed run record.
    pub fn into_record(self, scheme: String) -> RunRecord {
        RunRecord {
            scheme,
            slices: self.slices,
        }
    }

    /// Appends a batch job arriving at the next slice, returning its batch
    /// index. The state this grows (phase profile, instruction and
    /// configuration slots) is exactly what [`ScenarioDriver::new`] would
    /// have built for a static scenario declaring the same job with
    /// `arrive_slice = next_slice`.
    pub fn admit_batch(&mut self, app: SpecBenchmark) -> usize {
        let i = self.scenario.num_batch();
        self.scenario.jobs.push(JobSpec::Batch(BatchJobSpec {
            app,
            arrive_slice: self.next_slice,
            depart_slice: None,
        }));
        self.profiles
            .push(job_profile(&self.scenario, self.num_lc + i));
        self.instructions.push(0.0);
        self.last_config.push(None);
        i
    }

    /// Marks batch job `batch_idx` as departing before the next slice.
    ///
    /// # Errors
    ///
    /// Returns [`DriveError`] if the index is unknown or the job is not
    /// currently scheduled to be running at the next slice.
    pub fn drain_batch(&mut self, batch_idx: usize) -> Result<(), DriveError> {
        let next = self.next_slice;
        let spec = self
            .scenario
            .jobs
            .iter_mut()
            .filter_map(|j| match j {
                JobSpec::Batch(b) => Some(b),
                JobSpec::LatencyCritical(_) => None,
            })
            .nth(batch_idx)
            .ok_or(DriveError::UnknownBatchJob(batch_idx))?;
        if !spec.active_at(next) {
            return Err(DriveError::NotRunning(batch_idx));
        }
        spec.depart_slice = Some(next);
        Ok(())
    }

    /// Simulates one timeslice under `manager` and returns its ground-truth
    /// record.
    pub fn step(&mut self, manager: &mut dyn ResourceManager) -> &SliceRecord {
        let slice = self.next_slice;
        let num_lc = self.num_lc;
        let num_jobs = self.instructions.len();
        let lc_specs: Vec<_> = self.scenario.lc_jobs().into_iter().cloned().collect();

        let qf = self.scenario.faults.quantum(slice);
        let mut slice_faults = InjectedFaults {
            power_blackout: qf.power_blackout,
            reconfig_failed: qf.reconfig_fail,
            ..InjectedFaults::default()
        };
        let t_s = slice as f64 * TIMESLICE_MS / 1000.0;
        for (i, lc) in lc_specs.iter().enumerate() {
            self.current_load[i] = lc.load.load_at(t_s) * self.lc_shares[i];
        }
        self.active = self.scenario.batch_active(slice);
        let cap_watts = self.scenario.cap.load_at(t_s) * self.scenario.nominal_budget_watts();
        let slice_end_ms = (slice + 1) as f64 * TIMESLICE_MS;
        self.energy_mj = 0.0;
        self.instructions.iter_mut().for_each(|i| *i = 0.0);
        self.tail_segments.iter_mut().for_each(Vec::clear);

        let info = SliceInfo {
            slice,
            cap_watts,
            num_cores: self.scenario.params.num_cores,
            llc_ways: self.scenario.params.llc_ways,
            num_batch: self.scenario.num_batch(),
            lc: lc_specs
                .iter()
                .enumerate()
                .map(|(i, lc)| LcSliceInfo {
                    service: lc.service,
                    qos_ms: lc.qos_ms,
                    load: self.current_load[i],
                    last_tail_ms: self.last_tails[i],
                    last_cores: self.last_cores[i],
                })
                .collect(),
            batch_active: self.active.clone(),
        };

        // Let the manager probe; each probe consumes slice time.
        let plan = {
            let mut frame_idx = 0u64;
            let mut probe = |pp: &ProfilePlan, ms: f64| -> ProfileSample {
                let ms = ms.min((slice_end_ms - self.now_ms).max(0.0));
                if ms <= 0.0 {
                    return ProfileSample {
                        duration_ms: 0.0,
                        samples: Vec::new(),
                        lc_tails_ms: vec![0.0; num_lc],
                    };
                }
                let mut sample = self.profile_frame(pp, ms);
                // Environment faults, applied strictly *after* every noise
                // draw so the RNG stream matches a clean run exactly.
                if qf.power_blackout {
                    for s in sample.samples.iter_mut() {
                        s.watts = f64::NAN;
                    }
                }
                let (dropped, corrupted) =
                    self.scenario
                        .faults
                        .corrupt_profile(slice, frame_idx, &mut sample);
                frame_idx += 1;
                slice_faults.samples_dropped += dropped;
                slice_faults.samples_corrupted += corrupted;
                sample
            };
            manager.plan(&info, &mut probe)
        };
        assert_eq!(plan.lc.len(), num_lc, "plan must cover every LC tenant");
        let telemetry = manager.take_telemetry();

        // Steady phase for the remainder of the slice. A failed
        // reconfiguration command leaves every job in the configuration it
        // last ran (gating still works — only reshaping fails), so the
        // *applied* plan can differ from what the manager requested.
        let applied_plan = if qf.reconfig_fail {
            Plan {
                lc: plan
                    .lc
                    .iter()
                    .enumerate()
                    .map(|(i, a)| LcAssignment {
                        cores: a.cores,
                        config: self.last_config[i].unwrap_or(a.config),
                    })
                    .collect(),
                batch: plan
                    .batch
                    .iter()
                    .enumerate()
                    .map(|(j, a)| match a {
                        BatchAction::Run(cfg) => {
                            BatchAction::Run(self.last_config[num_lc + j].unwrap_or(*cfg))
                        }
                        BatchAction::Gated => BatchAction::Gated,
                    })
                    .collect(),
            }
        } else {
            plan
        };
        let steady_ms = (slice_end_ms - self.now_ms).max(0.0);
        let lc_configs: Vec<Vec<JobConfig>> = applied_plan
            .lc
            .iter()
            .map(|a| vec![a.config; a.cores])
            .collect();
        let steady = if steady_ms > 0.0 {
            Some(self.run_frame(&lc_configs, &applied_plan.batch, steady_ms))
        } else {
            None
        };

        let tails_ms: Vec<f64> = (0..num_lc).map(|i| self.window_p99(i)).collect();
        let chip_watts = self.energy_mj / TIMESLICE_MS;
        let gmean = steady
            .as_ref()
            .map(|r| {
                // Jobs idled by time-multiplex rotation executed nothing
                // this slice; the geo-mean covers the jobs that ran.
                let running: Vec<simulator::Bips> = applied_plan
                    .batch
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| matches!(a, BatchAction::Run(_)))
                    .map(|(j, _)| r.per_job_bips[num_lc + j])
                    .filter(|b| b.get() > 0.0)
                    .collect();
                simulator::metrics::geometric_mean(&running).get()
            })
            .unwrap_or(0.0);

        let record = SliceRecord {
            t_s,
            cap_watts,
            chip_watts,
            power_violation: chip_watts > cap_watts * 1.001,
            lc: lc_specs
                .iter()
                .enumerate()
                .map(|(i, lc)| LcSliceRecord {
                    service: lc.service.name,
                    qos_ms: lc.qos_ms,
                    load: self.current_load[i],
                    tail_ms: tails_ms[i],
                    qos_violation: tails_ms[i] > lc.qos_ms,
                    cores: applied_plan.lc[i].cores,
                    config: applied_plan.lc[i].config,
                })
                .collect(),
            batch_instructions: self.instructions[num_lc..].iter().sum(),
            total_instructions: self.instructions.iter().sum(),
            per_job_instructions: self.instructions.clone(),
            batch_configs: applied_plan.batch.iter().map(|a| a.config()).collect(),
            batch_gmean_bips: gmean,
            telemetry,
            fault: if self.scenario.faults.is_clean() {
                None
            } else {
                Some(slice_faults)
            },
        };

        // Tell the manager what happened (noisy measurements). The outcome
        // carries the *applied* plan so observations land on the
        // configurations that physically ran.
        let (m_bips, mut m_watts) = if let Some(r) = &steady {
            let mut bips = Vec::with_capacity(num_jobs);
            let mut watts = Vec::with_capacity(num_jobs);
            for j in 0..num_jobs {
                let per_core = if j < num_lc {
                    applied_plan.lc[j].cores as f64
                } else {
                    1.0
                };
                bips.push(self.noisy(r.per_job_bips[j].get() / per_core));
                watts.push(self.noisy(r.per_job_watts[j].get() / per_core));
            }
            (bips, watts)
        } else {
            (vec![0.0; num_jobs], vec![0.0; num_jobs])
        };
        // A power-telemetry blackout NaNs the watt readings after the noise
        // draws, keeping the RNG stream identical to a clean run.
        if qf.power_blackout {
            for w in m_watts.iter_mut() {
                *w = f64::NAN;
            }
        }
        let measured_tails: Vec<f64> = tails_ms.iter().map(|&t| self.noisy(t)).collect();
        for (i, &tail) in measured_tails.iter().enumerate() {
            self.last_tails[i] = Some(tail);
            self.last_cores[i] = applied_plan.lc[i].cores;
        }
        manager.observe(&SliceOutcome {
            plan: applied_plan,
            measured_bips: m_bips,
            measured_watts: m_watts,
            tails_ms: measured_tails,
        });

        self.now_ms = slice_end_ms;
        self.next_slice += 1;
        self.slices.push(record);
        &self.slices[slice]
    }

    fn noisy(&mut self, value: f64) -> f64 {
        let sigma = self.scenario.noise;
        if sigma == 0.0 {
            return value;
        }
        (value * (1.0 + sigma * standard_normal(&mut self.rng))).max(0.0)
    }

    /// Runs a profiling frame and returns what the manager measures: one
    /// noisy sample per distinct configuration among each tenant's cores,
    /// one per running batch job, and each tenant's noisy p99 under the
    /// frame's regime.
    fn profile_frame(&mut self, pp: &ProfilePlan, ms: f64) -> ProfileSample {
        let num_lc = self.num_lc;
        let result = self.run_frame(&pp.lc_configs, &pp.batch, ms);
        let mut samples = Vec::new();
        let mut offset = 0;
        for (i, configs) in pp.lc_configs.iter().enumerate() {
            let mut seen: Vec<JobConfig> = Vec::new();
            for cfg in configs {
                if seen.contains(cfg) {
                    continue;
                }
                seen.push(*cfg);
                let cores: Vec<usize> = configs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| *c == cfg)
                    .map(|(k, _)| offset + k)
                    .collect();
                let bips = cores
                    .iter()
                    .map(|&c| result.per_core_bips[c].get())
                    .sum::<f64>()
                    / cores.len() as f64;
                let watts = cores
                    .iter()
                    .map(|&c| result.per_core_watts[c].get())
                    .sum::<f64>()
                    / cores.len() as f64;
                samples.push(SamplePoint {
                    job: i,
                    config: *cfg,
                    bips: self.noisy(bips),
                    watts: self.noisy(watts),
                });
            }
            offset += configs.len();
        }
        // Batch: per-core bips of each running job.
        for (j, action) in pp.batch.iter().enumerate() {
            if let BatchAction::Run(config) = action {
                let bips = result.per_job_bips[num_lc + j].get();
                if bips > 0.0 {
                    let watts = result.per_job_watts[num_lc + j].get();
                    samples.push(SamplePoint {
                        job: num_lc + j,
                        config: *config,
                        bips: self.noisy(bips),
                        watts: self.noisy(watts),
                    });
                }
            }
        }
        let lc_tails_ms = (0..num_lc)
            .map(|i| {
                let p99 = self.tail_segments[i]
                    .last()
                    .map(|seg| seg.p99(seg.arrival_rate))
                    .unwrap_or(0.0);
                self.noisy(p99)
            })
            .collect();
        ProfileSample {
            duration_ms: ms,
            samples,
            lc_tails_ms,
        }
    }

    /// Instantaneous profiles at the current simulation time.
    fn profiles_now(&self) -> Vec<simulator::AppProfile> {
        let t_s = self.now_ms / 1000.0;
        self.profiles.iter().map(|p| p.at(t_s)).collect()
    }

    /// Builds core states and partition for a frame: LC tenants' cores in
    /// priority order, then the running batch jobs (after churn filtering
    /// and core-count multiplexing), then gated cores.
    fn frame_layout(
        &self,
        lc_configs: &[Vec<JobConfig>],
        batch: &[BatchAction],
    ) -> (Vec<CoreState>, LlcPartition) {
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
        // jobs run each slice.
        let running: Vec<usize> = if runnable.len() > batch_cores {
            let start = self.next_slice % runnable.len();
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
        (cores, partition)
    }

    /// Runs one frame, accumulating energy, instructions, and each tenant's
    /// tail segment; returns the frame result and contention.
    fn run_frame(
        &mut self,
        lc_configs: &[Vec<JobConfig>],
        batch: &[BatchAction],
        ms: f64,
    ) -> simulator::FrameResult {
        let (cores, partition) = self.frame_layout(lc_configs, batch);
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
        let perf = self.chip.perf();
        for (i, configs) in lc_configs.iter().enumerate() {
            let svc = &lc_specs[i].service;
            let reference = svc.reference_ipc(perf);
            let mean_rate = configs
                .iter()
                .map(|c| {
                    svc.service_rate_against(perf, c.core, c.cache, result.contention, reference)
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
    fn window_p99(&mut self, lc: usize) -> f64 {
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
    let mut driver = ScenarioDriver::new(scenario);
    while !driver.is_done() {
        driver.step(manager);
    }
    driver.into_record(manager.name())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use simulator::CoreConfig;
    use workloads::batch;

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

    fn quiet(slices: usize) -> Scenario {
        Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: slices,
            ..Scenario::quick_demo()
        }
    }

    #[test]
    fn widest_plan_runs_and_meets_qos_at_80_percent() {
        let scenario = quiet(3);
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
        let scenario = quiet(3);
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
        let scenario = quiet(3);
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
        let scenario = quiet(3);
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
        let scenario = quiet(3);
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
        let scenario = quiet(3);
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
        let mut scenario = quiet(4);
        // Make batch job 0 depart after slice 1 and batch job 1 arrive at
        // slice 2.
        let mut batch_seen = 0;
        for job in scenario.jobs.iter_mut() {
            if let JobSpec::Batch(b) = job {
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

    #[test]
    fn stepping_matches_run_scenario_exactly() {
        let s = Scenario::quick_demo();
        let whole = run_scenario(&s, &mut Widest);
        let mut driver = ScenarioDriver::new(&s);
        let mut m = Widest;
        while !driver.is_done() {
            driver.step(&mut m);
        }
        let stepped = driver.into_record(m.name());
        assert_eq!(whole, stepped);
    }

    #[test]
    fn runtime_admission_matches_a_static_arrival() {
        let newcomer = batch::mix(1, 0xBEEF).apps[0];
        // With phases on, the newcomer's profile drifts, so its seeding
        // must match the static declaration's too.
        for phases in [false, true] {
            let base = Scenario { phases, ..quiet(4) };
            // Static: the job is declared up front, arriving at slice 2.
            let mut s_static = base.clone();
            s_static.jobs.push(JobSpec::Batch(BatchJobSpec {
                app: newcomer,
                arrive_slice: 2,
                depart_slice: None,
            }));
            let expected = run_scenario(&s_static, &mut Widest);

            // Dynamic: the same job is admitted between slices 1 and 2.
            let mut driver = ScenarioDriver::new(&base);
            let mut m = Widest;
            driver.step(&mut m);
            driver.step(&mut m);
            let idx = driver.admit_batch(newcomer);
            assert_eq!(idx, base.num_batch());
            driver.step(&mut m);
            driver.step(&mut m);
            let got = driver.into_record(m.name());

            // The pre-admission slices differ in record *shape* (the static
            // run already carries the job's zero-instruction slot) but not
            // in any simulated quantity; from the arrival slice on they are
            // identical.
            assert_eq!(got.slices.len(), expected.slices.len());
            for (i, (g, e)) in got.slices.iter().zip(&expected.slices).enumerate() {
                let at = format!("phases {phases}, slice {i}");
                assert_eq!(g.chip_watts.to_bits(), e.chip_watts.to_bits(), "{at}");
                assert_eq!(
                    g.total_instructions.to_bits(),
                    e.total_instructions.to_bits(),
                    "{at}"
                );
                assert_eq!(g.tail_ms().to_bits(), e.tail_ms().to_bits(), "{at}");
            }
            assert_eq!(&got.slices[2..], &expected.slices[2..], "phases {phases}");
        }
    }

    #[test]
    fn runtime_drain_matches_a_static_departure() {
        // Static: batch job 0 departs before slice 2.
        let mut s_static = quiet(4);
        for job in s_static.jobs.iter_mut() {
            if let JobSpec::Batch(b) = job {
                b.depart_slice = Some(2);
                break;
            }
        }
        let expected = run_scenario(&s_static, &mut Widest);

        // Dynamic: the same departure is requested between slices 1 and 2.
        let mut driver = ScenarioDriver::new(&quiet(4));
        let mut m = Widest;
        driver.step(&mut m);
        driver.step(&mut m);
        driver.drain_batch(0).expect("job 0 is running");
        driver.step(&mut m);
        driver.step(&mut m);
        assert_eq!(driver.into_record(m.name()), expected);
    }

    #[test]
    fn drain_rejects_unknown_and_departed_jobs() {
        let mut driver = ScenarioDriver::new(&quiet(3));
        assert_eq!(
            driver.drain_batch(999),
            Err(DriveError::UnknownBatchJob(999))
        );
        driver.drain_batch(0).expect("running");
        assert_eq!(driver.drain_batch(0), Err(DriveError::NotRunning(0)));
    }

    #[test]
    fn step_past_the_horizon_keeps_simulating() {
        let mut driver = ScenarioDriver::new(&quiet(2));
        let mut m = Widest;
        while !driver.is_done() {
            driver.step(&mut m);
        }
        let extra = driver.step(&mut m).clone();
        assert_eq!(extra.t_s, 0.2);
        assert!(extra.total_instructions > 0.0);
    }
}
