//! The steppable simulation loop: scenario *driving* split from scenario
//! construction.
//!
//! [`crate::testbed::run_scenario`] used to be one monolithic function:
//! build a [`Testbed`], loop over every timeslice, return the
//! [`RunRecord`]. That shape forces the whole co-location to be fixed in
//! the [`Scenario`] at t = 0, which is exactly what a long-lived control
//! plane cannot accept — tenants register and deregister while the
//! decision loop is running.
//!
//! [`ScenarioDriver`] owns the per-slice state that used to live in
//! `run_scenario`'s local variables and exposes the loop body as
//! [`ScenarioDriver::step`]. Between steps the job population may change:
//!
//! * [`ScenarioDriver::admit_batch`] appends a batch job arriving at the
//!   next slice. The job's phase profile is seeded from its *index*
//!   (`seed ^ (0x1000 + i)`) and evaluated at absolute simulation time, so
//!   a job admitted at slice `k` behaves bit-identically to a static
//!   scenario that declared it with `arrive_slice = k` from the start.
//! * [`ScenarioDriver::drain_batch`] marks a batch job as departing, which
//!   flows through the existing churn machinery (`batch_active`) — again
//!   bit-identical to a static `depart_slice`.
//!
//! The driver touches no wall clock and spawns no threads; every step is a
//! pure function of the seed, the scenario, and the manager's decisions.
//! That keeps the replay guarantee that the control-plane tests pin: a
//! recorded registration trace replayed through the service reproduces the
//! equivalent static scenario's record bit-for-bit.

use simulator::JobConfig;
use workloads::batch::SpecBenchmark;
use workloads::phase::PhasedProfile;
use workloads::queueing::MmcQueue;

use crate::faults::{FaultInjector, InjectedFaults};
use crate::testbed::Testbed;
use crate::types::{
    BatchAction, BatchJobSpec, JobSpec, LcAssignment, Plan, ProfilePlan, ProfileSample,
    ResourceManager, RunRecord, SamplePoint, Scenario, SliceInfo, SliceOutcome, SliceRecord,
    TIMESLICE_MS,
};

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

/// The simulation loop as a value: constructed once from a [`Scenario`],
/// stepped one 100 ms timeslice at a time.
pub struct ScenarioDriver {
    tb: Testbed,
    injector: FaultInjector,
    last_tails: Vec<Option<f64>>,
    last_cores: Vec<usize>,
    lc_shares: Vec<f64>,
    next_slice: usize,
    slices: Vec<SliceRecord>,
}

impl ScenarioDriver {
    /// Builds the driver (and its testbed) for a scenario.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Testbed::new`].
    pub fn new(scenario: &Scenario) -> ScenarioDriver {
        let last_cores = scenario.lc_jobs().iter().map(|lc| lc.cores).collect();
        ScenarioDriver {
            tb: Testbed::new(scenario),
            injector: FaultInjector::new(scenario.faults.clone()),
            last_tails: vec![None; scenario.num_lc()],
            last_cores,
            lc_shares: vec![1.0; scenario.num_lc()],
            next_slice: 0,
            slices: Vec::with_capacity(scenario.duration_slices),
        }
    }

    /// Scales the offered load of LC service `lc_index` by `share` from the
    /// next slice on. The default share of 1.0 multiplies the declared load
    /// pattern by exactly 1.0, so an untouched driver is bit-identical to a
    /// pre-share one; cluster load balancing moves traffic between replicas
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
        &self.tb.scenario
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
        self.next_slice >= self.tb.scenario.duration_slices
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
    /// index. The testbed state this grows (phase profile, instruction and
    /// configuration slots) is exactly what [`Testbed::new`] would have
    /// built for a static scenario declaring the same job with
    /// `arrive_slice = next_slice`.
    pub fn admit_batch(&mut self, app: SpecBenchmark) -> usize {
        let i = self.tb.scenario.num_batch();
        self.tb.scenario.jobs.push(JobSpec::Batch(BatchJobSpec {
            app,
            arrive_slice: self.next_slice,
            depart_slice: None,
        }));
        self.tb.profiles.push(if self.tb.scenario.phases {
            PhasedProfile::with_seed(app.profile, self.tb.scenario.seed ^ (0x1000 + i as u64))
        } else {
            PhasedProfile::steady(app.profile)
        });
        self.tb.active.push(false);
        self.tb.instructions.push(0.0);
        self.tb.last_config.push(None);
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
            .tb
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
    /// record. This is the loop body `run_scenario` used to inline; the
    /// ordering of every RNG draw is preserved so records are bit-identical
    /// to the pre-split implementation.
    pub fn step(&mut self, manager: &mut dyn ResourceManager) -> &SliceRecord {
        let slice = self.next_slice;
        let tb = &mut self.tb;
        let injector = &self.injector;
        let num_lc = tb.num_lc;
        let num_jobs = tb.instructions.len();
        let lc_specs: Vec<_> = tb.scenario.lc_jobs().into_iter().cloned().collect();

        let qf = injector.quantum(slice);
        let mut slice_faults = InjectedFaults {
            power_blackout: qf.power_blackout,
            reconfig_failed: qf.reconfig_fail,
            ..InjectedFaults::default()
        };
        let t_s = slice as f64 * TIMESLICE_MS / 1000.0;
        for (i, lc) in lc_specs.iter().enumerate() {
            tb.current_load[i] = lc.load.load_at(t_s) * self.lc_shares[i];
        }
        tb.active = tb.scenario.batch_active(slice);
        let cap_watts = tb.scenario.cap.load_at(t_s) * tb.scenario.nominal_budget_watts();
        tb.slice_end_ms = (slice + 1) as f64 * TIMESLICE_MS;
        tb.energy_mj = 0.0;
        tb.instructions.iter_mut().for_each(|i| *i = 0.0);
        tb.tail_segments.iter_mut().for_each(Vec::clear);

        let info = SliceInfo {
            slice,
            cap_watts,
            num_cores: tb.scenario.params.num_cores,
            llc_ways: tb.scenario.params.llc_ways,
            num_batch: tb.scenario.num_batch(),
            lc: lc_specs
                .iter()
                .enumerate()
                .map(|(i, lc)| crate::types::LcSliceInfo {
                    service: lc.service,
                    qos_ms: lc.qos_ms,
                    load: tb.current_load[i],
                    last_tail_ms: self.last_tails[i],
                    last_cores: self.last_cores[i],
                })
                .collect(),
            batch_active: tb.active.clone(),
        };

        // Let the manager probe; each probe consumes slice time.
        let plan = {
            let tb_ref = &mut *tb;
            let sf = &mut slice_faults;
            let mut frame_idx = 0u64;
            let mut probe = |pp: &ProfilePlan, ms: f64| -> ProfileSample {
                let remaining = tb_ref.slice_end_ms - tb_ref.now_ms;
                let ms = ms.min(remaining.max(0.0));
                if ms <= 0.0 {
                    return ProfileSample {
                        duration_ms: 0.0,
                        samples: Vec::new(),
                        lc_tails_ms: vec![0.0; num_lc],
                    };
                }
                let result = tb_ref.run_frame(&pp.lc_configs, &pp.batch, ms);
                let mut samples = Vec::new();
                // LC tenants: one sample per distinct configuration among
                // each tenant's cores.
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
                            bips: tb_ref.noisy(bips),
                            watts: tb_ref.noisy(watts),
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
                                bips: tb_ref.noisy(bips),
                                watts: tb_ref.noisy(watts),
                            });
                        }
                    }
                }
                let lc_tails_ms: Vec<f64> = (0..num_lc)
                    .map(|i| {
                        let p99 = tb_ref.tail_segments[i]
                            .last()
                            .map(|seg| {
                                MmcQueue::new(seg.servers, seg.service_rate, seg.arrival_rate)
                                    .p99_ms()
                                    .get()
                            })
                            .unwrap_or(0.0);
                        tb_ref.noisy(p99)
                    })
                    .collect();
                let mut sample = ProfileSample {
                    duration_ms: ms,
                    samples,
                    lc_tails_ms,
                };
                // Environment faults, applied strictly *after* every noise
                // draw so the RNG stream matches a clean run exactly.
                if qf.power_blackout {
                    for s in sample.samples.iter_mut() {
                        s.watts = f64::NAN;
                    }
                }
                let (dropped, corrupted) = injector.corrupt_profile(slice, frame_idx, &mut sample);
                frame_idx += 1;
                sf.samples_dropped += dropped;
                sf.samples_corrupted += corrupted;
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
                        config: tb.last_config[i].unwrap_or(a.config),
                    })
                    .collect(),
                batch: plan
                    .batch
                    .iter()
                    .enumerate()
                    .map(|(j, a)| match a {
                        BatchAction::Run(cfg) => {
                            BatchAction::Run(tb.last_config[num_lc + j].unwrap_or(*cfg))
                        }
                        BatchAction::Gated => BatchAction::Gated,
                    })
                    .collect(),
            }
        } else {
            plan.clone()
        };
        let steady_ms = (tb.slice_end_ms - tb.now_ms).max(0.0);
        let lc_configs: Vec<Vec<JobConfig>> = applied_plan
            .lc
            .iter()
            .map(|a| vec![a.config; a.cores])
            .collect();
        let steady = if steady_ms > 0.0 {
            Some(tb.run_frame(&lc_configs, &applied_plan.batch, steady_ms))
        } else {
            None
        };

        let tails_ms: Vec<f64> = (0..num_lc).map(|i| tb.window_p99(i)).collect();
        let chip_watts = tb.energy_mj / TIMESLICE_MS;
        let batch_instr: f64 = tb.instructions[num_lc..].iter().sum();
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
                .map(|(i, lc)| crate::types::LcSliceRecord {
                    service: lc.service.name,
                    qos_ms: lc.qos_ms,
                    load: tb.current_load[i],
                    tail_ms: tails_ms[i],
                    qos_violation: tails_ms[i] > lc.qos_ms,
                    cores: applied_plan.lc[i].cores,
                    config: applied_plan.lc[i].config,
                })
                .collect(),
            batch_instructions: batch_instr,
            total_instructions: tb.instructions.iter().sum(),
            per_job_instructions: tb.instructions.clone(),
            batch_configs: applied_plan.batch.iter().map(|a| a.config()).collect(),
            batch_gmean_bips: gmean,
            telemetry,
            fault: if injector.is_clean() {
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
                bips.push(tb.noisy(r.per_job_bips[j].get() / per_core));
                watts.push(tb.noisy(r.per_job_watts[j].get() / per_core));
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
        let measured_tails: Vec<f64> = tails_ms.iter().map(|&t| tb.noisy(t)).collect();
        manager.observe(&SliceOutcome {
            plan: applied_plan.clone(),
            measured_bips: m_bips,
            measured_watts: m_watts,
            tails_ms: measured_tails.clone(),
        });

        for (i, &tail) in measured_tails.iter().enumerate().take(num_lc) {
            self.last_tails[i] = Some(tail);
            self.last_cores[i] = applied_plan.lc[i].cores;
        }
        tb.rotation += 1;
        tb.now_ms = tb.slice_end_ms;
        self.next_slice += 1;
        self.slices.push(record);
        // Pushed on the line above, so the vector is non-empty.
        #[allow(clippy::unwrap_used)]
        self.slices.last().unwrap()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::testbed::run_scenario;
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

    fn quiet(slices: usize) -> Scenario {
        Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: slices,
            ..Scenario::quick_demo()
        }
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
        // Static: the job is declared up front, arriving at slice 2.
        let mut s_static = quiet(4);
        s_static.jobs.push(JobSpec::Batch(BatchJobSpec {
            app: newcomer,
            arrive_slice: 2,
            depart_slice: None,
        }));
        let expected = run_scenario(&s_static, &mut Widest);

        // Dynamic: the same job is admitted between slices 1 and 2.
        let mut driver = ScenarioDriver::new(&quiet(4));
        let mut m = Widest;
        driver.step(&mut m);
        driver.step(&mut m);
        let idx = driver.admit_batch(newcomer);
        assert_eq!(idx, quiet(4).num_batch());
        driver.step(&mut m);
        driver.step(&mut m);
        let got = driver.into_record(m.name());

        // The pre-admission slices differ in record *shape* (the static run
        // already carries the job's zero-instruction slot) but not in any
        // simulated quantity; from the arrival slice on they are identical.
        assert_eq!(got.slices.len(), expected.slices.len());
        for (i, (g, e)) in got.slices.iter().zip(&expected.slices).enumerate() {
            assert_eq!(g.chip_watts.to_bits(), e.chip_watts.to_bits(), "slice {i}");
            assert_eq!(
                g.total_instructions.to_bits(),
                e.total_instructions.to_bits(),
                "slice {i}"
            );
            assert_eq!(g.tail_ms().to_bits(), e.tail_ms().to_bits(), "slice {i}");
        }
        assert_eq!(&got.slices[2..], &expected.slices[2..]);
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
