//! Shared vocabulary of the decision loop: scenarios, plans, measurements,
//! records, and the [`ResourceManager`] contract.
//!
//! These types are the interface between three worlds — the simulated server
//! in [`crate::testbed`], the decision pipeline in [`crate::pipeline`], and
//! the experiment harness in the `bench` crate — so they live in their own
//! module with no dependency on any of them.
//!
//! # The job model
//!
//! A [`Scenario`] carries a list of [`JobSpec`]s. Each job is either
//! latency-critical — an interactive service with its own QoS target, input
//! load, and core reservation — or batch — a throughput application that may
//! arrive or depart mid-run (churn). Job indices are global and stable:
//! LC jobs occupy indices `0..num_lc` in specification order (which is also
//! their QoS priority order), batch jobs follow at `num_lc..num_lc +
//! num_batch`. The paper's setup is the exact `N = 1` special case, and
//! [`Scenario::paper_default`] reproduces it bit-identically.

use simulator::power::CoreKind;
use simulator::{AppProfile, CacheAlloc, Chip, CoreConfig, JobConfig, SystemParams};
use workloads::batch::{self, SpecBenchmark, SpecMix};
use workloads::latency::LcService;
use workloads::loadgen::LoadPattern;

use crate::faults::{FaultPlan, InjectedFaults};
use crate::telemetry::StageTelemetry;

/// Number of batch applications in the standard co-location.
pub const BATCH_JOBS: usize = 16;

/// The default decision quantum in milliseconds (§IV-B).
pub const TIMESLICE_MS: f64 = 100.0;

/// A latency-critical tenant: an interactive service with its own QoS
/// target, input load, and initial core reservation.
#[derive(Debug, Clone, PartialEq)]
pub struct LcJobSpec {
    /// The interactive service.
    pub service: LcService,
    /// QoS target on 99th-percentile latency (ms). Defaults to the
    /// service's calibrated target but may be overridden per tenant.
    pub qos_ms: f64,
    /// Input load over time, as a fraction of the service's calibrated
    /// maximum QPS.
    pub load: LoadPattern,
    /// Cores initially reserved for this tenant.
    pub cores: usize,
}

impl LcJobSpec {
    /// A tenant running `service` at its calibrated QoS target.
    pub fn new(service: LcService, load: LoadPattern, cores: usize) -> LcJobSpec {
        LcJobSpec {
            service,
            qos_ms: service.qos_ms,
            load,
            cores,
        }
    }
}

/// A batch tenant: a throughput application, optionally arriving or
/// departing mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJobSpec {
    /// The application.
    pub app: SpecBenchmark,
    /// First slice in which the job is present.
    pub arrive_slice: usize,
    /// Slice at which the job departs (exclusive); `None` = stays forever.
    pub depart_slice: Option<usize>,
}

impl BatchJobSpec {
    /// A batch job present for the whole run.
    pub fn resident(app: SpecBenchmark) -> BatchJobSpec {
        BatchJobSpec {
            app,
            arrive_slice: 0,
            depart_slice: None,
        }
    }

    /// Whether the job is present during `slice`.
    pub fn active_at(&self, slice: usize) -> bool {
        slice >= self.arrive_slice && self.depart_slice.is_none_or(|d| slice < d)
    }
}

/// One job in a scenario: a latency-critical tenant or a batch application.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// An interactive service with a QoS target.
    LatencyCritical(LcJobSpec),
    /// A throughput application.
    Batch(BatchJobSpec),
}

/// A complete experiment configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Chip parameters (Table I).
    pub params: SystemParams,
    /// Core kind: reconfigurable for CuttleSys/Flicker, fixed for the
    /// gating/asymmetric/no-gating baselines.
    pub kind: CoreKind,
    /// The co-located jobs. LC jobs take global indices `0..num_lc` in
    /// order (their QoS priority order); batch jobs follow.
    pub jobs: Vec<JobSpec>,
    /// Power cap over time, as a fraction of the nominal budget.
    pub cap: LoadPattern,
    /// Number of 100 ms timeslices to simulate.
    pub duration_slices: usize,
    /// Relative standard deviation of measurement noise.
    pub noise: f64,
    /// Whether applications drift through execution phases.
    pub phases: bool,
    /// Master seed.
    pub seed: u64,
    /// Fault-injection plan (dropped/corrupted samples, diverged
    /// reconstructions, failed reconfigurations, power blackouts). Defaults
    /// to [`FaultPlan::none`], under which every fault hook is a guaranteed
    /// no-op and runs are bit-identical to a build without them.
    pub faults: FaultPlan,
}

impl Scenario {
    /// The paper's standard setup: 32 cores, 50/50 split, Xapian at 80 %
    /// load with mix 0, a 70 % power cap, one second of simulated time.
    // Looks up services baked into the static workload catalog.
    #[allow(clippy::expect_used)]
    pub fn paper_default() -> Scenario {
        let service = workloads::latency::service_by_name("xapian").expect("xapian exists");
        let mut jobs = vec![JobSpec::LatencyCritical(LcJobSpec::new(
            service,
            LoadPattern::Constant(0.8),
            16,
        ))];
        for app in batch::mix(BATCH_JOBS, batch::STANDARD_MIX_SEED).apps {
            jobs.push(JobSpec::Batch(BatchJobSpec::resident(app)));
        }
        Scenario {
            params: SystemParams::default(),
            kind: CoreKind::Reconfigurable,
            jobs,
            cap: LoadPattern::Constant(0.7),
            duration_slices: 10,
            noise: 0.03,
            phases: true,
            seed: 7,
            faults: FaultPlan::none(),
        }
    }

    /// A fast, small configuration for doc examples and smoke tests.
    pub fn quick_demo() -> Scenario {
        Scenario {
            duration_slices: 3,
            ..Scenario::paper_default()
        }
    }

    /// A first-class multi-tenant setup: Xapian and Masstree with their own
    /// QoS targets on 8 cores each, co-located with 12 batch jobs under a
    /// 70 % power cap.
    ///
    /// Per-tenant loads are fractions of each service's 16-core calibrated
    /// maximum, so 0.4 keeps an 8-core reservation below its knee.
    // Looks up services baked into the static workload catalog.
    #[allow(clippy::expect_used)]
    pub fn two_service() -> Scenario {
        let xapian = workloads::latency::service_by_name("xapian").expect("xapian exists");
        let masstree = workloads::latency::service_by_name("masstree").expect("masstree exists");
        let mut jobs = vec![
            JobSpec::LatencyCritical(LcJobSpec::new(xapian, LoadPattern::Constant(0.4), 8)),
            JobSpec::LatencyCritical(LcJobSpec::new(masstree, LoadPattern::Constant(0.4), 8)),
        ];
        for app in batch::mix(12, batch::STANDARD_MIX_SEED).apps {
            jobs.push(JobSpec::Batch(BatchJobSpec::resident(app)));
        }
        Scenario {
            jobs,
            ..Scenario::paper_default()
        }
    }

    /// Replaces the primary (first) LC tenant's service, resetting its QoS
    /// target to the service's calibrated value.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn with_service(mut self, service: LcService) -> Scenario {
        let lc = self
            .jobs
            .iter_mut()
            .find_map(|j| match j {
                JobSpec::LatencyCritical(lc) => Some(lc),
                JobSpec::Batch(_) => None,
            })
            .expect("scenario has an LC job");
        lc.service = service;
        lc.qos_ms = service.qos_ms;
        self
    }

    /// Replaces the batch jobs with the given mix (all resident).
    pub fn with_mix(mut self, mix: SpecMix) -> Scenario {
        self.jobs
            .retain(|j| matches!(j, JobSpec::LatencyCritical(_)));
        for app in mix.apps {
            self.jobs.push(JobSpec::Batch(BatchJobSpec::resident(app)));
        }
        self
    }

    /// Replaces the fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Replaces the number of decision quanta to simulate.
    #[must_use]
    pub fn with_duration_slices(mut self, slices: usize) -> Scenario {
        self.duration_slices = slices;
        self
    }

    /// Replaces the power-cap pattern (fraction of the nominal budget).
    #[must_use]
    pub fn with_cap(mut self, cap: LoadPattern) -> Scenario {
        self.cap = cap;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Replaces the measurement-noise relative standard deviation.
    #[must_use]
    pub fn with_noise(mut self, noise: f64) -> Scenario {
        self.noise = noise;
        self
    }

    /// Enables or disables execution-phase drift.
    #[must_use]
    pub fn with_phases(mut self, phases: bool) -> Scenario {
        self.phases = phases;
        self
    }

    /// Replaces the primary LC tenant's load pattern.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn with_load(mut self, load: LoadPattern) -> Scenario {
        let lc = self
            .jobs
            .iter_mut()
            .find_map(|j| match j {
                JobSpec::LatencyCritical(lc) => Some(lc),
                JobSpec::Batch(_) => None,
            })
            .expect("scenario has an LC job");
        lc.load = load;
        self
    }

    /// The LC tenants in priority order.
    pub fn lc_jobs(&self) -> Vec<&LcJobSpec> {
        self.jobs
            .iter()
            .filter_map(|j| match j {
                JobSpec::LatencyCritical(lc) => Some(lc),
                JobSpec::Batch(_) => None,
            })
            .collect()
    }

    /// The batch jobs in order.
    pub fn batch_jobs(&self) -> Vec<&BatchJobSpec> {
        self.jobs
            .iter()
            .filter_map(|j| match j {
                JobSpec::Batch(b) => Some(b),
                JobSpec::LatencyCritical(_) => None,
            })
            .collect()
    }

    /// The primary (first, highest-priority) LC tenant.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no LC job.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn primary_lc(&self) -> &LcJobSpec {
        self.lc_jobs()
            .first()
            .copied()
            .expect("scenario has an LC job")
    }

    /// Number of LC tenants.
    pub fn num_lc(&self) -> usize {
        self.lc_jobs().len()
    }

    /// Number of batch jobs (resident or churning).
    pub fn num_batch(&self) -> usize {
        self.batch_jobs().len()
    }

    /// Total cores initially reserved across all LC tenants.
    pub fn total_lc_cores(&self) -> usize {
        self.lc_jobs().iter().map(|lc| lc.cores).sum()
    }

    /// Microarchitectural profiles of the batch jobs, in order.
    pub fn batch_profiles(&self) -> Vec<AppProfile> {
        self.batch_jobs().iter().map(|b| b.app.profile).collect()
    }

    /// Names of the batch jobs, in order.
    pub fn batch_names(&self) -> Vec<&'static str> {
        self.batch_jobs().iter().map(|b| b.app.name).collect()
    }

    /// Which batch jobs are present during `slice`.
    pub fn batch_active(&self, slice: usize) -> Vec<bool> {
        self.batch_jobs()
            .iter()
            .map(|b| b.active_at(slice))
            .collect()
    }

    /// Nominal (100 %) power budget in Watts: the §VII-A definition —
    /// average per-core power across all jobs on reconfigurable cores,
    /// scaled to the full chip. Identical across core kinds so every design
    /// is compared at the same Wattage.
    pub fn nominal_budget_watts(&self) -> f64 {
        let reconf = Chip::new(self.params, CoreKind::Reconfigurable);
        let mut profiles = self.batch_profiles();
        for lc in self.lc_jobs() {
            profiles.push(lc.service.profile);
        }
        reconf.nominal_power_budget(&profiles).get()
    }
}

/// What a batch job does during a timeslice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchAction {
    /// Run on one core at this configuration.
    Run(JobConfig),
    /// The job's core is power-gated; it executes nothing.
    Gated,
}

impl BatchAction {
    /// The configuration, if running.
    pub fn config(&self) -> Option<JobConfig> {
        match self {
            BatchAction::Run(c) => Some(*c),
            BatchAction::Gated => None,
        }
    }
}

/// Cores and configuration granted to one LC tenant for a timeslice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcAssignment {
    /// Cores assigned to the tenant.
    pub cores: usize,
    /// Configuration of every one of those cores.
    pub config: JobConfig,
}

/// A steady-state plan for one timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Per-LC-tenant assignment, in priority order.
    pub lc: Vec<LcAssignment>,
    /// Action for each batch job.
    pub batch: Vec<BatchAction>,
}

impl Plan {
    /// A single-LC plan — the paper's shape.
    pub fn with_single_lc(lc_cores: usize, lc_config: JobConfig, batch: Vec<BatchAction>) -> Plan {
        Plan {
            lc: vec![LcAssignment {
                cores: lc_cores,
                config: lc_config,
            }],
            batch,
        }
    }

    /// All cores at the widest configuration with four LLC ways each — the
    /// no-gating reference for the given per-tenant core split.
    pub fn all_widest(lc_cores: &[usize], num_batch: usize) -> Plan {
        Plan {
            lc: lc_cores
                .iter()
                .map(|&cores| LcAssignment {
                    cores,
                    config: JobConfig::new(CoreConfig::widest(), CacheAlloc::Four),
                })
                .collect(),
            batch: vec![BatchAction::Run(JobConfig::profiling_high()); num_batch],
        }
    }

    /// Total cores held by LC tenants.
    pub fn lc_cores(&self) -> usize {
        self.lc.iter().map(|a| a.cores).sum()
    }

    /// The primary LC tenant's configuration.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn lc_config(&self) -> JobConfig {
        self.lc.first().expect("plan has an LC assignment").config
    }

    /// Total LLC ways this plan allocates.
    pub fn total_ways(&self) -> f64 {
        self.lc.iter().map(|a| a.config.cache.ways()).sum::<f64>()
            + self
                .batch
                .iter()
                .filter_map(|a| a.config())
                .map(|c| c.cache.ways())
                .sum::<f64>()
    }
}

/// A profiling frame request: per-core configurations for each LC tenant
/// (so halves can be split across the widest/narrowest extremes) plus
/// per-job batch actions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePlan {
    /// Configuration of each core of each LC tenant, in priority order
    /// (`lc_configs[i].len()` is tenant `i`'s core count).
    pub lc_configs: Vec<Vec<JobConfig>>,
    /// Action for each batch job.
    pub batch: Vec<BatchAction>,
}

impl ProfilePlan {
    /// A single-LC profiling frame — the paper's shape.
    pub fn single_lc(lc_configs: Vec<JobConfig>, batch: Vec<BatchAction>) -> ProfilePlan {
        ProfilePlan {
            lc_configs: vec![lc_configs],
            batch,
        }
    }
}

/// One measured sample: a job observed at a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Global job index: `0..num_lc` are the LC tenants,
    /// `num_lc..num_lc + num_batch` are batch jobs.
    pub job: usize,
    /// The configuration the job (or a subset of its cores) ran in.
    pub config: JobConfig,
    /// Measured per-core throughput (BIPS), with measurement noise.
    pub bips: f64,
    /// Measured per-core power (W), with measurement noise.
    pub watts: f64,
}

/// Measurements returned by a profiling frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSample {
    /// Frame duration in milliseconds.
    pub duration_ms: f64,
    /// Per-(job, config) samples.
    pub samples: Vec<SamplePoint>,
    /// Noisy per-tenant estimate of tail latency under this frame's regime —
    /// what a 10 ms Flicker profiling period would measure (ms).
    pub lc_tails_ms: Vec<f64>,
}

/// Per-tenant facts a manager sees at the start of a timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct LcSliceInfo {
    /// The tenant's service.
    pub service: LcService,
    /// The tenant's QoS target (ms).
    pub qos_ms: f64,
    /// Measured arrival rate as a fraction of the service's calibrated
    /// maximum QPS — directly observable from request counters in a real
    /// deployment.
    pub load: f64,
    /// Measured 99th-percentile latency of the previous slice, if any.
    pub last_tail_ms: Option<f64>,
    /// Cores the tenant held in the previous slice.
    pub last_cores: usize,
}

/// Static facts a manager sees at the start of a timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceInfo {
    /// Timeslice index.
    pub slice: usize,
    /// Power cap for this slice, in Watts.
    pub cap_watts: f64,
    /// Total cores on the chip.
    pub num_cores: usize,
    /// LLC associativity: the ways every job on the chip shares.
    pub llc_ways: u32,
    /// Number of batch jobs.
    pub num_batch: usize,
    /// Per-LC-tenant facts, in priority order.
    pub lc: Vec<LcSliceInfo>,
    /// Which batch jobs are present this slice (churn).
    pub batch_active: Vec<bool>,
}

impl SliceInfo {
    /// The primary LC tenant's facts.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn primary_lc(&self) -> &LcSliceInfo {
        self.lc.first().expect("slice has an LC tenant")
    }

    /// Number of batch jobs present this slice.
    pub fn active_batch(&self) -> usize {
        self.batch_active.iter().filter(|a| **a).count()
    }
}

/// Steady-state measurements a manager receives after its plan ran.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceOutcome {
    /// The plan that ran.
    pub plan: Plan,
    /// Noisy per-core throughput of each job (global indices: LC tenants
    /// first, then batch).
    pub measured_bips: Vec<f64>,
    /// Noisy per-core power of each job.
    pub measured_watts: Vec<f64>,
    /// Measured per-tenant 99th-percentile latency over the whole slice
    /// (ms), in priority order.
    pub tails_ms: Vec<f64>,
}

/// A resource manager under test.
pub trait ResourceManager {
    /// Human-readable scheme name for reports.
    fn name(&self) -> String;

    /// Decides the steady-state plan for this timeslice. `probe` runs a
    /// profiling frame and returns its measurements; every probe consumes
    /// its duration from the slice.
    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan;

    /// Observes the steady-state outcome (default: ignore).
    fn observe(&mut self, _outcome: &SliceOutcome) {}

    /// Yields the instrumentation record of the most recent [`plan`] call,
    /// if the manager collects one (default: none). The testbed stores it in
    /// the slice's [`SliceRecord::telemetry`].
    ///
    /// [`plan`]: ResourceManager::plan
    fn take_telemetry(&mut self) -> Option<StageTelemetry> {
        None
    }
}

/// Ground-truth per-tenant record of one timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct LcSliceRecord {
    /// The tenant's service name.
    pub service: &'static str,
    /// The tenant's QoS target (ms) — stored so summaries never need a
    /// caller-supplied target.
    pub qos_ms: f64,
    /// Input load fraction during the slice.
    pub load: f64,
    /// True 99th-percentile latency over the slice (ms), before noise.
    pub tail_ms: f64,
    /// Whether the tail violated the tenant's QoS.
    pub qos_violation: bool,
    /// Cores held by the tenant.
    pub cores: usize,
    /// The tenant's steady-phase configuration.
    pub config: JobConfig,
}

/// Ground-truth record of one timeslice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRecord {
    /// Slice start time in seconds.
    pub t_s: f64,
    /// Power cap (W).
    pub cap_watts: f64,
    /// Time-weighted average chip power over the slice (W).
    pub chip_watts: f64,
    /// Whether average power exceeded the cap.
    pub power_violation: bool,
    /// Per-LC-tenant ground truth, in priority order.
    pub lc: Vec<LcSliceRecord>,
    /// Instructions executed by batch jobs during the slice.
    pub batch_instructions: f64,
    /// Instructions executed by all jobs during the slice.
    pub total_instructions: f64,
    /// Per-job instructions (global indices: LC tenants first).
    pub per_job_instructions: Vec<f64>,
    /// Steady-phase batch configurations (`None` = gated or departed).
    pub batch_configs: Vec<Option<JobConfig>>,
    /// Geometric mean of running batch jobs' throughput (BIPS).
    pub batch_gmean_bips: f64,
    /// Per-stage instrumentation of the decision that produced this slice's
    /// plan, when the manager collects it (CuttleSys does; see
    /// [`StageTelemetry`]).
    pub telemetry: Option<StageTelemetry>,
    /// Environment faults injected into this slice, when a fault plan is
    /// active (`None` on clean runs).
    pub fault: Option<InjectedFaults>,
}

impl SliceRecord {
    /// The primary LC tenant's record.
    // Documented panic: every scenario/plan carries at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn primary_lc(&self) -> &LcSliceRecord {
        self.lc.first().expect("slice has an LC tenant")
    }

    /// The primary LC tenant's input load.
    pub fn load(&self) -> f64 {
        self.primary_lc().load
    }

    /// The primary LC tenant's true tail latency (ms).
    pub fn tail_ms(&self) -> f64 {
        self.primary_lc().tail_ms
    }

    /// Whether any LC tenant violated its QoS this slice.
    pub fn qos_violation(&self) -> bool {
        self.lc.iter().any(|l| l.qos_violation)
    }

    /// Total cores held by LC tenants.
    pub fn lc_cores(&self) -> usize {
        self.lc.iter().map(|l| l.cores).sum()
    }

    /// The primary LC tenant's steady-phase configuration.
    pub fn lc_config(&self) -> JobConfig {
        self.primary_lc().config
    }
}

/// A completed scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The manager's name.
    pub scheme: String,
    /// Per-slice records.
    pub slices: Vec<SliceRecord>,
}

impl RunRecord {
    /// Total instructions executed by batch jobs across the run — the
    /// paper's comparison metric (§VII-B).
    pub fn batch_instructions(&self) -> f64 {
        self.slices.iter().map(|s| s.batch_instructions).sum()
    }

    /// Number of slices in which any LC tenant violated its QoS.
    pub fn qos_violations(&self) -> usize {
        self.slices.iter().filter(|s| s.qos_violation()).count()
    }

    /// Number of slices in which LC tenant `lc` violated its QoS.
    pub fn qos_violations_for(&self, lc: usize) -> usize {
        self.slices
            .iter()
            .filter(|s| s.lc.get(lc).is_some_and(|l| l.qos_violation))
            .count()
    }

    /// Number of slices whose average power exceeded the cap.
    pub fn power_violations(&self) -> usize {
        self.slices.iter().filter(|s| s.power_violation).count()
    }

    /// Worst tail-latency-to-QoS ratio across the run, over every LC
    /// tenant. Targets come from the records themselves, so summaries can
    /// never mismatch the scenario.
    pub fn worst_tail_ratio(&self) -> f64 {
        self.slices
            .iter()
            .flat_map(|s| s.lc.iter())
            .map(|l| l.tail_ms / l.qos_ms)
            .fold(0.0, f64::max)
    }

    /// The record with wall-clock stage timings (and the ledger-only cache
    /// counters) zeroed, so runs compare on simulated quantities only — the
    /// convention every determinism test in this workspace uses.
    pub fn comparable(mut self) -> RunRecord {
        for slice in self.slices.iter_mut() {
            if let Some(t) = slice.telemetry.as_mut() {
                t.profile_wall_ms = 0.0;
                t.reconstruct_wall_ms = 0.0;
                t.qos_wall_ms = 0.0;
                t.search_wall_ms = 0.0;
                t.repair_wall_ms = 0.0;
                t.cache_hits = 0;
                t.cache_misses = 0;
            }
        }
        self
    }

    /// Per-stage telemetry aggregated over the slices that carry it
    /// (`None` when no slice does — e.g. baseline managers).
    pub fn stage_summary(&self) -> Option<crate::telemetry::TelemetrySummary> {
        crate::telemetry::TelemetrySummary::over(
            self.slices.iter().filter_map(|s| s.telemetry.as_ref()),
        )
    }

    /// Number of slices whose decision degraded in any way (sample
    /// rejection fallback, last-good replay, safe mode, open breaker).
    pub fn degraded_quanta(&self) -> usize {
        self.slices
            .iter()
            .filter_map(|s| s.telemetry.as_ref())
            .filter(|t| t.degradation.degraded())
            .count()
    }

    /// Number of slices in which at least one environment fault actually
    /// fired (dropped/corrupted samples, blackout, failed reconfiguration).
    pub fn injected_fault_slices(&self) -> usize {
        self.slices
            .iter()
            .filter(|s| s.fault.is_some_and(|f| f.any()))
            .count()
    }

    /// Number of slices served by the safe-mode allocation.
    pub fn safe_mode_quanta(&self) -> usize {
        self.slices
            .iter()
            .filter_map(|s| s.telemetry.as_ref())
            .filter(|t| t.degradation.safe_mode)
            .count()
    }

    /// The run as a JSON document: scheme, run-level summary metrics, the
    /// aggregated stage telemetry when present, and one row per slice.
    pub fn to_json(&self) -> util::JsonValue {
        use util::JsonValue as J;
        let slice_row = |s: &SliceRecord| {
            J::Obj(vec![
                ("t_s".into(), J::Num(s.t_s)),
                ("cap_watts".into(), J::Num(s.cap_watts)),
                ("chip_watts".into(), J::Num(s.chip_watts)),
                ("power_violation".into(), J::Bool(s.power_violation)),
                (
                    "lc".into(),
                    J::Arr(
                        s.lc.iter()
                            .map(|l| {
                                J::Obj(vec![
                                    ("service".into(), J::Str(l.service.to_string())),
                                    ("load".into(), J::Num(l.load)),
                                    ("tail_ms".into(), J::Num(l.tail_ms)),
                                    ("qos_ms".into(), J::Num(l.qos_ms)),
                                    ("qos_violation".into(), J::Bool(l.qos_violation)),
                                    ("cores".into(), J::Num(l.cores as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("batch_instructions".into(), J::Num(s.batch_instructions)),
                ("batch_gmean_bips".into(), J::Num(s.batch_gmean_bips)),
                (
                    "degraded".into(),
                    J::Bool(
                        s.telemetry
                            .as_ref()
                            .is_some_and(|t| t.degradation.degraded()),
                    ),
                ),
            ])
        };
        J::Obj(vec![
            ("scheme".into(), J::Str(self.scheme.clone())),
            (
                "batch_instructions".into(),
                J::Num(self.batch_instructions()),
            ),
            (
                "qos_violations".into(),
                J::Num(self.qos_violations() as f64),
            ),
            (
                "power_violations".into(),
                J::Num(self.power_violations() as f64),
            ),
            ("worst_tail_ratio".into(), J::Num(self.worst_tail_ratio())),
            (
                "degraded_quanta".into(),
                J::Num(self.degraded_quanta() as f64),
            ),
            (
                "safe_mode_quanta".into(),
                J::Num(self.safe_mode_quanta() as f64),
            ),
            (
                "stage_summary".into(),
                self.stage_summary()
                    .map_or(J::Null, |summary| summary.to_json()),
            ),
            (
                "slices".into(),
                J::Arr(self.slices.iter().map(slice_row).collect()),
            ),
        ])
    }
}
