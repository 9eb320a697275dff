//! Chip-level simulation: cores, job assignments, and frame execution.
//!
//! The chip advances in *frames* (1 ms profiling samples or 100 ms decision
//! timeslices). Within a frame, each active core runs its assigned job at a
//! fixed configuration; the simulator solves a small fixed point between
//! throughput and memory-bandwidth contention (more throughput → more DRAM
//! traffic → more contention → less throughput) and reports per-core and
//! per-job throughput, power, and instruction counts.

use crate::cache::{BandwidthModel, LlcPartition};
use crate::config::CoreConfig;
use crate::metrics::{Bips, Watts};
use crate::params::SystemParams;
use crate::perf::{CpiTerms, PerfModel};
use crate::power::{CoreKind, PowerModel};
use crate::profile::AppProfile;

/// Identifier of a job (an application instance) on the chip.
///
/// Job ids index the job table supplied to [`Chip::simulate_frame`]; a
/// latency-critical service running on several cores is one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// State of one core during a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreState {
    /// Running `job` at `config`.
    Active {
        /// The job occupying the core.
        job: JobId,
        /// The core configuration for the frame.
        config: CoreConfig,
    },
    /// Power-gated (C6): draws only residual power, executes nothing.
    Gated,
    /// Powered but unassigned: draws idle power at the narrowest
    /// configuration, executes nothing.
    Idle,
}

impl CoreState {
    /// The job running on this core, if any.
    pub fn job(&self) -> Option<JobId> {
        match self {
            CoreState::Active { job, .. } => Some(*job),
            _ => None,
        }
    }

    /// The active configuration, if the core is active.
    pub fn config(&self) -> Option<CoreConfig> {
        match self {
            CoreState::Active { config, .. } => Some(*config),
            _ => None,
        }
    }
}

/// A full per-core assignment for one frame.
pub type CoreAssignment = Vec<CoreState>;

/// Results of simulating one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// Frame duration in milliseconds.
    pub duration_ms: f64,
    /// Throughput of each core (zero for gated/idle cores).
    pub per_core_bips: Vec<Bips>,
    /// Power of each core, including gated/idle residuals.
    pub per_core_watts: Vec<Watts>,
    /// Aggregate throughput of each job across all its cores.
    pub per_job_bips: Vec<Bips>,
    /// Aggregate power attributable to each job (cores + LLC share).
    pub per_job_watts: Vec<Watts>,
    /// Total chip power, including idle cores and unattributed LLC leakage.
    pub chip_watts: Watts,
    /// Converged bandwidth contention factor (0 = uncontended).
    pub contention: f64,
}

impl FrameResult {
    /// Instructions executed by core `i` during the frame.
    pub fn core_instructions(&self, i: usize) -> f64 {
        self.per_core_bips[i].get() * 1e6 * self.duration_ms
    }

    /// Instructions executed by job `j` during the frame.
    pub fn job_instructions(&self, j: JobId) -> f64 {
        self.per_job_bips[j.0].get() * 1e6 * self.duration_ms
    }

    /// Total instructions executed on the chip during the frame.
    pub fn total_instructions(&self) -> f64 {
        self.per_core_bips
            .iter()
            .map(|b| b.get() * 1e6 * self.duration_ms)
            .sum()
    }
}

/// A simulated multicore chip.
///
/// The chip owns the performance, power, and bandwidth models; it is
/// stateless across frames (assignments are inputs), which keeps resource
/// managers free to explore hypothetical assignments through the same API.
#[derive(Debug, Clone, Copy)]
pub struct Chip {
    params: SystemParams,
    perf: PerfModel,
    power: PowerModel,
    bandwidth: BandwidthModel,
    kind: CoreKind,
}

impl Chip {
    /// Builds a chip of `kind` cores with the given parameters.
    pub fn new(params: SystemParams, kind: CoreKind) -> Chip {
        Chip {
            params,
            perf: PerfModel::new(params),
            power: PowerModel::new(params, kind),
            bandwidth: BandwidthModel::new(&params),
            kind,
        }
    }

    /// System parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The performance model (shared with oracle baselines).
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The core kind of this chip.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Throughput of one core of this chip's kind (applies the reconfigurable
    /// frequency penalty when appropriate).
    pub fn core_bips(
        &self,
        app: &AppProfile,
        config: CoreConfig,
        ways: f64,
        contention: f64,
    ) -> Bips {
        let ipc = self.perf.ipc(app, config, ways, contention);
        Bips::new(ipc * self.frequency_ghz())
    }

    /// The clock of this chip's cores: reconfigurable cores pay the AnyCore
    /// frequency penalty.
    fn frequency_ghz(&self) -> f64 {
        match self.kind {
            CoreKind::Reconfigurable => self.params.reconfig_frequency_ghz(),
            CoreKind::Fixed => self.params.frequency_ghz,
        }
    }

    /// Simulates one frame.
    ///
    /// `cores` gives the state of each core (its length is the core count for
    /// the frame and must not exceed `params.num_cores`); `profiles[j]` is the
    /// application behind `JobId(j)`; `partition` gives each job's LLC ways.
    ///
    /// # Panics
    ///
    /// Panics if an assignment references a job outside `profiles`, if
    /// `cores` exceeds the chip's core count, or if `duration_ms` is not
    /// positive.
    pub fn simulate_frame(
        &self,
        cores: &[CoreState],
        profiles: &[AppProfile],
        partition: &LlcPartition,
        duration_ms: f64,
    ) -> FrameResult {
        assert!(duration_ms > 0.0, "frame duration must be positive");
        assert!(
            cores.len() <= self.params.num_cores,
            "assignment has {} cores but chip has {}",
            cores.len(),
            self.params.num_cores
        );
        for c in cores {
            if let Some(job) = c.job() {
                assert!(
                    job.0 < profiles.len(),
                    "assignment references unknown {job}"
                );
            }
        }

        // Each active core's CPI stack up to contention, once per frame.
        let terms: Vec<Option<CpiTerms>> = cores
            .iter()
            .map(|core| match core {
                CoreState::Active { job, config } => Some(self.perf.cpi_terms(
                    &profiles[job.0],
                    *config,
                    partition.get_or_default(*job).ways(),
                )),
                _ => None,
            })
            .collect();
        let freq = self.frequency_ghz();

        // Fixed point between throughput and bandwidth contention: start
        // uncontended, recompute traffic, damp the update.
        let mut contention = 0.0;
        for _ in 0..6 {
            let mut traffic = 0.0;
            for t in terms.iter().flatten() {
                traffic += t.dram_traffic_gaps(Bips::new(t.ipc(contention) * freq));
            }
            let next = self.bandwidth.contention(traffic);
            contention = 0.5 * contention + 0.5 * next;
        }

        let mut per_core_bips = Vec::with_capacity(cores.len());
        let mut per_core_watts = Vec::with_capacity(cores.len());
        let mut per_job_bips = vec![Bips::ZERO; profiles.len()];
        let mut per_job_watts = vec![Watts::ZERO; profiles.len()];
        let mut chip_watts = Watts::ZERO;

        // An active core always has its terms.
        for (core, terms) in cores.iter().zip(&terms) {
            match (core, terms) {
                (CoreState::Active { job, config }, Some(terms)) => {
                    let app = &profiles[job.0];
                    let ipc = terms.ipc(contention);
                    let bips = Bips::new(ipc * freq);
                    let core_w = self.power.core_watts(app, *config, ipc);
                    per_core_bips.push(bips);
                    per_core_watts.push(core_w);
                    per_job_bips[job.0] += bips;
                    per_job_watts[job.0] += core_w;
                    chip_watts += core_w;
                }
                (CoreState::Gated, _) => {
                    let w = self.power.gated_core_watts();
                    per_core_bips.push(Bips::ZERO);
                    per_core_watts.push(w);
                    chip_watts += w;
                }
                (CoreState::Idle, _) | (CoreState::Active { .. }, None) => {
                    // An idle core clocks at the narrowest configuration with
                    // no work: leakage plus idle dynamic power.
                    let app = AppProfile::balanced();
                    let w = self.power.core_watts(&app, CoreConfig::narrowest(), 0.0);
                    per_core_bips.push(Bips::ZERO);
                    per_core_watts.push(w);
                    chip_watts += w;
                }
            }
        }

        // LLC power: each job's allocated-way leakage plus traffic dynamic
        // energy, attributed to the job and added to chip power.
        for (job, cache) in partition.iter() {
            if job.0 >= profiles.len() {
                continue;
            }
            let app = &profiles[job.0];
            let traffic = self
                .perf
                .dram_traffic_gaps(app, per_job_bips[job.0], cache.ways());
            let w = self.power.llc_watts(cache, traffic);
            per_job_watts[job.0] += w;
            chip_watts += w;
        }

        FrameResult {
            duration_ms,
            per_core_bips,
            per_core_watts,
            per_job_bips,
            per_job_watts,
            chip_watts,
            contention,
        }
    }

    /// The paper's power budget definition (§VII-A): the average per-core
    /// power across all supplied jobs running on reconfigurable cores at the
    /// widest configuration, scaled to the chip's core count.
    pub fn nominal_power_budget(&self, profiles: &[AppProfile]) -> Watts {
        assert!(
            !profiles.is_empty(),
            "need at least one profile for a budget"
        );
        let reconf = PowerModel::new(self.params, CoreKind::Reconfigurable);
        let total: f64 = profiles
            .iter()
            .map(|app| {
                let ipc = self.perf.ipc(app, CoreConfig::widest(), 1.0, 0.0);
                let bips = Bips::new(ipc * self.params.reconfig_frequency_ghz());
                reconf
                    .job_core_watts(app, CoreConfig::widest(), crate::CacheAlloc::One, ipc, bips)
                    .get()
            })
            .sum();
        Watts::new(total / profiles.len() as f64 * self.params.num_cores as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheAlloc, JobConfig};

    fn simple_setup() -> (Chip, Vec<AppProfile>, LlcPartition) {
        let chip = Chip::new(SystemParams::default(), CoreKind::Reconfigurable);
        let profiles = vec![
            AppProfile::balanced(),
            AppProfile::compute_bound(),
            AppProfile::memory_bound(),
        ];
        let partition: LlcPartition = (0..3).map(|i| (JobId(i), CacheAlloc::Two)).collect();
        (chip, profiles, partition)
    }

    #[test]
    fn frame_accounts_every_core() {
        let (chip, profiles, partition) = simple_setup();
        let cores = vec![
            CoreState::Active {
                job: JobId(0),
                config: CoreConfig::widest(),
            },
            CoreState::Active {
                job: JobId(1),
                config: CoreConfig::narrowest(),
            },
            CoreState::Gated,
            CoreState::Idle,
        ];
        let r = chip.simulate_frame(&cores, &profiles, &partition, 1.0);
        assert_eq!(r.per_core_bips.len(), 4);
        assert_eq!(r.per_core_watts.len(), 4);
        assert!(r.per_core_bips[0].get() > 0.0);
        assert_eq!(r.per_core_bips[2].get(), 0.0);
        assert_eq!(r.per_core_bips[3].get(), 0.0);
        assert!(r.per_core_watts[2].get() < r.per_core_watts[3].get());
    }

    #[test]
    fn multi_core_job_aggregates_throughput() {
        let (chip, profiles, partition) = simple_setup();
        let one = vec![CoreState::Active {
            job: JobId(0),
            config: CoreConfig::widest(),
        }];
        let two = vec![
            CoreState::Active {
                job: JobId(0),
                config: CoreConfig::widest(),
            },
            CoreState::Active {
                job: JobId(0),
                config: CoreConfig::widest(),
            },
        ];
        let r1 = chip.simulate_frame(&one, &profiles, &partition, 1.0);
        let r2 = chip.simulate_frame(&two, &profiles, &partition, 1.0);
        let ratio = r2.per_job_bips[0] / r1.per_job_bips[0];
        assert!(ratio > 1.8 && ratio <= 2.0 + 1e-9);
    }

    #[test]
    fn chip_power_is_sum_of_parts() {
        let (chip, profiles, partition) = simple_setup();
        let cores = vec![
            CoreState::Active {
                job: JobId(0),
                config: CoreConfig::widest(),
            },
            CoreState::Active {
                job: JobId(2),
                config: CoreConfig::widest(),
            },
            CoreState::Gated,
        ];
        let r = chip.simulate_frame(&cores, &profiles, &partition, 100.0);
        let core_sum: f64 = r.per_core_watts.iter().map(|w| w.get()).sum();
        assert!(
            r.chip_watts.get() > core_sum,
            "chip power must include LLC power"
        );
    }

    #[test]
    fn saturating_the_chip_raises_contention() {
        let (chip, profiles, _) = simple_setup();
        let partition: LlcPartition = (0..3).map(|i| (JobId(i), CacheAlloc::Half)).collect();
        let light = vec![CoreState::Active {
            job: JobId(2),
            config: CoreConfig::widest(),
        }];
        let heavy: Vec<CoreState> = (0..32)
            .map(|_| CoreState::Active {
                job: JobId(2),
                config: CoreConfig::widest(),
            })
            .collect();
        let r_light = chip.simulate_frame(&light, &profiles, &partition, 1.0);
        let r_heavy = chip.simulate_frame(&heavy, &profiles, &partition, 1.0);
        assert_eq!(r_light.contention, 0.0);
        assert!(
            r_heavy.contention > 0.0,
            "32 memory-bound cores should contend"
        );
        assert!(r_heavy.per_core_bips[0].get() < r_light.per_core_bips[0].get());
    }

    #[test]
    fn instructions_scale_with_duration() {
        let (chip, profiles, partition) = simple_setup();
        let cores = vec![CoreState::Active {
            job: JobId(0),
            config: CoreConfig::widest(),
        }];
        let r1 = chip.simulate_frame(&cores, &profiles, &partition, 1.0);
        let r100 = chip.simulate_frame(&cores, &profiles, &partition, 100.0);
        let ratio = r100.core_instructions(0) / r1.core_instructions(0);
        assert!((ratio - 100.0).abs() < 1e-6);
        assert!((r1.total_instructions() - r1.job_instructions(JobId(0))).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown job")]
    fn unknown_job_panics() {
        let (chip, profiles, partition) = simple_setup();
        let cores = vec![CoreState::Active {
            job: JobId(9),
            config: CoreConfig::widest(),
        }];
        let _ = chip.simulate_frame(&cores, &profiles, &partition, 1.0);
    }

    #[test]
    #[should_panic(expected = "cores but chip has")]
    fn too_many_cores_panics() {
        let chip = Chip::new(SystemParams::paper_16core(), CoreKind::Fixed);
        let cores = vec![CoreState::Gated; 17];
        let _ = chip.simulate_frame(&cores, &[], &LlcPartition::new(), 1.0);
    }

    #[test]
    fn fixed_cores_outrun_reconfigurable_at_same_config() {
        let params = SystemParams::default();
        let profiles = vec![AppProfile::balanced()];
        let partition: LlcPartition = [(JobId(0), CacheAlloc::Two)].into_iter().collect();
        let cores = vec![CoreState::Active {
            job: JobId(0),
            config: CoreConfig::widest(),
        }];
        let reconf = Chip::new(params, CoreKind::Reconfigurable)
            .simulate_frame(&cores, &profiles, &partition, 1.0);
        let fixed =
            Chip::new(params, CoreKind::Fixed).simulate_frame(&cores, &profiles, &partition, 1.0);
        assert!(fixed.per_job_bips[0].get() > reconf.per_job_bips[0].get());
        assert!(fixed.per_job_watts[0].get() < reconf.per_job_watts[0].get());
    }

    /// The frame as it was computed before the CPI terms were hoisted:
    /// every pass and both final-pass quantities through the public
    /// `PerfModel::ipc` and `Chip::core_bips`.
    fn frame_through_the_public_model(
        chip: &Chip,
        cores: &[CoreState],
        profiles: &[AppProfile],
        partition: &LlcPartition,
        duration_ms: f64,
    ) -> FrameResult {
        let mut contention = 0.0;
        for _ in 0..6 {
            let mut traffic = 0.0;
            for core in cores {
                if let CoreState::Active { job, config } = core {
                    let app = &profiles[job.0];
                    let ways = partition.get_or_default(*job).ways();
                    let bips = chip.core_bips(app, *config, ways, contention);
                    traffic += chip.perf.dram_traffic_gaps(app, bips, ways);
                }
            }
            contention = 0.5 * contention + 0.5 * chip.bandwidth.contention(traffic);
        }
        let mut per_core_bips = Vec::new();
        let mut per_core_watts = Vec::new();
        let mut per_job_bips = vec![Bips::ZERO; profiles.len()];
        let mut per_job_watts = vec![Watts::ZERO; profiles.len()];
        let mut chip_watts = Watts::ZERO;
        for core in cores {
            let (bips, w) = match core {
                CoreState::Active { job, config } => {
                    let app = &profiles[job.0];
                    let ways = partition.get_or_default(*job).ways();
                    let ipc = chip.perf.ipc(app, *config, ways, contention);
                    let bips = chip.core_bips(app, *config, ways, contention);
                    let w = chip.power.core_watts(app, *config, ipc);
                    per_job_bips[job.0] += bips;
                    per_job_watts[job.0] += w;
                    (bips, w)
                }
                CoreState::Gated => (Bips::ZERO, chip.power.gated_core_watts()),
                CoreState::Idle => (
                    Bips::ZERO,
                    chip.power
                        .core_watts(&AppProfile::balanced(), CoreConfig::narrowest(), 0.0),
                ),
            };
            per_core_bips.push(bips);
            per_core_watts.push(w);
            chip_watts += w;
        }
        for (job, cache) in partition.iter() {
            if job.0 < profiles.len() {
                let traffic = chip.perf.dram_traffic_gaps(
                    &profiles[job.0],
                    per_job_bips[job.0],
                    cache.ways(),
                );
                let w = chip.power.llc_watts(cache, traffic);
                per_job_watts[job.0] += w;
                chip_watts += w;
            }
        }
        FrameResult {
            duration_ms,
            per_core_bips,
            per_core_watts,
            per_job_bips,
            per_job_watts,
            chip_watts,
            contention,
        }
    }

    /// Every field of every frame, bit for bit, against the frame through
    /// the public model, over seeded layouts on both core kinds: a 4-core LC
    /// tenant split between the profiling high and low configurations,
    /// batch jobs at random configurations and ways, gated and idle cores,
    /// and up to 32 active cores of memory-hungry profiles, which push the
    /// contention above the bandwidth knee.
    #[test]
    fn hoisted_cpi_terms_leave_every_frame_bit_identical() {
        let mut draw = {
            let mut index = 0;
            move || {
                index += 1;
                util::rng64::unit_from_bits(util::rng64::mix_stream(0xF4A3E, 0, index))
            }
        };
        let bits = |r: &FrameResult| {
            let each = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            (
                r.duration_ms.to_bits(),
                each(&r.per_core_bips.iter().map(|b| b.get()).collect::<Vec<_>>()),
                each(&r.per_core_watts.iter().map(|w| w.get()).collect::<Vec<_>>()),
                each(&r.per_job_bips.iter().map(|b| b.get()).collect::<Vec<_>>()),
                each(&r.per_job_watts.iter().map(|w| w.get()).collect::<Vec<_>>()),
                r.chip_watts.get().to_bits(),
                r.contention.to_bits(),
            )
        };
        let mut contended = 0;
        for layout in 0..200 {
            let kind = [CoreKind::Reconfigurable, CoreKind::Fixed][layout % 2];
            let chip = Chip::new(SystemParams::default(), kind);
            // Every third layout is memory-hungry: memory-bound jobs on half
            // a way each, on cores that are almost all active.
            let hungry = layout % 3 == 0;
            let jobs = 2 + (draw() * 16.0) as usize;
            let profiles: Vec<AppProfile> = (0..jobs)
                .map(|j| {
                    let mut app = [
                        AppProfile::balanced(),
                        AppProfile::compute_bound(),
                        AppProfile::memory_bound(),
                    ][if hungry { 2 } else { j % 3 }];
                    app.ilp *= 0.5 + draw();
                    app.fe_sensitivity = draw();
                    app.be_sensitivity = draw();
                    app.ls_sensitivity = draw();
                    if !hungry {
                        app.mem_fraction = 0.05 + 0.55 * draw();
                        app.llc_working_set_ways = 0.2 + 12.0 * draw();
                        app.mlp = 1.0 + 5.0 * draw();
                    }
                    app
                })
                .collect();
            let mut partition = LlcPartition::new();
            for j in 0..jobs {
                if hungry {
                    partition.set(JobId(j), CacheAlloc::Half);
                } else if draw() < 0.9 {
                    partition.set(JobId(j), CacheAlloc::from_index((draw() * 4.0) as usize));
                }
            }
            let high = JobConfig::profiling_high().core;
            let low = JobConfig::profiling_low().core;
            let mut cores: Vec<CoreState> = [high, high, low, low]
                .into_iter()
                .map(|config| CoreState::Active {
                    job: JobId(0),
                    config,
                })
                .collect();
            let size = if hungry {
                32
            } else {
                4 + (draw() * 28.0) as usize
            };
            while cores.len() < size {
                cores.push(match (draw() * if hungry { 40.0 } else { 10.0 }) as usize {
                    0 => CoreState::Gated,
                    1 => CoreState::Idle,
                    _ => CoreState::Active {
                        job: JobId(1 + (draw() * (jobs - 1) as f64) as usize),
                        config: CoreConfig::from_index((draw() * 27.0) as usize),
                    },
                });
            }
            let duration = [1.0, 100.0][layout % 2];
            let got = chip.simulate_frame(&cores, &profiles, &partition, duration);
            let want =
                frame_through_the_public_model(&chip, &cores, &profiles, &partition, duration);
            assert_eq!(bits(&got), bits(&want), "layout {layout}");
            contended += usize::from(got.contention > 0.0);
        }
        assert!(
            (40..160).contains(&contended),
            "{contended} of 200 layouts above the bandwidth knee"
        );
    }

    #[test]
    fn nominal_budget_scales_with_core_count() {
        let profiles = vec![AppProfile::balanced()];
        let b32 = Chip::new(SystemParams::default(), CoreKind::Reconfigurable)
            .nominal_power_budget(&profiles);
        let b16 = Chip::new(SystemParams::paper_16core(), CoreKind::Reconfigurable)
            .nominal_power_budget(&profiles);
        assert!((b32.get() / b16.get() - 2.0).abs() < 1e-9);
    }
}
