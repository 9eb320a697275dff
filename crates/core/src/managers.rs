//! Baseline resource managers as [`ResourceManager`] implementations,
//! run through [`Scheme::run`] — the one entry point.
//!
//! These wrap the pure decision algorithms of the `baselines` crate in the
//! testbed's timeslice protocol:
//!
//! * no gating — every core at the widest configuration, ignoring the
//!   power cap: the normalization reference of Fig. 5(c).
//! * core gating — the four victim orderings of §VII-B, with or without
//!   UCP way-partitioning.
//! * asymmetric — the oracle-like asymmetric multicore and the realistic
//!   fixed split of §VII-C.
//! * PID feedback — the closed-loop comparison point of §IV.
//! * Flicker — 3MM3 + RBF + GA on reconfigurable cores, in the paper's two
//!   evaluation variants (§VIII-E).
//!
//! The first four run on fixed cores and each decides a core configuration
//! per batch job, or gated; one emitter (`fixed_plan`) turns that decision
//! and the LLC policy into a [`Plan`]. [`Scheme`] is the table over them
//! (and CuttleSys itself): the one place that knows which scheme runs on
//! fixed and which on reconfigurable cores.
//!
//! Every baseline handles an arbitrary number of LC tenants: each tenant
//! keeps its reserved cores at the widest configuration (the baselines never
//! relocate cores), and per-tenant power is measured or characterized
//! per service.

use baselines::asymmetric;
use baselines::flicker::{three_level_design, FlickerModel};
use baselines::ga::{ga_search, GaParams};
use baselines::gating::{gate_in_order, ipc_partition, select_gated, GatingOrder};
use dds::{PenaltyTable, SearchSpace};
use simulator::power::CoreKind;
use simulator::{CacheAlloc, Chip, CoreConfig, JobConfig, NUM_CORE_CONFIGS};
use workloads::oracle::Oracle;

use crate::accounting::steady_state_budget;
use crate::matrices::Libraries;
use crate::runtime::{CuttleSysManager, SearchAlgo};
use crate::testbed::run_scenario;
use crate::types::{
    BatchAction, LcAssignment, Plan, ProfilePlan, ProfileSample, ResourceManager, RunRecord,
    Scenario, SliceInfo, TIMESLICE_MS,
};

/// Per-tenant assignments of `config` at the previous core split.
fn lc_assignments(info: &SliceInfo, config: JobConfig) -> Vec<LcAssignment> {
    info.lc
        .iter()
        .map(|l| LcAssignment {
            cores: l.last_cores,
            config,
        })
        .collect()
}

/// Total LC power at the previous core split, from each tenant's per-core
/// Watts.
fn total_lc_watts(info: &SliceInfo, watts_per_core: &[f64]) -> f64 {
    info.lc
        .iter()
        .zip(watts_per_core)
        .map(|(l, w)| l.last_cores as f64 * w)
        .sum()
}

/// Nearest allocation (in log-ways space) to a fractional share.
fn nearest_alloc(ways: f64) -> CacheAlloc {
    let d = |x: &CacheAlloc| (x.ways().log2() - ways.max(0.25).log2()).abs();
    CacheAlloc::ALL
        .into_iter()
        .min_by(|a, b| d(a).total_cmp(&d(b)))
        .unwrap_or(CacheAlloc::One)
}

/// Effective per-job occupancy of an *unpartitioned* LLC.
///
/// Baselines without way-partitioning hardware still share the LLC; each
/// job occupies roughly its fair share. We approximate the share as
/// `llc_ways / jobs` rounded to the allocation alphabet, weighting each
/// multi-core latency-critical tenant double. Returns `(lc, batch)`
/// allocations.
fn unpartitioned_share(
    llc_ways: u32,
    num_lc: usize,
    active_batch: usize,
) -> (CacheAlloc, CacheAlloc) {
    let share = f64::from(llc_ways) / (2.0 * num_lc as f64 + active_batch as f64);
    (nearest_alloc(2.0 * share), nearest_alloc(share))
}

/// The plan of every fixed-core scheme: batch job `j` runs `cores[j]`
/// (`None` = gated) and every LC tenant keeps its cores at the widest
/// configuration. The LLC is `ucp`'s partition — batch job `j` holds
/// `ucp[j]`, each LC tenant four ways — or, without one, shared
/// unpartitioned among the running jobs.
fn fixed_plan(info: &SliceInfo, cores: &[Option<CoreConfig>], ucp: Option<&[CacheAlloc]>) -> Plan {
    let running = cores.iter().flatten().count();
    let (lc_share, batch_share) = unpartitioned_share(info.llc_ways, info.lc.len(), running);
    let lc_cache = ucp.map_or(lc_share, |_| CacheAlloc::Four);
    Plan {
        lc: lc_assignments(info, JobConfig::new(CoreConfig::widest(), lc_cache)),
        batch: cores
            .iter()
            .enumerate()
            .map(|(j, core)| match core {
                Some(core) => {
                    BatchAction::Run(JobConfig::new(*core, ucp.map_or(batch_share, |p| p[j])))
                }
                None => BatchAction::Gated,
            })
            .collect(),
    }
}

/// No gating: everything at the widest configuration regardless of the cap.
///
/// The paper's Fig. 5(c) normalizes all schemes by this reference.
struct NoGatingManager;

impl ResourceManager for NoGatingManager {
    fn name(&self) -> String {
        "no-gating".to_string()
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        fixed_plan(
            info,
            &vec![Some(CoreConfig::widest()); info.num_batch],
            None,
        )
    }
}

/// Core-level gating (§VII-B): all cores at the widest configuration, whole
/// cores gated to meet the cap. One 1 ms profiling sample per slice measures
/// per-core power and throughput (the paper: "even core-level gating incurs
/// an overhead of 1 ms for one profiling period").
struct CoreGatingManager {
    order: GatingOrder,
    /// Way-partitioning of the LLC (UCP), or the unpartitioned share when
    /// absent.
    partition: Option<Vec<CacheAlloc>>,
    gated_watts: f64,
}

impl CoreGatingManager {
    /// Builds the manager; `way_partitioning` enables the UCP variant.
    ///
    /// UCP's hardware utility monitors are modelled by computing the
    /// partition from the mix's miss curves once, up front.
    fn new(scenario: &Scenario, order: GatingOrder, way_partitioning: bool) -> Self {
        let partition = way_partitioning.then(|| {
            let profiles = scenario.batch_profiles();
            let perf = simulator::PerfModel::new(scenario.params);
            // Each LC tenant holds four ways; UCP divides the rest.
            ipc_partition(
                &perf,
                &profiles,
                CoreConfig::widest(),
                scenario.params.llc_ways as f64 - 4.0 * scenario.num_lc() as f64,
            )
        });
        CoreGatingManager {
            order,
            partition,
            gated_watts: scenario.params.gated_core_watts,
        }
    }
}

impl ResourceManager for CoreGatingManager {
    fn name(&self) -> String {
        match self.partition {
            Some(_) => "core-gating+wp".to_string(),
            None => "core-gating".to_string(),
        }
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        let num_lc = info.lc.len();
        let ucp = self.partition.as_deref();
        let widest = fixed_plan(info, &vec![Some(CoreConfig::widest()); info.num_batch], ucp);
        let sample = probe(
            &ProfilePlan {
                lc_configs: widest.lc.iter().map(|a| vec![a.config; a.cores]).collect(),
                batch: widest.batch,
            },
            1.0,
        );
        let mut per_job = vec![(0.0, 0.0); info.num_batch];
        let mut lc_watts = vec![0.0; num_lc];
        for s in &sample.samples {
            // A blacked-out or corrupted reading (NaN) must not poison the
            // power budget; the job keeps its 0 W default, which gates last.
            if !s.bips.is_finite() || !s.watts.is_finite() {
                continue;
            }
            if s.job < num_lc {
                lc_watts[s.job] = s.watts;
            } else {
                per_job[s.job - num_lc] = (s.bips, s.watts);
            }
        }
        // The cap constrains the slice average, and the all-widest probe
        // frame runs hotter than the steady state it selects: gate against
        // the budget net of the probe's energy, not the raw cap. The guard
        // band covers the cache-share growth of the surviving jobs — the
        // probe measures everyone at the all-active unpartitioned share,
        // which shrinks each job's LLC slice relative to the post-gating
        // steady state.
        const SHARE_GROWTH_GUARD: f64 = 0.99;
        let lc_power = total_lc_watts(info, &lc_watts);
        let probe_watts = lc_power + per_job.iter().map(|(_, w)| w).sum::<f64>();
        let budget = SHARE_GROWTH_GUARD
            * steady_state_budget(
                info.cap_watts,
                TIMESLICE_MS,
                sample.duration_ms,
                probe_watts,
            );
        let gated = select_gated(&per_job, lc_power, budget, self.gated_watts, self.order);
        let cores: Vec<Option<CoreConfig>> = gated
            .iter()
            .map(|&g| (!g).then(CoreConfig::widest))
            .collect();
        fixed_plan(info, &cores, ucp)
    }
}

/// Which asymmetric design to plan for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsymmetricMode {
    /// Oracle: the best big/small split each timeslice, migration free.
    Oracle,
    /// The realistic design: a fixed number of big cores.
    FixedBig(usize),
}

/// Asymmetric multicore (§VII-C): big {6,6,6} and small {2,2,2} fixed
/// cores. As the paper's oracle, it has perfect knowledge — supplied here by
/// the ground-truth tables — and pays no migration cost.
struct AsymmetricManager {
    mode: AsymmetricMode,
    /// Per batch job: `(bips, watts)` on a big core and on a small one.
    rows: Vec<[(f64, f64); 2]>,
    /// Per-tenant characterized per-core power on a big core (W).
    lc_watts_per_core: Vec<f64>,
    gated_watts: f64,
}

impl AsymmetricManager {
    /// Builds the planner, characterizing every job on both core types
    /// through the fixed-core oracle.
    #[allow(
        clippy::disallowed_methods,
        reason = "the oracle baseline is defined by perfect knowledge of the ground-truth tables (§VII-C)"
    )]
    fn new(scenario: &Scenario, mode: AsymmetricMode) -> Self {
        let oracle = Oracle::new(Chip::new(scenario.params, CoreKind::Fixed));
        // Characterized at the typical unpartitioned share of a fully
        // loaded chip (two ways per job).
        let row = |p: &simulator::AppProfile, core| {
            let jc = JobConfig::new(core, CacheAlloc::Two);
            (oracle.bips_at(p, jc), oracle.power_at(p, jc))
        };
        let rows = scenario
            .batch_profiles()
            .iter()
            .map(|p| {
                [
                    row(p, CoreConfig::widest()),
                    row(p, CoreConfig::narrowest()),
                ]
            })
            .collect();
        let lc_widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        let lc_watts_per_core = scenario
            .lc_jobs()
            .iter()
            .map(|lc| oracle.power_at(&lc.service.profile, lc_widest))
            .collect();
        AsymmetricManager {
            mode,
            rows,
            lc_watts_per_core,
            gated_watts: scenario.params.gated_core_watts,
        }
    }
}

impl ResourceManager for AsymmetricManager {
    fn name(&self) -> String {
        match self.mode {
            AsymmetricMode::Oracle => "asymmetric-oracle".to_string(),
            AsymmetricMode::FixedBig(n) => format!("asymmetric-{n}big"),
        }
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        let big_cores = match self.mode {
            AsymmetricMode::Oracle => None,
            AsymmetricMode::FixedBig(n) => Some(n),
        };
        let cores = asymmetric::place(
            &self.rows,
            info.num_cores,
            info.lc.iter().map(|l| l.last_cores).sum(),
            total_lc_watts(info, &self.lc_watts_per_core),
            info.cap_watts,
            self.gated_watts,
            big_cores,
        );
        fixed_plan(info, &cores, None)
    }
}

/// Flicker evaluation variant (§VIII-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlickerVariant {
    /// (a) Everything — including the LC tenants — is profiled for 10 ms on
    /// each of the nine 3MM3 configurations (90 ms total), then GA picks the
    /// configuration for the remaining ~8 ms.
    LcProfiled,
    /// (b) The LC tenants are pinned to {6,6,6} and only batch jobs are
    /// profiled, 1 ms per configuration (9 ms total).
    LcPinned,
}

/// Flicker (§VIII-E): 3MM3 sampling + RBF surrogates + GA over core
/// configurations. No cache partitioning — every job gets its unpartitioned
/// fair share, which is precisely the memory-hierarchy interference the
/// paper calls out.
struct FlickerManager {
    variant: FlickerVariant,
    /// Per-tenant QoS targets (ms), in priority order.
    qos_ms: Vec<f64>,
    num_lc: usize,
    /// LLC associativity of the chip the scenario runs on.
    llc_ways: u32,
    ga: GaParams,
    gated_watts: f64,
}

impl FlickerManager {
    /// Builds the manager for a scenario.
    fn new(scenario: &Scenario, variant: FlickerVariant) -> Self {
        FlickerManager {
            variant,
            qos_ms: scenario.lc_jobs().iter().map(|lc| lc.qos_ms).collect(),
            num_lc: scenario.num_lc(),
            llc_ways: scenario.params.llc_ways,
            ga: GaParams {
                seed: scenario.seed,
                ..GaParams::default()
            },
            gated_watts: scenario.params.gated_core_watts,
        }
    }

    /// Flicker does not partition the LLC: every batch job occupies its
    /// unpartitioned fair share of the paper's fully loaded chip.
    fn cache(&self) -> CacheAlloc {
        unpartitioned_share(self.llc_ways, self.num_lc, 16).1
    }

    /// An LC tenant's unpartitioned share (double weight for multi-core
    /// tenants).
    fn lc_cache(&self) -> CacheAlloc {
        unpartitioned_share(self.llc_ways, self.num_lc, 16).0
    }
}

impl ResourceManager for FlickerManager {
    fn name(&self) -> String {
        match self.variant {
            FlickerVariant::LcProfiled => "flicker-a".to_string(),
            FlickerVariant::LcPinned => "flicker-b".to_string(),
        }
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        let num_lc = info.lc.len();
        let design = three_level_design();
        let per_config_ms = match self.variant {
            FlickerVariant::LcProfiled => 10.0,
            FlickerVariant::LcPinned => 1.0,
        };
        let mut samples: Vec<Vec<(CoreConfig, f64, f64)>> =
            vec![Vec::with_capacity(design.len()); info.num_batch];
        // Per tenant: (config, measured tail, per-core watts) per design
        // point.
        let mut lc_tails: Vec<Vec<(CoreConfig, f64, f64)>> = vec![Vec::new(); num_lc];
        let mut lc_watts = vec![0.0; num_lc];
        for config in &design {
            let lc_config = match self.variant {
                FlickerVariant::LcProfiled => JobConfig::new(*config, self.cache()),
                FlickerVariant::LcPinned => JobConfig::new(CoreConfig::widest(), self.lc_cache()),
            };
            let batch: Vec<BatchAction> = (0..info.num_batch)
                .map(|_| BatchAction::Run(JobConfig::new(*config, self.cache())))
                .collect();
            let sample = probe(
                &ProfilePlan {
                    lc_configs: info
                        .lc
                        .iter()
                        .map(|l| vec![lc_config; l.last_cores])
                        .collect(),
                    batch,
                },
                per_config_ms,
            );
            for s in &sample.samples {
                // Skip non-finite readings so a sensor fault never reaches
                // the RBF fit or the power accounting.
                if !s.bips.is_finite() || !s.watts.is_finite() {
                    continue;
                }
                if s.job < num_lc {
                    lc_watts[s.job] = s.watts;
                } else {
                    samples[s.job - num_lc].push((*config, s.bips, s.watts));
                }
            }
            for (i, tails) in lc_tails.iter_mut().enumerate() {
                let tail = sample.lc_tails_ms.get(i).copied().unwrap_or(0.0);
                tails.push((*config, tail, lc_watts[i]));
            }
        }

        // Variant (a): each tenant picks the profiled configuration that met
        // its QoS with the least power; fall back to the widest when none
        // did.
        let lc: Vec<LcAssignment> = match self.variant {
            FlickerVariant::LcProfiled => info
                .lc
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let best = lc_tails[i]
                        .iter()
                        .filter(|(_, tail, _)| *tail <= self.qos_ms[i])
                        .min_by(|a, b| a.2.total_cmp(&b.2));
                    let config = match best {
                        Some((config, _, _)) => JobConfig::new(*config, self.cache()),
                        None => JobConfig::new(CoreConfig::widest(), self.cache()),
                    };
                    LcAssignment {
                        cores: l.last_cores,
                        config,
                    }
                })
                .collect(),
            FlickerVariant::LcPinned => {
                lc_assignments(info, JobConfig::new(CoreConfig::widest(), self.lc_cache()))
            }
        };

        // RBF surrogates per batch job; a failed fit (degenerate samples,
        // possible when probes ran out of slice time) falls back to the
        // narrowest configuration for safety.
        let model = match FlickerModel::fit(&samples) {
            Ok(m) => m,
            Err(_) => {
                let narrow = JobConfig::new(CoreConfig::narrowest(), self.cache());
                let batch = vec![BatchAction::Run(narrow); info.num_batch];
                return Plan { lc, batch };
            }
        };
        let bips: Vec<Vec<f64>> = (0..info.num_batch).map(|j| model.bips_row(j)).collect();
        // A surrogate can dip below zero between its samples; Watts cannot.
        let watts: Vec<Vec<f64>> = (0..info.num_batch)
            .map(|j| model.power_row(j).iter().map(|w| w.max(0.0)).collect())
            .collect();
        let lc_power = total_lc_watts(info, &lc_watts);
        // No way accounting: the LLC is unpartitioned.
        let objective = PenaltyTable::new(
            bips.iter().zip(&watts),
            vec![0.0; NUM_CORE_CONFIGS],
            (lc_power, 0.0),
            (info.cap_watts, f64::INFINITY),
        );
        let space = SearchSpace::new(info.num_batch, NUM_CORE_CONFIGS);
        let result = ga_search(&space, &objective, &self.ga);

        // The same last-resort rule as CuttleSys: gate in descending power
        // if even the narrowest plan misses the cap.
        let lowest = CoreConfig::narrowest().index();
        let all_narrowest = vec![lowest; info.num_batch];
        let batch: Vec<BatchAction> = if objective.power(&all_narrowest) > objective.max_power {
            let narrow = JobConfig::new(CoreConfig::narrowest(), self.cache());
            let narrowest: Vec<(f64, f64)> = bips
                .iter()
                .zip(&watts)
                .map(|(b, w)| (b[lowest], w[lowest]))
                .collect();
            gate_in_order(
                &narrowest,
                lc_power,
                info.cap_watts,
                self.gated_watts,
                GatingOrder::DescendingPower,
            )
            .into_iter()
            .map(|g| {
                if g {
                    BatchAction::Gated
                } else {
                    BatchAction::Run(narrow)
                }
            })
            .collect()
        } else {
            result
                .best_point
                .iter()
                .map(|&c| BatchAction::Run(JobConfig::new(CoreConfig::from_index(c), self.cache())))
                .collect()
        };
        Plan { lc, batch }
    }
}

/// Closed-loop PID power manager (§IV's comparison point): all batch cores
/// share one width level; a PID loop nudges it each timeslice based on the
/// measured chip power. No model, no search — and therefore several
/// timeslices of budget violation or wasted headroom after every cap or
/// load change, where CuttleSys re-solves within a single interval.
struct FeedbackManager {
    pid: baselines::feedback::PidController,
    level: baselines::feedback::WidthLevel,
    last_power: Option<f64>,
}

impl FeedbackManager {
    /// Builds the controller with gains tuned for the 32-core chip's
    /// ~1.5 W-per-level actuation authority. The loop is primed with the
    /// scenario's nominal chip draw: an uncontrolled all-widest chip starts
    /// near the 100 % budget, so the controller actuates from the very
    /// first timeslice instead of idling until the first measurement.
    fn new(scenario: &Scenario) -> FeedbackManager {
        FeedbackManager {
            pid: baselines::feedback::PidController::new(0.12, 0.03, 0.05, 200.0),
            level: baselines::feedback::WidthLevel::new(),
            last_power: Some(scenario.nominal_budget_watts()),
        }
    }
}

impl ResourceManager for FeedbackManager {
    fn name(&self) -> String {
        "pid-feedback".to_string()
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        _probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        if let Some(power) = self.last_power {
            // Aim slightly below the cap so steady-state ripple stays legal.
            let actuation = self.pid.update(info.cap_watts * 0.97 - power);
            self.level.adjust(actuation);
        }
        fixed_plan(info, &vec![Some(self.level.config()); info.num_batch], None)
    }

    fn observe(&mut self, outcome: &crate::types::SliceOutcome) {
        // Total chip power estimate from the per-job measurements.
        let num_lc = outcome.plan.lc.len();
        let lc: f64 = outcome
            .plan
            .lc
            .iter()
            .enumerate()
            .map(|(i, a)| outcome.measured_watts[i] * a.cores as f64)
            .sum();
        let batch: f64 = outcome.measured_watts[num_lc..].iter().sum();
        let total = lc + batch;
        // Hold the previous estimate through a telemetry blackout: a NaN
        // error term would otherwise poison the PID integrator forever.
        if total.is_finite() {
            self.last_power = Some(total);
        }
    }
}

/// One evaluated scheme of §VII–§VIII: which manager plans a scenario and
/// which kind of core it runs on. A closed table over this module's
/// managers and CuttleSys — the only way to run a baseline; the experiment
/// harness, the examples and the tests name a scheme and get its record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Everything widest, cap ignored: Fig. 5(c)'s normalization reference.
    NoGating,
    /// Core-level gating with a victim ordering, ± UCP way partitioning.
    CoreGating {
        /// Which cores are gated first.
        order: GatingOrder,
        /// Whether the LLC is UCP-partitioned.
        way_partitioning: bool,
    },
    /// Asymmetric multicore: oracle split or a fixed number of big cores.
    Asymmetric(AsymmetricMode),
    /// Flicker, variant (a) or (b) of §VIII-E.
    Flicker(FlickerVariant),
    /// The closed-loop PID power manager of §IV's comparison.
    Feedback,
    /// CuttleSys with its default parallel-DDS search.
    CuttleSys,
    /// CuttleSys with the search swapped for a GA (Fig. 10b).
    CuttleSysGa(GaParams),
}

impl Scheme {
    /// Runs `scenario` under this scheme. Every baseline except Flicker
    /// runs it on fixed cores (they have no reconfiguration hardware, so
    /// they do not pay its power tax); Flicker and CuttleSys run it as
    /// given. `record.scheme` is the manager's [`ResourceManager::name`].
    pub fn run(&self, scenario: &Scenario) -> RunRecord {
        self.run_sharing(scenario, &Libraries::default())
    }

    /// Like [`run`](Self::run), but CuttleSys and its GA variant take their
    /// factor library from `libraries`, learning it only if no earlier run
    /// on the same chip did. The record is bit-identical to
    /// [`run`](Self::run)'s; the baselines build no library either way.
    pub fn run_sharing(&self, scenario: &Scenario, libraries: &Libraries) -> RunRecord {
        let cuttlesys = || CuttleSysManager::sharing(scenario, libraries.get(&scenario.params));
        let fixed = Scenario {
            kind: CoreKind::Fixed,
            ..scenario.clone()
        };
        match *self {
            Scheme::NoGating => run_scenario(&fixed, &mut NoGatingManager),
            Scheme::CoreGating {
                order,
                way_partitioning,
            } => run_scenario(
                &fixed,
                &mut CoreGatingManager::new(&fixed, order, way_partitioning),
            ),
            Scheme::Asymmetric(mode) => {
                run_scenario(&fixed, &mut AsymmetricManager::new(&fixed, mode))
            }
            Scheme::Feedback => run_scenario(&fixed, &mut FeedbackManager::new(&fixed)),
            Scheme::Flicker(variant) => {
                run_scenario(scenario, &mut FlickerManager::new(scenario, variant))
            }
            Scheme::CuttleSys => run_scenario(scenario, &mut cuttlesys()),
            Scheme::CuttleSysGa(ga) => {
                run_scenario(scenario, &mut cuttlesys().with_search(SearchAlgo::Ga(ga)))
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use workloads::loadgen::LoadPattern;

    fn scenario(kind: CoreKind, cap: f64) -> Scenario {
        Scenario {
            kind,
            cap: LoadPattern::Constant(cap),
            duration_slices: 3,
            noise: 0.0,
            phases: false,
            ..Scenario::paper_default()
        }
    }

    fn gating(way_partitioning: bool) -> Scheme {
        Scheme::CoreGating {
            order: GatingOrder::DescendingPower,
            way_partitioning,
        }
    }

    #[test]
    fn no_gating_ignores_the_cap() {
        let s = scenario(CoreKind::Fixed, 0.5);
        let record = Scheme::NoGating.run(&s);
        assert!(
            record.power_violations() > 0,
            "no-gating must bust a 50% cap"
        );
        assert_eq!(record.qos_violations(), 0);
    }

    #[test]
    fn unpartitioned_shares_follow_the_chips_llc_ways() {
        // One tenant (double weight) and 16 batch jobs: 32 / 18 ≈ 1.8 ways
        // per job rounds to two, 16 / 18 ≈ 0.9 to one; the tenant holds
        // twice the share.
        for (llc_ways, batch_ways, lc_ways) in [(32, 2.0, 4.0), (16, 1.0, 2.0)] {
            let mut s = scenario(CoreKind::Fixed, 0.9);
            s.params.llc_ways = llc_ways;
            let record = Scheme::NoGating.run(&s);
            let slice = &record.slices[0];
            assert_eq!(slice.batch_configs[0].unwrap().cache.ways(), batch_ways);
            assert_eq!(slice.lc[0].config.cache.ways(), lc_ways);
        }
    }

    #[test]
    fn core_gating_meets_the_cap() {
        let s = scenario(CoreKind::Fixed, 0.7);
        let record = gating(false).run(&s);
        assert_eq!(record.power_violations(), 0, "{record:#?}");
        assert_eq!(record.qos_violations(), 0);
        // Some cores must actually be gated at 70%.
        assert!(record.slices[0].batch_configs.iter().any(|c| c.is_none()));
    }

    #[test]
    fn way_partitioning_beats_single_way_gating() {
        let s = scenario(CoreKind::Fixed, 0.7);
        let plain = gating(false).run(&s);
        let wp = gating(true).run(&s);
        assert!(
            wp.batch_instructions() >= plain.batch_instructions() * 0.98,
            "UCP partitioning should not lose: {} vs {}",
            wp.batch_instructions(),
            plain.batch_instructions()
        );
        // Under UCP the LC tenant holds four ways and the batch jobs divide
        // the rest.
        for slice in &wp.slices {
            assert_eq!(slice.lc[0].config.cache, CacheAlloc::Four);
            let batch_ways: f64 = slice
                .batch_configs
                .iter()
                .flatten()
                .map(|c| c.cache.ways())
                .sum();
            assert!(batch_ways <= f64::from(s.params.llc_ways) - 4.0);
        }
    }

    #[test]
    fn asymmetric_oracle_beats_core_gating_at_tight_caps() {
        let s = scenario(CoreKind::Fixed, 0.6);
        let gating = gating(false).run(&s);
        let asym = Scheme::Asymmetric(AsymmetricMode::Oracle).run(&s);
        assert!(
            asym.batch_instructions() > gating.batch_instructions(),
            "asymmetric oracle must beat gating: {} vs {}",
            asym.batch_instructions(),
            gating.batch_instructions()
        );
        assert_eq!(asym.power_violations(), 0);
    }

    #[test]
    fn oracle_beats_fixed_5050_split() {
        let s = scenario(CoreKind::Fixed, 0.8);
        let oracle = Scheme::Asymmetric(AsymmetricMode::Oracle).run(&s);
        let fixed = Scheme::Asymmetric(AsymmetricMode::FixedBig(16)).run(&s);
        assert!(oracle.batch_instructions() >= fixed.batch_instructions() * 0.999);
    }

    #[test]
    fn feedback_controller_converges_but_slowly() {
        let s = Scenario {
            kind: CoreKind::Fixed,
            cap: LoadPattern::Constant(0.6),
            duration_slices: 12,
            noise: 0.0,
            phases: false,
            ..Scenario::paper_default()
        };
        let record = Scheme::Feedback.run(&s);
        // It must eventually settle under the cap...
        let last = record.slices.last().unwrap();
        assert!(
            last.chip_watts <= last.cap_watts * 1.02,
            "PID failed to settle: {} vs {}",
            last.chip_watts,
            last.cap_watts
        );
        // ...but spends several early slices out of band (the §IV claim).
        let violations = record
            .slices
            .iter()
            .take(6)
            .filter(|sl| sl.chip_watts > sl.cap_watts * 1.02)
            .count();
        assert!(
            violations >= 2,
            "expected a slow transient, got {violations}"
        );
    }

    #[test]
    fn flicker_a_violates_qos_flicker_b_runs() {
        let s = scenario(CoreKind::Reconfigurable, 0.7);
        let a = Scheme::Flicker(FlickerVariant::LcProfiled).run(&s);
        assert!(
            a.qos_violations() > 0,
            "90 ms of narrow-config profiling must blow the tail: {a:#?}"
        );
        let b = Scheme::Flicker(FlickerVariant::LcPinned).run(&s);
        assert!(b.batch_instructions() > 0.0);
        assert!(
            a.worst_tail_ratio() > b.worst_tail_ratio(),
            "variant (a) must violate QoS harder than (b)"
        );
    }

    #[test]
    fn baselines_handle_two_tenants() {
        let s = Scenario {
            duration_slices: 2,
            noise: 0.0,
            phases: false,
            ..Scenario::two_service()
        };
        for scheme in [
            Scheme::NoGating,
            gating(false),
            Scheme::Asymmetric(AsymmetricMode::Oracle),
            Scheme::Feedback,
            Scheme::Flicker(FlickerVariant::LcPinned),
        ] {
            let record = scheme.run(&s);
            assert_eq!(record.slices[0].lc.len(), 2, "{}", record.scheme);
            assert!(record.batch_instructions() > 0.0, "{}", record.scheme);
        }
    }

    #[test]
    fn a_shared_library_leaves_no_trace_in_the_record() {
        let at = |cap: f64, load: f64| {
            Scenario {
                cap: LoadPattern::Constant(cap),
                duration_slices: 3,
                ..Scenario::paper_default()
            }
            .with_load(LoadPattern::Constant(load))
        };
        let ga = GaParams::default().with_evaluation_budget(406);
        for scheme in [Scheme::CuttleSys, Scheme::CuttleSysGa(ga)] {
            // Warm the chip's library: bucket 80 at another cap, then
            // another load at another cap.
            let libraries = Libraries::default();
            let _ = scheme.run_sharing(&at(0.5, 0.8), &libraries);
            let _ = scheme.run_sharing(&at(0.9, 0.6), &libraries);
            let s = at(0.7, 0.8);
            let shared = scheme.run_sharing(&s, &libraries);
            assert_eq!(libraries.learned(), 1);
            let first = shared.slices[0].telemetry.as_ref().unwrap();
            assert!(first.sgd_epochs > 0, "a bucket learned elsewhere counts");
            assert_eq!(shared.comparable(), scheme.run(&s).comparable());
        }
    }
}
