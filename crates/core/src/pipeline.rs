//! The decision quantum as an instrumented stage pipeline.
//!
//! §IV–§VI describe CuttleSys as five consecutive stages per 100 ms
//! quantum — profile, reconstruct, pin the LC configuration, search the
//! batch space, repair against the cap. [`decide`] is that sequence: six
//! private functions in one fixed order (the QoS stage has a pre-profiling
//! half, `relocate`, and a post-reconstruction half, `pin`), each timed with
//! a wall clock, so the resulting [`StageTelemetry`] flows into the run
//! record and Table II-style overhead numbers come from the actual runtime
//! rather than a separate micro-benchmark. The paper offers one alternative
//! in the whole sequence — which algorithm explores the batch space
//! (Fig. 10) — and that is [`SearchAlgo`], an enum.
//!
//! The quantum has one power ledger: `decide` builds the §VI-A
//! [`PenaltyTable`] once, the search maximises over it and the repair stage
//! asks the same table whether the all-narrowest plan fits, so the two can
//! never disagree about what the chip draws.
//!
//! With multiple LC tenants the QoS stage walks them in priority order
//! (their order in the scenario): relocation arbitrates cores tenant by
//! tenant, and pinning fixes each tenant's configuration before the search
//! explores the remaining batch dimensions. Batch jobs absent this slice
//! (churn) are excluded from the search space and forced to
//! [`BatchAction::Gated`].
//!
//! Every stage returns `Result<_, StageError>` instead of unwrapping: the
//! profiling stage validates samples (finite, in physical range) with one
//! bounded retry, the reconstruction output passes a sanity gate (NaN /
//! row-divergence check) with a staleness-bounded fall back to the
//! last-good predictions. A failed stage aborts the remaining ones and the
//! manager replays its last-good decision (see [`crate::faults`] for the
//! degradation ladder). The stage stopwatch is the only clock `decide`
//! reads, and nothing it measures reaches the plan.

use std::time::Instant;

use baselines::ga::{ga_search, GaParams};
use dds::{Draws, ParallelDdsParams, PenaltyTable, SearchSpace};
use simulator::{CacheAlloc, CoreConfig, JobConfig, NUM_JOB_CONFIGS};

use crate::accounting::narrowest_then_gate;
use crate::faults::{
    poison_predictions, prediction_defects, DecisionError, QuantumFaults, StageError, MAX_BIPS,
    MAX_WATTS, STALENESS_BOUND,
};
use crate::matrices::{bucket_for, effective_load, JobMatrices, LcPrediction, Predictions};
use crate::telemetry::StageTelemetry;
use crate::types::{
    BatchAction, LcAssignment, Plan, ProfilePlan, ProfileSample, SamplePoint, SliceInfo,
};

/// One LC tenant's core allocation, mutated by the QoS stage's relocation
/// policy (§VI-A: reclaim on measured violations at the widest
/// configuration; relinquish once predictions show slack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcAllocation {
    /// Cores currently held by the tenant.
    pub cores: usize,
    /// The scenario's initial allocation — relinquishing never goes below.
    pub min_cores: usize,
}

/// Mutable state the stages operate over. Owned by the manager, borrowed
/// for the duration of one [`decide`] call.
pub struct DecisionCtx<'a> {
    /// Facts about the current timeslice.
    pub info: &'a SliceInfo,
    /// The rating-matrix bookkeeping samples land in.
    pub matrices: &'a mut JobMatrices,
    /// Per-LC-tenant core allocations, in priority order.
    pub lc: &'a mut Vec<LcAllocation>,
    /// The plan of the previous quantum, if any (trust region, reclaim).
    pub last_plan: &'a Option<Plan>,
    /// Number of batch jobs.
    pub num_batch: usize,
    /// Power of a gated core (W).
    pub gated_watts: f64,
    /// Compute-side faults injected into this quantum (NONE by default).
    pub faults: QuantumFaults,
    /// The most recent predictions that passed the sanity gate, with their
    /// age in quanta — the reconstruction fallback.
    pub last_good_preds: Option<(&'a Predictions, usize)>,
}

impl DecisionCtx<'_> {
    /// Total cores currently held by LC tenants.
    pub fn total_lc_cores(&self) -> usize {
        self.lc.iter().map(|a| a.cores).sum()
    }

    /// Indices of the batch jobs present this slice.
    pub fn active_batch(&self) -> Vec<usize> {
        (0..self.num_batch)
            .filter(|&j| self.info.batch_active.get(j).copied().unwrap_or(true))
            .collect()
    }

    /// The configuration LC tenant `i` ran in the previous quantum, if any.
    fn last_lc_config(&self, i: usize) -> Option<JobConfig> {
        self.last_plan
            .as_ref()
            .and_then(|p| p.lc.get(i))
            .map(|a| a.config)
    }
}

/// A probe callback: runs a profiling frame, consuming its duration from
/// the slice, and returns the measurements.
pub type Probe<'a> = dyn FnMut(&ProfilePlan, f64) -> ProfileSample + 'a;

/// Which algorithm explores the batch dimensions of the §VI-A problem in
/// stage 4. Either runs inline on the deciding thread: an evaluation is a
/// walk over the quantum's [`PenaltyTable`], cheaper than handing it to
/// another thread.
#[derive(Debug, Clone)]
pub enum SearchAlgo {
    /// The paper's parallel Dynamically Dimensioned Search.
    Dds(ParallelDdsParams),
    /// Genetic algorithm at a matched evaluation budget (Fig. 10 ablation).
    Ga(GaParams),
}

/// The stage stopwatch: runs one stage call and returns its output with the
/// wall milliseconds it took. A failed stage returns its error alone, so the
/// caller's `?` leaves that stage's wall-time field untouched.
fn timed<T>(stage: impl FnOnce() -> Result<T, StageError>) -> Result<(T, f64), StageError> {
    #[allow(
        clippy::disallowed_methods,
        reason = "stage wall-time telemetry only: plans and golden-record comparisons never read it"
    )]
    let t = Instant::now();
    let out = stage()?;
    Ok((out, t.elapsed().as_secs_f64() * 1e3))
}

/// Runs the five stages in order, timing each into `tel`, and returns the
/// plan and the predictions it was built from. `draws` is the caller's
/// cache of DDS's random draws: the search stage replays them while the
/// slot count and the [`ParallelDdsParams`] stay the same, and draws afresh
/// into it when either changes.
///
/// Telemetry is accumulated through the borrowed `tel` so the stages that
/// *did* run stay visible even when a later stage fails. The reconstruction
/// output passes a sanity gate with a staleness-bounded fallback to the
/// last-good predictions.
///
/// # Errors
///
/// Returns the first [`StageError`] encountered (wrapped in
/// [`DecisionError::Stage`]); the caller is expected to degrade to its
/// last-good decision or the safe-mode allocation.
pub fn decide(
    algo: &SearchAlgo,
    draws: &mut Option<Draws>,
    ctx: &mut DecisionCtx,
    probe: &mut Probe,
    tel: &mut StageTelemetry,
) -> Result<(Plan, Predictions), DecisionError> {
    let ((), ms) = timed(|| relocate(ctx, tel))?;
    tel.qos_wall_ms += ms;

    let ((), ms) = timed(|| profile(ctx, probe, tel))?;
    tel.profile_wall_ms += ms;

    let (mut raw, ms) = timed(|| Ok(reconstruct(ctx, tel)))?;
    tel.reconstruct_wall_ms += ms;
    // Sanity gate: a diverged solve (NaN, out-of-physical-range rows)
    // must not reach the QoS scan. Last-good predictions substitute
    // while they are fresh enough.
    let defects = prediction_defects(&raw);
    if defects > 0 {
        match ctx.last_good_preds {
            Some((lg, age)) if age <= STALENESS_BOUND => {
                tel.degradation.reconstruct_fallback = true;
                tel.degradation.stale_age = tel.degradation.stale_age.max(age);
                raw = lg.clone();
            }
            Some((_, age)) => {
                return Err(StageError::PredictionsStale {
                    age,
                    bound: STALENESS_BOUND,
                }
                .into())
            }
            None => {
                return Err(StageError::ReconstructionDiverged {
                    bad_values: defects,
                }
                .into())
            }
        }
    }

    let ((lc_configs, preds), ms) = timed(|| pin(ctx, &raw, tel))?;
    tel.qos_wall_ms += ms;

    // The quantum's one power ledger, built once under the search stopwatch;
    // slot `s` of `table` and of `point` is batch job `active[s]`.
    let ((active, table, point), ms) = timed(|| {
        let active = ctx.active_batch();
        let table = penalty_table(ctx, &preds, &lc_configs, &active);
        let point = search(algo, draws, &table, tel);
        Ok((active, table, point))
    })?;
    tel.search_wall_ms += ms;

    let (batch, ms) = timed(|| Ok(repair(ctx, &table, &active, &point, tel)))?;
    tel.repair_wall_ms += ms;

    let plan = Plan {
        lc: ctx
            .lc
            .iter()
            .zip(&lc_configs)
            .map(|(a, &config)| LcAssignment {
                cores: a.cores,
                config,
            })
            .collect(),
        batch,
    };
    Ok((plan, preds))
}

/// Validates one profiling sample against the physical sanity ranges.
/// Returns the sample with any invalid field zeroed (so the matrices skip
/// it) and the count of rejected fields, or `None` when nothing in the
/// sample is usable.
fn sanitize_sample(s: &SamplePoint) -> (Option<SamplePoint>, usize) {
    let ok = |v: f64, max: f64| v.is_finite() && (0.0..=max).contains(&v);
    let bips_ok = ok(s.bips, MAX_BIPS);
    let watts_ok = ok(s.watts, MAX_WATTS);
    let rejected = usize::from(!bips_ok) + usize::from(!watts_ok);
    if !bips_ok && !watts_ok {
        return (None, rejected);
    }
    let mut clean = *s;
    if !bips_ok {
        clean.bips = 0.0;
    }
    if !watts_ok {
        clean.watts = 0.0;
    }
    (Some(clean), rejected)
}

/// Stage 3, pre-profiling half — the reclaim policy of §VI-A: a measured QoS
/// violation while already at the widest configuration means reconfiguration
/// alone cannot help, so the tenant takes one core from the batch jobs.
/// Tenants are walked in priority order, each checked against the shared core
/// budget. Runs before stage 1 so the frames profile the post-relocation
/// layout.
///
/// # Errors
///
/// Fails when the slice info does not describe a tenant it needs.
fn relocate(ctx: &mut DecisionCtx, tel: &mut StageTelemetry) -> Result<(), StageError> {
    for i in 0..ctx.lc.len() {
        let Some(lc_info) = ctx.info.lc.get(i) else {
            return Err(StageError::MissingTenant { tenant: i });
        };
        if let Some(tail) = lc_info.last_tail_ms {
            if tail > lc_info.qos_ms
                && ctx.total_lc_cores() + 1 < ctx.info.num_cores
                && ctx
                    .last_lc_config(i)
                    .is_some_and(|c| c.core == CoreConfig::widest())
            {
                ctx.lc[i].cores += 1;
                tel.reclaimed_core = true;
            }
        }
    }
    Ok(())
}

/// Stage 1 (§VIII-A1): two 1 ms frames in which half the cores run the
/// widest-issue configuration and half the narrowest (swapped in the second
/// frame, to avoid a chip-wide power overshoot), each job holding one LLC
/// way. Validated samples are folded into `ctx.matrices`.
///
/// # Errors
///
/// Fails when no sample of the quantum survives validation, even after the
/// bounded retry.
fn profile(
    ctx: &mut DecisionCtx,
    probe: &mut Probe,
    tel: &mut StageTelemetry,
) -> Result<(), StageError> {
    let high = JobConfig::profiling_high();
    let low = JobConfig::profiling_low();
    let mut valid_total = 0usize;
    let mut rejected_total = 0usize;
    for swap in [false, true] {
        let lc_configs: Vec<Vec<JobConfig>> = ctx
            .lc
            .iter()
            .map(|a| {
                (0..a.cores)
                    .map(|i| if (i < a.cores / 2) ^ swap { high } else { low })
                    .collect()
            })
            .collect();
        let batch: Vec<BatchAction> = (0..ctx.num_batch)
            .map(|j| {
                if !ctx.info.batch_active.get(j).copied().unwrap_or(true) {
                    return BatchAction::Gated;
                }
                BatchAction::Run(if (j < ctx.num_batch / 2) ^ swap {
                    high
                } else {
                    low
                })
            })
            .collect();
        // One bounded retry: if every sample of a frame is rejected
        // (a sensor blackout rather than ordinary loss), the frame is
        // reissued once before the stage gives up.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let sample = probe(
                &ProfilePlan {
                    lc_configs: lc_configs.clone(),
                    batch: batch.clone(),
                },
                1.0,
            );
            tel.profile_sim_ms += sample.duration_ms;
            let mut valid = 0usize;
            for s in &sample.samples {
                let (clean, rejected) = sanitize_sample(s);
                rejected_total += rejected;
                if let Some(c) = clean {
                    ctx.matrices
                        .record_sample(c.job, c.config.index(), c.bips, c.watts);
                    valid += 1;
                    tel.samples_recorded += 1;
                }
            }
            valid_total += valid;
            if valid > 0 || attempts > 1 {
                break;
            }
            tel.degradation.sample_retries += 1;
        }
    }
    tel.degradation.samples_rejected += rejected_total;
    if valid_total == 0 {
        return Err(StageError::NoValidSamples {
            rejected: rejected_total,
        });
    }
    Ok(())
}

/// Stage 2 (§V): collaborative-filtering completion of the rating matrices —
/// every live row folded into the configuration factors SGD learned from the
/// known applications ([`JobMatrices::reconstruct`]). Returns predictions at
/// the tail library's reference core count. A solve that *diverges* is
/// returned as-is and caught by [`decide`]'s sanity gate.
fn reconstruct(ctx: &mut DecisionCtx, tel: &mut StageTelemetry) -> Predictions {
    // Each tenant's tail row is completed at the effective load of the
    // cores it holds after relocation, the axis its observations live on.
    let loads: Vec<f64> = ctx
        .info
        .lc
        .iter()
        .zip(ctx.lc.iter())
        .map(|(l, a)| effective_load(l.load, a.cores))
        .collect();
    // SGD runs in a quantum only to learn the factors of a tail bucket
    // met for the first time; the count is what actually ran.
    let epochs_before = ctx.matrices.learning_epochs();
    let mut preds = ctx.matrices.reconstruct(&loads);
    tel.sgd_epochs += ctx.matrices.learning_epochs() - epochs_before;
    // An injected divergence poisons the output with NaN — the
    // pipeline's sanity gate is expected to catch exactly this.
    if ctx.faults.reconstruct_diverge {
        poison_predictions(&mut preds);
    }
    preds
}

/// Relinquish threshold: yield a reclaimed core when the predicted tail has
/// at least this much slack (§VI-A: 20 %).
const RELINQUISH_SLACK: f64 = 0.2;
/// QoS headroom: a configuration is considered safe when its predicted tail
/// is below `QOS_HEADROOM × QoS`, absorbing reconstruction error.
const QOS_HEADROOM: f64 = 0.9;

/// Pins one tenant's configuration from its reconstructed tail row (§VI-A's
/// trust-region scan). Returns `(config, met_qos)`.
///
/// Among configurations predicted to meet QoS (with headroom), the scan
/// minimizes predicted power, breaking ties toward smaller cache
/// allocations — at tight caps the tenant's Watts are the binding
/// resource; its ways only matter as a tiebreak against the batch jobs'
/// cache demand.
fn pin_lc_config(
    lc: &LcPrediction,
    qos_ms: f64,
    last_config: Option<JobConfig>,
) -> (JobConfig, bool) {
    let mut best: Option<(JobConfig, f64)> = None;
    // Trust region: downsizing proceeds at most one step per dimension
    // per timeslice from the previous configuration (widening is
    // unlimited). Gradual descent means a mispredicted step lands just
    // past the previous — observed-safe — configuration, bounding the
    // magnitude of any transient violation.
    let floor =
        last_config.unwrap_or_else(|| JobConfig::new(CoreConfig::widest(), CacheAlloc::Four));
    let within_trust = |jc: JobConfig| {
        jc.core.fe.index() + 1 >= floor.core.fe.index()
            && jc.core.be.index() + 1 >= floor.core.be.index()
            && jc.core.ls.index() + 1 >= floor.core.ls.index()
            && jc.cache.index() + 1 >= floor.cache.index()
    };
    for c in 0..NUM_JOB_CONFIGS {
        if lc.tail_guarded[c] > qos_ms * QOS_HEADROOM {
            continue;
        }
        let jc = JobConfig::from_index(c);
        if !within_trust(jc) {
            continue;
        }
        let watts = lc.watts[c];
        let better = match &best {
            None => true,
            Some((b, w)) => (watts, jc.cache) < (*w, b.cache),
        };
        if better {
            best = Some((jc, watts));
        }
    }
    match best {
        Some((jc, _)) => (jc, true),
        None => {
            // Nothing meets QoS: run the strongest configuration while
            // the relocation policy reclaims cores.
            (
                JobConfig::new(CoreConfig::widest(), CacheAlloc::Four),
                false,
            )
        }
    }
}

/// Stage 3, post-reconstruction half: relinquish reclaimed cores when
/// predictions show slack, rescale each tenant's tail row to its final core
/// count, and pin every tenant's configuration in priority order. Returns
/// the pinned configurations and the rescaled predictions the later stages
/// use.
///
/// # Errors
///
/// Fails when the slice info or predictions are missing a tenant.
fn pin(
    ctx: &mut DecisionCtx,
    preds: &Predictions,
    tel: &mut StageTelemetry,
) -> Result<(Vec<JobConfig>, Predictions), StageError> {
    let mut lc_configs = Vec::with_capacity(ctx.lc.len());
    let mut rescaled_lc = Vec::with_capacity(ctx.lc.len());
    for i in 0..ctx.lc.len() {
        let lc_info = ctx
            .info
            .lc
            .get(i)
            .ok_or(StageError::MissingTenant { tenant: i })?;
        let tenant_preds = preds
            .lc
            .get(i)
            .ok_or(StageError::MissingTenant { tenant: i })?;
        let last_config = ctx.last_lc_config(i);
        // The tenant's predictions were reconstructed at the effective
        // load of this core count; relocation below steps away from it.
        let reconstructed_cores = ctx.lc[i].cores;
        // Relinquish half: a reclaimed core is yielded back as soon as
        // the predictions say one fewer core still meets QoS with slack
        // (measured slack at the chosen configuration is not
        // meaningful — the scan deliberately sits near the headroom
        // boundary).
        if ctx.lc[i].cores > ctx.lc[i].min_cores {
            let fewer = tenant_preds.rescaled_step(reconstructed_cores, ctx.lc[i].cores - 1);
            let (_, met) = pin_lc_config(
                &fewer,
                lc_info.qos_ms * (1.0 - RELINQUISH_SLACK / 2.0),
                last_config,
            );
            if met && lc_info.last_tail_ms.is_some_and(|t| t <= lc_info.qos_ms) {
                ctx.lc[i].cores -= 1;
                tel.relinquished_core = true;
            }
        }

        let rescaled = tenant_preds.rescaled_step(reconstructed_cores, ctx.lc[i].cores);
        // First touch of a load region: no observation within ±2 % load
        // means the saturation wall's position is unknown — run the
        // widest configuration for one slice and learn from it (this is
        // also the system's t = 0 state).
        let first_touch = ctx
            .matrices
            .tail_observations_near(i, bucket_for(effective_load(lc_info.load, ctx.lc[i].cores)))
            .is_empty();
        let (config, _met) = if first_touch {
            (JobConfig::new(CoreConfig::widest(), CacheAlloc::Four), true)
        } else {
            pin_lc_config(&rescaled, lc_info.qos_ms, last_config)
        };
        lc_configs.push(config);
        rescaled_lc.push(rescaled);
    }
    let preds = Predictions {
        batch_bips: preds.batch_bips.clone(),
        batch_watts: preds.batch_watts.clone(),
        lc: rescaled_lc,
    };
    Ok((lc_configs, preds))
}

/// The §VI-A problem over the `active` batch jobs' dimensions (slot `s` of a
/// point configures job `active[s]`). Outside the searched jobs the chip
/// draws every LC tenant's predicted Watts at its pinned configuration plus
/// the gated Watts of the cores with neither a tenant nor a present batch
/// job, and holds the tenants' pinned ways.
fn penalty_table(
    ctx: &DecisionCtx,
    preds: &Predictions,
    lc_configs: &[JobConfig],
    active: &[usize],
) -> PenaltyTable {
    let lc_watts: f64 = ctx
        .lc
        .iter()
        .zip(lc_configs)
        .zip(&preds.lc)
        .map(|((a, config), lc)| a.cores as f64 * lc.watts[config.index()])
        .sum();
    let idle_cores = ctx
        .info
        .num_cores
        .saturating_sub(ctx.total_lc_cores())
        .saturating_sub(active.len());
    PenaltyTable::new(
        active
            .iter()
            .map(|&j| (&preds.batch_bips[j], &preds.batch_watts[j])),
        JobConfig::all().map(|c| c.cache.ways()).collect(),
        (
            lc_watts + idle_cores as f64 * ctx.gated_watts,
            lc_configs.iter().map(|c| c.cache.ways()).sum(),
        ),
        (ctx.info.cap_watts, f64::from(ctx.info.llc_ways)),
    )
}

/// Stage 4: maximises the quantum's objective over its slots with `algo`.
/// Returns one configuration index per slot (none when no batch job is
/// present: nothing to search).
///
/// DDS replays `cache` when it holds the draws of this space and these
/// parameters, and otherwise draws afresh into it. The draws depend on
/// nothing else — not on the table, which changes every quantum — so
/// replaying them runs, bit for bit, the search that drawing afresh would;
/// the cache rebuilds only when the slot count (batch churn) or the
/// parameters change.
fn search(
    algo: &SearchAlgo,
    cache: &mut Option<Draws>,
    table: &PenaltyTable,
    tel: &mut StageTelemetry,
) -> Vec<usize> {
    if table.slots() == 0 {
        return Vec::new();
    }
    let space = SearchSpace::new(table.slots(), NUM_JOB_CONFIGS);
    let result = match algo {
        SearchAlgo::Dds(params) => {
            let draws = match cache {
                Some(d) if d.matches(&space, params) => d,
                _ => cache.insert(Draws::new(&space, params)),
            };
            draws.run_in(None, table)
        }
        SearchAlgo::Ga(params) => ga_search(&space, table, params),
    };
    tel.search_evaluations += result.evaluations;
    tel.cache_misses += result.evaluations;
    result.best_point
}

/// Stage 5 (§VI-B): turns the searched `point` (slot `s` configures batch job
/// `active[s]`) into one action per batch job; jobs absent this slice are
/// gated. If the table says the cap is missed even with every present job at
/// the narrowest configuration, the searched point is dropped and jobs are
/// gated in descending predicted power on top of the table's base Watts.
fn repair(
    ctx: &DecisionCtx,
    table: &PenaltyTable,
    active: &[usize],
    point: &[usize],
    tel: &mut StageTelemetry,
) -> Vec<BatchAction> {
    let lowest = JobConfig::profiling_low().index();
    if table.power(&vec![lowest; active.len()]) <= table.max_power {
        let mut actions = vec![BatchAction::Gated; ctx.num_batch];
        for (&j, &c) in active.iter().zip(point) {
            actions[j] = BatchAction::Run(JobConfig::from_index(c));
        }
        return actions;
    }
    let narrowest_watts: Vec<f64> = (0..active.len())
        .map(|slot| table.watts_at(slot, lowest))
        .collect();
    let actions = narrowest_then_gate(
        ctx.num_batch,
        active,
        &narrowest_watts,
        table.base_watts(),
        table.max_power,
        ctx.gated_watts,
    );
    tel.gated_jobs += active
        .iter()
        .filter(|&&j| actions[j] == BatchAction::Gated)
        .count();
    actions
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::types::{LcSliceInfo, SliceInfo};
    use dds::Objective;

    fn flat_predictions(tail_ms: f64) -> Predictions {
        Predictions {
            batch_bips: vec![vec![1.0; NUM_JOB_CONFIGS]; 4],
            batch_watts: vec![vec![2.0; NUM_JOB_CONFIGS]; 4],
            lc: vec![LcPrediction {
                watts: vec![3.0; NUM_JOB_CONFIGS],
                tail: vec![tail_ms; NUM_JOB_CONFIGS],
                tail_guarded: vec![tail_ms; NUM_JOB_CONFIGS],
            }],
        }
    }

    fn info(cap_watts: f64) -> SliceInfo {
        let service = workloads::latency::service_by_name("xapian").unwrap();
        SliceInfo {
            slice: 5,
            cap_watts,
            num_cores: 32,
            llc_ways: 32,
            num_batch: 4,
            lc: vec![LcSliceInfo {
                service,
                qos_ms: 10.0,
                load: 0.8,
                last_tail_ms: Some(5.0),
                last_cores: 16,
            }],
            batch_active: vec![true; 4],
        }
    }

    fn test_matrices() -> JobMatrices {
        JobMatrices::new(
            workloads::oracle::Oracle::new(simulator::Chip::new(
                simulator::SystemParams::default(),
                simulator::power::CoreKind::Reconfigurable,
            )),
            &[simulator::AppProfile::balanced()],
            1,
            4,
        )
    }

    #[test]
    fn pin_minimizes_power_among_safe_configs() {
        let mut preds = flat_predictions(1.0);
        // Make one configuration clearly cheapest.
        let cheap = JobConfig::new(CoreConfig::narrowest(), CacheAlloc::One).index();
        preds.lc[0].watts[cheap] = 0.5;
        // With the widest as the previous config, only one-step-down
        // configurations are eligible.
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        let (jc, met) = pin_lc_config(&preds.lc[0], 10.0, Some(widest));
        assert!(met);
        // The chosen config must be within one step of widest per dimension.
        assert!(jc.core.fe.index() + 1 >= widest.core.fe.index());
        assert!(jc.core.be.index() + 1 >= widest.core.be.index());
        assert!(jc.core.ls.index() + 1 >= widest.core.ls.index());
        assert!(jc.cache.index() + 1 >= widest.cache.index());
        // And it must be the cheapest within that trust region.
        let best_watts = (0..NUM_JOB_CONFIGS)
            .filter(|&c| {
                let x = JobConfig::from_index(c);
                x.core.fe.index() + 1 >= widest.core.fe.index()
                    && x.core.be.index() + 1 >= widest.core.be.index()
                    && x.core.ls.index() + 1 >= widest.core.ls.index()
                    && x.cache.index() + 1 >= widest.cache.index()
            })
            .map(|c| preds.lc[0].watts[c])
            .fold(f64::INFINITY, f64::min);
        assert!((preds.lc[0].watts[jc.index()] - best_watts).abs() < 1e-12);
    }

    #[test]
    fn pin_trust_region_downsizes_one_step_per_dimension() {
        // Every configuration is predicted safe and equally cheap except
        // the narrowest, which is strictly cheapest — the scan wants it.
        let mut preds = flat_predictions(1.0);
        let narrow = JobConfig::new(CoreConfig::narrowest(), CacheAlloc::One);
        preds.lc[0].watts[narrow.index()] = 0.1;
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        let (jc, met) = pin_lc_config(&preds.lc[0], 10.0, Some(widest));
        assert!(met);
        assert_ne!(
            jc, narrow,
            "one quantum must not jump straight to the narrowest config"
        );
        // Each dimension moved at most one step down from the floor.
        assert!(jc.core.fe.index() + 1 >= widest.core.fe.index());
        assert!(jc.cache.index() + 1 >= widest.cache.index());
    }

    #[test]
    fn pin_allows_unrestricted_widening() {
        // Only the widest configuration is safe; the previous plan was the
        // narrowest. Widening is not trust-limited, so the scan must reach
        // the widest in one quantum.
        let mut preds = flat_predictions(50.0);
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        preds.lc[0].tail_guarded[widest.index()] = 1.0;
        let narrow = JobConfig::new(CoreConfig::narrowest(), CacheAlloc::One);
        let (jc, met) = pin_lc_config(&preds.lc[0], 10.0, Some(narrow));
        assert!(met);
        assert_eq!(jc, widest);
    }

    #[test]
    fn pin_falls_back_to_widest_when_nothing_meets_qos() {
        let preds = flat_predictions(1000.0);
        let (jc, met) = pin_lc_config(&preds.lc[0], 10.0, None);
        assert!(!met);
        assert_eq!(jc, JobConfig::new(CoreConfig::widest(), CacheAlloc::Four));
    }

    #[test]
    fn repair_keeps_searched_point_when_narrowest_fits() {
        let preds = flat_predictions(1.0);
        // lc 16 × 3 W + 12 idle × 0.1 W + 4 × 2 W = 57.2 W, well under a
        // 200 W cap.
        let inf = info(200.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let point = vec![3, 17, 42, 99];
        let mut tel = StageTelemetry::default();
        let active = ctx.active_batch();
        let table = penalty_table(&ctx, &preds, &[JobConfig::from_index(0)], &active);
        let actions = repair(&ctx, &table, &active, &point, &mut tel);
        let expect: Vec<BatchAction> = point
            .iter()
            .map(|&c| BatchAction::Run(JobConfig::from_index(c)))
            .collect();
        assert_eq!(actions, expect);
        assert_eq!(tel.gated_jobs, 0);
    }

    #[test]
    fn repair_gates_descending_power_until_under_cap() {
        let mut preds = flat_predictions(1.0);
        let lowest = JobConfig::profiling_low().index();
        // Distinct narrowest-config powers so the gating order is known.
        for (j, w) in [(0usize, 8.0), (1, 6.0), (2, 4.0), (3, 2.0)] {
            preds.batch_watts[j][lowest] = w;
        }
        // lc 16 × 3 = 48 W + 12 idle cores × 0.5 W = 6 W + 20 W batch = 74 W
        // against a 66 W cap with 0.5 W gated cores: gating job 0 leaves
        // 66.5, gating job 1 leaves 61 — under the cap, so exactly jobs 0
        // and 1 gate.
        let inf = info(66.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.5,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let mut tel = StageTelemetry::default();
        let active = ctx.active_batch();
        let table = penalty_table(&ctx, &preds, &[JobConfig::from_index(0)], &active);
        assert_eq!(table.power(&[lowest; 4]), 74.0);
        let actions = repair(&ctx, &table, &active, &[0, 0, 0, 0], &mut tel);
        assert_eq!(actions[0], BatchAction::Gated);
        assert_eq!(actions[1], BatchAction::Gated);
        assert_eq!(actions[2], BatchAction::Run(JobConfig::from_index(lowest)));
        assert_eq!(actions[3], BatchAction::Run(JobConfig::from_index(lowest)));
        assert_eq!(tel.gated_jobs, 2);
    }

    #[test]
    fn repair_gates_everything_at_impossible_caps() {
        let preds = flat_predictions(1.0);
        // A 1 W cap cannot be met even fully gated: every job gates.
        let inf = info(1.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.5,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let mut tel = StageTelemetry::default();
        let active = ctx.active_batch();
        let table = penalty_table(&ctx, &preds, &[JobConfig::from_index(0)], &active);
        let actions = repair(&ctx, &table, &active, &[0, 0, 0, 0], &mut tel);
        assert!(actions.iter().all(|a| *a == BatchAction::Gated));
        assert_eq!(tel.gated_jobs, 4);
    }

    #[test]
    fn repair_gates_departed_jobs_without_counting_them() {
        let preds = flat_predictions(1.0);
        let mut inf = info(200.0);
        inf.batch_active[2] = false;
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let mut tel = StageTelemetry::default();
        let active = ctx.active_batch();
        let table = penalty_table(&ctx, &preds, &[JobConfig::from_index(0)], &active);
        // Slot-indexed: the three present jobs are 0, 1 and 3.
        let actions = repair(&ctx, &table, &active, &[3, 17, 99], &mut tel);
        assert_eq!(actions[2], BatchAction::Gated, "departed slot is gated");
        assert_eq!(actions[0], BatchAction::Run(JobConfig::from_index(3)));
        assert_eq!(tel.gated_jobs, 0, "departure is not a repair gating");
    }

    #[test]
    fn relocate_reclaims_only_at_widest_config() {
        let mut inf = info(100.0);
        inf.lc[0].last_tail_ms = Some(50.0);
        let mut matrices = test_matrices();
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        let narrow = JobConfig::new(CoreConfig::narrowest(), CacheAlloc::One);
        for (config, expect_reclaim) in [(widest, true), (narrow, false)] {
            let mut lc = vec![LcAllocation {
                cores: 16,
                min_cores: 16,
            }];
            let last = Some(Plan::with_single_lc(16, config, vec![]));
            let mut ctx = DecisionCtx {
                info: &inf,
                matrices: &mut matrices,
                lc: &mut lc,
                last_plan: &last,
                num_batch: 4,
                gated_watts: 0.5,
                faults: QuantumFaults::NONE,
                last_good_preds: None,
            };
            let mut tel = StageTelemetry::default();
            relocate(&mut ctx, &mut tel).unwrap();
            assert_eq!(tel.reclaimed_core, expect_reclaim, "config {config:?}");
            assert_eq!(lc[0].cores, if expect_reclaim { 17 } else { 16 });
        }
    }

    #[test]
    fn relocate_arbitrates_cores_between_two_tenants() {
        let service = workloads::latency::service_by_name("xapian").unwrap();
        let masstree = workloads::latency::service_by_name("masstree").unwrap();
        // Both tenants violated at the widest config: both reclaim while
        // the shared budget lasts.
        let inf = SliceInfo {
            slice: 5,
            cap_watts: 100.0,
            num_cores: 32,
            llc_ways: 32,
            num_batch: 4,
            lc: vec![
                LcSliceInfo {
                    service,
                    qos_ms: 6.0,
                    load: 0.8,
                    last_tail_ms: Some(50.0),
                    last_cores: 14,
                },
                LcSliceInfo {
                    service: masstree,
                    qos_ms: 8.0,
                    load: 0.8,
                    last_tail_ms: Some(50.0),
                    last_cores: 14,
                },
            ],
            batch_active: vec![true; 4],
        };
        let mut matrices = JobMatrices::new(
            workloads::oracle::Oracle::new(simulator::Chip::new(
                simulator::SystemParams::default(),
                simulator::power::CoreKind::Reconfigurable,
            )),
            &[simulator::AppProfile::balanced()],
            2,
            4,
        );
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        let mut lc = vec![
            LcAllocation {
                cores: 14,
                min_cores: 14,
            },
            LcAllocation {
                cores: 14,
                min_cores: 14,
            },
        ];
        let last = Some(Plan {
            lc: vec![
                LcAssignment {
                    cores: 14,
                    config: widest,
                },
                LcAssignment {
                    cores: 14,
                    config: widest,
                },
            ],
            batch: vec![],
        });
        let mut ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.5,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let mut tel = StageTelemetry::default();
        relocate(&mut ctx, &mut tel).unwrap();
        // Tenant 0 (higher priority) reclaims to 15; the total is then
        // 29 + 1 < 32, so tenant 1 also reclaims; a second pass would stop
        // at the budget.
        assert_eq!(lc[0].cores, 15);
        assert_eq!(lc[1].cores, 15);
        assert!(tel.reclaimed_core);
    }

    #[test]
    fn tabulated_objective_matches_the_formula_to_the_bit() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let mut preds = flat_predictions(1.0);
        for j in 0..4 {
            for c in 0..NUM_JOB_CONFIGS {
                preds.batch_bips[j][c] = rng.random_range(0.05..4.0);
                preds.batch_watts[j][c] = rng.random_range(1.0..4.0);
            }
        }
        // Below the 1e-9 floor, so the clamp is exercised too.
        preds.batch_bips[2][7] = 0.0;
        // LC 16 × 3 W + 13 idle × 0.1 W = 49.3 W under three jobs drawing
        // 3–12 W: a 57 W cap binds on about half the points.
        let mut inf = info(57.0);
        inf.batch_active[1] = false;
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let lc_configs = [JobConfig::new(CoreConfig::widest(), CacheAlloc::Four)];
        let active = ctx.active_batch();
        assert_eq!(active, [0, 2, 3]);

        // The §VI-A arithmetic evaluated from scratch per point: the reference.
        let (bips, watts) = (&preds.batch_bips, &preds.batch_watts);
        let base_watts = 16.0 * 3.0 + 13.0 * 0.1;
        let power = |x: &[usize]| {
            base_watts
                + x.iter()
                    .zip(&active)
                    .map(|(&c, &j)| watts[j][c])
                    .sum::<f64>()
        };
        let reference = |x: &[usize]| {
            let log_sum: f64 = x
                .iter()
                .zip(&active)
                .map(|(&c, &j)| bips[j][c].max(1e-9).ln())
                .sum();
            let ways = 4.0
                + x.iter()
                    .map(|&c| JobConfig::from_index(c).cache.ways())
                    .sum::<f64>();
            (log_sum / active.len() as f64).exp()
                - 2.0 * (power(x) - 57.0).max(0.0)
                - 2.0 * (ways - 32.0).max(0.0)
        };
        let tabulated = penalty_table(&ctx, &preds, &lc_configs, &active);
        let mut over_cap = 0;
        for _ in 0..2000 {
            let mut x: Vec<usize> = (0..active.len())
                .map(|_| rng.random_range(0..NUM_JOB_CONFIGS))
                .collect();
            if rng.random_range(0..10) == 0 {
                x[1] = 7;
            }
            over_cap += usize::from(power(&x) > 57.0);
            assert_eq!(tabulated.power(&x).to_bits(), power(&x).to_bits());
            assert_eq!(
                tabulated.evaluate(&x).to_bits(),
                reference(&x).to_bits(),
                "objective diverged at {x:?}"
            );
        }
        assert!((500..1500).contains(&over_cap), "cap binds on {over_cap}");

        let algo = SearchAlgo::Dds(ParallelDdsParams::default());
        let mut tel = StageTelemetry::default();
        let mut draws = None;
        let first = search(&algo, &mut draws, &tabulated, &mut tel);
        let second = search(&algo, &mut draws, &tabulated, &mut tel);
        assert_eq!(first, second, "replaying the kept draws is the same search");
        assert_eq!(first.len(), active.len(), "one choice per present job");
        assert_eq!(tel.search_evaluations, 2 * 3250);
        assert_eq!(tel.cache_misses, tel.search_evaluations);
    }

    #[test]
    fn the_search_is_bounded_by_the_chips_llc_ways() {
        let preds = flat_predictions(1.0);
        let mut inf = info(200.0);
        let mut matrices = test_matrices();
        let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
        // The tenant's four ways plus four jobs at four ways each: 20 ways.
        let point = [widest.index(); 4];
        for (llc_ways, fits) in [(32, true), (16, false)] {
            inf.llc_ways = llc_ways;
            let mut lc = vec![LcAllocation {
                cores: 16,
                min_cores: 16,
            }];
            let last = None;
            let ctx = DecisionCtx {
                info: &inf,
                matrices: &mut matrices,
                lc: &mut lc,
                last_plan: &last,
                num_batch: 4,
                gated_watts: 0.1,
                faults: QuantumFaults::NONE,
                last_good_preds: None,
            };
            let table = penalty_table(&ctx, &preds, &[widest], &ctx.active_batch());
            assert_eq!(table.max_ways, f64::from(llc_ways));
            assert_eq!(table.cache_ways(&point), 20.0);
            assert_eq!(table.is_feasible(&point), fits, "{llc_ways} ways");
        }
    }

    /// One quantum, one ledger. Over seeded random rows, churn masks,
    /// idle-core counts and caps, `repair` drops the searched point exactly
    /// when the table it shares with `search` says the all-narrowest plan
    /// misses the cap, and what it then emits fits by that table's own
    /// `power` (gated jobs at the gated Watts) unless every present job is
    /// already gated. A kept point is the search's, untouched: under the soft
    /// penalty it may ride the cap, which is not repair's to fix.
    #[test]
    fn search_and_repair_agree_with_the_table_on_what_fits() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        const GATED_WATTS: f64 = 0.5;
        let mut rng = StdRng::seed_from_u64(0x1ED6E2);
        let algo = SearchAlgo::Dds(ParallelDdsParams {
            max_iters: 4,
            initial_points: 10,
            ..ParallelDdsParams::default()
        });
        let lowest = JobConfig::profiling_low().index();
        let lc_configs = [JobConfig::new(CoreConfig::widest(), CacheAlloc::Four)];
        let mut matrices = test_matrices();
        // Cases the table keeps, cases it drops, and among the dropped those
        // only the idle cores' Watts push over the cap.
        let (mut kept, mut dropped, mut idle_decided) = (0, 0, 0);
        let row = |rng: &mut StdRng, range: std::ops::Range<f64>| -> Vec<f64> {
            (0..NUM_JOB_CONFIGS)
                .map(|_| rng.random_range(range.clone()))
                .collect()
        };
        for case in 0..384 {
            let num_batch = rng.random_range(1..7);
            let preds = Predictions {
                batch_bips: (0..num_batch).map(|_| row(&mut rng, 0.05..4.0)).collect(),
                batch_watts: (0..num_batch).map(|_| row(&mut rng, 1.0..4.0)).collect(),
                ..flat_predictions(1.0)
            };
            let mut inf = info(0.0);
            inf.num_batch = num_batch;
            inf.batch_active = (0..num_batch).map(|_| rng.random_range(0..4) > 0).collect();
            inf.num_cores = 16 + num_batch + rng.random_range(0..13);
            let narrowest: f64 = (0..num_batch)
                .filter(|&j| inf.batch_active[j])
                .map(|j| preds.batch_watts[j][lowest])
                .sum();
            // One case in eight cannot be met at all; the rest straddle the
            // all-narrowest plan, idle cores (at most 9 W) included.
            inf.cap_watts = if case % 8 == 0 {
                rng.random_range(0.0..48.0)
            } else {
                48.0 + narrowest + rng.random_range(-6.0..15.0)
            };
            let mut lc = vec![LcAllocation {
                cores: 16,
                min_cores: 16,
            }];
            let last = None;
            let ctx = DecisionCtx {
                info: &inf,
                matrices: &mut matrices,
                lc: &mut lc,
                last_plan: &last,
                num_batch,
                gated_watts: GATED_WATTS,
                faults: QuantumFaults::NONE,
                last_good_preds: None,
            };
            let active = ctx.active_batch();
            let table = penalty_table(&ctx, &preds, &lc_configs, &active);
            let mut tel = StageTelemetry::default();
            let point = search(&algo, &mut None, &table, &mut tel);
            let actions = repair(&ctx, &table, &active, &point, &mut tel);

            assert_eq!(actions.len(), num_batch);
            for (j, action) in actions.iter().enumerate() {
                assert!(inf.batch_active[j] || *action == BatchAction::Gated);
            }
            let present: Vec<BatchAction> = active.iter().map(|&j| actions[j]).collect();
            let searched: Vec<BatchAction> = point
                .iter()
                .map(|&c| BatchAction::Run(JobConfig::from_index(c)))
                .collect();
            let fits = table.power(&vec![lowest; active.len()]) <= table.max_power;
            if fits {
                kept += 1;
                assert_eq!(present, searched, "case {case}: a fitting plan is kept");
                assert_eq!(tel.gated_jobs, 0);
                continue;
            }
            dropped += 1;
            idle_decided += usize::from(48.0 + narrowest <= inf.cap_watts);
            let narrow = BatchAction::Run(JobConfig::profiling_low());
            let gated = present.iter().filter(|a| **a != narrow).count();
            assert_eq!(tel.gated_jobs, gated);
            let emitted = table.base_watts()
                + present
                    .iter()
                    .enumerate()
                    .map(|(slot, action)| match action {
                        BatchAction::Run(_) => table.watts_at(slot, lowest),
                        BatchAction::Gated => GATED_WATTS,
                    })
                    .sum::<f64>();
            assert!(
                emitted <= table.max_power + 1e-9 || gated == present.len(),
                "case {case}: emits {emitted} W against {} W with {gated} of {} gated",
                table.max_power,
                present.len()
            );
        }
        assert!(
            kept >= 64 && dropped >= 64,
            "{kept} kept, {dropped} dropped"
        );
        assert!(
            idle_decided >= 16,
            "idle cores decided {idle_decided} cases"
        );
    }

    /// One kept `Option<Draws>` carried through quanta whose slot counts go
    /// 16, 16, 11, 12, 12, 16 (batch churn), each over fresh rows: every
    /// point equals a search that draws afresh, and the draws are rebuilt
    /// exactly when the slot count changes — 4 times — and reused twice.
    #[test]
    fn kept_draws_are_rebuilt_exactly_when_the_slot_count_changes() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xCAC4E);
        let params = ParallelDdsParams::default();
        let algo = SearchAlgo::Dds(params.clone());
        let ways: Vec<f64> = JobConfig::all().map(|c| c.cache.ways()).collect();
        let mut kept: Option<Draws> = None;
        let (mut rebuilt, mut reused) = (0, 0);
        for slots in [16, 16, 11, 12, 12, 16] {
            let mut row = |range: std::ops::Range<f64>| -> Vec<f64> {
                (0..NUM_JOB_CONFIGS)
                    .map(|_| rng.random_range(range.clone()))
                    .collect()
            };
            let bips: Vec<Vec<f64>> = (0..slots).map(|_| row(0.05..4.0)).collect();
            let watts: Vec<Vec<f64>> = (0..slots).map(|_| row(1.0..4.0)).collect();
            let table = PenaltyTable::new(
                bips.iter().zip(&watts),
                ways.clone(),
                (49.3, 4.0),
                (49.3 + 2.5 * slots as f64, 32.0),
            );
            let space = SearchSpace::new(slots, NUM_JOB_CONFIGS);
            if kept.as_ref().is_some_and(|d| d.matches(&space, &params)) {
                reused += 1;
            } else {
                rebuilt += 1;
            }
            let mut tel = StageTelemetry::default();
            let point = search(&algo, &mut kept, &table, &mut tel);
            assert!(kept.as_ref().is_some_and(|d| d.matches(&space, &params)));
            assert_eq!(
                point,
                search(&algo, &mut None, &table, &mut tel),
                "{slots} slots"
            );
            assert_eq!(tel.search_evaluations, 2 * 3250);
        }
        assert_eq!((rebuilt, reused), (4, 2));
    }

    /// A healthy probe: one finite sample per job (the tenant, then the
    /// four batch jobs) in every frame.
    fn steady_probe() -> impl FnMut(&ProfilePlan, f64) -> ProfileSample {
        |_, ms| ProfileSample {
            duration_ms: ms,
            samples: (0..5)
                .map(|job| SamplePoint {
                    job,
                    config: JobConfig::profiling_high(),
                    bips: 1.0,
                    watts: 2.0,
                })
                .collect(),
            lc_tails_ms: vec![],
        }
    }

    fn dds() -> SearchAlgo {
        SearchAlgo::Dds(ParallelDdsParams::default())
    }

    #[test]
    fn sanity_gate_falls_back_to_fresh_last_good_predictions() {
        let good = flat_predictions(1.0);
        let inf = info(200.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let mut ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults {
                reconstruct_diverge: true,
                ..QuantumFaults::NONE
            },
            last_good_preds: Some((&good, 2)),
        };
        let mut probe = steady_probe();
        let mut tel = StageTelemetry::default();
        let (plan, _) = decide(&dds(), &mut None, &mut ctx, &mut probe, &mut tel).unwrap();
        assert!(tel.degradation.reconstruct_fallback);
        assert_eq!(tel.degradation.stale_age, 2);
        assert!(tel.degradation.degraded());
        assert_eq!(plan.lc.len(), 1);
    }

    #[test]
    fn sanity_gate_fails_without_or_beyond_last_good() {
        let inf = info(200.0);
        for (last_good_age, expected_stale) in [(None, false), (Some(9), true)] {
            let good = flat_predictions(1.0);
            let mut matrices = test_matrices();
            let mut lc = vec![LcAllocation {
                cores: 16,
                min_cores: 16,
            }];
            let last = None;
            let mut ctx = DecisionCtx {
                info: &inf,
                matrices: &mut matrices,
                lc: &mut lc,
                last_plan: &last,
                num_batch: 4,
                gated_watts: 0.1,
                faults: QuantumFaults {
                    reconstruct_diverge: true,
                    ..QuantumFaults::NONE
                },
                last_good_preds: last_good_age.map(|age| (&good, age)),
            };
            let mut probe = steady_probe();
            let mut tel = StageTelemetry::default();
            let err = decide(&dds(), &mut None, &mut ctx, &mut probe, &mut tel)
                .expect_err("diverged reconstruction with no usable fallback");
            match err {
                DecisionError::Stage(StageError::PredictionsStale { age, bound }) => {
                    assert!(expected_stale);
                    assert_eq!(age, 9);
                    assert_eq!(bound, STALENESS_BOUND);
                }
                DecisionError::Stage(StageError::ReconstructionDiverged { bad_values }) => {
                    assert!(!expected_stale);
                    assert!(bad_values > 0);
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(err.stage(), "reconstruct");
        }
    }

    #[test]
    fn profile_rejects_invalid_samples_and_errors_when_nothing_survives() {
        let inf = info(200.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let mut ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        let mut frames = 0usize;
        let mut probe = |_: &ProfilePlan, _: f64| {
            frames += 1;
            ProfileSample {
                duration_ms: 1.0,
                samples: vec![SamplePoint {
                    job: 0,
                    config: JobConfig::profiling_high(),
                    bips: f64::NAN,
                    watts: f64::NAN,
                }],
                lc_tails_ms: vec![],
            }
        };
        let mut tel = StageTelemetry::default();
        let err = profile(&mut ctx, &mut probe, &mut tel)
            .expect_err("all-NaN samples must fail the stage");
        assert!(matches!(err, StageError::NoValidSamples { rejected: 8 }));
        // Two frames, each retried exactly once.
        assert_eq!(frames, 4);
        assert_eq!(tel.degradation.sample_retries, 2);
        assert_eq!(tel.degradation.samples_rejected, 8);
        assert_eq!(tel.samples_recorded, 0);
    }

    #[test]
    fn profile_salvages_the_finite_field_of_a_half_valid_sample() {
        let inf = info(200.0);
        let mut matrices = test_matrices();
        let mut lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        let last = None;
        let mut ctx = DecisionCtx {
            info: &inf,
            matrices: &mut matrices,
            lc: &mut lc,
            last_plan: &last,
            num_batch: 4,
            gated_watts: 0.1,
            faults: QuantumFaults::NONE,
            last_good_preds: None,
        };
        // Valid bips, blacked-out watts: the sample still counts, only the
        // watts field is rejected.
        let mut probe = |_: &ProfilePlan, _: f64| ProfileSample {
            duration_ms: 1.0,
            samples: vec![SamplePoint {
                job: 1,
                config: JobConfig::profiling_high(),
                bips: 2.0,
                watts: f64::NAN,
            }],
            lc_tails_ms: vec![],
        };
        let mut tel = StageTelemetry::default();
        profile(&mut ctx, &mut probe, &mut tel).unwrap();
        assert_eq!(tel.samples_recorded, 2);
        assert_eq!(tel.degradation.samples_rejected, 2);
        assert_eq!(tel.degradation.sample_retries, 0);
    }
}
