//! The CuttleSys resource manager (§IV–§VI).
//!
//! Every 100 ms decision quantum runs the five stages of
//! [`pipeline::decide`]:
//!
//! 1. **Profile** for 2 ms: two 1 ms frames in which half of each LC
//!    tenant's cores run the widest-issue configuration and half the
//!    narrowest (swapped in the second frame, to avoid a chip-wide power
//!    overshoot), each job holding one LLC way.
//! 2. **Reconstruct** the throughput, tail-latency, and power rows of every
//!    live job: each is folded, in closed form, into the configuration
//!    factors SGD learned once from the offline-characterized training
//!    applications, using the job's profiling samples and all observations
//!    accumulated from previous steady states. One tail row is completed
//!    per LC tenant, at that tenant's current load.
//! 3. **Pin each LC configuration** in priority order: scan the tenant's
//!    reconstructed tail row for configurations meeting its QoS; take the
//!    smallest cache allocation and, among those, the lowest predicted
//!    power (§VI-A). If nothing meets QoS, reclaim one core from the batch
//!    jobs (§VI-A); once the measured tail shows ≥ 20 % slack, yield
//!    reclaimed cores back.
//! 4. **Search** the *present* batch jobs' configuration space with
//!    parallel DDS (Alg. 2) under the soft power/cache penalty objective;
//!    optionally a GA can be substituted (the paper's Fig. 10 comparison)
//!    ([`SearchAlgo`]).
//! 5. **Repair**: if even the all-narrowest plan exceeds the cap — by the
//!    same table the search maximised over — gate batch cores in descending
//!    predicted power (§VI-B).
//!
//! The manager itself only owns the pipeline state — the rating matrices,
//! the per-tenant LC core allocations, the previous plan — and the choice of
//! search algorithm with DDS's cached random draws; each stage's logic lives
//! in [`crate::pipeline`]. The
//! pipeline times every stage and the manager surfaces the resulting
//! [`StageTelemetry`] through [`ResourceManager::take_telemetry`], which is
//! how the Table II overhead report gets runtime-measured numbers. On batch
//! job departure (churn) the manager retires the job's observation rows so a
//! later arrival under the same index starts cold.
//!
//! # The degradation ladder
//!
//! A decision quantum can fail: every profiling sample rejected, or the
//! reconstruction diverged past the sanity gate with nothing fresh to fall
//! back to. [`CuttleSysManager::decide`] surfaces those failures as typed
//! [`DecisionError`]s, and [`ResourceManager::plan`] walks the ladder
//! instead of panicking:
//!
//! 1. **Replay last-good** — while the most recent successful decision is
//!    within [`STALENESS_BOUND`] quanta old, its plan is replayed (departed
//!    batch jobs gated).
//! 2. **Safe mode** — otherwise the manager emits the maximally conservative
//!    [`safe_mode_plan`]: LC tenants keep their cores at the widest
//!    configuration, batch jobs gate (or run narrowest under the cap when
//!    last-good predictions still permit power accounting).
//! 3. **Circuit breaker** — after
//!    [`BREAKER_OPEN_AFTER`](crate::faults::BREAKER_OPEN_AFTER) consecutive
//!    failures the [`CircuitBreaker`] opens and the manager stops attempting
//!    full decisions, emitting safe mode directly; every
//!    [`BREAKER_PROBE_INTERVAL`](crate::faults::BREAKER_PROBE_INTERVAL)
//!    quanta it probes one full decision, and
//!    [`BREAKER_CLOSE_AFTER`](crate::faults::BREAKER_CLOSE_AFTER) successful
//!    probes close the breaker again.
//!
//! Every rung is recorded in the quantum's
//! [`crate::telemetry::DegradationEvents`].

use std::sync::Arc;

use dds::{Draws, ParallelDdsParams};

use crate::faults::{safe_mode_plan, CircuitBreaker, DecisionError, FaultPlan, STALENESS_BOUND};
use crate::matrices::{FactorLibrary, JobMatrices, Predictions};
pub use crate::pipeline::SearchAlgo;
use crate::pipeline::{self, DecisionCtx, LcAllocation};
use crate::telemetry::StageTelemetry;
use crate::types::{
    BatchAction, Plan, ProfilePlan, ProfileSample, ResourceManager, Scenario, SliceInfo,
    SliceOutcome,
};

/// The most recent decision that fully succeeded, kept as the fallback for
/// failed quanta while it stays within the staleness bound.
struct LastGood {
    plan: Plan,
    preds: Predictions,
    /// Quanta since the decision was made (0 = this quantum).
    age: usize,
}

/// The CuttleSys runtime: pipeline state plus the search algorithm.
pub struct CuttleSysManager {
    matrices: JobMatrices,
    search: SearchAlgo,
    /// DDS's random draws, kept across quanta for the search to replay.
    draws: Option<Draws>,
    lc: Vec<LcAllocation>,
    gated_watts: f64,
    num_batch: usize,
    name: String,
    last_plan: Option<Plan>,
    last_loads: Vec<f64>,
    prev_active: Vec<bool>,
    last_telemetry: Option<StageTelemetry>,
    faults: FaultPlan,
    breaker: CircuitBreaker,
    last_good: Option<LastGood>,
}

impl CuttleSysManager {
    /// Builds the manager for a scenario: characterizes the 16 training
    /// applications offline, learns their configuration factors, and
    /// configures the default fold-in + parallel DDS pipeline. Spawns no
    /// thread.
    pub fn for_scenario(scenario: &Scenario) -> CuttleSysManager {
        CuttleSysManager::sharing(scenario, Arc::new(FactorLibrary::for_chip(scenario.params)))
    }

    /// Like [`for_scenario`](Self::for_scenario), over a factor library
    /// shared with the other managers of chips with `scenario.params`
    /// (e.g. one from [`Libraries`](crate::matrices::Libraries)). Records
    /// are bit-identical to [`for_scenario`](Self::for_scenario)'s.
    ///
    /// # Panics
    ///
    /// Panics if `library` characterizes a chip other than
    /// `scenario.params`: its factors would plan for another chip.
    pub fn sharing(scenario: &Scenario, library: Arc<FactorLibrary>) -> CuttleSysManager {
        assert!(
            library.params() == &scenario.params,
            "the factor library characterizes another chip"
        );
        let matrices = JobMatrices::sharing(library, scenario.num_lc(), scenario.num_batch());
        // The DDS seed is the scenario's, fixed across quanta: every quantum
        // searches with the same random numbers (common random numbers), so
        // the draws are made once and each search only replays them.
        // Reseeding per quantum would redraw them every time.
        let search = SearchAlgo::Dds(ParallelDdsParams {
            seed: scenario.seed,
            ..Default::default()
        });
        let name = Self::name_for(&search);
        CuttleSysManager {
            matrices,
            search,
            draws: None,
            lc: scenario
                .lc_jobs()
                .iter()
                .map(|lc| LcAllocation {
                    cores: lc.cores,
                    min_cores: lc.cores,
                })
                .collect(),
            gated_watts: scenario.params.gated_core_watts,
            num_batch: scenario.num_batch(),
            name,
            last_plan: None,
            last_loads: vec![0.0; scenario.num_lc()],
            prev_active: vec![true; scenario.num_batch()],
            last_telemetry: None,
            faults: scenario.faults.clone(),
            breaker: CircuitBreaker::new(),
            last_good: None,
        }
    }

    fn name_for(search: &SearchAlgo) -> String {
        match search {
            SearchAlgo::Dds(_) => "cuttlesys".to_string(),
            SearchAlgo::Ga(_) => "cuttlesys-sgd-ga".to_string(),
        }
    }

    /// Substitutes the search algorithm (used by the Fig. 10 GA ablation).
    pub fn with_search(mut self, search: SearchAlgo) -> CuttleSysManager {
        self.name = Self::name_for(&search);
        self.search = search;
        self
    }

    /// Cores currently held across all latency-critical tenants.
    pub fn lc_cores(&self) -> usize {
        self.lc.iter().map(|a| a.cores).sum()
    }

    /// The predictions of the most recent decision that succeeded
    /// (instrumentation for the Fig. 5(b) runtime-accuracy experiment).
    pub fn last_predictions(&self) -> Option<&Predictions> {
        self.last_good.as_ref().map(|lg| &lg.preds)
    }

    /// Whether the circuit breaker is currently open (safe mode).
    pub fn breaker_open(&self) -> bool {
        self.breaker.is_open()
    }

    /// Times the breaker has (opened, closed) over the run so far.
    pub fn breaker_cycles(&self) -> (usize, usize) {
        (self.breaker.opens, self.breaker.closes)
    }

    /// Grows the manager's bookkeeping by one batch job (runtime
    /// admission), returning the new job's batch index. The new slot starts
    /// inactive and cold; the last plan and the last-good replay plan are
    /// padded with a gated action so a degraded quantum in the admission
    /// slice still emits a full-width plan. (Last-good *predictions* are
    /// deliberately left short: [`safe_mode_plan`] treats a missing batch
    /// prediction as infinite power and gates the job, which is the
    /// conservative answer for a job never yet observed.)
    pub fn admit_batch(&mut self) -> usize {
        let j = self.matrices.admit_batch();
        self.num_batch += 1;
        self.prev_active.push(false);
        if let Some(plan) = self.last_plan.as_mut() {
            plan.batch.push(BatchAction::Gated);
        }
        if let Some(lg) = self.last_good.as_mut() {
            lg.plan.batch.push(BatchAction::Gated);
        }
        j
    }

    /// Runs one full decision quantum, surfacing every stage failure as a
    /// typed error instead of a panic. This is the fallible core that
    /// [`ResourceManager::plan`] wraps with the degradation ladder.
    ///
    /// # Errors
    ///
    /// Returns a [`DecisionError`] when the scenario describes no LC tenant
    /// or any pipeline stage fails ([`crate::faults::StageError`]): no valid
    /// profiling samples after the bounded retry, a diverged reconstruction
    /// with no fresh last-good predictions, or a malformed slice shape.
    pub fn decide(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
        tel: &mut StageTelemetry,
    ) -> Result<(Plan, Predictions), DecisionError> {
        if info.lc.is_empty() {
            return Err(DecisionError::NoTenants);
        }
        if info.lc.len() != self.lc.len() {
            return Err(DecisionError::PlanShape {
                expected: self.lc.len(),
                got: info.lc.len(),
            });
        }
        let faults = self.faults.quantum(info.slice);
        let mut ctx = DecisionCtx {
            info,
            matrices: &mut self.matrices,
            lc: &mut self.lc,
            last_plan: &self.last_plan,
            num_batch: self.num_batch,
            gated_watts: self.gated_watts,
            faults,
            last_good_preds: self.last_good.as_ref().map(|lg| (&lg.preds, lg.age)),
        };
        pipeline::decide(&self.search, &mut self.draws, &mut ctx, probe, tel)
    }

    /// The fallback for a failed quantum: replay the last-good plan while it
    /// is fresh enough (gating batch jobs that have since departed),
    /// otherwise drop into the safe-mode allocation.
    fn fallback_plan(&mut self, info: &SliceInfo, tel: &mut StageTelemetry) -> Plan {
        if !self.breaker.is_open() {
            if let Some(lg) = &self.last_good {
                if lg.age <= STALENESS_BOUND {
                    tel.degradation.replayed_last_good = true;
                    tel.degradation.stale_age = tel.degradation.stale_age.max(lg.age);
                    let mut plan = lg.plan.clone();
                    for (j, action) in plan.batch.iter_mut().enumerate() {
                        if !info.batch_active.get(j).copied().unwrap_or(false) {
                            *action = BatchAction::Gated;
                        }
                    }
                    return plan;
                }
            }
        }
        tel.degradation.safe_mode = true;
        safe_mode_plan(
            info,
            &self.lc,
            self.last_good.as_ref().map(|lg| &lg.preds),
            self.gated_watts,
        )
    }
}

impl ResourceManager for CuttleSysManager {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        self.last_loads = info.lc.iter().map(|l| l.load).collect();
        // Churn: retire the observation rows of batch jobs that departed
        // since the previous quantum, so a later arrival under the same
        // index starts cold instead of inheriting stale ratings.
        for (j, active) in info.batch_active.iter().enumerate() {
            if self.prev_active[j] && !active {
                self.matrices.retire_batch(j);
            }
        }
        self.prev_active = info.batch_active.clone();
        let mut tel = StageTelemetry::default();
        if let Some(lg) = self.last_good.as_mut() {
            lg.age += 1;
        }
        self.breaker.begin_quantum();
        let plan = if self.breaker.is_open() && !self.breaker.should_probe() {
            // Breaker open, no probe due: emit safe mode without even
            // attempting a decision (the failure is assumed to persist until
            // a probe proves otherwise).
            tel.degradation.breaker_open = true;
            tel.degradation.safe_mode = true;
            safe_mode_plan(
                info,
                &self.lc,
                self.last_good.as_ref().map(|lg| &lg.preds),
                self.gated_watts,
            )
        } else {
            if self.breaker.is_open() {
                tel.degradation.breaker_open = true;
                tel.degradation.breaker_probe = true;
            }
            match self.decide(info, probe, &mut tel) {
                Ok((plan, preds)) => {
                    self.breaker.on_success();
                    // A quantum that only succeeded by replaying last-good
                    // predictions must not reset their age, or persistent
                    // reconstruction failures would never hit the staleness
                    // bound.
                    let age = if tel.degradation.reconstruct_fallback {
                        self.last_good.as_ref().map_or(0, |lg| lg.age)
                    } else {
                        0
                    };
                    self.last_good = Some(LastGood {
                        plan: plan.clone(),
                        preds,
                        age,
                    });
                    plan
                }
                Err(e) => {
                    self.breaker.on_failure();
                    tel.degradation.failed_stage = Some(e.stage());
                    self.fallback_plan(info, &mut tel)
                }
            }
        };
        // Keep the core ledger consistent with the plan actually emitted —
        // a replayed or safe-mode plan may differ from what the (failed)
        // pipeline left in the allocations.
        for (a, assignment) in self.lc.iter_mut().zip(&plan.lc) {
            a.cores = assignment.cores;
        }
        self.last_plan = Some(plan.clone());
        self.last_telemetry = Some(tel);
        plan
    }

    fn observe(&mut self, outcome: &SliceOutcome) {
        // Fold steady-state measurements back into the matrices (§IV-B:
        // "measured and updated in the SGD matrix"). LC tenants have no
        // throughput rows — only their power and tails are recorded.
        // Non-finite measurements (a power-telemetry blackout) are skipped:
        // a NaN must never poison a rating matrix.
        let num_lc = outcome.plan.lc.len();
        for (i, assignment) in outcome.plan.lc.iter().enumerate() {
            let cfg = assignment.config.index();
            let watts = outcome.measured_watts[i];
            if watts.is_finite() {
                self.matrices.record_lc_power(i, cfg, watts);
            }
            let tail = outcome.tails_ms[i];
            if tail.is_finite() {
                self.matrices
                    .record_tail(i, self.last_loads[i], assignment.cores, cfg, tail);
            }
        }
        for (j, action) in outcome.plan.batch.iter().enumerate() {
            if let BatchAction::Run(cfg) = action {
                let bips = outcome.measured_bips[num_lc + j];
                let watts = outcome.measured_watts[num_lc + j];
                if bips.is_finite() && bips > 0.0 {
                    self.matrices.record_sample(
                        num_lc + j,
                        cfg.index(),
                        bips,
                        if watts.is_finite() { watts } else { 0.0 },
                    );
                }
            }
        }
    }

    fn take_telemetry(&mut self) -> Option<StageTelemetry> {
        self.last_telemetry.take()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::testbed::run_scenario;
    use crate::types::{BatchJobSpec, JobSpec};
    use baselines::ga::GaParams;
    use workloads::loadgen::LoadPattern;

    fn quick(cap: f64, load: f64) -> Scenario {
        Scenario {
            cap: LoadPattern::Constant(cap),
            duration_slices: 4,
            noise: 0.0,
            phases: false,
            ..Scenario::paper_default()
        }
        .with_load(LoadPattern::Constant(load))
    }

    #[test]
    fn meets_qos_at_moderate_cap() {
        let scenario = quick(0.7, 0.8);
        let mut manager = CuttleSysManager::for_scenario(&scenario);
        let record = run_scenario(&scenario, &mut manager);
        // Allow the cold-start slice to settle; afterwards QoS must hold.
        let late_violations = record
            .slices
            .iter()
            .skip(1)
            .filter(|s| s.qos_violation())
            .count();
        assert_eq!(
            late_violations, 0,
            "QoS violations after warm-up: {record:#?}"
        );
    }

    #[test]
    fn respects_power_cap_after_warmup() {
        let scenario = quick(0.6, 0.8);
        let mut manager = CuttleSysManager::for_scenario(&scenario);
        let record = run_scenario(&scenario, &mut manager);
        let worst_overshoot = record
            .slices
            .iter()
            .skip(1)
            .map(|s| s.chip_watts / s.cap_watts)
            .fold(0.0, f64::max);
        assert!(
            worst_overshoot < 1.10,
            "chip power should track the cap within the soft-penalty band: {worst_overshoot}"
        );
    }

    #[test]
    fn lower_caps_reduce_batch_throughput() {
        let runs: Vec<f64> = [0.9, 0.5]
            .iter()
            .map(|&cap| {
                let scenario = quick(cap, 0.8);
                let mut manager = CuttleSysManager::for_scenario(&scenario);
                run_scenario(&scenario, &mut manager).batch_instructions()
            })
            .collect();
        assert!(
            runs[0] > runs[1],
            "tighter cap must cost throughput: {runs:?}"
        );
    }

    #[test]
    fn low_load_lets_batch_jobs_take_power() {
        let busy = {
            let scenario = quick(0.7, 0.9);
            let mut m = CuttleSysManager::for_scenario(&scenario);
            run_scenario(&scenario, &mut m)
        };
        let quiet = {
            let scenario = quick(0.7, 0.2);
            let mut m = CuttleSysManager::for_scenario(&scenario);
            run_scenario(&scenario, &mut m)
        };
        assert!(
            quiet.batch_instructions() > busy.batch_instructions(),
            "a quiet service should leave more power for batch work"
        );
    }

    #[test]
    fn ga_variant_runs() {
        let scenario = quick(0.7, 0.8);
        let mut manager = CuttleSysManager::for_scenario(&scenario).with_search(SearchAlgo::Ga(
            GaParams::default().with_evaluation_budget(3200),
        ));
        let record = run_scenario(&scenario, &mut manager);
        assert_eq!(record.scheme, "cuttlesys-sgd-ga");
        assert!(record.batch_instructions() > 0.0);
    }

    #[test]
    fn every_slice_carries_stage_telemetry() {
        let scenario = quick(0.7, 0.8);
        let mut manager = CuttleSysManager::for_scenario(&scenario);
        let record = run_scenario(&scenario, &mut manager);
        assert!(record.slices.iter().all(|s| s.telemetry.is_some()));
        let summary = record.stage_summary().expect("telemetry present");
        assert_eq!(summary.decisions, record.slices.len());
        // The paper's 2 × 1 ms sampling cost, measured from the runtime.
        assert!((summary.mean_profile_sim_ms - 2.0).abs() < 1e-9);
        // A constant load meets one tail bucket, in the first quantum; SGD
        // runs there, to learn that bucket's factors, and never again.
        let epochs = |i: usize| record.slices[i].telemetry.as_ref().unwrap().sgd_epochs;
        assert!(epochs(0) > 0, "the first quantum learns its tail bucket");
        assert!((1..record.slices.len()).all(|i| epochs(i) == 0));
        assert!(summary.mean_search_evaluations > 0.0);
        assert!(summary.mean_total_wall_ms() > 0.0);
    }

    #[test]
    fn departing_batch_job_rows_are_retired() {
        let mut scenario = quick(0.7, 0.8);
        // First batch job departs after slice 1.
        for job in scenario.jobs.iter_mut() {
            if let JobSpec::Batch(b) = job {
                *b = BatchJobSpec {
                    depart_slice: Some(2),
                    ..b.clone()
                };
                break;
            }
        }
        let mut manager = CuttleSysManager::for_scenario(&scenario);
        run_scenario(&scenario, &mut manager);
        assert_eq!(
            manager.matrices.batch_observations(0),
            0,
            "departed job's observation rows must be retired"
        );
        assert!(
            manager.matrices.batch_observations(1) > 0,
            "resident jobs keep their observations"
        );
    }

    #[test]
    #[should_panic(expected = "the factor library characterizes another chip")]
    fn a_library_of_another_chip_is_refused() {
        let scenario = quick(0.7, 0.8);
        let other = simulator::SystemParams {
            llc_ways: scenario.params.llc_ways / 2,
            ..scenario.params
        };
        let _ = CuttleSysManager::sharing(&scenario, Arc::new(FactorLibrary::for_chip(other)));
    }
}
