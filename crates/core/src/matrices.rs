//! The Resource Controller's rating-matrix bookkeeping (§V).
//!
//! Matrices are maintained per metric:
//!
//! * **throughput** — rows are the 16 offline-characterized training
//!   applications plus the live batch jobs;
//! * **power** — the same rows plus one row per latency-critical tenant;
//! * **tail latency** — one matrix per LC tenant: a library of
//!   offline-characterized *latency-critical* behaviours plus that tenant's
//!   live row, at the tenant's own load bucket.
//!
//! Tail latency depends on the offered load, so tail bookkeeping is bucketed
//! by load decile: training rows are characterized per bucket (lazily) and
//! live observations land in the bucket of the load they were measured
//! under. Observations are overwritten per configuration — the newest
//! measurement wins, which is how the paper's runtime "updates the
//! reconstruction matrix with the measured metrics" to track phase changes.
//! When a batch job departs (churn), [`JobMatrices::retire_batch`] drops its
//! live observations so a later arrival in the same slot starts cold.

use std::collections::{BTreeMap, HashMap};

use recsys::{
    RatingMatrix, Reconstructor, SessionInput, SgdModel, ValueTransform, WarmStartConfig,
};
use simulator::{AppProfile, NUM_JOB_CONFIGS};
use util::WorkerPool;
use workloads::latency::{self, LcService};
use workloads::oracle::Oracle;

/// Tail bookkeeping granularity: loads are binned to the nearest percent.
/// Queueing tails are steep functions of utilization near the knee, so the
/// training rows must be characterized at (almost exactly) the live load —
/// the arrival rate is directly observable, making this free at runtime.
pub const LOAD_BUCKETS: usize = 101;

/// Reference LC core count the tail training library is characterized at.
pub const TAIL_REFERENCE_CORES: usize = 16;

/// Ceiling applied to every tail-latency entry, in milliseconds.
///
/// A p99 cannot be measured beyond the 100 ms monitoring window, so both
/// the offline library rows and the online observations saturate here. This
/// also keeps the log-space matrix within ~2 decades instead of the 5 the
/// raw overload sentinels would span — all the scheduler needs from a
/// saturated entry is "QoS is violated" (§VIII-B).
pub const TAIL_CAP_MS: f64 = 100.0;

/// Maps a load fraction to its bucket (nearest percent; overload up to
/// 200 % gets its own buckets so saturated predictions stay saturated).
pub fn bucket_for(load: f64) -> usize {
    (load.clamp(0.0, 2.0) * 100.0).round() as usize
}

/// Load a bucket's training rows are characterized at.
pub fn bucket_load(bucket: usize) -> f64 {
    bucket as f64 / 100.0
}

/// The load a [`TAIL_REFERENCE_CORES`]-core deployment would need to match
/// the per-core utilization of a `cores`-core tenant at `load`.
///
/// The tail library is characterized on the reference core count across the
/// whole load axis, and queueing tails are a function of utilization — so a
/// tenant holding fewer (or relocated, more) cores is looked up and recorded
/// at this equivalent load instead of linearly rescaling tail magnitudes,
/// which badly underestimates the nonlinearity across large core gaps. At
/// the reference count the factor is exactly 1.0, leaving the paper's
/// single-tenant path bit-identical.
pub fn effective_load(load: f64, cores: usize) -> f64 {
    assert!(cores > 0, "effective load needs at least one core");
    load * (TAIL_REFERENCE_CORES as f64 / cores as f64)
}

/// Completed predictions for one LC tenant.
#[derive(Debug, Clone)]
pub struct LcPrediction {
    /// Predicted per-core power of the tenant per configuration.
    pub watts: Vec<f64>,
    /// Predicted 99th-percentile latency per configuration, at the
    /// tenant's requested load bucket.
    pub tail: Vec<f64>,
    /// Tail prediction tightened by the monotone closure of direct
    /// observations: an observed violation at X rules out everything X
    /// dominates, an observed-safe X certifies everything dominating X.
    /// The QoS scan uses this column.
    pub tail_guarded: Vec<f64>,
}

impl LcPrediction {
    /// Rescales the tail predictions for a relocation step from
    /// `from_cores` to `to_cores`.
    ///
    /// Predictions are reconstructed at the [`effective_load`] of the cores
    /// a tenant held when the quantum began; a relocation shifts the
    /// per-core load by `from_cores / to_cores`, and for the single-core
    /// steps relocation takes, the fluid approximation — tail scales with
    /// the per-core load ratio — is adequate. Power rows are per-core and
    /// unaffected.
    pub fn rescaled_step(&self, from_cores: usize, to_cores: usize) -> LcPrediction {
        assert!(to_cores > 0, "cannot rescale tails to zero cores");
        let mut scaled = self.clone();
        let ratio = from_cores as f64 / to_cores as f64;
        for t in scaled.tail.iter_mut().chain(scaled.tail_guarded.iter_mut()) {
            *t *= ratio;
        }
        scaled
    }
}

/// Completed predictions for one decision interval.
#[derive(Debug, Clone)]
pub struct Predictions {
    /// `batch_bips[j][c]`: predicted per-core BIPS of batch job `j` at
    /// configuration `c`.
    pub batch_bips: Vec<Vec<f64>>,
    /// `batch_watts[j][c]`: predicted per-core power of batch job `j`.
    pub batch_watts: Vec<Vec<f64>>,
    /// Per-LC-tenant predictions, in priority order.
    pub lc: Vec<LcPrediction>,
}

impl Predictions {
    /// The primary LC tenant's predictions.
    // Documented panic: predictions always cover at least one LC tenant.
    #[allow(clippy::expect_used)]
    pub fn primary_lc(&self) -> &LcPrediction {
        self.lc.first().expect("predictions cover an LC tenant")
    }
}

/// The rating-matrix bookkeeping for `num_lc` LC tenants and `num_batch`
/// batch jobs.
pub struct JobMatrices {
    num_lc: usize,
    num_batch: usize,
    training_bips: Vec<Vec<f64>>,
    training_watts: Vec<Vec<f64>>,
    // Observation maps are BTreeMaps, not HashMaps: every one of them is
    // iterated on the decision path (matrix assembly, the monotone tail
    // closure), and the SGD training-sample order must be a function of the
    // observations alone — never of a hasher's per-process seed.
    tail_training: BTreeMap<usize, Vec<Vec<f64>>>,
    tail_library: Vec<LcService>,
    oracle: Oracle,
    batch_bips_obs: Vec<BTreeMap<usize, f64>>,
    batch_watts_obs: Vec<BTreeMap<usize, f64>>,
    lc_watts_obs: Vec<BTreeMap<usize, f64>>,
    tail_obs: Vec<BTreeMap<usize, BTreeMap<usize, f64>>>,
    generation: u64,
}

/// Builds the tail training library: perturbed variants of every TailBench
/// service. The variants — not the services themselves — are the
/// "previously seen applications": scaling ILP and the cache working set
/// moves both the service-rate level and the shape of the configuration
/// response, so the live service is similar to, but never identical to, a
/// training row.
fn tail_library() -> Vec<LcService> {
    let mut lib = Vec::new();
    for svc in latency::services() {
        for (ilp_scale, ws_scale, qps_scale) in [
            (0.80, 1.30, 0.85),
            (0.90, 1.12, 0.94),
            (1.08, 0.90, 1.05),
            (1.18, 0.72, 1.12),
        ] {
            let mut p = svc.profile;
            p.ilp = (p.ilp * ilp_scale).clamp(0.2, 6.0);
            p.llc_working_set_ways = (p.llc_working_set_ways * ws_scale).clamp(0.1, 16.0);
            p.fe_sensitivity = (p.fe_sensitivity * ws_scale).clamp(0.0, 1.0);
            lib.push(LcService {
                name: svc.name,
                profile: p,
                max_qps: svc.max_qps * qps_scale,
                qos_ms: svc.qos_ms,
            });
        }
    }
    lib
}

impl JobMatrices {
    /// Creates the bookkeeping for `num_lc` LC tenants and `num_batch` live
    /// batch jobs, with training rows characterized offline through
    /// `oracle` (the paper's one-time offline profiling of 16 known
    /// applications).
    pub fn new(
        oracle: Oracle,
        training_apps: &[AppProfile],
        num_lc: usize,
        num_batch: usize,
    ) -> JobMatrices {
        assert!(num_lc > 0, "at least one LC tenant");
        let training_bips = training_apps.iter().map(|a| oracle.bips_row(a)).collect();
        let training_watts = training_apps.iter().map(|a| oracle.power_row(a)).collect();
        JobMatrices {
            num_lc,
            num_batch,
            training_bips,
            training_watts,
            tail_training: BTreeMap::new(),
            tail_library: tail_library(),
            oracle,
            batch_bips_obs: vec![BTreeMap::new(); num_batch],
            batch_watts_obs: vec![BTreeMap::new(); num_batch],
            lc_watts_obs: vec![BTreeMap::new(); num_lc],
            tail_obs: vec![BTreeMap::new(); num_lc],
            generation: 0,
        }
    }

    /// The churn generation: bumped whenever a batch row is retired, so
    /// warm solver state trained on the old row set cannot be reused.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of LC tenants tracked.
    pub fn num_lc(&self) -> usize {
        self.num_lc
    }

    /// Records a measured `(bips, watts)` sample for a job at a
    /// configuration. Global job indices: `0..num_lc` are the LC tenants
    /// (only their power is matrixed — their "performance" metric is tail
    /// latency); `num_lc..num_lc + num_batch` are batch jobs.
    pub fn record_sample(&mut self, job: usize, config_idx: usize, bips: f64, watts: f64) {
        assert!(config_idx < NUM_JOB_CONFIGS, "config index out of range");
        if job < self.num_lc {
            self.record_lc_power(job, config_idx, watts);
            return;
        }
        let j = job - self.num_lc;
        assert!(j < self.num_batch, "unknown batch job {job}");
        if bips > 0.0 {
            self.batch_bips_obs[j].insert(config_idx, bips);
        }
        if watts > 0.0 {
            self.batch_watts_obs[j].insert(config_idx, watts);
        }
    }

    /// Records LC tenant `lc`'s measured per-core power at a configuration.
    ///
    /// A tenant has no throughput row — its performance metric is tail
    /// latency ([`record_tail`]) — so this is the only steady-state sample
    /// an LC tenant contributes to the rating matrices.
    ///
    /// [`record_tail`]: JobMatrices::record_tail
    pub fn record_lc_power(&mut self, lc: usize, config_idx: usize, watts: f64) {
        assert!(config_idx < NUM_JOB_CONFIGS, "config index out of range");
        if watts > 0.0 {
            self.lc_watts_obs[lc].insert(config_idx, watts);
        }
    }

    /// Records LC tenant `lc`'s measured tail latency at a configuration
    /// under `load`, observed while the tenant held `cores` cores.
    ///
    /// Observations land at the [`effective_load`] bucket: a `cores`-core
    /// tenant at load `ρ` runs at the same utilization as the
    /// [`TAIL_REFERENCE_CORES`]-core characterization at `ρ × 16 / cores`,
    /// so its measured tail is directly comparable to — and stored
    /// alongside — the reference rows of that bucket. Magnitudes are kept
    /// raw; queueing tails are far too nonlinear in utilization for a
    /// linear core-ratio rescale to be safe across large core gaps.
    pub fn record_tail(
        &mut self,
        lc: usize,
        load: f64,
        cores: usize,
        config_idx: usize,
        tail_ms: f64,
    ) {
        assert!(config_idx < NUM_JOB_CONFIGS, "config index out of range");
        if tail_ms > 0.0 {
            self.tail_obs[lc]
                .entry(bucket_for(effective_load(load, cores)))
                .or_default()
                .insert(config_idx, tail_ms.min(TAIL_CAP_MS));
        }
    }

    /// Number of live observations for batch job `j`'s throughput row.
    pub fn batch_observations(&self, j: usize) -> usize {
        self.batch_bips_obs[j].len()
    }

    /// Drops every live observation of batch job `j` — called when the job
    /// departs, so the slot starts cold if a new job arrives in it.
    pub fn retire_batch(&mut self, j: usize) {
        self.batch_bips_obs[j].clear();
        self.batch_watts_obs[j].clear();
        self.generation += 1;
    }

    /// Grows the matrices by one cold batch row (runtime admission),
    /// returning the new job's batch index. The generation moves: warm
    /// solver state sized for the old row set cannot be reused.
    pub fn admit_batch(&mut self) -> usize {
        let j = self.num_batch;
        self.num_batch += 1;
        self.batch_bips_obs.push(BTreeMap::new());
        self.batch_watts_obs.push(BTreeMap::new());
        self.generation += 1;
        j
    }

    /// Observations usable at `bucket` for tenant `lc`: direct observations
    /// merged with neighbours within ±2 % load (nearer buckets win).
    /// Queueing tails move smoothly over a couple of load percent, and
    /// input load drifts gradually in practice, so neighbouring evidence
    /// prevents a cold start at every bucket boundary.
    pub fn tail_observations_near(&self, lc: usize, bucket: usize) -> BTreeMap<usize, f64> {
        let mut merged = BTreeMap::new();
        for distance in (0..=2).rev() {
            for b in [
                bucket.saturating_sub(distance),
                (bucket + distance).min(200),
            ] {
                if let Some(obs) = self.tail_obs[lc].get(&b) {
                    merged.extend(obs.iter().map(|(&c, &t)| (c, t)));
                }
            }
        }
        merged
    }

    fn tail_training_rows(&mut self, bucket: usize) -> &Vec<Vec<f64>> {
        let oracle = self.oracle;
        let library = &self.tail_library;
        self.tail_training.entry(bucket).or_insert_with(|| {
            let load = bucket_load(bucket);
            library
                .iter()
                .map(|svc| {
                    oracle
                        .tail_row(svc, TAIL_REFERENCE_CORES, load)
                        .into_iter()
                        .map(|t| t.min(TAIL_CAP_MS))
                        .collect()
                })
                .collect()
        })
    }

    /// Runs the reconstructions on the calling thread (§V runs them in
    /// parallel: that is `reconstruct_session` with a pool) and returns
    /// dense predictions for the live jobs: one throughput and one power
    /// completion, plus a tail completion per LC tenant at that tenant's
    /// load (`loads[lc]`).
    pub fn reconstruct(&mut self, reconstructor: &Reconstructor, loads: &[f64]) -> Predictions {
        self.reconstruct_session(reconstructor, loads, None, None)
            .predictions
    }

    /// [`JobMatrices::reconstruct`] with session state: the per-matrix
    /// fan-out (and any parallel SGD) runs on `pool` when one is given, and
    /// `warm` carries fitted models between quanta so each completion can
    /// refine the previous factors instead of cold-starting.
    ///
    /// Warm state self-invalidates when the matrices' churn
    /// [`generation`](JobMatrices::generation) has moved (a batch row was
    /// retired), and each completion independently falls back to a cold fit
    /// on any shape mismatch. With `pool = None` and `warm = None` this is
    /// bit-identical to [`JobMatrices::reconstruct`].
    pub fn reconstruct_session(
        &mut self,
        reconstructor: &Reconstructor,
        loads: &[f64],
        pool: Option<&WorkerPool>,
        warm: Option<(&WarmStartConfig, &mut WarmState)>,
    ) -> ReconstructOutcome {
        assert_eq!(loads.len(), self.num_lc, "one load per LC tenant");
        let cols = NUM_JOB_CONFIGS;
        let buckets: Vec<usize> = loads.iter().map(|&l| bucket_for(l)).collect();

        // Throughput matrix: training rows then live batch rows.
        let t_rows = self.training_bips.len();
        let mut bips_m = RatingMatrix::new(t_rows + self.num_batch, cols);
        for (r, row) in self.training_bips.iter().enumerate() {
            bips_m.fill_row(r, row);
        }
        for (j, obs) in self.batch_bips_obs.iter().enumerate() {
            for (&c, &v) in obs {
                bips_m.set(t_rows + j, c, v);
            }
        }

        // Power matrix: training rows, live batch rows, then one row per
        // LC tenant in priority order.
        let mut watts_m = RatingMatrix::new(t_rows + self.num_batch + self.num_lc, cols);
        for (r, row) in self.training_watts.iter().enumerate() {
            watts_m.fill_row(r, row);
        }
        for (j, obs) in self.batch_watts_obs.iter().enumerate() {
            for (&c, &v) in obs {
                watts_m.set(t_rows + j, c, v);
            }
        }
        for (lc, obs) in self.lc_watts_obs.iter().enumerate() {
            for (&c, &v) in obs {
                watts_m.set(t_rows + self.num_batch + lc, c, v);
            }
        }

        // One tail matrix per tenant at that tenant's bucket: library rows
        // then the tenant's live row.
        let lib_row_sets: Vec<Vec<Vec<f64>>> = buckets
            .iter()
            .map(|&b| self.tail_training_rows(b).clone())
            .collect();
        let tail_ms: Vec<RatingMatrix> = lib_row_sets
            .iter()
            .zip(&buckets)
            .enumerate()
            .map(|(lc, (lib_rows, &bucket))| {
                let mut tail_m = RatingMatrix::new(lib_rows.len() + 1, cols);
                for (r, row) in lib_rows.iter().enumerate() {
                    tail_m.fill_row(r, row);
                }
                if let Some(obs) = self.tail_obs[lc].get(&bucket) {
                    for (&c, &v) in obs {
                        tail_m.set(lib_rows.len(), c, v);
                    }
                }
                tail_m
            })
            .collect();

        // Take the priors *out* of the warm state: the completions borrow
        // them immutably while the state waits to receive the new models.
        let (warm_cfg, mut state) = match warm {
            Some((cfg, s)) => {
                if s.generation != self.generation {
                    s.clear();
                    s.generation = self.generation;
                }
                (Some(cfg), Some(s))
            }
            None => (None, None),
        };
        let prior_bips = state.as_mut().and_then(|s| s.bips.take());
        let prior_watts = state.as_mut().and_then(|s| s.watts.take());
        let prior_tails: Vec<Option<SgdModel>> = buckets
            .iter()
            .enumerate()
            .map(|(lc, &b)| state.as_mut().and_then(|s| s.tails.remove(&(lc, b))))
            .collect();

        fn pair<'a>(
            warm_cfg: Option<&'a WarmStartConfig>,
            prior: &'a Option<SgdModel>,
        ) -> Option<(&'a WarmStartConfig, &'a SgdModel)> {
            warm_cfg.and_then(|cfg| prior.as_ref().map(|m| (cfg, m)))
        }
        let mut inputs: Vec<SessionInput<'_>> = vec![
            SessionInput {
                matrix: &bips_m,
                transform: ValueTransform::Log,
                warm: pair(warm_cfg, &prior_bips),
            },
            SessionInput {
                matrix: &watts_m,
                transform: ValueTransform::Log,
                warm: pair(warm_cfg, &prior_watts),
            },
        ];
        for (tail_m, prior) in tail_ms.iter().zip(&prior_tails) {
            inputs.push(SessionInput {
                matrix: tail_m,
                transform: ValueTransform::Log,
                warm: pair(warm_cfg, prior),
            });
        }
        let completed = reconstructor.complete_all_session(pool, &inputs);
        drop(inputs);
        let warm_solves = completed.iter().filter(|c| c.warm_started).count();
        let warm_epochs = completed
            .iter()
            .filter(|c| c.warm_started)
            .map(|c| c.model.epochs)
            .sum();
        if let Some(s) = state {
            s.bips = Some(completed[0].model.clone());
            s.watts = Some(completed[1].model.clone());
            for (lc, &b) in buckets.iter().enumerate() {
                s.tails.insert((lc, b), completed[2 + lc].model.clone());
            }
        }
        let (bips_d, watts_d) = (&completed[0].dense, &completed[1].dense);

        let batch_bips = (0..self.num_batch)
            .map(|j| (0..cols).map(|c| bips_d.get(t_rows + j, c)).collect())
            .collect();
        let batch_watts = (0..self.num_batch)
            .map(|j| (0..cols).map(|c| watts_d.get(t_rows + j, c)).collect())
            .collect();

        let dominates = |a: simulator::JobConfig, b: simulator::JobConfig| {
            a.core.fe >= b.core.fe
                && a.core.be >= b.core.be
                && a.core.ls >= b.core.ls
                && a.cache >= b.cache
        };
        let lc_preds = (0..self.num_lc)
            .map(|lc| {
                let tail_d = &completed[2 + lc].dense;
                let live_row = lib_row_sets[lc].len();
                let watts = (0..cols)
                    .map(|c| watts_d.get(t_rows + self.num_batch + lc, c))
                    .collect();
                let tail: Vec<f64> = (0..cols).map(|c| tail_d.get(live_row, c)).collect();

                // Monotone closure over (neighbour-merged) direct
                // observations: tail latency is monotone in every resource
                // dimension, so an observation at X lower-bounds every
                // configuration X dominates and upper-bounds every
                // configuration dominating X. Upper bounds are applied last
                // — direct evidence of safety trumps interpolation.
                let obs = self.tail_observations_near(lc, buckets[lc]);
                let mut tail_guarded = tail.clone();
                for (&x, &t) in &obs {
                    let xc = simulator::JobConfig::from_index(x);
                    for (c, g) in tail_guarded.iter_mut().enumerate() {
                        let cc = simulator::JobConfig::from_index(c);
                        if c != x && dominates(xc, cc) {
                            *g = g.max(t);
                        }
                    }
                }
                for (&x, &t) in &obs {
                    let xc = simulator::JobConfig::from_index(x);
                    for (c, g) in tail_guarded.iter_mut().enumerate() {
                        let cc = simulator::JobConfig::from_index(c);
                        if c != x && dominates(cc, xc) {
                            *g = g.min(t);
                        }
                    }
                }
                LcPrediction {
                    watts,
                    tail,
                    tail_guarded,
                }
            })
            .collect();

        ReconstructOutcome {
            predictions: Predictions {
                batch_bips,
                batch_watts,
                lc: lc_preds,
            },
            warm_solves,
            warm_epochs,
        }
    }
}

/// Warm solver state carried between quanta by the reconstruct stage.
///
/// One slot each for the throughput and power completions; tail completions
/// are keyed `(tenant, load bucket)` because a bucket change swaps the
/// training rows under the model (the handful of per-bucket models this
/// accumulates is tiny — rank-2 factors over ~21 rows). The state remembers
/// the churn [`JobMatrices::generation`] it was trained at and
/// self-invalidates wholesale when any batch row has been retired since — a
/// deliberate simplification: churn is rare and a spurious cold start only
/// costs one quantum of solver budget.
#[derive(Debug, Default)]
pub struct WarmState {
    generation: u64,
    bips: Option<SgdModel>,
    watts: Option<SgdModel>,
    // lint:allow(DET-HASH-ITER, reason = "keyed lookup/insert/remove only; the map is never iterated, so hasher order cannot reach the SGD sample stream or any decision")
    tails: HashMap<(usize, usize), SgdModel>,
}

impl WarmState {
    /// Discards every stored model; the next quantum cold-starts.
    pub fn clear(&mut self) {
        self.bips = None;
        self.watts = None;
        self.tails.clear();
    }

    /// Whether no model is currently stored.
    pub fn is_empty(&self) -> bool {
        self.bips.is_none() && self.watts.is_none() && self.tails.is_empty()
    }
}

/// What a session reconstruction did, beyond the predictions themselves.
pub struct ReconstructOutcome {
    /// The completed predictions (identical role to what
    /// [`JobMatrices::reconstruct`] returns).
    pub predictions: Predictions,
    /// Completions this quantum that warm-started from a prior model.
    pub warm_solves: usize,
    /// SGD epochs actually run by the warm-started completions.
    pub warm_epochs: usize,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use simulator::power::CoreKind;
    use simulator::{Chip, JobConfig, SystemParams};
    use workloads::batch;

    fn matrices() -> JobMatrices {
        let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        JobMatrices::new(oracle, &training, 1, 4)
    }

    fn matrices_two_lc() -> JobMatrices {
        let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        JobMatrices::new(oracle, &training, 2, 4)
    }

    #[test]
    fn bucketing_covers_the_unit_interval() {
        assert_eq!(bucket_for(0.0), 0);
        assert_eq!(bucket_for(0.004), 0);
        assert_eq!(bucket_for(0.85), 85);
        assert_eq!(bucket_for(0.852), 85);
        assert_eq!(bucket_for(1.0), 100);
        assert_eq!(bucket_for(2.0), 200);
        assert_eq!(bucket_for(5.0), 200);
        assert!((bucket_load(85) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn tail_library_is_diverse_and_valid() {
        let lib = tail_library();
        assert_eq!(lib.len(), 20);
        for svc in &lib {
            svc.profile.validate().unwrap();
        }
        // Variants must not duplicate the original services.
        for orig in latency::services() {
            assert!(lib.iter().all(|v| v.profile != orig.profile));
        }
    }

    #[test]
    fn predictions_recover_unobserved_configs_for_batch_jobs() {
        let mut m = matrices();
        let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
        let app = batch::testing_set()[0].profile;
        let truth = oracle.bips_row(&app);
        let truth_w = oracle.power_row(&app);
        // Two profiling samples, as at runtime.
        for cfg in [
            JobConfig::profiling_high().index(),
            JobConfig::profiling_low().index(),
        ] {
            m.record_sample(1, cfg, truth[cfg], truth_w[cfg]);
        }
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8]);
        let rel_sum: f64 = preds.batch_bips[0]
            .iter()
            .zip(&truth)
            .map(|(p, t)| (p - t).abs() / t)
            .sum();
        let mean_rel = rel_sum / NUM_JOB_CONFIGS as f64;
        assert!(mean_rel < 0.15, "mean relative throughput error {mean_rel}");
    }

    #[test]
    fn tail_predictions_use_the_right_bucket() {
        let mut m = matrices();
        let p_low = m.reconstruct(&Reconstructor::default(), &[0.2]);
        let p_high = m.reconstruct(&Reconstructor::default(), &[0.85]);
        let idx = JobConfig::profiling_low().index();
        assert!(
            p_high.lc[0].tail[idx] > p_low.lc[0].tail[idx],
            "high-load bucket must predict worse tails at the narrow config"
        );
    }

    #[test]
    fn observed_entries_pass_through() {
        let mut m = matrices();
        m.record_sample(1, 5, 2.5, 3.5);
        m.record_tail(0, 0.8, TAIL_REFERENCE_CORES, 7, 4.2);
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8]);
        assert!((preds.batch_bips[0][5] - 2.5).abs() < 1e-12);
        assert!((preds.batch_watts[0][5] - 3.5).abs() < 1e-12);
        assert!((preds.lc[0].tail[7] - 4.2).abs() < 1e-12);
    }

    #[test]
    fn newest_measurement_wins() {
        let mut m = matrices();
        m.record_sample(2, 9, 1.0, 1.0);
        m.record_sample(2, 9, 2.0, 2.0);
        assert_eq!(m.batch_observations(1), 1);
        let preds = m.reconstruct(&Reconstructor::default(), &[0.5]);
        assert!((preds.batch_bips[1][9] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lc_power_row_learns_from_observations() {
        let mut m = matrices();
        let oracle = Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable));
        let svc = latency::service_by_name("moses").unwrap();
        let truth = oracle.power_row(&svc.profile);
        for cfg in [
            JobConfig::profiling_high().index(),
            JobConfig::profiling_low().index(),
        ] {
            m.record_sample(0, cfg, 0.0, truth[cfg]);
        }
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8]);
        let rel_sum: f64 = preds.lc[0]
            .watts
            .iter()
            .zip(&truth)
            .map(|(p, t)| (p - t).abs() / t)
            .sum();
        let mean_rel = rel_sum / NUM_JOB_CONFIGS as f64;
        assert!(mean_rel < 0.2, "mean relative LC power error {mean_rel}");
    }

    #[test]
    #[should_panic(expected = "config index out of range")]
    fn out_of_range_config_rejected() {
        let mut m = matrices();
        m.record_sample(1, 108, 1.0, 1.0);
    }

    #[test]
    fn zero_valued_samples_are_dropped() {
        let mut m = matrices();
        // A gated or unmeasured sample must not poison any matrix row.
        m.record_sample(1, 5, 0.0, 0.0);
        m.record_lc_power(0, 5, 0.0);
        assert_eq!(m.batch_observations(0), 0);
        assert!(m.lc_watts_obs[0].is_empty());
    }

    #[test]
    fn rescaling_applies_the_fluid_core_ratio() {
        let mut m = matrices();
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8]);
        let idx = JobConfig::profiling_high().index();
        // Halving the cores doubles the per-core load ratio and hence the
        // predicted tail; power rows are per-core and fixed.
        let halved = preds.lc[0].rescaled_step(TAIL_REFERENCE_CORES, TAIL_REFERENCE_CORES / 2);
        assert!((halved.tail[idx] - 2.0 * preds.lc[0].tail[idx]).abs() < 1e-12);
        assert!((halved.tail_guarded[idx] - 2.0 * preds.lc[0].tail_guarded[idx]).abs() < 1e-12);
        assert_eq!(halved.watts, preds.lc[0].watts);
        // A step that goes nowhere is the exact identity.
        let same = preds.lc[0].rescaled_step(TAIL_REFERENCE_CORES, TAIL_REFERENCE_CORES);
        assert_eq!(same.tail[idx].to_bits(), preds.lc[0].tail[idx].to_bits());
    }

    #[test]
    fn effective_load_maps_core_deficit_to_the_reference_axis() {
        // 8 cores at 40% load queue like the 16-core reference at 80%.
        assert!((effective_load(0.4, 8) - 0.8).abs() < 1e-15);
        // At the reference count the mapping is the exact identity.
        assert_eq!(effective_load(0.8, 16).to_bits(), 0.8_f64.to_bits());
    }

    #[test]
    fn observations_land_at_the_effective_load_bucket() {
        let mut m = matrices();
        // An 8-core tenant at 40% load runs at the utilization of the
        // reference characterization at 80% — its observation must guard
        // predictions made for that bucket, with the raw magnitude.
        m.record_tail(0, 0.4, 8, 7, 4.2);
        let obs = m.tail_observations_near(0, bucket_for(0.8));
        assert!((obs[&7] - 4.2).abs() < 1e-12);
        assert!(m.tail_observations_near(0, bucket_for(0.4)).is_empty());
    }

    #[test]
    fn two_tenants_keep_separate_tail_and_power_rows() {
        let mut m = matrices_two_lc();
        m.record_tail(0, 0.8, TAIL_REFERENCE_CORES, 7, 4.2);
        m.record_tail(1, 0.8, TAIL_REFERENCE_CORES, 7, 9.9);
        m.record_lc_power(0, 5, 3.0);
        m.record_lc_power(1, 5, 6.0);
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8, 0.8]);
        assert_eq!(preds.lc.len(), 2);
        assert!((preds.lc[0].tail[7] - 4.2).abs() < 1e-12);
        assert!((preds.lc[1].tail[7] - 9.9).abs() < 1e-12);
        assert!((preds.lc[0].watts[5] - 3.0).abs() < 1e-12);
        assert!((preds.lc[1].watts[5] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tenants_reconstruct_at_their_own_loads() {
        let mut m = matrices_two_lc();
        let idx = JobConfig::profiling_low().index();
        let preds = m.reconstruct(&Reconstructor::default(), &[0.2, 0.9]);
        assert!(
            preds.lc[1].tail[idx] > preds.lc[0].tail[idx],
            "the loaded tenant must see worse narrow-config tails"
        );
    }

    #[test]
    fn retired_batch_rows_start_cold() {
        let mut m = matrices();
        m.record_sample(1, 5, 2.5, 3.5);
        assert_eq!(m.batch_observations(0), 1);
        m.retire_batch(0);
        assert_eq!(m.batch_observations(0), 0);
        let preds = m.reconstruct(&Reconstructor::default(), &[0.8]);
        // Without live observations the row interpolates from training data
        // only — the exact observed value must no longer pass through.
        assert!((preds.batch_bips[0][5] - 2.5).abs() > 1e-9);
    }

    #[test]
    fn session_reconstruct_without_state_matches_plain_reconstruct() {
        let mut a = matrices();
        let mut b = matrices();
        a.record_sample(1, 5, 2.5, 3.5);
        b.record_sample(1, 5, 2.5, 3.5);
        let plain = a.reconstruct(&Reconstructor::default(), &[0.8]);
        let pool = WorkerPool::new(2);
        let session = b.reconstruct_session(&Reconstructor::default(), &[0.8], Some(&pool), None);
        assert_eq!(session.warm_solves, 0);
        assert_eq!(plain.batch_bips, session.predictions.batch_bips);
        assert_eq!(plain.lc[0].tail, session.predictions.lc[0].tail);
    }

    #[test]
    fn warm_state_is_used_and_survives_between_quanta() {
        let mut m = matrices();
        m.record_sample(1, 5, 2.5, 3.5);
        let warm_cfg = WarmStartConfig::default();
        let mut state = WarmState::default();
        let first = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.8],
            None,
            Some((&warm_cfg, &mut state)),
        );
        // Nothing to start from in quantum one; models are now stored.
        assert_eq!(first.warm_solves, 0);
        assert!(!state.is_empty());
        let second = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.8],
            None,
            Some((&warm_cfg, &mut state)),
        );
        // Same shapes, same buckets: all three completions warm-start.
        assert_eq!(second.warm_solves, 3);
        assert!(second.warm_epochs <= 3 * warm_cfg.max_epochs);
    }

    #[test]
    fn churn_generation_invalidates_warm_state() {
        let mut m = matrices();
        m.record_sample(1, 5, 2.5, 3.5);
        let warm_cfg = WarmStartConfig::default();
        let mut state = WarmState::default();
        let _ = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.8],
            None,
            Some((&warm_cfg, &mut state)),
        );
        assert!(!state.is_empty());
        m.retire_batch(0);
        let after = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.8],
            None,
            Some((&warm_cfg, &mut state)),
        );
        // The generation moved: every completion must have cold-started.
        assert_eq!(after.warm_solves, 0);
    }

    #[test]
    fn a_bucket_change_cold_starts_only_the_tail_completion() {
        let mut m = matrices();
        m.record_sample(1, 5, 2.5, 3.5);
        let warm_cfg = WarmStartConfig::default();
        let mut state = WarmState::default();
        let _ = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.8],
            None,
            Some((&warm_cfg, &mut state)),
        );
        let moved = m.reconstruct_session(
            &Reconstructor::default(),
            &[0.5],
            None,
            Some((&warm_cfg, &mut state)),
        );
        // Throughput and power warm-start; the 0.5-load tail bucket is new.
        assert_eq!(moved.warm_solves, 2);
    }
}
