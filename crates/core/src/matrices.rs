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
//! The training rows of a matrix never change, so they are not refitted:
//! SGD learns each matrix's configuration factors from them once
//! ([`recsys::ConfigFactors`]) — throughput and power when the
//! [`FactorLibrary`] is built, tail factors the first time any of its
//! holders meets a load bucket — and [`JobMatrices::reconstruct`] folds
//! every live row into those factors with a closed-form solve over the row's
//! own observations. Nothing a reconstruction computes outlives it, so there
//! is no solver state to invalidate on churn or after a diverged quantum.
//!
//! The factors describe the chip, not a node: they are a pure function of
//! the chip's parameters, the training applications and the load bucket. So
//! one [`FactorLibrary`] per chip, handed out by [`Libraries`], is shared
//! behind an `Arc` by every bookkeeping on that chip (a fleet's nodes, a
//! sweep's runs, the paper record's runs), and whichever holder meets a
//! bucket first learns it for all. Each bookkeeping still counts a bucket's
//! SGD epochs the first time *it* meets the bucket, whoever learned it, so
//! [`JobMatrices::learning_epochs`] does not depend on who else shares the
//! library.
//!
//! Tail latency depends on the offered load, so tail bookkeeping is bucketed
//! by load percent: the library is characterized per bucket (lazily) and
//! live observations land in the bucket of the load they were measured
//! under. Observations are overwritten per configuration — the newest
//! measurement wins, which is how the paper's runtime "updates the
//! reconstruction matrix with the measured metrics" to track phase changes.
//! When a batch job departs (churn), [`JobMatrices::retire_batch`] drops its
//! live observations so a later arrival in the same slot starts cold.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use recsys::{ConfigFactors, SgdConfig, ValueTransform};
use simulator::power::CoreKind;
use simulator::{AppProfile, Chip, SystemParams, NUM_JOB_CONFIGS};
use workloads::batch;
use workloads::latency::{self, LcService};
use workloads::oracle::Oracle;

/// Tail bookkeeping granularity: loads are binned to the nearest percent of
/// 0–200 %, so [`bucket_for`] has this many values — the bound on every
/// per-bucket map. Queueing tails are steep functions of utilization near
/// the knee, so the training rows must be characterized at (almost exactly)
/// the live load — the arrival rate is directly observable, making this
/// free at runtime.
pub const LOAD_BUCKETS: usize = 201;

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
    let top = (LOAD_BUCKETS - 1) as f64;
    (load.clamp(0.0, top / 100.0) * 100.0).round() as usize
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

/// What the offline characterization of one chip teaches about its
/// configurations: the throughput and power factors, learned at
/// construction, and one tail-factor slot per load bucket, learned by
/// whichever holder meets the bucket first. Every entry is a pure function
/// of the chip, the training applications and the bucket, so holders on one
/// chip share one library and no sharing moves a bit.
///
/// Of a tail bucket's training rows only the arrival rate depends on the
/// bucket. So the per-core service rate of every tail-library variant in
/// every configuration (two IPC evaluations each) is computed once, when
/// the library is built, and meeting a bucket costs only its M/M/16 p99s and
/// one fit. [`Oracle::tail_row`] queues the same rates the same way, so the
/// rows are its bits, capped at [`TAIL_CAP_MS`]; and [`recsys::sgd::fit`]
/// performs Alg. 1's per-entry updates in their order, so the factors are
/// the bits of that reference loop too.
pub struct FactorLibrary {
    oracle: Oracle,
    /// The tail-library variants, each with its service rates.
    tail_library: Vec<(LcService, Vec<f64>)>,
    bips: ConfigFactors,
    watts: ConfigFactors,
    /// [`LOAD_BUCKETS`] slots. A holder that meets an empty slot learns it;
    /// a concurrent holder waits for that learn rather than repeating it.
    tail: Vec<OnceLock<ConfigFactors>>,
}

impl FactorLibrary {
    /// Characterizes `training_apps` through `oracle` (the paper's one-time
    /// offline profiling of 16 known applications) and learns their
    /// throughput and power factors.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one-time offline characterization of the training applications (§V)"
    )]
    pub(crate) fn new(oracle: Oracle, training_apps: &[AppProfile]) -> FactorLibrary {
        let training_bips: Vec<_> = training_apps.iter().map(|a| oracle.bips_row(a)).collect();
        let training_watts: Vec<_> = training_apps.iter().map(|a| oracle.power_row(a)).collect();
        FactorLibrary {
            bips: learn_factors(&training_bips),
            watts: learn_factors(&training_watts),
            tail: (0..LOAD_BUCKETS).map(|_| OnceLock::new()).collect(),
            tail_library: tail_library()
                .into_iter()
                .map(|svc| {
                    let rates = oracle.service_rates(&svc);
                    (svc, rates)
                })
                .collect(),
            oracle,
        }
    }

    /// The runtime's library for a reconfigurable chip with `params`,
    /// trained on the 16 offline applications of §V.
    pub fn for_chip(params: SystemParams) -> FactorLibrary {
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        FactorLibrary::new(
            Oracle::new(Chip::new(params, CoreKind::Reconfigurable)),
            &training,
        )
    }

    /// `profile`'s peak per-core draw across all configurations, from the
    /// same offline characterization the power factors train on. Admission
    /// charges it as a tenant's worst case.
    #[allow(
        clippy::disallowed_methods,
        reason = "admission's worst case reads the characterized power row for a candidate the runtime has never profiled, until a truth-free charge replaces it (ROADMAP, What the manager may know, step 2)"
    )]
    pub(crate) fn peak_watts(&self, profile: &AppProfile) -> f64 {
        self.oracle
            .power_row(profile)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// The parameters of the chip the library characterizes.
    pub fn params(&self) -> &SystemParams {
        self.oracle.chip().params()
    }

    /// `bucket`'s tail factors, learned on first use: one SGD fit of the
    /// bucket's [`tail_rows`](FactorLibrary::tail_rows).
    fn tail(&self, bucket: usize) -> &ConfigFactors {
        self.tail[bucket].get_or_init(|| learn_factors(&self.tail_rows(bucket)))
    }

    /// The tail library characterized at `bucket`'s load: each variant's
    /// stored service rates queued on [`TAIL_REFERENCE_CORES`] cores, capped
    /// at [`TAIL_CAP_MS`].
    #[allow(
        clippy::disallowed_methods,
        reason = "the offline characterization of the tail library at one load bucket (§V)"
    )]
    fn tail_rows(&self, bucket: usize) -> Vec<Vec<f64>> {
        let load = bucket_load(bucket);
        self.tail_library
            .iter()
            .map(|(svc, rates)| {
                let mut row = Oracle::tail_row_at_rates(svc, rates, TAIL_REFERENCE_CORES, load);
                for t in &mut row {
                    *t = t.min(TAIL_CAP_MS);
                }
                row
            })
            .collect()
    }
}

/// One [`FactorLibrary`] per distinct [`SystemParams`], each learned the
/// first time a holder asks for it. A run over a library taken from here
/// is bit-identical to one over a fresh library (see the module doc), so a
/// set of runs on few chips — the paper record, a sweep, a fleet — learns
/// each chip's factors once. Lookups take `&self`, so a pool's workers can
/// share one; a holder asking for a chip being learned waits for that learn
/// rather than repeating it.
#[derive(Default)]
pub struct Libraries(Mutex<Vec<Arc<FactorLibrary>>>);

impl Libraries {
    /// The library of the chip with `params`, learned on first request.
    pub fn get(&self, params: &SystemParams) -> Arc<FactorLibrary> {
        // A panic while learning leaves no library behind, so a poisoned
        // lock still guards a consistent list.
        let mut known = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(library) = known.iter().find(|l| l.params() == params) {
            return Arc::clone(library);
        }
        let library = Arc::new(FactorLibrary::for_chip(*params));
        known.push(Arc::clone(&library));
        library
    }

    /// How many libraries have been learned: one per distinct chip asked for.
    pub fn learned(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// The rating-matrix bookkeeping for `num_lc` LC tenants and `num_batch`
/// batch jobs.
pub struct JobMatrices {
    num_lc: usize,
    num_batch: usize,
    library: Arc<FactorLibrary>,
    /// Per load bucket, whether this bookkeeping has met it (and so counted
    /// its epochs).
    met: Vec<bool>,
    // Observation maps are BTreeMaps, not HashMaps: every one of them is
    // iterated on the decision path (the row solves, the monotone tail
    // closure), and a float sum's order must be a function of the
    // observations alone — never of a hasher's per-process seed.
    batch_bips_obs: Vec<BTreeMap<usize, f64>>,
    batch_watts_obs: Vec<BTreeMap<usize, f64>>,
    lc_watts_obs: Vec<BTreeMap<usize, f64>>,
    /// Per tenant, per load bucket (at most [`LOAD_BUCKETS`]).
    tail_obs: Vec<BTreeMap<usize, BTreeMap<usize, f64>>>,
    learning_epochs: usize,
}

/// Epoch budget of a factor-learning SGD run. It was the runtime's
/// per-quantum budget when every quantum refitted; it now bounds set-up and
/// the first visit to a tail bucket, and is kept at the value the pinned
/// behaviour was tuned under (the reference joint solver keeps the library's
/// 200; EXPERIMENTS.md records both on the ledger — a wash in accuracy).
const LEARNING_EPOCHS: usize = 60;

/// Learns one matrix's configuration factors from its dense rows, in ln
/// space. The configuration is fixed here, not passed per call, so stored
/// factors can never disagree with a caller's.
fn learn_factors(rows: &[Vec<f64>]) -> ConfigFactors {
    let config = SgdConfig {
        max_iters: LEARNING_EPOCHS,
        ..SgdConfig::default()
    };
    ConfigFactors::learn(rows, ValueTransform::Log, &config)
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
    /// batch jobs over a library of its own, with training rows
    /// characterized offline through `oracle` (the paper's one-time offline
    /// profiling of 16 known applications).
    pub fn new(
        oracle: Oracle,
        training_apps: &[AppProfile],
        num_lc: usize,
        num_batch: usize,
    ) -> JobMatrices {
        JobMatrices::sharing(
            Arc::new(FactorLibrary::new(oracle, training_apps)),
            num_lc,
            num_batch,
        )
    }

    /// Creates the bookkeeping over a shared `library` (e.g. one from
    /// [`Libraries`]); its predictions are bit-identical to those over a
    /// library of its own.
    pub fn sharing(library: Arc<FactorLibrary>, num_lc: usize, num_batch: usize) -> JobMatrices {
        assert!(num_lc > 0, "at least one LC tenant");
        JobMatrices {
            num_lc,
            num_batch,
            learning_epochs: library.bips.epochs + library.watts.epochs,
            library,
            met: vec![false; LOAD_BUCKETS],
            batch_bips_obs: vec![BTreeMap::new(); num_batch],
            batch_watts_obs: vec![BTreeMap::new(); num_batch],
            lc_watts_obs: vec![BTreeMap::new(); num_lc],
            tail_obs: vec![BTreeMap::new(); num_lc],
        }
    }

    /// SGD epochs run so far to learn configuration factors: the throughput
    /// and power factors at construction, plus each tail bucket met since.
    /// A reconstruction that meets no new bucket leaves it unchanged. A
    /// bucket counts the first time this bookkeeping meets it, whether this
    /// bookkeeping or another holder of the library learned it.
    pub fn learning_epochs(&self) -> usize {
        self.learning_epochs
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
    }

    /// Grows the matrices by one cold batch row (runtime admission),
    /// returning the new job's batch index.
    pub fn admit_batch(&mut self) -> usize {
        let j = self.num_batch;
        self.num_batch += 1;
        self.batch_bips_obs.push(BTreeMap::new());
        self.batch_watts_obs.push(BTreeMap::new());
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
                (bucket + distance).min(LOAD_BUCKETS - 1),
            ] {
                if let Some(obs) = self.tail_obs[lc].get(&b) {
                    merged.extend(obs.iter().map(|(&c, &t)| (c, t)));
                }
            }
        }
        merged
    }

    /// Meets `bucket`: has the library learn its tail factors unless some
    /// holder already has, and counts their epochs the first time this
    /// bookkeeping meets the bucket.
    fn meet_tail_bucket(&mut self, bucket: usize) {
        if !self.met[bucket] {
            self.met[bucket] = true;
            self.learning_epochs += self.library.tail(bucket).epochs;
        }
    }

    /// Returns dense predictions for the live jobs: every batch job's
    /// throughput and power row, every LC tenant's power row, and every
    /// tenant's tail row at that tenant's load (`loads[lc]`), each folded
    /// into its matrix's configuration factors from the row's own
    /// observations. Observed entries pass through exactly.
    pub fn reconstruct(&mut self, loads: &[f64]) -> Predictions {
        assert_eq!(loads.len(), self.num_lc, "one load per LC tenant");
        let buckets: Vec<usize> = loads.iter().map(|&l| bucket_for(l)).collect();
        for &bucket in &buckets {
            self.meet_tail_bucket(bucket);
        }

        let library = &*self.library;
        let fold = |factors: &ConfigFactors, obs: &[BTreeMap<usize, f64>]| -> Vec<Vec<f64>> {
            obs.iter().map(|o| factors.fold_in(o)).collect()
        };
        let batch_bips = fold(&library.bips, &self.batch_bips_obs);
        let batch_watts = fold(&library.watts, &self.batch_watts_obs);
        let lc_watts = fold(&library.watts, &self.lc_watts_obs);

        let dominates = |a: simulator::JobConfig, b: simulator::JobConfig| {
            a.core.fe >= b.core.fe
                && a.core.be >= b.core.be
                && a.core.ls >= b.core.ls
                && a.cache >= b.cache
        };
        let unobserved = BTreeMap::new();
        let lc_preds = lc_watts
            .into_iter()
            .zip(&buckets)
            .enumerate()
            .map(|(lc, (watts, bucket))| {
                let obs = self.tail_obs[lc].get(bucket).unwrap_or(&unobserved);
                let tail = library.tail(*bucket).fold_in(obs);

                // Monotone closure over (neighbour-merged) direct
                // observations: tail latency is monotone in every resource
                // dimension, so an observation at X lower-bounds every
                // configuration X dominates and upper-bounds every
                // configuration dominating X. Upper bounds are applied last
                // — direct evidence of safety trumps interpolation.
                let obs = self.tail_observations_near(lc, *bucket);
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

        Predictions {
            batch_bips,
            batch_watts,
            lc: lc_preds,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests score the factors and reconstructions against the truth they learn from"
)]
mod tests {
    use super::*;
    use simulator::power::CoreKind;
    use simulator::{Chip, JobConfig, SystemParams};
    use workloads::batch;

    fn oracle() -> Oracle {
        Oracle::new(Chip::new(SystemParams::default(), CoreKind::Reconfigurable))
    }

    fn matrices() -> JobMatrices {
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        JobMatrices::new(oracle(), &training, 1, 4)
    }

    fn matrices_two_lc() -> JobMatrices {
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        JobMatrices::new(oracle(), &training, 2, 4)
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
        for step in 0..=1000 {
            assert!(bucket_for(step as f64 * 0.01) < LOAD_BUCKETS);
        }
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
    fn library_bucket_rows_are_the_oracle_tail_rows_to_the_bit() {
        let oracle = oracle();
        let library = FactorLibrary::for_chip(SystemParams::default());
        let variants = tail_library();
        let (mut idle, mut capped) = (0, 0);
        for bucket in 0..LOAD_BUCKETS {
            let rows = library.tail_rows(bucket);
            assert_eq!(rows.len(), variants.len());
            for (svc, row) in variants.iter().zip(&rows) {
                let expected: Vec<u64> = oracle
                    .tail_row(svc, TAIL_REFERENCE_CORES, bucket_load(bucket))
                    .into_iter()
                    .map(|t| t.min(TAIL_CAP_MS).to_bits())
                    .collect();
                let got: Vec<u64> = row.iter().map(|t| t.to_bits()).collect();
                assert_eq!(got, expected, "{} at bucket {bucket}", svc.name);
                if bucket == 0 {
                    idle += row.len();
                }
                capped += row.iter().filter(|&&t| t == TAIL_CAP_MS).count();
            }
        }
        // Bucket 0 (no arrivals) and capped, saturated cells are covered.
        assert_eq!(idle, variants.len() * NUM_JOB_CONFIGS);
        assert!(capped > 0, "no saturated, capped cell was compared");
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
        let preds = m.reconstruct(&[0.8]);
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
        let p_low = m.reconstruct(&[0.2]);
        let p_high = m.reconstruct(&[0.85]);
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
        let preds = m.reconstruct(&[0.8]);
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
        let preds = m.reconstruct(&[0.5]);
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
        let preds = m.reconstruct(&[0.8]);
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
        let preds = m.reconstruct(&[0.8]);
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
        let preds = m.reconstruct(&[0.8, 0.8]);
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
        let preds = m.reconstruct(&[0.2, 0.9]);
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
        let preds = m.reconstruct(&[0.8]);
        // Without live observations the row interpolates from training data
        // only — the exact observed value must no longer pass through.
        assert!((preds.batch_bips[0][5] - 2.5).abs() > 1e-9);
    }

    fn mean_rel_err(pred: &[f64], truth: &[f64]) -> f64 {
        let sum: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t).abs() / t).sum();
        sum / truth.len() as f64
    }

    /// The reference solver's answer for one live row: the paper's joint fit
    /// over `training` plus the row, re-run from scratch.
    fn joint_fit_row(training: &[Vec<f64>], live: &BTreeMap<usize, f64>) -> Vec<f64> {
        let mut m = recsys::RatingMatrix::new(training.len() + 1, NUM_JOB_CONFIGS);
        for (r, row) in training.iter().enumerate() {
            m.fill_row(r, row);
        }
        for (&c, &v) in live {
            m.set(training.len(), c, v);
        }
        let dense = recsys::Reconstructor::default().complete(&m, ValueTransform::Log);
        dense.row(training.len()).to_vec()
    }

    #[test]
    fn fold_in_is_no_worse_than_the_joint_fit_on_every_held_out_application() {
        let oracle = oracle();
        let training = batch::training_set();
        let train_b: Vec<_> = training
            .iter()
            .map(|t| oracle.bips_row(&t.profile))
            .collect();
        let train_w: Vec<_> = training
            .iter()
            .map(|t| oracle.power_row(&t.profile))
            .collect();
        for app in batch::testing_set() {
            let (b, w) = (
                oracle.bips_row(&app.profile),
                oracle.power_row(&app.profile),
            );
            let mut m = matrices();
            let (mut obs_b, mut obs_w) = (BTreeMap::new(), BTreeMap::new());
            for c in [JobConfig::profiling_high(), JobConfig::profiling_low()] {
                m.record_sample(1, c.index(), b[c.index()], w[c.index()]);
                obs_b.insert(c.index(), b[c.index()]);
                obs_w.insert(c.index(), w[c.index()]);
            }
            let preds = m.reconstruct(&[0.8]);
            for (metric, truth, fold, joint) in [
                (
                    "throughput",
                    &b,
                    &preds.batch_bips[0],
                    joint_fit_row(&train_b, &obs_b),
                ),
                (
                    "power",
                    &w,
                    &preds.batch_watts[0],
                    joint_fit_row(&train_w, &obs_w),
                ),
            ] {
                let (fold, joint) = (mean_rel_err(fold, truth), mean_rel_err(&joint, truth));
                assert!(
                    fold <= joint + 0.005,
                    "{} {metric}: fold-in mean relative error {fold:.4} vs joint fit {joint:.4}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn fold_in_is_no_worse_than_the_joint_fit_on_a_tail_row() {
        let oracle = oracle();
        let svc = latency::service_by_name("xapian").unwrap();
        let seen = JobConfig::profiling_high().index();
        for load in [0.2, 0.85] {
            let capped = |row: Vec<f64>| row.into_iter().map(|t| t.min(TAIL_CAP_MS)).collect();
            let truth: Vec<f64> = capped(oracle.tail_row(&svc, TAIL_REFERENCE_CORES, load));
            let library: Vec<Vec<f64>> = tail_library()
                .iter()
                .map(|lib| capped(oracle.tail_row(lib, TAIL_REFERENCE_CORES, load)))
                .collect();
            let mut m = matrices();
            m.record_tail(0, load, TAIL_REFERENCE_CORES, seen, truth[seen]);
            let fold = mean_rel_err(&m.reconstruct(&[load]).lc[0].tail, &truth);
            let joint = mean_rel_err(
                &joint_fit_row(&library, &BTreeMap::from([(seen, truth[seen])])),
                &truth,
            );
            assert!(
                fold <= joint + 0.005,
                "load {load}: fold-in mean relative tail error {fold:.4} vs joint fit {joint:.4}"
            );
        }
    }

    #[test]
    fn a_slot_reused_after_churn_predicts_what_a_fresh_bookkeeping_predicts() {
        let oracle = oracle();
        let [old, new] = [0, 1].map(|i| batch::testing_set()[i].profile);
        let sample = |m: &mut JobMatrices, app: &AppProfile| {
            let (b, w) = (oracle.bips_row(app), oracle.power_row(app));
            for c in [JobConfig::profiling_high(), JobConfig::profiling_low()] {
                m.record_sample(1, c.index(), b[c.index()], w[c.index()]);
            }
        };
        let mut used = matrices();
        sample(&mut used, &old);
        used.record_sample(3, 40, 1.7, 2.9);
        let _ = used.reconstruct(&[0.8]);
        used.retire_batch(0);
        sample(&mut used, &new);
        let reused = used.reconstruct(&[0.8]);

        let mut fresh = matrices();
        sample(&mut fresh, &new);
        let first = fresh.reconstruct(&[0.8]);
        // Nothing of the departed job, of the other rows, or of the earlier
        // reconstruction reaches the row: there is no state to invalidate.
        assert_eq!(reused.batch_bips[0], first.batch_bips[0]);
        assert_eq!(reused.batch_watts[0], first.batch_watts[0]);

        // Admission grows the matrices without moving any existing row.
        let j = used.admit_batch();
        let grown = used.reconstruct(&[0.8]);
        assert_eq!(grown.batch_bips[..j], reused.batch_bips[..]);
        assert_eq!(grown.batch_watts[..j], reused.batch_watts[..]);
        assert_eq!(grown.lc[0].tail, reused.lc[0].tail);
        assert_eq!(grown.lc[0].watts, reused.lc[0].watts);
    }

    #[test]
    fn sgd_runs_only_to_learn_a_tail_bucket_met_for_the_first_time() {
        let mut m = matrices();
        let at_setup = m.learning_epochs();
        assert!(at_setup > 0, "throughput and power factors are learned");
        let _ = m.reconstruct(&[0.8]);
        let first_visit = m.learning_epochs();
        assert!(first_visit > at_setup);
        m.record_sample(1, 5, 2.5, 3.5);
        m.record_tail(0, 0.8, TAIL_REFERENCE_CORES, 7, 4.2);
        let _ = m.reconstruct(&[0.8]);
        let _ = m.reconstruct(&[0.802]);
        assert_eq!(m.learning_epochs(), first_visit, "same bucket, no SGD");
        let _ = m.reconstruct(&[0.5]);
        assert!(m.learning_epochs() > first_visit, "a new bucket is learned");
    }

    #[test]
    fn a_bucket_learned_by_another_holder_counts_and_predicts_as_if_learned_here() {
        let training: Vec<AppProfile> = batch::training_set().iter().map(|b| b.profile).collect();
        let library = Arc::new(FactorLibrary::new(oracle(), &training));
        let mut first = JobMatrices::sharing(Arc::clone(&library), 1, 4);
        let at_setup = first.learning_epochs();
        let _ = first.reconstruct(&[0.8]);
        let learned = first.learning_epochs() - at_setup;
        assert!(learned > 0, "the first holder learns bucket 80");

        let mut second = JobMatrices::sharing(library, 1, 4);
        let mut private = matrices();
        for m in [&mut second, &mut private] {
            m.record_sample(1, 5, 2.5, 3.5);
            m.record_sample(3, 40, 1.7, 2.9);
            m.record_lc_power(0, 9, 3.1);
            m.record_tail(0, 0.8, TAIL_REFERENCE_CORES, 7, 4.2);
        }
        assert_eq!(second.learning_epochs(), at_setup);
        let shared = second.reconstruct(&[0.8]);
        assert_eq!(
            second.learning_epochs() - at_setup,
            learned,
            "a bucket met here for the first time counts, whoever learned it"
        );
        let own = private.reconstruct(&[0.8]);
        assert_eq!(private.learning_epochs(), second.learning_epochs());

        let bits = |rows: &[&Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let all = |p: &Predictions| {
            let mut rows: Vec<&Vec<f64>> = p.batch_bips.iter().chain(&p.batch_watts).collect();
            for lc in &p.lc {
                rows.extend([&lc.watts, &lc.tail, &lc.tail_guarded]);
            }
            bits(&rows)
        };
        assert_eq!(all(&shared), all(&own));
    }

    #[test]
    fn libraries_learn_one_library_per_chip() {
        let libraries = Libraries::default();
        let params = SystemParams::default();
        let first = libraries.get(&params);
        assert!(Arc::ptr_eq(&first, &libraries.get(&params)));
        let other = SystemParams {
            reconfig_transition_us: params.reconfig_transition_us + 1.0,
            ..params
        };
        let second = libraries.get(&other);
        assert_eq!(second.params(), &other);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(libraries.learned(), 2);
    }
}
