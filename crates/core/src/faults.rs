//! Seeded fault injection and the graceful-degradation policy.
//!
//! CuttleSys only works when every 100 ms quantum completes: two profiling
//! frames land, three SGD reconstructions converge, the reconfiguration
//! commands take effect, and the power telemetry reads back. Production
//! schedulers cannot assume any of that, so this module provides both sides
//! of the robustness story:
//!
//! * **Injection** — a [`FaultPlan`] describes, as per-quantum
//!   probabilities, which failures a run suffers: dropped or corrupted
//!   profiling samples (noise, bias, NaN), diverged reconstructions, failed
//!   reconfiguration commands (the core stays in its previous shape), and
//!   power-telemetry blackouts. The plan answers its own draws
//!   *deterministically* ([`FaultPlan::quantum`],
//!   [`FaultPlan::corrupt_profile`]): every decision is a pure
//!   function of `(plan seed, quantum, sample)` via the counter-based
//!   streams in [`simulator::fault`], so a fault run is exactly as
//!   reproducible as a clean one and never perturbs the simulation's own
//!   RNG.
//! * **Degradation** — [`StageError`]/[`DecisionError`] type the ways a
//!   decision quantum can fail, constants bound the responses (the sample
//!   and prediction sanity ceilings [`MAX_BIPS`], [`MAX_WATTS`] and
//!   [`MAX_TAIL_MS`], and the prediction [`STALENESS_BOUND`]), and
//!   [`CircuitBreaker`] drops the manager into a safe-mode allocation
//!   after consecutive failed quanta, probing its way back. The ladder is
//!   strictly ordered: retry the sample, fall back to the last-good
//!   decision, and only then give up into safe mode.
//!
//! Every rung the manager descends is recorded in
//! [`crate::telemetry::DegradationEvents`] so tests and benches can assert
//! that no fallback went unreported.

use simulator::fault::{unit, Corruption, FaultStream};
use simulator::{CacheAlloc, CoreConfig, JobConfig};

use crate::accounting::narrowest_then_gate;
use crate::matrices::Predictions;
use crate::pipeline::LcAllocation;
use crate::types::{BatchAction, LcAssignment, Plan, ProfileSample, SliceInfo};

/// A seeded, declarative description of the faults a run suffers.
///
/// All rates are per-event probabilities in `[0, 1]`; the `window` (when
/// present) restricts injection to a half-open slice range, which is how
/// tests model a mid-run blackout. The default plan is [`FaultPlan::none`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault streams — independent of the scenario seed.
    pub seed: u64,
    /// Probability that a profiling sample is dropped outright.
    pub sample_drop: f64,
    /// Probability that a surviving profiling sample is corrupted.
    pub sample_corrupt: f64,
    /// Relative sigma of the multiplicative noise corruption.
    pub corrupt_sigma: f64,
    /// Relative offset of the bias corruption (a miscalibrated sensor).
    pub corrupt_bias: f64,
    /// Fraction of corruptions that return NaN instead of a plausible value.
    pub corrupt_nan: f64,
    /// Per-quantum probability that the reconstruction diverges to NaN.
    pub reconstruct_diverge: f64,
    /// Per-quantum probability that the reconfiguration command fails and
    /// every core keeps its previous configuration.
    pub reconfig_fail: f64,
    /// Per-quantum probability that power telemetry blacks out (NaN).
    pub power_blackout: f64,
    /// Optional half-open `[start, end)` slice window outside which no
    /// fault fires.
    pub window: Option<(usize, usize)>,
}

impl FaultPlan {
    /// The fault-free plan: nothing ever fires, and every draw is a
    /// guaranteed no-op (bit-identical behaviour to a build without fault
    /// hooks).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            sample_drop: 0.0,
            sample_corrupt: 0.0,
            corrupt_sigma: 0.0,
            corrupt_bias: 0.0,
            corrupt_nan: 0.0,
            reconstruct_diverge: 0.0,
            reconfig_fail: 0.0,
            power_blackout: 0.0,
            window: None,
        }
    }

    /// The default lossy-sensor profile: samples vanish or come back wrong,
    /// and power telemetry occasionally blacks out, but compute never fails.
    pub fn lossy_sensors(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            sample_drop: 0.15,
            sample_corrupt: 0.15,
            corrupt_sigma: 0.5,
            corrupt_bias: 0.3,
            corrupt_nan: 0.3,
            power_blackout: 0.1,
            ..FaultPlan::none()
        }
    }

    /// The flaky-reconfiguration profile: commands fail, reconstructions
    /// diverge, but the sensors are honest.
    pub fn flaky_reconfig(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            reconfig_fail: 0.25,
            reconstruct_diverge: 0.15,
            ..FaultPlan::none()
        }
    }

    /// The names [`named`](Self::named) resolves, sorted.
    pub const NAMES: &[&str] = &["clean", "flaky-reconfig", "lossy-sensors"];

    /// Looks up a named profile (one of [`NAMES`](Self::NAMES)) — the
    /// vocabulary `cargo paper fault-matrix`, the sweep specs and the
    /// `control_plane` example share. Returns `None` for any other name.
    pub fn named(name: &str, seed: u64) -> Option<FaultPlan> {
        match name {
            "clean" => Some(FaultPlan::none()),
            "lossy-sensors" => Some(FaultPlan::lossy_sensors(seed)),
            "flaky-reconfig" => Some(FaultPlan::flaky_reconfig(seed)),
            _ => None,
        }
    }

    /// Restricts the plan to the half-open slice window `[start, end)`.
    #[must_use]
    pub fn with_window(mut self, start: usize, end: usize) -> FaultPlan {
        self.window = Some((start, end));
        self
    }

    /// Whether no fault can ever fire under this plan.
    pub fn is_clean(&self) -> bool {
        self.sample_drop == 0.0
            && self.sample_corrupt == 0.0
            && self.reconstruct_diverge == 0.0
            && self.reconfig_fail == 0.0
            && self.power_blackout == 0.0
    }

    /// Whether the plan is live at `slice` (inside the window, if any).
    pub fn active_at(&self, slice: usize) -> bool {
        !self.is_clean()
            && self
                .window
                .is_none_or(|(start, end)| (start..end).contains(&slice))
    }

    /// The compute-side faults of quantum `slice` — a pure function of the
    /// plan seed and the slice index.
    pub fn quantum(&self, slice: usize) -> QuantumFaults {
        if !self.active_at(slice) {
            return QuantumFaults::NONE;
        }
        let s = slice as u64;
        QuantumFaults {
            // The reconstruct stream's counters start at `1 << 40`; moving
            // them would change every divergence draw a pinned run saw.
            reconstruct_diverge: self.reconstruct_diverge > 0.0
                && unit(self.seed, FaultStream::Reconstruct, s.wrapping_add(1 << 40))
                    < self.reconstruct_diverge,
            reconfig_fail: self.reconfig_fail > 0.0
                && unit(self.seed, FaultStream::Reconfig, s) < self.reconfig_fail,
            power_blackout: self.power_blackout > 0.0
                && unit(self.seed, FaultStream::Power, s) < self.power_blackout,
        }
    }

    /// Drops and corrupts the samples of one profiling frame in place,
    /// deterministically in `(slice, frame, sample index)`. Returns
    /// `(dropped, corrupted)` counts.
    pub fn corrupt_profile(
        &self,
        slice: usize,
        frame: u64,
        sample: &mut ProfileSample,
    ) -> (usize, usize) {
        if !self.active_at(slice) || (self.sample_drop == 0.0 && self.sample_corrupt == 0.0) {
            return (0, 0);
        }
        let mut dropped = 0;
        let mut corrupted = 0;
        let mut k = 0u64;
        sample.samples.retain_mut(|s| {
            let index = ((slice as u64) << 24) ^ (frame << 16) ^ k;
            k += 1;
            let u = unit(self.seed, FaultStream::Sample, index);
            if u < self.sample_drop {
                dropped += 1;
                return false;
            }
            if u < self.sample_drop + self.sample_corrupt {
                let kind = self.corruption_kind(index);
                s.bips = kind.apply(s.bips, self.seed, index.wrapping_mul(3) + 1);
                s.watts = kind.apply(s.watts, self.seed, index.wrapping_mul(3) + 2);
                corrupted += 1;
            }
            true
        });
        (dropped, corrupted)
    }

    /// Which corruption a corrupted sample at `index` suffers.
    fn corruption_kind(&self, index: u64) -> Corruption {
        let v = unit(self.seed, FaultStream::Corruption, index.wrapping_mul(3));
        if v < self.corrupt_nan {
            Corruption::Nan
        } else if v < self.corrupt_nan + (1.0 - self.corrupt_nan) / 2.0 {
            Corruption::Noise {
                sigma: self.corrupt_sigma,
            }
        } else {
            Corruption::Bias {
                bias: self.corrupt_bias,
            }
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// The compute-side faults of one decision quantum, fixed before the
/// quantum starts. Environment-side faults (sample corruption, blackout,
/// reconfiguration failure) are applied by the testbed from the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantumFaults {
    /// Whether this quantum's reconstruction diverges to NaN.
    pub reconstruct_diverge: bool,
    /// Whether this quantum's reconfiguration command fails.
    pub reconfig_fail: bool,
    /// Whether power telemetry is blacked out this quantum.
    pub power_blackout: bool,
}

impl QuantumFaults {
    /// The fault-free quantum.
    pub const NONE: QuantumFaults = QuantumFaults {
        reconstruct_diverge: false,
        reconfig_fail: false,
        power_blackout: false,
    };
}

/// Counts of the environment faults that actually fired in one slice, for
/// the run record (so a degraded decision can be traced to its cause).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InjectedFaults {
    /// Profiling samples dropped before the manager saw them.
    pub samples_dropped: usize,
    /// Profiling samples corrupted (noise, bias, or NaN).
    pub samples_corrupted: usize,
    /// Whether power telemetry was blacked out this slice.
    pub power_blackout: bool,
    /// Whether the reconfiguration command failed this slice.
    pub reconfig_failed: bool,
}

impl InjectedFaults {
    /// Whether any fault fired.
    pub fn any(&self) -> bool {
        self.samples_dropped > 0
            || self.samples_corrupted > 0
            || self.power_blackout
            || self.reconfig_failed
    }
}

/// A failure of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StageError {
    /// Every profiling sample of the quantum was rejected, even after the
    /// bounded retry.
    NoValidSamples {
        /// Samples rejected by validation this quantum.
        rejected: usize,
    },
    /// Reconstruction produced non-finite or out-of-physical-range values
    /// and no last-good predictions were available to fall back to.
    ReconstructionDiverged {
        /// Offending prediction entries.
        bad_values: usize,
    },
    /// Reconstruction failed and the last-good predictions were older than
    /// the staleness bound.
    PredictionsStale {
        /// Quanta since the predictions were produced.
        age: usize,
        /// The bound, [`STALENESS_BOUND`].
        bound: usize,
    },
    /// The slice info did not describe an LC tenant the pipeline needed.
    MissingTenant {
        /// Index of the missing tenant.
        tenant: usize,
    },
}

impl StageError {
    /// The pipeline stage the error is attributed to (one of
    /// [`crate::telemetry::STAGE_NAMES`]).
    pub fn stage(&self) -> &'static str {
        match self {
            StageError::NoValidSamples { .. } => "profile",
            StageError::ReconstructionDiverged { .. } | StageError::PredictionsStale { .. } => {
                "reconstruct"
            }
            StageError::MissingTenant { .. } => "qos",
        }
    }
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::NoValidSamples { rejected } => {
                write!(f, "no valid profiling samples ({rejected} rejected)")
            }
            StageError::ReconstructionDiverged { bad_values } => {
                write!(f, "reconstruction diverged ({bad_values} bad values)")
            }
            StageError::PredictionsStale { age, bound } => {
                write!(
                    f,
                    "last-good predictions too stale (age {age} > bound {bound})"
                )
            }
            StageError::MissingTenant { tenant } => {
                write!(f, "slice info missing LC tenant {tenant}")
            }
        }
    }
}

impl std::error::Error for StageError {}

/// A failure of one decision quantum, as surfaced by
/// [`crate::runtime::CuttleSysManager::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionError {
    /// A pipeline stage failed.
    Stage(StageError),
    /// The scenario describes no LC tenant where one is required.
    NoTenants,
    /// A plan or context had the wrong shape for the current slice.
    PlanShape {
        /// Entries expected.
        expected: usize,
        /// Entries found.
        got: usize,
    },
}

impl DecisionError {
    /// The pipeline stage the failure is attributed to.
    pub fn stage(&self) -> &'static str {
        match self {
            DecisionError::Stage(e) => e.stage(),
            DecisionError::NoTenants | DecisionError::PlanShape { .. } => "qos",
        }
    }
}

impl From<StageError> for DecisionError {
    fn from(e: StageError) -> DecisionError {
        DecisionError::Stage(e)
    }
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionError::Stage(e) => write!(f, "stage failed: {e}"),
            DecisionError::NoTenants => write!(f, "scenario has no LC tenant"),
            DecisionError::PlanShape { expected, got } => {
                write!(f, "plan shape mismatch (expected {expected}, got {got})")
            }
        }
    }
}

impl std::error::Error for DecisionError {}

/// Maximum age (in quanta) at which last-good predictions or plans may still
/// substitute for a failed quantum.
pub const STALENESS_BOUND: usize = 5;
/// Consecutive failed quanta before the circuit breaker opens.
pub const BREAKER_OPEN_AFTER: usize = 3;
/// While open, the breaker probes a full decision every this many quanta.
pub const BREAKER_PROBE_INTERVAL: usize = 4;
/// Successful probes required to close the breaker again.
pub const BREAKER_CLOSE_AFTER: usize = 2;
/// Physical sanity ceiling for a per-core throughput sample (BIPS).
pub const MAX_BIPS: f64 = 1e3;
/// Physical sanity ceiling for a per-core power sample (W).
pub const MAX_WATTS: f64 = 1e3;
/// Physical sanity ceiling for a predicted tail latency (ms).
pub const MAX_TAIL_MS: f64 = 1e4;

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Normal operation.
    Closed,
    /// Safe mode; probing a full decision periodically.
    Open,
}

/// Trips into safe mode after consecutive failed quanta and probes its way
/// back to full operation.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: usize,
    quanta_open: usize,
    probe_successes: usize,
    /// Times the breaker has opened over the run.
    pub opens: usize,
    /// Times the breaker has closed again after probing recovery.
    pub closes: usize,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            quanta_open: 0,
            probe_successes: 0,
            opens: 0,
            closes: 0,
        }
    }

    /// Whether the breaker is open (safe mode).
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Advances the breaker's clock at the start of a quantum.
    pub fn begin_quantum(&mut self) {
        if self.state == BreakerState::Open {
            self.quanta_open += 1;
        }
    }

    /// Whether an open breaker should probe a full decision this quantum.
    pub fn should_probe(&self) -> bool {
        self.state == BreakerState::Open && self.quanta_open.is_multiple_of(BREAKER_PROBE_INTERVAL)
    }

    /// Records a successful decision (normal or probe).
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::Open => {
                self.probe_successes += 1;
                if self.probe_successes >= BREAKER_CLOSE_AFTER {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.quanta_open = 0;
                    self.probe_successes = 0;
                    self.closes += 1;
                }
            }
        }
    }

    /// Records a failed decision (normal or probe).
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_OPEN_AFTER {
                    self.state = BreakerState::Open;
                    self.quanta_open = 0;
                    self.probe_successes = 0;
                    self.opens += 1;
                }
            }
            BreakerState::Open => self.probe_successes = 0,
        }
    }
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new()
    }
}

/// The safe-mode allocation: every LC tenant at its current core count and
/// the widest configuration (QoS first), every batch job gated or — when
/// last-good predictions allow power accounting — at the narrowest
/// configuration with descending-power gating against the cap. This is a
/// core-gating-style plan: maximally conservative, always cap-respecting.
pub fn safe_mode_plan(
    info: &SliceInfo,
    lc: &[LcAllocation],
    preds: Option<&Predictions>,
    gated_watts: f64,
) -> Plan {
    let widest = JobConfig::new(CoreConfig::widest(), CacheAlloc::Four);
    let lc_assignments: Vec<LcAssignment> = lc
        .iter()
        .map(|a| LcAssignment {
            cores: a.cores,
            config: widest,
        })
        .collect();
    let mut batch = vec![BatchAction::Gated; info.num_batch];
    if let Some(preds) = preds {
        let lowest = JobConfig::profiling_low().index();
        let active: Vec<usize> = (0..info.num_batch)
            .filter(|&j| info.batch_active.get(j).copied().unwrap_or(true))
            .collect();
        let lc_watts: f64 = lc_assignments
            .iter()
            .zip(&preds.lc)
            .map(|(a, p)| {
                let w = p.watts.get(widest.index()).copied().unwrap_or(0.0);
                if w.is_finite() {
                    a.cores as f64 * w
                } else {
                    0.0
                }
            })
            .sum();
        let narrowest_watts: Vec<f64> = active
            .iter()
            .map(|&j| {
                let w = preds
                    .batch_watts
                    .get(j)
                    .and_then(|row| row.get(lowest))
                    .copied()
                    .unwrap_or(f64::INFINITY);
                if w.is_finite() {
                    w
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        batch = narrowest_then_gate(
            info.num_batch,
            &active,
            &narrowest_watts,
            lc_watts,
            info.cap_watts,
            gated_watts,
        );
    }
    Plan {
        lc: lc_assignments,
        batch,
    }
}

/// Counts non-finite or out-of-physical-range entries in a prediction set —
/// the reconstruction sanity gate (NaN / row-divergence check).
pub fn prediction_defects(preds: &Predictions) -> usize {
    let bad_rate = |v: f64, max: f64| !v.is_finite() || v < 0.0 || v > max;
    let mut bad = 0;
    for row in preds.batch_bips.iter() {
        bad += row.iter().filter(|&&v| bad_rate(v, MAX_BIPS)).count();
    }
    for row in preds.batch_watts.iter() {
        bad += row.iter().filter(|&&v| bad_rate(v, MAX_WATTS)).count();
    }
    for lc in preds.lc.iter() {
        bad += lc.watts.iter().filter(|&&v| bad_rate(v, MAX_WATTS)).count();
        bad += lc
            .tail
            .iter()
            .chain(lc.tail_guarded.iter())
            .filter(|&&v| bad_rate(v, MAX_TAIL_MS))
            .count();
    }
    bad
}

/// Poisons a prediction set with NaN, modelling a diverged SGD solve. The
/// sanity gate downstream is expected to catch exactly this.
pub fn poison_predictions(preds: &mut Predictions) {
    for row in preds
        .batch_bips
        .iter_mut()
        .chain(preds.batch_watts.iter_mut())
    {
        row.fill(f64::NAN);
    }
    for lc in preds.lc.iter_mut() {
        lc.watts.fill(f64::NAN);
        lc.tail.fill(f64::NAN);
        lc.tail_guarded.fill(f64::NAN);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::matrices::LcPrediction;
    use crate::types::{LcSliceInfo, SamplePoint};
    use simulator::NUM_JOB_CONFIGS;

    fn lossy() -> FaultPlan {
        FaultPlan::lossy_sensors(7)
    }

    #[test]
    fn named_profiles_cover_the_catalog() {
        // The sweep lists them in its errors in this order.
        assert!(FaultPlan::NAMES.windows(2).all(|w| w[0] < w[1]), "sorted");
        for name in FaultPlan::NAMES {
            let plan = FaultPlan::named(name, 1).expect(name);
            assert_eq!(plan.is_clean(), *name == "clean", "{name}");
        }
        assert!(FaultPlan::named("nope", 1).is_none());
    }

    #[test]
    fn clean_plan_never_fires() {
        let inj = FaultPlan::none();
        assert!(inj.is_clean());
        for slice in 0..100 {
            assert_eq!(inj.quantum(slice), QuantumFaults::NONE);
        }
    }

    #[test]
    fn quantum_faults_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::flaky_reconfig(1);
        let b = FaultPlan::flaky_reconfig(1);
        let c = FaultPlan::flaky_reconfig(2);
        let fires =
            |inj: &FaultPlan| -> Vec<QuantumFaults> { (0..200).map(|s| inj.quantum(s)).collect() };
        assert_eq!(fires(&a), fires(&b));
        assert_ne!(fires(&a), fires(&c));
        // At these rates something must fire within 200 quanta.
        assert!(fires(&a).iter().any(|q| q.reconfig_fail));
        assert!(fires(&a).iter().any(|q| q.reconstruct_diverge));
    }

    #[test]
    fn windowed_plan_only_fires_inside_the_window() {
        let plan = FaultPlan {
            reconfig_fail: 1.0,
            ..FaultPlan::none()
        }
        .with_window(3, 6);
        let inj = plan;
        for slice in 0..10 {
            assert_eq!(
                inj.quantum(slice).reconfig_fail,
                (3..6).contains(&slice),
                "slice {slice}"
            );
        }
    }

    #[test]
    fn sample_corruption_is_deterministic_and_counts_events() {
        let inj = lossy();
        let mk = || ProfileSample {
            duration_ms: 1.0,
            samples: (0..40)
                .map(|j| SamplePoint {
                    job: j,
                    config: JobConfig::from_index(j % NUM_JOB_CONFIGS),
                    bips: 2.0,
                    watts: 3.0,
                })
                .collect(),
            lc_tails_ms: vec![5.0],
        };
        let mut a = mk();
        let mut b = mk();
        let (dropped_a, corrupted_a) = inj.corrupt_profile(4, 1, &mut a);
        let (dropped_b, corrupted_b) = inj.corrupt_profile(4, 1, &mut b);
        // NaN-corrupted samples defeat PartialEq; compare debug renderings
        // (bit-identical values render identically, including NaN).
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((dropped_a, corrupted_a), (dropped_b, corrupted_b));
        assert_eq!(a.samples.len(), 40 - dropped_a);
        assert!(dropped_a > 0, "15% drop over 40 samples should fire");
        assert!(
            corrupted_a > 0,
            "15% corruption over 40 samples should fire"
        );
        // A different frame corrupts differently.
        let mut c = mk();
        inj.corrupt_profile(4, 2, &mut c);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_probes_back() {
        let mut b = CircuitBreaker::new();
        for _ in 0..BREAKER_OPEN_AFTER - 1 {
            b.begin_quantum();
            b.on_failure();
            assert!(!b.is_open());
        }
        b.begin_quantum();
        b.on_failure();
        assert!(b.is_open());
        assert_eq!(b.opens, 1);
        // While open, most quanta are safe mode; every
        // BREAKER_PROBE_INTERVAL-th quantum probes. Two successful probes
        // close it.
        let mut probes = 0;
        for _ in 0..20 {
            b.begin_quantum();
            if b.should_probe() {
                probes += 1;
                b.on_success();
            }
            if !b.is_open() {
                break;
            }
        }
        assert_eq!(probes, BREAKER_CLOSE_AFTER);
        assert!(!b.is_open());
        assert_eq!(b.closes, 1);
        // A failure after recovery starts the count fresh.
        b.on_failure();
        assert!(!b.is_open());
    }

    #[test]
    fn sanity_gate_counts_poisoned_predictions() {
        let mut preds = Predictions {
            batch_bips: vec![vec![1.0; NUM_JOB_CONFIGS]; 2],
            batch_watts: vec![vec![2.0; NUM_JOB_CONFIGS]; 2],
            lc: vec![LcPrediction {
                watts: vec![3.0; NUM_JOB_CONFIGS],
                tail: vec![4.0; NUM_JOB_CONFIGS],
                tail_guarded: vec![4.0; NUM_JOB_CONFIGS],
            }],
        };
        assert_eq!(prediction_defects(&preds), 0);
        preds.batch_bips[0][0] = f64::NAN;
        preds.lc[0].tail[3] = -1.0;
        preds.lc[0].watts[5] = 1e9;
        assert_eq!(prediction_defects(&preds), 3);
        poison_predictions(&mut preds);
        assert!(prediction_defects(&preds) > 100);
    }

    #[test]
    fn safe_mode_plan_is_cap_respecting_and_widest_for_lc() {
        let service = workloads::latency::service_by_name("xapian").unwrap();
        let info = SliceInfo {
            slice: 0,
            cap_watts: 52.0,
            num_cores: 32,
            llc_ways: 32,
            num_batch: 4,
            lc: vec![LcSliceInfo {
                service,
                qos_ms: 10.0,
                load: 0.5,
                last_tail_ms: None,
                last_cores: 16,
            }],
            batch_active: vec![true, true, false, true],
        };
        let lc = vec![LcAllocation {
            cores: 16,
            min_cores: 16,
        }];
        // Without predictions: everything batch-side gates.
        let plan = safe_mode_plan(&info, &lc, None, 0.5);
        assert_eq!(plan.lc[0].cores, 16);
        assert_eq!(plan.lc[0].config.core, CoreConfig::widest());
        assert!(plan.batch.iter().all(|a| *a == BatchAction::Gated));
        // With predictions: narrowest configs, gated in descending power
        // until the cap fits; the absent job stays gated.
        let lowest = JobConfig::profiling_low().index();
        let mut preds = Predictions {
            batch_bips: vec![vec![1.0; NUM_JOB_CONFIGS]; 4],
            batch_watts: vec![vec![1.0; NUM_JOB_CONFIGS]; 4],
            lc: vec![LcPrediction {
                watts: vec![3.0; NUM_JOB_CONFIGS],
                tail: vec![1.0; NUM_JOB_CONFIGS],
                tail_guarded: vec![1.0; NUM_JOB_CONFIGS],
            }],
        };
        // LC 16 × 3 W = 48 W; jobs 0/1/3 at 8/2/1 W total 59 W > 52 W cap,
        // so the hungriest job gates (59 − 8 + 0.5 = 51.5 W fits).
        preds.batch_watts[0][lowest] = 8.0;
        preds.batch_watts[1][lowest] = 2.0;
        preds.batch_watts[3][lowest] = 1.0;
        let plan = safe_mode_plan(&info, &lc, Some(&preds), 0.5);
        assert_eq!(plan.batch[0], BatchAction::Gated, "hungriest job gates");
        assert_eq!(plan.batch[2], BatchAction::Gated, "absent job stays gated");
        assert_eq!(
            plan.batch[1],
            BatchAction::Run(JobConfig::from_index(lowest))
        );
        assert_eq!(
            plan.batch[3],
            BatchAction::Run(JobConfig::from_index(lowest))
        );
    }
}
