//! Per-decision instrumentation of the stage pipeline.
//!
//! Each decision quantum produces one [`StageTelemetry`]: wall-clock time
//! spent inside every pipeline stage (the manager's own compute cost, the
//! quantity Table II of the paper reports), the simulated milliseconds the
//! profiling stage consumed from the slice, and work counters such as SGD
//! epochs and search evaluations. [`TelemetrySummary`] aggregates the
//! records of a run for reporting.

/// Degradation-ladder events of one decision quantum: which fallbacks the
/// manager used and why. All-default means the quantum ran cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationEvents {
    /// Profiling sample fields rejected by validation (non-finite or out of
    /// physical range).
    pub samples_rejected: usize,
    /// Bounded profiling retries issued after a frame yielded no valid
    /// sample.
    pub sample_retries: usize,
    /// Whether reconstruction output failed the sanity gate and last-good
    /// predictions substituted for it.
    pub reconstruct_fallback: bool,
    /// Age (in quanta) of the last-good state substituted this quantum,
    /// zero when none was needed.
    pub stale_age: usize,
    /// Whether the quantum replayed the last-good decision instead of
    /// computing a fresh one.
    pub replayed_last_good: bool,
    /// Whether the quantum ran the safe-mode allocation.
    pub safe_mode: bool,
    /// Whether the circuit breaker was open during this quantum.
    pub breaker_open: bool,
    /// Whether an open breaker probed a full decision this quantum.
    pub breaker_probe: bool,
    /// The stage a failed quantum was attributed to, if any.
    pub failed_stage: Option<&'static str>,
}

impl DegradationEvents {
    /// Whether the quantum's decision was degraded in any way (a fallback
    /// was used, a stage failed, or the breaker was open).
    pub fn degraded(&self) -> bool {
        self.reconstruct_fallback
            || self.replayed_last_good
            || self.safe_mode
            || self.breaker_open
            || self.failed_stage.is_some()
    }
}

/// Instrumentation of one decision quantum.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTelemetry {
    /// Wall-clock time of the profiling stage (ms): issuing the split-halves
    /// frames and recording samples. Excludes the simulated frame time.
    pub profile_wall_ms: f64,
    /// Wall-clock time of matrix reconstruction: the per-row fold-in solves,
    /// plus learning a tail bucket's factors when one is first met (ms).
    pub reconstruct_wall_ms: f64,
    /// Wall-clock time of the QoS stage: tail-row scan, trust region, and
    /// core-relocation bookkeeping (ms).
    pub qos_wall_ms: f64,
    /// Wall-clock time of the batch-allocation search (ms).
    pub search_wall_ms: f64,
    /// Wall-clock time of the power-cap repair pass (ms).
    pub repair_wall_ms: f64,
    /// Simulated slice time consumed by profiling frames (ms) — the paper's
    /// 2 × 1 ms sampling cost.
    pub profile_sim_ms: f64,
    /// Samples recorded into the throughput/power matrices this quantum.
    pub samples_recorded: usize,
    /// SGD epochs actually run inside this quantum's decide: 0 in steady
    /// state, the one-time cost of learning a tail bucket's factors in a
    /// quantum that meets the bucket for the first time.
    pub sgd_epochs: usize,
    /// Always 0: warm starting is gone. Retained for the perf ledger only,
    /// like `cache_hits`.
    pub warm_solves: usize,
    /// Candidates the search stage judged (`dds::SearchResult::evaluations`):
    /// 3250 per DDS search at Fig. 6's parameters, whether the objective
    /// scored a candidate or its certified bound rejected it unscored. The
    /// exact-scored count (`dds::SearchResult::scored`) is not recorded here.
    pub search_evaluations: usize,
    /// Always 0: the evaluation cache is gone. Retained for the perf
    /// ledger only, which reads the field and hashes this struct's `Debug`
    /// rendering into its record digests.
    pub cache_hits: usize,
    /// Always equals `search_evaluations`. Retained for the perf ledger
    /// only, like `cache_hits`.
    pub cache_misses: usize,
    /// Whether the QoS stage reclaimed a core for the LC service.
    pub reclaimed_core: bool,
    /// Whether the QoS stage relinquished a core to the batch pool.
    pub relinquished_core: bool,
    /// Batch jobs gated by the repair stage.
    pub gated_jobs: usize,
    /// Degradation-ladder events of the quantum (all-default when clean).
    pub degradation: DegradationEvents,
}

impl StageTelemetry {
    /// Total manager compute (wall-clock) this quantum, across stages (ms).
    pub fn total_wall_ms(&self) -> f64 {
        self.profile_wall_ms
            + self.reconstruct_wall_ms
            + self.qos_wall_ms
            + self.search_wall_ms
            + self.repair_wall_ms
    }
}

/// Per-stage statistics over a run — means and maxima of the fields of
/// [`StageTelemetry`] across the slices that reported one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySummary {
    /// Number of decision quanta aggregated.
    pub decisions: usize,
    /// Mean wall-clock per stage (ms), in pipeline order:
    /// profile, reconstruct, qos, search, repair.
    pub mean_wall_ms: [f64; 5],
    /// Maximum wall-clock per stage (ms), same order.
    pub max_wall_ms: [f64; 5],
    /// Mean simulated profiling time per quantum (ms).
    pub mean_profile_sim_ms: f64,
    /// Mean samples recorded per quantum.
    pub mean_samples: f64,
    /// Mean SGD epochs per quantum.
    pub mean_sgd_epochs: f64,
    /// Mean search evaluations per quantum.
    pub mean_search_evaluations: f64,
    /// Quanta in which a core was reclaimed for the LC service.
    pub reclaims: usize,
    /// Quanta in which a core was relinquished to the batch pool.
    pub relinquishes: usize,
    /// Quanta in which the repair stage gated at least one job.
    pub repairs: usize,
    /// Total profiling sample fields rejected by validation.
    pub samples_rejected: usize,
    /// Total bounded profiling retries issued.
    pub sample_retries: usize,
    /// Quanta in which reconstruction fell back to last-good predictions.
    pub reconstruct_fallbacks: usize,
    /// Quanta that replayed the last-good decision.
    pub last_good_replays: usize,
    /// Quanta spent in the safe-mode allocation.
    pub safe_mode_quanta: usize,
    /// Quanta during which the circuit breaker was open.
    pub breaker_open_quanta: usize,
    /// Maximum age of a substituted last-good state (quanta).
    pub max_stale_age: usize,
    /// Quanta whose decision was degraded in any way.
    pub degraded_quanta: usize,
}

impl TelemetrySummary {
    /// Aggregates an iterator of per-quantum records; `None` if empty.
    pub fn over<'a>(records: impl IntoIterator<Item = &'a StageTelemetry>) -> Option<Self> {
        let mut n = 0usize;
        let mut sum = [0.0f64; 5];
        let mut max = [0.0f64; 5];
        let mut sim = 0.0;
        let mut samples = 0usize;
        let mut epochs = 0usize;
        let mut evals = 0usize;
        let (mut reclaims, mut relinquishes, mut repairs) = (0usize, 0usize, 0usize);
        let mut samples_rejected = 0usize;
        let mut sample_retries = 0usize;
        let mut reconstruct_fallbacks = 0usize;
        let mut last_good_replays = 0usize;
        let mut safe_mode_quanta = 0usize;
        let mut breaker_open_quanta = 0usize;
        let mut max_stale_age = 0usize;
        let mut degraded_quanta = 0usize;
        for t in records {
            n += 1;
            let walls = [
                t.profile_wall_ms,
                t.reconstruct_wall_ms,
                t.qos_wall_ms,
                t.search_wall_ms,
                t.repair_wall_ms,
            ];
            for (i, w) in walls.into_iter().enumerate() {
                sum[i] += w;
                max[i] = max[i].max(w);
            }
            sim += t.profile_sim_ms;
            samples += t.samples_recorded;
            epochs += t.sgd_epochs;
            evals += t.search_evaluations;
            reclaims += usize::from(t.reclaimed_core);
            relinquishes += usize::from(t.relinquished_core);
            repairs += usize::from(t.gated_jobs > 0);
            let d = &t.degradation;
            samples_rejected += d.samples_rejected;
            sample_retries += d.sample_retries;
            reconstruct_fallbacks += usize::from(d.reconstruct_fallback);
            last_good_replays += usize::from(d.replayed_last_good);
            safe_mode_quanta += usize::from(d.safe_mode);
            breaker_open_quanta += usize::from(d.breaker_open);
            max_stale_age = max_stale_age.max(d.stale_age);
            degraded_quanta += usize::from(d.degraded());
        }
        if n == 0 {
            return None;
        }
        let inv = 1.0 / n as f64;
        Some(TelemetrySummary {
            decisions: n,
            mean_wall_ms: sum.map(|s| s * inv),
            max_wall_ms: max,
            mean_profile_sim_ms: sim * inv,
            mean_samples: samples as f64 * inv,
            mean_sgd_epochs: epochs as f64 * inv,
            mean_search_evaluations: evals as f64 * inv,
            reclaims,
            relinquishes,
            repairs,
            samples_rejected,
            sample_retries,
            reconstruct_fallbacks,
            last_good_replays,
            safe_mode_quanta,
            breaker_open_quanta,
            max_stale_age,
            degraded_quanta,
        })
    }

    /// Mean total manager compute per quantum (ms).
    pub fn mean_total_wall_ms(&self) -> f64 {
        self.mean_wall_ms.iter().sum()
    }

    /// The summary as a JSON document. Stage timings are keyed by
    /// [`STAGE_NAMES`].
    pub fn to_json(&self) -> util::JsonValue {
        use util::JsonValue as J;
        let stages = |vals: [f64; 5]| {
            J::Obj(
                STAGE_NAMES
                    .iter()
                    .zip(vals)
                    .map(|(name, v)| ((*name).to_string(), J::Num(v)))
                    .collect(),
            )
        };
        let n = |v: usize| J::Num(v as f64);
        J::Obj(vec![
            ("decisions".into(), n(self.decisions)),
            ("mean_wall_ms".into(), stages(self.mean_wall_ms)),
            ("max_wall_ms".into(), stages(self.max_wall_ms)),
            (
                "mean_total_wall_ms".into(),
                J::Num(self.mean_total_wall_ms()),
            ),
            (
                "mean_profile_sim_ms".into(),
                J::Num(self.mean_profile_sim_ms),
            ),
            ("mean_samples".into(), J::Num(self.mean_samples)),
            ("mean_sgd_epochs".into(), J::Num(self.mean_sgd_epochs)),
            (
                "mean_search_evaluations".into(),
                J::Num(self.mean_search_evaluations),
            ),
            ("reclaims".into(), n(self.reclaims)),
            ("relinquishes".into(), n(self.relinquishes)),
            ("repairs".into(), n(self.repairs)),
            ("samples_rejected".into(), n(self.samples_rejected)),
            ("sample_retries".into(), n(self.sample_retries)),
            (
                "reconstruct_fallbacks".into(),
                n(self.reconstruct_fallbacks),
            ),
            ("last_good_replays".into(), n(self.last_good_replays)),
            ("safe_mode_quanta".into(), n(self.safe_mode_quanta)),
            ("breaker_open_quanta".into(), n(self.breaker_open_quanta)),
            ("max_stale_age".into(), n(self.max_stale_age)),
            ("degraded_quanta".into(), n(self.degraded_quanta)),
        ])
    }
}

/// Names of the pipeline stages, in the order `mean_wall_ms` uses.
pub const STAGE_NAMES: [&str; 5] = ["profile", "reconstruct", "qos", "search", "repair"];

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn record(scale: f64) -> StageTelemetry {
        StageTelemetry {
            profile_wall_ms: 0.1 * scale,
            reconstruct_wall_ms: 4.0 * scale,
            qos_wall_ms: 0.05 * scale,
            search_wall_ms: 1.3 * scale,
            repair_wall_ms: 0.01 * scale,
            profile_sim_ms: 2.0,
            samples_recorded: 34,
            sgd_epochs: 0,
            warm_solves: 0,
            search_evaluations: 640,
            cache_hits: 0,
            cache_misses: 640,
            reclaimed_core: scale > 1.0,
            relinquished_core: false,
            gated_jobs: if scale > 1.0 { 3 } else { 0 },
            degradation: DegradationEvents::default(),
        }
    }

    #[test]
    fn summary_over_empty_is_none() {
        assert!(TelemetrySummary::over(std::iter::empty::<&StageTelemetry>()).is_none());
    }

    #[test]
    fn summary_means_and_maxima() {
        let records = [record(1.0), record(3.0)];
        let s = TelemetrySummary::over(records.iter()).expect("non-empty");
        assert_eq!(s.decisions, 2);
        // Mean of 1x and 3x scales is 2x.
        assert!((s.mean_wall_ms[1] - 8.0).abs() < 1e-12);
        assert!((s.max_wall_ms[3] - 3.9).abs() < 1e-12);
        assert!((s.mean_profile_sim_ms - 2.0).abs() < 1e-12);
        assert_eq!(s.reclaims, 1);
        assert_eq!(s.repairs, 1);
        let expected_total: f64 = s.mean_wall_ms.iter().sum();
        assert!((s.mean_total_wall_ms() - expected_total).abs() < 1e-12);
    }

    #[test]
    fn total_wall_sums_all_stages() {
        let t = record(1.0);
        assert!((t.total_wall_ms() - (0.1 + 4.0 + 0.05 + 1.3 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn clean_quantum_reports_no_degradation() {
        let t = record(1.0);
        assert!(!t.degradation.degraded());
        let s = TelemetrySummary::over([&t]).expect("non-empty");
        assert_eq!(s.degraded_quanta, 0);
        assert_eq!(s.safe_mode_quanta, 0);
    }

    #[test]
    fn summary_aggregates_degradation_events() {
        let mut degraded = record(1.0);
        degraded.degradation = DegradationEvents {
            samples_rejected: 4,
            sample_retries: 1,
            replayed_last_good: true,
            stale_age: 3,
            failed_stage: Some("reconstruct"),
            ..DegradationEvents::default()
        };
        assert!(degraded.degradation.degraded());
        let mut safe = record(1.0);
        safe.degradation.safe_mode = true;
        safe.degradation.breaker_open = true;
        let records = [record(1.0), degraded, safe];
        let s = TelemetrySummary::over(records.iter()).expect("non-empty");
        assert_eq!(s.decisions, 3);
        assert_eq!(s.samples_rejected, 4);
        assert_eq!(s.sample_retries, 1);
        assert_eq!(s.last_good_replays, 1);
        assert_eq!(s.safe_mode_quanta, 1);
        assert_eq!(s.breaker_open_quanta, 1);
        assert_eq!(s.max_stale_age, 3);
        assert_eq!(s.degraded_quanta, 2);
    }
}
