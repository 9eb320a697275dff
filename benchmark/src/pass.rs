//! What one pass over a workload produces, whatever the workload: the
//! per-quantum wall times, the ground-truth records, the operation tally
//! and the layer samples only some workloads can fill.

use cuttlesys::types::RunRecord;

use crate::trace::Tracer;
use crate::workloads::{SLICE_MS, WARMUP_QUANTA};

/// Operations attempted and failed, with the first few reasons kept for
/// the report. An operation is a node-quantum, a command or a scrape.
///
/// An operation fails when the program's answer is wrong. One that took
/// longer than the 100 ms slice is counted beside that, not as failed: on a
/// shared machine a scheduling stall does that to a few operations in one
/// run of twenty, and `failed` has to be a property of the program (the
/// driver wants it 0; `compare` allows it to grow by nothing). A program that
/// really outgrows its slice moves `quantum_ms_p50` twelvefold.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Quanta and scrapes that took longer, by host wall time, than the
    /// 100 ms slice. Not part of `failed`.
    pub over_slice: u64,
    /// Why the first few failed.
    pub reasons: Vec<String>,
}

impl Ops {
    /// Counts one successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason());
        }
    }

    /// Counts one operation by its outcome.
    pub fn tally(&mut self, failure: Option<String>) {
        match failure {
            Some(reason) => self.fail(|| reason),
            None => self.ok(),
        }
    }

    /// Counts one timed node-quantum, which fails when its decision
    /// degraded under a clean fault plan.
    pub fn tally_quantum(&mut self, degraded: bool, wall_ms: f64) {
        self.over_slice += u64::from(wall_ms > SLICE_MS);
        if degraded {
            self.fail(|| "degraded decision under a clean fault plan".to_string());
        } else {
            self.ok();
        }
    }

    /// Failed ÷ attempted operations (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Adds another pass's tally.
    pub fn absorb(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.over_slice += other.over_slice;
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons
            .extend(other.reasons.iter().take(room).cloned());
    }
}

/// One `GET` of the open-loop scraper.
#[derive(Debug, Clone, PartialEq)]
pub struct Scrape {
    /// Due time to last byte (ms) — counts the wait a stall imposes.
    pub latency_ms: f64,
    /// How late the request was sent, after it was due (ms).
    pub late_ms: f64,
    /// Body bytes received.
    pub bytes: usize,
    /// Why the reply is wrong, if it is.
    pub failure: Option<String>,
}

/// Samples and counts only some workloads produce. Empty vectors and zero
/// counts mean "this workload does not go through that layer".
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerSamples {
    /// |predicted − measured| ÷ measured per-core BIPS of every running
    /// batch job, every traced quantum (decorator only).
    pub bips_rel_err: Vec<f64>,
    /// The same for the summed power of the active cores.
    pub watts_rel_err: Vec<f64>,
    /// Round trip of one `register_batch` (µs).
    pub command_us: Vec<f64>,
    /// `ClusterCoordinator::drain_events` (µs).
    pub drain_events_us: Vec<f64>,
    /// `ClusterCoordinator::snapshot` (µs).
    pub snapshot_us: Vec<f64>,
    /// Cluster events drained over the timed quanta.
    pub cluster_events: usize,
    /// `Evacuated` events.
    pub evacuations: usize,
    /// `MigrationCompleted` events.
    pub migrations: usize,
    /// `MigrationAbandoned` events.
    pub migrations_abandoned: usize,
    /// Σ over timed quanta of tenants parked in the displaced queue.
    pub displaced_tenant_quanta: usize,
    /// Timed quanta the fleet spent in degraded mode.
    pub fleet_degraded_quanta: usize,
    /// Every scrape of the open-loop scraper, in due order.
    pub scrapes: Vec<Scrape>,
    /// Idle `Service::metrics()` round trip (µs).
    pub metrics_call_us: Vec<f64>,
    /// Idle `Service::snapshot()` + JSON emit (ms) — what `/state` costs.
    pub state_ms: Vec<f64>,
    /// Events the bus subscriber lost to lag.
    pub bus_lagged: u64,
    /// Events overwritten in the bus ring before delivery.
    pub bus_overwrites: u64,
}

/// The outcome of one pass.
pub struct Pass {
    /// Caller-visible wall time of every timed quantum (ms).
    pub quantum_ms: Vec<f64>,
    /// Nodes that stepped in each timed quantum (1 on a single node).
    pub nodes_stepped: Vec<usize>,
    /// Whether each timed quantum recorded spans (all false when untraced).
    pub traced: Vec<bool>,
    /// Wall time of the whole timed phase (s).
    pub timed_wall_s: f64,
    /// One record per node, warm-up quanta included.
    pub records: Vec<RunRecord>,
    /// Operations attempted / failed.
    pub ops: Ops,
    /// Layer samples.
    pub layer: LayerSamples,
    /// Correctness problems: the workload did not do what it claims, or the
    /// program's output is wrong. Any entry fails the run.
    pub problems: Vec<String>,
}

/// A workload that has been set up (constructed and warmed) and can be
/// run once.
pub trait Live {
    /// Digest of the wall-clock-stripped warm-up records: equal for every
    /// set-up of one (workload, seed), or the program is not deterministic.
    fn warm_digest(&self) -> u64;

    /// Runs the timed quanta, recording spans into `tracer` when given.
    fn run(self: Box<Self>, tracer: Option<&mut Tracer>) -> Pass;
}

/// Whether timed quantum `q` records spans in a traced pass.
///
/// A traced pass leaves every seventh quantum untraced, so the cost of
/// tracing is measured inside one pass, on neighbouring quanta: on a shared
/// machine two separate passes of the same code — even two blocks of a few
/// dozen quanta — differ by more than tracing costs, while this estimate
/// repeats within half a percent when both kinds of quantum are traced.
/// (Seven is coprime to every period in the workloads: the 2-quantum
/// alternation of the profiling halves, the 25-quantum cap steps, the
/// 5- and 50-quantum command schedules.)
pub fn traced_quantum(q: usize) -> bool {
    q % 7 != 6
}

/// FNV-1a over the `Debug` rendering of the wall-clock-stripped records.
/// `Debug` prints every field and round-trips every float, so two records
/// digest equal exactly when they compare equal.
pub fn digest(records: &[RunRecord]) -> u64 {
    digest_prefix(records, usize::MAX)
}

/// [`digest`] of the first `slices` slices of every record. The simulation
/// is causal, so a shorter run of the same inputs digests like the prefix
/// of a longer one.
pub fn digest_prefix(records: &[RunRecord], slices: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for record in records {
        let cut = RunRecord {
            scheme: record.scheme.clone(),
            slices: record.slices.iter().take(slices).cloned().collect(),
        };
        for byte in format!("{:?}", cut.comparable()).bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Simulated statistics over the timed slices of every node record. They
/// depend on the seed and the decisions only, so they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Timed slices over all nodes (node-quanta simulated).
    pub slices: usize,
    /// Slices with any LC tenant over its QoS ÷ slices.
    pub qos_violation_share: f64,
    /// Slices whose average chip power exceeded the cap ÷ slices.
    pub power_violation_share: f64,
    /// Batch instructions ÷ simulated seconds, in 10⁹ instructions.
    pub batch_ginstr_per_sim_s: f64,
}

impl Pass {
    /// Simulated statistics over the timed slices.
    pub fn sim_stats(&self) -> SimStats {
        let timed = || {
            self.records
                .iter()
                .flat_map(|r| r.slices.iter().skip(WARMUP_QUANTA))
        };
        let slices = timed().count();
        let per = |n: usize| n as f64 / slices.max(1) as f64;
        let instructions: f64 = timed().map(|s| s.batch_instructions).sum();
        let sim_s = slices as f64 * SLICE_MS / 1000.0;
        SimStats {
            slices,
            qos_violation_share: per(timed().filter(|s| s.qos_violation()).count()),
            power_violation_share: per(timed().filter(|s| s.power_violation).count()),
            batch_ginstr_per_sim_s: instructions / 1e9 / sim_s.max(f64::MIN_POSITIVE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_tally_counts_and_keeps_the_first_reasons() {
        let mut ops = Ops::default();
        ops.ok();
        for i in 0..10 {
            ops.tally(Some(format!("bad {i}")));
        }
        ops.tally(None);
        assert_eq!((ops.attempted, ops.failed), (12, 10));
        assert_eq!(ops.reasons.len(), 8);
    }

    #[test]
    fn a_traced_pass_leaves_every_seventh_quantum_untraced() {
        // Enough traced quanta of 1200 for a p99, enough untraced for a p50.
        assert_eq!((0..1200).filter(|q| traced_quantum(*q)).count(), 1029);
        assert!(traced_quantum(5) && !traced_quantum(6) && traced_quantum(7));
        // Both phases of a 25-quantum cap period are skipped about equally.
        let skipped_low = (0..1200)
            .filter(|q| !traced_quantum(*q) && (q / 25) % 2 == 1)
            .count();
        assert!((80..=91).contains(&skipped_low), "{skipped_low}");
    }

    #[test]
    fn a_degraded_quantum_fails_and_a_slow_one_is_counted_beside() {
        let mut ops = Ops::default();
        ops.tally_quantum(false, 99.9);
        assert_eq!((ops.attempted, ops.failed, ops.over_slice), (1, 0, 0));
        ops.tally_quantum(false, 100.1);
        assert_eq!((ops.attempted, ops.failed, ops.over_slice), (2, 0, 1));
        ops.tally_quantum(true, 1.0);
        assert_eq!((ops.attempted, ops.failed, ops.over_slice), (3, 1, 1));
        let mut sum = Ops::default();
        sum.absorb(&ops);
        sum.absorb(&ops);
        assert_eq!((sum.attempted, sum.failed, sum.over_slice), (6, 2, 2));
        assert_eq!(sum.reasons.len(), 2);
    }

    #[test]
    fn the_digest_ignores_wall_clock_and_sees_everything_else() {
        use cuttlesys::runtime::CuttleSysManager;
        use cuttlesys::testbed::run_scenario;
        use cuttlesys::types::Scenario;
        let scenario = Scenario::quick_demo();
        let run = || run_scenario(&scenario, &mut CuttleSysManager::for_scenario(&scenario));
        let (a, b) = (run(), run());
        assert_ne!(a, b, "wall-clock telemetry differs between two runs");
        assert_eq!(digest(std::slice::from_ref(&a)), digest(&[b]));
        let mut c = a.clone();
        c.slices[1].chip_watts += 1e-9;
        assert_ne!(digest(&[a]), digest(&[c]));
    }
}
