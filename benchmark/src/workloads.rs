//! The four named workloads: what each one is, why it exists, and how its
//! inputs are generated from the seed.
//!
//! The program under test only ever sees the generated [`Scenario`] /
//! [`ClusterScenario`] and the command schedule — never the seed's meaning,
//! never the workload's name.

use cluster::{ClusterScenario, FleetFaultPlan, NodeId};
use cuttlesys::types::{BatchJobSpec, JobSpec, Scenario};
use util::rng64::{mix_stream, unit_from_bits};
use workloads::batch::{self, SpecBenchmark};
use workloads::loadgen::LoadPattern;

/// Untimed quanta every pass runs first, so caches, matrices and the
/// worker pool are warm before timing starts.
pub const WARMUP_QUANTA: usize = 20;

/// Nodes in the `fleet_faulted` cluster.
pub const FLEET_NODES: usize = 8;

/// Scrapes per second the open-loop scraper is due to send.
pub const SCRAPE_RATE_HZ: f64 = 40.0;

/// The 100 ms slice a quantum decides for; a quantum that takes longer
/// than the slice it decides for has failed.
pub const SLICE_MS: f64 = 100.0;

/// Independent draw streams of the workload generator.
#[derive(Clone, Copy)]
enum Stream {
    ChurnApp = 1,
    ChurnJitter = 2,
    ChurnPeriod = 3,
    FleetApp = 4,
    ServiceApp = 5,
}

fn draw(seed: u64, stream: Stream, index: usize) -> f64 {
    unit_from_bits(mix_stream(seed, stream as u64, index as u64))
}

/// Seed of every application draw. Which applications run is part of a
/// workload's definition, like `paper_default`'s own mix: the `--seed`
/// moves noise, phases, arrival times and load periods, not the job mix,
/// so that `batch_ginstr_per_sim_s` is comparable between seeds.
const MIX_SEED: u64 = 0xC0FFEE;

fn draw_app(stream: Stream, index: usize) -> SpecBenchmark {
    let testing = batch::testing_set();
    testing[(draw(MIX_SEED, stream, index) * testing.len() as f64) as usize % testing.len()]
}

/// One of the four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's standard co-location with slowly moving inputs.
    NodeSteady,
    /// Two services, churning batch jobs, a stepping power cap.
    NodeChurn,
    /// Eight nodes under a coordinator with scheduled fleet faults.
    FleetFaulted,
    /// One node behind the service facade, scraped over HTTP.
    ServiceScrape,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::NodeSteady,
        Workload::NodeChurn,
        Workload::FleetFaulted,
        Workload::ServiceScrape,
    ];

    /// The workload's name on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeSteady => "node_steady",
            Workload::NodeChurn => "node_churn",
            Workload::FleetFaulted => "fleet_faulted",
            Workload::ServiceScrape => "service_scrape",
        }
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        crate::metrics::registry()
            .workloads
            .iter()
            .find(|(name, _)| name == self.name())
            .map_or("", |(_, why)| why.as_str())
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed quanta per second of `--seconds`. The run length is fixed in
    /// quanta, not in wall time, so that simulated statistics and record
    /// digests repeat exactly for a seed on any machine and any commit; the
    /// rates are chosen so that the timed phase takes about `--seconds` on
    /// the commit that defined the benchmark.
    pub fn quanta_per_second(self) -> f64 {
        match self {
            Workload::FleetFaulted => 20.0,
            _ => 100.0,
        }
    }

    /// Timed quanta for a run of `seconds`.
    pub fn timed_quanta(self, seconds: f64) -> usize {
        ((seconds * self.quanta_per_second()).round() as usize).max(1)
    }
}

/// `node_steady`: `Scenario::paper_default()` reseeded.
pub fn node_steady(seed: u64, timed: usize) -> Scenario {
    Scenario::paper_default()
        .with_seed(seed)
        .with_duration_slices(WARMUP_QUANTA + timed)
}

/// Successive tenants each churning batch slot hosts over the run.
const CHURN_TENANTS_PER_SLOT: usize = 3;

/// `node_churn`: `Scenario::two_service()` with per-tenant diurnal loads
/// of different periods, every other batch slot handing over between
/// successive tenants on a staggered schedule, and a power cap stepping
/// between 0.85 and 0.55 every 25 quanta.
pub fn node_churn(seed: u64, timed: usize) -> Scenario {
    let base = Scenario::two_service().with_seed(seed);
    let total = WARMUP_QUANTA + timed;
    let mut lc_seen = 0usize;
    let mut batch_seen = 0usize;
    let mut jobs = Vec::new();
    // A slot's tenants split the timed quanta evenly; slot k's hand-overs
    // are offset by k sixths of that share, plus a seeded jitter, and each
    // hand-over leaves the core empty for a few quanta.
    let share = (timed / CHURN_TENANTS_PER_SLOT).max(1);
    for job in &base.jobs {
        match job {
            JobSpec::LatencyCritical(lc) => {
                let mut lc = lc.clone();
                let period_s =
                    4.0 + 3.0 * lc_seen as f64 + 2.0 * draw(seed, Stream::ChurnPeriod, lc_seen);
                lc.load = LoadPattern::Diurnal {
                    min: 0.15,
                    max: 0.55,
                    period_s,
                };
                lc_seen += 1;
                jobs.push(JobSpec::LatencyCritical(lc));
            }
            JobSpec::Batch(b) if batch_seen.is_multiple_of(2) => {
                batch_seen += 1;
                jobs.push(JobSpec::Batch(b.clone()));
            }
            JobSpec::Batch(b) => {
                let slot = batch_seen / 2;
                batch_seen += 1;
                let offset = WARMUP_QUANTA + slot * share / 6;
                let idx = |t: usize| slot * CHURN_TENANTS_PER_SLOT + t;
                // Tenant t-1 leaves at handover(t); tenant t arrives a few
                // quanta later.
                let handover = |t: usize| {
                    offset + t * share + (draw(seed, Stream::ChurnJitter, idx(t)) * 8.0) as usize
                };
                let gap =
                    |t: usize| 3 + (draw(seed, Stream::ChurnJitter, 1000 + idx(t)) * 6.0) as usize;
                for t in 0..CHURN_TENANTS_PER_SLOT {
                    jobs.push(JobSpec::Batch(BatchJobSpec {
                        app: if t == 0 {
                            b.app
                        } else {
                            draw_app(Stream::ChurnApp, idx(t))
                        },
                        arrive_slice: if t == 0 { 0 } else { handover(t) + gap(t) },
                        depart_slice: (t + 1 < CHURN_TENANTS_PER_SLOT).then(|| handover(t + 1)),
                    }));
                }
            }
        }
    }
    let steps = (0..total.div_ceil(25))
        .map(|i| (i as f64 * 2.5, if i % 2 == 0 { 0.85 } else { 0.55 }))
        .collect();
    Scenario { jobs, ..base }
        .with_cap(LoadPattern::Steps(steps))
        .with_duration_slices(total)
}

/// `service_scrape`: `Scenario::paper_default()` reseeded (the service
/// runs open-ended; the duration is informational).
pub fn service_scrape(seed: u64, timed: usize) -> Scenario {
    node_steady(seed, timed)
}

/// The registration due before timed quantum `q` of `service_scrape`, if
/// any: one every 50 quanta. `paper_default` fills the chip and its
/// tenants' worst-case power already exceeds the steady-state budget of
/// the 70 % cap, so admission control has to refuse every one of them —
/// the round trip through the reactor, the admission arithmetic and the
/// bus event are what is exercised, and the records stay identical to
/// `node_steady`'s.
pub fn service_registration(q: usize) -> Option<SpecBenchmark> {
    (q % 50 == 25).then(|| draw_app(Stream::ServiceApp, q))
}

/// A live command the benchmark issues before a timed fleet quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Register one batch tenant running `app`, placement choosing the node.
    Register(SpecBenchmark),
    /// Deregister the oldest tenant registered by a previous command that
    /// is still running somewhere (nothing when there is none).
    DeregisterOldest,
}

/// The generated inputs of `fleet_faulted`.
pub struct FleetPlan {
    /// Per-node scenarios.
    pub scenario: ClusterScenario,
    /// Scheduled crash, blackout and drain.
    pub faults: FleetFaultPlan,
}

/// `fleet_faulted`: 8 nodes of `paper_default` with half the batch slots
/// free, node 7 crashing a third of the way through the timed quanta,
/// node 0 blacked out for 5 quanta at the half, node 1 drained at two
/// thirds.
///
/// The fleet runs at the nominal power budget, not the 70 % cap: admission
/// control admits a tenant only when every tenant's worst-case power fits
/// the steady-state budget, which at 70 % refuses every evacuee and every
/// live registration — the fleet would have nowhere to put anybody.
pub fn fleet_faulted(seed: u64, timed: usize) -> FleetPlan {
    let base = Scenario::paper_default()
        .with_seed(seed)
        .with_mix(batch::mix(8, MIX_SEED))
        .with_cap(LoadPattern::Constant(1.0))
        .with_duration_slices(WARMUP_QUANTA + timed);
    let at = |num: usize, den: usize| WARMUP_QUANTA + timed * num / den;
    FleetPlan {
        scenario: ClusterScenario::uniform(&base, FLEET_NODES),
        faults: FleetFaultPlan::none()
            .with_crash(NodeId::from_index(FLEET_NODES - 1), at(1, 3))
            .with_blackout(NodeId::from_index(0), at(1, 2), 5)
            .with_drain(NodeId::from_index(1), at(2, 3)),
    }
}

/// The command due before timed fleet quantum `q`: a registration every 5
/// quanta and, once a few tenants are in, a deregistration of the oldest
/// every 5 — a small standing population that placement keeps turning
/// over, leaving room for the evacuees.
pub fn fleet_command(q: usize) -> Option<Command> {
    match q % 5 {
        0 => Some(Command::Register(draw_app(Stream::FleetApp, q))),
        2 if q >= 20 => Some(Command::DeregisterOldest),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sizes_follow_seconds() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(Workload::NodeSteady.timed_quanta(12.0), 1200);
        assert_eq!(Workload::FleetFaulted.timed_quanta(12.0), 240);
        assert_eq!(Workload::ServiceScrape.timed_quanta(0.001), 1);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        assert_eq!(node_churn(7, 300).jobs, node_churn(7, 300).jobs);
        assert_ne!(node_churn(7, 300).jobs, node_churn(8, 300).jobs);
        assert_eq!(fleet_command(5), fleet_command(5));
        assert_eq!(fleet_faulted(7, 90).faults, fleet_faulted(7, 90).faults);
        assert_ne!(node_steady(7, 10).seed, node_steady(8, 10).seed);
    }

    #[test]
    fn churn_never_oversubscribes_a_slot_and_the_cap_steps() {
        let timed = 1200;
        let s = node_churn(7, timed);
        assert_eq!(s.num_lc(), 2);
        // 6 resident + 6 slots x 3 tenants.
        assert_eq!(s.num_batch(), 6 + 6 * CHURN_TENANTS_PER_SLOT);
        let mut churn_events = 0;
        let mut prev = s.batch_active(0);
        for slice in 0..WARMUP_QUANTA + timed {
            let active = s.batch_active(slice);
            assert!(active.iter().filter(|a| **a).count() <= 12, "slice {slice}");
            churn_events += active.iter().zip(&prev).filter(|(a, b)| a != b).count();
            prev = active;
        }
        assert_eq!(churn_events, 6 * 2 * (CHURN_TENANTS_PER_SLOT - 1));
        assert_eq!(s.batch_active(0).iter().filter(|a| **a).count(), 12);
        assert_eq!(s.cap.load_at(0.0), 0.85);
        assert_eq!(s.cap.load_at(2.5), 0.55);
        assert_eq!(s.cap.load_at(5.1), 0.85);
    }

    #[test]
    fn fleet_faults_land_inside_the_timed_quanta() {
        let plan = fleet_faulted(7, 240);
        assert_eq!(plan.scenario.num_nodes(), FLEET_NODES);
        let quanta: Vec<usize> = plan.faults.scheduled.iter().map(|f| f.quantum).collect();
        assert_eq!(quanta, vec![20 + 80, 20 + 120, 20 + 160]);
    }
}
