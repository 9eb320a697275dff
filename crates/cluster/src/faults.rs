//! Deterministic fleet-level fault injection.
//!
//! PR 3 gave one node's sensors and reconfiguration commands a seeded,
//! bit-replayable fault model (`cuttlesys::faults`). This module lifts the
//! same discipline to the fleet: node crashes drawn at a per-(node,
//! quantum) rate, plus faults scheduled at exact coordinates — a crash, a
//! temporary blackout (a node silent for K quanta), or a maintenance
//! drain. The crash verdict is a pure function of `(seed, node, quantum)`
//! drawn from the workspace's counter-based splitmix64 streams
//! ([`simulator::fault`]), so fault draws never perturb the simulation's
//! own randomness: a clean run and a faulty run of the same scenario step
//! the exact same per-node quanta, and two faulty runs with the same plan
//! fail the exact same nodes at the exact same quanta — at any pool width.
//!
//! Policy — what the coordinator *does* about a failed node — lives in
//! [`crate::health`] and the coordinator's health phase; this module only
//! decides what breaks, and when.

use cuttlesys::lifecycle::NodeId;
use simulator::fault::{unit, FaultStream};

/// One kind of fleet fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFaultKind {
    /// The node halts permanently; heartbeats never resume.
    Crash,
    /// The node goes silent (alive but unobservable) for `quanta`
    /// lockstep quanta, then resumes heartbeating.
    Blackout {
        /// How many quanta the node stays silent.
        quanta: usize,
    },
    /// A scheduled maintenance drain: the coordinator evacuates the node
    /// with warning, then takes it out of the fleet.
    Drain,
}

/// A fault pinned to exact coordinates: fires at `(node, quantum)`,
/// deterministically, with no draw involved. Tests and demos use these to
/// kill a specific node mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// The node the fault strikes.
    pub node: NodeId,
    /// The lockstep quantum at whose start it strikes.
    pub quantum: usize,
    /// What happens.
    pub kind: FleetFaultKind,
}

/// The per-(node, quantum) crash rate and its seed, plus any
/// exactly-scheduled faults. The plan is pure data; [`FleetFaultInjector`]
/// turns it into per-quantum verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    /// Seed of the crash draws.
    pub seed: u64,
    /// Per-(node, quantum) probability of a permanent crash.
    pub crash: f64,
    /// Exactly-scheduled faults, applied on top of the drawn crashes.
    pub scheduled: Vec<ScheduledFault>,
}

impl FleetFaultPlan {
    /// The guaranteed no-op plan: nothing ever fires, and the coordinator
    /// runs bit-identically to one built without a plan at all.
    pub fn none() -> FleetFaultPlan {
        FleetFaultPlan {
            seed: 0,
            crash: 0.0,
            scheduled: Vec::new(),
        }
    }

    /// A named profile, mirroring `cuttlesys::faults` — `"clean"` or
    /// `"node-crash"`. Returns `None` for an unknown name.
    pub fn named(name: &str, seed: u64) -> Option<FleetFaultPlan> {
        let crash = match name {
            "clean" => 0.0,
            "node-crash" => 0.02,
            _ => return None,
        };
        Some(FleetFaultPlan {
            seed,
            crash,
            scheduled: Vec::new(),
        })
    }

    /// Schedules a permanent crash of `node` at `quantum`.
    pub fn with_crash(mut self, node: NodeId, quantum: usize) -> FleetFaultPlan {
        self.scheduled.push(ScheduledFault {
            node,
            quantum,
            kind: FleetFaultKind::Crash,
        });
        self
    }

    /// Schedules a `quanta`-long blackout of `node` starting at `quantum`.
    pub fn with_blackout(mut self, node: NodeId, quantum: usize, quanta: usize) -> FleetFaultPlan {
        self.scheduled.push(ScheduledFault {
            node,
            quantum,
            kind: FleetFaultKind::Blackout { quanta },
        });
        self
    }

    /// Schedules a maintenance drain of `node` at `quantum`.
    pub fn with_drain(mut self, node: NodeId, quantum: usize) -> FleetFaultPlan {
        self.scheduled.push(ScheduledFault {
            node,
            quantum,
            kind: FleetFaultKind::Drain,
        });
        self
    }

    /// Whether this plan can never fire anything.
    pub fn is_clean(&self) -> bool {
        self.crash == 0.0 && self.scheduled.is_empty()
    }
}

impl Default for FleetFaultPlan {
    fn default() -> FleetFaultPlan {
        FleetFaultPlan::none()
    }
}

/// The faults striking one node at the start of one quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeQuantumFaults {
    /// The node crashes permanently.
    pub crash: bool,
    /// A blackout of this many quanta starts (0 = none).
    pub blackout_quanta: usize,
    /// A maintenance drain is scheduled.
    pub drain: bool,
}

impl NodeQuantumFaults {
    /// No faults this quantum.
    pub const NONE: NodeQuantumFaults = NodeQuantumFaults {
        crash: false,
        blackout_quanta: 0,
        drain: false,
    };
}

/// Packs `(node, quantum)` into one draw index. Nodes occupy the high
/// bits so no realistic quantum count can alias across nodes.
fn pack(node: NodeId, quantum: usize) -> u64 {
    ((node.index() as u64) << 40) ^ quantum as u64
}

/// Stateless verdict engine over a [`FleetFaultPlan`]: every verdict is a
/// pure function of the plan and the `(node, quantum)` coordinates, so
/// the coordinator can ask in any order (or never) without perturbing
/// anything.
#[derive(Debug, Clone)]
pub struct FleetFaultInjector {
    plan: FleetFaultPlan,
}

impl FleetFaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FleetFaultPlan) -> FleetFaultInjector {
        FleetFaultInjector { plan }
    }

    /// The faults striking `node` at the start of `quantum`.
    pub fn node_quantum(&self, node: NodeId, quantum: usize) -> NodeQuantumFaults {
        if self.plan.is_clean() {
            return NodeQuantumFaults::NONE;
        }
        let mut out = NodeQuantumFaults::NONE;
        for s in &self.plan.scheduled {
            if s.node != node || s.quantum != quantum {
                continue;
            }
            match s.kind {
                FleetFaultKind::Crash => out.crash = true,
                FleetFaultKind::Blackout { quanta } => {
                    out.blackout_quanta = out.blackout_quanta.max(quanta.max(1));
                }
                FleetFaultKind::Drain => out.drain = true,
            }
        }
        // Short-circuit on a zero rate so a purely scheduled plan performs
        // no draws at all.
        if self.plan.crash > 0.0
            && unit(self.plan.seed, FaultStream::NodeCrash, pack(node, quantum)) < self.plan.crash
        {
            out.crash = true;
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn the_clean_plan_never_fires() {
        let injector = FleetFaultInjector::new(FleetFaultPlan::none());
        assert!(injector.plan.is_clean());
        for node in 0..8 {
            for quantum in 0..200 {
                assert_eq!(
                    injector.node_quantum(NodeId::from_index(node), quantum),
                    NodeQuantumFaults::NONE
                );
            }
        }
    }

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let plan = FleetFaultPlan::named("node-crash", 7).unwrap();
        let a = FleetFaultInjector::new(plan.clone());
        let b = FleetFaultInjector::new(plan.clone());
        let c = FleetFaultInjector::new(FleetFaultPlan { seed: 8, ..plan });
        let verdicts = |inj: &FleetFaultInjector| -> Vec<NodeQuantumFaults> {
            (0..4)
                .flat_map(|n| (0..500).map(move |q| (n, q)))
                .map(|(n, q)| inj.node_quantum(NodeId::from_index(n), q))
                .collect()
        };
        assert_eq!(verdicts(&a), verdicts(&b), "same plan, same verdicts");
        assert_ne!(verdicts(&a), verdicts(&c), "a new seed re-rolls the run");
        assert!(
            verdicts(&a).iter().any(|v| v.crash),
            "2% over 2000 coordinates should crash something"
        );
    }

    #[test]
    fn scheduled_faults_fire_at_exactly_their_coordinates() {
        let plan = FleetFaultPlan::none()
            .with_crash(NodeId::from_index(1), 3)
            .with_blackout(NodeId::from_index(2), 5, 4)
            .with_drain(NodeId::from_index(0), 7);
        let injector = FleetFaultInjector::new(plan);
        for node in 0..3 {
            for q in 0..12 {
                let v = injector.node_quantum(NodeId::from_index(node), q);
                match (node, q) {
                    (1, 3) => assert!(v.crash),
                    (2, 5) => assert_eq!(v.blackout_quanta, 4),
                    (0, 7) => assert!(v.drain),
                    _ => assert_eq!(v, NodeQuantumFaults::NONE, "n{node} q{q}"),
                }
            }
        }
    }

    #[test]
    fn named_profiles_cover_the_catalog() {
        for name in ["clean", "node-crash"] {
            let plan = FleetFaultPlan::named(name, 1).expect(name);
            assert_eq!(plan.is_clean(), name == "clean", "{name}");
        }
        assert!(FleetFaultPlan::named("nope", 1).is_none());
    }
}
