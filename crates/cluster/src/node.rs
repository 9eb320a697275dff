//! One node of the cluster: a [`ControlCore`] agent plus everything the
//! coordinator knows about it ([`NodeHealth`]), what the fault plan has
//! done to it, and the local rows a blackout left stale — so every node
//! fact the coordinator's phases and cross-node policies read has one name
//! here.

use std::sync::Arc;

use cuttlesys::control::{ControlCore, ControlError, TenantId, TenantKind};
use cuttlesys::lifecycle::NodeId;
use cuttlesys::matrices::FactorLibrary;
use cuttlesys::types::{Scenario, SliceRecord};
use workloads::batch::SpecBenchmark;

use crate::faults::NodeQuantumFaults;
use crate::health::NodeHealth;
use crate::placement::PlacementScore;

/// What the fault plan has done to one node so far — mechanical truth,
/// as opposed to the coordinator's *knowledge* in [`NodeHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct NodeFate {
    /// The node crashed; it never steps again.
    crashed: bool,
    /// The node was drained for maintenance; it never steps again.
    drained: bool,
    /// Blacked out (silent but alive) until this quantum.
    silent_until: usize,
}

/// A per-node agent: the node's control plane, stepped by the coordinator
/// one lockstep quantum at a time, with the coordinator's record of the
/// node's health and faults.
pub struct NodeAgent {
    core: ControlCore,
    health: NodeHealth,
    fate: NodeFate,
    /// Local rows evacuated elsewhere while the node was unobservable but
    /// alive (blackout split-brain); drained when the node rejoins.
    stale_locals: Vec<TenantId>,
}

impl NodeAgent {
    /// Builds the agent for `node` over its scenario, sharing `library`
    /// (learned for `scenario.params`) with the fleet's other nodes on that
    /// chip. The node starts Up and untouched by faults.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ControlCore::on_node`].
    pub fn new(scenario: &Scenario, node: NodeId, library: Arc<FactorLibrary>) -> NodeAgent {
        NodeAgent {
            core: ControlCore::sharing(scenario, node, library),
            health: NodeHealth::Up,
            fate: NodeFate::default(),
            stale_locals: Vec::new(),
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.core.node()
    }

    /// The node's control plane.
    pub fn core(&self) -> &ControlCore {
        &self.core
    }

    /// The node's control plane, mutably (the coordinator routes
    /// registrations, drains, and share updates through this).
    pub fn core_mut(&mut self) -> &mut ControlCore {
        &mut self.core
    }

    /// Consumes the agent into its control plane (for record extraction).
    pub fn into_core(self) -> ControlCore {
        self.core
    }

    /// Runs one decision quantum on this node.
    ///
    /// # Errors
    ///
    /// Propagates [`ControlError`] from the node's control plane.
    pub fn step(&mut self) -> Result<SliceRecord, ControlError> {
        self.core.step_quantum()
    }

    /// The node's health as the coordinator sees it.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// Whether the coordinator lets the node host tenants and receive
    /// traffic ([`NodeHealth::is_serving`]). This is knowledge, not ground
    /// truth: a crashed node keeps serving until its failure is detected.
    pub fn is_serving(&self) -> bool {
        self.health.is_serving()
    }

    /// Whether the node still executes steps (it has neither crashed nor
    /// been drained).
    pub fn steppable(&self) -> bool {
        !self.fate.crashed && !self.fate.drained
    }

    /// Whether the node fails to heartbeat at `quantum`: it crashed, was
    /// drained, or is blacked out.
    pub fn silent_at(&self, quantum: usize) -> bool {
        !self.steppable() || quantum < self.fate.silent_until
    }

    /// Whether local row `local` holds resources on this node.
    pub fn hosts_live(&self, local: TenantId) -> bool {
        self.core.tenant(local).is_some_and(|t| t.state().is_live())
    }

    /// Whether the node hosts a replica of LC service `lc_index`.
    pub fn serves_lc(&self, lc_index: usize) -> bool {
        self.core.scenario().num_lc() > lc_index
    }

    /// The local row of LC service `lc_index`, if the node hosts it.
    pub fn lc_tenant(&self, lc_index: usize) -> Option<TenantId> {
        self.core
            .tenants()
            .iter()
            .position(|t| {
                matches!(t.kind(), TenantKind::LatencyCritical { lc_index: li } if li == lc_index)
            })
            .map(TenantId::from_index)
    }

    /// The node's candidacy for a batch tenant running `app`: its admission
    /// arithmetic previewed, plus its same-app and total live tenants.
    pub fn placement_score(&self, app: SpecBenchmark) -> PlacementScore {
        let (required, budget) = self.core.admission_preview(app);
        let batch_jobs = self.core.scenario().batch_jobs();
        let same_app = self
            .core
            .tenants()
            .iter()
            .filter(|t| t.state().is_live())
            .filter(|t| match t.kind() {
                TenantKind::Batch { batch_index } => {
                    batch_jobs.get(batch_index).map(|b| b.app.name) == Some(app.name)
                }
                TenantKind::LatencyCritical { .. } => false,
            })
            .count();
        PlacementScore {
            node: self.id(),
            headroom_watts: budget - required,
            same_app_tenants: same_app,
            live_tenants: self.live_tenants(),
        }
    }

    /// Worst tail-latency-to-QoS ratio across this node's LC tenants in
    /// its most recent quantum (0.0 before the first step) — the signal
    /// the auto-migration policy reads.
    pub fn last_tail_ratio(&self) -> f64 {
        self.core
            .records()
            .last()
            .map(|r| {
                r.lc.iter()
                    .map(|l| l.tail_ms / l.qos_ms)
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0)
    }

    /// Tail-latency-to-QoS ratio of LC service `lc_index` in the most
    /// recent quantum (`None` before the first step or out of range) — the
    /// signal the balance policy reads.
    pub fn lc_tail_ratio(&self, lc_index: usize) -> Option<f64> {
        self.core
            .records()
            .last()
            .and_then(|r| r.lc.get(lc_index))
            .map(|l| l.tail_ms / l.qos_ms)
    }

    /// Number of live (resource-holding) tenants on this node.
    pub fn live_tenants(&self) -> usize {
        self.core
            .tenants()
            .iter()
            .filter(|t| t.state().is_live())
            .count()
    }

    /// Applies the fault plan's crash and blackout for `quantum` (its
    /// drain goes through the coordinator's evacuation instead).
    pub(crate) fn strike(&mut self, faults: NodeQuantumFaults, quantum: usize) {
        if faults.crash {
            self.fate.crashed = true;
        }
        if faults.blackout_quanta > 0 {
            let until = quantum + faults.blackout_quanta;
            self.fate.silent_until = self.fate.silent_until.max(until);
        }
    }

    /// Drains the node for maintenance: it never steps again and is Down at
    /// once. Returns the health transition, if any.
    pub(crate) fn mark_drained(&mut self) -> Option<(NodeHealth, NodeHealth)> {
        self.fate.drained = true;
        self.health.force_down()
    }

    /// Advances the health state machine on this quantum's heartbeat.
    /// Returns the transition, if any.
    pub(crate) fn observe_heartbeat(&mut self, quantum: usize) -> Option<(NodeHealth, NodeHealth)> {
        let beat = !self.silent_at(quantum);
        self.health.observe(beat)
    }

    /// Remembers a local row whose tenant was evacuated elsewhere while
    /// the node was alive but silent, so the duplicate drains on rejoin.
    pub(crate) fn remember_stale(&mut self, local: TenantId) {
        self.stale_locals.push(local);
    }

    /// Drains the stale local rows the node accumulated while it was
    /// unobservable: tenants evacuated elsewhere in the meantime must not
    /// run twice. A row may have already retired; refusals are fine.
    pub(crate) fn drop_stale_rows(&mut self) {
        for local in std::mem::take(&mut self.stale_locals) {
            let _ = self.core.deregister(local);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn a_node_steps_and_reports_its_tail_signal() {
        let s = Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: 2,
            ..Scenario::quick_demo()
        };
        let library = Arc::new(FactorLibrary::for_chip(s.params));
        let mut node = NodeAgent::new(&s, NodeId::from_index(3), library);
        assert_eq!(node.id(), NodeId::from_index(3));
        assert_eq!(node.last_tail_ratio(), 0.0, "no quantum yet");
        assert_eq!(node.lc_tail_ratio(0), None);
        node.step().unwrap();
        assert!(node.last_tail_ratio() > 0.0);
        assert_eq!(
            node.lc_tail_ratio(0),
            Some(node.last_tail_ratio()),
            "one LC tenant: the worst ratio is its ratio"
        );
        assert!(node.live_tenants() > 0);
        assert!(node.serves_lc(0) && !node.serves_lc(s.num_lc()));
        let lc = node.lc_tenant(0).expect("the LC service has a row");
        assert!(node.hosts_live(lc));
        assert_eq!(node.lc_tenant(s.num_lc()), None);
    }

    #[test]
    fn faults_change_what_the_node_does_before_what_the_coordinator_knows() {
        let s = Scenario::quick_demo();
        let library = Arc::new(FactorLibrary::for_chip(s.params));
        let mut node = NodeAgent::new(&s, NodeId::from_index(0), library);
        assert!(node.steppable() && node.is_serving() && !node.silent_at(0));
        let blackout = NodeQuantumFaults {
            blackout_quanta: 2,
            ..NodeQuantumFaults::NONE
        };
        node.strike(blackout, 1);
        assert!(node.silent_at(1) && node.silent_at(2) && !node.silent_at(3));
        assert!(node.steppable(), "a blacked-out node keeps stepping");
        let crash = NodeQuantumFaults {
            crash: true,
            ..NodeQuantumFaults::NONE
        };
        node.strike(crash, 3);
        assert!(!node.steppable() && node.silent_at(9));
        assert!(node.is_serving(), "a crash is unknown until detected");
        assert_eq!(
            node.mark_drained(),
            Some((NodeHealth::Up, NodeHealth::Down))
        );
        assert_eq!(node.mark_drained(), None, "down stays down");
        assert!(!node.is_serving());
    }
}
