//! One node of the cluster: a [`ControlCore`] agent plus the per-quantum
//! readings the coordinator's cross-node policies consume.

use std::sync::Arc;

use cuttlesys::control::{ControlCore, ControlError};
use cuttlesys::lifecycle::NodeId;
use cuttlesys::matrices::FactorLibrary;
use cuttlesys::types::{Scenario, SliceRecord};

/// A per-node agent: the node's control plane, stepped by the coordinator
/// one lockstep quantum at a time.
pub struct NodeAgent {
    core: ControlCore,
}

impl NodeAgent {
    /// Builds the agent for `node` over its scenario, sharing `library`
    /// (learned for `scenario.params`) with the fleet's other nodes on that
    /// chip.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ControlCore::on_node`].
    pub fn new(scenario: &Scenario, node: NodeId, library: Arc<FactorLibrary>) -> NodeAgent {
        NodeAgent {
            core: ControlCore::sharing(scenario, node, library),
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

    /// The most recent quantum's record, if the node has stepped.
    pub fn last_record(&self) -> Option<&SliceRecord> {
        self.core.records().last()
    }

    /// Worst tail-latency-to-QoS ratio across this node's LC tenants in
    /// its most recent quantum (0.0 before the first step) — the signal
    /// the balance and auto-migration policies read.
    pub fn last_tail_ratio(&self) -> f64 {
        self.last_record()
            .map(|r| {
                r.lc.iter()
                    .map(|l| l.tail_ms / l.qos_ms)
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0)
    }

    /// Tail-latency-to-QoS ratio of LC service `lc_index` in the most
    /// recent quantum (`None` before the first step or out of range).
    pub fn lc_tail_ratio(&self, lc_index: usize) -> Option<f64> {
        self.last_record()
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
    }
}
