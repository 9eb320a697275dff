//! Cluster topologies: which scenario each node runs.
//!
//! A cluster is just a list of per-node [`Scenario`]s stepped in lockstep.
//! The common case is a *uniform* fleet — every node runs the same job mix
//! under the same cap — differing only in the per-node seed, so noise and
//! phase draws decorrelate across nodes the way independent machines do.

use cuttlesys::faults::FaultPlan;
use cuttlesys::types::Scenario;
use workloads::loadgen::LoadPattern;

/// Per-node seed salt: a golden-ratio multiplicative mix of the node
/// index. Node 0's salt is 0, so the first node replays the base
/// scenario's seed exactly — that is what lets a one-node cluster
/// reproduce the single-node run bit-for-bit.
pub fn node_seed_salt(index: usize) -> u64 {
    (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The scenarios a cluster's nodes run, in node-id order.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// One scenario per node; index `i` is node `n{i}`.
    pub nodes: Vec<Scenario>,
}

impl ClusterScenario {
    /// A uniform fleet: `nodes` copies of `base`, node `i` reseeded with
    /// `base.seed ^ node_seed_salt(i)` (node 0 keeps the base seed).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero — an empty cluster cannot step.
    pub fn uniform(base: &Scenario, nodes: usize) -> ClusterScenario {
        assert!(nodes > 0, "a cluster needs at least one node");
        ClusterScenario {
            nodes: (0..nodes)
                .map(|i| {
                    let mut s = base.clone();
                    s.seed = base.seed ^ node_seed_salt(i);
                    s
                })
                .collect(),
        }
    }

    /// Number of nodes in the topology.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Replaces every node's quantum count.
    #[must_use]
    pub fn with_duration_slices(mut self, slices: usize) -> ClusterScenario {
        for node in &mut self.nodes {
            node.duration_slices = slices;
        }
        self
    }

    /// Replaces every node's power-cap pattern.
    #[must_use]
    pub fn with_cap(mut self, cap: LoadPattern) -> ClusterScenario {
        for node in &mut self.nodes {
            node.cap = cap.clone();
        }
        self
    }

    /// Re-seeds the fleet from a new base seed: node `i` gets
    /// `seed ^ node_seed_salt(i)`, the same derivation
    /// [`ClusterScenario::uniform`] uses, so node 0 keeps `seed` exactly.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ClusterScenario {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.seed = seed ^ node_seed_salt(i);
        }
        self
    }

    /// Replaces every node's single-node fault plan, re-salting the plan
    /// seed per node so fault draws decorrelate across the fleet the same
    /// way scenario seeds do.
    #[must_use]
    pub fn with_node_faults(mut self, faults: FaultPlan) -> ClusterScenario {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let mut plan = faults.clone();
            plan.seed = faults.seed ^ node_seed_salt(i);
            node.faults = plan;
        }
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn uniform_reseeds_every_node_but_the_first() {
        let base = Scenario::quick_demo();
        let cs = ClusterScenario::uniform(&base, 4);
        assert_eq!(cs.num_nodes(), 4);
        assert_eq!(cs.nodes[0].seed, base.seed, "node 0 keeps the base seed");
        let mut seeds: Vec<u64> = cs.nodes.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "per-node seeds are distinct");
        assert!(cs.nodes.iter().all(|s| s.jobs.len() == base.jobs.len()));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn an_empty_cluster_is_rejected() {
        ClusterScenario::uniform(&Scenario::quick_demo(), 0);
    }

    #[test]
    fn setters_apply_fleet_wide_and_preserve_salts() {
        let base = Scenario::quick_demo();
        let cs = ClusterScenario::uniform(&base, 3)
            .with_duration_slices(7)
            .with_cap(LoadPattern::Constant(0.5))
            .with_seed(99)
            .with_node_faults(FaultPlan::lossy_sensors(11));
        for (i, node) in cs.nodes.iter().enumerate() {
            assert_eq!(node.duration_slices, 7);
            assert_eq!(node.cap, LoadPattern::Constant(0.5));
            assert_eq!(node.seed, 99 ^ node_seed_salt(i));
            assert_eq!(node.faults.seed, 11 ^ node_seed_salt(i));
            assert!(!node.faults.is_clean());
        }
        // The derivation matches `uniform` itself: re-seeding with the
        // original seed reproduces the uniform fleet.
        let reseeded = ClusterScenario::uniform(&base, 3).with_seed(base.seed);
        let direct = ClusterScenario::uniform(&base, 3);
        for (a, b) in reseeded.nodes.iter().zip(&direct.nodes) {
            assert_eq!(a.seed, b.seed);
        }
    }
}
