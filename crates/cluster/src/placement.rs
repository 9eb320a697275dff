//! Placement: which node a registering tenant lands on.
//!
//! The coordinator previews every node's admission arithmetic (the same
//! worst-case-power-versus-steady-state-budget check the node itself will
//! enforce) and scores the feasible nodes:
//!
//! ```text
//! score = headroom_watts
//!       + AFFINITY_WEIGHT   × (live tenants running the same app)
//!       − CONTENTION_WEIGHT × (live tenants, total)
//! ```
//!
//! Headroom is the bin-packing term (most spare budget wins), affinity
//! rewards co-locating replicas of the same application (their matrix
//! rows and phase behavior are already characterized on that node), and
//! contention penalizes piling onto an already-crowded chip — the
//! compiler-guided-throughput-scheduling signal reduced to tenant count.
//! Ties break toward the lowest [`NodeId`], which keeps placement a pure
//! function of cluster state.

use cuttlesys::lifecycle::NodeId;

/// Watts-equivalent bonus per live same-app tenant on the node.
pub const AFFINITY_WEIGHT: f64 = 0.5;

/// Watts-equivalent penalty per live tenant on the node.
pub const CONTENTION_WEIGHT: f64 = 0.25;

/// One node's scored placement candidacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementScore {
    /// The node being scored.
    pub node: NodeId,
    /// Steady-state budget minus committed-plus-candidate worst case (W).
    /// Negative headroom means the node cannot admit the candidate.
    pub headroom_watts: f64,
    /// Live tenants on the node running the same application.
    pub same_app_tenants: usize,
    /// Live tenants on the node, total.
    pub live_tenants: usize,
}

impl PlacementScore {
    /// The combined score (higher is better).
    pub fn total(&self) -> f64 {
        self.headroom_watts + AFFINITY_WEIGHT * self.same_app_tenants as f64
            - CONTENTION_WEIGHT * self.live_tenants as f64
    }

    /// Whether the node can admit the candidate at all.
    pub fn feasible(&self) -> bool {
        self.headroom_watts >= 0.0
    }
}

/// Why placement could not choose a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementError {
    /// No node has the worst-case headroom to admit the candidate. The
    /// fields report the least-bad node's arithmetic.
    NoCapacity {
        /// The closest-to-feasible node.
        closest: NodeId,
        /// Committed + candidate worst-case power on that node (W).
        required_watts: f64,
        /// The steady-state budget it had to fit (W).
        budget_watts: f64,
    },
    /// The destination node id is not in the cluster.
    UnknownNode(NodeId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCapacity {
                closest,
                required_watts,
                budget_watts,
            } => write!(
                f,
                "no node can place the tenant: closest is {closest} needing \
                 {required_watts:.1} W against {budget_watts:.1} W"
            ),
            PlacementError::UnknownNode(node) => write!(f, "unknown node {node}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Picks the best feasible node: highest [`PlacementScore::total`], ties
/// toward the lowest node id. `None` when no node is feasible.
pub fn pick_best(scores: &[PlacementScore]) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for s in scores.iter().filter(|s| s.feasible()) {
        let total = s.total();
        let better = match best {
            None => true,
            // Strict inequality: on a tie the earlier (lower-id) node wins,
            // because scores arrive in node-id order.
            Some((_, b)) => total > b,
        };
        if better {
            best = Some((s.node, total));
        }
    }
    best.map(|(node, _)| node)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn score(i: usize, headroom: f64, same: usize, live: usize) -> PlacementScore {
        PlacementScore {
            node: NodeId::from_index(i),
            headroom_watts: headroom,
            same_app_tenants: same,
            live_tenants: live,
        }
    }

    #[test]
    fn headroom_dominates_and_ties_break_low() {
        let scores = [
            score(0, 4.0, 0, 0),
            score(1, 9.0, 0, 0),
            score(2, 9.0, 0, 0),
        ];
        assert_eq!(pick_best(&scores), Some(NodeId::from_index(1)));
        let tied = [score(0, 9.0, 0, 0), score(1, 9.0, 0, 0)];
        assert_eq!(pick_best(&tied), Some(NodeId::from_index(0)));
    }

    #[test]
    fn affinity_attracts_and_contention_repels() {
        // Equal headroom: the node already running two replicas wins.
        let scores = [score(0, 5.0, 0, 0), score(1, 5.0, 2, 2)];
        assert_eq!(pick_best(&scores), Some(NodeId::from_index(1)));
        // Same-app count equal: the emptier node wins.
        let scores = [score(0, 5.0, 0, 8), score(1, 5.0, 0, 1)];
        assert_eq!(pick_best(&scores), Some(NodeId::from_index(1)));
    }

    #[test]
    fn infeasible_nodes_never_win() {
        let scores = [score(0, -0.1, 9, 0), score(1, 0.0, 0, 9)];
        assert_eq!(pick_best(&scores), Some(NodeId::from_index(1)));
        assert_eq!(pick_best(&[score(0, -1.0, 0, 0)]), None);
    }

    #[test]
    fn errors_render_their_arithmetic() {
        let e = PlacementError::NoCapacity {
            closest: NodeId::from_index(2),
            required_watts: 12.5,
            budget_watts: 10.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("n2") && msg.contains("12.5") && msg.contains("10.0"));
        assert!(PlacementError::UnknownNode(NodeId::from_index(7))
            .to_string()
            .contains("n7"));
    }
}
