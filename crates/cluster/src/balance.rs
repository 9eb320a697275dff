//! Cross-node load balancing: shifting LC traffic between replicas.
//!
//! LC tenants are pinned to their nodes (their matrix rows, phase state,
//! and queue histories live there), so the cluster rebalances them by
//! moving *traffic*, not tenants: every node's [`ScenarioDriver`] carries
//! a per-service share multiplier (1.0 by default), and after each
//! lockstep quantum the coordinator moves a fraction of share from the
//! replica with the worst tail-latency-to-QoS ratio to the one with the
//! best, whenever the worst breaches the threshold. The sum of shares is
//! conserved, so the fleet-wide offered load is unchanged — only its
//! distribution moves.
//!
//! [`ScenarioDriver`]: cuttlesys::ScenarioDriver

use cuttlesys::lifecycle::NodeId;

/// A replica whose tail ratio (`tail_ms / qos_ms`) exceeds this after a
/// quantum sheds traffic: balance on QoS violation.
pub const TAIL_RATIO_THRESHOLD: f64 = 1.0;

/// Share moved per breach, in absolute share units.
pub const SHIFT: f64 = 0.1;

/// No replica's share drops below this (a drained replica could never
/// recover: with no traffic its tail looks perfect forever).
pub const MIN_SHARE: f64 = 0.25;

/// Turns traffic balancing on when set as [`crate::ClusterConfig::balance`];
/// the policy's numbers are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BalanceConfig;

/// One share movement the policy decided: `amount` of service
/// `lc_index`'s share moves `from → to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareShift {
    /// The LC service (its index on every node of a uniform fleet).
    pub lc_index: usize,
    /// The replica shedding traffic.
    pub from: NodeId,
    /// The replica absorbing it.
    pub to: NodeId,
    /// Share units moved.
    pub amount: f64,
}

/// Decides the share shift for one LC service given each *hosting*
/// replica's `(node, tail_ratio, current_share)` in node-id order. Nodes
/// that don't host the service (or are down) simply don't appear — the
/// fleet is no longer truncated to its narrowest node. Returns `None`
/// when fewer than two replicas exist, no replica breaches, or the
/// breacher is already at the share floor. Ties break toward the lowest
/// node id on both ends (callers pass replicas in node-id order; the
/// first extremum wins).
pub fn decide_shift(lc_index: usize, replicas: &[(NodeId, f64, f64)]) -> Option<ShareShift> {
    if replicas.len() < 2 {
        return None;
    }
    let (mut worst, mut best) = (0usize, 0usize);
    for (i, (_, ratio, _)) in replicas.iter().enumerate() {
        // Strict comparisons: the first (lowest-id) extremum wins ties.
        if *ratio > replicas[worst].1 {
            worst = i;
        }
        if *ratio < replicas[best].1 {
            best = i;
        }
    }
    let (_, worst_ratio, worst_share) = replicas[worst];
    if worst_ratio <= TAIL_RATIO_THRESHOLD || worst == best {
        return None;
    }
    let amount = SHIFT.min(worst_share - MIN_SHARE);
    if amount <= 0.0 {
        return None;
    }
    Some(ShareShift {
        lc_index,
        from: replicas[worst].0,
        to: replicas[best].0,
        amount,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn a_breaching_replica_sheds_to_the_best() {
        let replicas = [(n(0), 0.4, 1.0), (n(1), 1.3, 1.0), (n(2), 0.9, 1.0)];
        let shift = decide_shift(0, &replicas).unwrap();
        assert_eq!(shift.from, n(1));
        assert_eq!(shift.to, n(0));
        assert!((shift.amount - SHIFT).abs() < 1e-12);
    }

    #[test]
    fn no_breach_or_single_node_means_no_shift() {
        assert_eq!(decide_shift(0, &[(n(0), 0.9, 1.0), (n(1), 0.8, 1.0)]), None);
        assert_eq!(decide_shift(0, &[(n(0), 5.0, 1.0)]), None, "one node");
        assert_eq!(decide_shift(0, &[]), None);
    }

    #[test]
    fn the_share_floor_caps_the_shift() {
        // Breacher is 0.05 above the floor: only that much can move.
        let shift = decide_shift(2, &[(n(0), 1.5, 0.30), (n(1), 0.2, 1.7)]).unwrap();
        assert!((shift.amount - 0.05).abs() < 1e-12);
        assert_eq!(shift.lc_index, 2);
        // At the floor: nothing moves.
        assert_eq!(
            decide_shift(0, &[(n(0), 1.5, 0.25), (n(1), 0.2, 1.75)]),
            None
        );
    }

    #[test]
    fn ties_break_toward_the_lowest_node_id() {
        let replicas = [
            (n(0), 0.3, 1.0),
            (n(1), 0.3, 1.0),
            (n(2), 1.2, 1.0),
            (n(3), 1.2, 1.0),
        ];
        let shift = decide_shift(0, &replicas).unwrap();
        assert_eq!(shift.from, n(2), "first worst wins");
        assert_eq!(shift.to, n(0), "first best wins");
    }

    #[test]
    fn a_sparse_fleet_balances_among_its_hosting_nodes_only() {
        // Nodes 0 and 3 host this LC; 1 and 2 do not and are simply absent
        // — the decision still pairs the real node ids.
        let shift = decide_shift(1, &[(n(0), 1.4, 1.0), (n(3), 0.5, 1.0)]).unwrap();
        assert_eq!(shift.from, n(0));
        assert_eq!(shift.to, n(3));
    }
}
