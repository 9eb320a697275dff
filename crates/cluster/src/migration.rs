//! Migration: moving a batch tenant between nodes.
//!
//! A cross-node move reuses the churn machinery the single-node control
//! plane already has: it is a **drain on the source** (the tenant stops
//! being scheduled there at the next slice boundary) plus an **admit on
//! the destination**, separated by a modeled migration cost of
//! [`COST_QUANTA`] whole quanta during which the tenant executes nowhere
//! — the degraded-service window of copying its state.
//! While in flight the tenant's cluster-visible lifecycle state is
//! `Relocating(Node(dest))`, the relocation target the lifecycle state
//! machine carries since this refactor.
//!
//! Because the move *is* a drain plus an admit, a migration is
//! bit-identical to issuing the same drain and the same (delayed) admit
//! by hand — `tests/cluster.rs` pins that equivalence.

use cuttlesys::control::{AdmissionError, ControlError};
use cuttlesys::lifecycle::NodeId;

use crate::coordinator::ClusterTenantId;

/// Modeled cost of a move: whole quanta between the source drain and the
/// destination admit (state transfer is never free).
pub const COST_QUANTA: usize = 2;

/// How many times a rejected destination admit is retried (against the
/// next-best placement, with bounded backoff) before the move is abandoned
/// and the tenant retires drained.
pub const MAX_RETRIES: usize = 3;

/// Retry backoff ceiling, in quanta: attempt `k` waits
/// `min(COST_QUANTA · 2^k, RETRY_CAP_QUANTA)` before re-admitting.
pub const RETRY_CAP_QUANTA: usize = 8;

/// Migration policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationConfig {
    /// When `Some(r)`, the coordinator auto-migrates: a node whose worst
    /// tail ratio exceeds `r` after a quantum offloads its most recently
    /// placed live batch tenant to the best-scoring other node.
    pub auto_tail_ratio: Option<f64>,
}

/// One tenant mid-move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InFlight {
    /// The moving tenant.
    pub tenant: ClusterTenantId,
    /// Where it came from.
    pub from: NodeId,
    /// Where it is headed.
    pub dest: NodeId,
    /// The quantum at whose start the destination admit happens.
    pub admit_at: usize,
    /// How many destination admits have been refused so far; drives the
    /// retry backoff and the abandon threshold.
    pub attempts: usize,
}

/// Why a migration request was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrateError {
    /// No tenant has this id.
    UnknownTenant(ClusterTenantId),
    /// Only batch tenants move; LC tenants are pinned to their node (their
    /// traffic shifts instead, via the balance policy).
    NotABatchTenant(ClusterTenantId),
    /// The tenant is already relocating: mid-move, or parked in the
    /// displaced queue.
    AlreadyInFlight(ClusterTenantId),
    /// Source and destination are the same node.
    SameNode(NodeId),
    /// The destination node id is not in the cluster.
    UnknownNode(NodeId),
    /// The source node refused the drain (e.g. the tenant is not live).
    Source(ControlError),
    /// The destination's admission control rejected the tenant when the
    /// move completed; the tenant retires drained.
    Rejected(AdmissionError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::UnknownTenant(t) => write!(f, "unknown cluster tenant {t}"),
            MigrateError::NotABatchTenant(t) => {
                write!(f, "tenant {t} is latency-critical and pinned to its node")
            }
            MigrateError::AlreadyInFlight(t) => write!(f, "tenant {t} is already relocating"),
            MigrateError::SameNode(n) => write!(f, "tenant already lives on {n}"),
            MigrateError::UnknownNode(n) => write!(f, "unknown node {n}"),
            MigrateError::Source(e) => write!(f, "source drain failed: {e}"),
            MigrateError::Rejected(e) => write!(f, "destination rejected the move: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_parties() {
        let t = ClusterTenantId::from_index(4);
        assert!(MigrateError::UnknownTenant(t).to_string().contains("c4"));
        assert!(MigrateError::NotABatchTenant(t)
            .to_string()
            .contains("pinned"));
        assert!(MigrateError::SameNode(NodeId::from_index(2))
            .to_string()
            .contains("n2"));
    }

    #[test]
    fn default_cost_is_nonzero() {
        const { assert!(COST_QUANTA >= 1 && MAX_RETRIES >= 1 && RETRY_CAP_QUANTA >= COST_QUANTA) };
        assert_eq!(MigrationConfig::default().auto_tail_ratio, None);
    }
}
