//! Relocation: moving a batch tenant between nodes, and parking the ones
//! the fleet has no room for.
//!
//! A cross-node move reuses the churn machinery the single-node control
//! plane already has: it is a **drain on the source** (the tenant stops
//! being scheduled there at the next slice boundary) plus an **admit on
//! the destination**, separated by a modeled migration cost of
//! [`COST_QUANTA`] whole quanta during which the tenant executes nowhere
//! — the degraded-service window of copying its state.
//! While in flight the tenant's cluster-visible lifecycle state is
//! `Relocating(Node(dest))`.
//!
//! An evacuee from a failed node that no serving node can admit has no
//! destination yet: it is `Relocating(Displaced)` until a placement retry
//! succeeds. Both kinds of relocating tenant are one `Relocation` record
//! in one ordered table, and both wait [`retry_backoff`] quanta between
//! attempts — from [`COST_QUANTA`] for a refused move, from [`RETRY_BASE`]
//! for a failed placement, under one [`RETRY_CAP`].
//!
//! Because the move *is* a drain plus an admit, a migration is
//! bit-identical to issuing the same drain and the same (delayed) admit
//! by hand — `tests/cluster.rs` pins that equivalence.

use cuttlesys::lifecycle::{NodeId, RelocationTarget};

use crate::coordinator::ClusterTenantId;

/// Modeled cost of a move: whole quanta between the source drain and the
/// destination admit (state transfer is never free).
pub const COST_QUANTA: usize = 2;

/// How many times a rejected destination admit is retried (against the
/// next-best placement, with bounded backoff) before the move is abandoned
/// and the tenant retires drained.
pub const MAX_RETRIES: usize = 3;

/// Backoff base of a displaced tenant's placement retries, in quanta (the
/// first retry waits this).
pub const RETRY_BASE: usize = 1;

/// Backoff ceiling of every relocation retry, in quanta.
pub const RETRY_CAP: usize = 8;

/// Migration policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationConfig {
    /// When `Some(r)`, the coordinator auto-migrates: a node whose worst
    /// tail ratio exceeds `r` after a quantum offloads its most recently
    /// placed live batch tenant to the best-scoring other node.
    pub auto_tail_ratio: Option<f64>,
}

/// One relocating tenant: in flight to a known node, or displaced with no
/// destination yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Relocation {
    /// The relocating tenant.
    pub tenant: ClusterTenantId,
    /// The node it left.
    pub from: NodeId,
    /// `Node(dest)` while in flight, `Displaced` while parked.
    pub target: RelocationTarget,
    /// The quantum at whose start the next admit (or placement retry)
    /// happens.
    pub due: usize,
    /// Refused admits (or failed placements) so far; drives the backoff
    /// and, for a move, the abandon threshold.
    pub attempts: usize,
}

impl Relocation {
    /// The destination of an in-flight move; `None` while displaced.
    pub fn dest(&self) -> Option<NodeId> {
        match self.target {
            RelocationTarget::Node(dest) => Some(dest),
            RelocationTarget::Displaced => None,
        }
    }
}

/// Bounded exponential backoff, in quanta: `min(base · 2^attempts,
/// RETRY_CAP)`. Pure arithmetic over quantum counts — deterministic and
/// replayable.
pub fn retry_backoff(base: usize, attempts: usize) -> usize {
    base.saturating_mul(1usize << attempts.min(16))
        .min(RETRY_CAP)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn default_cost_is_nonzero() {
        const { assert!(COST_QUANTA >= 1 && MAX_RETRIES >= 1 && RETRY_CAP >= COST_QUANTA) };
        assert_eq!(MigrationConfig::default().auto_tail_ratio, None);
    }

    #[test]
    fn retry_backoff_doubles_and_saturates_at_the_cap() {
        let waits: Vec<usize> = (0..6).map(|k| retry_backoff(RETRY_BASE, k)).collect();
        assert_eq!(waits, vec![1, 2, 4, 8, 8, 8]);
        let waits: Vec<usize> = (0..4).map(|k| retry_backoff(COST_QUANTA, k)).collect();
        assert_eq!(waits, vec![2, 4, 8, 8]);
        // Huge attempt counts cannot overflow.
        assert_eq!(retry_backoff(RETRY_BASE, usize::MAX), RETRY_CAP);
    }
}
