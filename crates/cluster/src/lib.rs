//! Cluster-scale CuttleSys: N per-node agents under one deterministic
//! coordinator.
//!
//! The paper manages a single 32-core reconfigurable chip. This crate
//! lifts that per-chip manager into a two-level architecture in the shape
//! of Google-scale cluster schedulers: each simulated node runs its own
//! [`cuttlesys::control::ControlCore`] (driver + manager + tenant table),
//! and a [`ClusterCoordinator`] steps every node through the same 100 ms
//! decision quantum in lockstep, making the *cross-node* decisions the
//! per-node agents cannot:
//!
//! * **Placement** ([`placement`]) — a registering batch tenant is
//!   bin-packed onto a node by reconstructed demand against each node's
//!   steady-state power budget (the same admission arithmetic the node
//!   itself enforces, previewed via
//!   [`cuttlesys::control::ControlCore::admission_preview`]), shaped by
//!   affinity and contention scores.
//! * **Migration** ([`migration`]) — a cross-node move is a drain on the
//!   source plus an admit on the destination, with a modeled cost in
//!   whole quanta during which the tenant is in flight and its
//!   cluster-visible lifecycle state is `Relocating(Node(dest))`.
//! * **Balance** ([`balance`]) — when a node's worst tail-latency-to-QoS
//!   ratio breaches a threshold, the coordinator shifts a fraction of
//!   that service's traffic share to the least-loaded replica,
//!   conserving the total offered load.
//! * **Fault tolerance** ([`faults`], [`health`]) — a
//!   [`FleetFaultPlan`] deterministically injects seeded node crashes and
//!   scheduled crashes, blackouts, and maintenance drains; a per-node
//!   [`NodeHealth`] state machine driven by quantum-counted heartbeat
//!   timeouts detects them; detection triggers evacuation (batch tenants
//!   re-enter admission elsewhere, LC traffic folds onto surviving
//!   replicas), unplaceable tenants park in a displaced queue with
//!   bounded backoff, and sustained infeasibility engages a hysteretic
//!   fleet degraded mode that sheds batch work, then shrinks LC shares
//!   toward safe-mode allocations.
//!
//! # Determinism rules
//!
//! Everything here is sans-io: no wall clock, no sockets, no threads.
//! Determinism rests on two structural rules:
//!
//! 1. **Nodes are share-nothing within a quantum.** Each node's step is a
//!    pure function of its own state, and
//!    [`ClusterCoordinator::step_quantum`] steps them in one loop in
//!    ascending [`NodeId`] order.
//! 2. **Cross-node decisions are serial and node-id-ordered.** Migration
//!    completions, event draining, balancing, and auto-migration all
//!    read and mutate state in ascending [`NodeId`] order, after every
//!    node has stepped. Ties break toward the lowest node id.
//!
//! A one-node cluster is the degenerate case: every cross-node policy is
//! a no-op, node 0 keeps the base scenario's seed
//! ([`topology::node_seed_salt`] of 0 is 0), and the traffic share
//! multiplier stays exactly 1.0 — so the cluster replays the single-node
//! golden record bit-for-bit (`tests/cluster.rs` pins this).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod balance;
pub mod coordinator;
pub mod faults;
pub mod health;
pub mod migration;
pub mod node;
pub mod placement;
pub mod topology;

pub use balance::BalanceConfig;
pub use coordinator::{
    ClusterConfig, ClusterCoordinator, ClusterError, ClusterEvent, ClusterRecord, ClusterSnapshot,
    ClusterTenantId, ClusterTenantSnapshot,
};
pub use cuttlesys::lifecycle::{NodeId, RelocationTarget};
pub use faults::{
    FleetFaultInjector, FleetFaultKind, FleetFaultPlan, NodeQuantumFaults, ScheduledFault,
};
pub use health::NodeHealth;
pub use migration::{MigrateError, MigrationConfig};
pub use node::NodeAgent;
pub use placement::{PlacementError, PlacementScore};
pub use topology::ClusterScenario;
