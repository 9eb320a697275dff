//! Cluster-scale CuttleSys: N per-node agents under one deterministic
//! coordinator.
//!
//! The paper manages a single 32-core reconfigurable chip. This crate
//! lifts that per-chip manager into a two-level architecture in the shape
//! of Google-scale cluster schedulers: each simulated node runs its own
//! [`cuttlesys::control::ControlCore`] (driver + manager + tenant table),
//! wrapped in a [`NodeAgent`] that also holds everything the coordinator
//! knows about and has done to the node (its health, its faults, its
//! stale rows), and a [`ClusterCoordinator`] steps every node through the
//! same 100 ms decision quantum in lockstep, making the *cross-node*
//! decisions the per-node agents cannot:
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
//!   cluster-visible lifecycle state is `Relocating(Node(dest))`. In-flight
//!   and displaced tenants share one ordered relocation table and one
//!   bounded retry backoff.
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
//!   replicas through the same share shift balancing uses), unplaceable tenants park `Relocating(Displaced)` with
//!   bounded backoff, and sustained infeasibility engages a hysteretic
//!   fleet degraded mode that sheds batch work (never LC traffic).
//!
//! # Determinism rules
//!
//! Everything here is sans-io: no wall clock, no sockets. The only
//! threads are those of one [`util::WorkerPool`] scope per quantum, in
//! which the nodes step. Determinism rests on two structural rules:
//!
//! 1. **Nodes share no mutable state within a quantum.** Each node's step
//!    is a pure function of its own state, so
//!    [`ClusterCoordinator::step_quantum`] steps them concurrently, one
//!    job per node, and reduces their errors in ascending [`NodeId`] order
//!    once every job has finished. What nodes do share is read-only in
//!    effect: the coordinator takes one
//!    [`cuttlesys::matrices::FactorLibrary`] per distinct chip
//!    (`Scenario::params`) from a [`cuttlesys::matrices::Libraries`] and
//!    hands it to every node on that chip. Its
//!    lazily learned tail buckets are pure functions of (chip, bucket),
//!    filled once behind a `OnceLock`, and each node counts a bucket's
//!    SGD epochs the first time *it* meets the bucket, so which node
//!    learned it moves no bit.
//! 2. **Cross-node decisions are serial and node-id-ordered.** Migration
//!    completions, event draining, balancing, and auto-migration all
//!    read and mutate state in ascending [`NodeId`] order, after every
//!    node has stepped. Ties break toward the lowest node id.
//!
//! A one-node cluster is the degenerate case: every cross-node policy is
//! a no-op, node 0 keeps the base scenario's seed
//! ([`topology::node_seed_salt`] of 0 is 0), and the traffic share
//! multiplier stays exactly 1.0 — so the cluster replays the single-node
//! run bit-for-bit (`tests/cluster.rs` pins this).

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
pub use faults::{FleetFaultKind, FleetFaultPlan, NodeQuantumFaults, ScheduledFault};
pub use health::NodeHealth;
pub use migration::MigrationConfig;
pub use node::NodeAgent;
pub use placement::PlacementScore;
pub use topology::ClusterScenario;
