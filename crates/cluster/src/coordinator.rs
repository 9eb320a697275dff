//! The deterministic cluster coordinator.
//!
//! [`ClusterCoordinator`] owns N [`NodeAgent`]s and steps them through the
//! same 100 ms decision quantum in lockstep. One quantum is six phases,
//! in a fixed order:
//!
//! 0. **Health** (serial, node-id order): inject this quantum's planned
//!    fleet faults ([`FleetFaultPlan`]), observe every node's heartbeat
//!    (did it answer the previous steps, or is it crashed, drained or
//!    blacked out?), advance each node's [`NodeHealth`] state machine,
//!    evacuate nodes newly declared Down, retry displaced tenants with
//!    bounded backoff, and run the fleet degraded-mode hysteresis.
//! 1. **Complete due migrations** (serial, start order): a tenant whose
//!    modeled migration cost has elapsed is admitted on its destination;
//!    a refusal schedules a bounded retry against the next-best node.
//! 2. **Step every steppable node**, concurrently: each node is one job
//!    of a single [`WorkerPool`] scope, and a node's step reads and writes
//!    only its own state. Errors are reduced in node-id order after the
//!    scope joins. Crashed and drained nodes never step again; blacked-out
//!    nodes keep stepping (they are alive, just unobservable — the
//!    split-brain is reconciled on rejoin).
//! 3. **Drain node events** into the cluster event queue, in node-id
//!    order.
//! 4. **Balance** LC traffic shares from the quantum's tail ratios.
//! 5. **Auto-migrate** (when configured): a node still breaching after
//!    balancing offloads its most recently placed batch tenant.
//!
//! Every other phase runs serially in node-id order. Together with phase
//! 2's jobs, which share no mutable state (only each chip's factor library,
//! whose entries are pure), that is the whole determinism argument (see the
//! crate docs), and `tests/cluster.rs` plus
//! `tests/fleet_resilience.rs` pin the results it yields. With
//! [`FleetFaultPlan::none`] phase 0 observes a clean heartbeat on every Up
//! node and does nothing at all, so a fault-free coordinator is
//! bit-identical to one built before faults existed.

use cuttlesys::control::AdmissionError;
use cuttlesys::control::{ControlError, ControlEvent, ControlSnapshot, TenantId, TenantKind};
use cuttlesys::lifecycle::{LifecycleState, NodeId, RelocationTarget};
use cuttlesys::matrices::Libraries;
use cuttlesys::types::RunRecord;
use util::json::JsonValue;
use util::pool::{for_each_slot, WorkerPool};
use workloads::batch::SpecBenchmark;

use crate::balance::{decide_shift, BalanceConfig};
use crate::faults::FleetFaultPlan;
use crate::health::{DegradedMode, NodeHealth};
use crate::migration::{
    retry_backoff, MigrationConfig, Relocation, COST_QUANTA, MAX_RETRIES, RETRY_BASE,
};
use crate::node::NodeAgent;
use crate::placement::{pick_best, PlacementScore};
use crate::topology::ClusterScenario;

/// Opaque handle to one tenant in the cluster's tenant table. Ids are
/// never reused; a migrated tenant keeps its id across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterTenantId(usize);

impl ClusterTenantId {
    /// The tenant's index in the cluster tenant table.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from its table index.
    pub fn from_index(index: usize) -> ClusterTenantId {
        ClusterTenantId(index)
    }
}

impl std::fmt::Display for ClusterTenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Cluster-wide policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterConfig {
    /// The auto-migration trigger.
    pub migration: MigrationConfig,
    /// Traffic balancing; `None` disables it.
    pub balance: Option<BalanceConfig>,
}

/// One row of the cluster tenant table.
#[derive(Debug, Clone)]
struct ClusterTenantEntry {
    name: String,
    /// The batch app, kept for re-admission on migration (`None` for LC
    /// tenants, which never move).
    app: Option<SpecBenchmark>,
    node: NodeId,
    local: TenantId,
}

/// A cluster-level occurrence. Per-node [`ControlEvent`]s are wrapped so
/// one drain sees the whole fleet's history in order.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// A node's control plane produced an event.
    Node(ControlEvent),
    /// Placement put a tenant on a node.
    Placed {
        /// The new tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The chosen node.
        node: NodeId,
    },
    /// A migration began: the tenant drained from `from` and is in flight.
    MigrationStarted {
        /// The moving tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The source node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The quantum at whose start the destination admit happens.
        admit_at: usize,
    },
    /// A migration completed: the tenant was admitted on its destination.
    MigrationCompleted {
        /// The moved tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The source node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The quantum at whose start the admit happened.
        quantum: usize,
    },
    /// A destination refused an in-flight tenant's admit (the node is
    /// down, or its admission control rejected the tenant). Followed by
    /// either [`ClusterEvent::MigrationRetried`] or
    /// [`ClusterEvent::MigrationAbandoned`].
    MigrationFailed {
        /// The tenant that failed to move.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The destination that rejected it.
        to: NodeId,
        /// The quantum at whose start the admit was attempted.
        quantum: usize,
    },
    /// A refused migration was re-aimed at the next-best node with
    /// bounded backoff.
    MigrationRetried {
        /// The still-in-flight tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The new destination (the old one when nothing else fits).
        to: NodeId,
        /// The quantum at whose start the next admit happens.
        admit_at: usize,
        /// Refusals so far.
        attempt: usize,
        /// The quantum of the refusal.
        quantum: usize,
    },
    /// A migration exhausted its retries; the tenant retires drained.
    MigrationAbandoned {
        /// The abandoned tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The last destination that refused it.
        to: NodeId,
        /// Total refusals.
        attempts: usize,
        /// The quantum of the final refusal.
        quantum: usize,
    },
    /// A node's health state changed (missed or recovered heartbeats, or
    /// a deliberate drain).
    NodeHealthChanged {
        /// The node.
        node: NodeId,
        /// Previous state.
        from: NodeHealth,
        /// New state.
        to: NodeHealth,
        /// The quantum of the transition.
        quantum: usize,
    },
    /// A node was deliberately drained for maintenance: tenants evacuate
    /// with warning, then the node's control plane shuts down cleanly.
    NodeDrained {
        /// The drained node.
        node: NodeId,
        /// The quantum of the drain.
        quantum: usize,
    },
    /// A tenant was moved off a failed or draining node: batch tenants
    /// re-enter admission on the destination; LC tenants fold their
    /// traffic share onto the surviving replica.
    Evacuated {
        /// The evacuated tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The failed node.
        from: NodeId,
        /// The node that took it in.
        to: NodeId,
        /// The quantum of the evacuation.
        quantum: usize,
    },
    /// An evacuated tenant had nowhere to go and was parked displaced;
    /// emitted again after every failed retry.
    Displaced {
        /// The parked tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The failed node it came from.
        from: NodeId,
        /// Placement attempts so far.
        attempts: usize,
        /// The quantum of the next retry.
        retry_at: usize,
        /// The quantum of this failure.
        quantum: usize,
    },
    /// Lost capacity left displaced tenants unplaceable for long enough;
    /// the fleet sheds batch work, one tenant a quantum, until placement
    /// is feasible again or no batch is left to shed.
    FleetDegraded {
        /// The quantum degraded mode engaged.
        quantum: usize,
    },
    /// The fleet has been feasible long enough to leave degraded mode.
    FleetRecovered {
        /// The quantum degraded mode disengaged.
        quantum: usize,
    },
    /// The balance policy moved LC traffic share between replicas.
    SharesShifted {
        /// The LC service index.
        lc_index: usize,
        /// The replica that shed traffic.
        from: NodeId,
        /// The replica that absorbed it.
        to: NodeId,
        /// Share units moved.
        amount: f64,
        /// The quantum whose tail ratios triggered the shift.
        quantum: usize,
    },
}

/// A cluster request that could not be honored.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No tenant has this id.
    UnknownTenant(ClusterTenantId),
    /// The operation applies only to batch tenants; LC tenants are pinned
    /// to their node (their traffic shifts instead, via the balance
    /// policy).
    NotABatchTenant(ClusterTenantId),
    /// The node id is not in the cluster.
    UnknownNode(NodeId),
    /// The node is already down, drained, or crashed.
    NodeUnavailable(NodeId),
    /// The tenant is relocating — in flight, or parked displaced; wait
    /// for it to settle.
    Relocating(ClusterTenantId),
    /// A migration's source and destination are the same node.
    SameNode(NodeId),
    /// Every node is down: placement has no candidate at all.
    NoServingNode,
    /// No serving node has the worst-case headroom to admit the tenant.
    /// The fields report the least-bad node's arithmetic.
    NoCapacity {
        /// The closest-to-feasible node.
        closest: NodeId,
        /// Committed + candidate worst-case power on that node (W).
        required_watts: f64,
        /// The steady-state budget it had to fit (W).
        budget_watts: f64,
    },
    /// A node's admission control rejected a directed registration.
    Admission(AdmissionError),
    /// A node's control plane refused a request (for a migration: the
    /// source refused the drain).
    Control(ControlError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownTenant(t) => write!(f, "unknown cluster tenant {t}"),
            ClusterError::NotABatchTenant(t) => {
                write!(f, "tenant {t} is latency-critical and pinned to its node")
            }
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NodeUnavailable(n) => {
                write!(f, "node {n} is already down, drained, or crashed")
            }
            ClusterError::Relocating(t) => write!(f, "tenant {t} is already relocating"),
            ClusterError::SameNode(n) => write!(f, "tenant already lives on {n}"),
            ClusterError::NoServingNode => write!(f, "no node is serving"),
            ClusterError::NoCapacity {
                closest,
                required_watts,
                budget_watts,
            } => write!(
                f,
                "no node can place the tenant: closest is {closest} needing \
                 {required_watts:.1} W against {budget_watts:.1} W"
            ),
            ClusterError::Admission(e) => write!(f, "{e}"),
            ClusterError::Control(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ControlError> for ClusterError {
    fn from(e: ControlError) -> ClusterError {
        ClusterError::Control(e)
    }
}

/// A serializable view of one cluster tenant for [`ClusterSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTenantSnapshot {
    /// Registered name.
    pub name: String,
    /// `"latency_critical"` or `"batch"`.
    pub kind: &'static str,
    /// The node currently (or last) hosting the tenant.
    pub node: NodeId,
    /// The cluster-visible lifecycle state: the hosting node's view, or
    /// `Relocating(Node(dest))` while the tenant is in flight.
    pub state: LifecycleState,
}

/// A point-in-time view of the whole cluster (the cluster `/state`
/// endpoint renders it via [`ClusterSnapshot::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Lockstep quanta completed so far.
    pub quantum: usize,
    /// Per-node control-plane snapshots, in node-id order.
    pub nodes: Vec<ControlSnapshot>,
    /// Per-node LC traffic shares, in node-id order.
    pub lc_shares: Vec<Vec<f64>>,
    /// The cluster tenant table, in registration order.
    pub tenants: Vec<ClusterTenantSnapshot>,
    /// Tenants currently in flight between nodes.
    pub in_flight: usize,
    /// Per-node health state names, in node-id order.
    pub node_health: Vec<&'static str>,
    /// Tenants parked displaced, with no destination yet.
    pub displaced: usize,
    /// Evacuations performed so far.
    pub evacuations: usize,
    /// Whether the fleet is in degraded mode.
    pub degraded: bool,
}

impl ClusterSnapshot {
    /// The snapshot as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("quantum", self.quantum.into()),
            ("in_flight", self.in_flight.into()),
            ("displaced", self.displaced.into()),
            ("evacuations", self.evacuations.into()),
            ("degraded", self.degraded.into()),
            (
                "node_health",
                JsonValue::array(self.node_health.iter().copied()),
            ),
            (
                "nodes",
                JsonValue::Arr(self.nodes.iter().map(ControlSnapshot::to_json).collect()),
            ),
            (
                "lc_shares",
                JsonValue::Arr(
                    self.lc_shares
                        .iter()
                        .map(|shares| JsonValue::array(shares.iter().copied()))
                        .collect(),
                ),
            ),
            (
                "tenants",
                JsonValue::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            JsonValue::object([
                                ("name", t.name.as_str().into()),
                                ("kind", t.kind.into()),
                                ("node", t.node.to_string().into()),
                                ("state", t.state.name().into()),
                                (
                                    "target",
                                    t.state
                                        .relocation_target()
                                        .map(|n| n.to_string().into())
                                        .unwrap_or(JsonValue::Null),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A completed cluster run: every node's [`RunRecord`] plus the lockstep
/// quantum count. Bit-for-bit equality of two `ClusterRecord`s (after
/// [`comparable`](Self::comparable)) is the determinism criterion the
/// cluster tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRecord {
    /// Lockstep quanta the coordinator ran.
    pub quanta: usize,
    /// Per-node records, in node-id order.
    pub nodes: Vec<RunRecord>,
}

impl ClusterRecord {
    /// The record with every node's wall-clock telemetry zeroed (see
    /// [`RunRecord::comparable`]).
    pub fn comparable(self) -> ClusterRecord {
        ClusterRecord {
            quanta: self.quanta,
            nodes: self.nodes.into_iter().map(RunRecord::comparable).collect(),
        }
    }

    /// Worst tail-latency-to-QoS ratio across the fleet.
    pub fn worst_tail_ratio(&self) -> f64 {
        self.nodes
            .iter()
            .map(RunRecord::worst_tail_ratio)
            .fold(0.0, f64::max)
    }
}

/// N per-node agents stepped in lockstep under deterministic cross-node
/// placement, migration, and balancing policies.
pub struct ClusterCoordinator {
    /// The fleet in node-id order: each node's control plane, health,
    /// fault fate and stale rows.
    nodes: Vec<NodeAgent>,
    tenants: Vec<ClusterTenantEntry>,
    /// Relocating tenants — in flight to a node, or displaced with nowhere
    /// to go — in queue order: a move or a parking joins at the back, and
    /// so does a re-aimed move.
    relocating: Vec<Relocation>,
    config: ClusterConfig,
    quantum: usize,
    pending: Vec<ClusterEvent>,
    faults: FleetFaultPlan,
    degraded: DegradedMode,
    /// Evacuations performed so far (batch re-placements + LC foldings).
    evacuations: usize,
    /// The width phase 2 steps the nodes at (and construction builds
    /// them at): one scope per quantum, one job per node.
    pool: WorkerPool,
}

impl ClusterCoordinator {
    /// Builds the coordinator with default policies. Every tenant each
    /// node's scenario declares is seeded into the cluster tenant table.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NodeAgent::new`].
    pub fn new(scenario: &ClusterScenario) -> ClusterCoordinator {
        ClusterCoordinator::with_config(scenario, ClusterConfig::default())
    }

    /// Builds the coordinator with explicit policies and no fleet faults.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NodeAgent::new`].
    pub fn with_config(scenario: &ClusterScenario, config: ClusterConfig) -> ClusterCoordinator {
        ClusterCoordinator::with_faults(scenario, config, FleetFaultPlan::none())
    }

    /// Builds the coordinator with explicit policies and a fleet fault
    /// plan. [`FleetFaultPlan::none`] makes this identical to
    /// [`with_config`](Self::with_config) — the clean plan performs no
    /// draws and injects nothing.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NodeAgent::new`].
    pub fn with_faults(
        scenario: &ClusterScenario,
        config: ClusterConfig,
        plan: FleetFaultPlan,
    ) -> ClusterCoordinator {
        let pool = WorkerPool::new(WorkerPool::default_threads());
        // One factor library per distinct chip: nodes on equal parameters
        // learn the same factors, so they share them.
        let libraries = Libraries::default();
        let nodes = pool.map_indexed(&scenario.nodes, |i, s| {
            NodeAgent::new(s, NodeId::from_index(i), libraries.get(&s.params))
        });
        let mut tenants = Vec::new();
        for agent in &nodes {
            let batch_jobs = agent.core().scenario().batch_jobs();
            for (i, t) in agent.core().tenants().iter().enumerate() {
                tenants.push(ClusterTenantEntry {
                    name: t.name().to_string(),
                    app: match t.kind() {
                        TenantKind::Batch { batch_index } => {
                            batch_jobs.get(batch_index).map(|b| b.app)
                        }
                        TenantKind::LatencyCritical { .. } => None,
                    },
                    node: agent.id(),
                    local: TenantId::from_index(i),
                });
            }
        }
        ClusterCoordinator {
            nodes,
            tenants,
            relocating: Vec::new(),
            config,
            quantum: 0,
            pending: Vec::new(),
            faults: plan,
            degraded: DegradedMode::new(),
            evacuations: 0,
            pool,
        }
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Lockstep quanta completed so far.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// One node's agent, if the id is valid.
    pub fn node(&self, id: NodeId) -> Option<&NodeAgent> {
        self.nodes.get(id.index())
    }

    /// One node's health state, if the id is valid.
    pub fn node_health(&self, id: NodeId) -> Option<NodeHealth> {
        self.nodes.get(id.index()).map(NodeAgent::health)
    }

    /// Tenants currently parked displaced.
    pub fn displaced_tenants(&self) -> usize {
        self.relocating
            .iter()
            .filter(|r| r.dest().is_none())
            .count()
    }

    /// Evacuations performed so far (batch re-placements plus LC traffic
    /// foldings).
    pub fn evacuations_total(&self) -> usize {
        self.evacuations
    }

    /// Whether the fleet is in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.active()
    }

    /// The tenant's relocation record, while it is relocating.
    fn relocation(&self, id: ClusterTenantId) -> Option<&Relocation> {
        self.relocating.iter().find(|r| r.tenant == id)
    }

    /// The cluster-visible lifecycle state of a tenant: its hosting
    /// node's view, overlaid with `Relocating(Node(dest))` while the
    /// tenant is in flight between nodes and `Relocating(Displaced)`
    /// while it is parked displaced.
    pub fn tenant_state(&self, id: ClusterTenantId) -> Option<LifecycleState> {
        let entry = self.tenants.get(id.0)?;
        if let Some(r) = self.relocation(id) {
            return Some(LifecycleState::Relocating(r.target));
        }
        self.nodes
            .get(entry.node.index())?
            .core()
            .tenant(entry.local)
            .map(|t| t.state())
    }

    /// The node currently (or last) hosting a tenant.
    pub fn tenant_node(&self, id: ClusterTenantId) -> Option<NodeId> {
        self.relocation(id)
            .and_then(Relocation::dest)
            .or_else(|| self.tenants.get(id.0).map(|e| e.node))
    }

    /// Scores every *serving* node (minus `exclude`) as a placement
    /// candidate for `app`, in node-id order. "Serving" is the
    /// coordinator's knowledge ([`NodeHealth::is_serving`]), not ground
    /// truth: a crashed node stays a candidate until its failure is
    /// detected, and the tenants placed on it in that window are
    /// recovered by the evacuation the detection triggers.
    fn scores_for(&self, app: SpecBenchmark, exclude: Option<NodeId>) -> Vec<PlacementScore> {
        self.nodes
            .iter()
            .filter(|n| Some(n.id()) != exclude && n.is_serving())
            .map(|n| n.placement_score(app))
            .collect()
    }

    /// Registers a batch tenant, letting placement choose the node.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoCapacity`] when no serving node's steady-state
    /// budget fits the candidate's worst case;
    /// [`ClusterError::NoServingNode`] when every node is down.
    pub fn register_batch(
        &mut self,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<ClusterTenantId, ClusterError> {
        let scores = self.scores_for(app, None);
        let Some(node) = pick_best(&scores) else {
            // Report the least-infeasible node's arithmetic (ties toward
            // the lowest id, matching every other policy here).
            let closest = scores
                .iter()
                .reduce(|a, b| {
                    if b.headroom_watts > a.headroom_watts {
                        b
                    } else {
                        a
                    }
                })
                .ok_or(ClusterError::NoServingNode)?
                .node;
            let (required_watts, budget_watts) =
                self.nodes[closest.index()].core().admission_preview(app);
            return Err(ClusterError::NoCapacity {
                closest,
                required_watts,
                budget_watts,
            });
        };
        self.register_batch_on(node, name, app)
            .map_err(|e| match e {
                ClusterError::Admission(AdmissionError::PowerBudgetExceeded {
                    required_watts,
                    budget_watts,
                }) => ClusterError::NoCapacity {
                    closest: node,
                    required_watts,
                    budget_watts,
                },
                e => e,
            })
    }

    /// Registers a batch tenant on a specific node, bypassing placement
    /// (the migration engine's admit half uses exactly this path, which
    /// is what makes a migration equal a drain plus a directed admit).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] for an invalid node,
    /// [`ClusterError::NodeUnavailable`] for a node that is not serving (a
    /// crashed node stays a target until it is declared Down, like it does
    /// for placement; its evacuation recovers the tenant),
    /// [`ClusterError::Admission`] when the node's admission control
    /// rejects the tenant (the rejection is still recorded on the node).
    pub fn register_batch_on(
        &mut self,
        node: NodeId,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<ClusterTenantId, ClusterError> {
        let agent = self
            .nodes
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        if !agent.is_serving() {
            return Err(ClusterError::NodeUnavailable(node));
        }
        let local = agent
            .core_mut()
            .register_batch(name, app)
            .map_err(ClusterError::Admission)?;
        let id = ClusterTenantId(self.tenants.len());
        self.tenants.push(ClusterTenantEntry {
            name: name.to_string(),
            app: Some(app),
            node,
            local,
        });
        self.pending.push(ClusterEvent::Placed {
            tenant: id,
            name: name.to_string(),
            node,
        });
        Ok(id)
    }

    /// Deregisters a batch tenant: it drains on its node and retires. A
    /// tenant parked displaced leaves the relocation table, so it is
    /// never placed afterwards.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Relocating`] while the tenant is in flight;
    /// otherwise the hosting node's [`ControlError`].
    pub fn deregister(&mut self, id: ClusterTenantId) -> Result<(), ClusterError> {
        let relocation = self.relocating.iter().position(|r| r.tenant == id);
        if relocation.is_some_and(|at| self.relocating[at].dest().is_some()) {
            return Err(ClusterError::Relocating(id));
        }
        let entry = self
            .tenants
            .get(id.0)
            .ok_or(ClusterError::UnknownTenant(id))?;
        if entry.app.is_none() {
            return Err(ClusterError::NotABatchTenant(id));
        }
        let (node, local) = (entry.node, entry.local);
        let drained = self
            .nodes
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?
            .core_mut()
            .deregister(local);
        if let Some(at) = relocation {
            // A displaced tenant's old row stays on its failed node, and a
            // drained node has already retired it: leaving the table is
            // the deregistration.
            self.relocating.remove(at);
            return Ok(());
        }
        Ok(drained?)
    }

    /// Starts migrating a batch tenant to `dest`: drains it on its source
    /// now, admits it on `dest` after the configured cost in quanta.
    /// While in flight the tenant's cluster state is
    /// `Relocating(Node(dest))`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Relocating`], [`ClusterError::UnknownTenant`],
    /// [`ClusterError::NotABatchTenant`], [`ClusterError::UnknownNode`]
    /// or [`ClusterError::SameNode`] when the tenant cannot move;
    /// [`ClusterError::Control`] when the source refuses the drain.
    pub fn migrate(&mut self, id: ClusterTenantId, dest: NodeId) -> Result<(), ClusterError> {
        if self.relocation(id).is_some() {
            return Err(ClusterError::Relocating(id));
        }
        let entry = self
            .tenants
            .get(id.0)
            .ok_or(ClusterError::UnknownTenant(id))?;
        if entry.app.is_none() {
            return Err(ClusterError::NotABatchTenant(id));
        }
        if dest.index() >= self.nodes.len() {
            return Err(ClusterError::UnknownNode(dest));
        }
        if entry.node == dest {
            return Err(ClusterError::SameNode(dest));
        }
        let (from, local, name) = (entry.node, entry.local, entry.name.clone());
        self.nodes[from.index()].core_mut().deregister(local)?;
        let admit_at = self.quantum + COST_QUANTA;
        self.relocating.push(Relocation {
            tenant: id,
            from,
            target: RelocationTarget::Node(dest),
            due: admit_at,
            attempts: 0,
        });
        self.pending.push(ClusterEvent::MigrationStarted {
            tenant: id,
            name,
            from,
            to: dest,
            admit_at,
        });
        Ok(())
    }

    /// Deliberately drains a node for maintenance: its tenants evacuate
    /// with warning (batch re-enters admission elsewhere, LC traffic
    /// folds onto surviving replicas), its control plane shuts down
    /// cleanly, and it is declared Down. The node never steps again.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] for an invalid id;
    /// [`ClusterError::NodeUnavailable`] when the node is already down,
    /// drained, or crashed.
    pub fn drain_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        let agent = self
            .nodes
            .get(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        if !agent.steppable() || !agent.is_serving() {
            return Err(ClusterError::NodeUnavailable(node));
        }
        self.drain_node_inner(node.index());
        Ok(())
    }

    /// The drain mechanics, shared by [`drain_node`](Self::drain_node)
    /// and the fault plan's scheduled-maintenance stream.
    fn drain_node_inner(&mut self, node_index: usize) {
        let node = NodeId::from_index(node_index);
        self.pending.push(ClusterEvent::NodeDrained {
            node,
            quantum: self.quantum,
        });
        // Down *before* evacuating, so the node cannot be chosen as its
        // own tenants' destination.
        if let Some((from, to)) = self.nodes[node_index].mark_drained() {
            self.pending.push(ClusterEvent::NodeHealthChanged {
                node,
                from,
                to,
                quantum: self.quantum,
            });
        }
        self.evacuate_node(node_index);
        // The node's control plane shuts down cleanly: every remaining
        // local row (the evacuees' old rows and any unplaceable
        // stragglers') drains and retires. Impossible to refuse by the
        // transition table.
        let _ = self.nodes[node_index].core_mut().shutdown();
    }

    /// Phase 0: inject planned faults, observe heartbeats, advance every
    /// node's health state machine, evacuate nodes newly declared Down,
    /// retry displaced tenants, and run the degraded-mode hysteresis —
    /// all serial, in node-id order. On a healthy fleet with a clean
    /// fault plan every step here is a no-op, which is why
    /// [`FleetFaultPlan::none`] leaves the coordinator bit-identical to
    /// one built before faults existed.
    fn health_phase(&mut self) {
        let q = self.quantum;
        // (a) Inject this quantum's faults (a clean plan performs no
        // draws at all).
        for i in 0..self.nodes.len() {
            let verdict = self.faults.node_quantum(NodeId::from_index(i), q);
            let node = &mut self.nodes[i];
            node.strike(verdict, q);
            if verdict.drain && node.steppable() && node.is_serving() {
                self.drain_node_inner(i);
            }
        }
        // (b) Observe heartbeats and advance each state machine. The
        // heartbeat is the one observable the coordinator has: did the
        // node answer this quantum, or is it crashed, drained or blacked
        // out? Timeouts are quantum-counted, never wall-clock.
        for i in 0..self.nodes.len() {
            let Some((from, to)) = self.nodes[i].observe_heartbeat(q) else {
                continue;
            };
            self.pending.push(ClusterEvent::NodeHealthChanged {
                node: NodeId::from_index(i),
                from,
                to,
                quantum: q,
            });
            if to.is_down() {
                self.evacuate_node(i);
            } else if from.is_down() {
                self.nodes[i].drop_stale_rows();
            }
        }
        // (c) Retry displaced tenants whose backoff has elapsed.
        self.retry_displaced();
        // (d) Degraded-mode hysteresis: the fleet is infeasible while
        // displaced tenants remain unplaceable after their retries.
        let infeasible = self.displaced_tenants() > 0;
        match self.degraded.observe(infeasible) {
            Some(true) => self
                .pending
                .push(ClusterEvent::FleetDegraded { quantum: q }),
            Some(false) => self
                .pending
                .push(ClusterEvent::FleetRecovered { quantum: q }),
            None => {}
        }
        if self.degraded.active() {
            self.shed_for_capacity();
        }
    }

    /// Moves every recoverable tenant off a node that has been declared
    /// Down, in tenant-id order: batch tenants re-enter admission on the
    /// best-scoring serving node (or park displaced), LC
    /// tenants fold their traffic share onto the best surviving replica.
    fn evacuate_node(&mut self, node_index: usize) {
        let source = NodeId::from_index(node_index);
        let candidates: Vec<ClusterTenantId> = (0..self.tenants.len())
            .map(ClusterTenantId)
            .filter(|id| {
                let e = &self.tenants[id.0];
                e.node == source
                    && self.relocation(*id).is_none()
                    && matches!(
                        self.nodes[node_index]
                            .core()
                            .tenant(e.local)
                            .map(|t| t.state()),
                        Some(LifecycleState::Admitted | LifecycleState::Running)
                    )
            })
            .collect();
        for id in candidates {
            if self.tenants[id.0].app.is_some() {
                if !self.place_evacuee(id) {
                    self.park(id, source);
                }
            } else {
                self.evacuate_lc(id);
            }
        }
    }

    /// Parks an unplaceable evacuee displaced with the initial backoff.
    /// Parked tenants are retried every quantum their backoff allows; they
    /// are never dropped.
    fn park(&mut self, id: ClusterTenantId, from: NodeId) {
        let retry_at = self.quantum + retry_backoff(RETRY_BASE, 0);
        self.relocating.push(Relocation {
            tenant: id,
            from,
            target: RelocationTarget::Displaced,
            due: retry_at,
            attempts: 0,
        });
        self.pending.push(ClusterEvent::Displaced {
            tenant: id,
            name: self.tenants[id.0].name.clone(),
            from,
            attempts: 0,
            retry_at,
            quantum: self.quantum,
        });
    }

    /// Tries to find a batch evacuee a home. Returns `true` when the
    /// tenant is settled: admitted on a serving node, or resolved in
    /// place because its home node rejoined (a short blackout can end
    /// before the tenant is ever re-placed) — its old row is still live
    /// there, so it never actually left.
    fn place_evacuee(&mut self, id: ClusterTenantId) -> bool {
        let entry = &self.tenants[id.0];
        let home = entry.node;
        let old_local = entry.local;
        let name = entry.name.clone();
        let home_agent = &self.nodes[home.index()];
        if home_agent.is_serving() && home_agent.steppable() && home_agent.hosts_live(old_local) {
            return true;
        }
        let Some(app) = entry.app else { return true };
        let scores = self.scores_for(app, Some(home));
        let Some(dest) = pick_best(&scores) else {
            return false;
        };
        match self.nodes[dest.index()]
            .core_mut()
            .register_batch(&name, app)
        {
            Ok(local) => {
                if self.nodes[home.index()].steppable() {
                    // The old row still exists on an alive-but-silent
                    // node (blackout split-brain): remember it so the
                    // duplicate drains when the node rejoins.
                    self.nodes[home.index()].remember_stale(old_local);
                }
                let entry = &mut self.tenants[id.0];
                entry.node = dest;
                entry.local = local;
                self.evacuations += 1;
                self.pending.push(ClusterEvent::Evacuated {
                    tenant: id,
                    name,
                    from: home,
                    to: dest,
                    quantum: self.quantum,
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Evacuates one LC tenant by folding its traffic share onto the
    /// surviving replica of the same service with the fewest live tenants
    /// (ties toward the lowest id, as placement breaks them). LC tenants
    /// cannot re-enter admission (their matrix rows and queue state are
    /// pinned), so the *traffic* moves instead — the cluster entry is
    /// re-homed to the survivor's own LC row, which may leave two cluster
    /// entries mapping to the same local row until the failed node is
    /// replaced.
    fn evacuate_lc(&mut self, id: ClusterTenantId) {
        let entry = &self.tenants[id.0];
        let (source, name) = (entry.node, entry.name.clone());
        let Some(TenantKind::LatencyCritical { lc_index }) = self.nodes[source.index()]
            .core()
            .tenant(entry.local)
            .map(|t| t.kind())
        else {
            return;
        };
        let Some(dest) = self
            .nodes
            .iter()
            .filter(|n| n.id() != source && n.is_serving() && n.serves_lc(lc_index))
            .min_by_key(|n| n.live_tenants())
            .map(NodeAgent::id)
        else {
            // No surviving replica hosts this service: the traffic has
            // nowhere to fold. The entry stays homed on the failed node.
            return;
        };
        let share = self.nodes[source.index()].core().lc_traffic_shares()[lc_index];
        self.shift_share(lc_index, source, dest, share);
        if let Some(local) = self.nodes[dest.index()].lc_tenant(lc_index) {
            let entry = &mut self.tenants[id.0];
            entry.node = dest;
            entry.local = local;
        }
        self.evacuations += 1;
        self.pending.push(ClusterEvent::Evacuated {
            tenant: id,
            name,
            from: source,
            to: dest,
            quantum: self.quantum,
        });
    }

    /// Moves `amount` of LC service `lc_index`'s traffic share from one
    /// replica to another, conserving the service's total. Both nodes host
    /// the service, so the driver cannot refuse the indices.
    fn shift_share(&mut self, lc_index: usize, from: NodeId, to: NodeId, amount: f64) {
        let share = |node: NodeId| self.nodes[node.index()].core().lc_traffic_shares()[lc_index];
        let (from_share, to_share) = (share(from) - amount, share(to) + amount);
        let _ = self.nodes[from.index()]
            .core_mut()
            .set_lc_traffic_share(lc_index, from_share);
        let _ = self.nodes[to.index()]
            .core_mut()
            .set_lc_traffic_share(lc_index, to_share);
    }

    /// Retries every displaced tenant whose backoff has elapsed, in
    /// queue order. A failure keeps the tenant parked in its place with the
    /// next (bounded) backoff and announces it — a displaced tenant leaves
    /// the table only by successful placement, never by dropping.
    fn retry_displaced(&mut self) {
        for r in std::mem::take(&mut self.relocating) {
            if r.dest().is_some() || r.due > self.quantum {
                self.relocating.push(r);
                continue;
            }
            if self.place_evacuee(r.tenant) {
                continue;
            }
            let attempts = r.attempts + 1;
            let retry_at = self.quantum + retry_backoff(RETRY_BASE, attempts);
            self.pending.push(ClusterEvent::Displaced {
                tenant: r.tenant,
                name: self.tenants[r.tenant.0].name.clone(),
                from: r.from,
                attempts,
                retry_at,
                quantum: self.quantum,
            });
            self.relocating.push(Relocation {
                attempts,
                due: retry_at,
                ..r
            });
        }
    }

    /// Live batch tenants that are not relocating, on the nodes `on`
    /// accepts, newest first, with their app: the candidates degraded-mode
    /// shedding and auto-migration pick from.
    fn movable_batch<'a>(
        &'a self,
        on: impl Fn(NodeId) -> bool + 'a,
    ) -> impl Iterator<Item = (ClusterTenantId, SpecBenchmark)> + 'a {
        self.tenants
            .iter()
            .enumerate()
            .rev()
            .filter(move |(i, e)| {
                on(e.node)
                    && self.relocation(ClusterTenantId(*i)).is_none()
                    && self.nodes[e.node.index()].hosts_live(e.local)
            })
            .filter_map(|(i, e)| Some((ClusterTenantId(i), e.app?)))
    }

    /// While degraded, frees capacity each quantum: sheds the most
    /// recently placed live batch tenant on a serving node. LC traffic is
    /// never shed: admission charges an LC tenant for its cores, not its
    /// share, so a smaller share would free no room for an evacuee.
    fn shed_for_capacity(&mut self) {
        let victims: Vec<ClusterTenantId> = self
            .movable_batch(|node| self.nodes[node.index()].is_serving())
            .map(|(id, _)| id)
            .collect();
        for id in victims {
            if self.deregister(id).is_ok() {
                return;
            }
        }
    }

    /// Phase 1: admit every migration whose cost has elapsed. A refusal
    /// (the destination is down, or its admission control rejected the
    /// tenant) no longer loses the tenant: the move is re-aimed at the
    /// next-best serving node with bounded exponential backoff, and only
    /// after [`MAX_RETRIES`] refusals does the tenant retire drained —
    /// announced by [`ClusterEvent::MigrationAbandoned`], never silently.
    fn complete_due_migrations(&mut self) {
        let q = self.quantum;
        let due: Vec<(Relocation, NodeId)> = self
            .relocating
            .iter()
            .filter(|r| r.due <= q)
            .filter_map(|r| Some((*r, r.dest()?)))
            .collect();
        self.relocating.retain(|r| r.due > q || r.dest().is_none());
        for (m, dest) in due {
            let entry = &self.tenants[m.tenant.0];
            let name = entry.name.clone();
            // In-flight tenants are batch by construction (migrate()
            // refuses LC tenants), so the app is always present.
            let Some(app) = entry.app else { continue };
            // A non-serving destination counts as a refusal without
            // bothering its admission control.
            let admitted = if self.nodes[dest.index()].is_serving() {
                self.nodes[dest.index()]
                    .core_mut()
                    .register_batch(&name, app)
                    .ok()
            } else {
                None
            };
            match admitted {
                Some(local) => {
                    let entry = &mut self.tenants[m.tenant.0];
                    entry.node = dest;
                    entry.local = local;
                    self.pending.push(ClusterEvent::MigrationCompleted {
                        tenant: m.tenant,
                        name,
                        from: m.from,
                        to: dest,
                        quantum: self.quantum,
                    });
                }
                None => {
                    self.pending.push(ClusterEvent::MigrationFailed {
                        tenant: m.tenant,
                        name: name.clone(),
                        to: dest,
                        quantum: self.quantum,
                    });
                    let attempts = m.attempts + 1;
                    if attempts > MAX_RETRIES {
                        // The tenant already drained from its source; it
                        // retires there, and the destination records the
                        // rejection as its own AdmissionRejected event.
                        self.pending.push(ClusterEvent::MigrationAbandoned {
                            tenant: m.tenant,
                            name,
                            to: dest,
                            attempts,
                            quantum: self.quantum,
                        });
                        continue;
                    }
                    // Next-best destination, excluding the refuser; fall
                    // back to the same destination when nothing else is
                    // feasible (it may free capacity by the retry).
                    let scores = self.scores_for(app, Some(dest));
                    let next = pick_best(&scores).unwrap_or(dest);
                    let admit_at = self.quantum + retry_backoff(COST_QUANTA, attempts);
                    self.relocating.push(Relocation {
                        target: RelocationTarget::Node(next),
                        due: admit_at,
                        attempts,
                        ..m
                    });
                    self.pending.push(ClusterEvent::MigrationRetried {
                        tenant: m.tenant,
                        name,
                        to: next,
                        admit_at,
                        attempt: attempts,
                        quantum: self.quantum,
                    });
                }
            }
        }
    }

    /// Moves node `i`'s queued control events into the cluster queue.
    fn drain_node_events(&mut self, i: usize) {
        let events = self.nodes[i].core_mut().drain_events();
        self.pending
            .extend(events.into_iter().map(ClusterEvent::Node));
    }

    /// Phases 3–5: drain node events, balance traffic, auto-migrate.
    fn settle_cross_node(&mut self) {
        for i in 0..self.nodes.len() {
            self.drain_node_events(i);
        }

        if self.config.balance.is_some() {
            // The loop runs to the *widest* node's LC count; nodes that
            // don't host a service (or are down) drop out of that
            // service's replica set instead of truncating the fleet.
            let num_lc = self
                .nodes
                .iter()
                .map(|n| n.core().scenario().num_lc())
                .max()
                .unwrap_or(0);
            for lc_index in 0..num_lc {
                let replicas: Vec<(NodeId, f64, f64)> = self
                    .nodes
                    .iter()
                    .filter(|n| n.is_serving() && n.serves_lc(lc_index))
                    .map(|n| {
                        (
                            n.id(),
                            n.lc_tail_ratio(lc_index).unwrap_or(0.0),
                            n.core().lc_traffic_shares()[lc_index],
                        )
                    })
                    .collect();
                if let Some(shift) = decide_shift(lc_index, &replicas) {
                    self.shift_share(lc_index, shift.from, shift.to, shift.amount);
                    self.pending.push(ClusterEvent::SharesShifted {
                        lc_index,
                        from: shift.from,
                        to: shift.to,
                        amount: shift.amount,
                        quantum: self.quantum,
                    });
                }
            }
        }

        if let Some(threshold) = self.config.migration.auto_tail_ratio {
            for i in 0..self.nodes.len() {
                let node = &self.nodes[i];
                if !node.is_serving() || node.last_tail_ratio() <= threshold {
                    continue;
                }
                // The most recently placed movable batch tenant on the
                // breaching node.
                let source = node.id();
                let Some((id, app)) = self.movable_batch(|node| node == source).next() else {
                    continue;
                };
                if let Some(dest) = pick_best(&self.scores_for(app, Some(source))) {
                    // All preconditions were just checked; a refusal here
                    // would be a coordinator logic bug.
                    let moved = self.migrate(id, dest);
                    debug_assert!(moved.is_ok(), "auto-migration refused: {moved:?}");
                }
            }
        }
    }

    /// Steps one lockstep quantum across the fleet. The nodes step
    /// concurrently, as the jobs of one [`WorkerPool`] scope; every other
    /// phase runs serially in ascending node-id order. Every steppable node
    /// steps even when another one fails.
    ///
    /// # Errors
    ///
    /// Returns the lowest-id stepping node's [`ControlError`] (a
    /// control-plane logic bug, surfaced hard).
    pub fn step_quantum(&mut self) -> Result<(), ClusterError> {
        self.health_phase();
        self.complete_due_migrations();
        let mut slots: Vec<(&mut NodeAgent, Option<ControlError>)> = self
            .nodes
            .iter_mut()
            .filter(|node| node.steppable())
            .map(|node| (node, None))
            .collect();
        for_each_slot(Some(&self.pool), &mut slots, |_, (node, error)| {
            *error = node.step().err();
        });
        if let Some(e) = slots.into_iter().find_map(|(_, error)| error) {
            return Err(ClusterError::Control(e));
        }
        self.settle_cross_node();
        self.quantum += 1;
        Ok(())
    }

    /// Whether every still-steppable node's declared horizon has been
    /// simulated (crashed and drained nodes never finish theirs).
    pub fn is_done(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| !n.steppable() || n.core().is_done())
    }

    /// Takes every cluster event queued since the previous drain.
    pub fn drain_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.pending)
    }

    /// A point-in-time view of the whole cluster.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            quantum: self.quantum,
            nodes: self.nodes.iter().map(|n| n.core().snapshot()).collect(),
            lc_shares: self
                .nodes
                .iter()
                .map(|n| n.core().lc_traffic_shares().to_vec())
                .collect(),
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, e)| ClusterTenantSnapshot {
                    name: e.name.clone(),
                    kind: e.app.map_or("latency_critical", |_| "batch"),
                    node: self.tenant_node(ClusterTenantId(i)).unwrap_or(e.node),
                    state: self
                        .tenant_state(ClusterTenantId(i))
                        .unwrap_or(LifecycleState::Retired),
                })
                .collect(),
            in_flight: self.relocating.len() - self.displaced_tenants(),
            node_health: self.nodes.iter().map(|n| n.health().name()).collect(),
            displaced: self.displaced_tenants(),
            evacuations: self.evacuations,
            degraded: self.degraded.active(),
        }
    }

    /// Drains every node to retirement: in-flight migrations are
    /// abandoned (the tenant is already drained from its source), then
    /// each node's control plane shuts down in node-id order.
    ///
    /// # Errors
    ///
    /// Propagates the first node's [`ControlError`] — impossible by the
    /// transition table, so any error here is a logic bug.
    pub fn shutdown(&mut self) -> Result<(), ClusterError> {
        self.relocating.clear();
        for i in 0..self.nodes.len() {
            // A crashed node is gone — nothing drains cleanly off it —
            // and a drained node's control plane already shut down; both
            // still surface any events queued before the lights went out.
            if self.nodes[i].steppable() {
                self.nodes[i].core_mut().shutdown()?;
            }
            // The drain emits lifecycle events (Draining, Retired) on the
            // node core; surface them like any other quantum's phase 3.
            self.drain_node_events(i);
        }
        Ok(())
    }

    /// Consumes the coordinator into the completed cluster record.
    pub fn into_record(self) -> ClusterRecord {
        ClusterRecord {
            quanta: self.quantum,
            nodes: self
                .nodes
                .into_iter()
                .map(|n| n.into_core().into_record())
                .collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_parties_and_render_their_arithmetic() {
        let t = ClusterTenantId::from_index(4);
        assert!(ClusterError::UnknownTenant(t).to_string().contains("c4"));
        assert!(ClusterError::NotABatchTenant(t)
            .to_string()
            .contains("pinned"));
        assert!(ClusterError::Relocating(t).to_string().contains("c4"));
        assert!(ClusterError::SameNode(NodeId::from_index(2))
            .to_string()
            .contains("n2"));
        let msg = ClusterError::NoCapacity {
            closest: NodeId::from_index(2),
            required_watts: 12.5,
            budget_watts: 10.0,
        }
        .to_string();
        assert!(msg.contains("n2") && msg.contains("12.5") && msg.contains("10.0"));
    }
}
