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
//!    evacuate nodes newly declared Down, retry the displaced queue with
//!    bounded backoff, and run the fleet degraded-mode hysteresis.
//! 1. **Complete due migrations** (serial, start order): a tenant whose
//!    modeled migration cost has elapsed is admitted on its destination;
//!    a refusal schedules a bounded retry against the next-best node.
//! 2. **Step every steppable node**, one after another in node-id order;
//!    a node's step reads and writes only its own state. Crashed and
//!    drained nodes never step again; blacked-out nodes keep stepping
//!    (they are alive, just unobservable — the split-brain is reconciled
//!    on rejoin).
//! 3. **Drain node events** into the cluster event queue, in node-id
//!    order.
//! 4. **Balance** LC traffic shares from the quantum's tail ratios.
//! 5. **Auto-migrate** (when configured): a node still breaching after
//!    balancing offloads its most recently placed batch tenant.
//!
//! Every phase runs serially in node-id order — that is the whole
//! determinism argument (see the crate docs), and `tests/cluster.rs` plus
//! `tests/fleet_resilience.rs` pin the results it yields. With
//! [`FleetFaultPlan::none`] phase 0 observes a clean heartbeat on every Up
//! node and does nothing at all, so a fault-free coordinator is
//! bit-identical to one built before faults existed.

use cuttlesys::control::AdmissionError;
use cuttlesys::control::{ControlError, ControlEvent, ControlSnapshot, TenantId, TenantKind};
use cuttlesys::lifecycle::{LifecycleState, NodeId, RelocationTarget};
use cuttlesys::types::RunRecord;
use util::json::JsonValue;
use workloads::batch::SpecBenchmark;

use crate::balance::{decide_shift, BalanceConfig};
use crate::faults::{FleetFaultInjector, FleetFaultPlan};
use crate::health::{
    retry_backoff, DegradedMode, HealthTracker, NodeHealth, MIN_DEGRADED_SHARE, SHARE_SHRINK,
};
use crate::migration::{
    InFlight, MigrateError, MigrationConfig, COST_QUANTA, MAX_RETRIES, RETRY_CAP_QUANTA,
};
use crate::node::NodeAgent;
use crate::placement::{pick_best, PlacementError, PlacementScore};
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

impl NodeFate {
    /// Whether the node still executes steps.
    fn steppable(self) -> bool {
        !self.crashed && !self.drained
    }

    /// Whether the node fails to heartbeat at `quantum`.
    fn silent_at(self, quantum: usize) -> bool {
        self.crashed || self.drained || quantum < self.silent_until
    }
}

/// One evacuated tenant the fleet had no room for: parked, retried each
/// quantum its backoff allows, never silently dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DisplacedTenant {
    tenant: ClusterTenantId,
    /// The failed node it was evacuated from.
    from: NodeId,
    /// Placement attempts so far (drives the backoff).
    attempts: u32,
    /// The next quantum at which placement is retried.
    retry_at: usize,
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
    /// An evacuated tenant had nowhere to go and was parked in the
    /// displaced queue; emitted again after every failed retry.
    Displaced {
        /// The parked tenant.
        tenant: ClusterTenantId,
        /// Its registered name.
        name: String,
        /// The failed node it came from.
        from: NodeId,
        /// Placement attempts so far.
        attempts: u32,
        /// The quantum of the next retry.
        retry_at: usize,
        /// The quantum of this failure.
        quantum: usize,
    },
    /// Lost capacity left displaced tenants unplaceable for long enough;
    /// the fleet starts shedding batch work (then shrinking LC shares
    /// toward safe-mode allocations) until placement is feasible again.
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
    /// The operation applies only to batch tenants.
    NotABatchTenant(ClusterTenantId),
    /// The node id is not in the cluster.
    UnknownNode(NodeId),
    /// The node is already down, drained, or crashed.
    NodeUnavailable(NodeId),
    /// The tenant is mid-migration; wait for the move to settle.
    InFlight(ClusterTenantId),
    /// A node's admission control rejected a directed registration.
    Admission(AdmissionError),
    /// A node's control plane refused a request.
    Control(ControlError),
    /// A migration request was refused.
    Migrate(MigrateError),
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
            ClusterError::InFlight(t) => write!(f, "tenant {t} is mid-migration"),
            ClusterError::Admission(e) => write!(f, "{e}"),
            ClusterError::Control(e) => write!(f, "{e}"),
            ClusterError::Migrate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ControlError> for ClusterError {
    fn from(e: ControlError) -> ClusterError {
        ClusterError::Control(e)
    }
}

impl From<MigrateError> for ClusterError {
    fn from(e: MigrateError) -> ClusterError {
        ClusterError::Migrate(e)
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
    /// Tenants currently mid-migration.
    pub in_flight: usize,
    /// Per-node health state names, in node-id order.
    pub node_health: Vec<&'static str>,
    /// Tenants parked in the displaced queue.
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
                JsonValue::Arr(
                    self.node_health
                        .iter()
                        .map(|h| JsonValue::from(*h))
                        .collect(),
                ),
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
    nodes: Vec<NodeAgent>,
    tenants: Vec<ClusterTenantEntry>,
    in_flight: Vec<InFlight>,
    config: ClusterConfig,
    quantum: usize,
    pending: Vec<ClusterEvent>,
    faults: FleetFaultInjector,
    /// Per-node health detectors, in node-id order.
    health: Vec<HealthTracker>,
    /// Per-node mechanical fault state, in node-id order.
    fate: Vec<NodeFate>,
    /// Evacuated tenants with nowhere to go, in displacement order.
    displaced: Vec<DisplacedTenant>,
    /// Per-node local tenant rows that were evacuated elsewhere while the
    /// node was unobservable-but-alive (blackout split-brain); drained
    /// when the node rejoins.
    stale_locals: Vec<Vec<TenantId>>,
    degraded: DegradedMode,
    /// Evacuations performed so far (batch re-placements + LC foldings).
    evacuations: usize,
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
        let nodes: Vec<NodeAgent> = scenario
            .nodes
            .iter()
            .enumerate()
            .map(|(i, s)| NodeAgent::new(s, NodeId::from_index(i)))
            .collect();
        let mut tenants = Vec::new();
        for agent in &nodes {
            let scenario = agent.core().scenario();
            let batch_apps: Vec<SpecBenchmark> =
                scenario.batch_jobs().iter().map(|b| b.app).collect();
            for (i, t) in agent.core().tenants().iter().enumerate() {
                tenants.push(ClusterTenantEntry {
                    name: t.name().to_string(),
                    app: match t.kind() {
                        TenantKind::Batch { batch_index } => batch_apps.get(batch_index).copied(),
                        TenantKind::LatencyCritical { .. } => None,
                    },
                    node: agent.id(),
                    local: TenantId::from_index(i),
                });
            }
        }
        let n = nodes.len();
        ClusterCoordinator {
            nodes,
            tenants,
            in_flight: Vec::new(),
            config,
            quantum: 0,
            pending: Vec::new(),
            faults: FleetFaultInjector::new(plan),
            health: vec![HealthTracker::new(); n],
            fate: vec![NodeFate::default(); n],
            displaced: Vec::new(),
            stale_locals: vec![Vec::new(); n],
            degraded: DegradedMode::new(),
            evacuations: 0,
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
        self.health.get(id.index()).map(HealthTracker::state)
    }

    /// Tenants currently parked in the displaced queue.
    pub fn displaced_tenants(&self) -> usize {
        self.displaced.len()
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

    /// The cluster-visible lifecycle state of a tenant: its hosting
    /// node's view, overlaid with `Relocating(Node(dest))` while the
    /// tenant is in flight between nodes and `Relocating(Displaced)`
    /// while it is parked in the displaced queue.
    pub fn tenant_state(&self, id: ClusterTenantId) -> Option<LifecycleState> {
        let entry = self.tenants.get(id.0)?;
        if let Some(m) = self.in_flight.iter().find(|m| m.tenant == id) {
            return Some(LifecycleState::Relocating(RelocationTarget::Node(m.dest)));
        }
        if self.displaced.iter().any(|d| d.tenant == id) {
            return Some(LifecycleState::Relocating(RelocationTarget::Displaced));
        }
        self.nodes
            .get(entry.node.index())?
            .core()
            .tenant(entry.local)
            .map(|t| t.state())
    }

    /// The node currently (or last) hosting a tenant.
    pub fn tenant_node(&self, id: ClusterTenantId) -> Option<NodeId> {
        if let Some(m) = self.in_flight.iter().find(|m| m.tenant == id) {
            return Some(m.dest);
        }
        self.tenants.get(id.0).map(|e| e.node)
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
            .filter(|n| Some(n.id()) != exclude)
            .filter(|n| self.health[n.id().index()].state().is_serving())
            .map(|n| {
                let (required, budget) = n.core().admission_preview(app);
                let scenario = n.core().scenario();
                let batch_names: Vec<&'static str> =
                    scenario.batch_jobs().iter().map(|b| b.app.name).collect();
                let same_app = n
                    .core()
                    .tenants()
                    .iter()
                    .filter(|t| t.state().is_live())
                    .filter(|t| match t.kind() {
                        TenantKind::Batch { batch_index } => {
                            batch_names.get(batch_index) == Some(&app.name)
                        }
                        TenantKind::LatencyCritical { .. } => false,
                    })
                    .count();
                PlacementScore {
                    node: n.id(),
                    headroom_watts: budget - required,
                    same_app_tenants: same_app,
                    live_tenants: n.live_tenants(),
                }
            })
            .collect()
    }

    /// Registers a batch tenant, letting placement choose the node.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoCapacity`] when no node's steady-state
    /// budget fits the candidate's worst case.
    pub fn register_batch(
        &mut self,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<ClusterTenantId, PlacementError> {
        let scores = self.scores_for(app, None);
        let Some(node) = pick_best(&scores) else {
            // Report the least-infeasible node's arithmetic (ties toward
            // the lowest id, matching every other policy here).
            let closest = scores.iter().reduce(|a, b| {
                if b.headroom_watts > a.headroom_watts {
                    b
                } else {
                    a
                }
            });
            return Err(match closest {
                Some(s) => {
                    let (required, budget) = self
                        .nodes
                        .get(s.node.index())
                        .map(|n| n.core().admission_preview(app))
                        .unwrap_or((0.0, 0.0));
                    PlacementError::NoCapacity {
                        closest: s.node,
                        required_watts: required,
                        budget_watts: budget,
                    }
                }
                None => PlacementError::UnknownNode(NodeId::local()),
            });
        };
        self.register_batch_on(node, name, app)
            .map_err(|e| match e {
                ClusterError::Admission(AdmissionError::PowerBudgetExceeded {
                    required_watts,
                    budget_watts,
                }) => PlacementError::NoCapacity {
                    closest: node,
                    required_watts,
                    budget_watts,
                },
                // register_batch_on only fails with Admission or UnknownNode,
                // and the node came from our own table.
                _ => PlacementError::UnknownNode(node),
            })
    }

    /// Registers a batch tenant on a specific node, bypassing placement
    /// (the migration engine's admit half uses exactly this path, which
    /// is what makes a migration equal a drain plus a directed admit).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownNode`] for an invalid node,
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

    /// Deregisters a batch tenant: it drains on its node and retires.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InFlight`] while the tenant is mid-migration;
    /// otherwise the hosting node's [`ControlError`].
    pub fn deregister(&mut self, id: ClusterTenantId) -> Result<(), ClusterError> {
        if self.in_flight.iter().any(|m| m.tenant == id) {
            return Err(ClusterError::InFlight(id));
        }
        let entry = self
            .tenants
            .get(id.0)
            .ok_or(ClusterError::UnknownTenant(id))?;
        if entry.app.is_none() {
            return Err(ClusterError::NotABatchTenant(id));
        }
        let (node, local) = (entry.node, entry.local);
        self.nodes
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?
            .core_mut()
            .deregister(local)?;
        Ok(())
    }

    /// Starts migrating a batch tenant to `dest`: drains it on its source
    /// now, admits it on `dest` after the configured cost in quanta.
    /// While in flight the tenant's cluster state is
    /// `Relocating(Node(dest))`.
    ///
    /// # Errors
    ///
    /// Returns [`MigrateError`] when the tenant cannot move (unknown, LC,
    /// already in flight, same node, unknown destination, or the source
    /// refuses the drain).
    pub fn migrate(&mut self, id: ClusterTenantId, dest: NodeId) -> Result<(), MigrateError> {
        if self.in_flight.iter().any(|m| m.tenant == id) {
            return Err(MigrateError::AlreadyInFlight(id));
        }
        let entry = self
            .tenants
            .get(id.0)
            .ok_or(MigrateError::UnknownTenant(id))?;
        if entry.app.is_none() {
            return Err(MigrateError::NotABatchTenant(id));
        }
        if dest.index() >= self.nodes.len() {
            return Err(MigrateError::UnknownNode(dest));
        }
        if entry.node == dest {
            return Err(MigrateError::SameNode(dest));
        }
        let (from, local, name) = (entry.node, entry.local, entry.name.clone());
        self.nodes[from.index()]
            .core_mut()
            .deregister(local)
            .map_err(MigrateError::Source)?;
        let admit_at = self.quantum + COST_QUANTA;
        self.in_flight.push(InFlight {
            tenant: id,
            from,
            dest,
            admit_at,
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
        if node.index() >= self.nodes.len() {
            return Err(ClusterError::UnknownNode(node));
        }
        let fate = self.fate[node.index()];
        if fate.crashed || fate.drained || self.health[node.index()].state().is_down() {
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
        self.fate[node_index].drained = true;
        // Down *before* evacuating, so the node cannot be chosen as its
        // own tenants' destination.
        if let Some((from, to)) = self.health[node_index].force_down() {
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
    /// retry the displaced queue, and run the degraded-mode hysteresis —
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
            if verdict.crash {
                self.fate[i].crashed = true;
            }
            if verdict.blackout_quanta > 0 {
                let until = q + verdict.blackout_quanta;
                self.fate[i].silent_until = self.fate[i].silent_until.max(until);
            }
            if verdict.drain && self.fate[i].steppable() && !self.health[i].state().is_down() {
                self.drain_node_inner(i);
            }
        }
        // (b) Observe heartbeats and advance each state machine. The
        // heartbeat is the one observable the coordinator has: did the
        // node answer this quantum, or is it crashed, drained or blacked
        // out? Timeouts are quantum-counted, never wall-clock.
        for i in 0..self.nodes.len() {
            let beat = !self.fate[i].silent_at(q);
            let Some((from, to)) = self.health[i].observe(beat) else {
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
                self.reconcile_rejoin(i);
            }
        }
        // (c) Retry displaced tenants whose backoff has elapsed.
        self.retry_displaced();
        // (d) Degraded-mode hysteresis: the fleet is infeasible while
        // displaced tenants remain unplaceable after their retries.
        let infeasible = !self.displaced.is_empty();
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
    /// best-scoring serving node (or park in the displaced queue), LC
    /// tenants fold their traffic share onto the best surviving replica.
    fn evacuate_node(&mut self, node_index: usize) {
        let source = NodeId::from_index(node_index);
        let candidates: Vec<ClusterTenantId> = (0..self.tenants.len())
            .map(ClusterTenantId)
            .filter(|id| {
                let e = &self.tenants[id.0];
                e.node == source
                    && !self.in_flight.iter().any(|m| m.tenant == *id)
                    && !self.displaced.iter().any(|d| d.tenant == *id)
                    && self.nodes[node_index]
                        .core()
                        .tenant(e.local)
                        .is_some_and(|t| {
                            matches!(
                                t.state(),
                                LifecycleState::Admitted
                                    | LifecycleState::Running
                                    | LifecycleState::Degraded
                                    | LifecycleState::Relocating(_)
                            )
                        })
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

    /// Parks an unplaceable evacuee in the displaced queue with the
    /// initial backoff. Parked tenants are retried every quantum their
    /// backoff allows; they are never dropped.
    fn park(&mut self, id: ClusterTenantId, from: NodeId) {
        let retry_at = self.quantum + retry_backoff(0);
        self.displaced.push(DisplacedTenant {
            tenant: id,
            from,
            attempts: 0,
            retry_at,
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
        if self.health[home.index()].state().is_serving()
            && self.fate[home.index()].steppable()
            && self.nodes[home.index()]
                .core()
                .tenant(old_local)
                .is_some_and(|t| t.state().is_live())
        {
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
                if self.fate[home.index()].steppable() {
                    // The old row still exists on an alive-but-silent
                    // node (blackout split-brain): remember it so the
                    // duplicate drains when the node rejoins.
                    self.stale_locals[home.index()].push(old_local);
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
    /// best surviving replica of the same service. LC tenants cannot
    /// re-enter admission (their matrix rows and queue state are pinned),
    /// so the *traffic* moves instead — the cluster entry is re-homed to
    /// the survivor's own LC row, which may leave two cluster entries
    /// mapping to the same local row until the failed node is replaced.
    fn evacuate_lc(&mut self, id: ClusterTenantId) {
        let entry = &self.tenants[id.0];
        let source = entry.node;
        let old_local = entry.local;
        let name = entry.name.clone();
        let Some(TenantKind::LatencyCritical { lc_index }) = self.nodes[source.index()]
            .core()
            .tenant(old_local)
            .map(|t| t.kind())
        else {
            return;
        };
        // Surviving replicas: serving nodes that host this LC service.
        // Scored through the shared placement policy (tenant-count
        // pressure only; LC admission is not power-gated here).
        let scores: Vec<PlacementScore> = self
            .nodes
            .iter()
            .filter(|n| n.id() != source)
            .filter(|n| self.health[n.id().index()].state().is_serving())
            .filter(|n| n.core().scenario().num_lc() > lc_index)
            .map(|n| PlacementScore {
                node: n.id(),
                headroom_watts: 0.0,
                same_app_tenants: 1,
                live_tenants: n.live_tenants(),
            })
            .collect();
        let Some(dest) = pick_best(&scores) else {
            // No surviving replica hosts this service: the traffic has
            // nowhere to fold. The entry stays homed on the failed node.
            return;
        };
        let src_share = self.nodes[source.index()].core().lc_traffic_shares()[lc_index];
        let dest_share = self.nodes[dest.index()].core().lc_traffic_shares()[lc_index];
        // Indices are valid by the filters above; the driver cannot
        // refuse them.
        let _ = self.nodes[source.index()]
            .core_mut()
            .set_lc_traffic_share(lc_index, 0.0);
        let _ = self.nodes[dest.index()]
            .core_mut()
            .set_lc_traffic_share(lc_index, dest_share + src_share);
        let dest_local = self.nodes[dest.index()].core().tenants().iter().position(
            |t| matches!(t.kind(), TenantKind::LatencyCritical { lc_index: li } if li == lc_index),
        );
        if let Some(pos) = dest_local {
            let entry = &mut self.tenants[id.0];
            entry.node = dest;
            entry.local = TenantId::from_index(pos);
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

    /// Retries every displaced tenant whose backoff has elapsed, in
    /// displacement order. A failure re-parks the tenant with the next
    /// (bounded) backoff and announces it — the queue shrinks only by
    /// successful placement, never by dropping.
    fn retry_displaced(&mut self) {
        let parked = std::mem::take(&mut self.displaced);
        for d in parked {
            if d.retry_at > self.quantum {
                self.displaced.push(d);
                continue;
            }
            if self.place_evacuee(d.tenant) {
                continue;
            }
            let attempts = d.attempts + 1;
            let retry_at = self.quantum + retry_backoff(attempts);
            self.pending.push(ClusterEvent::Displaced {
                tenant: d.tenant,
                name: self.tenants[d.tenant.0].name.clone(),
                from: d.from,
                attempts,
                retry_at,
                quantum: self.quantum,
            });
            self.displaced.push(DisplacedTenant {
                attempts,
                retry_at,
                ..d
            });
        }
    }

    /// Drains the stale local rows a rejoining node accumulated while it
    /// was unobservable: tenants evacuated elsewhere in the meantime must
    /// not run twice. The row may have already retired; refusals are
    /// fine.
    fn reconcile_rejoin(&mut self, node_index: usize) {
        for local in std::mem::take(&mut self.stale_locals[node_index]) {
            let _ = self.nodes[node_index].core_mut().deregister(local);
        }
    }

    /// While degraded, frees capacity each quantum: sheds the most
    /// recently placed live batch tenant on a serving node; once no batch
    /// remains, shrinks every serving node's LC traffic shares toward the
    /// safe-mode floor.
    fn shed_for_capacity(&mut self) {
        let victims: Vec<ClusterTenantId> = self
            .tenants
            .iter()
            .enumerate()
            .rev()
            .map(|(idx, e)| (ClusterTenantId(idx), e))
            .filter(|(id, e)| {
                e.app.is_some()
                    && self.health[e.node.index()].state().is_serving()
                    && !self.in_flight.iter().any(|m| m.tenant == *id)
                    && !self.displaced.iter().any(|d| d.tenant == *id)
                    && self.nodes[e.node.index()]
                        .core()
                        .tenant(e.local)
                        .is_some_and(|t| t.state().is_live())
            })
            .map(|(id, _)| id)
            .collect();
        for id in victims {
            if self.deregister(id).is_ok() {
                return;
            }
        }
        // No batch left to shed: shrink LC shares toward the floor.
        for i in 0..self.nodes.len() {
            if !self.health[i].state().is_serving() {
                continue;
            }
            let shares = self.nodes[i].core().lc_traffic_shares().to_vec();
            for (lc_index, share) in shares.into_iter().enumerate() {
                let target = (share - SHARE_SHRINK).max(MIN_DEGRADED_SHARE);
                if target < share {
                    let _ = self.nodes[i]
                        .core_mut()
                        .set_lc_traffic_share(lc_index, target);
                }
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
        let due: Vec<InFlight> = self
            .in_flight
            .iter()
            .filter(|m| m.admit_at <= self.quantum)
            .copied()
            .collect();
        self.in_flight.retain(|m| m.admit_at > self.quantum);
        for m in due {
            let entry = &self.tenants[m.tenant.0];
            let name = entry.name.clone();
            // In-flight tenants are batch by construction (migrate()
            // refuses LC tenants), so the app is always present.
            let Some(app) = entry.app else { continue };
            // A non-serving destination counts as a refusal without
            // bothering its admission control.
            let admitted = if self.health[m.dest.index()].state().is_serving() {
                self.nodes[m.dest.index()]
                    .core_mut()
                    .register_batch(&name, app)
                    .ok()
            } else {
                None
            };
            match admitted {
                Some(local) => {
                    let entry = &mut self.tenants[m.tenant.0];
                    entry.node = m.dest;
                    entry.local = local;
                    self.pending.push(ClusterEvent::MigrationCompleted {
                        tenant: m.tenant,
                        name,
                        from: m.from,
                        to: m.dest,
                        quantum: self.quantum,
                    });
                }
                None => {
                    self.pending.push(ClusterEvent::MigrationFailed {
                        tenant: m.tenant,
                        name: name.clone(),
                        to: m.dest,
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
                            to: m.dest,
                            attempts,
                            quantum: self.quantum,
                        });
                        continue;
                    }
                    // Next-best destination, excluding the refuser; fall
                    // back to the same destination when nothing else is
                    // feasible (it may free capacity by the retry).
                    let scores = self.scores_for(app, Some(m.dest));
                    let next = pick_best(&scores).unwrap_or(m.dest);
                    let wait = COST_QUANTA
                        .saturating_mul(1usize << attempts.min(16))
                        .min(RETRY_CAP_QUANTA);
                    let admit_at = self.quantum + wait;
                    self.in_flight.push(InFlight {
                        tenant: m.tenant,
                        from: m.from,
                        dest: next,
                        admit_at,
                        attempts,
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

    /// Phases 3–5: drain node events, balance traffic, auto-migrate.
    fn settle_cross_node(&mut self) {
        for i in 0..self.nodes.len() {
            let events: Vec<ControlEvent> = self.nodes[i].core_mut().drain_events();
            self.pending
                .extend(events.into_iter().map(ClusterEvent::Node));
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
                    .filter(|n| self.health[n.id().index()].state().is_serving())
                    .filter(|n| n.core().scenario().num_lc() > lc_index)
                    .map(|n| {
                        (
                            n.id(),
                            n.lc_tail_ratio(lc_index).unwrap_or(0.0),
                            n.core().lc_traffic_shares()[lc_index],
                        )
                    })
                    .collect();
                if let Some(shift) = decide_shift(lc_index, &replicas) {
                    let share_of = |node: NodeId| {
                        replicas
                            .iter()
                            .find(|r| r.0 == node)
                            .map(|r| r.2)
                            .unwrap_or(0.0)
                    };
                    let from_share = share_of(shift.from) - shift.amount;
                    let to_share = share_of(shift.to) + shift.amount;
                    // Ids came from the replica table we just built, so
                    // the driver cannot refuse them.
                    let _ = self.nodes[shift.from.index()]
                        .core_mut()
                        .set_lc_traffic_share(lc_index, from_share);
                    let _ = self.nodes[shift.to.index()]
                        .core_mut()
                        .set_lc_traffic_share(lc_index, to_share);
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
                if !self.health[i].state().is_serving() {
                    continue;
                }
                if self.nodes[i].last_tail_ratio() <= threshold {
                    continue;
                }
                let source = NodeId::from_index(i);
                // The most recently placed live batch tenant on the
                // breaching node, skipping tenants already in flight or
                // parked displaced.
                let candidate = self
                    .tenants
                    .iter()
                    .enumerate()
                    .rev()
                    .map(|(idx, e)| (ClusterTenantId(idx), e))
                    .find(|(id, e)| {
                        e.node == source
                            && e.app.is_some()
                            && !self.in_flight.iter().any(|m| m.tenant == *id)
                            && !self.displaced.iter().any(|d| d.tenant == *id)
                            && self.nodes[i]
                                .core()
                                .tenant(e.local)
                                .is_some_and(|t| t.state().is_live())
                    });
                let Some((id, entry)) = candidate else {
                    continue;
                };
                let Some(app) = entry.app else { continue };
                let scores = self.scores_for(app, Some(source));
                if let Some(dest) = pick_best(&scores) {
                    // All preconditions were just checked; a refusal here
                    // would be a coordinator logic bug.
                    let moved = self.migrate(id, dest);
                    debug_assert!(moved.is_ok(), "auto-migration refused: {moved:?}");
                }
            }
        }
    }

    /// Steps one lockstep quantum across the fleet, serially in ascending
    /// node-id order. Every steppable node steps even when an earlier one
    /// fails.
    ///
    /// # Errors
    ///
    /// Returns the first stepping node's [`ControlError`] in node-id
    /// order (a control-plane logic bug, surfaced hard).
    pub fn step_quantum(&mut self) -> Result<(), ClusterError> {
        self.health_phase();
        self.complete_due_migrations();
        let mut first_error = None;
        for (node, fate) in self.nodes.iter_mut().zip(&self.fate) {
            if fate.steppable() {
                if let Err(e) = node.step() {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_error {
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
            .enumerate()
            .all(|(i, n)| !self.fate[i].steppable() || n.core().is_done())
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
                    kind: if e.app.is_some() {
                        "batch"
                    } else {
                        "latency_critical"
                    },
                    node: self.tenant_node(ClusterTenantId(i)).unwrap_or(e.node),
                    state: self
                        .tenant_state(ClusterTenantId(i))
                        .unwrap_or(LifecycleState::Retired),
                })
                .collect(),
            in_flight: self.in_flight.len(),
            node_health: self.health.iter().map(|h| h.state().name()).collect(),
            displaced: self.displaced.len(),
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
        self.in_flight.clear();
        self.displaced.clear();
        for i in 0..self.nodes.len() {
            // A crashed node is gone — nothing drains cleanly off it —
            // and a drained node's control plane already shut down; both
            // still surface any events queued before the lights went out.
            if self.fate[i].steppable() {
                self.nodes[i].core_mut().shutdown()?;
            }
            // The drain emits lifecycle events (Draining, Retired) on the
            // node core; surface them like any other quantum's phase 3.
            let events: Vec<ControlEvent> = self.nodes[i].core_mut().drain_events();
            self.pending
                .extend(events.into_iter().map(ClusterEvent::Node));
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
                .map(|n| {
                    let core = n.into_core();
                    core.into_record()
                })
                .collect(),
        }
    }
}
