//! The sans-io control-plane core: admission, lifecycle, one quantum at a
//! time.
//!
//! [`ControlCore`] wraps a [`ScenarioDriver`] and a [`CuttleSysManager`]
//! behind the small API a long-lived service needs:
//!
//! * **register / deregister** — batch tenants join and leave at runtime.
//!   Registration passes admission control: the candidate's *worst-case*
//!   power (its peak per-core draw across all 108 configurations, from the
//!   same offline oracle characterization the rating matrices train on)
//!   must fit in the steady-state budget left after every already-admitted
//!   tenant's worst case (computed once, when its row is recorded) is
//!   committed ([`crate::accounting::steady_state_budget`]). Rejection is
//!   permanent for that registration: the tenant goes Registering → Retired
//!   and the caller gets [`AdmissionError`].
//! * **step_quantum** — runs one 100 ms decision quantum and moves each
//!   [`TenantLifecycle`] only where the quantum started or ended a tenant:
//!   a tenant's first run takes it Admitted → Running, and a drained batch
//!   job retires once its last slice has run. How the quantum itself went
//!   (a degraded decision, a reshaped LC core reservation) is stated once,
//!   in the returned [`SliceRecord`], not copied into tenant states.
//! * **events** — every lifecycle transition, admission rejection, and
//!   degraded quantum is queued as a [`ControlEvent`]; the service layer
//!   drains the queue after each quantum and broadcasts.
//! * **snapshot** — a serializable [`ControlSnapshot`] of the tenant table
//!   (the `/state` endpoint renders it via [`ControlSnapshot::to_json`]).
//!
//! The core is deliberately **sans-io**: it touches no wall clock, spawns
//! no threads, and opens no sockets — every step is a pure function of the
//! scenario seed, the registration sequence, and the manager's decisions.
//! The `service` crate owns the concurrency (the FIFO turn its callers
//! share), the broadcast bus, and the metrics endpoint;
//! this split is what makes a recorded registration trace replayable
//! bit-for-bit (see `tests/control_plane.rs`).

use std::sync::Arc;

use util::json::JsonValue;
use workloads::batch::SpecBenchmark;

use crate::accounting::steady_state_budget;
use crate::lifecycle::{LifecycleError, LifecycleState, NodeId, TenantLifecycle};
use crate::matrices::FactorLibrary;
use crate::runtime::CuttleSysManager;
use crate::testbed::{DriveError, ScenarioDriver};
use crate::types::{
    BatchJobSpec, JobSpec, ResourceManager, RunRecord, Scenario, SliceRecord, TIMESLICE_MS,
};

/// The profiling window at the head of every quantum (two 1 ms
/// split-halves frames, §VIII-A1). Admission charges this window at the
/// full nominal budget: during profiling the chip runs a configuration
/// pattern the admission check cannot predict.
const PROFILING_MS: f64 = 2.0;

/// Opaque handle to one tenant in a [`ControlCore`]. Ids are never reused:
/// a retired tenant keeps its row in the tenant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's index in [`ControlCore::tenants`].
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs an id from its tenant-table index (e.g. from a recorded
    /// trace or a parsed snapshot). Ids are assigned in registration order,
    /// which is what makes traces replayable.
    pub fn from_index(index: usize) -> TenantId {
        TenantId(index)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What kind of job a tenant is, and where it lives in the job tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantKind {
    /// An interactive service (declared in the scenario; cannot leave).
    LatencyCritical {
        /// Index among LC tenants (priority order).
        lc_index: usize,
    },
    /// A throughput application (may register and deregister at runtime).
    Batch {
        /// Index among batch jobs.
        batch_index: usize,
    },
}

impl TenantKind {
    /// Stable name for metrics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TenantKind::LatencyCritical { .. } => "latency_critical",
            TenantKind::Batch { .. } => "batch",
        }
    }
}

/// One row of the control plane's tenant table.
#[derive(Debug, Clone)]
pub struct TenantEntry {
    name: String,
    kind: TenantKind,
    lifecycle: TenantLifecycle,
    /// The tenant's worst-case steady-state power, fixed at registration:
    /// its [`FactorLibrary::peak_watts`], times its core reservation for LC
    /// tenants. Profiles and declared LC core counts never change at
    /// runtime.
    worst_case_watts: f64,
}

impl TenantEntry {
    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's kind and job-table index.
    pub fn kind(&self) -> TenantKind {
        self.kind
    }

    /// The tenant's current lifecycle state.
    pub fn state(&self) -> LifecycleState {
        self.lifecycle.state()
    }

    /// Lifecycle transitions taken so far.
    pub fn transitions(&self) -> usize {
        self.lifecycle.transitions()
    }
}

/// A control-plane occurrence, queued by the core and broadcast by the
/// service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A tenant moved between lifecycle states.
    Lifecycle {
        /// The node whose control plane took the transition.
        node: NodeId,
        /// The tenant.
        tenant: TenantId,
        /// Its registered name.
        name: String,
        /// The state it left.
        from: LifecycleState,
        /// The state it entered.
        to: LifecycleState,
        /// The next-to-run slice when the transition happened.
        slice: usize,
    },
    /// Admission control rejected a registration.
    AdmissionRejected {
        /// The node whose admission control rejected it.
        node: NodeId,
        /// The (retired) tenant row recording the attempt.
        tenant: TenantId,
        /// The candidate's registered name.
        name: String,
        /// Committed + candidate worst-case power (W).
        required_watts: f64,
        /// The steady-state budget it had to fit (W).
        budget_watts: f64,
        /// The next-to-run slice when the rejection happened.
        slice: usize,
    },
    /// A quantum was served from the degradation ladder.
    QuantumDegraded {
        /// The node whose quantum degraded.
        node: NodeId,
        /// The degraded slice.
        slice: usize,
        /// Whether the ladder bottomed out in safe mode.
        safe_mode: bool,
    },
}

impl ControlEvent {
    /// The node whose control plane produced the event.
    pub fn node(&self) -> NodeId {
        match self {
            ControlEvent::Lifecycle { node, .. }
            | ControlEvent::AdmissionRejected { node, .. }
            | ControlEvent::QuantumDegraded { node, .. } => *node,
        }
    }
}

/// Why admission control rejected a registration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionError {
    /// The candidate's worst-case power cannot fit in the steady-state
    /// budget next to the already-committed tenants.
    PowerBudgetExceeded {
        /// Committed + candidate worst-case power (W).
        required_watts: f64,
        /// The steady-state budget it had to fit (W).
        budget_watts: f64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::PowerBudgetExceeded {
                required_watts,
                budget_watts,
            } => write!(
                f,
                "admission rejected: worst-case {required_watts:.1} W exceeds \
                 steady-state budget {budget_watts:.1} W"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A control-plane request that could not be honored.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// No tenant has this id.
    UnknownTenant(TenantId),
    /// The operation applies only to batch tenants (LC tenants are declared
    /// in the scenario and pinned for the life of the service).
    NotABatchTenant(TenantId),
    /// A lifecycle transition the state machine forbids — by construction a
    /// control-plane logic bug, surfaced hard rather than papered over.
    Lifecycle(LifecycleError),
    /// The driver refused a churn request.
    Drive(DriveError),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            ControlError::NotABatchTenant(id) => {
                write!(
                    f,
                    "tenant {id} is latency-critical and cannot be deregistered"
                )
            }
            ControlError::Lifecycle(e) => write!(f, "{e}"),
            ControlError::Drive(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<LifecycleError> for ControlError {
    fn from(e: LifecycleError) -> ControlError {
        ControlError::Lifecycle(e)
    }
}

impl From<DriveError> for ControlError {
    fn from(e: DriveError) -> ControlError {
        ControlError::Drive(e)
    }
}

/// A serializable view of one tenant for [`ControlSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Registered name.
    pub name: String,
    /// `"latency_critical"` or `"batch"`.
    pub kind: &'static str,
    /// Current lifecycle state.
    pub state: LifecycleState,
    /// Lifecycle transitions taken so far.
    pub transitions: usize,
}

/// A point-in-time view of the control plane (the `/state` endpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSnapshot {
    /// The node this control plane runs on.
    pub node: NodeId,
    /// Index of the next slice to run.
    pub slice: usize,
    /// Whether the manager's safe-mode circuit breaker is open.
    pub breaker_open: bool,
    /// Every tenant ever registered, in registration order.
    pub tenants: Vec<TenantSnapshot>,
}

impl ControlSnapshot {
    /// The snapshot as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("node".into(), JsonValue::Str(self.node.to_string())),
            ("slice".into(), JsonValue::Num(self.slice as f64)),
            ("breaker_open".into(), JsonValue::Bool(self.breaker_open)),
            (
                "tenants".into(),
                JsonValue::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            JsonValue::Obj(vec![
                                ("name".into(), JsonValue::Str(t.name.clone())),
                                ("kind".into(), JsonValue::Str(t.kind.to_string())),
                                ("state".into(), JsonValue::Str(t.state.name().to_string())),
                                ("transitions".into(), JsonValue::Num(t.transitions as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The sans-io control plane: a [`ScenarioDriver`], a [`CuttleSysManager`],
/// and the tenant table, stepped one quantum at a time.
pub struct ControlCore {
    node: NodeId,
    driver: ScenarioDriver,
    manager: CuttleSysManager,
    library: Arc<FactorLibrary>,
    tenants: Vec<TenantEntry>,
    pending: Vec<ControlEvent>,
}

impl ControlCore {
    /// Builds the control plane over a scenario. Every job the scenario
    /// declares becomes a pre-admitted tenant (Registering → Admitted
    /// immediately): the scenario is the operator's statement of the
    /// intended steady co-location, so admission control applies only to
    /// *runtime* registrations.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ScenarioDriver::new`] / [`CuttleSysManager::for_scenario`].
    // Declared tenants bypass admission, so these transitions are legal by
    // construction.
    pub fn new(scenario: &Scenario) -> ControlCore {
        ControlCore::on_node(scenario, NodeId::local())
    }

    /// Like [`new`](Self::new), but stamps every event and snapshot with the
    /// given node identity. A cluster coordinator builds one core per node;
    /// single-node deployments use [`new`](Self::new), whose
    /// [`NodeId::local`] identity is node 0 — the two produce bit-identical
    /// records.
    pub fn on_node(scenario: &Scenario, node: NodeId) -> ControlCore {
        ControlCore::sharing(
            scenario,
            node,
            Arc::new(FactorLibrary::for_chip(scenario.params)),
        )
    }

    /// Like [`on_node`](Self::on_node), over a factor library shared with
    /// the other nodes on chips with `scenario.params` (a fleet learns each
    /// chip's factors once). Records are bit-identical to
    /// [`on_node`](Self::on_node)'s.
    ///
    /// # Panics
    ///
    /// Panics if `library` characterizes a chip other than
    /// `scenario.params`, and under the same conditions as
    /// [`new`](Self::new).
    #[allow(clippy::expect_used)]
    pub fn sharing(scenario: &Scenario, node: NodeId, library: Arc<FactorLibrary>) -> ControlCore {
        assert!(
            library.params() == &scenario.params,
            "the factor library characterizes another chip"
        );
        let mut core = ControlCore {
            node,
            driver: ScenarioDriver::new(scenario),
            manager: CuttleSysManager::sharing(scenario, Arc::clone(&library)),
            library,
            tenants: Vec::new(),
            pending: Vec::new(),
        };
        for (i, lc) in scenario.lc_jobs().iter().enumerate() {
            let worst_case = lc.cores as f64 * core.library.peak_watts(&lc.service.profile);
            let id = core.push_tenant(
                format!("{}#{i}", lc.service.name),
                TenantKind::LatencyCritical { lc_index: i },
                worst_case,
            );
            core.transition(id, LifecycleState::Admitted)
                .expect("declared tenant admission is legal");
        }
        for (j, b) in scenario.batch_jobs().iter().enumerate() {
            let worst_case = core.library.peak_watts(&b.app.profile);
            let id = core.push_tenant(
                format!("{}#{j}", b.app.name),
                TenantKind::Batch { batch_index: j },
                worst_case,
            );
            core.transition(id, LifecycleState::Admitted)
                .expect("declared tenant admission is legal");
        }
        core
    }

    fn push_tenant(&mut self, name: String, kind: TenantKind, worst_case_watts: f64) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(TenantEntry {
            name,
            kind,
            lifecycle: TenantLifecycle::new(),
            worst_case_watts,
        });
        id
    }

    /// Applies `id → to`, queuing the lifecycle event.
    fn transition(&mut self, id: TenantId, to: LifecycleState) -> Result<(), ControlError> {
        let slice = self.driver.next_slice();
        let entry = self
            .tenants
            .get_mut(id.0)
            .ok_or(ControlError::UnknownTenant(id))?;
        let from = entry.lifecycle.state();
        entry.lifecycle.transition(to)?;
        self.pending.push(ControlEvent::Lifecycle {
            node: self.node,
            tenant: id,
            name: entry.name.clone(),
            from,
            to,
            slice,
        });
        Ok(())
    }

    /// Admission arithmetic for a candidate batch app whose peak draw is
    /// `candidate`: `(required, budget)` where `required` is every
    /// non-retired tenant's worst case plus the candidate's, and `budget`
    /// is the steady-state power left after the profiling window is
    /// charged at the (candidate-inclusive) nominal budget.
    fn admission_check(&self, app: SpecBenchmark, candidate: f64) -> (f64, f64) {
        let scenario = self.driver.scenario();
        // The nominal budget is defined over the full co-location (§VII-A),
        // so evaluate it as if the candidate were already present.
        let mut hypothetical = scenario.clone();
        hypothetical.jobs.push(JobSpec::Batch(BatchJobSpec {
            app,
            arrive_slice: self.driver.next_slice(),
            depart_slice: None,
        }));
        let nominal = hypothetical.nominal_budget_watts();
        let t_s = self.driver.next_slice() as f64 * TIMESLICE_MS / 1000.0;
        let cap_watts = scenario.cap.load_at(t_s) * nominal;
        let committed: f64 = self
            .tenants
            .iter()
            .filter(|t| {
                let s = t.lifecycle.state();
                s != LifecycleState::Registering && !s.is_terminal()
            })
            .map(|t| t.worst_case_watts)
            .sum();
        let budget = steady_state_budget(cap_watts, TIMESLICE_MS, PROFILING_MS, nominal);
        (committed + candidate, budget)
    }

    /// Registers a batch tenant at runtime, arriving at the next slice.
    ///
    /// The registration is recorded in the tenant table either way: an
    /// accepted tenant lands in Admitted, a rejected one in Retired (with
    /// an [`ControlEvent::AdmissionRejected`] queued).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the candidate's worst-case power
    /// cannot fit in the steady-state budget.
    // Registering → {Admitted, Retired} are both legal by the table.
    #[allow(clippy::expect_used)]
    pub fn register_batch(
        &mut self,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<TenantId, AdmissionError> {
        let slice = self.driver.next_slice();
        let peak = self.library.peak_watts(&app.profile);
        let (required_watts, budget_watts) = self.admission_check(app, peak);
        if required_watts > budget_watts {
            let id = self.push_tenant(
                name.to_string(),
                // The job never materializes; record the index it *would*
                // have taken. The row is terminal, so neither the index nor
                // the worst case is ever read.
                TenantKind::Batch {
                    batch_index: self.driver.scenario().num_batch(),
                },
                peak,
            );
            self.transition(id, LifecycleState::Retired)
                .expect("rejection is legal");
            self.pending.push(ControlEvent::AdmissionRejected {
                node: self.node,
                tenant: id,
                name: name.to_string(),
                required_watts,
                budget_watts,
                slice,
            });
            return Err(AdmissionError::PowerBudgetExceeded {
                required_watts,
                budget_watts,
            });
        }
        let batch_index = self.driver.admit_batch(app);
        let grown = self.manager.admit_batch();
        debug_assert_eq!(batch_index, grown, "driver and manager row counts agree");
        let id = self.push_tenant(name.to_string(), TenantKind::Batch { batch_index }, peak);
        self.transition(id, LifecycleState::Admitted)
            .expect("admission is legal");
        Ok(id)
    }

    /// Deregisters a batch tenant: it drains at the next slice boundary and
    /// retires once its last slice has run.
    ///
    /// # Errors
    ///
    /// [`ControlError::NotABatchTenant`] for LC tenants (they are declared
    /// in the scenario and pinned), [`ControlError::Lifecycle`] when the
    /// tenant cannot drain from its current state (e.g. already draining or
    /// retired), [`ControlError::Drive`] when the driver has no running job
    /// at the tenant's index.
    pub fn deregister(&mut self, id: TenantId) -> Result<(), ControlError> {
        let entry = self
            .tenants
            .get(id.0)
            .ok_or(ControlError::UnknownTenant(id))?;
        let batch_index = match entry.kind {
            TenantKind::Batch { batch_index } => batch_index,
            TenantKind::LatencyCritical { .. } => return Err(ControlError::NotABatchTenant(id)),
        };
        let from = entry.lifecycle.state();
        if !from.can_transition(LifecycleState::Draining) {
            return Err(ControlError::Lifecycle(LifecycleError {
                from,
                to: LifecycleState::Draining,
            }));
        }
        self.driver.drain_batch(batch_index)?;
        self.transition(id, LifecycleState::Draining)
    }

    /// Runs one decision quantum, then promotes every tenant that ran for
    /// the first time (Admitted → Running) and retires every drained batch
    /// job whose last slice has run (Draining → Retired). Queued
    /// [`ControlEvent`]s are drained with [`drain_events`](Self::drain_events).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Lifecycle`] if a promotion or retirement is
    /// illegal — a control-plane logic bug, surfaced hard.
    pub fn step_quantum(&mut self) -> Result<SliceRecord, ControlError> {
        let slice = self.driver.next_slice();
        let record = self.driver.step(&mut self.manager).clone();
        let after = self.driver.next_slice();
        let ran = self.driver.scenario().batch_active(slice);
        let present_next = self.driver.scenario().batch_active(after);

        for i in 0..self.tenants.len() {
            let to = match (self.tenants[i].kind, self.tenants[i].lifecycle.state()) {
                (TenantKind::LatencyCritical { .. }, LifecycleState::Admitted) => {
                    LifecycleState::Running
                }
                (TenantKind::Batch { batch_index }, LifecycleState::Admitted)
                    if ran.get(batch_index).copied().unwrap_or(false) =>
                {
                    LifecycleState::Running
                }
                (TenantKind::Batch { batch_index }, LifecycleState::Draining)
                    if !present_next.get(batch_index).copied().unwrap_or(false) =>
                {
                    LifecycleState::Retired
                }
                _ => continue,
            };
            self.transition(TenantId(i), to)?;
        }

        if let Some(t) = record
            .telemetry
            .as_ref()
            .filter(|t| t.degradation.degraded())
        {
            self.pending.push(ControlEvent::QuantumDegraded {
                node: self.node,
                slice,
                safe_mode: t.degradation.safe_mode,
            });
        }
        Ok(record)
    }

    /// Drains every non-terminal tenant to Retired: batch jobs are drained
    /// through the driver, LC tenants are released directly (the run is
    /// over; there is nothing to hand off to).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Lifecycle`] if a tenant cannot legally reach
    /// Retired — impossible by the transition table, so any error here is a
    /// logic bug.
    pub fn shutdown(&mut self) -> Result<(), ControlError> {
        for i in 0..self.tenants.len() {
            let id = TenantId(i);
            let state = self.tenants[i].lifecycle.state();
            match state {
                LifecycleState::Retired => {}
                LifecycleState::Registering => self.transition(id, LifecycleState::Retired)?,
                LifecycleState::Draining => self.transition(id, LifecycleState::Retired)?,
                _ => {
                    if let TenantKind::Batch { batch_index } = self.tenants[i].kind {
                        // The job may already have departed (NotRunning);
                        // shutdown retires it either way.
                        let _ = self.driver.drain_batch(batch_index);
                    }
                    self.transition(id, LifecycleState::Draining)?;
                    self.transition(id, LifecycleState::Retired)?;
                }
            }
        }
        Ok(())
    }

    /// Takes every event queued since the previous drain, in order.
    pub fn drain_events(&mut self) -> Vec<ControlEvent> {
        std::mem::take(&mut self.pending)
    }

    /// A point-in-time view of the tenant table.
    pub fn snapshot(&self) -> ControlSnapshot {
        ControlSnapshot {
            node: self.node,
            slice: self.driver.next_slice(),
            breaker_open: self.manager.breaker_open(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantSnapshot {
                    name: t.name.clone(),
                    kind: t.kind.name(),
                    state: t.lifecycle.state(),
                    transitions: t.lifecycle.transitions(),
                })
                .collect(),
        }
    }

    /// The node identity stamped on this core's events and snapshots.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The admission arithmetic for a candidate batch app, without
    /// registering it: `(required_watts, budget_watts)`. A cluster placement
    /// layer calls this on every node to bin-pack a tenant onto the node
    /// with the most worst-case headroom.
    pub fn admission_preview(&self, app: SpecBenchmark) -> (f64, f64) {
        self.admission_check(app, self.library.peak_watts(&app.profile))
    }

    /// Scales the offered load of one LC service (cluster load balancing
    /// shifts traffic between replicas of a service on different nodes).
    ///
    /// # Errors
    ///
    /// Returns [`DriveError::UnknownLcService`] when `lc_index` is out of
    /// range.
    pub fn set_lc_traffic_share(&mut self, lc_index: usize, share: f64) -> Result<(), DriveError> {
        self.driver.set_lc_share(lc_index, share)
    }

    /// The current per-LC traffic-share multipliers.
    pub fn lc_traffic_shares(&self) -> &[f64] {
        self.driver.lc_shares()
    }

    /// Every tenant ever registered, in registration order.
    pub fn tenants(&self) -> &[TenantEntry] {
        &self.tenants
    }

    /// One tenant, if the id is valid.
    pub fn tenant(&self, id: TenantId) -> Option<&TenantEntry> {
        self.tenants.get(id.0)
    }

    /// The slice records produced so far.
    pub fn records(&self) -> &[SliceRecord] {
        self.driver.records()
    }

    /// Index of the next slice to run.
    pub fn next_slice(&self) -> usize {
        self.driver.next_slice()
    }

    /// Whether the scenario's declared horizon has been simulated (the
    /// service may keep stepping past it).
    pub fn is_done(&self) -> bool {
        self.driver.is_done()
    }

    /// The scenario as currently constituted (runtime churn included).
    pub fn scenario(&self) -> &Scenario {
        self.driver.scenario()
    }

    /// The manager driving the decisions.
    pub fn manager(&self) -> &CuttleSysManager {
        &self.manager
    }

    /// Consumes the control plane into the completed run record.
    pub fn into_record(self) -> RunRecord {
        let scheme = self.manager.name();
        self.driver.into_record(scheme)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use simulator::power::CoreKind;
    use simulator::Chip;
    use workloads::batch;
    use workloads::oracle::Oracle;

    fn quiet(slices: usize) -> Scenario {
        Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: slices,
            ..Scenario::quick_demo()
        }
    }

    #[test]
    fn declared_tenants_are_pre_admitted_and_promote_on_first_quantum() {
        let s = quiet(2);
        let mut core = ControlCore::new(&s);
        assert_eq!(core.tenants().len(), s.num_lc() + s.num_batch());
        assert!(core
            .tenants()
            .iter()
            .all(|t| t.state() == LifecycleState::Admitted));
        core.step_quantum().unwrap();
        for t in core.tenants() {
            assert!(t.state().is_live(), "{} is {:?}", t.name(), t.state());
        }
        let events = core.drain_events();
        assert!(events.iter().any(
            |e| matches!(e, ControlEvent::Lifecycle { to, .. } if *to == LifecycleState::Running)
        ));
    }

    #[test]
    fn stepping_matches_run_scenario_bit_for_bit() {
        let s = Scenario::quick_demo();
        let expected = crate::testbed::run_scenario(&s, &mut CuttleSysManager::for_scenario(&s));
        let mut core = ControlCore::new(&s);
        while !core.is_done() {
            core.step_quantum().unwrap();
        }
        assert_eq!(core.into_record().comparable(), expected.comparable());
    }

    #[test]
    #[should_panic(expected = "the factor library characterizes another chip")]
    fn a_library_of_another_chip_is_refused() {
        let s = quiet(1);
        let other = simulator::SystemParams {
            llc_ways: s.params.llc_ways / 2,
            ..s.params
        };
        let _ = ControlCore::sharing(
            &s,
            NodeId::local(),
            Arc::new(FactorLibrary::for_chip(other)),
        );
    }

    #[test]
    fn deregistered_batch_tenant_drains_then_retires() {
        let mut core = ControlCore::new(&quiet(4));
        core.step_quantum().unwrap();
        let id = core
            .tenants()
            .iter()
            .enumerate()
            .find(|(_, t)| matches!(t.kind(), TenantKind::Batch { .. }))
            .map(|(i, _)| TenantId(i))
            .unwrap();
        core.deregister(id).unwrap();
        assert_eq!(core.tenant(id).unwrap().state(), LifecycleState::Draining);
        // Double deregistration is an explicit lifecycle error.
        assert!(matches!(
            core.deregister(id),
            Err(ControlError::Lifecycle(_))
        ));
        core.step_quantum().unwrap();
        assert_eq!(core.tenant(id).unwrap().state(), LifecycleState::Retired);
    }

    #[test]
    fn lc_tenants_cannot_deregister() {
        let mut core = ControlCore::new(&quiet(2));
        assert_eq!(
            core.deregister(TenantId(0)),
            Err(ControlError::NotABatchTenant(TenantId(0)))
        );
    }

    #[test]
    fn runtime_registration_is_admitted_under_a_loose_cap() {
        let mut s = quiet(4);
        // A loose cap leaves steady-state headroom for one more job.
        s.cap = workloads::loadgen::LoadPattern::Constant(2.0);
        let mut core = ControlCore::new(&s);
        core.step_quantum().unwrap();
        let app = batch::mix(1, 0xBEEF).apps[0];
        let id = core.register_batch("newcomer", app).expect("admitted");
        assert_eq!(core.tenant(id).unwrap().state(), LifecycleState::Admitted);
        core.step_quantum().unwrap();
        assert!(core.tenant(id).unwrap().state().is_live());
        assert_eq!(core.scenario().num_batch(), quiet(4).num_batch() + 1);
    }

    #[test]
    fn admission_control_rejects_when_the_budget_cannot_fit() {
        let mut s = quiet(2);
        // A starvation cap: nothing fits next to the committed tenants.
        s.cap = workloads::loadgen::LoadPattern::Constant(0.05);
        let mut core = ControlCore::new(&s);
        let app = batch::mix(1, 0xBEEF).apps[0];
        let before = core.tenants().len();
        let err = core.register_batch("hopeful", app).unwrap_err();
        let AdmissionError::PowerBudgetExceeded {
            required_watts,
            budget_watts,
        } = err;
        assert!(required_watts > budget_watts);
        // The rejection is recorded: a retired tenant row plus an event.
        assert_eq!(core.tenants().len(), before + 1);
        assert_eq!(
            core.tenants().last().unwrap().state(),
            LifecycleState::Retired
        );
        assert!(core
            .drain_events()
            .iter()
            .any(|e| matches!(e, ControlEvent::AdmissionRejected { .. })));
        // The job tables did not grow.
        assert_eq!(core.scenario().num_batch(), quiet(2).num_batch());
    }

    #[test]
    fn shutdown_retires_every_tenant() {
        let mut core = ControlCore::new(&quiet(3));
        core.step_quantum().unwrap();
        core.shutdown().unwrap();
        assert!(core.tenants().iter().all(|t| t.state().is_terminal()));
    }

    /// How a quantum went is stated once, in its record: neither a degraded
    /// decision nor an LC core change moves a tenant's lifecycle state.
    #[test]
    fn degraded_quanta_and_lc_core_changes_are_not_lifecycle_events() {
        // The load spike makes the LC service reclaim cores and yield them
        // back; one diverged reconstruction degrades slice 4.
        let plan = crate::faults::FaultPlan {
            reconstruct_diverge: 1.0,
            ..crate::faults::FaultPlan::none()
        }
        .with_window(4, 5);
        let scenario = Scenario {
            duration_slices: 10,
            noise: 0.0,
            phases: false,
            ..Scenario::paper_default()
        }
        .with_load(workloads::loadgen::LoadPattern::paper_spike())
        .with_faults(plan);
        let mut core = ControlCore::new(&scenario);
        let mut cores = core.step_quantum().unwrap().lc_cores();
        core.drain_events();

        let (mut changes, mut events) = (0, Vec::new());
        while !core.is_done() {
            let record = core.step_quantum().unwrap();
            changes += usize::from(record.lc_cores() != cores);
            cores = record.lc_cores();
            events.extend(core.drain_events());
        }
        assert!(changes >= 2, "the spike never moved the LC cores");
        assert_eq!(
            events,
            [ControlEvent::QuantumDegraded {
                node: NodeId::local(),
                slice: 4,
                safe_mode: false,
            }]
        );
        assert!(core
            .tenants()
            .iter()
            .all(|t| t.state() == LifecycleState::Running));
    }

    /// The admission arithmetic recomputed from scratch, as it was before
    /// worst cases were cached: every counted tenant's oracle power row is
    /// re-simulated and its peak folded in registration order.
    #[allow(
        clippy::disallowed_methods,
        reason = "the cached worst cases are checked against the truth they were characterized from"
    )]
    fn fresh_preview(core: &ControlCore, app: SpecBenchmark) -> (f64, f64) {
        let peak = |row: Vec<f64>| row.into_iter().fold(0.0, f64::max);
        let scenario = core.driver.scenario();
        let oracle = Oracle::new(Chip::new(scenario.params, CoreKind::Reconfigurable));
        let mut hypothetical = scenario.clone();
        hypothetical.jobs.push(JobSpec::Batch(BatchJobSpec {
            app,
            arrive_slice: core.driver.next_slice(),
            depart_slice: None,
        }));
        let nominal = hypothetical.nominal_budget_watts();
        let t_s = core.driver.next_slice() as f64 * TIMESLICE_MS / 1000.0;
        let cap_watts = scenario.cap.load_at(t_s) * nominal;
        let committed: f64 = core
            .tenants
            .iter()
            .filter(|t| {
                let s = t.lifecycle.state();
                s != LifecycleState::Registering && !s.is_terminal()
            })
            .map(|t| match t.kind {
                TenantKind::LatencyCritical { lc_index } => {
                    let lc = scenario.lc_jobs()[lc_index];
                    lc.cores as f64 * peak(oracle.power_row(&lc.service.profile))
                }
                TenantKind::Batch { batch_index } => {
                    let b = scenario.batch_jobs()[batch_index];
                    peak(oracle.power_row(&b.app.profile))
                }
            })
            .sum();
        let candidate = peak(oracle.power_row(&app.profile));
        let budget = steady_state_budget(cap_watts, TIMESLICE_MS, PROFILING_MS, nominal);
        (committed + candidate, budget)
    }

    #[test]
    fn cached_admission_arithmetic_equals_a_fresh_recomputation() {
        // Loose before 0.2 s and after 0.3 s; a starvation cap for slice 2.
        let mut s = quiet(6);
        s.cap = workloads::loadgen::LoadPattern::Steps(vec![(0.0, 2.0), (0.2, 0.05), (0.3, 2.0)]);
        let apps = batch::mix(4, 0xBEEF).apps;
        let mut core = ControlCore::new(&s);
        let assert_fresh = |core: &ControlCore, when: &str| {
            for app in &apps {
                let (required, budget) = core.admission_preview(*app);
                let (fresh_required, fresh_budget) = fresh_preview(core, *app);
                assert_eq!(
                    (required.to_bits(), budget.to_bits()),
                    (fresh_required.to_bits(), fresh_budget.to_bits()),
                    "{} {when}",
                    app.name
                );
            }
        };
        assert_fresh(&core, "with only the declared tenants");
        core.step_quantum().unwrap();
        let admitted = [
            core.register_batch("first", apps[0]).expect("admitted"),
            core.register_batch("second", apps[1]).expect("admitted"),
        ];
        let third = core.register_batch("third", apps[2]).expect("admitted");
        assert_fresh(&core, "after three admissions");
        core.step_quantum().unwrap();
        assert!(core.register_batch("rejected", apps[3]).is_err());
        assert_eq!(
            core.tenants().last().unwrap().state(),
            LifecycleState::Retired
        );
        assert_fresh(&core, "after a rejection");
        core.step_quantum().unwrap();
        core.deregister(third).unwrap();
        assert_fresh(&core, "while the third drains");
        core.step_quantum().unwrap();
        assert_eq!(core.tenant(third).unwrap().state(), LifecycleState::Retired);
        for id in admitted {
            assert_eq!(core.tenant(id).unwrap().state(), LifecycleState::Running);
        }
        assert_fresh(&core, "after the third retired");
    }

    #[test]
    fn snapshot_serializes_the_tenant_table() {
        let core = ControlCore::new(&quiet(2));
        let json = core.snapshot().to_json().to_string();
        assert!(json.contains("\"slice\":0"), "{json}");
        assert!(json.contains("\"state\":\"admitted\""), "{json}");
        assert!(json.contains("\"kind\":\"latency_critical\""), "{json}");
    }
}
