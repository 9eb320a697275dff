//! The cluster control plane run as a long-lived process component.
//!
//! [`ClusterService`] is to [`cluster::ClusterCoordinator`] what
//! [`Service`](crate::Service) is to `ControlCore` — literally: the same
//! turn and the same handle, over a different plane. Callers run closures
//! over the coordinator on their own threads, one at a time in arrival
//! order, cluster events broadcast on the bus, and the optional HTTP
//! endpoint serves the fleet's
//! `/metrics` (every node family under a `node=` label) and a cluster-wide
//! `/state` rendered from [`ClusterSnapshot::to_json`].
//!
//! ```
//! use cluster::ClusterScenario;
//! use cuttlesys::types::Scenario;
//! use service::cluster::ClusterServiceBuilder;
//!
//! let scenario = ClusterScenario::uniform(&Scenario::quick_demo(), 2);
//! let service = ClusterServiceBuilder::new(&scenario).start().unwrap();
//! service.step_quantum().unwrap();
//! let snap = service.snapshot().unwrap();
//! assert_eq!(snap.quantum, 1);
//! let record = service.shutdown().unwrap();
//! assert_eq!(record.nodes.len(), 2);
//! ```

use std::io;

use cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, ClusterEvent, ClusterRecord, ClusterScenario,
    ClusterSnapshot, ClusterTenantId, FleetFaultPlan, NodeId,
};
use workloads::batch::SpecBenchmark;

use crate::metrics;
use crate::reactor::{Handle, Plane, Stopped, BUS_CAPACITY};

/// Why a cluster service request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterServiceError {
    /// The cluster control plane has stopped; no further requests can be
    /// served.
    Stopped,
    /// The coordinator refused the request.
    Cluster(ClusterError),
}

impl std::fmt::Display for ClusterServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterServiceError::Stopped => write!(f, "cluster control plane stopped"),
            ClusterServiceError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterServiceError {}

impl From<Stopped> for ClusterServiceError {
    fn from(_: Stopped) -> ClusterServiceError {
        ClusterServiceError::Stopped
    }
}

impl From<ClusterError> for ClusterServiceError {
    fn from(e: ClusterError) -> ClusterServiceError {
        ClusterServiceError::Cluster(e)
    }
}

/// Configures and starts a [`ClusterService`].
pub struct ClusterServiceBuilder {
    scenario: ClusterScenario,
    config: ClusterConfig,
    faults: FleetFaultPlan,
    metrics_addr: Option<String>,
}

impl ClusterServiceBuilder {
    /// Defaults: default policies, no fleet faults, no HTTP endpoint.
    pub fn new(scenario: &ClusterScenario) -> ClusterServiceBuilder {
        ClusterServiceBuilder {
            scenario: scenario.clone(),
            config: ClusterConfig::default(),
            faults: FleetFaultPlan::none(),
            metrics_addr: None,
        }
    }

    /// Placement, migration, balance, and health policies.
    pub fn config(mut self, config: ClusterConfig) -> ClusterServiceBuilder {
        self.config = config;
        self
    }

    /// Fleet fault plan injected deterministically each quantum.
    /// [`FleetFaultPlan::none`] (the default) is bit-identical to a
    /// coordinator with no fault machinery at all.
    pub fn faults(mut self, plan: FleetFaultPlan) -> ClusterServiceBuilder {
        self.faults = plan;
        self
    }

    /// Serve `GET /metrics` and `GET /state` on this address (use
    /// `"127.0.0.1:0"` for an ephemeral port).
    pub fn metrics_addr(mut self, addr: &str) -> ClusterServiceBuilder {
        self.metrics_addr = Some(addr.to_string());
        self
    }

    /// Builds the coordinator and starts the cluster service, with its HTTP
    /// endpoint when one is configured.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the metrics address cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ClusterCoordinator::new`].
    pub fn start(self) -> io::Result<ClusterService> {
        let coordinator = ClusterCoordinator::with_faults(&self.scenario, self.config, self.faults);
        Handle::start(coordinator, BUS_CAPACITY, self.metrics_addr.as_deref())
    }
}

impl Plane for ClusterCoordinator {
    type Event = ClusterEvent;

    fn drain_events(&mut self) -> Vec<ClusterEvent> {
        ClusterCoordinator::drain_events(self)
    }

    fn metrics(&self, bus_overwrites: u64) -> String {
        metrics::render_cluster(self, bus_overwrites)
    }

    fn state_json(&self) -> String {
        self.snapshot().to_json().to_string()
    }
}

/// A running cluster control plane: the shared coordinator, its event bus
/// and an optional metrics endpoint. This is the service handle shared with
/// [`Service`](crate::Service), over a [`ClusterCoordinator`]: the typed
/// requests are listed below, and the handle itself provides
///
/// * `subscribe(&self) -> Subscriber<ClusterEvent>` — events published
///   after the call;
/// * `bus_overwrites(&self) -> u64` — events overwritten in the bus ring
///   before delivery;
/// * `metrics_addr(&self) -> Option<SocketAddr>` — the bound endpoint
///   address, when one was configured.
///
/// Dropping the service without `shutdown` stops the endpoint but discards
/// the cluster record and skips the fleet drain.
pub type ClusterService = Handle<ClusterCoordinator>;

impl ClusterService {
    /// Registers a batch tenant, letting placement choose the node.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] when no node has capacity;
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn register_batch(
        &self,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<ClusterTenantId, ClusterServiceError> {
        Ok(self.call(|fleet| fleet.register_batch(name, app))??)
    }

    /// Registers a batch tenant on a specific node, bypassing placement.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] for an unknown or non-serving node
    /// or an admission rejection; [`ClusterServiceError::Stopped`] once
    /// the plane has stopped.
    pub fn register_batch_on(
        &self,
        node: NodeId,
        name: &str,
        app: SpecBenchmark,
    ) -> Result<ClusterTenantId, ClusterServiceError> {
        Ok(self.call(|fleet| fleet.register_batch_on(node, name, app))??)
    }

    /// Drains a batch tenant on its node; it retires once its last slice
    /// has run.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] for LC tenants, unknown ids, or
    /// in-flight tenants; [`ClusterServiceError::Stopped`] once
    /// the plane has stopped.
    pub fn deregister(&self, tenant: ClusterTenantId) -> Result<(), ClusterServiceError> {
        Ok(self.call(|fleet| fleet.deregister(tenant))??)
    }

    /// Starts migrating a batch tenant to `dest` (drain now, admit after
    /// the modeled cost in quanta).
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] when the tenant cannot move;
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn migrate(
        &self,
        tenant: ClusterTenantId,
        dest: NodeId,
    ) -> Result<(), ClusterServiceError> {
        Ok(self.call(|fleet| fleet.migrate(tenant, dest))??)
    }

    /// Deliberately drains a node for maintenance: its tenants evacuate
    /// with warning (batch re-enters admission elsewhere, LC traffic
    /// folds onto surviving replicas), its control plane shuts down
    /// cleanly, and it is declared Down.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] for an unknown node or one that
    /// is already down, drained, or crashed;
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn drain_node(&self, node: NodeId) -> Result<(), ClusterServiceError> {
        Ok(self.call(|fleet| fleet.drain_node(node))??)
    }

    /// Runs one lockstep quantum across the fleet now, on the calling
    /// thread. This is the only way a quantum runs.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Cluster`] on a control-plane logic bug;
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn step_quantum(&self) -> Result<(), ClusterServiceError> {
        Ok(self.call(ClusterCoordinator::step_quantum)??)
    }

    /// A point-in-time view of the whole cluster.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn snapshot(&self) -> Result<ClusterSnapshot, ClusterServiceError> {
        Ok(self.call(|fleet| fleet.snapshot())?)
    }

    /// The cluster metrics document (what `GET /metrics` serves), with
    /// per-node samples under `node=` labels.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Stopped`] once the plane has stopped.
    pub fn metrics(&self) -> Result<String, ClusterServiceError> {
        Ok(self.scrape()?)
    }

    /// Drains every node to retirement, closes the bus, stops the
    /// endpoint, and returns the completed cluster record.
    ///
    /// # Errors
    ///
    /// [`ClusterServiceError::Stopped`] if the control plane already stopped;
    /// [`ClusterServiceError::Cluster`] on a logic bug during the drain.
    pub fn shutdown(self) -> Result<ClusterRecord, ClusterServiceError> {
        Ok(self.finish(
            ClusterCoordinator::shutdown,
            ClusterCoordinator::into_record,
        )??)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bus::Received;
    use cuttlesys::control::ControlEvent;
    use cuttlesys::lifecycle::LifecycleState;
    use cuttlesys::types::Scenario;

    fn quiet(slices: usize) -> ClusterScenario {
        let base = Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: slices,
            ..Scenario::quick_demo()
        };
        ClusterScenario::uniform(&base, 2)
    }

    #[test]
    fn manual_cluster_service_runs_a_scenario() {
        let scenario = quiet(3);
        let service = ClusterServiceBuilder::new(&scenario).start().unwrap();
        let mut events = service.subscribe();
        for _ in 0..3 {
            service.step_quantum().unwrap();
        }
        let record = service.shutdown().unwrap();
        assert_eq!(record.quanta, 3);
        assert_eq!(record.nodes.len(), 2);
        for node in &record.nodes {
            assert_eq!(node.slices.len(), 3);
        }
        // Shutdown retires every tenant on every node, and says so.
        let mut retired = 0;
        while let Ok(got) = events.recv() {
            if let Received::Event(ClusterEvent::Node(ControlEvent::Lifecycle {
                to: LifecycleState::Retired,
                ..
            })) = got
            {
                retired += 1;
            }
        }
        let base = &scenario.nodes[0];
        assert_eq!(retired, 2 * (base.num_lc() + base.num_batch()));
    }

    #[test]
    fn http_endpoint_serves_cluster_metrics_and_state() {
        use std::io::{Read, Write};
        let service = ClusterServiceBuilder::new(&quiet(2))
            .metrics_addr("127.0.0.1:0")
            .start()
            .unwrap();
        service.step_quantum().unwrap();
        let addr = service.metrics_addr().unwrap();
        let scrape = |path: &str| {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let metrics = scrape("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("cuttlesys_cluster_nodes 2"), "{metrics}");
        assert!(
            metrics.contains("cuttlesys_quanta_total{node=\"n1\"} 1"),
            "{metrics}"
        );
        let state = scrape("/state");
        assert!(state.contains("\"quantum\":1"), "{state}");
        for key in ["nodes", "lc_shares", "node_health"] {
            assert!(state.contains(&format!("\"{key}\":[")), "{state}");
        }
        assert!(state.contains("\"evacuations\":0"), "{state}");
        assert!(state.contains("\"displaced\":0"), "{state}");
        let record = service.shutdown().unwrap();
        assert_eq!(record.quanta, 1);
    }

    #[test]
    fn requests_after_a_panicking_call_report_stopped() {
        use ClusterServiceError::Stopped;
        let service = ClusterServiceBuilder::new(&quiet(2)).start().unwrap();
        assert!(service.call::<()>(|_| panic!("a request bug")).is_err());
        assert!(matches!(service.step_quantum(), Err(Stopped)));
        assert!(matches!(service.metrics(), Err(Stopped)));
        assert!(matches!(service.snapshot(), Err(Stopped)));
        assert!(matches!(
            service.register_batch("late", workloads::batch::mix(1, 1).apps[0]),
            Err(Stopped)
        ));
        assert!(matches!(service.shutdown(), Err(Stopped)));
    }
}
