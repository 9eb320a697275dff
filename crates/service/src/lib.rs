//! The CuttleSys control-plane service: the sans-io [`ControlCore`] run as
//! a long-lived process component.
//!
//! The `cuttlesys` crate ends at a deliberately austere boundary: a core
//! that is a pure function of the scenario seed and the request sequence —
//! no clocks, no threads, no sockets (`crates/clippy.toml` enforces the
//! first two). This crate is everything on the other side of it:
//!
//! * `reactor` — the core behind a first-come, first-served turn: each
//!   request runs as a closure over it on the caller's own thread, one at a
//!   time, in arrival order. A quantum runs only when a caller steps one
//!   (the paper's 100 ms cadence is the caller's loop), so the service
//!   starts no thread of its own for it and stays deterministic.
//!   The same turn and the same handle run the fleet ([`cluster`]): a
//!   [`Service`] and a [`cluster::ClusterService`] differ only in the plane
//!   they own and the typed requests they offer.
//! * [`bus`] — a bounded broadcast bus for lifecycle, admission, and
//!   degraded-quantum events. Publishing never blocks a quantum; lagged
//!   subscribers observably drop ([`bus::Received::Lagged`]).
//! * [`metrics`] + an HTTP endpoint — `GET /metrics` renders a
//!   Prometheus-style document from the telemetry the pipeline already
//!   collects; `GET /state` serves the tenant-table snapshot as JSON. Its
//!   acceptor is the one thread a service starts, and only when
//!   [`ServiceBuilder::metrics_addr`] is set.
//!
//! ```
//! use cuttlesys::types::Scenario;
//! use service::ServiceBuilder;
//!
//! let service = ServiceBuilder::new(&Scenario::quick_demo()).start().unwrap();
//! let mut events = service.subscribe();
//! service.step_quantum().unwrap();
//! let text = service.metrics().unwrap();
//! assert!(text.contains("cuttlesys_quanta_total 1"));
//! let record = service.shutdown().unwrap();
//! assert_eq!(record.slices.len(), 1);
//! assert!(events.recv().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod bus;
pub mod cluster;
mod http;
pub mod metrics;
mod reactor;

use std::io;

use cuttlesys::control::{
    AdmissionError, ControlCore, ControlError, ControlEvent, ControlSnapshot, TenantId,
};
use cuttlesys::types::{RunRecord, Scenario, SliceRecord};
use workloads::batch::SpecBenchmark;

use crate::reactor::{Handle, Plane, Stopped, BUS_CAPACITY};

/// When quanta run. `Manual` is the only mode: a quantum runs when a
/// caller steps one. Kept so that [`ServiceBuilder::pacing`] callers still
/// build; both go once no caller names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Quanta run only on explicit `step_quantum` requests.
    Manual,
}

/// Why a service request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The control plane has stopped (the service was shut down or dropped,
    /// or a request panicked); no further requests can be served.
    Stopped,
    /// Admission control rejected the registration.
    Admission(AdmissionError),
    /// The control core refused the request.
    Control(ControlError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Stopped => write!(f, "control plane stopped"),
            ServiceError::Admission(e) => write!(f, "{e}"),
            ServiceError::Control(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Stopped> for ServiceError {
    fn from(_: Stopped) -> ServiceError {
        ServiceError::Stopped
    }
}

impl From<AdmissionError> for ServiceError {
    fn from(e: AdmissionError) -> ServiceError {
        ServiceError::Admission(e)
    }
}

impl From<ControlError> for ServiceError {
    fn from(e: ControlError) -> ServiceError {
        ServiceError::Control(e)
    }
}

/// Configures and starts a [`Service`].
pub struct ServiceBuilder {
    scenario: Scenario,
    metrics_addr: Option<String>,
}

impl ServiceBuilder {
    /// Defaults: no HTTP endpoint.
    pub fn new(scenario: &Scenario) -> ServiceBuilder {
        ServiceBuilder {
            scenario: scenario.clone(),
            metrics_addr: None,
        }
    }

    /// A no-op: [`Pacing::Manual`], the only mode, is always in force.
    pub fn pacing(self, _pacing: Pacing) -> ServiceBuilder {
        self
    }

    /// Serve `GET /metrics` and `GET /state` on this address (use
    /// `"127.0.0.1:0"` for an ephemeral port; see `Service::metrics_addr`).
    pub fn metrics_addr(mut self, addr: &str) -> ServiceBuilder {
        self.metrics_addr = Some(addr.to_string());
        self
    }

    /// Builds the control core and starts the service, with its HTTP
    /// endpoint when one is configured.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the metrics address cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ControlCore::new`].
    pub fn start(self) -> io::Result<Service> {
        let core = ControlCore::new(&self.scenario);
        Handle::start(core, BUS_CAPACITY, self.metrics_addr.as_deref())
    }
}

impl Plane for ControlCore {
    type Event = ControlEvent;

    fn drain_events(&mut self) -> Vec<ControlEvent> {
        ControlCore::drain_events(self)
    }

    fn metrics(&self, bus_overwrites: u64) -> String {
        metrics::render(&self.snapshot(), self.records(), bus_overwrites)
    }

    fn state_json(&self) -> String {
        self.snapshot().to_json().to_string()
    }
}

/// A running control plane: the shared core, its event bus and an optional
/// metrics endpoint. This is the service handle shared with
/// [`cluster::ClusterService`], over a [`ControlCore`]: the typed requests
/// are listed below, and the handle itself provides
///
/// * `subscribe(&self) -> Subscriber<ControlEvent>` — events published
///   after the call;
/// * `bus_overwrites(&self) -> u64` — events overwritten in the bus ring
///   before delivery;
/// * `metrics_addr(&self) -> Option<SocketAddr>` — the bound endpoint
///   address, when one was configured.
///
/// Dropping the service without `shutdown` stops the endpoint but discards
/// the run record and skips the tenant drain.
pub type Service = Handle<ControlCore>;

impl Service {
    /// Registers a batch tenant through admission control.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Admission`] when the tenant's worst-case power does
    /// not fit the steady-state budget; [`ServiceError::Stopped`] once
    /// the plane has stopped.
    pub fn register_batch(&self, name: &str, app: SpecBenchmark) -> Result<TenantId, ServiceError> {
        Ok(self.call(|core| core.register_batch(name, app))??)
    }

    /// Drains a batch tenant; it retires once its last slice has run.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Control`] for LC tenants, unknown ids, or tenants
    /// not in a drainable state; [`ServiceError::Stopped`] once the plane
    /// has stopped.
    pub fn deregister(&self, tenant: TenantId) -> Result<(), ServiceError> {
        Ok(self.call(|core| core.deregister(tenant))??)
    }

    /// Runs one decision quantum now, on the calling thread. This is the
    /// only way a quantum runs.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Control`] on a lifecycle logic bug;
    /// [`ServiceError::Stopped`] once the plane has stopped.
    pub fn step_quantum(&self) -> Result<SliceRecord, ServiceError> {
        Ok(self.call(ControlCore::step_quantum)??)
    }

    /// A point-in-time view of the tenant table.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] once the plane has stopped.
    pub fn snapshot(&self) -> Result<ControlSnapshot, ServiceError> {
        Ok(self.call(|core| core.snapshot())?)
    }

    /// The Prometheus-style metrics document (what `GET /metrics` serves).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] once the plane has stopped.
    pub fn metrics(&self) -> Result<String, ServiceError> {
        Ok(self.scrape()?)
    }

    /// Drains every tenant to Retired, closes the bus, stops the endpoint,
    /// and returns the completed run record.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] if the control plane already stopped;
    /// [`ServiceError::Control`] on a lifecycle logic bug during the drain.
    pub fn shutdown(self) -> Result<RunRecord, ServiceError> {
        Ok(self.finish(ControlCore::shutdown, ControlCore::into_record)??)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::bus::Received;
    use cuttlesys::lifecycle::LifecycleState;

    fn quiet(slices: usize) -> Scenario {
        Scenario {
            noise: 0.0,
            phases: false,
            duration_slices: slices,
            ..Scenario::quick_demo()
        }
    }

    #[test]
    fn manual_service_runs_a_scenario_and_returns_the_record() {
        let scenario = quiet(3);
        let service = ServiceBuilder::new(&scenario).start().unwrap();
        for _ in 0..scenario.duration_slices {
            service.step_quantum().unwrap();
        }
        let record = service.shutdown().unwrap();
        assert_eq!(record.slices.len(), scenario.duration_slices);
    }

    #[test]
    fn events_flow_to_subscribers() {
        let service = ServiceBuilder::new(&quiet(2)).start().unwrap();
        let mut events = service.subscribe();
        service.step_quantum().unwrap();
        drop(service);
        // Dropping the service closes the bus; drain everything published.
        // The stream carries the construction-time admissions and, from the
        // first quantum, every pre-admitted tenant's promotion to Running.
        let mut saw_running = false;
        while let Ok(got) = events.recv() {
            if matches!(
                got,
                Received::Event(ControlEvent::Lifecycle {
                    to: LifecycleState::Running,
                    ..
                })
            ) {
                saw_running = true;
            }
        }
        assert!(saw_running);
    }

    #[test]
    fn requests_after_a_panicking_call_report_stopped() {
        let service = ServiceBuilder::new(&quiet(2)).start().unwrap();
        assert!(service.call::<()>(|_| panic!("a request bug")).is_err());
        assert_eq!(service.step_quantum(), Err(ServiceError::Stopped));
        assert_eq!(service.metrics(), Err(ServiceError::Stopped));
        assert_eq!(service.snapshot(), Err(ServiceError::Stopped));
    }

    #[test]
    fn http_endpoint_serves_metrics_and_state() {
        use std::io::{Read, Write};
        let service = ServiceBuilder::new(&quiet(2))
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
        assert!(metrics.contains("cuttlesys_quanta_total 1"), "{metrics}");
        let state = scrape("/state");
        assert!(state.contains("\"tenants\":["), "{state}");
        let missing = scrape("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let record = service.shutdown().unwrap();
        assert_eq!(record.slices.len(), 1);
    }

    #[test]
    fn live_service_matches_a_directly_stepped_core() {
        let scenario = quiet(3);
        let service = ServiceBuilder::new(&scenario).start().unwrap();
        let mut core = ControlCore::new(&scenario);
        for _ in 0..scenario.duration_slices {
            service.step_quantum().unwrap();
            core.step_quantum().unwrap();
        }
        let live = service.shutdown().unwrap();
        core.shutdown().unwrap();
        assert_eq!(live.comparable(), core.into_record().comparable());
    }
}
