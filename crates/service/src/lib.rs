//! The CuttleSys control-plane service: the sans-io [`ControlCore`] run as
//! a long-lived process component.
//!
//! The `cuttlesys` crate ends at a deliberately austere boundary: a core
//! that is a pure function of the scenario seed and the request sequence —
//! no clocks, no threads, no sockets (`crates/clippy.toml` enforces the
//! first two). This crate is everything on the other side of it:
//!
//! * `reactor` — a dedicated thread owns the core; callers send it
//!   closures over a bounded channel (backpressure, not queues). Pacing is
//!   [`Pacing::Manual`] (deterministic; tests, replays, benchmarks) or
//!   [`Pacing::Interval`] (wall-clock quanta, the paper's 100 ms cadence).
//!   The same loop and the same handle run the fleet ([`cluster`]): a
//!   [`Service`] and a [`cluster::ClusterService`] differ only in the plane
//!   they own and the typed requests they offer.
//! * [`bus`] — a bounded broadcast bus for lifecycle, admission, breaker,
//!   and degradation events. Publishing never blocks a quantum; lagged
//!   subscribers observably drop ([`bus::Received::Lagged`]).
//! * [`metrics`] + an HTTP endpoint — `GET /metrics` renders a
//!   Prometheus-style document from the telemetry the pipeline already
//!   collects; `GET /state` serves the tenant-table snapshot as JSON.
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
pub mod pacing;
mod reactor;

use std::io;

use cuttlesys::control::{
    AdmissionError, ControlCore, ControlError, ControlEvent, ControlSnapshot, TenantId,
};
use cuttlesys::types::{RunRecord, Scenario, SliceRecord};
use workloads::batch::SpecBenchmark;

use crate::reactor::{Handle, Plane, Stopped, BUS_CAPACITY};

pub use crate::pacing::Pacing;

/// Why a service request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The reactor has stopped (the service was shut down or its thread
    /// panicked); no further requests can be served.
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
    pacing: Pacing,
    metrics_addr: Option<String>,
}

impl ServiceBuilder {
    /// Defaults: manual pacing, no HTTP endpoint.
    pub fn new(scenario: &Scenario) -> ServiceBuilder {
        ServiceBuilder {
            scenario: scenario.clone(),
            pacing: Pacing::Manual,
            metrics_addr: None,
        }
    }

    /// How quanta are paced (manual requests vs. a wall-clock interval).
    pub fn pacing(mut self, pacing: Pacing) -> ServiceBuilder {
        self.pacing = pacing;
        self
    }

    /// Serve `GET /metrics` and `GET /state` on this address (use
    /// `"127.0.0.1:0"` for an ephemeral port; see `Service::metrics_addr`).
    pub fn metrics_addr(mut self, addr: &str) -> ServiceBuilder {
        self.metrics_addr = Some(addr.to_string());
        self
    }

    /// Builds the control core and starts the reactor (and, if configured,
    /// the HTTP endpoint).
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
        Handle::start(
            core,
            self.pacing,
            BUS_CAPACITY,
            self.metrics_addr.as_deref(),
        )
    }
}

impl Plane for ControlCore {
    type Event = ControlEvent;
    type Error = ControlError;

    fn tick(&mut self) -> Result<(), ControlError> {
        self.step_quantum().map(|_| ())
    }

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

/// A running control plane: reactor thread, event bus, optional metrics
/// endpoint. This is the service handle shared with
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
/// Dropping the service without `shutdown` stops the threads but discards
/// the run record and skips the tenant drain.
pub type Service = Handle<ControlCore>;

impl Service {
    /// Registers a batch tenant through admission control.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Admission`] when the tenant's worst-case power does
    /// not fit the steady-state budget; [`ServiceError::Stopped`] after
    /// shutdown.
    pub fn register_batch(&self, name: &str, app: SpecBenchmark) -> Result<TenantId, ServiceError> {
        let name = name.to_string();
        Ok(self.call(move |core| core.register_batch(&name, app))??)
    }

    /// Drains a batch tenant; it retires once its last slice has run.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Control`] for LC tenants, unknown ids, or tenants
    /// not in a drainable state; [`ServiceError::Stopped`] after shutdown.
    pub fn deregister(&self, tenant: TenantId) -> Result<(), ServiceError> {
        Ok(self.call(move |core| core.deregister(tenant))??)
    }

    /// Runs one decision quantum now (works in any pacing mode).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Control`] on a lifecycle logic bug;
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn step_quantum(&self) -> Result<SliceRecord, ServiceError> {
        Ok(self.call(ControlCore::step_quantum)??)
    }

    /// A point-in-time view of the tenant table.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn snapshot(&self) -> Result<ControlSnapshot, ServiceError> {
        Ok(self.call(|core| core.snapshot())?)
    }

    /// The Prometheus-style metrics document (what `GET /metrics` serves).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] after shutdown.
    pub fn metrics(&self) -> Result<String, ServiceError> {
        Ok(self.scrape()?)
    }

    /// Drains every tenant to Retired, closes the bus, stops the threads,
    /// and returns the completed run record.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] if the reactor already stopped;
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
    fn requests_after_shutdown_report_stopped() {
        let service = ServiceBuilder::new(&quiet(2)).start().unwrap();
        let extra_sender_probe = {
            let service_ref = &service;
            service_ref.metrics().unwrap()
        };
        assert!(extra_sender_probe.contains("cuttlesys_quanta_total 0"));
        let _record = service.shutdown().unwrap();
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
