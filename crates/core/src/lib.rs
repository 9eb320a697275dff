//! CuttleSys: data-driven resource management for interactive services on
//! reconfigurable multicores.
//!
//! This crate is the paper's primary contribution — the online runtime that
//! every 100 ms decision quantum profiles the co-scheduled jobs for 2 ms,
//! reconstructs their throughput/tail-latency/power across all 108 core and
//! cache configurations with collaborative filtering, and searches the joint
//! configuration space with parallel Dynamically Dimensioned Search, meeting
//! the latency-critical service's QoS and maximizing batch throughput under
//! a power budget.
//!
//! Modules:
//!
//! * [`types`] — the shared vocabulary: scenarios, plans, profiling frames,
//!   per-slice records, and the [`ResourceManager`] trait.
//! * [`testbed`] — the simulated server every resource manager runs on
//!   ([`ScenarioDriver`]): one 100 ms slice per step, noisy measurements,
//!   ground-truth records, and batch jobs admitted and drained between
//!   steps (runtime churn).
//! * [`lifecycle`] — the tenant lifecycle state machine the control plane
//!   enforces (Registering → … → Retired; illegal transitions are errors).
//! * [`control`] — the sans-io control-plane core ([`control::ControlCore`]):
//!   admission control, lifecycle tracking, step-one-quantum, snapshots.
//! * [`matrices`] — the Resource Controller's rating-matrix bookkeeping:
//!   offline-characterized training rows plus online observations.
//! * [`pipeline`] — the decision quantum as an instrumented five-stage
//!   pipeline (profile → reconstruct → pin → search → repair): one
//!   `decide` over plain stage functions and one per-quantum power ledger.
//! * [`telemetry`] — per-stage wall-clock timings and work counters,
//!   threaded through the slice records (the source of the Table II
//!   overhead report).
//! * [`accounting`] — plan-level power arithmetic shared by the pipeline
//!   stages and the baseline managers.
//! * [`faults`] — seeded deterministic fault injection ([`FaultPlan`],
//!   [`faults::FaultInjector`]) and the graceful-degradation policy: typed
//!   stage errors, the last-good fallback bounds, and the safe-mode circuit
//!   breaker.
//! * [`runtime`] — the CuttleSys manager itself (§IV–§VI): the pipeline's
//!   state and search algorithm wrapped in the degradation ladder.
//! * [`managers`] — baseline managers: no-gating, core-level gating (± way
//!   partitioning), oracle-like and fixed 50-50 asymmetric multicores,
//!   Flicker, and a PID feedback controller.
//!
//! # Quick example
//!
//! ```
//! use cuttlesys::types::Scenario;
//! use cuttlesys::testbed::run_scenario;
//! use cuttlesys::runtime::CuttleSysManager;
//!
//! let scenario = Scenario::quick_demo();
//! let mut manager = CuttleSysManager::for_scenario(&scenario);
//! let record = run_scenario(&scenario, &mut manager);
//! assert_eq!(record.slices.len(), scenario.duration_slices);
//! // Every CuttleSys decision carries per-stage instrumentation.
//! assert!(record.stage_summary().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod accounting;
pub mod control;
pub mod faults;
pub mod lifecycle;
pub mod managers;
pub mod matrices;
pub mod pipeline;
pub mod runtime;
pub mod telemetry;
pub mod testbed;
pub mod types;

pub use control::{
    AdmissionError, ControlCore, ControlError, ControlEvent, ControlSnapshot, TenantId, TenantKind,
};
pub use faults::{DecisionError, FaultInjector, FaultPlan, StageError};
pub use lifecycle::{LifecycleError, LifecycleState, TenantLifecycle};
pub use runtime::CuttleSysManager;
pub use testbed::{run_scenario, ScenarioDriver};
pub use types::{Plan, ResourceManager, RunRecord, Scenario};
