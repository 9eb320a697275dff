//! Control-plane equivalence and churn tests.
//!
//! The refactor contract for the service layer: running the manager as a
//! long-lived service must be *observation-equivalent* to the static
//! batch runs the golden record pins. Concretely:
//!
//! * a recorded registration trace replayed through a fresh
//!   [`ControlCore`] is bit-identical to the same trace driven through a
//!   live [`Service`] in manual pacing (same seed, same request sequence,
//!   same [`RunRecord`]);
//! * a trace whose registrations all land before slice 0 is bit-identical
//!   to the equivalent static [`Scenario`] run via `run_scenario` — the
//!   paper-default golden record therefore also pins the service path;
//! * a mid-run deregistration is bit-identical to declaring the same
//!   departure slice statically (drain removes a row, and row removal
//!   commutes with when it was requested).
//!
//! Mid-run *registration* is deliberately NOT claimed equivalent to a
//! static scenario with the job present from t=0: SGD completes every
//! batch row each quantum, so a row that exists earlier trains earlier.
//! Equivalence holds between live service and trace replay (same request
//! sequence), which is the property operators need for postmortems.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! `service::comparable` — the same convention as `tests/determinism.rs`.

use cuttlesys::control::{ControlCore, TenantKind};
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::runtime::CuttleSysManager;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{BatchJobSpec, JobSpec, RunRecord, Scenario};
use service::trace::RegistrationTrace;
use service::{comparable, ServiceBuilder};
use workloads::loadgen::LoadPattern;

fn quiet() -> Scenario {
    Scenario {
        noise: 0.0,
        phases: false,
        duration_slices: 4,
        ..Scenario::quick_demo()
    }
}

#[test]
fn a_step_only_trace_matches_the_static_scenario_bit_for_bit() {
    let scenario = Scenario::paper_default();
    let mut trace = RegistrationTrace::new();
    for _ in 0..scenario.duration_slices {
        trace.step();
    }

    let static_record = run_scenario(&scenario, &mut CuttleSysManager::for_scenario(&scenario));
    let replayed = trace.replay(&scenario).expect("replay runs");
    assert_eq!(
        comparable(replayed),
        comparable(static_record),
        "the service path must not perturb the golden-record run"
    );
}

#[test]
fn live_service_and_trace_replay_agree_on_a_churny_run() {
    let mut scenario = quiet();
    scenario.cap = LoadPattern::Constant(2.0); // headroom for one admission
    let newcomer = workloads::batch::mix(1, 0xBEEF).apps[0];

    // One registration before slice 0, two quanta, one deregistration of a
    // declared batch tenant, then the rest of the horizon.
    let mut trace = RegistrationTrace::new();
    trace.register("newcomer", newcomer);
    trace.step();
    trace.step();
    let declared_batch = {
        let core = ControlCore::new(&scenario);
        core.tenants()
            .iter()
            .enumerate()
            .find(|(_, t)| matches!(t.kind(), TenantKind::Batch { .. }))
            .map(|(i, _)| cuttlesys::control::TenantId::from_index(i))
            .expect("quick_demo declares a batch job")
    };
    trace.deregister(declared_batch);
    trace.step();
    trace.step();

    let service = ServiceBuilder::new(&scenario).start().expect("service");
    service.apply_trace(&trace).expect("live run");
    let live = service.shutdown().expect("clean shutdown");
    let replayed = trace.replay(&scenario).expect("replay runs");
    assert_eq!(comparable(live), comparable(replayed));
}

#[test]
fn mid_run_drain_matches_the_statically_declared_departure() {
    let scenario = quiet();
    // Find a declared batch tenant and the slice we will drain it at.
    let drain_at = 2usize;

    // Static twin: same scenario, with the batch job's departure declared.
    let mut declared = scenario.clone();
    let mut batch_seen = false;
    for job in declared.jobs.iter_mut() {
        if let JobSpec::Batch(BatchJobSpec { depart_slice, .. }) = job {
            if !batch_seen {
                *depart_slice = Some(drain_at);
                batch_seen = true;
            }
        }
    }
    assert!(batch_seen, "quick_demo declares a batch job");
    let static_record = run_scenario(&declared, &mut CuttleSysManager::for_scenario(&declared));

    // Live twin: same departure requested through the control plane. The
    // driver schedules a deregistration at the *next* slice boundary, so
    // request it after quantum `drain_at - 1`.
    let mut core = ControlCore::new(&scenario);
    let tenant = core
        .tenants()
        .iter()
        .enumerate()
        .find(|(_, t)| matches!(t.kind(), TenantKind::Batch { .. }))
        .map(|(i, _)| cuttlesys::control::TenantId::from_index(i))
        .expect("quick_demo declares a batch job");
    for slice in 0..scenario.duration_slices {
        if slice == drain_at {
            core.deregister(tenant).expect("drain accepted");
        }
        core.step_quantum().expect("quantum");
    }
    assert_eq!(
        core.tenant(tenant).expect("tenant").state(),
        LifecycleState::Retired
    );
    assert_eq!(comparable(core.into_record()), comparable(static_record));
}

#[test]
fn replaying_the_same_trace_twice_is_bit_identical() {
    let scenario = quiet();
    let mut trace = RegistrationTrace::new();
    for _ in 0..scenario.duration_slices {
        trace.step();
    }
    let a = trace.replay(&scenario).expect("first replay");
    let b = trace.replay(&scenario).expect("second replay");
    assert_eq!(comparable(a), comparable(b));
}

/// DESIGN §10.3's claim that the single-node `/metrics` document is
/// byte-identical across service-shell changes, pinned: 20 quanta of
/// `paper_default`, wall-clock telemetry zeroed so the stage gauges are
/// deterministic, and one registration the full node has to refuse (it
/// shows up as one retired row in the tenant table and nowhere else).
#[test]
fn single_node_metrics_document_matches_the_pinned_golden_bytes() {
    let mut core = ControlCore::new(&Scenario::paper_default());
    for _ in 0..20 {
        core.step_quantum().expect("quantum");
    }
    let newcomer = workloads::batch::mix(1, 0xBEEF).apps[0];
    assert!(
        core.register_batch("late", newcomer).is_err(),
        "paper_default fills the node: admission has to refuse"
    );
    let record = RunRecord {
        scheme: "cuttlesys".to_string(),
        slices: core.records().to_vec(),
    };
    let text = service::metrics::render(&core.snapshot(), &record.comparable().slices, 0);
    assert_eq!(
        text,
        include_str!("golden/metrics_single_node.prom"),
        "single-node /metrics drifted from tests/golden/metrics_single_node.prom"
    );
}
