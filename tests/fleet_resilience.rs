//! Fleet fault-tolerance acceptance tests — the properties PR 8's health
//! layer must hold:
//!
//! * a scheduled node crash replays bit-for-bit whichever direction the
//!   serial stepper walks the node table and at every worker-pool width
//!   (fault injection, detection, and evacuation all live in the serial
//!   node-id-ordered phases, so pooling cannot reorder them);
//! * every tenant homed on a killed node is accounted for by the event
//!   log — evacuated to a surviving node or parked displaced — never
//!   silently dropped;
//! * a deliberate maintenance drain equals a crash the detector catches
//!   in one quantum: same evacuation quantum, same destinations, and the
//!   surviving nodes' records match bit-for-bit;
//! * a blacked-out node (alive but unobservable) is evacuated while
//!   silent, then rejoins without duplicating tenants — the coordinator
//!   reconciles the stale local rows it abandoned;
//! * sustained placement infeasibility after capacity loss engages
//!   degraded mode exactly once (hysteresis, no flapping), shedding
//!   frees capacity for the displaced queue, and the fleet recovers;
//! * [`FleetFaultPlan::none`] is a bit-for-bit no-op against the
//!   single-node golden run.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! [`ClusterRecord::comparable`], as in `tests/cluster.rs`.

use cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, ClusterEvent, ClusterRecord, ClusterScenario,
    ClusterTenantId, FleetFaultPlan, HealthConfig, NodeHealth, NodeId,
};
use cuttlesys::control::ControlCore;
use cuttlesys::types::{JobSpec, Scenario};
use util::WorkerPool;
use workloads::loadgen::LoadPattern;

fn quiet(slices: usize) -> Scenario {
    Scenario {
        noise: 0.0,
        phases: false,
        duration_slices: slices,
        ..Scenario::quick_demo()
    }
}

/// A quiet base with admission headroom, so evacuees from a dead node
/// fit on the survivors without tripping the power budget.
fn roomy(slices: usize) -> Scenario {
    Scenario {
        cap: LoadPattern::Constant(2.0),
        ..quiet(slices)
    }
}

fn n(index: usize) -> NodeId {
    NodeId::from_index(index)
}

/// Run a whole scenario under a fault plan with the given stepper and
/// return the comparable record plus the full cluster event log.
fn run_with_plan(
    base: &Scenario,
    nodes: usize,
    config: ClusterConfig,
    plan: FleetFaultPlan,
    stepper: impl Fn(&mut ClusterCoordinator) -> Result<(), ClusterError>,
) -> (ClusterRecord, Vec<ClusterEvent>) {
    let scenario = ClusterScenario::uniform(base, nodes);
    let mut coordinator = ClusterCoordinator::with_faults(&scenario, config, plan);
    let mut events = Vec::new();
    for quantum in 0..base.duration_slices {
        stepper(&mut coordinator).unwrap_or_else(|e| panic!("quantum {quantum}: {e}"));
        events.extend(coordinator.drain_events());
    }
    coordinator.shutdown().expect("fleet drain");
    events.extend(coordinator.drain_events());
    (coordinator.into_record().comparable(), events)
}

/// The tenant ids seeded on `node` at construction time, before any
/// stepping (and therefore before any fault can move them).
fn seeded_on(base: &Scenario, nodes: usize, node: NodeId) -> Vec<ClusterTenantId> {
    let scenario = ClusterScenario::uniform(base, nodes);
    let coordinator = ClusterCoordinator::new(&scenario);
    let snapshot = coordinator.snapshot();
    (0..snapshot.tenants.len())
        .filter(|&i| snapshot.tenants[i].node == node)
        .map(ClusterTenantId::from_index)
        .collect()
}

#[test]
fn a_node_crash_replays_bit_for_bit_at_any_step_order_and_pool_width() {
    let base = roomy(8);
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let config = ClusterConfig::default();

    let forward = run_with_plan(&base, 4, config, plan.clone(), |c| {
        c.step_quantum_ordered(cluster::StepOrder::Forward)
    });
    let reverse = run_with_plan(&base, 4, config, plan.clone(), |c| {
        c.step_quantum_ordered(cluster::StepOrder::Reverse)
    });
    assert_eq!(forward, reverse, "step order changed a faulted run");

    for width in [1, 2, 8] {
        let pool = WorkerPool::new(width);
        let pooled = run_with_plan(&base, 4, config, plan.clone(), |c| {
            c.step_quantum_in(Some(&pool))
        });
        assert_eq!(forward, pooled, "pool width {width} changed a faulted run");
    }

    // The crashed node froze at the crash quantum and never stepped again.
    assert_eq!(forward.0.nodes[1].slices.len(), 2);
    assert!(forward.0.nodes[0].slices.len() > 2);
}

#[test]
fn a_killed_node_loses_no_tenants_the_event_log_cannot_account_for() {
    let base = roomy(8);
    let doomed = seeded_on(&base, 4, n(1));
    assert!(!doomed.is_empty(), "node 1 seeds no tenants");

    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let (_, events) = run_with_plan(&base, 4, ClusterConfig::default(), plan, |c| {
        c.step_quantum()
    });

    for id in &doomed {
        let accounted = events.iter().any(|e| match e {
            ClusterEvent::Evacuated { tenant, from, .. } => tenant == id && *from == n(1),
            ClusterEvent::Displaced { tenant, from, .. } => tenant == id && *from == n(1),
            _ => false,
        });
        assert!(
            accounted,
            "tenant {id:?} vanished from node 1 without a trace"
        );
    }
    // With headroom on three survivors, nothing should stay parked.
    let evacuated = events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::Evacuated { from, .. } if *from == n(1)))
        .count();
    assert_eq!(
        evacuated,
        doomed.len(),
        "a roomy fleet should absorb every evacuee"
    );
}

#[test]
fn a_drain_equals_a_crash_the_detector_catches_in_one_quantum() {
    let base = roomy(8);
    let config = ClusterConfig {
        health: HealthConfig {
            down_after: 1,
            ..HealthConfig::default()
        },
        ..ClusterConfig::default()
    };

    let drained = run_with_plan(
        &base,
        4,
        config,
        FleetFaultPlan::none().with_drain(n(1), 2),
        |c| c.step_quantum(),
    );
    let crashed = run_with_plan(
        &base,
        4,
        config,
        FleetFaultPlan::none().with_crash(n(1), 2),
        |c| c.step_quantum(),
    );

    // Both evacuate in quantum 2 with identical candidate state, so the
    // evacuees land on the same destinations...
    let destinations = |events: &[ClusterEvent]| -> Vec<(ClusterTenantId, NodeId, usize)> {
        events
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::Evacuated {
                    tenant,
                    to,
                    quantum,
                    ..
                } => Some((*tenant, *to, *quantum)),
                _ => None,
            })
            .collect()
    };
    let drain_dests = destinations(&drained.1);
    assert!(!drain_dests.is_empty(), "the drain evacuated nothing");
    assert_eq!(drain_dests, destinations(&crashed.1));

    // ...and the surviving nodes' histories are bit-identical. Only the
    // dead node differs: a drain shuts its control plane down cleanly, a
    // crash freezes it mid-scenario.
    for i in [0, 2, 3] {
        assert_eq!(
            drained.0.nodes[i], crashed.0.nodes[i],
            "survivor node {i} diverged between drain and crash"
        );
    }
    // A deliberate drain is announced and displaces nothing.
    assert!(drained
        .1
        .iter()
        .any(|e| matches!(e, ClusterEvent::NodeDrained { node, quantum } if *node == n(1) && *quantum == 2)));
    assert!(!drained
        .1
        .iter()
        .any(|e| matches!(e, ClusterEvent::Displaced { .. })));
}

#[test]
fn a_blacked_out_node_rejoins_without_duplicate_tenants() {
    let base = roomy(12);
    let config = ClusterConfig {
        health: HealthConfig {
            down_after: 2,
            recover_after: 2,
            ..HealthConfig::default()
        },
        ..ClusterConfig::default()
    };
    let plan = FleetFaultPlan::none().with_blackout(n(1), 2, 5);

    let scenario = ClusterScenario::uniform(&base, 3);
    let mut coordinator = ClusterCoordinator::with_faults(&scenario, config, plan);
    let mut events = Vec::new();
    for quantum in 0..base.duration_slices {
        coordinator
            .step_quantum()
            .unwrap_or_else(|e| panic!("quantum {quantum}: {e}"));
        events.extend(coordinator.drain_events());
    }

    // The silent window walked the whole state machine and came back.
    let transitions: Vec<(NodeHealth, NodeHealth)> = events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::NodeHealthChanged { node, from, to, .. } if *node == n(1) => {
                Some((*from, *to))
            }
            _ => None,
        })
        .collect();
    assert!(
        transitions.iter().any(|(_, to)| to.is_down()),
        "the blackout was never detected: {transitions:?}"
    );
    assert_eq!(
        coordinator.node_health(n(1)),
        Some(NodeHealth::Up),
        "node 1 never rejoined"
    );

    // While silent the node was evacuated, yet it kept stepping its stale
    // local rows (split brain). After the rejoin reconciliation those
    // stale rows drain, so every live batch tenant owns exactly one live
    // local row fleet-wide.
    assert!(events
        .iter()
        .any(|e| matches!(e, ClusterEvent::Evacuated { from, .. } if *from == n(1))));
    let snapshot = coordinator.snapshot();
    assert_eq!(snapshot.in_flight, 0);
    assert_eq!(snapshot.displaced, 0);
    let cluster_live_batch = snapshot
        .tenants
        .iter()
        .filter(|t| t.kind == "batch" && t.state.is_live())
        .count();
    let local_live_batch: usize = snapshot
        .nodes
        .iter()
        .map(|node| {
            node.tenants
                .iter()
                .filter(|t| t.kind == "batch" && t.state.is_live())
                .count()
        })
        .sum();
    assert_eq!(
        local_live_batch, cluster_live_batch,
        "a rejoined node duplicated (or dropped) batch rows"
    );

    coordinator.shutdown().expect("fleet drain");
}

#[test]
fn sustained_infeasibility_engages_degraded_mode_once_and_recovery_disengages_it() {
    // Tight admission with a small batch population: the survivor absorbs
    // part of the dead node's load, the rest is displaced until degraded
    // mode sheds the survivor's own batch work to make room.
    let mut base = quiet(12);
    let mut batch_kept = 0;
    base.jobs.retain(|job| match job {
        JobSpec::Batch(_) => {
            batch_kept += 1;
            batch_kept <= 4
        }
        _ => true,
    });
    let config = ClusterConfig {
        health: HealthConfig {
            down_after: 2,
            retry_base: 1,
            retry_cap: 2,
            degrade_after: 2,
            restore_after: 2,
            ..HealthConfig::default()
        },
        ..ClusterConfig::default()
    };
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);

    let scenario = ClusterScenario::uniform(&base, 2);
    let mut coordinator = ClusterCoordinator::with_faults(&scenario, config, plan);
    let mut events = Vec::new();
    for quantum in 0..base.duration_slices {
        coordinator
            .step_quantum()
            .unwrap_or_else(|e| panic!("quantum {quantum}: {e}"));
        events.extend(coordinator.drain_events());
    }

    let degraded = events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::FleetDegraded { .. }))
        .count();
    let recovered = events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::FleetRecovered { .. }))
        .count();
    assert_eq!(degraded, 1, "degraded mode flapped: {events:?}");
    assert_eq!(recovered, 1, "the fleet never recovered: {events:?}");
    assert!(!coordinator.is_degraded());
    assert_eq!(coordinator.displaced_tenants(), 0, "tenants left parked");

    // Displacement happened (that is what degraded the fleet), and every
    // displaced tenant was eventually placed somewhere.
    let parked: Vec<ClusterTenantId> = events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::Displaced { tenant, .. } => Some(*tenant),
            _ => None,
        })
        .collect();
    assert!(
        !parked.is_empty(),
        "nothing was displaced, the test is vacuous"
    );
    for id in &parked {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ClusterEvent::Evacuated { tenant, .. } if tenant == id)),
            "displaced tenant {id:?} was never re-placed"
        );
    }

    coordinator.shutdown().expect("fleet drain");
}

#[test]
fn a_clean_fault_plan_is_a_bit_for_bit_no_op() {
    let base = Scenario::paper_default();
    let scenario = ClusterScenario::uniform(&base, 1);
    let plan = FleetFaultPlan::none();
    assert!(plan.is_clean());

    let mut coordinator =
        ClusterCoordinator::with_faults(&scenario, ClusterConfig::default(), plan);
    let mut events = Vec::new();
    for _ in 0..base.duration_slices {
        coordinator.step_quantum().expect("cluster quantum");
        events.extend(coordinator.drain_events());
    }
    coordinator.shutdown().expect("fleet drain");
    events.extend(coordinator.drain_events());

    // No health, fault, or displacement traffic on a clean plan — only
    // the per-node control events the single-node run would emit.
    assert!(
        events.iter().all(|e| matches!(e, ClusterEvent::Node(_))),
        "a clean plan emitted fleet events"
    );

    // And node 0 replays the bare single-node golden run bit-for-bit.
    let node = coordinator
        .into_record()
        .nodes
        .into_iter()
        .next()
        .expect("one node");
    let mut core = ControlCore::new(&base);
    for _ in 0..base.duration_slices {
        core.step_quantum().expect("core quantum");
    }
    core.shutdown().expect("core drain");
    assert_eq!(
        node.comparable(),
        core.into_record().comparable(),
        "a clean fault plan perturbed the single-node run"
    );
}
