//! Fleet fault-tolerance acceptance tests — the properties PR 8's health
//! layer must hold:
//!
//! * a scheduled node crash replays bit-for-bit (fault injection,
//!   detection, and evacuation all live in the serial node-id-ordered
//!   phases);
//! * every tenant homed on a killed node is accounted for by the event
//!   log — evacuated to a surviving node or parked displaced — never
//!   silently dropped;
//! * a deliberate maintenance drain equals a crash the detector declares
//!   Down in the drain's quantum: same evacuation quantum, same
//!   destinations, and the surviving nodes' records match bit-for-bit;
//! * a blacked-out node (alive but unobservable) is evacuated while
//!   silent, then rejoins without duplicating tenants — the coordinator
//!   reconciles the stale local rows it abandoned;
//! * sustained placement infeasibility after capacity loss engages
//!   degraded mode exactly once (hysteresis, no flapping), shedding
//!   frees capacity for the displaced queue, and the fleet recovers;
//! * a fleet that stays infeasible after every batch tenant is shed
//!   keeps its LC traffic: degraded mode never lowers a share;
//! * a migration whose destination refuses is re-aimed with backoff and
//!   either lands on a serving node or, after its last retry, is
//!   abandoned loudly;
//! * a tenant parked displaced deregisters (it leaves the relocation
//!   table and is never placed) but refuses a migration, so it never holds
//!   two live rows;
//! * after every quantum of these runs the snapshot's `in_flight` and
//!   `displaced` counters agree with the tenants' `Relocating` states, and
//!   each LC service's traffic shares, down nodes included, still sum to
//!   its replica count (an evacuation folds a dead replica's share onto a
//!   survivor, it never drops it);
//! * a registration with every node down is refused as
//!   [`ClusterError::NoServingNode`], blaming no node;
//! * a registration directed at a drained node is refused as
//!   [`ClusterError::NodeUnavailable`], while one directed at a crashed
//!   node not yet declared Down is accepted and recovered by the
//!   evacuation its detection triggers;
//! * [`FleetFaultPlan::none`] is a bit-for-bit no-op against the
//!   single-node golden run.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! [`ClusterRecord::comparable`], as in `tests/cluster.rs`.

use cluster::health::DOWN_AFTER;
use cluster::{
    ClusterConfig, ClusterCoordinator, ClusterError, ClusterEvent, ClusterRecord, ClusterScenario,
    ClusterTenantId, FleetFaultPlan, NodeHealth, NodeId, RelocationTarget,
};
use cuttlesys::control::ControlCore;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::types::{JobSpec, Scenario};
use workloads::batch;
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

/// Steps one quantum, then checks that the relocation counters agree with
/// the tenants' states: the snapshot's `in_flight` counts the tenants in
/// `Relocating(Node(_))`, and its `displaced` (like `displaced_tenants`)
/// those in `Relocating(Displaced)`. Also checks that LC traffic is
/// conserved: each service's shares over every node that hosts it, down
/// nodes included, sum to the number of those nodes.
fn step_checked(coordinator: &mut ClusterCoordinator) {
    let quantum = coordinator.quantum();
    coordinator
        .step_quantum()
        .unwrap_or_else(|e| panic!("quantum {quantum}: {e}"));
    let snapshot = coordinator.snapshot();
    let relocating = |target: fn(RelocationTarget) -> bool| {
        (0..snapshot.tenants.len())
            .filter(|&i| {
                matches!(
                    coordinator.tenant_state(ClusterTenantId::from_index(i)),
                    Some(LifecycleState::Relocating(t)) if target(t)
                )
            })
            .count()
    };
    let in_flight = relocating(|t| matches!(t, RelocationTarget::Node(_)));
    let displaced = relocating(|t| t == RelocationTarget::Displaced);
    assert_eq!(snapshot.in_flight, in_flight, "quantum {quantum}");
    assert_eq!(snapshot.displaced, displaced, "quantum {quantum}");
    assert_eq!(
        coordinator.displaced_tenants(),
        displaced,
        "quantum {quantum}"
    );
    let services = snapshot.lc_shares.iter().map(Vec::len).max().unwrap_or(0);
    for lc in 0..services {
        let shares: Vec<f64> = snapshot
            .lc_shares
            .iter()
            .filter_map(|node| node.get(lc).copied())
            .collect();
        let total: f64 = shares.iter().sum();
        assert!(
            (total - shares.len() as f64).abs() < 1e-9,
            "quantum {quantum}: lc{lc} shares {:?} sum to {total}, not its {} replicas",
            snapshot.lc_shares,
            shares.len()
        );
    }
}

/// Run a whole scenario under a fault plan and return the comparable
/// record plus the full cluster event log.
fn run_with_plan(
    base: &Scenario,
    nodes: usize,
    config: ClusterConfig,
    plan: FleetFaultPlan,
) -> (ClusterRecord, Vec<ClusterEvent>) {
    let scenario = ClusterScenario::uniform(base, nodes);
    let mut coordinator = ClusterCoordinator::with_faults(&scenario, config, plan);
    let mut events = Vec::new();
    for _ in 0..base.duration_slices {
        step_checked(&mut coordinator);
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
fn a_node_crash_replays_bit_for_bit() {
    let base = roomy(8);
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let config = ClusterConfig::default();

    let first = run_with_plan(&base, 4, config, plan.clone());
    let again = run_with_plan(&base, 4, config, plan);
    assert_eq!(first, again, "the same crash replayed differently");

    // The crashed node froze at the crash quantum and never stepped again.
    assert_eq!(first.0.nodes[1].slices.len(), 2);
    assert!(first.0.nodes[0].slices.len() > 2);
}

#[test]
fn a_killed_node_loses_no_tenants_the_event_log_cannot_account_for() {
    let base = roomy(8);
    let doomed = seeded_on(&base, 4, n(1));
    assert!(!doomed.is_empty(), "node 1 seeds no tenants");

    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let (_, events) = run_with_plan(&base, 4, ClusterConfig::default(), plan);

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
fn a_drain_equals_a_crash_declared_down_in_the_same_quantum() {
    let base = roomy(8);
    let config = ClusterConfig::default();
    // A crash at quantum 2 misses its first heartbeat there and is declared
    // Down DOWN_AFTER heartbeats later, at quantum 4: the drain's quantum.
    let (crash_at, drain_at) = (2, 2 + DOWN_AFTER - 1);

    let drained = run_with_plan(
        &base,
        4,
        config,
        FleetFaultPlan::none().with_drain(n(1), drain_at),
    );
    let crashed = run_with_plan(
        &base,
        4,
        config,
        FleetFaultPlan::none().with_crash(n(1), crash_at),
    );

    // Both evacuate in the drain's quantum with identical candidate state,
    // so the evacuees land on the same destinations...
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

    assert!(drain_dests
        .iter()
        .all(|&(_, _, quantum)| quantum == drain_at));

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
        .any(|e| matches!(e, ClusterEvent::NodeDrained { node, quantum } if *node == n(1) && *quantum == drain_at)));
    assert!(!drained
        .1
        .iter()
        .any(|e| matches!(e, ClusterEvent::Displaced { .. })));
}

#[test]
fn a_blacked_out_node_rejoins_without_duplicate_tenants() {
    let base = roomy(12);
    // Silent from quantum 2 to 7: Down at 4, Recovering at 7, Up at 8.
    let plan = FleetFaultPlan::none().with_blackout(n(1), 2, 5);

    let scenario = ClusterScenario::uniform(&base, 3);
    let mut coordinator =
        ClusterCoordinator::with_faults(&scenario, ClusterConfig::default(), plan);
    let mut events = Vec::new();
    for _ in 0..base.duration_slices {
        step_checked(&mut coordinator);
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

/// A quiet base cut to four batch jobs: on two nodes, the survivor of a
/// crash cannot admit all of the dead node's batch work at once.
fn four_batch_quiet(slices: usize) -> Scenario {
    let mut base = quiet(slices);
    let mut batch_kept = 0;
    base.jobs.retain(|job| match job {
        JobSpec::Batch(_) => {
            batch_kept += 1;
            batch_kept <= 4
        }
        _ => true,
    });
    base
}

/// Two nodes of `base` under `plan`.
fn two_nodes(base: &Scenario, plan: FleetFaultPlan) -> ClusterCoordinator {
    let scenario = ClusterScenario::uniform(base, 2);
    ClusterCoordinator::with_faults(&scenario, ClusterConfig::default(), plan)
}

#[test]
fn sustained_infeasibility_engages_degraded_mode_once_and_recovery_disengages_it() {
    // Tight admission with a small batch population: the survivor absorbs
    // part of the dead node's load, the rest is displaced until degraded
    // mode sheds the survivor's own batch work to make room.
    let base = four_batch_quiet(12);
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let mut coordinator = two_nodes(&base, plan);
    let mut events = Vec::new();
    for _ in 0..base.duration_slices {
        step_checked(&mut coordinator);
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
fn degraded_mode_sheds_batch_work_but_never_lc_traffic() {
    // At this cap the survivor has no headroom for any evacuee, even after
    // every retry, so the fleet stays infeasible after degraded mode has shed all of the
    // survivor's own batch work. `step_checked` holds each LC service's
    // shares at its replica count in every quantum, that one included.
    let base = Scenario {
        cap: LoadPattern::Constant(0.5),
        ..four_batch_quiet(16)
    };
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let mut coordinator = two_nodes(&base, plan);
    let mut events = Vec::new();
    let mut shed_all_at = None;
    for _ in 0..base.duration_slices {
        step_checked(&mut coordinator);
        events.extend(coordinator.drain_events());
        let snapshot = coordinator.snapshot();
        let survivor_batch = snapshot
            .tenants
            .iter()
            .filter(|t| t.node == n(0) && t.kind == "batch" && t.state.is_live())
            .count();
        if survivor_batch == 0 && snapshot.degraded {
            shed_all_at.get_or_insert(snapshot.quantum);
        }
    }
    let refused_retries = events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::Displaced { attempts, .. } if *attempts > 0))
        .count();
    assert!(refused_retries > 0, "no retry was refused: {events:?}");
    assert_eq!(
        coordinator.displaced_tenants(),
        4,
        "the survivor placed one of the dead node's four batch tenants"
    );
    let shed_all_at = shed_all_at.expect("degraded mode never shed all the survivor's batch work");
    assert!(
        shed_all_at + 1 < base.duration_slices,
        "no quantum ran degraded with no batch left to shed"
    );
    assert!(coordinator.is_degraded(), "the fleet recovered: {events:?}");
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

/// Steps a 3-node fleet of `base`, migrating tenant `c1` (a batch tenant
/// of n0) to n1 after quantum 0 and, when asked, draining n1 before
/// quantum 2. Returns the fleet and its cluster-level events.
fn migrate_c1_to_n1(
    base: &Scenario,
    drain_n1: bool,
) -> (ClusterCoordinator, ClusterTenantId, Vec<ClusterEvent>) {
    let c1 = ClusterTenantId::from_index(1);
    let mut coordinator = ClusterCoordinator::new(&ClusterScenario::uniform(base, 3));
    let mut events = Vec::new();
    for quantum in 0..base.duration_slices {
        if drain_n1 && quantum == 2 {
            coordinator.drain_node(n(1)).expect("n1 drains");
        }
        step_checked(&mut coordinator);
        if quantum == 0 {
            coordinator.migrate(c1, n(1)).expect("migration starts");
        }
        events.extend(
            coordinator
                .drain_events()
                .into_iter()
                .filter(|e| !matches!(e, ClusterEvent::Node(_))),
        );
    }
    (coordinator, c1, events)
}

/// A tenant's migration outcomes, as `(quantum, outcome, destination)`.
fn migration_log(
    events: &[ClusterEvent],
    id: ClusterTenantId,
) -> Vec<(usize, &'static str, NodeId)> {
    events
        .iter()
        .filter_map(|e| match *e {
            ClusterEvent::MigrationFailed {
                tenant,
                to,
                quantum,
                ..
            } if tenant == id => Some((quantum, "failed", to)),
            ClusterEvent::MigrationRetried {
                tenant,
                to,
                quantum,
                ..
            } if tenant == id => Some((quantum, "retried", to)),
            ClusterEvent::MigrationCompleted {
                tenant,
                to,
                quantum,
                ..
            } if tenant == id => Some((quantum, "completed", to)),
            ClusterEvent::MigrationAbandoned {
                tenant,
                to,
                quantum,
                ..
            } if tenant == id => Some((quantum, "abandoned", to)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_destination_that_keeps_refusing_is_retried_with_backoff_then_abandoned() {
    // The cap collapses at 0.3 s, before the move lands at quantum 3: from
    // then on n1's admission control refuses every admit, and with every
    // other node just as starved the re-aim falls back to n1.
    let base = Scenario {
        cap: LoadPattern::Steps(vec![(0.0, 2.0), (0.3, 0.01)]),
        ..quiet(24)
    };
    let (coordinator, c1, events) = migrate_c1_to_n1(&base, false);
    let mut want = Vec::new();
    for quantum in [3, 7, 15] {
        want.extend([(quantum, "failed", n(1)), (quantum, "retried", n(1))]);
    }
    want.extend([(23, "failed", n(1)), (23, "abandoned", n(1))]);
    assert_eq!(migration_log(&events, c1), want);
    assert!(events.iter().any(|e| matches!(
        e,
        ClusterEvent::MigrationAbandoned { tenant, attempts: 4, .. } if *tenant == c1
    )));
    assert_eq!(
        coordinator.tenant_state(c1),
        Some(cuttlesys::lifecycle::LifecycleState::Retired)
    );
}

#[test]
fn a_refused_move_is_re_aimed_at_a_serving_node_and_completes() {
    // n1 is drained while the move is in flight, so the admit at quantum 3
    // is refused without asking n1; the re-aim picks the best serving node
    // (today the source, n0) and the move lands after the backoff.
    let (coordinator, c1, events) = migrate_c1_to_n1(&roomy(10), true);
    let log = migration_log(&events, c1);
    let to = log[1].2;
    assert_eq!(
        log,
        [
            (3, "failed", n(1)),
            (3, "retried", to),
            (7, "completed", to)
        ]
    );
    assert_ne!(to, n(1));
    assert_eq!(coordinator.node_health(to), Some(NodeHealth::Up));
    assert_eq!(coordinator.tenant_node(c1), Some(to));
    assert!(coordinator.tenant_state(c1).is_some_and(|s| s.is_live()));
}

/// Steps [`two_nodes`] of [`four_batch_quiet`] under `plan` until the
/// first tenant is parked displaced, hands the fleet and that tenant to
/// `act`, then steps the rest of the run. Returns the fleet, the tenant,
/// the quantum it was parked in, and the cluster-level events after `act`.
fn act_on_the_first_displaced(
    plan: FleetFaultPlan,
    act: impl FnOnce(&mut ClusterCoordinator, ClusterTenantId),
) -> (
    ClusterCoordinator,
    ClusterTenantId,
    usize,
    Vec<ClusterEvent>,
) {
    let base = four_batch_quiet(12);
    let mut coordinator = two_nodes(&base, plan);
    let mut stepped = 0;
    let (id, parked_at) = loop {
        assert!(
            stepped < base.duration_slices,
            "nothing was displaced, the test is vacuous"
        );
        step_checked(&mut coordinator);
        stepped += 1;
        let parked = coordinator.drain_events().iter().find_map(|e| match *e {
            ClusterEvent::Displaced {
                tenant, quantum, ..
            } => Some((tenant, quantum)),
            _ => None,
        });
        if let Some(found) = parked {
            break found;
        }
    };
    act(&mut coordinator, id);
    let mut events = Vec::new();
    for _ in stepped..base.duration_slices {
        step_checked(&mut coordinator);
        events.extend(coordinator.drain_events());
    }
    (coordinator, id, parked_at, events)
}

/// How often `id` was evacuated in `events`.
fn evacuations_of(events: &[ClusterEvent], id: ClusterTenantId) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::Evacuated { tenant, .. } if *tenant == id))
        .count()
}

#[test]
fn a_deregistered_evacuee_leaves_the_displaced_queue_and_is_never_placed() {
    // A crashed node is declared Down (and evacuated) two quanta after it
    // stops, and its evacuee's old row drains on deregistration. A drained
    // node evacuates at once and has already retired the row.
    use cuttlesys::lifecycle::LifecycleState::{Draining, Retired};
    for (plan, parked_in, state) in [
        (FleetFaultPlan::none().with_crash(n(1), 2), 4, Draining),
        (FleetFaultPlan::none().with_drain(n(1), 2), 2, Retired),
    ] {
        let (coordinator, id, parked_at, events) =
            act_on_the_first_displaced(plan, |coordinator, id| {
                let queued = coordinator.displaced_tenants();
                coordinator
                    .deregister(id)
                    .expect("a parked tenant deregisters");
                assert_eq!(coordinator.displaced_tenants(), queued - 1);
            });
        assert_eq!(parked_at, parked_in);
        assert_eq!(evacuations_of(&events, id), 0, "{events:?}");
        assert_eq!(coordinator.tenant_state(id), Some(state));
    }
}

#[test]
fn a_parked_evacuee_refuses_a_migration_and_is_placed_once() {
    let plan = FleetFaultPlan::none().with_crash(n(1), 2);
    let (coordinator, id, parked_at, events) =
        act_on_the_first_displaced(plan, |coordinator, id| {
            assert_eq!(
                coordinator.migrate(id, n(0)),
                Err(ClusterError::Relocating(id))
            );
        });
    assert_eq!(parked_at, 4);
    assert_eq!(evacuations_of(&events, id), 1, "{events:?}");
    assert!(
        !events.iter().any(|e| matches!(
            e,
            ClusterEvent::MigrationCompleted { tenant, .. } if *tenant == id
        )),
        "{events:?}"
    );
    assert_eq!(coordinator.tenant_node(id), Some(n(0)));
    assert!(coordinator.tenant_state(id).is_some_and(|s| s.is_live()));
}

#[test]
fn a_registration_with_every_node_down_blames_no_node() {
    let mut coordinator = two_nodes(&roomy(4), FleetFaultPlan::none());
    step_checked(&mut coordinator);
    for node in [n(0), n(1)] {
        coordinator.drain_node(node).expect("node drains");
    }
    let app = batch::mix(1, 0xBEEF).apps[0];
    assert_eq!(
        coordinator.register_batch("orphan", app),
        Err(ClusterError::NoServingNode)
    );
}

#[test]
fn a_directed_registration_on_a_drained_node_is_refused() {
    let mut coordinator = two_nodes(&roomy(8), FleetFaultPlan::none());
    coordinator.drain_node(n(1)).expect("n1 drains");
    let app = batch::mix(1, 0xBEEF).apps[0];
    // The drained node never steps again and its evacuation has already
    // run: a tenant admitted there would wait forever.
    assert_eq!(
        coordinator.register_batch_on(n(1), "late", app),
        Err(ClusterError::NodeUnavailable(n(1)))
    );
    for _ in 0..5 {
        step_checked(&mut coordinator);
    }
    let snapshot = coordinator.snapshot();
    assert!(
        snapshot.tenants.iter().all(|t| t.name != "late"),
        "the refused tenant entered the table"
    );
}

#[test]
fn a_directed_registration_on_an_undetected_crash_is_recovered_by_evacuation() {
    let base = roomy(8);
    let mut coordinator = two_nodes(&base, FleetFaultPlan::none().with_crash(n(1), 1));
    step_checked(&mut coordinator);
    step_checked(&mut coordinator);
    // n1 crashed at quantum 1 but has missed only one heartbeat: like
    // placement, a directed registration still takes it.
    assert_eq!(
        coordinator.node_health(n(1)),
        Some(NodeHealth::Suspect { missed: 1 })
    );
    let app = batch::mix(1, 0xBEEF).apps[0];
    let late = coordinator
        .register_batch_on(n(1), "late", app)
        .expect("a crash not yet declared Down is still a target");
    let mut events = Vec::new();
    for _ in 2..base.duration_slices {
        step_checked(&mut coordinator);
        events.extend(coordinator.drain_events());
    }
    assert!(
        events.iter().any(|e| matches!(
            e,
            ClusterEvent::Evacuated { tenant, from, to, .. }
                if *tenant == late && *from == n(1) && *to == n(0)
        )),
        "the tenant was not evacuated off the crashed node: {events:?}"
    );
    assert_eq!(coordinator.tenant_node(late), Some(n(0)));
    assert!(coordinator.tenant_state(late).is_some_and(|s| s.is_live()));
}
