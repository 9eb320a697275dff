//! Cluster determinism and equivalence tests — the acceptance properties
//! for the two-level (coordinator over per-node agents) control plane:
//!
//! * a one-node cluster replays the single-node run bit-for-bit (the
//!   paper-default golden record pins that run in `tests/multi_tenant.rs`,
//!   and `tests/control_plane.rs` pins the core path against it);
//! * eight nodes stepped concurrently each replay their own control core
//!   stepped alone, bit-for-bit, and so do two nodes on different chips
//!   (the fleet shares learned factors only between equal chips);
//! * under a flash crowd, balancing shifts traffic and auto-migration
//!   moves batch work off the breaching node, while every LC service's
//!   traffic shares keep summing to its replica count;
//! * a cross-node migration equals an explicit drain plus a directed
//!   admit after the modeled cost — the migration engine's two halves are
//!   literally those calls;
//! * 64 nodes × 10 tenants complete a full scenario inside tier-1 test
//!   time.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! `ClusterRecord::comparable` — the same convention as
//! `tests/determinism.rs`.

use cluster::{
    BalanceConfig, ClusterConfig, ClusterCoordinator, ClusterEvent, ClusterScenario,
    FleetFaultPlan, MigrationConfig, NodeId, RelocationTarget,
};
use cuttlesys::control::ControlCore;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::types::Scenario;
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

/// A quiet base with admission headroom, so churn tests can move a tenant
/// between nodes without tripping the power budget.
fn roomy(slices: usize) -> Scenario {
    Scenario {
        cap: LoadPattern::Constant(2.0),
        ..quiet(slices)
    }
}

#[test]
fn a_one_node_cluster_replays_the_single_node_run_bit_for_bit() {
    let base = Scenario::paper_default();
    let scenario = ClusterScenario::uniform(&base, 1);

    let mut coordinator = ClusterCoordinator::new(&scenario);
    for _ in 0..base.duration_slices {
        coordinator.step_quantum().expect("cluster quantum");
    }
    coordinator.shutdown().expect("fleet drain");
    let record = coordinator.into_record();
    assert_eq!(record.quanta, base.duration_slices);
    assert_eq!(record.nodes.len(), 1);

    // The exact run the golden record pins: a bare control core on the
    // same scenario (node 0's seed salt is zero by construction).
    let mut core = ControlCore::new(&base);
    for _ in 0..base.duration_slices {
        core.step_quantum().expect("core quantum");
    }
    core.shutdown().expect("core drain");

    let node = record.nodes.into_iter().next().expect("one node");
    assert_eq!(
        node.comparable(),
        core.into_record().comparable(),
        "N=1 must be the exact degenerate case of the cluster"
    );
}

#[test]
fn eight_concurrently_stepped_nodes_each_replay_their_bare_core_bit_for_bit() {
    // No balance, no auto-migration, no faults: nothing crosses nodes, so
    // each node's record is its own scenario's, however the fleet quantum
    // spreads the node steps over threads.
    const QUANTA: usize = 30;
    let scenario = ClusterScenario::uniform(&Scenario::paper_default(), 8);
    let mut coordinator = ClusterCoordinator::with_faults(
        &scenario,
        ClusterConfig::default(),
        FleetFaultPlan::none(),
    );
    for _ in 0..QUANTA {
        coordinator.step_quantum().expect("cluster quantum");
    }
    let record = coordinator.into_record();
    assert_eq!(record.nodes.len(), 8);

    for (i, (node, s)) in record.nodes.into_iter().zip(&scenario.nodes).enumerate() {
        let mut core = ControlCore::on_node(s, NodeId::from_index(i));
        for _ in 0..QUANTA {
            core.step_quantum().expect("core quantum");
        }
        assert_eq!(
            node.comparable(),
            core.into_record().comparable(),
            "node {i} stepped in the fleet differs from its core stepped alone"
        );
    }
}

#[test]
fn nodes_on_different_chips_each_replay_their_bare_core_bit_for_bit() {
    // The fleet shares one factor library per distinct chip; node 1's chip
    // differs from node 0's in one parameter, so it must learn its own.
    const QUANTA: usize = 20;
    let mut scenario = ClusterScenario::uniform(&Scenario::paper_default(), 2);
    scenario.nodes[1].params.dram_latency_cycles = 260.0;
    let mut coordinator = ClusterCoordinator::new(&scenario);
    for _ in 0..QUANTA {
        coordinator.step_quantum().expect("cluster quantum");
    }
    let record = coordinator.into_record();

    for (i, (node, s)) in record.nodes.into_iter().zip(&scenario.nodes).enumerate() {
        let mut core = ControlCore::on_node(s, NodeId::from_index(i));
        for _ in 0..QUANTA {
            core.step_quantum().expect("core quantum");
        }
        assert_eq!(
            node.comparable(),
            core.into_record().comparable(),
            "node {i} on its own chip differs from its core stepped alone"
        );
    }
}

#[test]
fn balancing_and_auto_migration_fire_and_conserve_traffic() {
    // Three paper-default nodes with admission headroom; n0 takes the
    // paper's flash crowd, as in `examples/cluster.rs`.
    let base = Scenario::paper_default()
        .with_duration_slices(10)
        .with_cap(LoadPattern::Constant(2.0));
    let mut scenario = ClusterScenario::uniform(&base, 3);
    scenario.nodes[0] = scenario.nodes[0]
        .clone()
        .with_load(LoadPattern::paper_spike());
    let config = ClusterConfig {
        balance: Some(BalanceConfig),
        migration: MigrationConfig {
            auto_tail_ratio: Some(1.0),
        },
    };
    let mut coordinator = ClusterCoordinator::with_config(&scenario, config);
    let n0 = NodeId::from_index(0);
    let (mut shifted, mut started) = (0, 0);
    for q in 0..base.duration_slices {
        coordinator
            .step_quantum()
            .unwrap_or_else(|e| panic!("q{q}: {e}"));
        for event in coordinator.drain_events() {
            match event {
                ClusterEvent::SharesShifted { from, .. } if from == n0 => shifted += 1,
                ClusterEvent::MigrationStarted { from, .. } if from == n0 => started += 1,
                _ => {}
            }
        }
        for lc in 0..base.num_lc() {
            let total: f64 = (0..3)
                .filter_map(|i| coordinator.node(NodeId::from_index(i)))
                .map(|node| node.core().lc_traffic_shares()[lc])
                .sum();
            assert!(
                (total - 3.0).abs() < 1e-9,
                "q{q}: lc{lc} shares sum to {total}, not the 3 replicas"
            );
        }
    }
    assert!(shifted > 0, "the flash crowd never shifted traffic off n0");
    assert!(
        started > 0,
        "the flash crowd never migrated a tenant off n0"
    );
}

#[test]
fn a_migration_equals_an_explicit_drain_plus_directed_admit() {
    let base = roomy(6);
    let scenario = ClusterScenario::uniform(&base, 2);
    let app = batch::mix(1, 0xBEEF).apps[0];
    let (n0, n1) = (NodeId::from_index(0), NodeId::from_index(1));
    let cost = cluster::migration::COST_QUANTA;

    // Twin A: the migration engine.
    let mut a = ClusterCoordinator::new(&scenario);
    let mover = a.register_batch_on(n0, "mover", app).expect("admit");
    a.step_quantum().expect("q0");
    a.step_quantum().expect("q1");
    a.migrate(mover, n1).expect("mover is live and movable");
    assert_eq!(
        a.tenant_state(mover),
        Some(LifecycleState::Relocating(RelocationTarget::Node(n1))),
        "in flight, the cluster-visible state names the destination"
    );
    for q in 2..base.duration_slices {
        a.step_quantum().unwrap_or_else(|e| panic!("q{q}: {e}"));
    }
    assert_eq!(a.tenant_node(mover), Some(n1), "the move completed");
    a.shutdown().expect("fleet drain");
    let record_a = a.into_record().comparable();

    // Twin B: the same two halves, issued by hand — drain on the source,
    // wait out the modeled cost, admit on the destination.
    let mut b = ClusterCoordinator::new(&scenario);
    let mover_b = b.register_batch_on(n0, "mover", app).expect("admit");
    b.step_quantum().expect("q0");
    b.step_quantum().expect("q1");
    b.deregister(mover_b).expect("drain half");
    for q in 0..cost {
        b.step_quantum()
            .unwrap_or_else(|e| panic!("cost q{q}: {e}"));
    }
    b.register_batch_on(n1, "mover", app).expect("admit half");
    for q in 2 + cost..base.duration_slices {
        b.step_quantum().unwrap_or_else(|e| panic!("q{q}: {e}"));
    }
    b.shutdown().expect("fleet drain");
    let record_b = b.into_record().comparable();

    assert_eq!(
        record_a.nodes, record_b.nodes,
        "per-node records must agree: a migration IS a drain plus a directed admit"
    );
}

#[test]
fn sixty_four_nodes_with_ten_tenants_complete_a_full_scenario() {
    // 1 LC service + 9 batch jobs = 10 tenants per node; a short, quiet
    // horizon keeps 64 nodes inside tier-1 test time.
    let base = quiet(2).with_mix(batch::mix(9, 0xA5));
    assert_eq!(1 + base.num_batch(), 10);
    let scenario = ClusterScenario::uniform(&base, 64);

    let mut coordinator = ClusterCoordinator::new(&scenario);
    while !coordinator.is_done() {
        coordinator.step_quantum().expect("quantum");
    }
    assert_eq!(coordinator.quantum(), base.duration_slices);
    let snapshot = coordinator.snapshot();
    assert_eq!(snapshot.nodes.len(), 64);
    assert!(snapshot.tenants.len() >= 64 * 10);

    coordinator.shutdown().expect("fleet drain");
    let record = coordinator.into_record();
    assert_eq!(record.nodes.len(), 64);
    for node in &record.nodes {
        assert_eq!(node.slices.len(), base.duration_slices);
    }
}
