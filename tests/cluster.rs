//! Cluster determinism and equivalence tests — the acceptance properties
//! for the two-level (coordinator over per-node agents) control plane:
//!
//! * a one-node cluster replays the single-node run bit-for-bit (the
//!   paper-default golden record pins that run in `tests/multi_tenant.rs`,
//!   and `tests/control_plane.rs` pins the core path against it);
//! * the same seed yields a bit-identical [`ClusterRecord`] whichever
//!   direction the serial stepper walks the node table and at every
//!   worker-pool width — nodes share nothing within a quantum, and the
//!   cross-node phases run serially in node-id order;
//! * a cross-node migration equals an explicit drain plus a directed
//!   admit after the modeled cost — the migration engine's two halves are
//!   literally those calls;
//! * 64 nodes × 10 tenants complete a full scenario inside tier-1 test
//!   time.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! [`ClusterRecord::comparable`] — the same convention as
//! `tests/determinism.rs`.

use cluster::{
    BalanceConfig, ClusterConfig, ClusterCoordinator, ClusterError, ClusterRecord, ClusterScenario,
    NodeId, RelocationTarget,
};
use cuttlesys::control::ControlCore;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::types::Scenario;
use util::WorkerPool;
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

/// Builds a churny 4-node cluster — balancing on, one manual migration
/// mid-run — and drives it to completion with the given stepper.
fn churny_record(
    stepper: impl Fn(&mut ClusterCoordinator) -> Result<(), ClusterError>,
) -> ClusterRecord {
    let scenario = ClusterScenario::uniform(&roomy(4), 4);
    let config = ClusterConfig {
        balance: Some(BalanceConfig::default()),
        ..ClusterConfig::default()
    };
    let mut coordinator = ClusterCoordinator::with_config(&scenario, config);
    let app = batch::mix(1, 0xBEEF).apps[0];
    let mover = coordinator
        .register_batch_on(NodeId::from_index(0), "mover", app)
        .expect("roomy cap admits the mover");
    stepper(&mut coordinator).expect("quantum 0");
    coordinator
        .migrate(mover, NodeId::from_index(2))
        .expect("mover is live and movable");
    for _ in 1..4 {
        stepper(&mut coordinator).expect("quantum");
    }
    coordinator.shutdown().expect("fleet drain");
    coordinator.into_record().comparable()
}

#[test]
fn step_order_and_pool_width_are_immaterial() {
    let forward = churny_record(|c| c.step_quantum());
    let reverse = churny_record(|c| c.step_quantum_ordered(cluster::StepOrder::Reverse));
    assert_eq!(
        forward, reverse,
        "walking the node table backwards must not perturb the record"
    );
    for width in [1, 2, 4] {
        let pool = WorkerPool::new(width);
        let pooled = churny_record(|c| c.step_quantum_in(Some(&pool)));
        assert_eq!(
            forward, pooled,
            "a {width}-thread pool must match the serial stepper bit-for-bit"
        );
    }
}

#[test]
fn a_migration_equals_an_explicit_drain_plus_directed_admit() {
    let base = roomy(6);
    let scenario = ClusterScenario::uniform(&base, 2);
    let app = batch::mix(1, 0xBEEF).apps[0];
    let (n0, n1) = (NodeId::from_index(0), NodeId::from_index(1));
    // ClusterConfig::default() models a 2-quantum migration cost.
    let cost = cluster::MigrationConfig::default().cost_quanta;

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
    let pool = WorkerPool::new(4);
    while !coordinator.is_done() {
        coordinator.step_quantum_in(Some(&pool)).expect("quantum");
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
