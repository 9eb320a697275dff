//! `fleet_faulted`: eight nodes under the `ClusterCoordinator`, stepped
//! serially by one caller (closed loop) with scheduled fleet faults and a
//! seeded schedule of live registrations and deregistrations.

use std::collections::VecDeque;
use std::time::Instant;

use cluster::{
    BalanceConfig, ClusterConfig, ClusterCoordinator, ClusterEvent, ClusterTenantId,
    MigrationConfig, NodeId,
};
use cuttlesys::control::{ControlCore, ControlEvent};
use cuttlesys::types::RunRecord;

use crate::pass::{digest, traced_quantum, LayerSamples, Live, Ops, Pass};
use crate::trace::{timed_call, Tracer};
use crate::workloads::{fleet_command, Command, FleetPlan, WARMUP_QUANTA};

/// Fleet quanta between two `snapshot()` calls of the operator loop.
const SNAPSHOT_EVERY: usize = 10;

/// The fleet's policies: default placement and health, traffic balancing
/// on, and auto-migration off a node whose worst tail breaches its QoS.
fn config() -> ClusterConfig {
    ClusterConfig {
        balance: Some(BalanceConfig::default()),
        migration: MigrationConfig {
            auto_tail_ratio: Some(1.0),
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// A constructed and warmed fleet.
pub struct FleetLive {
    coordinator: ClusterCoordinator,
    timed: usize,
}

/// Builds the coordinator (every node's manager, offline characterisation
/// and worker pool included) and runs the warm-up quanta. The fault plan's
/// first fault is scheduled after them.
pub fn setup(plan: &FleetPlan, timed: usize) -> FleetLive {
    let mut coordinator =
        ClusterCoordinator::with_faults(&plan.scenario, config(), plan.faults.clone());
    for _ in 0..WARMUP_QUANTA {
        coordinator
            .step_quantum()
            .expect("a warm-up fleet quantum steps");
        coordinator.drain_events();
    }
    FleetLive { coordinator, timed }
}

/// Node-quanta simulated so far, over all nodes.
fn stepped_total(coordinator: &ClusterCoordinator) -> usize {
    (0..coordinator.num_nodes())
        .filter_map(|i| coordinator.node(NodeId::from_index(i)))
        .map(|node| node.core().records().len())
        .sum()
}

fn records(coordinator: &ClusterCoordinator) -> Vec<RunRecord> {
    (0..coordinator.num_nodes())
        .filter_map(|i| coordinator.node(NodeId::from_index(i)))
        .map(|node| RunRecord {
            scheme: "cuttlesys".to_string(),
            slices: node.core().records().to_vec(),
        })
        .collect()
}

impl Live for FleetLive {
    fn warm_digest(&self) -> u64 {
        digest(&records(&self.coordinator))
    }

    fn run(mut self: Box<Self>, mut whole_pass_tracer: Option<&mut Tracer>) -> Pass {
        let coordinator = &mut self.coordinator;
        let mut traced = Vec::with_capacity(self.timed);
        let mut quantum_ms = Vec::with_capacity(self.timed);
        let mut ops = Ops::default();
        let mut layer = LayerSamples::default();
        let mut registered: VecDeque<ClusterTenantId> = VecDeque::new();
        let mut admitted = 0usize;
        let mut nodes_stepped = Vec::with_capacity(self.timed);
        let mut stepped_before = stepped_total(coordinator);
        let start = Instant::now();
        for q in 0..self.timed {
            let quantum = q as u32;
            let mut tracer = whole_pass_tracer
                .as_deref_mut()
                .filter(|_| traced_quantum(q));
            traced.push(tracer.is_some());
            match fleet_command(q) {
                Some(Command::Register(app)) => {
                    let (placed, took) =
                        timed_call(tracer.as_deref_mut(), "command", quantum, || {
                            coordinator.register_batch(&format!("bench-{q}"), app)
                        });
                    layer.command_us.push(took.as_secs_f64() * 1e6);
                    match placed {
                        Ok(id) => {
                            registered.push_back(id);
                            admitted += 1;
                            ops.ok();
                        }
                        Err(e) => ops.fail(|| format!("register_batch at quantum {q}: {e}")),
                    }
                }
                Some(Command::DeregisterOldest) => {
                    // A tenant that is mid-migration or was on a node that
                    // has since failed cannot be deregistered right now;
                    // take the oldest one that can.
                    let pos = registered.iter().position(|id| {
                        coordinator
                            .tenant_state(*id)
                            .is_some_and(|s| s.is_live() && s.relocation_target().is_none())
                    });
                    if let Some(id) = pos.and_then(|p| registered.remove(p)) {
                        match coordinator.deregister(id) {
                            Ok(()) => ops.ok(),
                            Err(e) => ops.fail(|| format!("deregister {id} at quantum {q}: {e}")),
                        }
                    }
                }
                None => {}
            }

            let (stepped, took) =
                timed_call(tracer.as_deref_mut(), "fleet_quantum", quantum, || {
                    coordinator.step_quantum()
                });
            let wall_ms = took.as_secs_f64() * 1e3;
            quantum_ms.push(wall_ms);
            let stepped_now = stepped_total(coordinator);
            let stepping = stepped_now - stepped_before;
            stepped_before = stepped_now;
            nodes_stepped.push(stepping);
            if let Err(e) = stepped {
                for _ in 0..stepping.max(1) {
                    ops.fail(|| format!("fleet quantum {q}: {e}"));
                }
                break;
            }

            let (events, took) = timed_call(tracer.as_deref_mut(), "drain_events", quantum, || {
                coordinator.drain_events()
            });
            layer.drain_events_us.push(took.as_secs_f64() * 1e6);
            if let Some(tr) = tracer.as_deref_mut() {
                tr.count("cluster_events", quantum, events.len() as f64);
            }
            layer.cluster_events += events.len();
            let mut degraded_nodes = 0usize;
            for event in &events {
                match event {
                    ClusterEvent::Evacuated { .. } => layer.evacuations += 1,
                    ClusterEvent::MigrationCompleted { .. } => layer.migrations += 1,
                    ClusterEvent::MigrationAbandoned { .. } => layer.migrations_abandoned += 1,
                    ClusterEvent::Node(ControlEvent::QuantumDegraded { .. }) => degraded_nodes += 1,
                    _ => {}
                }
            }
            // One operation per node that stepped; the serial stepper's
            // wall time is shared evenly between them.
            let per_node_ms = wall_ms / stepping.max(1) as f64;
            for n in 0..stepping {
                ops.tally_quantum(n < degraded_nodes, per_node_ms);
            }
            layer.displaced_tenant_quanta += coordinator.displaced_tenants();
            layer.fleet_degraded_quanta += usize::from(coordinator.is_degraded());

            if q % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1 {
                let (snapshot, took) =
                    timed_call(tracer, "snapshot", quantum, || coordinator.snapshot());
                std::hint::black_box(snapshot);
                layer.snapshot_us.push(took.as_secs_f64() * 1e6);
            }
        }
        let timed_wall_s = start.elapsed().as_secs_f64();

        // The fleet must end whole: nobody parked, nobody given up on.
        let lost = coordinator.displaced_tenants() + layer.migrations_abandoned;
        for _ in 0..lost {
            ops.fail(|| {
                format!(
                    "{} tenants displaced at the end, {} migrations abandoned, of {admitted} admitted",
                    coordinator.displaced_tenants(),
                    layer.migrations_abandoned
                )
            });
        }
        // The workload exists to exercise evacuation and migration; a run
        // in which neither happened measured something else.
        let mut problems = Vec::new();
        if layer.evacuations == 0 {
            problems.push("the fleet performed no evacuation".to_string());
        }
        if layer.migrations == 0 {
            problems.push("the fleet completed no migration".to_string());
        }
        Pass {
            quantum_ms,
            nodes_stepped,
            traced,
            timed_wall_s,
            records: records(coordinator),
            ops,
            layer,
            problems,
        }
    }
}

/// The same node scenarios stepped as bare control cores — no coordinator,
/// no faults, no commands — for `quanta` timed quanta after the warm-up.
/// Returns the wall time of each bare fleet quantum (ms) and how many
/// nodes it stepped.
pub fn bare_pass(plan: &FleetPlan, quanta: usize) -> (Vec<f64>, usize) {
    let mut cores: Vec<ControlCore> = plan
        .scenario
        .nodes
        .iter()
        .enumerate()
        .map(|(i, s)| ControlCore::on_node(s, NodeId::from_index(i)))
        .collect();
    let step_all = |cores: &mut Vec<ControlCore>| {
        for core in cores.iter_mut() {
            core.step_quantum().expect("a bare node quantum steps");
            core.drain_events();
        }
    };
    for _ in 0..WARMUP_QUANTA {
        step_all(&mut cores);
    }
    let quantum_ms = (0..quanta)
        .map(|_| {
            let t0 = Instant::now();
            step_all(&mut cores);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (quantum_ms, cores.len())
}
