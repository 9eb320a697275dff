//! Fleet fault-tolerance demo: lose a node mid-flash-crowd and watch the
//! coordinator recover.
//!
//! Brings up a three-node fleet (flash crowd on n0), then takes node n1
//! out mid-run according to the chosen profile:
//!
//! * `crash` (default) — n1 halts silently at quantum 3; the health
//!   detector counts missed heartbeats, declares it down, and evacuates.
//! * `blackout` — n1 keeps running but is unobservable for 4 quanta; it
//!   is declared down and evacuated, then rejoins and the coordinator
//!   reconciles the stale rows it abandoned.
//! * `drain` — the operator drains n1 for maintenance at quantum 3:
//!   tenants evacuate with warning and its control plane shuts down
//!   cleanly.
//!
//! Health gauges (`cuttlesys_node_up`, `cuttlesys_evacuations_total`,
//! `cuttlesys_displaced_tenants`, `cuttlesys_fleet_degraded`) are scraped
//! over plain TCP, exactly as a fleet operator would.
//!
//! Run with: `cargo run --release --example node_failure -- [crash|blackout|drain]`

use std::io::{Read, Write};
use std::net::TcpStream;

use cluster::{ClusterEvent, ClusterScenario, FleetFaultPlan, NodeId};
use cuttlesys::control::ControlEvent;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::types::Scenario;
use service::bus::Received;
use service::cluster::ClusterServiceBuilder;
use workloads::loadgen::LoadPattern;

/// One HTTP GET against the cluster scrape endpoint, body returned.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(conn, "GET {path} HTTP/1.1\r\nHost: cuttlesys\r\n\r\n").expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    body.to_string()
}

const FAULT_QUANTUM: usize = 3;
const BLACKOUT_QUANTA: usize = 4;

fn main() {
    let profile = std::env::args().nth(1).unwrap_or_else(|| "crash".into());
    let victim = NodeId::from_index(1);

    // Headroom on every node so the survivors can absorb n1's tenants;
    // the flash crowd keeps n0 busy while it happens.
    let base = Scenario::paper_default()
        .with_duration_slices(12)
        .with_cap(LoadPattern::Constant(2.0));
    let mut scenario = ClusterScenario::uniform(&base, 3);
    scenario.nodes[0] = scenario.nodes[0]
        .clone()
        .with_load(LoadPattern::paper_spike());

    let plan = match profile.as_str() {
        "crash" => FleetFaultPlan::none().with_crash(victim, FAULT_QUANTUM),
        "blackout" => FleetFaultPlan::none().with_blackout(victim, FAULT_QUANTUM, BLACKOUT_QUANTA),
        "drain" => FleetFaultPlan::none(), // injected by the operator below
        other => panic!("unknown profile `{other}` (want crash, blackout, or drain)"),
    };
    let service = ClusterServiceBuilder::new(&scenario)
        .faults(plan)
        .metrics_addr("127.0.0.1:0")
        .start()
        .expect("cluster service starts");
    let addr = service.metrics_addr().expect("endpoint bound");
    let mut events = service.subscribe();
    let tenants_per_node = base.num_lc() + base.num_batch();
    println!(
        "cluster up: 3 nodes x {tenants_per_node} tenants, profile `{profile}` on {victim}, \
         metrics on http://{addr}/metrics"
    );

    let mut health_changes = 0usize;
    let mut evacuated = 0usize;
    let mut displaced = 0usize;
    let mut retired = 0usize;
    let mut drain = |events: &mut service::bus::Subscriber<ClusterEvent>| {
        while let Ok(Some(got)) = events.try_recv() {
            match got {
                Received::Event(ClusterEvent::NodeHealthChanged { node, from, to, .. }) => {
                    health_changes += 1;
                    println!("  health: {node} {} -> {}", from.name(), to.name());
                }
                Received::Event(ClusterEvent::Evacuated { name, from, to, .. }) => {
                    evacuated += 1;
                    println!("  evacuation: {name} moves {from} -> {to}");
                }
                Received::Event(ClusterEvent::Displaced { name, retry_at, .. }) => {
                    displaced += 1;
                    println!("  displaced: {name} parked, retry at quantum {retry_at}");
                }
                Received::Event(ClusterEvent::NodeDrained { node, .. }) => {
                    println!("  maintenance: {node} drained");
                }
                Received::Event(ClusterEvent::FleetDegraded { .. }) => {
                    println!("  fleet: degraded mode engaged");
                }
                Received::Event(ClusterEvent::FleetRecovered { .. }) => {
                    println!("  fleet: degraded mode disengaged");
                }
                Received::Event(ClusterEvent::Node(ControlEvent::Lifecycle {
                    to: LifecycleState::Retired,
                    ..
                })) => retired += 1,
                Received::Event(_) => {}
                Received::Lagged(n) => println!("  subscriber lagged by {n} events"),
            }
        }
    };
    for quantum in 0..base.duration_slices {
        if profile == "drain" && quantum == FAULT_QUANTUM {
            service.drain_node(victim).expect("operator drain");
        }
        service.step_quantum().expect("quantum");
        println!("quantum {quantum}:");
        drain(&mut events);
    }

    // Scrape the health gauges, exactly as a fleet operator would.
    let metrics = scrape(addr, "/metrics");
    let state = scrape(addr, "/state");
    println!(
        "scraped {} bytes of health-labeled metrics and {} bytes of /state:",
        metrics.len(),
        state.len()
    );
    for line in metrics.lines() {
        if line.starts_with("cuttlesys_node_up{") {
            println!("  {line}");
        }
    }

    // Clean fleet drain. A crashed node freezes mid-scenario and retires
    // nothing; the survivors (plus evacuees) retire cleanly.
    let record = service.shutdown().expect("clean fleet drain");
    while let Ok(got) = events.recv() {
        if let Received::Event(ClusterEvent::Node(ControlEvent::Lifecycle {
            to: LifecycleState::Retired,
            ..
        })) = got
        {
            retired += 1;
        }
    }
    println!(
        "run complete: {} lockstep quanta ({} on {victim}), {health_changes} health \
         transitions, {evacuated} evacuations, {displaced} displacements, {retired} tenants retired",
        record.quanta,
        record.nodes[victim.index()].slices.len()
    );
    println!("cluster down");
}
