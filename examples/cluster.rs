//! Cluster demo: per-node agents under the deterministic coordinator.
//!
//! Brings up a three-node fleet, each node running the paper-default
//! co-location, then hits node n0 with the paper's flash crowd (a 130 %
//! traffic burst). Watch the cluster control plane react: the balance
//! policy sheds LC traffic share from the breaching replica, and the
//! auto-migration policy drains batch tenants off n0 and re-admits them
//! on nodes with headroom after the modeled migration cost. Per-node
//! gauges are scraped over plain TCP under `node=` labels, exactly as a
//! fleet operator would.
//!
//! Run with: `cargo run --release --example cluster`

use std::io::{Read, Write};
use std::net::TcpStream;

use cluster::{BalanceConfig, ClusterConfig, ClusterEvent, ClusterScenario, MigrationConfig};
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

fn main() {
    // Every node runs the paper-default co-location with steady-state
    // headroom (so migrated tenants can be re-admitted elsewhere); node
    // n0 additionally takes the paper's flash crowd.
    let base = Scenario::paper_default()
        .with_duration_slices(10)
        .with_cap(LoadPattern::Constant(2.0));
    let mut scenario = ClusterScenario::uniform(&base, 3);
    scenario.nodes[0] = scenario.nodes[0]
        .clone()
        .with_load(LoadPattern::paper_spike());

    let config = ClusterConfig {
        migration: MigrationConfig {
            auto_tail_ratio: Some(1.0),
        },
        balance: Some(BalanceConfig),
    };
    let service = ClusterServiceBuilder::new(&scenario)
        .config(config)
        .metrics_addr("127.0.0.1:0")
        .start()
        .expect("cluster service starts");
    let addr = service.metrics_addr().expect("endpoint bound");
    let mut events = service.subscribe();
    let tenants_per_node = base.num_lc() + base.num_batch();
    println!(
        "cluster up: 3 nodes x {tenants_per_node} tenants, flash crowd on n0, \
         metrics on http://{addr}/metrics"
    );

    // Run the horizon, draining the event stream as we go.
    let mut migrations_started = 0usize;
    let mut migrations_completed = 0usize;
    let mut shares_shifted = 0usize;
    let mut retired = 0usize;
    let mut drain = |events: &mut service::bus::Subscriber<ClusterEvent>| {
        while let Ok(Some(got)) = events.try_recv() {
            match got {
                Received::Event(ClusterEvent::MigrationStarted { name, from, to, .. }) => {
                    migrations_started += 1;
                    println!("  migration: {name} drains {from} -> {to}");
                }
                Received::Event(ClusterEvent::MigrationCompleted { name, to, .. }) => {
                    migrations_completed += 1;
                    println!("  migration: {name} admitted on {to}");
                }
                Received::Event(ClusterEvent::SharesShifted {
                    lc_index,
                    from,
                    to,
                    amount,
                    ..
                }) => {
                    shares_shifted += 1;
                    println!("  balance: lc{lc_index} share {amount:.2} moves {from} -> {to}");
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
        service.step_quantum().expect("quantum");
        println!("quantum {quantum}:");
        drain(&mut events);
    }

    // Per-node scrape, exactly as a fleet operator would.
    let metrics = scrape(addr, "/metrics");
    let state = scrape(addr, "/state");
    println!(
        "scraped {} bytes of per-node metrics and {} bytes of the cluster /state",
        metrics.len(),
        state.len()
    );

    // Clean fleet drain: shutdown retires every tenant on every node.
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
        "run complete: {} lockstep quanta, {} nodes, {migrations_started} migrations started \
         ({migrations_completed} completed), {shares_shifted} share shifts, {retired} tenants retired",
        record.quanta,
        record.nodes.len()
    );
    println!("cluster down");
}
