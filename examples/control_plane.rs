//! Control-plane demo: the manager as a long-lived service.
//!
//! Starts the CuttleSys control plane over the paper-default co-location,
//! registers two batch tenants *live* (through admission control), kills
//! one mid-run, and scrapes the Prometheus-style metrics endpoint over
//! plain TCP while the run is in flight — the workflow an operator (or the
//! CI smoke job) exercises against a real deployment.
//!
//! Run with: `cargo run --release --example control_plane -- [profile]`
//! where `profile` is `clean` (default), `lossy-sensors`, or
//! `flaky-reconfig` — the same seeded fault profiles as
//! `cargo paper fault-matrix`, so the degradation ladder shows up in the
//! scraped gauges.
//!
//! Exits non-zero when the control plane misbehaves: a registration that
//! should be admitted is rejected, the scrape is missing the degradation
//! gauge (or, under a faulty profile, the gauge never moves), the killed
//! tenant fails to retire, or the final drain leaves a tenant holding
//! resources.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use cuttlesys::control::ControlEvent;
use cuttlesys::faults::FaultPlan;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::types::Scenario;
use service::bus::Received;
use service::ServiceBuilder;
use workloads::batch;
use workloads::loadgen::LoadPattern;

/// One HTTP GET against the service's scrape endpoint, body returned.
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

/// Extracts an unlabelled sample value (`name value`) from a scrape body.
fn sample_value(body: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    body.lines()
        .find(|line| line.starts_with(&prefix))
        .and_then(|line| line[prefix.len()..].trim().parse().ok())
}

fn main() -> ExitCode {
    let profile = std::env::args().nth(1).unwrap_or("clean".into());
    let Some(plan) = FaultPlan::named(&profile, 7) else {
        eprintln!(
            "unknown profile {profile} (use {})",
            FaultPlan::NAMES.join("|")
        );
        return ExitCode::FAILURE;
    };
    let mut scenario = Scenario::paper_default().with_faults(plan);
    // Leave steady-state headroom so admission control can say yes to the
    // two runtime registrations below (the demo is churn, not starvation).
    scenario.cap = LoadPattern::Constant(2.0);

    let service = ServiceBuilder::new(&scenario)
        .metrics_addr("127.0.0.1:0")
        .start()
        .expect("service starts");
    let addr = service.metrics_addr().expect("endpoint bound");
    let mut events = service.subscribe();
    println!(
        "control plane up: profile {profile}, {} declared tenants, metrics on http://{addr}/metrics",
        scenario.num_lc() + scenario.num_batch()
    );

    // Two live registrations, straight through admission control.
    let newcomers = batch::mix(2, batch::STANDARD_MIX_SEED).apps;
    let first = match service.register_batch("newcomer-a", newcomers[0]) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("FAIL: newcomer-a should be admitted under the loose cap: {e}");
            return ExitCode::FAILURE;
        }
    };
    let second = match service.register_batch("newcomer-b", newcomers[1]) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("FAIL: newcomer-b should be admitted under the loose cap: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("admitted newcomer-a as {first}, newcomer-b as {second}");

    // Run the horizon; kill one newcomer halfway through.
    let kill_at = scenario.duration_slices / 2;
    for slice in 0..scenario.duration_slices {
        if slice == kill_at {
            service.deregister(first).expect("drain accepted");
            println!("slice {slice}: killed {first} (drains at the boundary)");
        }
        service.step_quantum().expect("quantum");
    }

    // Mid-flight scrape, exactly as an operator would.
    let metrics = scrape(addr, "/metrics");
    let state = scrape(addr, "/state");
    let quanta = sample_value(&metrics, "cuttlesys_quanta_total").unwrap_or(0.0);
    let Some(degraded) = sample_value(&metrics, "cuttlesys_degraded_quanta_total") else {
        eprintln!("FAIL: scrape is missing the degradation gauge:\n{metrics}");
        return ExitCode::FAILURE;
    };
    let rejected = sample_value(&metrics, "cuttlesys_samples_rejected_total").unwrap_or(0.0);
    let retries = sample_value(&metrics, "cuttlesys_sample_retries_total").unwrap_or(0.0);
    println!(
        "scraped {} bytes of metrics: {quanta} quanta, {degraded} degraded, \
         {rejected} samples rejected, {retries} retries",
        metrics.len()
    );
    // The ladder's first rungs (rejection, retry) always fire under a
    // faulty profile; full quantum degradation only under sustained loss.
    if profile != "clean" && degraded + rejected + retries == 0.0 {
        eprintln!("FAIL: profile {profile} left no trace in the degradation gauges");
        return ExitCode::FAILURE;
    }
    if !state.contains("\"name\":\"newcomer-a\"") {
        eprintln!("FAIL: /state does not list the live-registered tenant:\n{state}");
        return ExitCode::FAILURE;
    }

    // The killed tenant must have drained and retired by now.
    let snapshot = service.snapshot().expect("snapshot");
    let killed = &snapshot.tenants[first.index()];
    if killed.state != LifecycleState::Retired {
        eprintln!("FAIL: killed tenant is {:?}, not retired", killed.state);
        return ExitCode::FAILURE;
    }

    // Clean drain: shutdown retires everyone and returns the run record.
    let record = service.shutdown().expect("clean drain");
    let mut transitions = 0usize;
    let mut retired = 0usize;
    while let Ok(got) = events.recv() {
        match got {
            Received::Event(ControlEvent::Lifecycle { to, .. }) => {
                transitions += 1;
                if to == LifecycleState::Retired {
                    retired += 1;
                }
            }
            Received::Event(_) => {}
            Received::Lagged(n) => println!("subscriber lagged by {n} events"),
        }
    }
    println!(
        "run complete: {} slices, {} QoS violations, {transitions} lifecycle transitions, \
         {retired} tenants retired",
        record.slices.len(),
        record.qos_violations()
    );
    if retired < scenario.num_lc() + scenario.num_batch() {
        eprintln!("FAIL: drain left tenants unretired ({retired})");
        return ExitCode::FAILURE;
    }
    println!("clean drain confirmed; control plane down");
    ExitCode::SUCCESS
}
