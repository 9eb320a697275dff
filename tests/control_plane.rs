//! Control-plane equivalence and churn tests.
//!
//! The refactor contract for the service layer: running the manager as a
//! long-lived service must be *observation-equivalent* to the static
//! batch runs the record digests of `tests/golden/ledger_digests.txt`
//! pin. Concretely:
//!
//! * a request sequence (register, deregister, step) applied to a fresh
//!   [`ControlCore`] is bit-identical to the same sequence sent to a live
//!   [`service::Service`] (same seed, same request sequence, same
//!   [`RunRecord`]);
//! * a sequence whose registrations all land before slice 0 is
//!   bit-identical to the equivalent static [`Scenario`] run via
//!   `run_scenario`, and 220 quanta of `paper_default` through the
//!   service facade, with registrations admission refuses, digest to the
//!   pinned `service_scrape` line;
//! * a mid-run deregistration is bit-identical to declaring the same
//!   departure slice statically (drain removes a row, and row removal
//!   commutes with when it was requested).
//!
//! Mid-run *registration* is deliberately NOT claimed equivalent to a
//! static scenario with the job present from t=0: SGD completes every
//! batch row each quantum, so a row that exists earlier trains earlier.
//! Equivalence holds between the live service and a core replaying the
//! same request sequence, which is the property operators need for
//! postmortems.
//!
//! Wall-clock stage timings are zeroed before comparison via
//! [`RunRecord::comparable`] — the same convention as
//! `tests/determinism.rs`.

use cluster::{ClusterCoordinator, ClusterScenario};
use cuttlesys::control::{ControlCore, TenantId, TenantKind};
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::runtime::CuttleSysManager;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{BatchJobSpec, JobSpec, RunRecord, Scenario};
use service::{ServiceBuilder, ServiceError};
use workloads::batch::SpecBenchmark;
use workloads::loadgen::LoadPattern;

/// One control-plane request, in arrival order.
enum Request {
    Register(&'static str, SpecBenchmark),
    Deregister(TenantId),
    Step,
}

/// Applies `requests` to a fresh control core over `scenario` and returns
/// the comparable run. Admission rejections are recorded behaviour, not
/// errors: the rejected tenant's row and event stay, as they do live.
fn replay(scenario: &Scenario, requests: &[Request]) -> RunRecord {
    let mut core = ControlCore::new(scenario);
    for request in requests {
        match request {
            Request::Register(name, app) => {
                let _ = core.register_batch(name, *app);
            }
            Request::Deregister(tenant) => core.deregister(*tenant).expect("drain accepted"),
            Request::Step => {
                core.step_quantum().expect("quantum");
            }
        }
    }
    core.into_record().comparable()
}

/// Sends `requests` to a live service over `scenario`, then shuts it down
/// and returns the comparable run.
fn drive(scenario: &Scenario, requests: &[Request]) -> RunRecord {
    let service = ServiceBuilder::new(scenario).start().expect("service");
    for request in requests {
        match request {
            Request::Register(name, app) => match service.register_batch(name, *app) {
                Ok(_) | Err(ServiceError::Admission(_)) => {}
                Err(e) => panic!("register {name}: {e}"),
            },
            Request::Deregister(tenant) => service.deregister(*tenant).expect("drain accepted"),
            Request::Step => {
                service.step_quantum().expect("quantum");
            }
        }
    }
    service.shutdown().expect("clean shutdown").comparable()
}

fn steps(n: usize) -> Vec<Request> {
    (0..n).map(|_| Request::Step).collect()
}

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
    let static_record = run_scenario(&scenario, &mut CuttleSysManager::for_scenario(&scenario));
    assert_eq!(
        replay(&scenario, &steps(scenario.duration_slices)),
        static_record.comparable(),
        "the service path must not perturb the static run"
    );
}

/// The decision pin through the facade: the benchmark's `service_scrape`
/// workload at seed 7 and `--seconds 2` without its HTTP scraper. That is
/// 220 quanta of `paper_default` with one registration every 50; the node
/// is full, so admission refuses each one and the records stay those of
/// the static run. The pinned digest is in `tests/golden/ledger_digests.txt`.
#[test]
fn the_service_facade_pins_the_service_scrape_digest() {
    let scenario = Scenario::paper_default()
        .with_seed(7)
        .with_duration_slices(220);
    let service = ServiceBuilder::new(&scenario).start().expect("service");
    let app = workloads::batch::mix(1, 0xBEEF).apps[0];
    for q in 0..scenario.duration_slices {
        if q % 50 == 25 {
            let reply = service.register_batch(&format!("late-{q}"), app);
            assert!(
                matches!(reply, Err(ServiceError::Admission(_))),
                "quantum {q}: a full node answered {reply:?}"
            );
        }
        service.step_quantum().expect("quantum");
    }
    let record = service.shutdown().expect("clean shutdown");
    assert_eq!(record.slices.len(), scenario.duration_slices);
    let pinned = include_str!("golden/ledger_digests.txt")
        .lines()
        .find_map(|line| line.strip_prefix("service_scrape "))
        .expect("tests/golden/ledger_digests.txt pins service_scrape");
    let got = format!("{:016x}", record.digest());
    assert_eq!(
        got, pinned,
        "service_scrape digest {got}, pinned {pinned} in tests/golden/ledger_digests.txt: \
         a change meant to leave decisions alone must keep it; one that moves them \
         regenerates that file"
    );
}

#[test]
fn live_service_and_trace_replay_agree_on_a_churny_run() {
    let mut scenario = quiet();
    scenario.cap = LoadPattern::Constant(2.0); // headroom for one admission
    let newcomer = workloads::batch::mix(1, 0xBEEF).apps[0];

    // One registration before slice 0, two quanta, one deregistration of a
    // declared batch tenant, then the rest of the horizon.
    let declared_batch = ControlCore::new(&scenario)
        .tenants()
        .iter()
        .position(|t| matches!(t.kind(), TenantKind::Batch { .. }))
        .map(TenantId::from_index)
        .expect("quick_demo declares a batch job");
    let requests = [
        Request::Register("newcomer", newcomer),
        Request::Step,
        Request::Step,
        Request::Deregister(declared_batch),
        Request::Step,
        Request::Step,
    ];
    assert_eq!(drive(&scenario, &requests), replay(&scenario, &requests));
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
        .map(|(i, _)| TenantId::from_index(i))
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
    assert_eq!(core.into_record().comparable(), static_record.comparable());
}

#[test]
fn replaying_the_same_trace_twice_is_bit_identical() {
    let scenario = quiet();
    let requests = steps(scenario.duration_slices);
    assert_eq!(replay(&scenario, &requests), replay(&scenario, &requests));
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

/// The fleet `/metrics` document pinned byte for byte beside the
/// single-node one: two `quick_demo` nodes after one lockstep quantum and
/// three bus overwrites. Stage timings are wall-clock, so the values of
/// `cuttlesys_stage_wall_ms` are masked to 0; their keys stay pinned.
#[test]
fn fleet_metrics_document_matches_the_pinned_golden_bytes() {
    let scenario = ClusterScenario::uniform(&Scenario::quick_demo(), 2);
    let mut coordinator = ClusterCoordinator::new(&scenario);
    coordinator.step_quantum().expect("quantum");
    let text: String = service::metrics::render_cluster(&coordinator, 3)
        .lines()
        .map(|line| match line.rsplit_once(' ') {
            Some((key, _)) if line.starts_with("cuttlesys_stage_wall_ms") => format!("{key} 0\n"),
            _ => format!("{line}\n"),
        })
        .collect();
    assert_eq!(
        text,
        include_str!("golden/metrics_cluster_2node.prom"),
        "fleet /metrics drifted from tests/golden/metrics_cluster_2node.prom"
    );
}

/// One parsed sample line: name, labels (values unescaped), value.
type Sample<'a> = (&'a str, Vec<(&'a str, String)>, f64);

/// Parses one text-format 0.0.4 sample line; `None` when it is malformed.
fn parse_sample(line: &str) -> Option<Sample<'_>> {
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let (name, mut rest) = line.split_at(line.find(['{', ' '])?);
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        rest = body;
        loop {
            let (key, quoted) = rest.split_once("=\"")?;
            let mut value = String::new();
            let mut chars = quoted.char_indices();
            let end = loop {
                match chars.next()? {
                    (i, '"') => break i,
                    (_, '\\') => value.push(match chars.next()?.1 {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        _ => return None,
                    }),
                    (_, c) => value.push(c),
                }
            };
            labels.push((ident(key).then_some(key)?, value));
            rest = &quoted[end + 1..];
            match rest.strip_prefix(',') {
                Some(more) => rest = more,
                None => {
                    rest = rest.strip_prefix('}')?;
                    break;
                }
            }
        }
    }
    let value = rest.strip_prefix(' ')?.parse().ok()?;
    ident(name).then_some((name, labels, value))
}

/// Asserts that `text` is a sequence of family groups, each `# HELP name`,
/// `# TYPE name`, then only samples of `name`, and no name in two groups.
fn assert_one_group_per_family(text: &str) {
    let mut seen: Vec<&str> = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if let Some(help) = line.strip_prefix("# HELP ") {
            let name = help.split(' ').next().unwrap_or_default();
            assert!(!seen.contains(&name), "{name} has a second group");
            seen.push(name);
            let kind = lines.next().unwrap_or_default();
            assert!(
                kind.starts_with(&format!("# TYPE {name} ")),
                "{name}'s HELP is not followed by its TYPE but by: {kind}"
            );
        } else {
            let (name, _, _) = parse_sample(line).unwrap_or_else(|| panic!("malformed: {line}"));
            assert_eq!(
                seen.last(),
                Some(&name),
                "{line} is outside its family's group"
            );
        }
    }
}

/// Text format 0.0.4 wants a family's lines as one group. Two LC tenants
/// on a node, and two nodes in a fleet, are where per-tenant and per-node
/// families of the same view would interleave.
#[test]
fn every_metrics_family_is_one_contiguous_group() {
    let mut core = ControlCore::new(&Scenario::two_service());
    for _ in 0..3 {
        core.step_quantum().expect("quantum");
    }
    let node = service::metrics::render(&core.snapshot(), core.records(), 0);
    assert_eq!(node.matches("\ncuttlesys_lc_tail_ms{").count(), 2);
    assert_one_group_per_family(&node);

    let scenario = ClusterScenario::uniform(&Scenario::quick_demo(), 2);
    let mut coordinator = ClusterCoordinator::new(&scenario);
    coordinator.step_quantum().expect("quantum");
    let fleet = service::metrics::render_cluster(&coordinator, 0);
    assert_eq!(fleet.matches("\ncuttlesys_chip_watts{").count(), 2);
    assert_one_group_per_family(&fleet);
}

/// Tenant names are the callers': a quote, a backslash or a newline in one
/// must not end its label early or start a sample line of its own.
#[test]
fn hostile_tenant_names_render_as_one_escaped_sample_line_each() {
    let hostile = "evil\"} 1\ninjected_total 7\nback\\slash";
    let roomy = Scenario {
        cap: LoadPattern::Constant(2.0),
        ..Scenario::quick_demo()
    };
    let app = workloads::batch::mix(1, 0xBEEF).apps[0];
    let tenant_lines = |text: &str| -> Vec<String> {
        let lines = text.lines().filter(|l| !l.starts_with('#'));
        let samples: Vec<_> = lines
            .map(|l| parse_sample(l).unwrap_or_else(|| panic!("malformed: {l}")))
            .collect();
        assert!(samples
            .iter()
            .all(|(name, _, _)| name.starts_with("cuttlesys_")));
        (samples.into_iter())
            .filter(|(name, _, _)| *name == "cuttlesys_tenant_state")
            .map(|(_, labels, _)| labels[0].1.clone())
            .collect()
    };

    let mut core = ControlCore::new(&roomy);
    core.step_quantum().expect("quantum");
    core.register_batch(hostile, app).expect("roomy cap admits");
    let text = service::metrics::render(&core.snapshot(), core.records(), 0);
    let names = tenant_lines(&text);
    assert_eq!(names.len(), core.snapshot().tenants.len());
    assert_eq!(names.last().map(String::as_str), Some(hostile));

    let scenario = ClusterScenario::uniform(&roomy, 2);
    let mut coordinator = ClusterCoordinator::new(&scenario);
    coordinator.step_quantum().expect("quantum");
    let n0 = cluster::NodeId::from_index(0);
    coordinator
        .register_batch_on(n0, hostile, app)
        .expect("roomy cap admits");
    let text = service::metrics::render_cluster(&coordinator, 0);
    let names = tenant_lines(&text);
    assert_eq!(names.len(), coordinator.snapshot().tenants.len());
    assert_eq!(names.iter().filter(|n| *n == hostile).count(), 1);
}
