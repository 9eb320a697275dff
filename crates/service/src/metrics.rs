//! Prometheus-style text rendering of the control plane's telemetry.
//!
//! The facade computes nothing new: everything is re-expressed from the
//! per-slice [`SliceRecord`]s (and their [`TelemetrySummary`] aggregate)
//! that the decision loop already produces, plus the tenant table snapshot.
//! Rendering happens in a turn on the plane between quanta, on demand — a
//! scrape costs one string build, never a measurement.
//!
//! The exposition format is the Prometheus text format, version 0.0.4:
//! `# HELP` / `# TYPE` comment pairs followed by `name{labels} value`
//! samples. Only counters and gauges are used.

use cluster::{ClusterCoordinator, NodeId};
use cuttlesys::control::ControlSnapshot;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::telemetry::{TelemetrySummary, STAGE_NAMES};
use cuttlesys::types::SliceRecord;
use std::fmt::Write as _;

/// One metric family: help text, type, then samples.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One sample. `labels` are label-set fragments (`key="value"`, possibly
/// empty) joined with commas.
fn sample(out: &mut String, name: &str, labels: &[&str], value: f64) {
    // Prometheus has no NaN-free guarantee, but our sources do: guard
    // anyway so a blackout slice cannot poison the whole scrape.
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(name);
    let mut open = '{';
    for fragment in labels.iter().filter(|l| !l.is_empty()) {
        out.push(open);
        out.push_str(fragment);
        open = ',';
    }
    if open == ',' {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// The samples of a single-valued per-node family: `(node label, value)`.
fn per_node<'a>(out: &mut String, name: &str, samples: impl Iterator<Item = (&'a str, f64)>) {
    for (node, value) in samples {
        sample(out, name, &[node], value);
    }
}

/// One node as the renderer sees it. `label` is prefixed to the label set
/// of every sample: empty in the single-node document, `node="nK"` in a
/// fleet's.
struct NodeView<'a> {
    label: &'a str,
    snapshot: &'a ControlSnapshot,
    records: &'a [SliceRecord],
}

/// The per-node families, family-major: each header once, then one sample
/// (or sample group) per node. Both documents are built on this, so a
/// family added here reaches both.
fn node_families(out: &mut String, nodes: &[NodeView]) {
    let over_records =
        |value: fn(&[SliceRecord]) -> f64| nodes.iter().map(move |n| (n.label, value(n.records)));
    family(
        out,
        "cuttlesys_quanta_total",
        "counter",
        "Decision quanta run since the service started.",
    );
    per_node(
        out,
        "cuttlesys_quanta_total",
        over_records(|r| r.len() as f64),
    );

    family(
        out,
        "cuttlesys_qos_violations_total",
        "counter",
        "Slices in which any latency-critical tenant violated its QoS.",
    );
    per_node(
        out,
        "cuttlesys_qos_violations_total",
        over_records(|r| r.iter().filter(|s| s.qos_violation()).count() as f64),
    );

    family(
        out,
        "cuttlesys_power_violations_total",
        "counter",
        "Slices whose average chip power exceeded the cap.",
    );
    per_node(
        out,
        "cuttlesys_power_violations_total",
        over_records(|r| r.iter().filter(|s| s.power_violation).count() as f64),
    );

    family(
        out,
        "cuttlesys_batch_instructions_total",
        "counter",
        "Instructions executed by batch jobs (the paper's throughput metric).",
    );
    per_node(
        out,
        "cuttlesys_batch_instructions_total",
        over_records(|r| r.iter().map(|s| s.batch_instructions).sum()),
    );

    // Nodes that have run a slice, each with its most recent one.
    let latest: Vec<(&str, &SliceRecord)> = nodes
        .iter()
        .filter_map(|n| Some((n.label, n.records.last()?)))
        .collect();
    family(
        out,
        "cuttlesys_chip_watts",
        "gauge",
        "Time-weighted average chip power over the most recent slice.",
    );
    family(
        out,
        "cuttlesys_cap_watts",
        "gauge",
        "Power cap in effect during the most recent slice.",
    );
    per_node(
        out,
        "cuttlesys_chip_watts",
        latest.iter().map(|(n, last)| (*n, last.chip_watts)),
    );
    per_node(
        out,
        "cuttlesys_cap_watts",
        latest.iter().map(|(n, last)| (*n, last.cap_watts)),
    );
    if !latest.is_empty() {
        family(
            out,
            "cuttlesys_lc_tail_ms",
            "gauge",
            "Per-tenant 99th-percentile latency over the most recent slice.",
        );
        family(
            out,
            "cuttlesys_lc_cores",
            "gauge",
            "Cores held by each latency-critical tenant in the most recent slice.",
        );
    }
    for (node, last) in &latest {
        for lc in &last.lc {
            let labels = [*node, &format!("service=\"{}\"", lc.service)];
            sample(out, "cuttlesys_lc_tail_ms", &labels, lc.tail_ms);
            sample(out, "cuttlesys_lc_cores", &labels, lc.cores as f64);
        }
    }

    // Nodes whose manager reports stage telemetry, each with its summary.
    let summaries: Vec<(&str, TelemetrySummary)> = nodes
        .iter()
        .filter_map(|n| {
            let telemetry = n.records.iter().filter_map(|s| s.telemetry.as_ref());
            Some((n.label, TelemetrySummary::over(telemetry)?))
        })
        .collect();
    if !summaries.is_empty() {
        let over_summaries = |value: fn(&TelemetrySummary) -> usize| {
            summaries.iter().map(move |(n, t)| (*n, value(t) as f64))
        };
        family(
            out,
            "cuttlesys_stage_wall_ms",
            "gauge",
            "Manager compute per pipeline stage (ms), mean and max over the run.",
        );
        for (node, t) in &summaries {
            for (i, stage) in STAGE_NAMES.iter().enumerate() {
                let stage = format!("stage=\"{stage}\"");
                for (stat, value) in [("mean", t.mean_wall_ms[i]), ("max", t.max_wall_ms[i])] {
                    let labels = [*node, &stage, &format!("stat=\"{stat}\"")];
                    sample(out, "cuttlesys_stage_wall_ms", &labels, value);
                }
            }
        }

        family(
            out,
            "cuttlesys_degraded_quanta_total",
            "counter",
            "Quanta served from the degradation ladder in any way.",
        );
        per_node(
            out,
            "cuttlesys_degraded_quanta_total",
            over_summaries(|t| t.degraded_quanta),
        );

        family(
            out,
            "cuttlesys_samples_rejected_total",
            "counter",
            "Profiling samples rejected by the plausibility gate.",
        );
        per_node(
            out,
            "cuttlesys_samples_rejected_total",
            over_summaries(|t| t.samples_rejected),
        );

        family(
            out,
            "cuttlesys_sample_retries_total",
            "counter",
            "Profiling frames re-sampled after a rejection.",
        );
        per_node(
            out,
            "cuttlesys_sample_retries_total",
            over_summaries(|t| t.sample_retries),
        );

        family(
            out,
            "cuttlesys_last_good_replays_total",
            "counter",
            "Quanta that replayed the last-good plan instead of deciding.",
        );
        per_node(
            out,
            "cuttlesys_last_good_replays_total",
            over_summaries(|t| t.last_good_replays),
        );

        family(
            out,
            "cuttlesys_safe_mode_quanta_total",
            "counter",
            "Quanta served by the safe-mode allocation (safe-mode residency).",
        );
        per_node(
            out,
            "cuttlesys_safe_mode_quanta_total",
            over_summaries(|t| t.safe_mode_quanta),
        );

        family(
            out,
            "cuttlesys_breaker_open_quanta_total",
            "counter",
            "Quanta during which the safe-mode circuit breaker was open.",
        );
        per_node(
            out,
            "cuttlesys_breaker_open_quanta_total",
            over_summaries(|t| t.breaker_open_quanta),
        );
    }

    family(
        out,
        "cuttlesys_breaker_open",
        "gauge",
        "Whether the safe-mode circuit breaker is currently open.",
    );
    per_node(
        out,
        "cuttlesys_breaker_open",
        nodes
            .iter()
            .map(|n| (n.label, f64::from(u8::from(n.snapshot.breaker_open)))),
    );
}

/// The `cuttlesys_tenants` family: tenants per lifecycle state name, over
/// the states of whichever tenant table the document describes. A node's
/// table holds only [`LifecycleState::ALL`]; `relocating` counts the
/// cluster view's tenants between nodes.
fn tenants_per_state(out: &mut String, states: &[LifecycleState]) {
    family(
        out,
        "cuttlesys_tenants",
        "gauge",
        "Tenants per lifecycle state.",
    );
    for name in [
        "registering",
        "admitted",
        "running",
        "relocating",
        "draining",
        "retired",
    ] {
        let n = states.iter().filter(|s| s.name() == name).count();
        let label = format!("state=\"{name}\"");
        sample(out, "cuttlesys_tenants", &[&label], n as f64);
    }
}

/// The `cuttlesys_bus_overwrites_total` family, last in both documents.
fn bus_overwrites_total(out: &mut String, bus_overwrites: u64) {
    family(
        out,
        "cuttlesys_bus_overwrites_total",
        "counter",
        "Events overwritten in the broadcast ring before delivery.",
    );
    sample(
        out,
        "cuttlesys_bus_overwrites_total",
        &[],
        bus_overwrites as f64,
    );
}

/// Renders the full `/metrics` document of one node: the per-node families
/// without a node label, the tenant table, the bus.
pub fn render(snapshot: &ControlSnapshot, records: &[SliceRecord], bus_overwrites: u64) -> String {
    let mut out = String::with_capacity(4096);
    let node = NodeView {
        label: "",
        snapshot,
        records,
    };
    node_families(&mut out, &[node]);

    let states: Vec<_> = snapshot.tenants.iter().map(|t| t.state).collect();
    tenants_per_state(&mut out, &states);
    family(
        &mut out,
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per tenant, value 1, state carried in the label.",
    );
    for t in &snapshot.tenants {
        let labels = format!(
            "tenant=\"{}\",kind=\"{}\",state=\"{}\"",
            t.name,
            t.kind,
            t.state.name()
        );
        sample(&mut out, "cuttlesys_tenant_state", &[&labels], 1.0);
    }

    bus_overwrites_total(&mut out, bus_overwrites);
    out
}

/// Renders the cluster `/metrics` document: the fleet-level families, then
/// every per-node family of the single-node document with each sample
/// under a `node="nK"` label, then the cluster tenant table and the bus.
pub fn render_cluster(cluster: &ClusterCoordinator, bus_overwrites: u64) -> String {
    let snapshot = cluster.snapshot();
    let mut out = String::with_capacity(4096 * snapshot.nodes.len().max(1));

    family(
        &mut out,
        "cuttlesys_cluster_nodes",
        "gauge",
        "Nodes under this coordinator.",
    );
    sample(
        &mut out,
        "cuttlesys_cluster_nodes",
        &[],
        cluster.num_nodes() as f64,
    );

    family(
        &mut out,
        "cuttlesys_cluster_quanta_total",
        "counter",
        "Lockstep quanta the coordinator has run.",
    );
    sample(
        &mut out,
        "cuttlesys_cluster_quanta_total",
        &[],
        cluster.quantum() as f64,
    );

    family(
        &mut out,
        "cuttlesys_cluster_migrations_in_flight",
        "gauge",
        "Tenants currently mid-migration between nodes.",
    );
    sample(
        &mut out,
        "cuttlesys_cluster_migrations_in_flight",
        &[],
        snapshot.in_flight as f64,
    );

    let node_labels: Vec<String> = (0..snapshot.nodes.len())
        .map(|i| format!("node=\"n{i}\""))
        .collect();
    family(
        &mut out,
        "cuttlesys_node_up",
        "gauge",
        "Whether each node is serving (1) or declared down (0), with its health state in a label.",
    );
    for (node, health) in node_labels.iter().zip(&snapshot.node_health) {
        let up = if *health == "down" { 0.0 } else { 1.0 };
        let health = format!("health=\"{health}\"");
        sample(&mut out, "cuttlesys_node_up", &[node, &health], up);
    }

    family(
        &mut out,
        "cuttlesys_evacuations_total",
        "counter",
        "Tenants moved off failed or draining nodes (batch re-placements plus LC traffic foldings).",
    );
    sample(
        &mut out,
        "cuttlesys_evacuations_total",
        &[],
        snapshot.evacuations as f64,
    );

    family(
        &mut out,
        "cuttlesys_displaced_tenants",
        "gauge",
        "Evacuated tenants parked without a home, awaiting their backoff retry.",
    );
    sample(
        &mut out,
        "cuttlesys_displaced_tenants",
        &[],
        snapshot.displaced as f64,
    );

    family(
        &mut out,
        "cuttlesys_fleet_degraded",
        "gauge",
        "Whether the fleet is shedding load because lost capacity left tenants unplaceable.",
    );
    sample(
        &mut out,
        "cuttlesys_fleet_degraded",
        &[],
        f64::from(u8::from(snapshot.degraded)),
    );

    family(
        &mut out,
        "cuttlesys_lc_traffic_share",
        "gauge",
        "Fraction of an LC service's reference load routed to each node.",
    );
    for (node, shares) in node_labels.iter().zip(&snapshot.lc_shares) {
        for (lc_index, share) in shares.iter().enumerate() {
            let lc = format!("lc=\"{lc_index}\"");
            sample(&mut out, "cuttlesys_lc_traffic_share", &[node, &lc], *share);
        }
    }

    let nodes: Vec<NodeView> = (node_labels.iter().zip(&snapshot.nodes).enumerate())
        .filter_map(|(i, (label, snapshot))| {
            Some(NodeView {
                label,
                snapshot,
                records: cluster.node(NodeId::from_index(i))?.core().records(),
            })
        })
        .collect();
    node_families(&mut out, &nodes);

    let states: Vec<_> = snapshot.tenants.iter().map(|t| t.state).collect();
    tenants_per_state(&mut out, &states);
    family(
        &mut out,
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per cluster tenant, value 1, node and state in the labels.",
    );
    for t in &snapshot.tenants {
        let labels = format!(
            "tenant=\"{}\",kind=\"{}\",node=\"{}\",state=\"{}\"",
            t.name,
            t.kind,
            t.node,
            t.state.name()
        );
        sample(&mut out, "cuttlesys_tenant_state", &[&labels], 1.0);
    }

    bus_overwrites_total(&mut out, bus_overwrites);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cuttlesys::control::ControlCore;
    use cuttlesys::types::Scenario;

    #[test]
    fn renders_the_exposition_format() {
        let mut core = ControlCore::new(&Scenario::quick_demo());
        core.step_quantum().unwrap();
        let text = render(&core.snapshot(), core.records(), 2);
        assert!(text.contains("# TYPE cuttlesys_quanta_total counter"));
        assert!(text.contains("cuttlesys_quanta_total 1"));
        assert!(text.contains("cuttlesys_stage_wall_ms{stage=\"search\",stat=\"mean\"}"));
        assert!(text.contains("cuttlesys_tenants{state=\"running\"}"));
        assert!(text.contains("cuttlesys_bus_overwrites_total 2"));
        assert!(text.contains("cuttlesys_lc_tail_ms{service=\"xapian\"}"));
        // Every non-comment line is `name value` or `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed sample line: {line}"
            );
        }
    }

    #[test]
    fn renders_per_node_labels_for_a_cluster() {
        use cluster::ClusterScenario;
        let scenario = ClusterScenario::uniform(&Scenario::quick_demo(), 2);
        let mut coordinator = ClusterCoordinator::new(&scenario);
        coordinator.step_quantum().unwrap();
        let text = render_cluster(&coordinator, 3);
        assert!(text.contains("cuttlesys_cluster_nodes 2"));
        assert!(text.contains("cuttlesys_cluster_quanta_total 1"));
        assert!(text.contains("cuttlesys_bus_overwrites_total 3"));
        // Every sample the cluster document carried before it shared the
        // single-node renderer (same scenario, captured at that commit) is
        // still there, verbatim.
        let before = include_str!("../../../tests/golden/metrics_cluster_2node.prom");
        let lines: Vec<&str> = text.lines().collect();
        for line in before.lines().filter(|l| !l.starts_with('#')) {
            assert!(lines.contains(&line), "the cluster document lost: {line}");
        }
        // And the families only the node document used to have are in.
        assert!(text.contains("cuttlesys_cap_watts{node=\"n1\"}"));
        assert!(text.contains("cuttlesys_breaker_open{node=\"n0\"} 0"));
        assert!(
            text.contains("cuttlesys_stage_wall_ms{node=\"n0\",stage=\"search\",stat=\"mean\"}")
        );
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed sample line: {line}"
            );
        }
    }

    /// The bridge that shows there is one renderer: a one-node fleet's
    /// per-node samples are the single-node document's, plus the label.
    #[test]
    fn a_one_node_cluster_renders_the_single_node_samples_under_a_node_label() {
        use cluster::ClusterScenario;
        let scenario = Scenario::quick_demo();
        let mut core = ControlCore::new(&scenario);
        let mut coordinator = ClusterCoordinator::new(&ClusterScenario::uniform(&scenario, 1));
        for _ in 0..3 {
            core.step_quantum().unwrap();
            coordinator.step_quantum().unwrap();
        }
        // Stage timings are wall-clock: compare those samples by key only.
        let key = |line: &str| {
            let (name_and_labels, _value) = line.rsplit_once(' ').unwrap();
            if line.starts_with("cuttlesys_stage_wall_ms") {
                name_and_labels.to_string()
            } else {
                line.to_string()
            }
        };
        // The node families are everything ahead of the tenant table.
        let single = render(&core.snapshot(), core.records(), 0);
        let (node_part, _) = single.split_once("# HELP cuttlesys_tenants ").unwrap();
        let expected: Vec<String> = node_part
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(key)
            .collect();
        // Fleet families that carry a node label of their own.
        let fleet_only = [
            "cuttlesys_node_up",
            "cuttlesys_lc_traffic_share",
            "cuttlesys_tenant_state",
        ];
        let unlabelled: Vec<String> = render_cluster(&coordinator, 0)
            .lines()
            .filter(|l| l.contains("node=\"n0\""))
            .filter(|l| !fleet_only.iter().any(|f| l.starts_with(f)))
            .map(|l| l.replace("{node=\"n0\"}", "").replace("{node=\"n0\",", "{"))
            .map(|l| key(&l))
            .collect();
        assert_eq!(unlabelled, expected);
    }
}
