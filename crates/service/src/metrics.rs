//! Prometheus-style text rendering of the control plane's telemetry.
//!
//! The facade computes nothing new: everything is re-expressed from the
//! per-slice [`SliceRecord`]s (and their [`TelemetrySummary`] aggregate)
//! that the decision loop already produces, plus the tenant table snapshot.
//! Rendering happens in a turn on the plane between quanta, on demand — a
//! scrape costs one string build, never a measurement.
//!
//! The exposition format is the Prometheus text format, version 0.0.4:
//! each metric family is one contiguous group, its `# HELP` and `# TYPE`
//! lines followed by all of its `name{labels} value` samples. One writer,
//! `Exposition::family`, emits every group of both documents, so no family can
//! interleave with another; both documents are lists of its calls. Label
//! values a caller chose (tenant names) are escaped as the format requires.
//! Only counters and gauges are used.

use cluster::{ClusterCoordinator, NodeId};
use cuttlesys::control::ControlSnapshot;
use cuttlesys::lifecycle::LifecycleState;
use cuttlesys::telemetry::{TelemetrySummary, STAGE_NAMES};
use cuttlesys::types::{LcSliceRecord, SliceRecord};
use std::borrow::Cow;
use std::fmt::Write as _;

/// The sample lines of the family being written: each carries its name.
struct Samples<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl Samples<'_> {
    /// One sample. `labels` are label-set fragments (`key="value"`, possibly
    /// empty) joined with commas.
    fn push(&mut self, labels: &[&str], value: f64) {
        // Prometheus has no NaN-free guarantee, but our sources do: guard
        // anyway so a blackout slice cannot poison the whole scrape.
        let value = if value.is_finite() { value } else { 0.0 };
        self.out.push_str(self.name);
        let mut open = '{';
        for fragment in labels.iter().filter(|l| !l.is_empty()) {
            self.out.push(open);
            self.out.push_str(fragment);
            open = ',';
        }
        if open == ',' {
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }
}

/// A `/metrics` document under construction. Its text is written only
/// through [`Exposition::family`], so it is a sequence of family groups.
struct Exposition(String);

impl Exposition {
    /// One metric family as one group: its HELP and TYPE lines, then every
    /// sample `samples` writes.
    fn family(&mut self, name: &str, kind: &str, help: &str, samples: impl FnOnce(&mut Samples)) {
        let out = &mut self.0;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        samples(&mut Samples { out, name });
    }
}

/// The samples of an unlabelled single-valued family.
fn one(value: f64) -> impl FnOnce(&mut Samples) {
    move |s| s.push(&[], value)
}

/// A label value from a caller, escaped as text format 0.0.4 requires:
/// backslash, double quote and newline.
fn escaped(value: &str) -> Cow<'_, str> {
    if value.contains(['\\', '"', '\n']) {
        Cow::Owned(
            value
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n"),
        )
    } else {
        Cow::Borrowed(value)
    }
}

/// One sample per `(label, item)` pair, valued by `value`.
fn per_label<'a, T>(
    items: &'a [(&'a str, T)],
    value: impl Fn(&T) -> f64 + 'a,
) -> impl FnOnce(&mut Samples) + 'a {
    move |s| {
        for (label, item) in items {
            s.push(&[label], value(item));
        }
    }
}

/// One node as the renderer sees it.
struct NodeView<'a> {
    snapshot: &'a ControlSnapshot,
    records: &'a [SliceRecord],
}

/// The per-node families, each one group with one sample (or sample
/// group) per node. Both documents are built on this, so a family added
/// here reaches both. Each node's label is prefixed to the label set of
/// its samples: empty in the single-node document, `node="nK"` in a
/// fleet's.
fn node_families(out: &mut Exposition, nodes: &[(&str, NodeView)]) {
    out.family(
        "cuttlesys_quanta_total",
        "counter",
        "Decision quanta run since the service started.",
        per_label(nodes, |n| n.records.len() as f64),
    );
    out.family(
        "cuttlesys_qos_violations_total",
        "counter",
        "Slices in which any latency-critical tenant violated its QoS.",
        per_label(nodes, |n| {
            n.records.iter().filter(|s| s.qos_violation()).count() as f64
        }),
    );
    out.family(
        "cuttlesys_power_violations_total",
        "counter",
        "Slices whose average chip power exceeded the cap.",
        per_label(nodes, |n| {
            n.records.iter().filter(|s| s.power_violation).count() as f64
        }),
    );
    out.family(
        "cuttlesys_batch_instructions_total",
        "counter",
        "Instructions executed by batch jobs (the paper's throughput metric).",
        per_label(nodes, |n| {
            n.records.iter().map(|s| s.batch_instructions).sum()
        }),
    );

    // Nodes that have run a slice, each with its most recent one.
    let latest: Vec<(&str, &SliceRecord)> = nodes
        .iter()
        .filter_map(|(label, n)| Some((*label, n.records.last()?)))
        .collect();
    out.family(
        "cuttlesys_chip_watts",
        "gauge",
        "Time-weighted average chip power over the most recent slice.",
        per_label(&latest, |last| last.chip_watts),
    );
    out.family(
        "cuttlesys_cap_watts",
        "gauge",
        "Power cap in effect during the most recent slice.",
        per_label(&latest, |last| last.cap_watts),
    );
    if !latest.is_empty() {
        let per_lc = |value: fn(&LcSliceRecord) -> f64| {
            let latest = &latest;
            move |s: &mut Samples| {
                for (node, last) in latest {
                    for lc in &last.lc {
                        s.push(&[node, &format!("service=\"{}\"", lc.service)], value(lc));
                    }
                }
            }
        };
        out.family(
            "cuttlesys_lc_tail_ms",
            "gauge",
            "Per-tenant 99th-percentile latency over the most recent slice.",
            per_lc(|lc| lc.tail_ms),
        );
        out.family(
            "cuttlesys_lc_cores",
            "gauge",
            "Cores held by each latency-critical tenant in the most recent slice.",
            per_lc(|lc| lc.cores as f64),
        );
    }

    // Nodes whose manager reports stage telemetry, each with its summary.
    let summaries: Vec<(&str, TelemetrySummary)> = nodes
        .iter()
        .filter_map(|(label, n)| {
            let telemetry = n.records.iter().filter_map(|s| s.telemetry.as_ref());
            Some((*label, TelemetrySummary::over(telemetry)?))
        })
        .collect();
    if !summaries.is_empty() {
        out.family(
            "cuttlesys_stage_wall_ms",
            "gauge",
            "Manager compute per pipeline stage (ms), mean and max over the run.",
            |s| {
                for (node, t) in &summaries {
                    for (i, stage) in STAGE_NAMES.iter().enumerate() {
                        let stage = format!("stage=\"{stage}\"");
                        for (stat, value) in
                            [("mean", t.mean_wall_ms[i]), ("max", t.max_wall_ms[i])]
                        {
                            s.push(&[node, &stage, &format!("stat=\"{stat}\"")], value);
                        }
                    }
                }
            },
        );
        out.family(
            "cuttlesys_degraded_quanta_total",
            "counter",
            "Quanta served from the degradation ladder in any way.",
            per_label(&summaries, |t| t.degraded_quanta as f64),
        );
        out.family(
            "cuttlesys_samples_rejected_total",
            "counter",
            "Profiling samples rejected by the plausibility gate.",
            per_label(&summaries, |t| t.samples_rejected as f64),
        );
        out.family(
            "cuttlesys_sample_retries_total",
            "counter",
            "Profiling frames re-sampled after a rejection.",
            per_label(&summaries, |t| t.sample_retries as f64),
        );
        out.family(
            "cuttlesys_last_good_replays_total",
            "counter",
            "Quanta that replayed the last-good plan instead of deciding.",
            per_label(&summaries, |t| t.last_good_replays as f64),
        );
        out.family(
            "cuttlesys_safe_mode_quanta_total",
            "counter",
            "Quanta served by the safe-mode allocation (safe-mode residency).",
            per_label(&summaries, |t| t.safe_mode_quanta as f64),
        );
        out.family(
            "cuttlesys_breaker_open_quanta_total",
            "counter",
            "Quanta during which the safe-mode circuit breaker was open.",
            per_label(&summaries, |t| t.breaker_open_quanta as f64),
        );
    }

    out.family(
        "cuttlesys_breaker_open",
        "gauge",
        "Whether the safe-mode circuit breaker is currently open.",
        per_label(nodes, |n| f64::from(u8::from(n.snapshot.breaker_open))),
    );
}

/// The `cuttlesys_tenants` family: tenants per lifecycle state name, over
/// the states of whichever tenant table the document describes. A node's
/// table holds only [`LifecycleState::ALL`]; `relocating` counts the
/// cluster view's tenants between nodes.
fn tenants_per_state(out: &mut Exposition, states: &[LifecycleState]) {
    out.family(
        "cuttlesys_tenants",
        "gauge",
        "Tenants per lifecycle state.",
        |s| {
            for name in [
                "registering",
                "admitted",
                "running",
                "relocating",
                "draining",
                "retired",
            ] {
                let n = states.iter().filter(|s| s.name() == name).count();
                s.push(&[&format!("state=\"{name}\"")], n as f64);
            }
        },
    );
}

/// The `cuttlesys_bus_overwrites_total` family, last in both documents.
fn bus_overwrites_total(out: &mut Exposition, bus_overwrites: u64) {
    out.family(
        "cuttlesys_bus_overwrites_total",
        "counter",
        "Events overwritten in the broadcast ring before delivery.",
        one(bus_overwrites as f64),
    );
}

/// Renders the full `/metrics` document of one node: the per-node families
/// without a node label, the tenant table, the bus.
pub fn render(snapshot: &ControlSnapshot, records: &[SliceRecord], bus_overwrites: u64) -> String {
    let mut out = Exposition(String::with_capacity(4096));
    node_families(&mut out, &[("", NodeView { snapshot, records })]);

    let states: Vec<_> = snapshot.tenants.iter().map(|t| t.state).collect();
    tenants_per_state(&mut out, &states);
    out.family(
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per tenant, value 1, state carried in the label.",
        |s| {
            for t in &snapshot.tenants {
                let labels = format!(
                    "tenant=\"{}\",kind=\"{}\",state=\"{}\"",
                    escaped(&t.name),
                    t.kind,
                    t.state.name()
                );
                s.push(&[&labels], 1.0);
            }
        },
    );
    bus_overwrites_total(&mut out, bus_overwrites);
    out.0
}

/// Renders the cluster `/metrics` document: the fleet-level families, then
/// every per-node family of the single-node document with each sample
/// under a `node="nK"` label, then the cluster tenant table and the bus.
pub fn render_cluster(cluster: &ClusterCoordinator, bus_overwrites: u64) -> String {
    let snapshot = cluster.snapshot();
    let mut out = Exposition(String::with_capacity(4096 * snapshot.nodes.len().max(1)));
    out.family(
        "cuttlesys_cluster_nodes",
        "gauge",
        "Nodes under this coordinator.",
        one(cluster.num_nodes() as f64),
    );
    out.family(
        "cuttlesys_cluster_quanta_total",
        "counter",
        "Lockstep quanta the coordinator has run.",
        one(cluster.quantum() as f64),
    );
    out.family(
        "cuttlesys_cluster_migrations_in_flight",
        "gauge",
        "Tenants currently mid-migration between nodes.",
        one(snapshot.in_flight as f64),
    );

    let node_labels: Vec<String> = (0..snapshot.nodes.len())
        .map(|i| format!("node=\"n{i}\""))
        .collect();
    out.family(
        "cuttlesys_node_up",
        "gauge",
        "Whether each node is serving (1) or declared down (0), with its health state in a label.",
        |s| {
            for (node, health) in node_labels.iter().zip(&snapshot.node_health) {
                let up = if *health == "down" { 0.0 } else { 1.0 };
                s.push(&[node, &format!("health=\"{health}\"")], up);
            }
        },
    );
    out.family(
        "cuttlesys_evacuations_total",
        "counter",
        "Tenants moved off failed or draining nodes (batch re-placements plus LC traffic foldings).",
        one(snapshot.evacuations as f64),
    );
    out.family(
        "cuttlesys_displaced_tenants",
        "gauge",
        "Evacuated tenants parked without a home, awaiting their backoff retry.",
        one(snapshot.displaced as f64),
    );
    out.family(
        "cuttlesys_fleet_degraded",
        "gauge",
        "Whether the fleet is shedding load because lost capacity left tenants unplaceable.",
        one(f64::from(u8::from(snapshot.degraded))),
    );
    out.family(
        "cuttlesys_lc_traffic_share",
        "gauge",
        "Fraction of an LC service's reference load routed to each node.",
        |s| {
            for (node, shares) in node_labels.iter().zip(&snapshot.lc_shares) {
                for (lc_index, share) in shares.iter().enumerate() {
                    s.push(&[node, &format!("lc=\"{lc_index}\"")], *share);
                }
            }
        },
    );

    let nodes: Vec<(&str, NodeView)> = (node_labels.iter().zip(&snapshot.nodes).enumerate())
        .filter_map(|(i, (label, snapshot))| {
            let records = cluster.node(NodeId::from_index(i))?.core().records();
            Some((label.as_str(), NodeView { snapshot, records }))
        })
        .collect();
    node_families(&mut out, &nodes);

    let states: Vec<_> = snapshot.tenants.iter().map(|t| t.state).collect();
    tenants_per_state(&mut out, &states);
    out.family(
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per cluster tenant, value 1, node and state in the labels.",
        |s| {
            for t in &snapshot.tenants {
                let labels = format!(
                    "tenant=\"{}\",kind=\"{}\",node=\"{}\",state=\"{}\"",
                    escaped(&t.name),
                    t.kind,
                    t.node,
                    t.state.name()
                );
                s.push(&[&labels], 1.0);
            }
        },
    );
    bus_overwrites_total(&mut out, bus_overwrites);
    out.0
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use cuttlesys::control::ControlCore;
    use cuttlesys::types::Scenario;

    #[test]
    fn renders_the_exposition_format() {
        // Lossy sensors, so the rejection counter has samples to count.
        let plan = cuttlesys::faults::FaultPlan::lossy_sensors(7);
        let mut core = ControlCore::new(&Scenario::quick_demo().with_faults(plan));
        core.step_quantum().unwrap();
        let text = render(&core.snapshot(), core.records(), 2);
        let rejected: Option<f64> = text
            .lines()
            .find_map(|l| l.strip_prefix("cuttlesys_samples_rejected_total "))
            .and_then(|v| v.parse().ok());
        assert!(
            rejected.is_some_and(|r| r > 0.0),
            "lossy sensors left no rejected sample: {rejected:?}"
        );
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
        // The whole document is pinned byte for byte in
        // `tests/control_plane.rs`; here, that the per-node families of the
        // node document carry the node label.
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
