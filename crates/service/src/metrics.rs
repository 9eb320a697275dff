//! Prometheus-style text rendering of the control plane's telemetry.
//!
//! The facade computes nothing new: everything is re-expressed from the
//! per-slice [`SliceRecord`]s (and their [`TelemetrySummary`] aggregate)
//! that the decision loop already produces, plus the tenant table snapshot.
//! Rendering happens on the reactor thread between quanta, on demand — a
//! scrape costs one string build, never a measurement.
//!
//! The exposition format is the Prometheus text format, version 0.0.4:
//! `# HELP` / `# TYPE` comment pairs followed by `name{labels} value`
//! samples. Only counters and gauges are used.

use cluster::ClusterCoordinator;
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

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    // Prometheus has no NaN-free guarantee, but our sources do: guard
    // anyway so a blackout slice cannot poison the whole scrape.
    let value = if value.is_finite() { value } else { 0.0 };
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Renders the full `/metrics` document.
pub fn render(snapshot: &ControlSnapshot, records: &[SliceRecord], bus_overwrites: u64) -> String {
    let mut out = String::with_capacity(4096);

    family(
        &mut out,
        "cuttlesys_quanta_total",
        "counter",
        "Decision quanta run since the service started.",
    );
    sample(&mut out, "cuttlesys_quanta_total", "", records.len() as f64);

    family(
        &mut out,
        "cuttlesys_qos_violations_total",
        "counter",
        "Slices in which any latency-critical tenant violated its QoS.",
    );
    sample(
        &mut out,
        "cuttlesys_qos_violations_total",
        "",
        records.iter().filter(|s| s.qos_violation()).count() as f64,
    );

    family(
        &mut out,
        "cuttlesys_power_violations_total",
        "counter",
        "Slices whose average chip power exceeded the cap.",
    );
    sample(
        &mut out,
        "cuttlesys_power_violations_total",
        "",
        records.iter().filter(|s| s.power_violation).count() as f64,
    );

    family(
        &mut out,
        "cuttlesys_batch_instructions_total",
        "counter",
        "Instructions executed by batch jobs (the paper's throughput metric).",
    );
    sample(
        &mut out,
        "cuttlesys_batch_instructions_total",
        "",
        records.iter().map(|s| s.batch_instructions).sum(),
    );

    family(
        &mut out,
        "cuttlesys_chip_watts",
        "gauge",
        "Time-weighted average chip power over the most recent slice.",
    );
    family(
        &mut out,
        "cuttlesys_cap_watts",
        "gauge",
        "Power cap in effect during the most recent slice.",
    );
    if let Some(last) = records.last() {
        sample(&mut out, "cuttlesys_chip_watts", "", last.chip_watts);
        sample(&mut out, "cuttlesys_cap_watts", "", last.cap_watts);

        family(
            &mut out,
            "cuttlesys_lc_tail_ms",
            "gauge",
            "Per-tenant 99th-percentile latency over the most recent slice.",
        );
        family(
            &mut out,
            "cuttlesys_lc_cores",
            "gauge",
            "Cores held by each latency-critical tenant in the most recent slice.",
        );
        for lc in &last.lc {
            let labels = format!("service=\"{}\"", lc.service);
            sample(&mut out, "cuttlesys_lc_tail_ms", &labels, lc.tail_ms);
            sample(&mut out, "cuttlesys_lc_cores", &labels, lc.cores as f64);
        }
    }

    let summary = TelemetrySummary::over(records.iter().filter_map(|s| s.telemetry.as_ref()));
    if let Some(t) = summary {
        family(
            &mut out,
            "cuttlesys_stage_wall_ms",
            "gauge",
            "Manager compute per pipeline stage (ms), mean and max over the run.",
        );
        for (i, stage) in STAGE_NAMES.iter().enumerate() {
            sample(
                &mut out,
                "cuttlesys_stage_wall_ms",
                &format!("stage=\"{stage}\",stat=\"mean\""),
                t.mean_wall_ms[i],
            );
            sample(
                &mut out,
                "cuttlesys_stage_wall_ms",
                &format!("stage=\"{stage}\",stat=\"max\""),
                t.max_wall_ms[i],
            );
        }

        family(
            &mut out,
            "cuttlesys_degraded_quanta_total",
            "counter",
            "Quanta served from the degradation ladder in any way.",
        );
        sample(
            &mut out,
            "cuttlesys_degraded_quanta_total",
            "",
            t.degraded_quanta as f64,
        );

        family(
            &mut out,
            "cuttlesys_samples_rejected_total",
            "counter",
            "Profiling samples rejected by the plausibility gate.",
        );
        sample(
            &mut out,
            "cuttlesys_samples_rejected_total",
            "",
            t.samples_rejected as f64,
        );

        family(
            &mut out,
            "cuttlesys_sample_retries_total",
            "counter",
            "Profiling frames re-sampled after a rejection.",
        );
        sample(
            &mut out,
            "cuttlesys_sample_retries_total",
            "",
            t.sample_retries as f64,
        );

        family(
            &mut out,
            "cuttlesys_last_good_replays_total",
            "counter",
            "Quanta that replayed the last-good plan instead of deciding.",
        );
        sample(
            &mut out,
            "cuttlesys_last_good_replays_total",
            "",
            t.last_good_replays as f64,
        );

        family(
            &mut out,
            "cuttlesys_safe_mode_quanta_total",
            "counter",
            "Quanta served by the safe-mode allocation (safe-mode residency).",
        );
        sample(
            &mut out,
            "cuttlesys_safe_mode_quanta_total",
            "",
            t.safe_mode_quanta as f64,
        );

        family(
            &mut out,
            "cuttlesys_breaker_open_quanta_total",
            "counter",
            "Quanta during which the safe-mode circuit breaker was open.",
        );
        sample(
            &mut out,
            "cuttlesys_breaker_open_quanta_total",
            "",
            t.breaker_open_quanta as f64,
        );
    }

    family(
        &mut out,
        "cuttlesys_breaker_open",
        "gauge",
        "Whether the safe-mode circuit breaker is currently open.",
    );
    sample(
        &mut out,
        "cuttlesys_breaker_open",
        "",
        f64::from(u8::from(snapshot.breaker_open)),
    );

    family(
        &mut out,
        "cuttlesys_tenants",
        "gauge",
        "Tenants per lifecycle state.",
    );
    for state in LifecycleState::ALL {
        let n = snapshot
            .tenants
            .iter()
            .filter(|t| t.state.same_kind(state))
            .count();
        sample(
            &mut out,
            "cuttlesys_tenants",
            &format!("state=\"{}\"", state.name()),
            n as f64,
        );
    }

    family(
        &mut out,
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per tenant, value 1, state carried in the label.",
    );
    for t in &snapshot.tenants {
        sample(
            &mut out,
            "cuttlesys_tenant_state",
            &format!(
                "tenant=\"{}\",kind=\"{}\",state=\"{}\"",
                t.name,
                t.kind,
                t.state.name()
            ),
            1.0,
        );
    }

    family(
        &mut out,
        "cuttlesys_bus_overwrites_total",
        "counter",
        "Events overwritten in the broadcast ring before delivery.",
    );
    sample(
        &mut out,
        "cuttlesys_bus_overwrites_total",
        "",
        bus_overwrites as f64,
    );

    out
}

/// Renders the cluster `/metrics` document: fleet-level counters plus the
/// same per-node families the single-node document exposes, each sample
/// tagged with a `node="nK"` label. The single-node renderer above is
/// untouched — its output stays byte-identical for existing scrapers.
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
        "",
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
        "",
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
        "",
        snapshot.in_flight as f64,
    );

    family(
        &mut out,
        "cuttlesys_node_up",
        "gauge",
        "Whether each node is serving (1) or declared down (0), with its health state in a label.",
    );
    for (i, health) in snapshot.node_health.iter().enumerate() {
        let up = if *health == "down" { 0.0 } else { 1.0 };
        sample(
            &mut out,
            "cuttlesys_node_up",
            &format!("node=\"n{i}\",health=\"{health}\""),
            up,
        );
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
        "",
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
        "",
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
        "",
        f64::from(u8::from(snapshot.degraded)),
    );

    family(
        &mut out,
        "cuttlesys_quanta_total",
        "counter",
        "Decision quanta run per node.",
    );
    family(
        &mut out,
        "cuttlesys_qos_violations_total",
        "counter",
        "Slices in which any latency-critical tenant violated its QoS, per node.",
    );
    family(
        &mut out,
        "cuttlesys_batch_instructions_total",
        "counter",
        "Instructions executed by batch jobs, per node.",
    );
    let agents: Vec<_> = (0..cluster.num_nodes())
        .filter_map(|i| cluster.node(cluster::NodeId::from_index(i)))
        .collect();
    for agent in &agents {
        let node = format!("node=\"{}\"", agent.id());
        let records = agent.core().records();
        sample(
            &mut out,
            "cuttlesys_quanta_total",
            &node,
            records.len() as f64,
        );
        sample(
            &mut out,
            "cuttlesys_qos_violations_total",
            &node,
            records.iter().filter(|s| s.qos_violation()).count() as f64,
        );
        sample(
            &mut out,
            "cuttlesys_batch_instructions_total",
            &node,
            records.iter().map(|s| s.batch_instructions).sum(),
        );
    }

    family(
        &mut out,
        "cuttlesys_chip_watts",
        "gauge",
        "Time-weighted average chip power over each node's most recent slice.",
    );
    family(
        &mut out,
        "cuttlesys_lc_tail_ms",
        "gauge",
        "Per-tenant 99th-percentile latency over each node's most recent slice.",
    );
    family(
        &mut out,
        "cuttlesys_lc_cores",
        "gauge",
        "Cores held by each latency-critical tenant in each node's most recent slice.",
    );
    for agent in &agents {
        let node = format!("node=\"{}\"", agent.id());
        if let Some(last) = agent.core().records().last() {
            sample(&mut out, "cuttlesys_chip_watts", &node, last.chip_watts);
            for lc in &last.lc {
                let labels = format!("{node},service=\"{}\"", lc.service);
                sample(&mut out, "cuttlesys_lc_tail_ms", &labels, lc.tail_ms);
                sample(&mut out, "cuttlesys_lc_cores", &labels, lc.cores as f64);
            }
        }
    }

    family(
        &mut out,
        "cuttlesys_lc_traffic_share",
        "gauge",
        "Fraction of an LC service's reference load routed to each node.",
    );
    for (i, shares) in snapshot.lc_shares.iter().enumerate() {
        for (lc_index, share) in shares.iter().enumerate() {
            sample(
                &mut out,
                "cuttlesys_lc_traffic_share",
                &format!("node=\"n{i}\",lc=\"{lc_index}\""),
                *share,
            );
        }
    }

    family(
        &mut out,
        "cuttlesys_tenants",
        "gauge",
        "Cluster tenants per lifecycle state.",
    );
    for state in LifecycleState::ALL {
        let n = snapshot
            .tenants
            .iter()
            .filter(|t| t.state.same_kind(state))
            .count();
        sample(
            &mut out,
            "cuttlesys_tenants",
            &format!("state=\"{}\"", state.name()),
            n as f64,
        );
    }

    family(
        &mut out,
        "cuttlesys_tenant_state",
        "gauge",
        "One sample per cluster tenant, value 1, node and state in the labels.",
    );
    for t in &snapshot.tenants {
        sample(
            &mut out,
            "cuttlesys_tenant_state",
            &format!(
                "tenant=\"{}\",kind=\"{}\",node=\"{}\",state=\"{}\"",
                t.name,
                t.kind,
                t.node,
                t.state.name()
            ),
            1.0,
        );
    }

    family(
        &mut out,
        "cuttlesys_bus_overwrites_total",
        "counter",
        "Events overwritten in the broadcast ring before delivery.",
    );
    sample(
        &mut out,
        "cuttlesys_bus_overwrites_total",
        "",
        bus_overwrites as f64,
    );

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
        assert!(text.contains("cuttlesys_quanta_total{node=\"n0\"} 1"));
        assert!(text.contains("cuttlesys_quanta_total{node=\"n1\"} 1"));
        assert!(text.contains("cuttlesys_lc_tail_ms{node=\"n0\",service=\"xapian\"}"));
        assert!(text.contains("cuttlesys_lc_traffic_share{node=\"n1\",lc=\"0\"} 1"));
        assert!(text.contains("cuttlesys_bus_overwrites_total 3"));
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed sample line: {line}"
            );
        }
    }
}
