//! `perf-ledger compare a.json b.json`: two run sets (or two single runs)
//! of one seed and size, metric by metric, each workload in its own row,
//! every ratio with its base. The metrics of [`COMPARE_BOUNDS`] get a
//! verdict; the other per-layer metrics are shown, not judged. Anything one
//! side has and the other lacks counts against the comparison.

use std::fmt::Write as _;

use util::JsonValue;

use crate::metrics::{registry, Allow, Better, COMPARE_BOUNDS};

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound, and the runs do not interleave.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides'
    /// runs interleave: this pair of run sets cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: the median and the range over its reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over repetitions.
    pub value: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
}

/// Judges `b` against `a` (the base). How much worse `b` is — as a share
/// of `a`'s median under [`Allow::Rel`], in the metric's unit under
/// [`Allow::Abs`] — is returned alongside.
pub fn judge(a: Side, b: Side, better: Better, allow: Allow) -> (Verdict, f64) {
    let (bound, scale_a, scale_b) = match allow {
        Allow::Rel(bound) => (bound, a.value.abs(), b.value.abs()),
        Allow::Abs(bound) => (bound, 1.0, 1.0),
    };
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / scale_a,
        Better::Higher => (a.value - b.value) / scale_a,
    };
    let spread = ((a.max - a.min) / scale_a).max((b.max - b.min) / scale_b);
    let interleave = a.min <= b.max && b.min <= a.max;
    let verdict = if spread > bound && interleave {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// The direction and bound `compare` holds `name` to, if it judges it.
fn bound_of(name: &str) -> Option<(Better, Allow)> {
    let (_, allow) = COMPARE_BOUNDS.iter().find(|(n, _)| *n == name)?;
    let r = registry();
    let def = r
        .end_to_end
        .iter()
        .chain(&r.per_layer)
        .find(|d| d.name == name)?;
    Some((def.better, *allow))
}

/// Simulated statistics: a function of the decisions alone, so two runs
/// with one record digest must read the same.
const SIM: [&str; 3] = [
    "qos_violation_share",
    "power_violation_share",
    "batch_ginstr_per_sim_s",
];

/// The runs of a document: a run set's `runs`, or the document itself.
fn runs(doc: &JsonValue) -> Vec<&JsonValue> {
    match doc.get("runs").and_then(JsonValue::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

/// What identifies a run within its document.
fn key(run: &JsonValue) -> (Option<&str>, Option<bool>) {
    (
        run.get("workload").and_then(JsonValue::as_str),
        run.get("trace").and_then(JsonValue::as_bool),
    )
}

fn label(run: &JsonValue) -> String {
    let (workload, trace) = key(run);
    format!(
        "{}{}",
        workload.unwrap_or("?"),
        if trace == Some(true) { " (traced)" } else { "" }
    )
}

fn side(metric: &JsonValue) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    Some(Side {
        value,
        min: metric
            .get("min")
            .and_then(JsonValue::as_f64)
            .unwrap_or(value),
        max: metric
            .get("max")
            .and_then(JsonValue::as_f64)
            .unwrap_or(value),
    })
}

/// Compares two documents; returns the report and whether the comparison
/// failed: a judged metric is `worse`, a run or a metric exists on one side
/// only, the two sides ran different inputs, or a simulated statistic
/// differs under one record digest.
pub fn compare(a: &JsonValue, b: &JsonValue) -> (String, bool) {
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "{:<23} {:<34} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b vs a", "bound"
    );
    for run_b in runs(b) {
        if !runs(a).iter().any(|r| key(r) == key(run_b)) {
            let _ = writeln!(out, "{:<23} run missing in a: worse", label(run_b));
            failed = true;
        }
    }
    for run_a in runs(a) {
        let workload = label(run_a);
        let Some(run_b) = runs(b).into_iter().find(|r| key(r) == key(run_a)) else {
            let _ = writeln!(out, "{workload:<23} run missing in b: worse");
            failed = true;
            continue;
        };
        let digest = |r: &JsonValue| {
            r.get("digest")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        let same_inputs = ["seed", "timed_quanta"].iter().all(|k| {
            run_a.get(k).map(JsonValue::to_string) == run_b.get(k).map(JsonValue::to_string)
        });
        let same_decisions = same_inputs && digest(run_a) == digest(run_b);
        failed |= !same_inputs;
        let _ = writeln!(
            out,
            "{workload:<23} {:<34} {:>13} {:>13} {:>9} {:>7}  {}",
            "record digest",
            digest(run_a).unwrap_or_default(),
            digest(run_b).unwrap_or_default(),
            "",
            "",
            if !same_inputs {
                "different seed or size: not comparable"
            } else if same_decisions {
                "same decisions"
            } else {
                "decisions differ"
            }
        );
        let metrics_of = |r: &'_ JsonValue| -> Vec<(String, JsonValue)> {
            r.get("metrics")
                .and_then(JsonValue::entries)
                .map(<[_]>::to_vec)
                .unwrap_or_default()
        };
        let (metrics_a, metrics_b) = (metrics_of(run_a), metrics_of(run_b));
        for (name, _) in metrics_b.iter() {
            if !metrics_a.iter().any(|(n, _)| n == name) {
                let _ = writeln!(out, "{workload:<23} {name:<34} missing in a: worse");
                failed = true;
            }
        }
        for (name, metric_a) in &metrics_a {
            let Some((_, metric_b)) = metrics_b.iter().find(|(n, _)| n == name) else {
                let _ = writeln!(out, "{workload:<23} {name:<34} missing in b: worse");
                failed = true;
                continue;
            };
            let (sa, sb) = match (side(metric_a), side(metric_b)) {
                (Some(sa), Some(sb)) => (sa, sb),
                // Absent on both sides: the workload does not have it.
                (None, None) => continue,
                (sa, _) => {
                    let lacking = if sa.is_some() { "b" } else { "a" };
                    let _ = writeln!(
                        out,
                        "{workload:<23} {name:<34} no value in {lacking}: worse"
                    );
                    failed = true;
                    continue;
                }
            };
            let delta = if sa.value != 0.0 {
                format!("{:+.2}%", 100.0 * (sb.value - sa.value) / sa.value.abs())
            } else {
                format!("{:+.4}", sb.value - sa.value)
            };
            let (bound, verdict) = match bound_of(name).filter(|_| same_inputs) {
                _ if same_decisions && SIM.contains(&name.as_str()) && sa.value != sb.value => {
                    failed = true;
                    (String::new(), "worse: differs under one digest")
                }
                Some((better, allow)) => {
                    let (verdict, _) = judge(sa, sb, better, allow);
                    failed |= verdict == Verdict::Worse;
                    let bound = match allow {
                        Allow::Rel(bound) => format!("{:.0}%", 100.0 * bound),
                        Allow::Abs(bound) => format!("{bound:+}"),
                    };
                    (bound, verdict.as_str())
                }
                None => (String::new(), ""),
            };
            let _ = writeln!(
                out,
                "{workload:<23} {name:<34} {:>13.4} {:>13.4} {delta:>9} {bound:>7}  {verdict}",
                sa.value, sb.value
            );
        }
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_direction() {
        let tenth = Allow::Rel(0.10);
        // Tight runs, 5 % slower, 10 % bound: ok.
        assert_eq!(
            judge(s(8.0, 7.9, 8.1), s(8.4, 8.3, 8.5), Better::Lower, tenth).0,
            Verdict::Ok
        );
        // Tight runs, 15 % slower: worse.
        let (verdict, by) = judge(s(8.0, 7.9, 8.1), s(9.2, 9.1, 9.3), Better::Lower, tenth);
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 0.15).abs() < 1e-12);
        // Noisy interleaving runs: cannot tell, whichever way the medians lie.
        assert_eq!(
            judge(s(8.0, 7.0, 9.5), s(9.2, 7.5, 9.9), Better::Lower, tenth).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(8.0, 7.0, 9.5), s(8.0, 7.5, 9.9), Better::Lower, tenth).0,
            Verdict::Unresolved
        );
        // Noisy but every run of b beats every run of a: resolved.
        assert_eq!(
            judge(s(8.0, 7.0, 9.5), s(5.0, 4.0, 6.0), Better::Lower, tenth).0,
            Verdict::Ok
        );
        // Higher-is-better flips the sign.
        let at = |v: f64| s(v, v - 1.0, v + 1.0);
        assert_eq!(
            judge(at(100.0), at(85.0), Better::Higher, tenth).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(at(100.0), at(120.0), Better::Higher, tenth).0,
            Verdict::Ok
        );
    }

    #[test]
    fn absolute_bounds_work_from_zero() {
        let exact = |v: f64| s(v, v, v);
        let none = Allow::Abs(0.0);
        assert_eq!(
            judge(exact(0.0), exact(0.0), Better::Lower, none).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(exact(0.0), exact(0.001), Better::Lower, none).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(exact(0.002), exact(0.0), Better::Lower, none).0,
            Verdict::Ok
        );
        let some = Allow::Abs(0.005);
        let (verdict, by) = judge(exact(0.038), exact(0.042), Better::Lower, some);
        assert_eq!(verdict, Verdict::Ok);
        assert!((by - 0.004).abs() < 1e-12);
        assert_eq!(
            judge(exact(0.038), exact(0.044), Better::Lower, some).0,
            Verdict::Worse
        );
    }

    /// A one-run document: `metrics` is the inside of the metrics object.
    fn doc(seed: u64, digest: &str, metrics: &str) -> JsonValue {
        util::json::parse(&format!(
            "{{\"runs\":[{{\"workload\":\"node_steady\",\"trace\":false,\"seed\":\"{seed}\",             \"timed_quanta\":1200,\"digest\":\"{digest}\",\"metrics\":{{{metrics}}}}}]}}"
        ))
        .unwrap()
    }

    fn metric(name: &str, value: &str) -> String {
        format!("\"{name}\":{{\"value\":{value},\"min\":{value},\"max\":{value}}}")
    }

    #[test]
    fn compare_reports_each_workload_and_flags_a_regression() {
        let timing = |ms: &str| {
            format!(
                "{},{}",
                metric("quantum_ms_p50", ms),
                metric("core.decide_ms_p50", "1.0")
            )
        };
        let (text, failed) = compare(&doc(7, "aa", &timing("8.0")), &doc(7, "aa", &timing("8.2")));
        assert!(!failed, "{text}");
        assert!(text.contains("same decisions") && text.contains("+2.50%") && text.contains("ok"));
        let (text, failed) = compare(
            &doc(7, "aa", &timing("8.0")),
            &doc(7, "bb", &timing("10.4")),
        );
        assert!(failed);
        assert!(text.contains("decisions differ") && text.contains("worse"));
        // Another seed is another experiment.
        let (text, failed) = compare(
            &doc(7, "aa", &timing("8.0")),
            &doc(11, "bb", &timing("8.0")),
        );
        assert!(failed && text.contains("not comparable"), "{text}");
    }

    #[test]
    fn what_one_side_lacks_counts_against_the_comparison() {
        let full = format!(
            "{},{}",
            metric("quantum_ms_p50", "8.0"),
            metric("service.scrape_ms_p50", "null")
        );
        // A metric neither side has a value for is not on this workload.
        assert!(!compare(&doc(7, "aa", &full), &doc(7, "aa", &full)).1);
        let gone = metric("service.scrape_ms_p50", "null");
        let (text, failed) = compare(&doc(7, "aa", &full), &doc(7, "aa", &gone));
        assert!(failed && text.contains("quantum_ms_p50") && text.contains("missing in b"));
        assert!(compare(&doc(7, "aa", &gone), &doc(7, "aa", &full)).1);
        let nan = format!(
            "{},{}",
            metric("quantum_ms_p50", "null"),
            metric("service.scrape_ms_p50", "null")
        );
        let (text, failed) = compare(&doc(7, "aa", &full), &doc(7, "aa", &nan));
        assert!(failed && text.contains("no value in b"), "{text}");
        // A whole run on one side only.
        let empty = util::json::parse("{\"runs\":[]}").unwrap();
        let (text, failed) = compare(&doc(7, "aa", &full), &empty);
        assert!(failed && text.contains("run missing in b"));
        assert!(compare(&empty, &doc(7, "aa", &full)).1);
    }

    #[test]
    fn simulated_and_failure_metrics_are_held_to_absolute_bounds() {
        let sim = |failed: &str, qos: &str, ginstr: &str| {
            format!(
                "{},{},{}",
                metric("failed_share", failed),
                metric("qos_violation_share", qos),
                metric("batch_ginstr_per_sim_s", ginstr)
            )
        };
        let base = doc(7, "aa", &sim("0", "0.038", "65.4"));
        let verdict = |b: &JsonValue| compare(&base, b);
        assert!(!verdict(&doc(7, "bb", &sim("0", "0.042", "65.0"))).1);
        // One failed operation in a thousand is one too many.
        assert!(verdict(&doc(7, "bb", &sim("0.001", "0.038", "65.4"))).1);
        // QoS violated in 0.6 % more of the slices.
        assert!(verdict(&doc(7, "bb", &sim("0", "0.044", "65.4"))).1);
        // 1.2 % less simulated throughput.
        assert!(verdict(&doc(7, "bb", &sim("0", "0.038", "64.6"))).1);
        // The same decisions cannot simulate differently.
        let (text, failed) = verdict(&doc(7, "aa", &sim("0", "0.039", "65.4")));
        assert!(
            failed && text.contains("differs under one digest"),
            "{text}"
        );
    }
}
