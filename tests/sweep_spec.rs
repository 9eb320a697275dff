//! The sweep spec loader's hard-error contract and the detector layer's
//! properties.
//!
//! The loader half pins *exact* error strings: a typo in a scenario file
//! must fail loudly, at load time, listing the valid vocabulary — never
//! silently shrink the sweep. The detector half is a seeded property
//! loop (the repo's stand-in for proptest): streaks are monotone, cliffs
//! never fire on constant series, and the residency detector agrees
//! with the metrics the core runtime reports.

use cuttlesys::types::TIMESLICE_MS;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sweep::detectors::{max_adjacent_drop, max_true_streak, residency};
use sweep::spec::MAX_NODE_QUANTA;
use sweep::{load_spec, LoadShape, SweepError};
use workloads::loadgen::LoadPattern;

/// Cases per property; inputs are drawn from a per-property fixed seed.
const CASES: usize = 256;

fn rng_for(property: &str) -> StdRng {
    let tag = property
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    StdRng::seed_from_u64(0xC0FFEE ^ tag)
}

/// A minimal valid scenario with one injected extra top-level line.
fn scenario_with(extra: &str) -> String {
    format!(
        r#"{{
  "name": "t",
  "quanta": 2,
  "seeds": [1],
  "tenants": {{"lc": [{{"service": "xapian"}}]}}{}{}
}}"#,
        if extra.is_empty() { "" } else { ",\n  " },
        extra
    )
}

fn load_err(text: &str) -> String {
    match load_spec(text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("scenario unexpectedly loaded: {text}"),
    }
}

#[test]
fn a_minimal_scenario_loads_with_documented_defaults() {
    let spec = load_spec(&scenario_with("")).expect("minimal scenario loads");
    assert_eq!(spec.name, "t");
    assert_eq!(spec.quanta, 2);
    assert_eq!(spec.seeds, vec![1]);
    assert_eq!(spec.caps, vec![0.7]);
    assert_eq!(spec.fault_profiles, vec!["clean"]);
    assert_eq!(spec.fleet_fault_profiles, vec!["clean"]);
    assert_eq!(spec.load_shapes, vec![sweep::LoadShape::Steady]);
    assert!((spec.noise - 0.03).abs() < 1e-12);
    assert!(spec.phases);
    assert_eq!(spec.topology, sweep::Topology::SingleNode);
}

#[test]
fn unknown_top_level_field_is_a_hard_error_listing_valid_fields() {
    let text = scenario_with(r#""quantums": 5"#);
    assert_eq!(
        load_err(&text),
        "unknown scenario field \"quantums\"; valid fields are: \
         caps, fault_profiles, fleet_fault_profiles, load_shapes, \
         name, noise, phases, quanta, seeds, tenants, topology"
    );
}

#[test]
fn retired_override_and_detector_sections_are_unknown_fields() {
    // Runs use the runtime's defaults and the detectors' constants; a file
    // still carrying either section must not load as if it were obeyed.
    for (field, body) in [
        ("overrides", r#"{"resilience.deadline_ms": 0}"#),
        ("detectors", r#"{"qos_violation_streak": 3}"#),
    ] {
        let text = scenario_with(&format!(r#""{field}": {body}"#));
        assert!(
            load_err(&text).starts_with(&format!("unknown scenario field \"{field}\"; ")),
            "{field}"
        );
    }
}

#[test]
fn unknown_fault_profile_is_a_hard_error_listing_profiles() {
    let text = scenario_with(r#""fault_profiles": ["clean", "noisy"]"#);
    assert_eq!(
        load_err(&text),
        "unknown fault profile \"noisy\"; valid profiles are: \
         clean, flaky-reconfig, lossy-sensors"
    );
}

#[test]
fn unknown_service_is_a_hard_error_listing_services() {
    let text = r#"{"name":"t","quanta":1,"seeds":[1],
        "tenants":{"lc":[{"service":"memcached"}]}}"#;
    assert_eq!(
        load_err(text),
        "unknown service \"memcached\"; valid services are: \
         imgdnn, masstree, moses, silo, xapian"
    );
}

#[test]
fn unknown_load_shape_is_a_hard_error_listing_shapes() {
    let text = scenario_with(r#""load_shapes": ["sawtooth"]"#);
    assert_eq!(
        load_err(&text),
        "unknown load shape \"sawtooth\"; valid shapes are: \
         diurnal, flash-crowd, ramp, square-wave, steady"
    );
}

#[test]
fn fleet_profiles_without_a_cluster_topology_are_rejected() {
    let text = scenario_with(r#""fleet_fault_profiles": ["node-crash"]"#);
    assert_eq!(
        load_err(&text),
        "\"fleet_fault_profiles\" requires a cluster topology"
    );
}

#[test]
fn names_that_are_not_one_plain_path_component_are_rejected() {
    // The name is the default output directory `runs/<name>`: none of
    // these may lead it anywhere else.
    for name in ["", ".", "..", "../x", "/abs/dir", "a/b", "smoke/", r"a\b"] {
        let quoted = name.replace('\\', r"\\");
        let text = scenario_with("").replace(r#""name": "t""#, &format!(r#""name": "{quoted}""#));
        assert_eq!(
            load_err(&text),
            format!("scenario field \"name\" must be one plain path component, got \"{name}\""),
        );
    }
    let smoke = scenario_with("").replace(r#""name": "t""#, r#""name": "smoke""#);
    assert_eq!(load_spec(&smoke).expect("a plain name loads").name, "smoke");
}

/// A minimal scenario whose one LC tenant carries `fields` as well.
fn tenant_with(fields: &str) -> String {
    scenario_with("").replace(
        r#"{"service": "xapian"}"#,
        &format!(r#"{{"service": "xapian", {fields}}}"#),
    )
}

#[test]
fn lc_core_counts_no_chip_can_host_are_rejected() {
    assert_eq!(
        load_err(&tenant_with(r#""cores": 0"#)),
        "an \"lc\" tenant field \"cores\" must be a positive integer"
    );
    assert_eq!(
        load_err(&tenant_with(r#""cores": 32"#)),
        "the \"lc\" tenants' \"cores\" sum to 32, leaving none of the \
         chip's 32 cores for batch jobs"
    );
    let two = scenario_with("").replace(
        r#"[{"service": "xapian"}]"#,
        r#"[{"service": "xapian", "cores": 20}, {"service": "silo", "cores": 12}]"#,
    );
    assert!(load_err(&two).contains("sum to 32"));
    let fits = load_spec(&tenant_with(r#""cores": 31"#)).expect("31 LC cores leave one");
    assert_eq!(fits.tenants.lc[0].cores, 31);
}

#[test]
fn negative_tenant_loads_and_qos_targets_are_rejected() {
    assert_eq!(
        load_err(&tenant_with(r#""load": -0.5"#)),
        "an \"lc\" tenant field \"load\" must be a non-negative number"
    );
    for qos in ["-1", "0"] {
        assert_eq!(
            load_err(&tenant_with(&format!(r#""qos_ms": {qos}"#))),
            "an \"lc\" tenant field \"qos_ms\" must be a positive number",
            "qos_ms {qos}"
        );
    }
    let idle = load_spec(&tenant_with(r#""load": 0, "qos_ms": 5"#)).expect("idle tenant loads");
    assert_eq!(idle.tenants.lc[0].load, 0.0);
}

/// A minimal scenario sweeping one load shape, given as a JSON object.
fn shape_with(object: &str) -> String {
    scenario_with(&format!(r#""load_shapes": [{object}]"#))
}

#[test]
fn non_positive_periods_and_negative_shape_loads_are_rejected() {
    // A zero period lowered a square wave into ~4·10⁸ steps and aborted the
    // sweep on allocation.
    assert_eq!(
        load_err(&shape_with(r#"{"kind": "square-wave", "period_s": 0}"#)),
        "load shape \"square-wave\" field \"period_s\" must be a positive number"
    );
    // A negative ramp ran to `verdict: pass`, its load clamped to 0.
    assert_eq!(
        load_err(&shape_with(r#"{"kind": "ramp", "from": -0.5, "to": -0.5}"#)),
        "load shape \"ramp\" field \"from\" must be a non-negative number"
    );
    for (kind, field) in [
        ("diurnal", "min"),
        ("diurnal", "max"),
        ("flash-crowd", "base"),
        ("flash-crowd", "peak"),
        ("ramp", "from"),
        ("ramp", "to"),
        ("square-wave", "lo"),
        ("square-wave", "hi"),
    ] {
        assert_eq!(
            load_err(&shape_with(&format!(
                r#"{{"kind": "{kind}", "{field}": -0.1}}"#
            ))),
            format!("load shape \"{kind}\" field \"{field}\" must be a non-negative number")
        );
    }
    for kind in ["diurnal", "square-wave"] {
        for period in ["0", "-1", "\"10\""] {
            assert_eq!(
                load_err(&shape_with(&format!(
                    r#"{{"kind": "{kind}", "period_s": {period}}}"#
                ))),
                format!("load shape \"{kind}\" field \"period_s\" must be a positive number"),
                "period {period}"
            );
        }
        // A positive period of 1e-300 s lowered a square wave one step per
        // half period and aborted the sweep on a 2 GiB allocation.
        for period in ["1e-300", "0.09"] {
            assert_eq!(
                load_err(&shape_with(&format!(
                    r#"{{"kind": "{kind}", "period_s": {period}}}"#
                ))),
                format!(
                    "load shape \"{kind}\" field \"period_s\" must be at least one \
                     decision quantum (0.1 s)"
                ),
                "period {period}"
            );
        }
    }
    let idle = load_spec(&shape_with(r#"{"kind": "ramp", "from": 0, "to": 0}"#))
        .expect("an idle ramp loads");
    assert_eq!(
        idle.load_shapes,
        vec![LoadShape::Ramp { from: 0.0, to: 0.0 }]
    );
}

/// Generated load-shape objects: the loader never panics on one, and a
/// shape it accepts gives a finite load at every quantum and, for a square
/// wave, at most `2·duration_s/period_s + 1` steps.
#[test]
fn accepted_load_shapes_lower_to_finite_bounded_patterns() {
    const KINDS: &[&str] = &[
        "diurnal",
        "flash-crowd",
        "ramp",
        "square-wave",
        "steady",
        "sine",
    ];
    const FIELDS: &[&str] = &[
        "min",
        "max",
        "period_s",
        "base",
        "peak",
        "start_frac",
        "end_frac",
        "from",
        "to",
        "lo",
        "hi",
    ];
    const VALUES: &[&str] = &[
        "-1", "-0.5", "-1e-9", "-0", "0", "1e-9", "0.01", "0.3", "1", "1.7", "5", "1e6", "null",
        "true", "\"x\"",
    ];
    let mut rng = rng_for("load-shapes");
    let mut accepted = 0;
    for _ in 0..CASES {
        let kind = KINDS[rng.random_range(0..KINDS.len())];
        let mut fields = vec![format!(r#""kind": "{kind}""#)];
        for field in FIELDS {
            if rng.random_range(0.0..1.0) < 0.3 {
                let value = if rng.random_range(0..2) == 0 {
                    VALUES[rng.random_range(0..VALUES.len())].to_string()
                } else {
                    format!("{}", rng.random_range(-2.0..3.0))
                };
                fields.push(format!(r#""{field}": {value}"#));
            }
        }
        let object = format!("{{{}}}", fields.join(", "));
        let quanta = rng.random_range(1..60);
        let text = shape_with(&object).replace(r#""quanta": 2"#, &format!(r#""quanta": {quanta}"#));
        let Ok(spec) = load_spec(&text) else { continue };
        accepted += 1;
        let shape = &spec.load_shapes[0];
        let duration_s = spec.duration_s();
        let pattern = shape.lower(spec.tenants.lc[0].load, duration_s);
        for q in 0..quanta {
            let load = pattern.load_at(q as f64 * TIMESLICE_MS / 1000.0);
            assert!(load.is_finite(), "{object}: load {load} at quantum {q}");
        }
        if let (LoadShape::SquareWave { period_s, .. }, LoadPattern::Steps(steps)) =
            (shape, &pattern)
        {
            let period = period_s.unwrap_or(duration_s);
            let bound = 2.0 * duration_s / period + 1.0;
            assert!(
                steps.len() as f64 <= bound,
                "{object}: {} steps over {duration_s} s, bound {bound}",
                steps.len()
            );
        }
    }
    assert!(accepted > CASES / 8, "only {accepted} shapes loaded");
}

#[test]
fn negative_or_non_finite_noise_is_rejected() {
    assert_eq!(
        load_err(&scenario_with(r#""noise": -5"#)),
        "scenario field \"noise\" must be a non-negative number"
    );
    // A number too large for an f64 never reaches the field check.
    assert!(matches!(
        load_spec(&scenario_with(r#""noise": 1e999"#)),
        Err(SweepError::Json(_))
    ));
    let exact = load_spec(&scenario_with(r#""noise": 0"#)).expect("noise 0 loads");
    assert_eq!(exact.noise, 0.0);
}

#[test]
fn malformed_json_reports_line_and_column() {
    let err = load_spec("{\n  \"name\": \"t\",\n  \"quanta\" 2\n}");
    match err {
        Err(SweepError::Json(e)) => {
            assert_eq!(
                e.to_string(),
                "json parse error at line 3, col 12: expected ':', found '2'"
            );
        }
        other => panic!("expected a JSON error, got {other:?}"),
    }
    // And the top-level Display wraps it with the file-level context.
    assert_eq!(
        load_err("{"),
        "scenario file is not valid JSON: \
         json parse error at line 1, col 2: expected a string object key"
    );
}

#[test]
fn seeds_are_canonicalized_sorted_and_deduplicated() {
    let shuffled = load_spec(&scenario_with("").replace("[1]", "[23, 7, 11, 7]"))
        .expect("shuffled seed list loads");
    assert_eq!(shuffled.seeds, vec![7, 11, 23]);
    let range = load_spec(&scenario_with("").replace("[1]", r#"{"range": [3, 6]}"#))
        .expect("seed range loads");
    assert_eq!(range.seeds, vec![3, 4, 5]);
}

/// [`scenario_with`] at `quanta` quanta over the seeds `seeds`.
fn sized(quanta: usize, seeds: &str, extra: &str) -> String {
    scenario_with(extra)
        .replace(r#""quanta": 2"#, &format!(r#""quanta": {quanta}"#))
        .replace("[1]", seeds)
}

#[test]
fn specs_past_the_node_quanta_bound_are_refused_at_load() {
    let max = MAX_NODE_QUANTA;
    let cluster = |nodes: usize| format!(r#""topology": {{"kind": "cluster", "nodes": {nodes}}}"#);
    let at = load_spec(&sized(max, "[1]", "")).expect("a spec at the bound loads");
    assert_eq!(at.quanta, max);
    let refusal = format!(
        "the scenario describes more than {max} node-quanta \
         (grid cells × seeds × nodes × quanta)"
    );
    for text in [
        // One node-quantum past the bound along each factor.
        sized(max + 1, "[1]", ""),
        sized(1, &format!(r#"{{"range": [0, {}]}}"#, max + 1), ""),
        sized(1, "[1]", &cluster(max + 1)),
        // Past it only as a product: of quanta and seeds, and of grid cells.
        sized(max / 2 + 1, "[1, 2]", ""),
        sized(
            max / 4 + 1,
            "[1]",
            r#""caps": [0.5, 0.7], "fault_profiles": ["clean", "lossy-sensors"]"#,
        ),
        // A product that overflows the integer type.
        sized(u32::MAX as usize, "[1, 2]", &cluster(u32::MAX as usize)),
    ] {
        assert_eq!(load_err(&text), refusal, "{text}");
    }
}

#[test]
fn violation_streak_is_monotone_in_streak_length() {
    let mut rng = rng_for("streak-monotone");
    for _ in 0..CASES {
        let n = rng.random_range(1..40usize);
        let mut series: Vec<bool> = (0..n).map(|_| rng.random_range(0..2usize) == 1).collect();
        let before = max_true_streak(&series);
        // Extending any existing run of trues never decreases the max.
        let at = rng.random_range(0..series.len() + 1);
        series.insert(at, true);
        let after = max_true_streak(&series);
        assert!(
            after >= before,
            "inserting a violation shrank the streak: {before} -> {after}"
        );
        // And the max streak over a prefix never exceeds the whole.
        let cut = rng.random_range(0..series.len());
        assert!(max_true_streak(&series[..cut]) <= after);
    }
}

#[test]
fn throughput_cliff_never_fires_on_constant_series() {
    let mut rng = rng_for("cliff-constant");
    for _ in 0..CASES {
        let n = rng.random_range(0..40usize);
        let level = rng.random_range(0.0..1e12);
        let series = vec![level; n];
        assert_eq!(
            max_adjacent_drop(&series),
            0.0,
            "constant series at {level} produced a cliff"
        );
    }
    // Monotone non-decreasing series are also cliff-free.
    let mut rng = rng_for("cliff-rising");
    for _ in 0..CASES {
        let n = rng.random_range(2..40usize);
        let mut series: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1e9)).collect();
        series.sort_by(f64::total_cmp);
        assert_eq!(max_adjacent_drop(&series), 0.0);
    }
}

#[test]
fn residency_is_a_fraction_of_quanta() {
    let mut rng = rng_for("residency");
    for _ in 0..CASES {
        let total = rng.random_range(1..100usize);
        let count = rng.random_range(0..total + 1);
        let r = residency(count, total);
        assert!((0.0..=1.0).contains(&r));
        assert!((r * total as f64 - count as f64).abs() < 1e-9);
    }
    assert_eq!(residency(5, 0), 0.0, "zero quanta cannot trip residency");
}
