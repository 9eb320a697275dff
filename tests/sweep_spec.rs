//! The sweep spec loader's hard-error contract and the detector layer's
//! properties.
//!
//! The loader half pins *exact* error strings: a typo in a scenario file
//! must fail loudly, at load time, listing the valid vocabulary — never
//! silently shrink the sweep. The detector half is a seeded property
//! loop (the repo's stand-in for proptest): streaks are monotone, cliffs
//! never fire on constant series, and the residency detector agrees
//! with the metrics the core runtime reports.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sweep::detectors::{max_adjacent_drop, max_true_streak, residency};
use sweep::{load_spec, SweepError};

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
    assert_eq!(spec.overrides, sweep::spec::Overrides::default());
}

#[test]
fn unknown_override_key_is_a_hard_error_listing_valid_keys() {
    // A typo, and the retired `perf.*` keys: a node quantum has no compute
    // knob left, and a scenario file still carrying one must not load.
    for key in [
        "resilience.deadline",
        "perf.evaluation_cache",
        "perf.pool_threads",
        "perf.warm_start",
    ] {
        let text = scenario_with(&format!(r#""overrides": {{"{key}": true}}"#));
        assert_eq!(
            load_err(&text),
            format!(
                "unknown override key \"{key}\"; valid keys are: \
                 resilience.breaker_close_after, resilience.breaker_open_after, \
                 resilience.breaker_probe_interval, resilience.deadline_ms, \
                 resilience.max_bips, resilience.max_tail_ms, resilience.max_watts, \
                 resilience.staleness_bound"
            )
        );
    }
}

#[test]
fn unknown_top_level_field_is_a_hard_error_listing_valid_fields() {
    let text = scenario_with(r#""quantums": 5"#);
    assert_eq!(
        load_err(&text),
        "unknown scenario field \"quantums\"; valid fields are: \
         caps, detectors, fault_profiles, fleet_fault_profiles, load_shapes, \
         name, noise, overrides, phases, quanta, seeds, tenants, topology"
    );
}

#[test]
fn unknown_detector_is_a_hard_error_listing_the_catalogue() {
    let text = scenario_with(r#""detectors": {"qos_streak": 3}"#);
    assert_eq!(
        load_err(&text),
        "unknown detector \"qos_streak\"; valid detectors are: \
         degraded_residency, displaced_persistence, qos_violation_streak, \
         safe_mode_residency, tenant_loss, throughput_cliff"
    );
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
