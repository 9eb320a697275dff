//! The sweep runner against the checked-in scenario fixtures.
//!
//! Three fixtures cover the contract from three sides:
//!
//! * `scenarios/smoke.json` — a 2-node cluster under clean and
//!   node-crash fleet profiles whose `summary.json` is pinned
//!   byte-for-byte against `tests/golden/sweep_smoke_summary.json`.
//! * `scenarios/collapse.json` — an engineered overload (flash crowd
//!   past saturation under a tight cap with flaky reconfiguration)
//!   that MUST trip detectors: a sweep that can't fail can't verify.
//! * `scenarios/soak.json` — the ≥100-run statistical fleet: every
//!   seeded run completes and every detector stays quiet.
//!
//! The residency-agreement test closes the loop between the detector
//! layer and the core runtime: the fraction the detector reports is
//! exactly `RunRecord::safe_mode_quanta / quanta` for the same run.

use cuttlesys::{run_scenario, CuttleSysManager};
use sweep::detectors::residency;
use sweep::{load_spec, run_sweep, summary_json};
use util::WorkerPool;

fn load_fixture(name: &str) -> sweep::SweepSpec {
    let path = format!("{}/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    load_spec(&text).expect("fixture loads")
}

#[test]
fn smoke_summary_matches_the_pinned_golden_bytes() {
    let spec = load_fixture("smoke");
    let pool = WorkerPool::new(4);
    let outcome = run_sweep(&spec, &pool);
    let summary = format!("{}\n", summary_json(&spec, &outcome));
    let golden = include_str!("golden/sweep_smoke_summary.json");
    assert_eq!(
        summary, golden,
        "smoke summary drifted from tests/golden/sweep_smoke_summary.json; \
         every byte of a sweep summary is part of the determinism contract"
    );
    assert!(!outcome.tripped(), "the smoke fixture must pass");
}

#[test]
fn collapse_fixture_trips_detectors() {
    let spec = load_fixture("collapse");
    let pool = WorkerPool::new(2);
    let outcome = run_sweep(&spec, &pool);
    assert!(
        outcome.tripped(),
        "the engineered collapse must trip at least one detector"
    );
    // Specifically: sustained QoS violation under overload, and the
    // throughput cliff when the flash crowd hits.
    let tripped: Vec<&str> = outcome.cells[0].runs[0]
        .findings
        .iter()
        .filter(|f| f.tripped)
        .map(|f| f.detector)
        .collect();
    assert!(
        tripped.contains(&"qos_violation_streak"),
        "tripped: {tripped:?}"
    );
    let summary = summary_json(&spec, &outcome);
    assert_eq!(
        summary.get("verdict").and_then(|v| v.as_str()),
        Some("fail")
    );
}

#[test]
fn soak_fixture_executes_at_least_100_clean_runs() {
    let spec = load_fixture("soak");
    assert!(
        spec.total_runs() >= 100,
        "the soak fixture must describe at least 100 runs, got {}",
        spec.total_runs()
    );
    let pool = WorkerPool::new(4);
    let outcome = run_sweep(&spec, &pool);
    assert_eq!(outcome.total_runs(), spec.total_runs());
    for cell in &outcome.cells {
        assert_eq!(cell.runs.len(), spec.seeds.len());
        for run in &cell.runs {
            assert_eq!(
                run.metrics.series.quanta, spec.quanta,
                "every run completed"
            );
            assert!(run.metrics.series.error.is_none());
        }
    }
    assert!(
        !outcome.tripped(),
        "the soak fleet must stay detector-quiet"
    );
}

#[test]
fn residency_detector_agrees_with_the_run_record() {
    // One lossy-sensors point from the soak grid, run twice: once
    // through the sweep and once directly through the core runtime.
    let spec = load_fixture("soak");
    let shape = &spec.load_shapes[0];
    let scenario = spec.scenario_for(shape, spec.caps[0], "lossy-sensors", 13);
    let mut manager = CuttleSysManager::for_scenario(&scenario);
    let record = run_scenario(&scenario, &mut manager);

    let mut probe = spec.clone();
    probe.seeds = vec![13];
    probe.fault_profiles = vec!["lossy-sensors".to_string()];
    probe.load_shapes = vec![shape.clone()];
    let pool = WorkerPool::new(1);
    let outcome = run_sweep(&probe, &pool);
    let run = &outcome.cells[0].runs[0];

    assert_eq!(
        run.metrics.series.safe_mode_quanta,
        record.safe_mode_quanta()
    );
    assert_eq!(run.metrics.series.degraded_quanta, record.degraded_quanta());
    let finding = run
        .findings
        .iter()
        .find(|f| f.detector == "safe_mode_residency")
        .expect("residency finding present");
    let expected = residency(record.safe_mode_quanta(), record.slices.len());
    assert!(
        (finding.value - expected).abs() < 1e-12,
        "detector residency {} != record residency {expected}",
        finding.value
    );
}
