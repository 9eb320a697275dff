//! Integration tests for fault injection and the degradation ladder:
//! deterministic replay under a seeded [`FaultPlan`], zero panics through a
//! mid-run reconstruction blackout, bounded QoS damage, the retry and
//! last-good-plan rungs, and circuit-breaker open/recover cycles.
//!
//! Records are compared through extracted bit-level tuples rather than
//! `PartialEq` on whole records: stage telemetry carries wall-clock floats
//! that legitimately differ between runs, and corrupted samples may carry
//! NaNs (`NaN != NaN`).

use cuttlesys::faults::FaultPlan;
use cuttlesys::telemetry::DegradationEvents;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{RunRecord, Scenario};
use cuttlesys::CuttleSysManager;

/// Everything decision-relevant about a run, as exact bits. Two runs with
/// the same scenario and fault plan must produce identical fingerprints.
fn fingerprint(record: &RunRecord) -> Vec<String> {
    record
        .slices
        .iter()
        .map(|s| {
            let lc: Vec<String> =
                s.lc.iter()
                    .map(|l| {
                        format!(
                            "{}:{}c:{:?}:tail={:016x}",
                            l.service,
                            l.cores,
                            l.config,
                            l.tail_ms.to_bits()
                        )
                    })
                    .collect();
            format!(
                "t={:016x} chip={:016x} batch={:016x} lc=[{}] cfgs={:?} fault={:?} deg={:?}",
                s.t_s.to_bits(),
                s.chip_watts.to_bits(),
                s.batch_instructions.to_bits(),
                lc.join(","),
                s.batch_configs,
                s.fault,
                s.telemetry.as_ref().map(|t| &t.degradation),
            )
        })
        .collect()
}

fn run(scenario: &Scenario) -> RunRecord {
    let mut manager = CuttleSysManager::for_scenario(scenario);
    run_scenario(scenario, &mut manager)
}

#[test]
fn same_fault_seed_replays_bit_identically() {
    let scenario = Scenario::paper_default().with_faults(FaultPlan::lossy_sensors(7));
    let a = run(&scenario);
    let b = run(&scenario);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // The plan must actually bite — otherwise this test proves nothing.
    assert!(a.injected_fault_slices() > 0, "no faults were injected");
    let summary = a.stage_summary().expect("cuttlesys reports telemetry");
    assert!(
        summary.samples_rejected > 0,
        "corrupted samples left no telemetry trace"
    );
}

#[test]
fn different_fault_seeds_diverge() {
    let a = run(&Scenario::paper_default().with_faults(FaultPlan::lossy_sensors(7)));
    let b = run(&Scenario::paper_default().with_faults(FaultPlan::lossy_sensors(8)));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different fault seeds must perturb the run differently"
    );
}

#[test]
fn disabled_faults_are_a_bitwise_noop() {
    let clean = run(&Scenario::paper_default());
    let explicit = run(&Scenario::paper_default().with_faults(FaultPlan::none()));
    assert_eq!(fingerprint(&clean), fingerprint(&explicit));
    assert!(clean.slices.iter().all(|s| s.fault.is_none()));
    assert_eq!(clean.degraded_quanta(), 0);
}

#[test]
fn lossy_sensors_stay_within_twice_the_clean_tail() {
    let clean = run(&Scenario::paper_default());
    let lossy = run(&Scenario::paper_default().with_faults(FaultPlan::lossy_sensors(7)));
    assert!(
        lossy.worst_tail_ratio() <= 2.0 * clean.worst_tail_ratio().max(1e-9),
        "lossy-sensors worst tail {:.3} vs clean {:.3}",
        lossy.worst_tail_ratio(),
        clean.worst_tail_ratio()
    );
}

#[test]
fn mid_run_reconstruction_blackout_degrades_gracefully() {
    let blackout = FaultPlan {
        reconstruct_diverge: 1.0,
        ..FaultPlan::none()
    }
    .with_window(3, 6);
    let mut scenario = Scenario::paper_default().with_faults(blackout);
    scenario.duration_slices = 12;
    let mut clean_scenario = scenario.clone();
    clean_scenario.faults = FaultPlan::none();

    let clean = run(&clean_scenario);
    let faulty = run(&scenario); // must not panic

    // Every quantum in the window leaves a degradation trace: the sanity
    // gate rejects the diverged reconstruction and the ladder falls back.
    for slice in 3..6 {
        let tel = faulty.slices[slice]
            .telemetry
            .as_ref()
            .expect("cuttlesys always reports telemetry");
        assert!(
            tel.degradation.degraded(),
            "slice {slice} inside the blackout window shows no degradation"
        );
    }
    // Outside the window the run is healthy again.
    let tail_degraded = faulty.slices[8..]
        .iter()
        .filter(|s| {
            s.telemetry
                .as_ref()
                .is_some_and(|t| t.degradation.degraded())
        })
        .count();
    assert_eq!(tail_degraded, 0, "degradation persisted past the window");
    // Bounded damage: at worst the windowed quanta themselves violate QoS.
    assert!(
        faulty.qos_violations() <= clean.qos_violations() + 4,
        "blackout cost {} extra QoS violations",
        faulty.qos_violations() - clean.qos_violations()
    );
}

#[test]
fn persistent_divergence_opens_the_breaker_and_recovery_closes_it() {
    // Divergence from the very first quantum: no last-good predictions
    // exist, so every decision fails outright until the window closes.
    let plan = FaultPlan {
        reconstruct_diverge: 1.0,
        ..FaultPlan::none()
    }
    .with_window(0, 8);
    let mut scenario = Scenario::paper_default().with_faults(plan);
    scenario.duration_slices = 24;

    let mut manager = CuttleSysManager::for_scenario(&scenario);
    let record = run_scenario(&scenario, &mut manager);

    let (opens, closes) = manager.breaker_cycles();
    assert!(opens >= 1, "breaker never opened under persistent failure");
    assert!(closes >= 1, "breaker never closed after the faults cleared");
    assert!(!manager.breaker_open(), "breaker still open at run end");

    let safe = record.safe_mode_quanta();
    assert!(safe > 0, "persistent failure never reached safe mode");
    assert!(
        safe < record.slices.len(),
        "safe mode must not consume the whole run"
    );
    // Once recovered, decisions are clean again for the rest of the run.
    let last = record
        .slices
        .last()
        .and_then(|s| s.telemetry.as_ref())
        .expect("telemetry on final slice");
    assert!(!last.degradation.degraded());
}

#[test]
fn flaky_reconfig_leaves_cores_stuck_but_run_completes() {
    let scenario = Scenario::paper_default().with_faults(FaultPlan::flaky_reconfig(11));
    let record = run(&scenario);
    let stuck = record
        .slices
        .iter()
        .filter(|s| s.fault.is_some_and(|f| f.reconfig_failed))
        .count();
    assert!(
        stuck > 0,
        "flaky-reconfig plan never failed a reconfiguration"
    );
    // Ground truth still accounts every slice. Cores stuck at a wide
    // configuration — or plans replayed from stale predictions after a
    // diverged reconstruction — can legitimately overshoot the cap, but
    // only on slices the fault plan actually touched.
    assert_eq!(record.slices.len(), scenario.duration_slices);
    let touched = record
        .slices
        .iter()
        .filter(|s| {
            s.fault.is_some_and(|f| f.any())
                || s.telemetry
                    .as_ref()
                    .is_some_and(|t| t.degradation.degraded())
        })
        .count();
    assert!(
        record.power_violations() <= touched,
        "{} power violations from {} fault-touched slices",
        record.power_violations(),
        touched
    );
}

#[test]
fn lost_profiling_frames_retry_then_replay_the_last_good_plan() {
    // Every profiling sample of slices 4 and 5 is dropped: the ladder's
    // retry rung re-samples both frames, profiling still fails, and the
    // last-good-plan rung replays slice 3's decision.
    let plan = FaultPlan {
        sample_drop: 1.0,
        ..FaultPlan::none()
    }
    .with_window(4, 6);
    let mut scenario = Scenario::paper_default().with_faults(plan);
    scenario.duration_slices = 10;
    let mut manager = CuttleSysManager::for_scenario(&scenario);
    let record = run_scenario(&scenario, &mut manager);
    let degradation = |slice: usize| {
        record.slices[slice]
            .telemetry
            .as_ref()
            .expect("cuttlesys always reports telemetry")
            .degradation
    };

    let last_good = &record.slices[3];
    for (slice, stale_age) in [(4, 1), (5, 2)] {
        assert_eq!(
            degradation(slice),
            DegradationEvents {
                sample_retries: 2,
                stale_age,
                replayed_last_good: true,
                failed_stage: Some("profile"),
                ..DegradationEvents::default()
            },
            "slice {slice}"
        );
        let replayed = &record.slices[slice];
        let lc_configs = |s: &cuttlesys::types::SliceRecord| -> Vec<_> {
            s.lc.iter().map(|l| (l.cores, l.config)).collect()
        };
        assert_eq!(lc_configs(replayed), lc_configs(last_good), "slice {slice}");
        assert_eq!(
            replayed.batch_configs, last_good.batch_configs,
            "slice {slice}"
        );
    }
    // Two replays are far from the breaker's threshold, and the run is
    // clean again once the window closes.
    assert_eq!(manager.breaker_cycles(), (0, 0));
    for slice in 6..10 {
        assert_eq!(
            degradation(slice),
            DegradationEvents::default(),
            "slice {slice}"
        );
    }
}
