//! Integration tests for the dynamic behaviours of §VIII-D and the
//! additional baselines: load following, cap steps, trace-driven load, and
//! the open-loop vs closed-loop comparison.

use cuttlesys::managers::Scheme;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::Scenario;
use cuttlesys::CuttleSysManager;
use workloads::loadgen::LoadPattern;

fn base() -> Scenario {
    Scenario {
        duration_slices: 10,
        noise: 0.0,
        phases: false,
        ..Scenario::paper_default()
    }
}

#[test]
fn diurnal_load_following_widens_and_narrows_the_service() {
    let s = base().with_load(LoadPattern::paper_diurnal());
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    assert_eq!(record.qos_violations(), 0, "{record:#?}");
    // The LC configuration at the load peak must be wider than in the
    // final low-load slices.
    let peak = &record.slices[5];
    let quiet = record.slices.last().unwrap();
    assert!(
        peak.lc_config().core.total_lanes() > quiet.lc_config().core.total_lanes(),
        "peak {} vs quiet {}",
        peak.lc_config(),
        quiet.lc_config()
    );
    // Freed power flows to the batch jobs when the service is quiet.
    assert!(quiet.batch_gmean_bips > peak.batch_gmean_bips);
}

#[test]
fn cap_steps_shift_power_between_phases() {
    let s = Scenario {
        cap: LoadPattern::Steps(vec![(0.0, 0.9), (0.3, 0.6), (0.7, 0.9)]),
        ..base()
    };
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    // During the 60% phase, chip power must come down to the new cap.
    for sl in &record.slices[4..7] {
        assert!(
            sl.chip_watts <= sl.cap_watts * 1.03,
            "power {} must track the reduced cap {}",
            sl.chip_watts,
            sl.cap_watts
        );
    }
    // And the batch jobs recover when the cap is restored.
    let during = record.slices[5].batch_instructions;
    let after = record.slices[9].batch_instructions;
    assert!(after > during * 1.2, "restored cap must restore throughput");
    assert_eq!(record.qos_violations(), 0);
}

#[test]
fn trace_driven_load_is_followed() {
    let s = base().with_load(LoadPattern::from_trace(
        0.1,
        vec![0.3, 0.3, 0.5, 0.7, 0.9, 0.9, 0.6, 0.4, 0.3, 0.3],
    ));
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    assert_eq!(record.qos_violations(), 0);
    // Load values recorded per slice must match the trace.
    assert!((record.slices[0].load() - 0.3).abs() < 1e-9);
    assert!((record.slices[4].load() - 0.9).abs() < 1e-9);
}

#[test]
fn feedback_controller_lags_cap_steps_where_cuttlesys_does_not() {
    let cap = LoadPattern::Steps(vec![(0.0, 0.9), (0.3, 0.6), (0.7, 0.9)]);
    let s = Scenario { cap, ..base() };
    let pid = Scheme::Feedback.run(&s);
    let cuttle = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    let overs = |r: &cuttlesys::types::RunRecord| {
        r.slices
            .iter()
            .filter(|sl| sl.chip_watts > sl.cap_watts * 1.02)
            .count()
    };
    assert!(
        overs(&pid) > overs(&cuttle),
        "the PID must spend more slices above the cap (pid {}, cuttlesys {})",
        overs(&pid),
        overs(&cuttle)
    );
}

#[test]
fn transition_costs_are_negligible_at_the_paper_quantum() {
    let mut cheap = base();
    cheap.params.reconfig_transition_us = 0.0;
    let mut costly = base();
    costly.params.reconfig_transition_us = 100.0;
    let a = {
        let mut m = CuttleSysManager::for_scenario(&cheap);
        run_scenario(&cheap, &mut m)
    };
    let b = {
        let mut m = CuttleSysManager::for_scenario(&costly);
        run_scenario(&costly, &mut m)
    };
    let ratio = b.batch_instructions() / a.batch_instructions();
    assert!(
        ratio > 0.98,
        "100 us transitions must cost <2% at 100 ms quanta: {ratio}"
    );
}

#[test]
fn dvfs_ladder_integrates_with_the_batch_catalog() {
    // Smoke-level integration of the DVFS substrate against real profiles:
    // monotone frontiers for every catalog application.
    let params = simulator::SystemParams::default();
    let model = simulator::DvfsModel::new(params);
    let ladder = simulator::DvfsLadder::modern(&params);
    for app in workloads::batch::catalog() {
        let frontier = model.frontier(&app.profile, simulator::CacheAlloc::Two, &ladder);
        for pair in frontier.windows(2) {
            assert!(
                pair[0].0 >= pair[1].0 - 1e-9,
                "{}: bips not monotone",
                app.name
            );
            assert!(
                pair[0].1 >= pair[1].1 - 1e-9,
                "{}: watts not monotone",
                app.name
            );
        }
    }
}
