//! End-to-end integration tests: the full pipeline (simulator → workloads →
//! recsys → dds → runtime) reproducing the paper's headline claims on
//! single colocations.

use baselines::ga::GaParams;
use baselines::gating::GatingOrder;
use cuttlesys::managers::{
    AsymmetricManager, AsymmetricMode, CoreGatingManager, FeedbackManager, FlickerManager,
    FlickerVariant, NoGatingManager, Scheme,
};
use cuttlesys::runtime::SearchAlgo;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::Scenario;
use cuttlesys::CuttleSysManager;
use simulator::power::CoreKind;
use workloads::batch;
use workloads::latency;
use workloads::loadgen::LoadPattern;

fn scenario(cap: f64) -> Scenario {
    Scenario {
        cap: LoadPattern::Constant(cap),
        duration_slices: 6,
        noise: 0.0,
        phases: false,
        ..Scenario::paper_default()
    }
}

fn fixed(s: &Scenario) -> Scenario {
    Scenario {
        kind: CoreKind::Fixed,
        ..s.clone()
    }
}

#[test]
fn cuttlesys_beats_core_gating_at_tight_caps() {
    let s = scenario(0.6);
    let f = fixed(&s);
    let gating = run_scenario(
        &f,
        &mut CoreGatingManager::new(&f, GatingOrder::DescendingPower, true),
    );
    let cuttle = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    assert!(
        cuttle.batch_instructions() > gating.batch_instructions() * 1.2,
        "cuttlesys {:.2e} should clearly beat gating {:.2e} at a 60% cap",
        cuttle.batch_instructions(),
        gating.batch_instructions()
    );
    assert_eq!(cuttle.qos_violations(), 0);
}

#[test]
fn cuttlesys_pays_the_reconfiguration_tax_at_relaxed_caps() {
    // §VIII-C: at a 90% cap the fixed-core designs can keep every core at
    // full width while reconfigurable cores must shed the 18% energy tax.
    let s = scenario(0.9);
    let f = fixed(&s);
    let nogating = run_scenario(&f, &mut NoGatingManager);
    let cuttle = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    assert!(
        cuttle.batch_instructions() < nogating.batch_instructions(),
        "cuttlesys should trail the unconstrained fixed-core chip at 90%"
    );
}

#[test]
fn cuttlesys_beats_the_asymmetric_oracle_at_the_tightest_cap() {
    let s = scenario(0.5);
    let f = fixed(&s);
    let asym = run_scenario(&f, &mut AsymmetricManager::new(&f, AsymmetricMode::Oracle));
    let cuttle = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    assert!(
        cuttle.batch_instructions() > asym.batch_instructions(),
        "cuttlesys {:.2e} should beat the asymmetric oracle {:.2e} at 50%",
        cuttle.batch_instructions(),
        asym.batch_instructions()
    );
}

#[test]
fn qos_holds_for_every_service_with_noise_and_phases() {
    for svc in latency::services() {
        let s = Scenario {
            cap: LoadPattern::Constant(0.7),
            duration_slices: 6,
            ..Scenario::paper_default()
        }
        .with_service(svc);
        let mut m = CuttleSysManager::for_scenario(&s);
        let record = run_scenario(&s, &mut m);
        assert_eq!(
            record.qos_violations(),
            0,
            "{} violated QoS under the realistic testbed",
            svc.name
        );
    }
}

#[test]
fn flicker_profiling_destroys_the_tail_cuttlesys_does_not() {
    let s = Scenario {
        noise: 0.03,
        phases: true,
        ..scenario(0.7)
    };
    let flicker = run_scenario(&s, &mut FlickerManager::new(&s, FlickerVariant::LcProfiled));
    let cuttle = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    assert!(
        flicker.worst_tail_ratio() > 3.0,
        "flicker-a must blow the tail"
    );
    assert!(cuttle.worst_tail_ratio() <= 1.0, "cuttlesys must hold QoS");
}

#[test]
fn overload_triggers_relocation_and_recovery() {
    let s = Scenario {
        duration_slices: 10,
        noise: 0.0,
        phases: false,
        ..Scenario::paper_default()
    }
    .with_load(LoadPattern::paper_spike());
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    let max_cores = record.slices.iter().map(|sl| sl.lc_cores()).max().unwrap();
    assert!(max_cores > 16, "the spike must force core reclamation");
    let last = record.slices.last().unwrap();
    assert_eq!(last.lc_cores(), 16, "reclaimed cores must be yielded back");
    assert!(!last.qos_violation(), "QoS must recover after the spike");
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    // Wall-clock stage timings are measured from the host and legitimately
    // vary between runs; every decision (and every telemetry work counter)
    // must not.
    let s = scenario(0.7);
    let a = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    let b = {
        let mut m = CuttleSysManager::for_scenario(&s);
        run_scenario(&s, &mut m)
    };
    assert_eq!(a.comparable(), b.comparable());
}

#[test]
fn different_mixes_give_different_but_valid_runs() {
    let base = scenario(0.7);
    let other = base.clone().with_mix(batch::mix(16, 999));
    let a = {
        let mut m = CuttleSysManager::for_scenario(&base);
        run_scenario(&base, &mut m)
    };
    let b = {
        let mut m = CuttleSysManager::for_scenario(&other);
        run_scenario(&other, &mut m)
    };
    assert_ne!(a.batch_instructions(), b.batch_instructions());
    assert_eq!(b.qos_violations(), 0);
}

#[test]
fn every_manager_respects_the_slice_protocol() {
    let s = scenario(0.7);
    let f = fixed(&s);
    let records = vec![
        run_scenario(&f, &mut NoGatingManager),
        run_scenario(
            &f,
            &mut CoreGatingManager::new(&f, GatingOrder::DescendingPower, false),
        ),
        run_scenario(
            &f,
            &mut AsymmetricManager::new(&f, AsymmetricMode::FixedBig(16)),
        ),
        run_scenario(&s, &mut FlickerManager::new(&s, FlickerVariant::LcPinned)),
    ];
    for r in records {
        assert_eq!(r.slices.len(), s.duration_slices, "{}", r.scheme);
        for sl in &r.slices {
            assert!(
                sl.total_instructions > 0.0,
                "{}: no work executed",
                r.scheme
            );
            assert!(sl.chip_watts > 0.0);
            assert_eq!(sl.batch_configs.len(), 16);
        }
    }
}

#[test]
fn the_scheme_table_runs_exactly_the_hand_built_constructions() {
    // `Scheme::run` is what the experiment harness and the examples call;
    // the constructions below are the ones it replaced there, spelled out
    // with this file's own `fixed` so the two stay independent.
    let s = Scenario::paper_default();
    let f = fixed(&s);
    let order = GatingOrder::AscendingBips;
    let ga = GaParams::default().with_evaluation_budget(400);
    let gating = |wp| run_scenario(&f, &mut CoreGatingManager::new(&f, order, wp));
    let asym = |mode| run_scenario(&f, &mut AsymmetricManager::new(&f, mode));
    let flicker = |variant| run_scenario(&s, &mut FlickerManager::new(&s, variant));
    let hand_built = [
        (
            Scheme::NoGating,
            "no-gating",
            run_scenario(&f, &mut NoGatingManager),
        ),
        (
            Scheme::CoreGating {
                order,
                way_partitioning: false,
            },
            "core-gating",
            gating(false),
        ),
        (
            Scheme::CoreGating {
                order,
                way_partitioning: true,
            },
            "core-gating+wp",
            gating(true),
        ),
        (
            Scheme::Asymmetric(AsymmetricMode::Oracle),
            "asymmetric-oracle",
            asym(AsymmetricMode::Oracle),
        ),
        (
            Scheme::Asymmetric(AsymmetricMode::FixedBig(16)),
            "asymmetric-16big",
            asym(AsymmetricMode::FixedBig(16)),
        ),
        (
            Scheme::Flicker(FlickerVariant::LcProfiled),
            "flicker-a",
            flicker(FlickerVariant::LcProfiled),
        ),
        (
            Scheme::Flicker(FlickerVariant::LcPinned),
            "flicker-b",
            flicker(FlickerVariant::LcPinned),
        ),
        (
            Scheme::Feedback,
            "pid-feedback",
            run_scenario(&f, &mut FeedbackManager::new(&f)),
        ),
        (
            Scheme::CuttleSys,
            "cuttlesys",
            run_scenario(&s, &mut CuttleSysManager::for_scenario(&s)),
        ),
        (
            Scheme::CuttleSysGa(ga),
            "cuttlesys-sgd-ga",
            run_scenario(
                &s,
                &mut CuttleSysManager::for_scenario(&s).with_search(SearchAlgo::Ga(ga)),
            ),
        ),
    ];
    for (scheme, name, hand) in hand_built {
        let record = scheme.run(&s);
        assert_eq!(record.scheme, name, "{scheme:?}");
        assert_eq!(hand.scheme, name, "the manager's own name()");
        assert_eq!(record.comparable(), hand.comparable(), "{scheme:?}");
    }
}
