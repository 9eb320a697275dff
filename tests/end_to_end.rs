//! End-to-end integration tests: the full pipeline (simulator → workloads →
//! recsys → dds → runtime) reproducing the paper's headline claims on
//! single colocations.

use baselines::ga::GaParams;
use baselines::gating::GatingOrder;
use cuttlesys::managers::{AsymmetricMode, FlickerVariant, Scheme};
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{RunRecord, Scenario};
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
    let gating = Scheme::CoreGating {
        order: GatingOrder::DescendingPower,
        way_partitioning: true,
    }
    .run(&s);
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
    let nogating = Scheme::NoGating.run(&s);
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
    let asym = Scheme::Asymmetric(AsymmetricMode::Oracle).run(&s);
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
    let flicker = Scheme::Flicker(FlickerVariant::LcProfiled).run(&s);
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

/// The decision pin. The benchmark's `node_steady` workload at seed 7 and
/// `--seconds 2` is 20 warm-up and 200 timed quanta of `paper_default`;
/// its record digest is pinned in `tests/golden/ledger_digests.txt`, so any
/// moved decision, measurement or work counter of the paper's setup trips
/// this. The 10-slice `paper_default()` run is the same run cut short, so
/// by causality it equals the first 10 slices.
#[test]
fn paper_default_pins_the_node_steady_digest_and_is_its_prefix() {
    let long = Scenario::paper_default()
        .with_seed(7)
        .with_duration_slices(220);
    let record = run_scenario(&long, &mut CuttleSysManager::for_scenario(&long));
    assert_eq!(record.slices.len(), 220);
    let pinned = include_str!("golden/ledger_digests.txt")
        .lines()
        .find_map(|line| line.strip_prefix("node_steady "))
        .expect("tests/golden/ledger_digests.txt pins node_steady");
    let got = format!("{:016x}", record.digest());
    assert_eq!(
        got, pinned,
        "node_steady digest {got}, pinned {pinned} in tests/golden/ledger_digests.txt: \
         a change meant to leave decisions alone must keep it; one that moves them \
         regenerates that file"
    );

    let short = Scenario::paper_default();
    let prefix = RunRecord {
        slices: record.slices[..short.duration_slices].to_vec(),
        ..record
    };
    assert_eq!(
        run_scenario(&short, &mut CuttleSysManager::for_scenario(&short)).comparable(),
        prefix.comparable(),
        "paper_default() is not the first {} slices of the pinned run",
        short.duration_slices
    );
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
    let records = [
        Scheme::NoGating,
        Scheme::CoreGating {
            order: GatingOrder::DescendingPower,
            way_partitioning: false,
        },
        Scheme::Asymmetric(AsymmetricMode::FixedBig(16)),
        Scheme::Flicker(FlickerVariant::LcPinned),
    ]
    .map(|scheme| scheme.run(&s));
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
fn every_scheme_names_its_record_and_runs_on_its_core_kind() {
    // Every baseline but Flicker runs on fixed cores whatever the scenario
    // says (no reconfiguration hardware, so no power tax); Flicker and
    // CuttleSys run on the scenario's own kind. A run of the scenario and
    // of its fixed-core copy tell the two apart: on reconfigurable cores
    // every configuration pays the tax, so the records differ.
    let s = Scenario {
        duration_slices: 4,
        ..Scenario::paper_default()
    };
    assert_eq!(s.kind, CoreKind::Reconfigurable);
    let f = fixed(&s);
    let order = GatingOrder::AscendingBips;
    let ga = GaParams::default().with_evaluation_budget(400);
    let arms = [
        (Scheme::NoGating, "no-gating", true),
        (
            Scheme::CoreGating {
                order,
                way_partitioning: false,
            },
            "core-gating",
            true,
        ),
        (
            Scheme::CoreGating {
                order,
                way_partitioning: true,
            },
            "core-gating+wp",
            true,
        ),
        (
            Scheme::Asymmetric(AsymmetricMode::Oracle),
            "asymmetric-oracle",
            true,
        ),
        (
            Scheme::Asymmetric(AsymmetricMode::FixedBig(16)),
            "asymmetric-16big",
            true,
        ),
        (
            Scheme::Flicker(FlickerVariant::LcProfiled),
            "flicker-a",
            false,
        ),
        (
            Scheme::Flicker(FlickerVariant::LcPinned),
            "flicker-b",
            false,
        ),
        (Scheme::Feedback, "pid-feedback", true),
        (Scheme::CuttleSys, "cuttlesys", false),
        (Scheme::CuttleSysGa(ga), "cuttlesys-sgd-ga", false),
    ];
    for (scheme, name, on_fixed_cores) in arms {
        let record = scheme.run(&s);
        assert_eq!(record.scheme, name, "{scheme:?}");
        let on_fixed = scheme.run(&f);
        assert_eq!(
            record.comparable() == on_fixed.comparable(),
            on_fixed_cores,
            "{scheme:?} ran on the wrong core kind"
        );
    }
}
