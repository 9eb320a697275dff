//! Integration tests for the multi-tenant job model: several
//! latency-critical services with independent QoS targets and batch-job
//! churn. That the paper's single-service setup is the exact N=1 special
//! case is pinned by the `node_steady` digest in `tests/end_to_end.rs`.

use baselines::gating::GatingOrder;
use cuttlesys::managers::Scheme;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{BatchJobSpec, JobSpec, Scenario};
use cuttlesys::CuttleSysManager;
use workloads::batch;

#[test]
fn two_services_hold_their_own_qos_targets_under_a_tight_cap() {
    let s = Scenario::two_service();
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);

    // Every slice reports ground truth for both tenants, against each
    // tenant's own QoS target.
    for sl in &record.slices {
        assert_eq!(sl.lc.len(), 2);
        assert_eq!(sl.lc[0].service, "xapian");
        assert_eq!(sl.lc[1].service, "masstree");
        assert_ne!(sl.lc[0].qos_ms, sl.lc[1].qos_ms);
    }
    assert_eq!(record.qos_violations_for(0), 0, "xapian violated QoS");
    assert_eq!(record.qos_violations_for(1), 0, "masstree violated QoS");
    assert!(record.batch_instructions() > 0.0);
}

#[test]
fn cuttlesys_beats_core_gating_with_two_tenants() {
    // A full chip — two 8-core tenants plus 16 batch jobs — makes the 70%
    // cap bind, so core gating has to switch whole jobs off while
    // CuttleSys shaves partial cores from both tenants instead.
    let s = Scenario::two_service().with_mix(batch::mix(16, batch::STANDARD_MIX_SEED));
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
        cuttle.batch_instructions() > gating.batch_instructions(),
        "cuttlesys {:.2e} must beat core gating {:.2e} with two tenants",
        cuttle.batch_instructions(),
        gating.batch_instructions()
    );
    assert_eq!(cuttle.qos_violations(), 0);
}

#[test]
fn batch_churn_frees_and_reuses_resources() {
    // Job 0 departs after slice 3; a fresh job arrives at slice 3.
    let mut s = Scenario {
        duration_slices: 6,
        ..Scenario::paper_default()
    };
    let mut batch_seen = 0;
    for job in &mut s.jobs {
        if let JobSpec::Batch(b) = job {
            if batch_seen == 0 {
                b.depart_slice = Some(3);
            }
            batch_seen += 1;
        }
    }
    let newcomer = batch::mix(1, 0xBEEF).apps[0];
    s.jobs.push(JobSpec::Batch(BatchJobSpec {
        arrive_slice: 3,
        ..BatchJobSpec::resident(newcomer)
    }));

    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    let last_new = s.num_batch() - 1;

    for (i, sl) in record.slices.iter().enumerate() {
        // Global job indexing: 1 LC tenant, then the batch jobs.
        let departed_instr = sl.per_job_instructions[1];
        let newcomer_instr = sl.per_job_instructions[1 + last_new];
        if i < 3 {
            assert!(departed_instr > 0.0, "slice {i}: job 0 should run");
            assert_eq!(newcomer_instr, 0.0, "slice {i}: newcomer not yet here");
            assert!(sl.batch_configs[0].is_some());
        } else {
            assert_eq!(departed_instr, 0.0, "slice {i}: departed job must stop");
            assert!(
                sl.batch_configs[0].is_none(),
                "slice {i}: departed job's core and cache ways must be reclaimed"
            );
            assert!(newcomer_instr > 0.0, "slice {i}: newcomer should run");
        }
    }
    assert_eq!(record.qos_violations(), 0);
}
