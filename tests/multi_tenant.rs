//! Integration tests for the multi-tenant job model: several
//! latency-critical services with independent QoS targets, batch-job churn,
//! and the guarantee that the paper's single-service setup is reproduced
//! *exactly* as the N=1 special case.

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

/// The paper's setup as the exact N=1 special case: the decisions, the
/// measured tail, the chip power, and the executed instructions of
/// `Scenario::paper_default()` are pinned bit-for-bit. Any change to the
/// multi-tenant generalization that perturbs the single-service path —
/// an RNG draw reordered, a seed derived differently, a loop refactored —
/// trips this immediately.
#[test]
fn paper_default_run_is_bit_identical_to_the_pinned_golden_record() {
    // (lc_cores, lc_config, batch configs (-1 = gated), tail bits,
    //  chip-watts bits, total-instruction bits) per slice.
    #[rustfmt::skip]
    let golden: [(usize, usize, [i64; 16], u64, u64, u64); 10] = [
        (16, 107, [5, 55, 59, 8, 8, 44, 58, 5, 54, 54, 43, 54, 17, 4, 6, 4],
         0x400e5a12c118ceb2, 0x40552fb7863508b1, 0x41f9a7db7f1de9c8),
        (16, 55, [54, 106, 68, 106, 46, 106, 106, 106, 105, 56, 54, 106, 58, 58, 34, 94],
         0x401316614f1a461b, 0x4055a34a095b81cf, 0x41ff7c1f55ebd3ec),
        (16, 55, [62, 57, 71, 102, 106, 106, 105, 44, 101, 104, 66, 106, 106, 94, 70, 66],
         0x401316614f1a461b, 0x40566d02540e6a04, 0x4200eaf3cf19eae2),
        (16, 55, [54, 104, 107, 106, 94, 107, 104, 94, 101, 68, 107, 105, 66, 21, 56, 105],
         0x401316614f1a461b, 0x4056a42318aa26f4, 0x42004009d6d8abb2),
        (16, 55, [105, 92, 34, 102, 8, 71, 105, 70, 102, 107, 104, 90, 101, 105, 8, 107],
         0x401316614f1a461b, 0x40569f64e3ab5138, 0x42000aa003a418e7),
        (16, 55, [101, 92, 35, 102, 57, 107, 58, 70, 102, 56, 70, 106, 69, 45, 93, 70],
         0x401316614f1a461b, 0x40564ac758a973a6, 0x420065878f7eec05),
        (16, 55, [101, 34, 58, 106, 57, 55, 105, 71, 102, 92, 70, 101, 106, 93, 56, 70],
         0x401316614f1a461b, 0x4056571f8bd11a36, 0x42008bd618e76063),
        (16, 55, [104, 56, 34, 70, 94, 107, 58, 107, 70, 92, 70, 101, 70, 105, 56, 106],
         0x401316614f1a461b, 0x405678ac07405f00, 0x420091293823ced3),
        (16, 55, [104, 56, 22, 106, 81, 59, 106, 95, 102, 20, 102, 101, 70, 92, 58, 70],
         0x401316614f1a461b, 0x4056165116ea4aa8, 0x420018523d05f499),
        (16, 55, [102, 45, 93, 105, 45, 58, 69, 95, 104, 20, 102, 106, 107, 71, 45, 101],
         0x401316614f1a461b, 0x40568c3effcf1061, 0x4200e10ab0cc5188),
    ];

    let s = Scenario::paper_default();
    let mut m = CuttleSysManager::for_scenario(&s);
    let record = run_scenario(&s, &mut m);
    assert_eq!(record.slices.len(), golden.len());
    for (i, (sl, g)) in record.slices.iter().zip(&golden).enumerate() {
        assert_eq!(sl.lc_cores(), g.0, "slice {i}: LC core count drifted");
        assert_eq!(
            sl.lc_config().index(),
            g.1,
            "slice {i}: LC configuration drifted"
        );
        let batch: Vec<i64> = sl
            .batch_configs
            .iter()
            .map(|c| c.map_or(-1, |c| c.index() as i64))
            .collect();
        assert_eq!(batch, g.2.to_vec(), "slice {i}: batch decisions drifted");
        assert_eq!(
            sl.tail_ms().to_bits(),
            g.3,
            "slice {i}: measured tail drifted"
        );
        assert_eq!(
            sl.chip_watts.to_bits(),
            g.4,
            "slice {i}: chip power drifted"
        );
        assert_eq!(
            sl.total_instructions.to_bits(),
            g.5,
            "slice {i}: executed instructions drifted"
        );
    }
}
