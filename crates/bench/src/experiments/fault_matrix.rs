//! Fault-resilience matrix: the paper's standard co-location run under each
//! fault-injection profile (`clean`, `lossy-sensors`, `flaky-reconfig`),
//! reporting what the degradation ladder absorbed — rejected samples,
//! retries, last-good fallbacks, safe-mode quanta — alongside the QoS and
//! throughput cost relative to the fault-free run.
//!
//! The report fails (exit status 2) if any profile violates the 2×-clean
//! worst-tail bound or leaves no telemetry trace; what failed goes to
//! stderr.

use cuttlesys::faults::FaultPlan;
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::{RunRecord, Scenario};
use cuttlesys::CuttleSysManager;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

/// Every [`FaultPlan::NAMES`] profile in display order: `clean` first, the
/// baseline every other row is compared with.
const PROFILES: [&str; 3] = ["clean", "lossy-sensors", "flaky-reconfig"];

struct ProfileRun {
    record: RunRecord,
    breaker_opens: usize,
    breaker_closes: usize,
}

fn run_profile(profile: &str, seed: u64, slices: usize, grid: &Grid) -> ProfileRun {
    let plan = FaultPlan::named(profile, seed).expect("profile names come from PROFILES");
    let scenario = Scenario {
        duration_slices: slices,
        ..Scenario::paper_default()
    }
    .with_faults(plan);
    let library = grid.libraries().get(&scenario.params);
    let mut manager = CuttleSysManager::sharing(&scenario, library);
    let record = run_scenario(&scenario, &mut manager);
    let (breaker_opens, breaker_closes) = manager.breaker_cycles();
    ProfileRun {
        record,
        breaker_opens,
        breaker_closes,
    }
}

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let seed = args.int("--seed");
    let slices = args.int("slices") as usize;

    let runs: Vec<(&str, ProfileRun)> = PROFILES
        .iter()
        .map(|p| (*p, run_profile(p, seed, slices, grid)))
        .collect();
    let clean_tail = runs[0].1.record.worst_tail_ratio();
    let clean_instr = runs[0].1.record.batch_instructions();

    let mut table = Table::new(
        &format!("Fault-resilience matrix: xapian + mix 0, {slices} slices, seed {seed}"),
        &[
            "profile",
            "fault slices",
            "rejected",
            "retries",
            "fallbacks",
            "replays",
            "safe-mode",
            "breaker o/c",
            "QoS viol",
            "tail vs clean",
            "batch vs clean",
        ],
    );
    let mut failed = false;
    for (profile, run) in &runs {
        let record = &run.record;
        let summary = record.stage_summary().expect("cuttlesys reports telemetry");
        let tail_ratio = record.worst_tail_ratio() / clean_tail.max(1e-12);
        let instr_ratio = record.batch_instructions() / clean_instr.max(1e-12);
        table.row(vec![
            (*profile).to_string(),
            record.injected_fault_slices().to_string(),
            summary.samples_rejected.to_string(),
            summary.sample_retries.to_string(),
            summary.reconstruct_fallbacks.to_string(),
            summary.last_good_replays.to_string(),
            summary.safe_mode_quanta.to_string(),
            format!("{}/{}", run.breaker_opens, run.breaker_closes),
            format!("{}/{}", record.qos_violations(), record.slices.len()),
            format!("{tail_ratio:.2}x"),
            format!("{instr_ratio:.2}x"),
        ]);

        // Acceptance bounds: every profile completes (panics would have
        // aborted already), the worst tail stays within 2x fault-free, and
        // faulty profiles leave a visible telemetry trace.
        if tail_ratio > 2.0 {
            eprintln!("{profile}: worst tail {tail_ratio:.2}x exceeds the 2x-clean bound");
            failed = true;
        }
        let traced = record.injected_fault_slices() > 0
            || summary.samples_rejected > 0
            || summary.reconstruct_fallbacks > 0
            || summary.last_good_replays > 0
            || summary.safe_mode_quanta > 0;
        if *profile != "clean" && !traced {
            eprintln!("{profile}: no degradation telemetry — injection hooks are dead");
            failed = true;
        }
        if *profile == "clean" && record.degraded_quanta() > 0 {
            eprintln!("clean: unexpected degradation without faults");
            failed = true;
        }
    }
    let mut report = Report::default();
    report.table(table);
    report.failed = failed;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_matrix_runs_every_named_fault_profile() {
        let mut sorted = PROFILES;
        sorted.sort_unstable();
        assert_eq!(sorted.as_slice(), FaultPlan::NAMES);
    }
}
