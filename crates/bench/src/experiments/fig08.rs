//! Fig. 8: CuttleSys' dynamic behaviour over one second —
//! (a) under a diurnal input-load pattern at a constant 70 % cap,
//! (b) under a varying power budget (90 % → 60 % → 90 %) at 80 % load,
//! (c) a core-relocation example under a load spike.
//!
//! Each run prints the same series the paper plots: input load, tail
//! latency relative to QoS, batch throughput (geo-mean BIPS), chip power vs
//! budget, the LC core configuration, and (for c) the LC core count.

use cuttlesys::managers::Scheme;
use cuttlesys::types::Scenario;
use workloads::latency;
use workloads::loadgen::LoadPattern;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

/// The three panels, in figure order.
const KINDS: [&str; 3] = ["load", "power", "relocation"];

fn scenario(kind: &str, slices: usize) -> Scenario {
    let svc = latency::service_by_name("xapian").expect("xapian exists");
    let base = Scenario {
        duration_slices: slices,
        ..Scenario::paper_default()
    }
    .with_service(svc);
    match kind {
        // (a) diurnal load, constant 70% cap.
        "load" => Scenario {
            cap: LoadPattern::Constant(0.7),
            ..base
        }
        .with_load(LoadPattern::paper_diurnal()),
        // (b) constant 80% load, cap 90% -> 60% at t=0.3s -> 90% at t=0.7s.
        "power" => Scenario {
            cap: LoadPattern::Steps(vec![(0.0, 0.9), (0.3, 0.6), (0.7, 0.9)]),
            ..base
        }
        .with_load(LoadPattern::Constant(0.8)),
        // (c) load spike driving core relocation, constant 70% cap.
        "relocation" => Scenario {
            cap: LoadPattern::Constant(0.7),
            ..base
        }
        .with_load(LoadPattern::paper_spike()),
        other => unreachable!("{other} is not one of KINDS"),
    }
}

fn panel(report: &mut Report, grid: &Grid, kind: &str, slices: usize) {
    let s = scenario(kind, slices);
    let record = Scheme::CuttleSys.run_sharing(&s, grid.libraries());

    let mut table = Table::new(
        &format!(
            "Fig. 8 ({kind}): xapian + mix 0, {} slices",
            s.duration_slices
        ),
        &[
            "t (s)",
            "load",
            "tail/QoS",
            "batch gmean (BIPS)",
            "power (W)",
            "budget (W)",
            "LC cores",
            "LC config",
        ],
    );
    for sl in &record.slices {
        let lc = sl.primary_lc();
        table.row(vec![
            format!("{:.1}", sl.t_s),
            format!("{:.0}%", lc.load * 100.0),
            format!("{:.2}", lc.tail_ms / lc.qos_ms),
            format!("{:.2}", sl.batch_gmean_bips),
            format!("{:.1}", sl.chip_watts),
            format!("{:.1}", sl.cap_watts),
            sl.lc_cores().to_string(),
            sl.lc_config().to_string(),
        ]);
    }
    report.table(table);
    report.line(format!(
        "QoS violations: {} / {}; power violations: {} / {}\n",
        record.qos_violations(),
        record.slices.len(),
        record.power_violations(),
        record.slices.len()
    ));
}

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let chosen = args.word("--scenario");
    let mut report = Report::default();
    for kind in KINDS.iter().filter(|k| chosen == "all" || chosen == **k) {
        panel(&mut report, grid, kind, args.int("slices") as usize);
    }
    report
}
