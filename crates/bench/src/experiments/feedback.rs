//! §IV claim: open-loop (CuttleSys) vs closed-loop (PID) power management.
//!
//! "CuttleSys is an open-loop solution, which searches the design space and
//! finds the best resource allocation in a single decision interval
//! compared to feedback-based controllers, which take significant time to
//! converge. This is especially beneficial for latency-critical
//! applications."
//!
//! Both schemes face the Fig. 8(b) cap steps (90% → 60% → 90%); we count
//! out-of-band timeslices (power above cap or more than 15% below it) and
//! batch throughput.

use cuttlesys::managers::Scheme;
use cuttlesys::types::{RunRecord, Scenario};
use workloads::latency;
use workloads::loadgen::LoadPattern;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{standard_scenario, Report, Table};

fn out_of_band(r: &RunRecord) -> (usize, usize) {
    let over = r
        .slices
        .iter()
        .filter(|s| s.chip_watts > s.cap_watts * 1.02)
        .count();
    let under = r
        .slices
        .iter()
        .filter(|s| s.chip_watts < s.cap_watts * 0.85 && s.chip_watts <= s.cap_watts)
        .count();
    (over, under)
}

pub(super) fn run(_: &Args, grid: &Grid) -> Report {
    let svc = latency::service_by_name("xapian").expect("xapian exists");
    let scenario = Scenario {
        cap: LoadPattern::Steps(vec![(0.0, 0.9), (0.3, 0.6), (0.7, 0.9)]),
        duration_slices: 10,
        ..standard_scenario(&svc, 0, 0.9)
    };

    let feedback = Scheme::Feedback.run_sharing(&scenario, grid.libraries());
    let cuttle = Scheme::CuttleSys.run_sharing(&scenario, grid.libraries());

    let mut table = Table::new(
        "Open-loop vs closed-loop under cap steps 90% -> 60% -> 90%",
        &[
            "t (s)",
            "cap (W)",
            "PID power",
            "cuttlesys power",
            "PID batch",
            "cuttlesys batch",
        ],
    );
    for (f, c) in feedback.slices.iter().zip(&cuttle.slices) {
        table.row(vec![
            format!("{:.1}", f.t_s),
            format!("{:.1}", f.cap_watts),
            format!("{:.1}", f.chip_watts),
            format!("{:.1}", c.chip_watts),
            format!("{:.2}e9", f.batch_instructions / 1e9),
            format!("{:.2}e9", c.batch_instructions / 1e9),
        ]);
    }
    let mut report = Report::default();
    report.table(table);

    let (f_over, f_under) = out_of_band(&feedback);
    let (c_over, c_under) = out_of_band(&cuttle);
    report.line(format!(
        "out-of-band slices (>2% over cap / >15% unused headroom): PID {f_over}/{f_under}, \
         cuttlesys {c_over}/{c_under}"
    ));
    report.line(format!(
        "batch instructions: PID {:.1}e9, cuttlesys {:.1}e9 ({:.2}x)",
        feedback.batch_instructions() / 1e9,
        cuttle.batch_instructions() / 1e9,
        cuttle.batch_instructions() / feedback.batch_instructions()
    ));
    report.line("Paper claim: the open-loop design re-solves within one decision interval;");
    report.line("the feedback loop spends several intervals violating or wasting budget.");
    report
}
