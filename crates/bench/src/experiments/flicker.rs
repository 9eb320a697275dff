//! §VIII-E: comparison against Flicker.
//!
//! Flicker was designed for batch-only multicores; applying it to a
//! latency-critical colocation requires choosing how to treat the LC
//! service. The paper evaluates both ways:
//!
//! * variant (a): the LC service is profiled like any job — 9 × 10 ms of
//!   3MM3 configurations per timeslice — and suffers QoS violations of over
//!   an order of magnitude;
//! * variant (b): the LC service is pinned to {6,6,6} and only batch jobs
//!   are profiled (9 × 1 ms); violations shrink (paper: ~1.5×) but the
//!   unpartitioned cache and the 9 ms profiling still disturb the tail.

use cuttlesys::managers::{FlickerVariant, Scheme};

use crate::cli::Args;
use crate::grid::Grid;
use crate::{colocations, Report, Table};

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let cap = args.fraction("cap_fraction");
    let mixes = args.int("mixes_per_service");

    let mut table = Table::new(
        &format!("Flicker vs CuttleSys at a {:.0}% cap", cap * 100.0),
        &[
            "scheme",
            "QoS violations",
            "worst tail/QoS",
            "batch instr (1e9)",
        ],
    );

    for (name, scheme) in [
        ("flicker-a", Scheme::Flicker(FlickerVariant::LcProfiled)),
        ("flicker-b", Scheme::Flicker(FlickerVariant::LcPinned)),
        ("cuttlesys", Scheme::CuttleSys),
    ] {
        let mut violations = 0;
        let mut worst: f64 = 0.0;
        let mut instr = 0.0;
        let mut slices = 0;
        for (svc, mix) in colocations(mixes) {
            let record = grid.record(scheme, &svc, mix, cap);
            violations += record
                .slices
                .iter()
                .skip(1)
                .filter(|s| s.qos_violation())
                .count();
            slices += record.slices.len() - 1;
            worst = worst.max(record.worst_tail_ratio());
            instr += record.batch_instructions();
        }
        table.row(vec![
            format!("{name} ({violations}/{slices})"),
            format!("{violations}/{slices}"),
            format!("{worst:.1}x"),
            format!("{:.2}", instr / 1e9),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report.line("Paper shape: variant (a) violates QoS by over an order of magnitude,");
    report.line("variant (b) by ~1.5x; CuttleSys meets QoS throughout.");
    report
}
