//! Fig. 7: instructions executed on all cores in each 0.1 s timeslice over
//! 1 s, with core-level gating, the oracle-like asymmetric multicore, and
//! CuttleSys, at a 70 % power cap.
//!
//! The paper's observation: gating zeroes entire cores, the asymmetric
//! multicore keeps all cores active but runs many jobs on small cores, and
//! CuttleSys keeps all cores active with parts of each core gated.

use baselines::gating::GatingOrder;
use cuttlesys::managers::{AsymmetricMode, Scheme};
use cuttlesys::types::RunRecord;
use workloads::latency;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let cap = args.fraction("cap_fraction");
    let svc = latency::service_by_name("xapian").expect("xapian exists");
    let gating = Scheme::CoreGating {
        order: GatingOrder::DescendingPower,
        way_partitioning: false,
    };
    let gating = grid.record(gating, &svc, 0, cap);
    let asym = grid.record(Scheme::Asymmetric(AsymmetricMode::Oracle), &svc, 0, cap);
    let cuttle = grid.record(Scheme::CuttleSys, &svc, 0, cap);

    let mut table = Table::new(
        &format!(
            "Fig. 7: instructions per 0.1 s timeslice (billions), xapian + mix 0, {:.0}% cap",
            cap * 100.0
        ),
        &[
            "t (s)",
            "core-gating",
            "gated cores",
            "asymm oracle",
            "small cores",
            "cuttlesys",
            "narrow cores",
        ],
    );
    let giga = |x: f64| format!("{:.2}", x / 1e9);
    for ((g, a), c) in gating.slices.iter().zip(&asym.slices).zip(&cuttle.slices) {
        let gated = g.batch_configs.iter().filter(|c| c.is_none()).count();
        let small = a
            .batch_configs
            .iter()
            .flatten()
            .filter(|cfg| cfg.core == simulator::CoreConfig::narrowest())
            .count();
        let narrow = c
            .batch_configs
            .iter()
            .flatten()
            .filter(|cfg| cfg.core.total_lanes() < 18)
            .count();
        table.row(vec![
            format!("{:.1}", g.t_s),
            giga(g.total_instructions),
            gated.to_string(),
            giga(a.total_instructions),
            small.to_string(),
            giga(c.total_instructions),
            narrow.to_string(),
        ]);
    }
    let mut report = Report::default();
    report.table(table);

    let total = |r: &RunRecord| r.slices.iter().map(|s| s.total_instructions).sum::<f64>();
    report.line(format!(
        "Totals over 1 s: gating {:.2}e9, asymmetric {:.2}e9, cuttlesys {:.2}e9",
        total(&gating) / 1e9,
        total(&asym) / 1e9,
        total(&cuttle) / 1e9
    ));
    report
}
