//! §VII-B ablation: the four core-gating victim orderings.
//!
//! "We explore the following approaches for selecting the cores to turn
//! off: a) descending order of power; b) ascending order of power; c)
//! ascending order of BIPS/Watt; and d) ascending order of BIPS. From our
//! experiments, we found that turning off cores based on descending order
//! of power achieves the best performance."

use baselines::gating::GatingOrder;
use cuttlesys::managers::Scheme;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{colocations, Report, Table};

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let mixes = args.int("mixes_per_service");
    let mut table = Table::new(
        "Core-gating victim orderings: batch instructions (1e9) by power cap",
        &["cap", "desc power", "asc power", "asc BIPS/W", "asc BIPS"],
    );
    for cap in [0.8, 0.7, 0.6] {
        let mut cells = vec![format!("{:.0}%", cap * 100.0)];
        for order in GatingOrder::ALL {
            let mut total = 0.0;
            let scheme = Scheme::CoreGating {
                order,
                way_partitioning: false,
            };
            for (svc, mix) in colocations(mixes) {
                total += grid.record(scheme, &svc, mix, cap).batch_instructions();
            }
            cells.push(format!("{:.1}", total / 1e9));
        }
        table.row(cells);
    }
    let mut report = Report::default();
    report.table(table);
    report.line("Paper: descending power wins — gating one hungry core frees the most");
    report.line("budget per victim, so more cores stay on.");
    report
}
