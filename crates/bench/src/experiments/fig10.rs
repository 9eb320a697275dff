//! Fig. 10: DDS versus GA as the design-space exploration algorithm.
//!
//! * `--scatter` (Fig. 10a): both algorithms explore the same SGD-predicted
//!   space for one colocation; we report the Pareto frontier each finds in
//!   the (power, 1/throughput) plane and the best feasible point under the
//!   budget.
//! * `--sweep` (Fig. 10b): the full CuttleSys runtime with DDS vs with a
//!   budget-matched GA, across power caps; the paper reports up to 19 %
//!   higher throughput for DDS, with the gap shrinking at the 50 % cap.
//!   Its DDS column reads the grid cells of Fig. 5(c)'s CuttleSys column.

use baselines::ga::{ga_search, GaParams};
use cuttlesys::managers::Scheme;
use dds::{parallel_search, ParallelDdsParams, SearchSpace};
use simulator::NUM_JOB_CONFIGS;
use workloads::batch;
use workloads::latency;

use crate::cli::Args;
use crate::grid::Grid;
use crate::report::ratio;
use crate::{
    colocations, geo_mean, search_problem, standard_scenario, two_sample_predictions, Report,
    Table, POWER_CAPS,
};

/// Pareto-filter explored points in the (power, 1/throughput) plane (both
/// minimized).
fn pareto(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut sorted = points.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut front = Vec::new();
    let mut best = f64::INFINITY;
    for (power, inv_tput) in sorted {
        if inv_tput < best {
            best = inv_tput;
            front.push((power, inv_tput));
        }
    }
    front
}

fn scatter(report: &mut Report, grid: &Grid) {
    // Build SGD predictions for one colocation, as the runtime would.
    let preds = two_sample_predictions(
        &batch::mix(16, batch::STANDARD_MIX_SEED).profiles(),
        grid.libraries(),
    );

    let svc = latency::service_by_name("xapian").expect("xapian exists");
    let scenario = standard_scenario(&svc, 0, 0.7);
    let budget = 0.7 * scenario.nominal_budget_watts();
    let objective = search_problem(&preds, budget);

    let space = SearchSpace::new(16, NUM_JOB_CONFIGS);
    let dds_result = parallel_search(
        &space,
        &objective,
        &ParallelDdsParams {
            record_explored: true,
            ..Default::default()
        },
    );
    // Budgets are matched by *time*, as in the paper: parallel DDS spreads
    // its candidate evaluations across the chip's cores, while the
    // generational GA is sequential (each generation depends on the last),
    // so in the same couple of milliseconds it completes roughly
    // 1/threads as many evaluations.
    let ga_budget = dds_result.evaluations / ParallelDdsParams::default().threads;
    let ga_result = ga_search(
        &space,
        &objective,
        &GaParams {
            record_explored: true,
            ..GaParams::default().with_evaluation_budget(ga_budget)
        },
    );

    let to_plane = |explored: &[(Vec<usize>, f64)]| -> Vec<(f64, f64)> {
        explored
            .iter()
            .map(|(x, _)| (objective.power(x), 1.0 / objective.benefit(x)))
            .collect()
    };
    let dds_front = pareto(&to_plane(&dds_result.explored));
    let ga_front = pareto(&to_plane(&ga_result.explored));

    let mut table = Table::new(
        "Fig. 10(a): exploration quality in the (power, 1/throughput) plane",
        &[
            "algorithm",
            "evaluations",
            "pareto points",
            "best objective",
            "best under budget",
        ],
    );
    let best_feasible = |points: &[(f64, f64)]| -> String {
        points
            .iter()
            .filter(|(p, _)| *p <= budget)
            .map(|(_, it)| 1.0 / it)
            .fold(f64::NEG_INFINITY, f64::max)
            .to_string()
            .chars()
            .take(6)
            .collect()
    };
    table.row(vec![
        "parallel DDS".into(),
        dds_result.evaluations.to_string(),
        dds_front.len().to_string(),
        format!("{:.4}", dds_result.best_value),
        best_feasible(&to_plane(&dds_result.explored)),
    ]);
    table.row(vec![
        "GA (budget-matched)".into(),
        ga_result.evaluations.to_string(),
        ga_front.len().to_string(),
        format!("{:.4}", ga_result.best_value),
        best_feasible(&to_plane(&ga_result.explored)),
    ]);
    report.table(table);
    report.line(format!(
        "Pareto frontier found by DDS (power W, 1/gmean-BIPS), budget {budget:.1} W:"
    ));
    for (p, it) in dds_front.iter().take(12) {
        report.line(format!("  {p:7.1}  {it:.4}"));
    }
    report.line("Pareto frontier found by GA:");
    for (p, it) in ga_front.iter().take(12) {
        report.line(format!("  {p:7.1}  {it:.4}"));
    }
    report.line("");
}

fn sweep(report: &mut Report, grid: &Grid, mixes: u64) {
    let mut table = Table::new(
        "Fig. 10(b): relative batch throughput, SGD-DDS vs SGD-GA, across power caps",
        &["cap", "SGD-GA", "SGD-DDS", "DDS/GA"],
    );
    // Match the GA's budget by wall-clock, as the paper does: the
    // sequential GA completes ~1/threads of parallel DDS's
    // (50 + 40 iters x 10 points x 8 threads) evaluations in the same time.
    let ga =
        Scheme::CuttleSysGa(GaParams::default().with_evaluation_budget((50 + 40 * 10 * 8) / 8));
    for cap in POWER_CAPS {
        let mut dds_g = Vec::new();
        let mut ga_g = Vec::new();
        for (svc, mix) in colocations(mixes) {
            let dds_run = grid.record(Scheme::CuttleSys, &svc, mix, cap);
            let ga_run = grid.record(ga, &svc, mix, cap);
            let steady_gmean = |r: &cuttlesys::types::RunRecord| {
                let g: Vec<f64> = r
                    .slices
                    .iter()
                    .skip(1)
                    .map(|s| s.batch_gmean_bips.max(1e-9))
                    .collect();
                geo_mean(&g)
            };
            dds_g.push(steady_gmean(&dds_run));
            ga_g.push(steady_gmean(&ga_run));
        }
        let dds_mean = geo_mean(&dds_g);
        let ga_mean = geo_mean(&ga_g);
        table.row(vec![
            format!("{:.0}%", cap * 100.0),
            format!("{ga_mean:.3}"),
            format!("{dds_mean:.3}"),
            ratio(dds_mean / ga_mean),
        ]);
    }
    report.table(table);
    report.line("Paper shape: DDS up to ~1.19x, gap smallest at the 50% cap.");
}

pub(super) fn run(args: &Args, grid: &Grid) -> Report {
    let mode = args.word("mode");
    let mut report = Report::default();
    if mode != "--sweep" {
        scatter(&mut report, grid);
    }
    if mode != "--scatter" {
        sweep(&mut report, grid, args.int("mixes_per_service"));
    }
    report
}
