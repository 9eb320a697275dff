//! §VI / §VIII-A3 ablation: DDS solution quality vs iteration budget.
//!
//! "As maxIter increases, the quality of the solution obtained improves,
//! but at the same time the time required to run the algorithm also
//! increases. We explore this trade-off ... and select the appropriate
//! number of iterations" (the paper lands on 40, Fig. 6).

use std::time::Instant;

use dds::{parallel_search, ParallelDdsParams, SearchSpace};
use simulator::NUM_JOB_CONFIGS;
use workloads::batch;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{search_problem, two_sample_predictions, Report, Table};

#[allow(
    clippy::disallowed_methods,
    reason = "this experiment reports its own wall time; nothing timed feeds a decision"
)]
pub(super) fn run(_: &Args, grid: &Grid) -> Report {
    // The runtime's actual search problem, built from SGD predictions.
    let preds = two_sample_predictions(
        &batch::mix(16, batch::STANDARD_MIX_SEED).profiles(),
        grid.libraries(),
    );
    let objective = search_problem(&preds, 70.0);
    let space = SearchSpace::new(16, NUM_JOB_CONFIGS);

    let mut table = Table::new(
        "Parallel DDS: solution quality vs iteration budget (Fig. 6 uses 40)",
        &["maxIter", "best objective", "vs maxIter=640", "wall time"],
    );
    let reference = parallel_search(
        &space,
        &objective,
        &ParallelDdsParams {
            max_iters: 640,
            ..Default::default()
        },
    )
    .best_value;
    for iters in [5usize, 10, 20, 40, 80, 160] {
        let params = ParallelDdsParams {
            max_iters: iters,
            ..Default::default()
        };
        let start = Instant::now();
        let mut best = 0.0;
        const REPS: u32 = 9;
        for _ in 0..REPS {
            best = parallel_search(&space, &objective, &params).best_value;
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
        table.row(vec![
            iters.to_string(),
            format!("{best:.4}"),
            format!("{:.1}%", 100.0 * best / reference),
            format!("{ms:.2} ms"),
        ]);
    }
    let mut report = Report::default();
    report.table(table);
    report.line("Expected shape: steep gains up to ~40 iterations, flat afterwards —");
    report.line("which is why Fig. 6 stops there to stay inside the ms-scale budget.");
    report
}
