//! §V ablations on the reconstruction algorithm: factor rank, iteration
//! budget, and the lock-free parallel speedup (paper: 3.5x faster with
//! ~1% inaccuracy).

use std::time::Instant;

use recsys::{hogwild, sgd, RatingMatrix, SgdConfig};
use simulator::{JobConfig, NUM_JOB_CONFIGS};
use workloads::batch;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{reference_oracle, Report, Table};

/// The runtime's throughput matrix (log space), plus held-out truth.
#[allow(
    clippy::disallowed_methods,
    reason = "the ablation fills its matrix from, and scores it against, ground truth"
)]
fn matrix_and_truth() -> (RatingMatrix, Vec<Vec<f64>>) {
    let oracle = reference_oracle();
    let training = batch::training_set();
    let testing = batch::testing_set();
    let mut m = RatingMatrix::new(training.len() + testing.len(), NUM_JOB_CONFIGS);
    for (r, app) in training.iter().enumerate() {
        m.fill_row(r, &oracle.bips_row(&app.profile));
    }
    let hi = JobConfig::profiling_high().index();
    let lo = JobConfig::profiling_low().index();
    let mut truth = Vec::new();
    for (i, app) in testing.iter().enumerate() {
        let row = oracle.bips_row(&app.profile);
        m.set(training.len() + i, hi, row[hi]);
        m.set(training.len() + i, lo, row[lo]);
        truth.push(row);
    }
    (m.map(|v| v.ln()), truth)
}

fn held_out_err(model: &recsys::SgdModel, truth: &[Vec<f64>], first_row: usize) -> f64 {
    let mut total = 0.0;
    let mut n = 0;
    for (i, row) in truth.iter().enumerate() {
        for (c, t) in row.iter().enumerate() {
            let p = model.predict(first_row + i, c).exp();
            total += 100.0 * (p - t).abs() / t;
            n += 1;
        }
    }
    total / n as f64
}

#[allow(
    clippy::disallowed_methods,
    reason = "this experiment reports its own wall time; nothing timed feeds a decision"
)]
pub(super) fn run(_: &Args, _: &Grid) -> Report {
    let mut report = Report::default();
    let (m, truth) = matrix_and_truth();
    let first_live = batch::training_set().len();

    let mut table = Table::new(
        "SGD factor rank: held-out accuracy vs cost (108-config throughput matrix)",
        &[
            "rank",
            "held-out mean |err| %",
            "train RMSE (log)",
            "wall time",
        ],
    );
    for rank in [1usize, 2, 4, 8, 16, 108] {
        let config = SgdConfig {
            rank,
            max_iters: 60,
            ..SgdConfig::default()
        };
        let start = Instant::now();
        let model = sgd::fit(&m, &config);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        table.row(vec![
            rank.to_string(),
            format!("{:.1}", held_out_err(&model, &truth, first_live)),
            format!("{:.4}", model.train_rmse),
            format!("{ms:.2} ms"),
        ]);
    }
    report.table(table);
    report.line("(rank 108 is the paper's literal full-rank P/Q; low rank matches its");
    report.line("accuracy at a fraction of the cost, keeping the ms-scale budget.)\n");

    // The speedup study runs at the paper's literal full-rank P/Q
    // (rank = m*p): that is the compute-per-entry regime where HOGWILD
    // parallelism pays. (At the runtime's rank 2 the whole fit is tens of
    // microseconds per epoch and thread overhead dominates.)
    let config = SgdConfig {
        rank: NUM_JOB_CONFIGS,
        max_iters: 120,
        convergence_tol: 0.0,
        ..SgdConfig::default()
    };
    let mut table = Table::new(
        "Lock-free parallel SGD at full rank: speedup and inaccuracy (paper: 3.5x, ~1%)",
        &[
            "threads",
            "wall time",
            "speedup",
            "held-out delta vs serial",
        ],
    );
    let start = Instant::now();
    let serial = sgd::fit(&m, &config);
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let serial_err = held_out_err(&serial, &truth, first_live);
    table.row(vec![
        "1 (serial)".into(),
        format!("{serial_ms:.2} ms"),
        "1.00x".into(),
        "-".into(),
    ]);
    for threads in [2usize, 4, 8] {
        // Real threads, built outside the timed region (no pool = inline).
        let pool = util::WorkerPool::new(threads);
        let start = Instant::now();
        let model = hogwild::fit_parallel_in(Some(&pool), &m, &config, threads);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let err = held_out_err(&model, &truth, first_live);
        table.row(vec![
            threads.to_string(),
            format!("{ms:.2} ms"),
            format!("{:.2}x", serial_ms / ms),
            format!("{:+.1} pp", err - serial_err),
        ]);
    }
    report.table(table);
    report.line("Measured reality on cache-coherent x86: faithful lock-free HOGWILD does not");
    report.line("gain wall-clock here — atomic element accesses defeat vectorization and the");
    report.line("shared column factors ping-pong between cores. The runtime does not need it:");
    report.line("it learns the configuration factors once and folds each live row in inline,");
    report.line("with a closed-form solve, so no SGD runs in a steady-state quantum.");
    report
}
