//! A declarative scenario sweep (DESIGN.md §12): the co-locations × power
//! caps × fault profiles of a scenario file, every cell run once per seed,
//! reduced to the byte-stable `<out>/summary.json` and a detector verdict.
//!
//! The output directory defaults to `runs/<name>`. The runs fan out over a
//! pool of [`WorkerPool::default_threads`] workers; the summary is
//! bit-identical at any width, so the width sets only the speed.
//!
//! The report fails (exit status 2) when any detector tripped. A missing
//! scenario argument, an unreadable file, a spec the loader rejects and an
//! unwritable output are refused (exit status 1).

use std::path::PathBuf;

use sweep::report::{cell_stats, detector_summary, tripped_detectors};
use sweep::{load_spec, run_sweep, summary_json, SweepOutcome, SweepSpec};
use util::json::emit_json;
use util::WorkerPool;

use crate::cli::Args;
use crate::grid::Grid;
use crate::{Report, Table};

pub(super) fn run(args: &Args, _: &Grid) -> Report {
    sweep_report(args.word("scenario"), args.word("--out")).unwrap_or_else(|msg| {
        let mut report = Report::default();
        report.refused = Some(msg);
        report
    })
}

fn sweep_report(scenario: &str, out: &str) -> Result<Report, String> {
    if scenario.is_empty() {
        return Err("a scenario file is required: paper sweep <scenario.json>".to_string());
    }
    let text =
        std::fs::read_to_string(scenario).map_err(|e| format!("cannot read {scenario}: {e}"))?;
    let spec = load_spec(&text).map_err(|e| format!("{scenario}: {e}"))?;
    let outcome = run_sweep(&spec, &WorkerPool::new(WorkerPool::default_threads()));
    let out_dir = match out {
        "" => PathBuf::from("runs").join(&spec.name),
        dir => PathBuf::from(dir),
    };
    let summary_path = out_dir.join("summary.json");
    emit_json(&summary_path, &summary_json(&spec, &outcome))
        .map_err(|e| format!("cannot write {}: {e}", summary_path.display()))?;

    let mut report = Report::default();
    report.table(cells_table(&spec, &outcome));
    report.table(detectors_table(&outcome));
    report.line(format!(
        "{} runs -> {}",
        outcome.total_runs(),
        summary_path.display()
    ));
    report.failed = outcome.tripped();
    report.line(if report.failed {
        "verdict: FAIL (a detector tripped; see the table above)"
    } else {
        "verdict: pass"
    });
    Ok(report)
}

/// One row per cell: its runs, mean QoS violations and batch throughput,
/// and the detectors that tripped in any of its runs.
fn cells_table(spec: &SweepSpec, outcome: &SweepOutcome) -> Table {
    let mut table = Table::new(
        &format!("sweep: {} ({} runs)", spec.name, outcome.total_runs()),
        &[
            "cell",
            "runs",
            "qos viol (mean)",
            "batch Ginstr (mean)",
            "tripped",
        ],
    );
    for cell in &outcome.cells {
        let cs = cell_stats(cell);
        let mean = |name: &str| {
            cs.iter()
                .find(|(m, _)| *m == name)
                .map_or(0.0, |(_, s)| s.mean)
        };
        let tripped = tripped_detectors(cell);
        table.row(vec![
            cell.cell.label(),
            format!("{}", cell.runs.len()),
            format!("{:.2}", mean("qos_violations")),
            format!("{:.3}", mean("batch_instructions") / 1e9),
            if tripped.is_empty() {
                "-".to_string()
            } else {
                tripped.join(",")
            },
        ]);
    }
    table
}

/// Each detector's trip count across the sweep.
fn detectors_table(outcome: &SweepOutcome) -> Table {
    let mut table = Table::new("detectors", &["detector", "trips", "verdict"]);
    for (name, trips) in detector_summary(outcome) {
        table.row(vec![
            name.to_string(),
            format!("{trips}"),
            if trips == 0 { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    table
}
