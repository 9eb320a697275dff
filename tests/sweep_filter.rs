//! `sweep run --filter`: re-running a slice of the grid.
//!
//! The contract has three parts:
//!
//! * *selection* — the filter is a plain substring match against the
//!   exact cell label the pass/fail table prints, so a row copied out
//!   of a failing CI log re-runs that cell verbatim;
//! * *projection* — a filtered sweep's surviving cells are bit-identical
//!   to the same cells of the full sweep (same grid order, same seeds,
//!   same runs), because filtering happens before execution and every
//!   run is deterministic;
//! * *marking* — a filtered summary carries `"partial": true` and the
//!   filter text, and is therefore never byte-comparable with the
//!   golden full `summary.json`.

use sweep::{
    filter_grid, load_spec, run_sweep, run_sweep_cells, summary_json, summary_json_partial,
};
use util::WorkerPool;

fn smoke() -> sweep::SweepSpec {
    let path = format!("{}/scenarios/smoke.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    load_spec(&text).expect("fixture loads")
}

#[test]
fn filter_selects_by_label_substring() {
    let spec = smoke();
    // The smoke grid is steady × 0.7 × clean × {clean, node-crash}.
    let crash = filter_grid(&spec, "fleet=node-crash");
    assert_eq!(crash.len(), 1, "{:?}", crash);
    assert_eq!(
        crash[0].label(),
        "steady cap=0.7 fault=clean fleet=node-crash"
    );
    // An empty filter keeps the whole grid; a miss keeps nothing.
    assert_eq!(filter_grid(&spec, "").len(), 2);
    assert!(filter_grid(&spec, "no such cell").is_empty());
}

#[test]
fn filtered_sweep_is_a_projection_of_the_full_sweep() {
    let spec = smoke();
    let pool = WorkerPool::new(2);
    let full = run_sweep(&spec, &pool);
    let partial = run_sweep_cells(&spec, &pool, filter_grid(&spec, "fleet=node-crash"));
    assert_eq!(partial.cells.len(), 1);
    let full_cell = full
        .cells
        .iter()
        .find(|c| c.cell.fleet_fault == "node-crash")
        .expect("the full sweep ran the node-crash cell");
    // Bit-identical: RunMetrics and findings derive PartialEq, and every
    // run is deterministic, so the filtered cell must match exactly.
    assert_eq!(&partial.cells[0], full_cell);
}

#[test]
fn partial_summary_is_marked_and_distinct_from_the_golden_shape() {
    let spec = smoke();
    let pool = WorkerPool::new(2);
    let cells = filter_grid(&spec, "fleet=node-crash");
    let outcome = run_sweep_cells(&spec, &pool, cells);
    let partial = summary_json_partial(&spec, &outcome, "fleet=node-crash");
    assert_eq!(partial.get("partial").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        partial.get("filter").and_then(|v| v.as_str()),
        Some("fleet=node-crash")
    );
    // The marker fields sit right after the name, so even a filter that
    // happens to match the full grid yields a document that can never be
    // byte-equal to the golden summary.
    let text = partial.to_string();
    assert!(
        text.starts_with("{\"name\":\"smoke\",\"partial\":true,\"filter\":"),
        "marker fields must lead the document: {}",
        &text[..text.len().min(120)]
    );
    // And the unfiltered document stays exactly as the golden test pins it.
    let full = summary_json(&spec, &run_sweep(&spec, &pool));
    assert!(full.get("partial").is_none());
    assert!(full.get("filter").is_none());
}

#[test]
fn filtered_summary_counts_only_the_surviving_runs() {
    let spec = smoke();
    let pool = WorkerPool::new(2);
    let outcome = run_sweep_cells(&spec, &pool, filter_grid(&spec, "fleet=clean"));
    let doc = summary_json_partial(&spec, &outcome, "fleet=clean");
    assert_eq!(
        doc.get("total_runs").and_then(|v| v.as_usize()),
        Some(spec.seeds.len()),
        "one cell x three seeds"
    );
}
