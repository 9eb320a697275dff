//! The sweep determinism contract: one scenario, one byte sequence.
//!
//! `summary.json` must be bit-identical (1) at any worker-pool width,
//! because results land in pre-assigned slots regardless of scheduling;
//! (2) for any on-disk seed ordering, because seeds are canonicalized
//! (sorted, deduplicated) at load time; (3) between parallel and
//! serial execution, which is the width-1 case of (1). The fixture is the
//! same `scenarios/smoke.json` the golden test pins, so this file and
//! `tests/sweep.rs` together say: every width and every ordering
//! reproduces the golden bytes.

use sweep::{load_spec, run_sweep, summary_json};
use util::WorkerPool;

fn smoke_text() -> String {
    let path = format!("{}/scenarios/smoke.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("fixture exists")
}

#[test]
fn summary_bytes_are_identical_at_widths_1_2_and_8() {
    let spec = load_spec(&smoke_text()).expect("fixture loads");
    let mut summaries = Vec::new();
    for width in [1usize, 2, 8] {
        let pool = WorkerPool::new(width);
        let outcome = run_sweep(&spec, &pool);
        summaries.push(summary_json(&spec, &outcome).to_string());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "serial (width 1) and width-2 sweeps must agree byte-for-byte"
    );
    assert_eq!(
        summaries[1], summaries[2],
        "width-2 and width-8 sweeps must agree byte-for-byte"
    );
}

#[test]
fn shuffled_and_duplicated_seed_orderings_load_to_the_same_sweep() {
    let text = smoke_text();
    assert!(
        text.contains("[7, 11, 23]"),
        "test assumes the smoke fixture's seed list"
    );
    let shuffled = text.replace("[7, 11, 23]", "[23, 7, 11, 7, 23]");
    let a = load_spec(&text).expect("fixture loads");
    let b = load_spec(&shuffled).expect("shuffled fixture loads");
    assert_eq!(a.seeds, b.seeds, "seeds canonicalize at load time");

    let pool = WorkerPool::new(2);
    let sa = summary_json(&a, &run_sweep(&a, &pool)).to_string();
    let sb = summary_json(&b, &run_sweep(&b, &pool)).to_string();
    assert_eq!(
        sa, sb,
        "seed ordering on disk must not change a single summary byte"
    );
}
