//! Fixture-driven tests for the item-graph rule families.
//!
//! The graph rules see what the per-file lexer cannot: the two-hop
//! taint fixture has no individually suspicious token. Bad fixtures
//! assert exact spans; good fixtures are near-identical twins that must
//! stay clean, pinning each rule's boundary from both sides.

use std::path::PathBuf;
use xtask::analysis::analyze_sources;
use xtask::graph::GraphStats;
use xtask::rules::Diagnostic;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn analyze(virtual_path: &str, fixture_name: &str) -> (Vec<Diagnostic>, GraphStats) {
    analyze_sources(&[(virtual_path, &fixture(fixture_name))])
}

fn spans(virtual_path: &str, fixture_name: &str) -> Vec<(&'static str, usize, usize)> {
    analyze(virtual_path, fixture_name)
        .0
        .into_iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

// --- DET-TAINT -------------------------------------------------------------

#[test]
fn two_hop_taint_is_connected_by_the_call_graph() {
    let (diags, stats) = analyze("crates/core/src/fixture.rs", "bad/taint_two_hop.rs");
    assert_eq!(
        diags
            .iter()
            .map(|d| (d.rule, d.line, d.col))
            .collect::<Vec<_>>(),
        vec![("DET-TAINT", 18, 19)],
        "{diags:?}"
    );
    // The message names the whole flow, sink first, so a reader can
    // judge it without rebuilding the graph by hand.
    assert!(
        diags[0]
            .message
            .contains("core::write_record -> core::gather -> core::snapshot"),
        "{}",
        diags[0].message
    );
    assert_eq!(
        (stats.taint_sources, stats.taint_sinks, stats.taint_paths),
        (1, 1, 1)
    );
}

#[test]
fn unreachable_source_is_not_taint() {
    let (diags, stats) = analyze("crates/core/src/fixture.rs", "good/taint_unreachable.rs");
    assert!(diags.is_empty(), "{diags:?}");
    // The source and sink both exist — there is just no path.
    assert_eq!(
        (stats.taint_sources, stats.taint_sinks, stats.taint_paths),
        (1, 1, 0)
    );
}

#[test]
fn a_reasoned_allow_at_the_source_suppresses_taint() {
    let with_allow = fixture("bad/taint_two_hop.rs").replace(
        "        self.hits.load(Ordering::Relaxed)",
        "        // lint:allow(DET-TAINT, reason = \"diagnostic counter, \
         excluded from golden comparisons\")\n        \
         self.hits.load(Ordering::Relaxed)",
    );
    let (diags, _) = analyze_sources(&[("crates/core/src/fixture.rs", &with_allow)]);
    assert!(diags.is_empty(), "{diags:?}");
}

// --- ORD-TOTAL-FLOAT -------------------------------------------------------

#[test]
fn partial_cmp_comparators_are_flagged_at_exact_spans() {
    assert_eq!(
        spans("crates/dds/src/fixture.rs", "bad/ord_partial_cmp.rs"),
        vec![("ORD-TOTAL-FLOAT", 6, 25), ("ORD-TOTAL-FLOAT", 11, 40),]
    );
}

#[test]
fn total_cmp_is_clean_and_scope_stops_at_decision_crates() {
    let good = spans("crates/dds/src/fixture.rs", "good/ord_total_cmp.rs");
    assert!(good.is_empty(), "{good:?}");
    // The same partial_cmp code outside the decision path and the
    // bench/sweep reporting layers is out of scope.
    let outside = spans("crates/workloads/src/fixture.rs", "bad/ord_partial_cmp.rs");
    assert!(outside.is_empty(), "{outside:?}");
    // …but the bench/sweep reporting layers are in scope.
    let bench = spans("crates/bench/src/fixture.rs", "bad/ord_partial_cmp.rs");
    assert_eq!(bench.len(), 2, "{bench:?}");
}

// --- EVT-EXHAUSTIVE --------------------------------------------------------

#[test]
fn wildcard_arms_over_event_enums_are_flagged() {
    assert_eq!(
        spans("crates/service/src/fixture.rs", "bad/event_wildcard.rs"),
        vec![("EVT-EXHAUSTIVE", 16, 13), ("EVT-EXHAUSTIVE", 23, 27),]
    );
}

#[test]
fn exhaustive_matches_and_non_event_wildcards_are_clean() {
    let good = spans("crates/service/src/fixture.rs", "good/event_exhaustive.rs");
    assert!(good.is_empty(), "{good:?}");
    // Outside the service/sweep consumer crates the rule does not apply:
    // core may pattern-match its own events as it likes.
    let outside = spans("crates/core/src/fixture.rs", "bad/event_wildcard.rs");
    assert!(outside.is_empty(), "{outside:?}");
}

// --- the self-lint gate ------------------------------------------------------

#[test]
fn the_workspace_passes_its_own_lint() {
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits at <workspace>/crates/xtask")
        .to_path_buf();
    let report = xtask::run_lint(&workspace, &xtask::default_roots()).expect("lint runs");
    assert!(
        report.is_clean(),
        "workspace must lint clean:\n{}",
        report.render_text()
    );
    // The graph statistics prove the analysis actually saw the workspace.
    assert!(report.checked_files > 50, "workspace walk found the crates");
    assert!(report.graph.functions > 300, "{:?}", report.graph);
    assert!(report.graph.call_edges > 300, "{:?}", report.graph);
    assert!(report.graph.taint_sinks > 10, "{:?}", report.graph);
    assert!(report.graph.schema_entries > 100, "{:?}", report.graph);
}
