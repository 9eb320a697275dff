//! Fixture-driven tests for the invariant linter.
//!
//! Each file under `tests/fixtures/bad/` is a known-bad snippet that must
//! be flagged at exact spans; each file under `tests/fixtures/good/` is a
//! near-identical twin that must lint clean, pinning each rule's boundary
//! from both sides. The last test runs the whole lint on the workspace
//! itself as a self-gate (see DESIGN.md §8.3).

use std::path::PathBuf;
use xtask::rules::lint_source;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// `(rule, line, col)` triples, sorted as the linter reports them.
fn spans(virtual_path: &str, fixture_name: &str) -> Vec<(&'static str, usize, usize)> {
    lint_source(virtual_path, &fixture(fixture_name))
        .into_iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect()
}

#[test]
fn good_fixtures_lint_clean() {
    // `partial_cmp` comparators in a comment, a string, a raw string and a
    // `#[cfg(test)]` module are out of the rules' reach.
    let hits = spans("crates/dds/src/fixture.rs", "good/exempt_contexts.rs");
    assert!(hits.is_empty(), "{hits:?}");
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
        vec![
            ("EVT-EXHAUSTIVE", 16, 13),
            ("EVT-EXHAUSTIVE", 23, 27),
            ("EVT-EXHAUSTIVE", 33, 9),
        ]
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
    let (diags, files) = xtask::run_lint(&workspace).expect("lint runs");
    let listing: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        listing.join("\n")
    );
    assert!(files > 50, "workspace walk found the crates");
}
