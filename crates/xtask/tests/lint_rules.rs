//! Fixture-driven tests for the invariant linter.
//!
//! Each file under `tests/fixtures/bad/` is a known-bad snippet that must
//! be flagged with the right rule id; each file under
//! `tests/fixtures/good/` must lint clean under the virtual path named in
//! its header. These cover the per-file token rule and the `lint:allow`
//! hygiene rules; `graph_rules.rs` covers the rest (see DESIGN.md §8).

use std::path::PathBuf;
use xtask::report::Report;
use xtask::rules::{lint_source, Diagnostic};

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
fn bad_float_reduce_flags_mutex_and_fetch_accumulators() {
    let hits = spans("crates/dds/src/fixture.rs", "bad/det_float_reduce.rs");
    let rules: Vec<&str> = hits.iter().map(|h| h.0).collect();
    assert_eq!(
        rules,
        vec!["DET-FLOAT-REDUCE", "DET-FLOAT-REDUCE"],
        "{hits:?}"
    );
}

#[test]
fn bad_allow_hygiene_reports_and_does_not_suppress() {
    let hits = spans("crates/core/src/fixture.rs", "bad/allow_hygiene.rs");
    let rules: Vec<&str> = hits.iter().map(|h| h.0).collect();
    assert!(rules.contains(&"LINT-ALLOW-REASON"), "{hits:?}");
    assert!(rules.contains(&"LINT-UNKNOWN-RULE"), "{hits:?}");
    assert!(
        rules.contains(&"DET-FLOAT-REDUCE"),
        "a reason-less allow must not suppress: {hits:?}"
    );
}

#[test]
fn good_fixtures_lint_clean() {
    for (virtual_path, name) in [
        ("crates/core/src/fixture.rs", "good/annotated.rs"),
        ("crates/dds/src/fixture.rs", "good/exempt_contexts.rs"),
        ("crates/workloads/src/fixture.rs", "good/out_of_scope.rs"),
    ] {
        let hits = spans(virtual_path, name);
        assert!(hits.is_empty(), "{name} as {virtual_path}: {hits:?}");
    }
}

// --- JSON report stability -------------------------------------------------

fn sample_report() -> Report {
    let mut report = Report {
        checked_files: 2,
        diagnostics: lint_source(
            "crates/dds/src/fixture.rs",
            &fixture("bad/det_float_reduce.rs"),
        ),
        graph: Default::default(),
    };
    report.diagnostics.extend(lint_source(
        "crates/core/src/fixture.rs",
        &fixture("bad/allow_hygiene.rs"),
    ));
    report.sort();
    report
}

#[test]
fn json_report_is_byte_stable() {
    assert_eq!(
        sample_report().render_json(),
        sample_report().render_json(),
        "same diagnostics must render byte-identical JSON"
    );
}

#[test]
fn json_report_is_well_formed_and_complete() {
    let report = sample_report();
    let json = report.render_json();
    check_json(&json);
    assert!(json.contains("\"version\": 3"));
    assert!(
        json.contains("\"graph\": {"),
        "the report carries graph stats"
    );
    assert!(json.contains("\"checked_files\": 2"));
    // Every diagnostic appears with its span.
    for d in &report.diagnostics {
        assert!(json.contains(&format!(
            "\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}",
            d.rule, d.file, d.line, d.col
        )));
    }
    // Counts cover every rule in the catalogue, zeroes included.
    for rule in xtask::rules::RULE_IDS {
        assert!(
            json.contains(&format!("\"{rule}\":")),
            "missing count for {rule}"
        );
    }
}

#[test]
fn json_escapes_hostile_content() {
    let mut report = Report::default();
    report.diagnostics.push(Diagnostic {
        rule: "DET-TAINT",
        file: "crates/core/src/weird\"name.rs".into(),
        line: 1,
        col: 1,
        message: "quote \" backslash \\ newline \n tab \t".into(),
    });
    check_json(&report.render_json());
}

/// A minimal structural JSON validator: enough to prove the report is
/// parseable (balanced containers, quoted keys, escaped strings) without a
/// JSON dependency, which the offline container cannot add.
fn check_json(s: &str) {
    let mut stack = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => stack.push('}'),
            '[' => stack.push(']'),
            '}' | ']' => assert_eq!(stack.pop(), Some(c), "unbalanced at `{c}`"),
            '"' => {
                // Consume the string, honoring escapes; reject raw control chars.
                loop {
                    match chars.next() {
                        Some('\\') => {
                            let e = chars.next().expect("dangling escape");
                            assert!(
                                matches!(e, '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u'),
                                "bad escape \\{e}"
                            );
                            if e == 'u' {
                                for _ in 0..4 {
                                    let h = chars.next().expect("short \\u escape");
                                    assert!(h.is_ascii_hexdigit(), "bad \\u digit {h}");
                                }
                            }
                        }
                        Some('"') => break,
                        Some(c) => assert!(
                            (c as u32) >= 0x20,
                            "raw control character {:#x} inside string",
                            c as u32
                        ),
                        None => panic!("unterminated string"),
                    }
                }
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed containers: {stack:?}");
}
