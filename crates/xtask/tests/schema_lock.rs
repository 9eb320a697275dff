//! Integration tests for the emitted-schema lock (`SCHEMA-LOCK`).
//!
//! Three properties:
//!
//! * *byte stability* — extraction is a pure function of the emitter
//!   sources, and the committed `schema.lock` matches it exactly;
//! * *drift detection* — renaming an emitted metric produces one
//!   diagnostic at the renamed literal (added) and one at the orphaned
//!   lock line (removed), in a toy workspace built on disk;
//! * *bootstrap* — a workspace with emitters but no lock fails with a
//!   single actionable diagnostic pointing at `schema.lock:1:1`.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits at <workspace>/crates/xtask")
        .to_path_buf()
}

#[test]
fn extraction_is_byte_stable_and_matches_the_committed_lock() {
    let ws = workspace_root();
    let a = xtask::schema::extract_workspace(&ws).expect("extracts");
    let b = xtask::schema::extract_workspace(&ws).expect("extracts");
    assert_eq!(
        xtask::schema::render_lock(&a),
        xtask::schema::render_lock(&b),
        "two extractions must render byte-identical lock text"
    );
    let committed =
        fs::read_to_string(ws.join(xtask::schema::LOCK_PATH)).expect("schema.lock is committed");
    assert_eq!(
        committed,
        xtask::schema::render_lock(&a),
        "schema.lock drifted; run `cargo xtask schema --write` and commit the diff"
    );
    let (diags, entries) = xtask::schema::check(&ws).expect("check runs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(entries, a.len());
    // The lock covers all three kinds — the contract is not vacuous.
    for kind in ["metric ", "label ", "json-key "] {
        assert!(
            committed.lines().any(|l| l.starts_with(kind)),
            "no {kind}entries in schema.lock"
        );
    }
}

/// `JsonValue::object([("key", value), ...])` builds locked objects too: a
/// literal opening a tuple element of the array is a key, wherever the
/// call nests; a literal inside a value (`format!`, a call, a nested
/// tuple) is not.
#[test]
fn object_array_tuple_keys_are_extracted_and_values_are_not() {
    let source = r#"
fn to_json(&self) -> JsonValue {
    JsonValue::object([
        ("quantum", self.quantum.into()),
        ("label", format!("{}-x", self.label).into()),
        ("pair", JsonValue::from(("inner", 1))),
        (
            "rows",
            JsonValue::Arr(self.rows.iter().map(|r| JsonValue::object([("row", r.into())])).collect()),
        ),
    ])
}
"#;
    let keys: Vec<String> = xtask::schema::extract(
        "crates/cluster/src/coordinator.rs",
        source,
        xtask::schema::Extract::JsonKeys,
    )
    .into_iter()
    .map(|e| e.name)
    .collect();
    assert_eq!(keys, ["quantum", "label", "pair", "rows", "row"]);
}

/// Builds a minimal workspace with one metrics emitter file.
fn toy_workspace(dir: &Path, metric: &str) {
    let metrics_dir = dir.join("crates/service/src");
    fs::create_dir_all(&metrics_dir).expect("mkdir");
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    fs::write(
        metrics_dir.join("metrics.rs"),
        format!(
            "pub fn render(out: &mut String) {{\n    \
             family(out, \"{metric}\", \"counter\", \"help\");\n    \
             sample(out, \"{metric}\", \"node=\\\"a\\\"\", 1.0);\n}}\n"
        ),
    )
    .expect("emitter");
}

#[test]
fn renaming_a_metric_is_reported_from_both_sides() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema_drift");
    let _ = fs::remove_dir_all(&dir);
    toy_workspace(&dir, "cuttlesys_widgets_total");
    let written = xtask::schema::write_lock(&dir).expect("write lock");
    assert_eq!(written, 2, "one metric + one label key");
    let (clean, _) = xtask::schema::check(&dir).expect("check runs");
    assert!(clean.is_empty(), "{clean:?}");

    // Rename the metric without regenerating the lock.
    toy_workspace(&dir, "cuttlesys_gadgets_total");
    let (diags, _) = xtask::schema::check(&dir).expect("check runs");
    let summary: Vec<(&str, &str, usize)> = diags
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    // Added name anchored at the literal in the emitter (line 2 of the
    // generated file); removed name anchored at its lock file line.
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        summary[0],
        ("SCHEMA-LOCK", "crates/service/src/metrics.rs", 2)
    );
    assert!(diags[0].message.contains("cuttlesys_gadgets_total"));
    assert_eq!(summary[1].1, "schema.lock");
    assert!(diags[1].message.contains("cuttlesys_widgets_total"));
}

#[test]
fn a_missing_lock_with_emitters_is_one_actionable_finding() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema_bootstrap");
    let _ = fs::remove_dir_all(&dir);
    toy_workspace(&dir, "cuttlesys_widgets_total");
    let (diags, entries) = xtask::schema::check(&dir).expect("check runs");
    assert_eq!(entries, 2);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (
            diags[0].rule,
            diags[0].file.as_str(),
            diags[0].line,
            diags[0].col
        ),
        ("SCHEMA-LOCK", "schema.lock", 1, 1)
    );
    assert!(diags[0].message.contains("schema --write"));
}

#[test]
fn a_workspace_with_no_emitters_needs_no_lock() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema_empty");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    let (diags, entries) = xtask::schema::check(&dir).expect("check runs");
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(entries, 0);
}
