//! `cargo xtask` — repo-local developer tasks.
//!
//! Two tasks over the same engine:
//!
//! ```text
//! cargo xtask lint             # token + graph rules + schema, exit 1 on hits
//! cargo xtask lint --json      # stable machine-readable v3 report on stdout
//! cargo xtask lint PATH...     # restrict to specific files/directories
//! cargo xtask schema --check   # verify schema.lock matches the emitters
//! cargo xtask schema --write   # regenerate schema.lock
//! ```
//!
//! `lint` holds the analyses no off-the-shelf lint expresses (the bans one
//! does express live in `crates/clippy.toml`, DESIGN.md §8.1): the per-file
//! float-accumulator rule, then — over the workspace item graph
//! (`graph.rs`, §8.3) — taint reachability, float comparator totality,
//! event exhaustiveness, and the schema lock.
//!
//! The crate is a library so the integration tests (`tests/lint_rules.rs`,
//! `tests/graph_rules.rs`, `tests/schema_lock.rs`) drive the same engine
//! the CLI does, over the fixture corpus in `tests/fixtures/`.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod events;
pub mod graph;
pub mod lexer;
pub mod ordfloat;
pub mod report;
pub mod rules;
pub mod schema;
pub mod taint;

use graph::SourceFile;
use report::Report;
use std::path::{Path, PathBuf};

/// Directories never linted: vendored stand-ins are out of policy scope,
/// build output is not source, and the fixture corpus *intentionally*
/// violates every rule.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Lints every `.rs` file under `roots` (workspace-relative paths are
/// resolved against `workspace`): token rule, graph rules, and the schema
/// lock. Returns the sorted report.
pub fn run_lint(workspace: &Path, roots: &[PathBuf]) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for root in roots {
        let abs = if root.is_absolute() {
            root.clone()
        } else {
            workspace.join(root)
        };
        collect_rs_files(&abs, &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut report = Report::default();
    let mut sources = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(workspace)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        report.diagnostics.extend(rules::lint_source(&rel, &source));
        sources.push(SourceFile::new(&rel, &source));
        report.checked_files += 1;
    }

    let (graph_diags, stats) = analysis::analyze(&sources);
    report.diagnostics.extend(graph_diags);
    report.graph = stats;

    let (schema_diags, schema_entries) = schema::check(workspace)?;
    report.diagnostics.extend(schema_diags);
    report.graph.schema_entries = schema_entries;

    report.sort();
    Ok(report)
}

/// The default lint roots: all first-party crate sources.
pub fn default_roots() -> Vec<PathBuf> {
    vec![PathBuf::from("crates")]
}

fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    if !path.is_dir() {
        return Ok(());
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if SKIP_DIRS.contains(&name) {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        collect_rs_files(&entry, out)?;
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first directory
/// containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
