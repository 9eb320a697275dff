//! `cargo xtask` — repo-local developer tasks.
//!
//! ```text
//! cargo xtask lint             # token rules + schema lock, exit 1 on hits
//! cargo xtask schema --check   # verify schema.lock matches the emitters
//! cargo xtask schema --write   # regenerate schema.lock
//! ```
//!
//! `lint` holds only what clippy misses on a planted case (the bans it does
//! express live in `crates/clippy.toml`, DESIGN.md §8.1): float comparator
//! totality, event exhaustiveness, and the schema lock (§8.3).
//!
//! The crate is a library so the integration tests (`tests/lint_rules.rs`,
//! `tests/schema_lock.rs`) drive the same engine the CLI does, over the
//! fixture corpus in `tests/fixtures/`.

#![forbid(unsafe_code)]

pub mod events;
pub mod lexer;
pub mod ordfloat;
pub mod rules;
pub mod schema;

use rules::Diagnostic;
use std::path::{Path, PathBuf};

/// Directories never linted: vendored stand-ins are out of policy scope,
/// build output is not source, and the fixture corpus *intentionally*
/// violates every rule.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Lints every `.rs` file under `<workspace>/crates` with the token rules,
/// then checks the schema lock. Returns the diagnostics, sorted by
/// `(file, line, col, rule)`, and the number of files checked.
pub fn run_lint(workspace: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(&workspace.join("crates"), &mut files)?;
    files.sort();

    let mut diags = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(workspace)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(rules::lint_source(&rel, &source));
    }
    diags.extend(schema::check(workspace)?.0);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok((diags, files.len()))
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
