//! `SCHEMA-LOCK`: the emitted metric/JSON schema is locked in `schema.lock`.
//!
//! Dashboards scrape `service::metrics` names, and the sweep's per-cell
//! baselines diff `summary.json` keys — renaming either silently orphans
//! every consumer. This pass extracts the emitted names from the emitter
//! sources (no runtime needed) into a generated, sorted, byte-stable
//! `schema.lock` at the workspace root:
//!
//! * **metric** — the name argument of `family(...)` / `sample(...)` calls
//!   in `service::metrics`;
//! * **label** — every `key="` label key inside the same file's literals;
//! * **json-key** — every `("key".to_string(), ...)` / `("key".into(), ...)`
//!   object-key literal in the `util::json` builder files (`to_json` impls,
//!   sweep's `summary_json` writer).
//!
//! `cargo xtask schema --check` (run inside the lint gate) fails on any
//! drift between the sources and the committed lock; a schema change ships
//! with a `cargo xtask schema --write` in the same commit, making the diff
//! reviewable where it belongs.

use crate::lexer::{lex, matching_bracket, Token};
use crate::rules::Diagnostic;
use std::collections::BTreeSet;
use std::path::Path;

/// The lock file's workspace-relative path.
pub const LOCK_PATH: &str = "schema.lock";

/// How a source file's emitted names are extracted.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Extract {
    /// Prometheus exposition: `family(...)`/`sample(...)` names + label keys.
    Metrics,
    /// `util::json` object-key literals.
    JsonKeys,
}

/// The emitter files under schema lock. Bench output is deliberately *not*
/// here: bench JSON is an experiment artifact, not a stability contract.
pub const SCHEMA_SOURCES: &[(&str, Extract)] = &[
    ("crates/cluster/src/coordinator.rs", Extract::JsonKeys),
    ("crates/core/src/control.rs", Extract::JsonKeys),
    ("crates/core/src/telemetry.rs", Extract::JsonKeys),
    ("crates/core/src/types.rs", Extract::JsonKeys),
    ("crates/service/src/metrics.rs", Extract::Metrics),
    ("crates/sweep/src/detectors.rs", Extract::JsonKeys),
    ("crates/sweep/src/report.rs", Extract::JsonKeys),
];

/// One extracted schema entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// `metric`, `label`, or `json-key`.
    pub kind: &'static str,
    /// The emitted name.
    pub name: String,
    /// Workspace-relative emitter file.
    pub file: String,
    /// 1-based line of the defining literal (not written to the lock).
    pub line: usize,
    /// 1-based column of the defining literal (not written to the lock).
    pub col: usize,
}

impl Entry {
    fn lock_line(&self) -> String {
        format!("{} {} {}", self.kind, self.name, self.file)
    }
}

/// Extracts the schema entries from one emitter file's source.
pub fn extract(path: &str, source: &str, mode: Extract) -> Vec<Entry> {
    let tokens = lex(source);
    let mut out = Vec::new();
    match mode {
        Extract::Metrics => {
            for (i, t) in tokens.iter().enumerate() {
                // `family(out, "name", ...)` / `sample(out, "name", ...)`:
                // the first string literal in the argument group.
                if matches!(t.ident(), Some("family") | Some("sample"))
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    let close = matching_bracket(&tokens, i + 1).unwrap_or(i + 1);
                    if let Some(lit) = tokens[i + 1..close].iter().find(|t| t.str_lit().is_some()) {
                        let name = lit.str_lit().unwrap_or_default();
                        if !name.is_empty() {
                            out.push(Entry {
                                kind: "metric",
                                name: name.to_string(),
                                file: path.to_string(),
                                line: lit.line,
                                col: lit.col,
                            });
                        }
                    }
                }
                // Label keys inside any literal: `key="` occurrences.
                if let Some(text) = t.str_lit() {
                    for key in label_keys(text) {
                        out.push(Entry {
                            kind: "label",
                            name: key,
                            file: path.to_string(),
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
        }
        Extract::JsonKeys => {
            for (i, t) in tokens.iter().enumerate() {
                let Some(text) = t.str_lit() else { continue };
                // `( "key" . to_string ( ) ,` / `( "key" . into ( ) ,` —
                // the trailing comma distinguishes a tuple-key position
                // from a plain `Str("value".to_string())` argument.
                let preceded = i > 0 && tokens[i - 1].is_punct('(');
                let key_call = tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
                    && matches!(
                        tokens.get(i + 2).and_then(Token::ident),
                        Some("to_string") | Some("into")
                    )
                    && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
                    && tokens.get(i + 4).is_some_and(|n| n.is_punct(')'))
                    && tokens.get(i + 5).is_some_and(|n| n.is_punct(','));
                if preceded && key_call && !text.is_empty() {
                    out.push(Entry {
                        kind: "json-key",
                        name: text.to_string(),
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                    });
                }
            }
        }
    }
    out
}

/// Label keys in an exposition-format literal: `key="` occurrences.
fn label_keys(text: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = text.as_bytes();
    for idx in 0..bytes.len().saturating_sub(1) {
        if bytes[idx] == b'=' && bytes[idx + 1] == b'"' {
            let mut start = idx;
            while start > 0 {
                let c = bytes[start - 1];
                if c.is_ascii_alphanumeric() || c == b'_' {
                    start -= 1;
                } else {
                    break;
                }
            }
            if start < idx && bytes[start].is_ascii_alphabetic() {
                keys.push(text[start..idx].to_string());
            }
        }
    }
    keys
}

/// Extracts the full schema from the workspace's emitter files (missing
/// files contribute nothing — toy test workspaces have none). Entries are
/// sorted and site-deduplicated.
pub fn extract_workspace(workspace: &Path) -> std::io::Result<Vec<Entry>> {
    let mut entries = Vec::new();
    for (rel, mode) in SCHEMA_SOURCES {
        let abs = workspace.join(rel);
        if !abs.is_file() {
            continue;
        }
        let source = std::fs::read_to_string(&abs)?;
        entries.extend(extract(rel, &source, *mode));
    }
    entries.sort();
    entries.dedup_by(|a, b| a.lock_line() == b.lock_line());
    Ok(entries)
}

/// Renders the byte-stable lock text for the given entries.
pub fn render_lock(entries: &[Entry]) -> String {
    let mut out = String::from(
        "# cuttlesys emitted-schema lock — generated by `cargo xtask schema --write`.\n\
         # One line per emitted name: <kind> <name> <emitter file>; sorted, deduplicated.\n\
         # `cargo xtask schema --check` (and the lint gate) fails on any drift.\n",
    );
    for e in entries {
        out.push_str(&e.lock_line());
        out.push('\n');
    }
    out
}

/// Writes the lock file; returns the entry count.
pub fn write_lock(workspace: &Path) -> std::io::Result<usize> {
    let entries = extract_workspace(workspace)?;
    std::fs::write(workspace.join(LOCK_PATH), render_lock(&entries))?;
    Ok(entries.len())
}

/// Checks the committed lock against the sources. Returns drift
/// diagnostics (empty when in sync) plus the extracted entry count.
pub fn check(workspace: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let entries = extract_workspace(workspace)?;
    let lock_path = workspace.join(LOCK_PATH);
    let mut diags = Vec::new();
    let lock_text = match std::fs::read_to_string(&lock_path) {
        Ok(t) => t,
        Err(_) if entries.is_empty() => return Ok((diags, 0)),
        Err(_) => {
            diags.push(Diagnostic {
                rule: "SCHEMA-LOCK",
                file: LOCK_PATH.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "schema.lock is missing but {} emitted names were extracted; \
                     create it with `cargo xtask schema --write` and commit it",
                    entries.len()
                ),
            });
            return Ok((diags, entries.len()));
        }
    };

    let locked: BTreeSet<&str> = lock_text
        .lines()
        .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
        .collect();
    let current: BTreeSet<String> = entries.iter().map(Entry::lock_line).collect();

    // Names in the sources but not the lock: anchored at the literal.
    for e in &entries {
        if !locked.contains(e.lock_line().as_str()) {
            diags.push(Diagnostic {
                rule: "SCHEMA-LOCK",
                file: e.file.clone(),
                line: e.line,
                col: e.col,
                message: format!(
                    "emitted {} `{}` is not in schema.lock: this changes the \
                     metrics/JSON contract. If intended, run `cargo xtask schema \
                     --write` and commit the lock diff alongside this change",
                    e.kind, e.name
                ),
            });
        }
    }
    // Names in the lock no longer emitted: anchored at the lock line.
    for (li, line) in lock_text.lines().enumerate() {
        if line.trim_start().starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if !current.contains(line) {
            diags.push(Diagnostic {
                rule: "SCHEMA-LOCK",
                file: LOCK_PATH.to_string(),
                line: li + 1,
                col: 1,
                message: format!(
                    "locked name `{line}` is no longer emitted by its source: \
                     consumers scraping it now read nothing. If the removal is \
                     intended, run `cargo xtask schema --write` and commit the diff"
                ),
            });
        }
    }
    Ok((diags, entries.len()))
}
