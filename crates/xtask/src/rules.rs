//! The rule catalogue, the diagnostic type, and the per-file pass.
//!
//! A rule hit becomes a [`Diagnostic`] with a span-accurate `file:line:col`.
//! The bans an off-the-shelf lint can express — hash-ordered collections,
//! wall-clock reads, raw threads, atomic read-modify-writes and atomic loads,
//! `unwrap`/`expect` — live in `crates/clippy.toml` and the crate-level
//! `clippy::{unwrap_used, expect_used}` attributes (DESIGN.md §8.1). What
//! stays here is what clippy misses on a planted case:
//!
//! | id | scope | invariant |
//! |----|-------|-----------|
//! | `ORD-TOTAL-FLOAT` | decision-path crates + `bench`, `sweep` | no `partial_cmp` inside a sort/max/min/search comparator (`ordfloat.rs`) |
//! | `EVT-EXHAUSTIVE` | `service`, `sweep` | no catch-all arm and no `matches!` over an event enum (`events.rs`) |
//! | `SCHEMA-LOCK` | the emitter files | emitted names match `schema.lock` (`schema.rs`) |
//!
//! A hit has no escape hatch: each one is fixable in place.

use crate::lexer::lex;
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `EVT-EXHAUSTIVE`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// What the linter knows about the file being checked.
pub struct FileContext<'a> {
    /// Workspace-relative path, with `/` separators.
    pub path: &'a str,
    /// The `crates/<name>` the file belongs to, if any.
    pub crate_name: Option<&'a str>,
}

/// Derives the `crates/<name>` component from a workspace-relative path.
pub fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Lexes one file once and runs the token rules over it. Returns the
/// diagnostics sorted by position.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = FileContext {
        path,
        crate_name: crate_of(path),
    };
    let tokens = lex(source);
    let mut out = Vec::new();
    crate::ordfloat::check(&ctx, &tokens, &mut out);
    crate::events::check(&ctx, &tokens, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}
