//! The item-graph analysis pass of `cargo xtask lint`.
//!
//! Builds the workspace [`Graph`] once and drives
//! `DET-TAINT` over it, plus the per-file structural rules that share its
//! scope discipline (`ORD-TOTAL-FLOAT`, `EVT-EXHAUSTIVE`). Inline
//! `lint:allow` suppression applies exactly as for the token rule,
//! including stacked allow blocks for sites hit by several rules at once.

use crate::graph::{Graph, GraphStats, SourceFile};
use crate::rules::{self, Diagnostic, FileContext};
use std::collections::BTreeMap;

/// Runs every graph rule over the lexed files. Returns the surviving
/// (allow-suppressed) diagnostics and the graph statistics for the
/// report.
pub fn analyze(files: &[SourceFile]) -> (Vec<Diagnostic>, GraphStats) {
    let graph = Graph::build(files);

    let mut raw = Vec::new();
    let (taint_diags, (sources, sinks, tainted)) = crate::taint::check(&graph);
    raw.extend(taint_diags);
    for file in files {
        let ctx = FileContext {
            path: &file.path,
            crate_name: file.crate_name.as_deref(),
        };
        crate::ordfloat::check(&ctx, &file.lexed.tokens, &mut raw);
        crate::events::check(&ctx, &file.lexed.tokens, &mut raw);
    }

    // Suppress through each diagnostic's own file's allow comments.
    let allows_by_path: BTreeMap<&str, &[crate::lexer::Allow]> = files
        .iter()
        .map(|f| (f.path.as_str(), f.lexed.allows.as_slice()))
        .collect();
    let mut out = Vec::new();
    for diag in raw {
        let allows = allows_by_path
            .get(diag.file.as_str())
            .copied()
            .unwrap_or(&[]);
        out.extend(rules::suppress(allows, vec![diag]));
    }

    let stats = GraphStats {
        functions: graph.fns.iter().filter(|f| f.active).count(),
        call_edges: graph.edge_count(),
        taint_sources: sources,
        taint_sinks: sinks,
        taint_paths: tainted,
        schema_entries: 0, // filled in by the caller after `schema::check`
    };
    (out, stats)
}

/// Convenience for tests and callers holding raw text: lexes `(path,
/// source)` pairs and runs [`analyze`].
pub fn analyze_sources(sources: &[(&str, &str)]) -> (Vec<Diagnostic>, GraphStats) {
    let files: Vec<SourceFile> = sources.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
    analyze(&files)
}
