//! The workspace item graph the analysis rules run on.
//!
//! Built on the span-accurate lexer (`syn` is unavailable offline), this
//! module recovers just enough structure for conservative whole-workspace
//! reasoning: every `fn` item with its body token range, the call sites
//! inside each body, the crate roots a file imports through its `use`
//! declarations, and the merged call graph across all files. There is no
//! type inference — calls resolve *by name*, gated so an edge only forms
//! when the callee's crate is the caller's own crate or one the caller
//! imports. That over-approximates real calls (same-name functions in one
//! crate alias each other), which is the right direction for the taint
//! rule: it must never miss a path; spurious paths surface in review and
//! earn either a fix or a reasoned allow.

use crate::lexer::{lex, Lexed, Token};
use crate::rules::crate_of;
use std::collections::{BTreeMap, BTreeSet};

/// One source file, lexed once and shared by every analysis pass.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The `crates/<name>` component, if any.
    pub crate_name: Option<String>,
    /// The lex (tokens + allow comments).
    pub lexed: Lexed,
}

impl SourceFile {
    /// Lexes `source` under the given workspace-relative path.
    pub fn new(path: &str, source: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_name: crate_of(path).map(str::to_string),
            lexed: lex(source),
        }
    }
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (last path segment before the `(`).
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// 1-based column of the name token.
    pub col: usize,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnDef {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// 1-based column of the name token.
    pub col: usize,
    /// Token index range of the body block, `{` inclusive to `}` inclusive.
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the item is live runtime code (not `#[cfg(test)]`-gated).
    pub active: bool,
    /// Call sites inside the body, in token order.
    pub calls: Vec<CallSite>,
}

/// Statistics for the JSON report (`"graph": { ... }`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of `fn` items found (active ones only).
    pub functions: usize,
    /// Number of resolved intra-workspace call edges.
    pub call_edges: usize,
    /// Direct nondeterminism source sites (pre-allow).
    pub taint_sources: usize,
    /// Record/summary-writing sink functions.
    pub taint_sinks: usize,
    /// Source sites reachable from a sink (pre-allow).
    pub taint_paths: usize,
    /// Entries in the generated schema (metric names, label keys, JSON keys).
    pub schema_entries: usize,
}

/// The merged workspace item graph.
pub struct Graph<'a> {
    /// The lexed files the graph was built from.
    pub files: &'a [SourceFile],
    /// Every active `fn` item, globally indexed.
    pub fns: Vec<FnDef>,
    /// Callee indices per function (deduplicated, sorted).
    pub calls_out: Vec<Vec<usize>>,
    /// Caller indices per function (deduplicated, sorted).
    pub calls_in: Vec<Vec<usize>>,
    /// Crate roots imported per file (`use dds::...` → `dds`), plus the
    /// file's own crate.
    pub imports: Vec<BTreeSet<String>>,
}

/// Rust keywords and control forms that look like `name (` at a call site
/// but are not calls.
const NOT_CALLS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "move", "in", "as", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "unsafe",
    "async", "await", "struct", "enum", "union", "trait", "type", "const", "static", "crate",
    "self", "Self", "super", "box", "yield",
];

/// Cargo package names that differ from their `crates/<dir>` directory:
/// `use cuttlesys::...` imports the `crates/core` sources.
const CRATE_ALIASES: &[(&str, &str)] = &[("cuttlesys", "core")];

/// Maps an imported root ident to the `crates/<dir>` directory it names.
fn import_to_dir(root: &str) -> &str {
    CRATE_ALIASES
        .iter()
        .find(|(pkg, _)| *pkg == root)
        .map_or(root, |(_, dir)| dir)
}

impl<'a> Graph<'a> {
    /// Builds the merged graph over `files`.
    pub fn build(files: &'a [SourceFile]) -> Graph<'a> {
        let mut fns = Vec::new();
        let mut imports = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let tokens = &file.lexed.tokens;
            fns.extend(parse_fns(fi, tokens));
            let mut roots = import_roots(tokens);
            if let Some(c) = &file.crate_name {
                roots.insert(c.clone());
            }
            imports.push(roots);
        }

        // Name → candidate fn indices, for edge resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }

        let mut calls_out: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        let mut calls_in: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (ci, caller) in fns.iter().enumerate() {
            let caller_crate = files[caller.file].crate_name.as_deref();
            let visible = &imports[caller.file];
            for call in &caller.calls {
                for &ti in by_name.get(call.name.as_str()).into_iter().flatten() {
                    let callee_crate = files[fns[ti].file].crate_name.as_deref();
                    let in_scope = match (caller_crate, callee_crate) {
                        (Some(a), Some(b)) => {
                            a == b || visible.iter().any(|r| import_to_dir(r) == b)
                        }
                        _ => caller_crate == callee_crate,
                    };
                    if in_scope && ti != ci {
                        calls_out[ci].push(ti);
                        calls_in[ti].push(ci);
                    }
                }
            }
        }
        for v in calls_out.iter_mut().chain(calls_in.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }

        Graph {
            files,
            fns,
            calls_out,
            calls_in,
            imports,
        }
    }

    /// The number of resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.calls_out.iter().map(Vec::len).sum()
    }

    /// A stable human-readable handle for a function: `crate::name`.
    pub fn fn_label(&self, i: usize) -> String {
        match &self.files[self.fns[i].file].crate_name {
            Some(c) => format!("{c}::{}", self.fns[i].name),
            None => self.fns[i].name.clone(),
        }
    }
}

/// Parses every active `fn` item out of one file's token stream.
fn parse_fns(file: usize, tokens: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() != Some("fn") {
            i += 1;
            continue;
        }
        // `fn` in type position (`fn(usize) -> bool`) has no name ident.
        let Some(name_tok) = tokens.get(i + 1) else {
            break;
        };
        let Some(name) = name_tok.ident() else {
            i += 1;
            continue;
        };
        // Walk to the body `{` (or a `;` for bodyless trait methods),
        // skipping parenthesized/bracketed groups — parens appear in both
        // generic bounds (`F: Fn(usize)`) and the parameter list.
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                let end = crate::lexer::matching_bracket_pub(tokens, j).unwrap_or(tokens.len() - 1);
                body = Some((j, end));
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                j = crate::lexer::matching_bracket_pub(tokens, j).map_or(tokens.len(), |c| c + 1);
                continue;
            }
            j += 1;
        }
        let calls = body.map_or_else(Vec::new, |(s, e)| call_sites(&tokens[s..=e]));
        out.push(FnDef {
            file,
            name: name.to_string(),
            line: name_tok.line,
            col: name_tok.col,
            body,
            active: name_tok.active,
            calls,
        });
        i = body.map_or(j + 1, |(_, e)| e + 1);
    }
    out
}

/// Call sites in a body token slice: `name (` where `name` is not a
/// keyword, not a macro invocation (`name!(`), and not a definition.
fn call_sites(body: &[Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if NOT_CALLS.contains(&name) {
            continue;
        }
        // Nested `fn` definitions inside the body are not calls.
        if i > 0 && body[i - 1].ident() == Some("fn") {
            continue;
        }
        // Only `name (` is a call. `name!(` is a macro; `name::seg(` is
        // reached at its last segment by this same loop.
        if body.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            out.push(CallSite {
                name: name.to_string(),
                line: t.line,
                col: t.col,
            });
        }
    }
    out
}

/// Crate roots named by `use` declarations: `use dds::parallel::x;` → `dds`.
fn import_roots(tokens: &[Token]) -> BTreeSet<String> {
    let mut roots = BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].ident() == Some("use") {
            // The root is the first ident after `use` (skipping leading `::`).
            let mut j = i + 1;
            while tokens.get(j).is_some_and(|t| t.is_punct(':')) {
                j += 1;
            }
            if let Some(root) = tokens.get(j).and_then(Token::ident) {
                if !matches!(root, "std" | "core" | "alloc" | "crate" | "self" | "super") {
                    roots.insert(root.to_string());
                }
            }
            // Skip to the terminating `;`, stepping over use-tree braces.
            while j < tokens.len() && !tokens[j].is_punct(';') {
                if tokens[j].is_punct('{') {
                    j = crate::lexer::matching_bracket_pub(tokens, j).map_or(tokens.len(), |c| c);
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(specs: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<(String, Vec<String>)>) {
        let files: Vec<SourceFile> = specs.iter().map(|(p, s)| SourceFile::new(p, s)).collect();
        let g = Graph::build(&files);
        let shaped = g
            .fns
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    f.name.clone(),
                    g.calls_out[i]
                        .iter()
                        .map(|&t| g.fns[t].name.clone())
                        .collect(),
                )
            })
            .collect();
        (files, shaped)
    }

    #[test]
    fn fns_and_same_crate_edges_are_found() {
        let (_, shaped) = graph_of(&[(
            "crates/dds/src/a.rs",
            "fn leaf() {}\nfn caller() { leaf(); other(); }",
        )]);
        assert_eq!(shaped[0], ("leaf".into(), vec![]));
        assert_eq!(shaped[1], ("caller".into(), vec!["leaf".into()]));
    }

    #[test]
    fn cross_crate_edges_require_an_import() {
        let lib = ("crates/recsys/src/lib.rs", "pub fn fit() {}");
        let importing = (
            "crates/core/src/a.rs",
            "use recsys::fit;\nfn run() { fit(); }",
        );
        let blind = ("crates/cluster/src/b.rs", "fn run2() { fit(); }");
        let (_, shaped) = graph_of(&[lib, importing, blind]);
        let find = |n: &str| shaped.iter().find(|(f, _)| f == n).unwrap().1.clone();
        assert_eq!(find("run"), vec!["fit".to_string()]);
        assert!(find("run2").is_empty(), "no import, no edge");
    }

    #[test]
    fn the_cuttlesys_alias_reaches_the_core_crate() {
        let (_, shaped) = graph_of(&[
            ("crates/core/src/lib.rs", "pub fn decide() {}"),
            (
                "crates/service/src/a.rs",
                "use cuttlesys::pipeline;\nfn step() { decide(); }",
            ),
        ]);
        let step = shaped.iter().find(|(f, _)| f == "step").unwrap();
        assert_eq!(step.1, vec!["decide".to_string()]);
    }

    #[test]
    fn method_calls_and_generic_signatures_parse() {
        let (_, shaped) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn apply<F: Fn(usize) -> bool>(f: F) -> bool { f(1) }\n\
             fn render() {}\n\
             fn page(r: &R) { r.render(); }",
        )]);
        let page = shaped.iter().find(|(f, _)| f == "page").unwrap();
        assert_eq!(page.1, vec!["render".to_string()]);
    }

    #[test]
    fn macros_keywords_and_test_items_are_not_call_targets() {
        let files: Vec<SourceFile> = vec![SourceFile::new(
            "crates/core/src/a.rs",
            "fn live() { println!(\"x\"); if cond() { } }\n\
             #[cfg(test)]\nmod t { fn gated() { live(); } }",
        )];
        let g = Graph::build(&files);
        let names: Vec<&str> = g
            .fns
            .iter()
            .filter(|f| f.active)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["live"]);
        let live = &g.fns[0];
        assert!(
            live.calls.iter().all(|c| c.name != "println"),
            "macro flagged as call: {:?}",
            live.calls
        );
        assert!(live.calls.iter().any(|c| c.name == "cond"));
    }
}
