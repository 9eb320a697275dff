//! `DET-TAINT`: nondeterminism sources must not reach recorded outputs.
//!
//! A *source* is a token-level site whose value depends on something other
//! than the run's inputs: a wall-clock read (`Instant::now`,
//! `SystemTime::now` / `UNIX_EPOCH`) or a `Relaxed` atomic load outside
//! `crates/util` (HOGWILD factor reads, racy counters). A *sink* is a
//! function that writes the artifacts the golden-record and sweep tests pin
//! byte-for-byte: constructors of `RunRecord` / `SliceRecord` /
//! `StageTelemetry` / `TelemetrySummary` / `ControlSnapshot` struct
//! literals, every `to_json` builder, sweep's `summary_json`, and the
//! service's `/metrics` renderers.
//!
//! The rule walks the call graph *forward from each sink*: if a sink
//! function transitively calls a function containing a source site, the
//! source is flagged — anchored at the source token, with the call path in
//! the message so the reader can judge the flow. Survivors carry a reasoned
//! `lint:allow(DET-TAINT, ...)` at the source line; the canonical exemplar
//! is the pipeline's stage stopwatch, whose timing reads are numerically
//! invisible to the plan (see DESIGN.md §8.3).

use crate::graph::Graph;
use crate::lexer::Token;
use crate::rules::Diagnostic;
use std::collections::BTreeMap;

/// Struct literals that count as record/snapshot writes.
const SINK_TYPES: &[&str] = &[
    "RunRecord",
    "SliceRecord",
    "LcSliceRecord",
    "StageTelemetry",
    "TelemetrySummary",
    "ControlSnapshot",
];

/// Functions that are sinks by name, gated by crate so common names like
/// `render` do not make every crate's renderer a sink.
const SINK_FNS: &[(&str, &str)] = &[
    ("sweep", "summary_json"),
    ("service", "render"),
    ("service", "render_cluster"),
];

/// Files whose clock reads are not taint sources (path fragments,
/// workspace-relative): bench experiments time and report their own runs;
/// the sweep CLI's clock feeds only the console footer; pacing's clock
/// bounds *when* a quantum runs, never what it decides.
const EXEMPT_PATHS: &[&str] = &[
    "crates/bench/",
    "crates/sweep/src/bin/",
    "crates/service/src/pacing.rs",
];

/// A direct nondeterminism source site.
#[derive(Debug)]
pub struct SourceSite {
    /// Owning function (index into `Graph::fns`).
    pub fn_idx: usize,
    /// What kind of source this is, for the message.
    pub kind: &'static str,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Runs the rule. Returns raw (pre-allow) diagnostics plus
/// `(sources, sinks, tainted)` counts for the report's graph statistics.
pub fn check(graph: &Graph) -> (Vec<Diagnostic>, (usize, usize, usize)) {
    let sources = source_sites(graph);
    let sinks = sink_fns(graph);

    // Forward BFS from every sink, recording the first (sink, hop-path)
    // that reaches each function. Sinks are visited in index order, so the
    // recorded path is deterministic.
    let mut reached: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &sink in &sinks {
        let mut queue = std::collections::VecDeque::from([sink]);
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        parent.insert(sink, sink);
        while let Some(f) = queue.pop_front() {
            for &callee in &graph.calls_out[f] {
                if !graph.fns[callee].active {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(f);
                    queue.push_back(callee);
                }
            }
        }
        for (&f, _) in parent.iter() {
            reached.entry(f).or_insert_with(|| {
                let mut path = vec![f];
                let mut cur = f;
                while parent[&cur] != cur {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse(); // sink first
                path
            });
        }
    }

    let mut diags = Vec::new();
    let mut tainted = 0usize;
    for site in &sources {
        let Some(path) = reached.get(&site.fn_idx) else {
            continue;
        };
        tainted += 1;
        let file = &graph.files[graph.fns[site.fn_idx].file];
        let chain = path
            .iter()
            .map(|&f| graph.fn_label(f))
            .collect::<Vec<_>>()
            .join(" -> ");
        diags.push(Diagnostic {
            rule: "DET-TAINT",
            file: file.path.clone(),
            line: site.line,
            col: site.col,
            message: format!(
                "{} reaches a recorded output through the call path [{chain}]: the \
                 golden record pins these bytes, so either break the flow or — when \
                 the value is numerically invisible to what is recorded, like the \
                 stage-stopwatch timing reads — document it with \
                 `lint:allow(DET-TAINT, reason = \"...\")`",
                site.kind
            ),
        });
    }
    (diags, (sources.len(), sinks.len(), tainted))
}

/// All direct source sites in active code, outside `EXEMPT_PATHS`
/// and outside `crates/util` (whose `Relaxed` loads are the pool/reduce
/// plumbing itself).
pub fn source_sites(graph: &Graph) -> Vec<SourceSite> {
    let mut out = Vec::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        if !f.active {
            continue;
        }
        let file = &graph.files[f.file];
        if EXEMPT_PATHS.iter().any(|frag| file.path.contains(frag)) {
            continue;
        }
        let Some((start, end)) = f.body else { continue };
        let tokens = &file.lexed.tokens;
        for i in start..=end {
            let Some(name) = tokens[i].ident() else {
                continue;
            };
            let kind = match name {
                "Instant" if path_follows(tokens, i, "now") => "a wall-clock read",
                "SystemTime"
                    if path_follows(tokens, i, "now") || path_follows(tokens, i, "UNIX_EPOCH") =>
                {
                    "a wall-clock read"
                }
                "load" if file.crate_name.as_deref() != Some("util") && relaxed_load(tokens, i) => {
                    "a `Relaxed` atomic load"
                }
                _ => continue,
            };
            out.push(SourceSite {
                fn_idx: fi,
                kind,
                line: tokens[i].line,
                col: tokens[i].col,
            });
        }
    }
    out
}

/// Whether the tokens after `i` are `::name`.
fn path_follows(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).and_then(Token::ident) == Some(name)
}

/// Whether the `load` at token `i` is a method call whose argument group
/// mentions `Relaxed`.
fn relaxed_load(tokens: &[Token], i: usize) -> bool {
    if i == 0 || !tokens[i - 1].is_punct('.') {
        return false;
    }
    let Some(open) = tokens.get(i + 1).filter(|t| t.is_punct('(')).map(|_| i + 1) else {
        return false;
    };
    let close = crate::lexer::matching_bracket_pub(tokens, open).unwrap_or(open);
    tokens[open..=close]
        .iter()
        .any(|t| t.ident() == Some("Relaxed"))
}

/// Indices of the sink functions: record writers and renderers.
fn sink_fns(graph: &Graph) -> Vec<usize> {
    let mut out = Vec::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        if !f.active {
            continue;
        }
        let file = &graph.files[f.file];
        let crate_name = file.crate_name.as_deref().unwrap_or("");
        let named_sink = f.name == "to_json"
            || SINK_FNS
                .iter()
                .any(|(c, n)| *c == crate_name && *n == f.name);
        let writes_record = f.body.is_some_and(|(start, end)| {
            let tokens = &file.lexed.tokens;
            (start..end).any(|i| {
                tokens[i].ident().is_some_and(|n| SINK_TYPES.contains(&n))
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
            })
        });
        if named_sink || writes_record {
            out.push(fi);
        }
    }
    out
}
