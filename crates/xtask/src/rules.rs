//! The determinism/concurrency invariant rules.
//!
//! Each rule is a named pass over the token stream of one file (see
//! [`crate::lexer`]); every hit becomes a [`Diagnostic`] with a
//! span-accurate `file:line:col`. A hit is suppressed by an inline
//! `// lint:allow(<RULE>, reason = "...")` on the same line or the line
//! directly above — and the reason is mandatory: an allow without one is
//! itself reported (`LINT-ALLOW-REASON`), as is an allow naming an unknown
//! rule (`LINT-UNKNOWN-RULE`).
//!
//! The rule catalogue (rationale in DESIGN.md §8):
//!
//! | id | scope | invariant |
//! |----|-------|-----------|
//! | `DET-HASH-ITER` | decision-path crates | no `HashMap`/`HashSet`: hasher order must not reach SGD sample streams or plans; iterated maps are `BTreeMap`, lookup-only maps carry an allow |
//! | `DET-WALLCLOCK` | all but its [`ALLOWED_PATHS`] row | no `Instant::now` / `SystemTime` reads in stage logic |
//! | `DET-RAW-SPAWN` | all but its [`ALLOWED_PATHS`] row | no raw `std::thread` / `crossbeam::scope` / `rayon`; parallelism goes through the shared `WorkerPool` |
//! | `DET-RNG` | workspace | all randomness is seeded through `util::rng64` / `StdRng::seed_from_u64`; ambient entropy (`thread_rng`, `from_entropy`, `OsRng`) is banned |
//! | `DET-FLOAT-REDUCE` | decision-path crates | no atomic float accumulation (`fetch_*` over `to_bits`/`from_bits`) or `Mutex<f64>` accumulators; reductions go through `util::reduce` |
//! | `PANIC-POLICY` | decision-path crates | `.unwrap()` / `.expect()` are deny-by-default; each use carries an allow or a clippy `allow(clippy::unwrap_used/expect_used)` with rationale |

use crate::lexer::{lex, Allow, Token};

/// Crates whose source participates in decisions the golden record pins.
/// `cluster` joined when the coordinator landed: cross-node placement,
/// migration, and balancing decide what every node runs, so they are as
/// record-pinned as the per-node decision loop.
pub const DECISION_PATH_CRATES: &[&str] = &["core", "dds", "recsys", "simulator", "cluster"];

/// One rule's path-level exemptions: which files may violate it, and why.
pub struct AllowedPaths {
    /// The rule id these paths are exempt from.
    pub rule: &'static str,
    /// Path fragments (workspace-relative, `/` separators); a file whose
    /// path contains any fragment is exempt.
    pub paths: &'static [&'static str],
    /// Why the exemption exists — rendered by `cargo xtask lint --table`.
    pub rationale: &'static str,
}

/// The per-rule allowed-paths table. This is the workspace's *entire*
/// nondeterminism boundary, in one place: a file not named here obeys
/// every rule (or carries an inline, reasoned `lint:allow`). Growing this
/// table is an architectural decision, not a lint chore.
pub const ALLOWED_PATHS: &[AllowedPaths] = &[
    AllowedPaths {
        rule: "DET-WALLCLOCK",
        paths: &[
            "crates/bench/",
            "crates/core/src/telemetry.rs",
            "crates/service/src/pacing.rs",
            "crates/sweep/src/bin/",
        ],
        rationale: "telemetry and benching are what wall clocks are *for*, and the \
                    service's quantum pacing is the one place live time enters; the \
                    sweep CLI times its run for the console footer only — nothing \
                    timed reaches summary.json; none may feed back into stage logic",
    },
    AllowedPaths {
        rule: "DET-RAW-SPAWN",
        paths: &[
            "crates/util/src/pool.rs",
            "crates/service/src/reactor.rs",
            "crates/service/src/http.rs",
        ],
        rationale: "the worker pool owns the deterministic fan-out threads; the \
                    service's reactor and scrape endpoint own its two long-lived \
                    threads — everything else goes through `util::pool::WorkerPool`",
    },
    AllowedPaths {
        rule: "DET-TAINT",
        paths: &[
            "crates/bench/",
            "crates/sweep/src/bin/",
            "crates/service/src/pacing.rs",
        ],
        rationale: "bench experiments time and report their own runs; the sweep CLI's \
                    clock feeds only the console footer; pacing's clock bounds \
                    *when* a quantum runs, never what it decides — none of these \
                    clock reads count as taint sources",
    },
    AllowedPaths {
        rule: "ORD-TOTAL-FLOAT",
        paths: &[],
        rationale: "scope: decision-path crates plus the bench/sweep reporting \
                    layers; no path is exempt — float comparators use \
                    `f64::total_cmp` or `util::reduce::best` everywhere",
    },
    AllowedPaths {
        rule: "EVT-EXHAUSTIVE",
        paths: &[],
        rationale: "scope: `service` and `sweep` event consumers/renderers; no \
                    path is exempt — a `_` arm over `ControlEvent`/`ClusterEvent` \
                    silently swallows events added later",
    },
    AllowedPaths {
        rule: "SCHEMA-LOCK",
        paths: &[],
        rationale: "scope: the emitter files named in `schema.rs`; the committed \
                    schema.lock is the only sanctioned drift mechanism — update it \
                    with `cargo xtask schema --write` in the same change",
    },
    AllowedPaths {
        rule: "LOCK-ORDER",
        paths: &[],
        rationale: "scope: whole workspace; lock-acquisition order must be \
                    acyclic — there is no path where a deadlock is acceptable",
    },
];

/// The exempt path fragments for `rule` (empty for rules with no
/// path-level exemptions).
pub fn allowed_paths(rule: &str) -> &'static [&'static str] {
    ALLOWED_PATHS
        .iter()
        .find(|entry| entry.rule == rule)
        .map_or(&[], |entry| entry.paths)
}

/// Renders the allowed-paths table (`cargo xtask lint --table`).
pub fn render_allowed_paths() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for entry in ALLOWED_PATHS {
        let _ = writeln!(out, "{}", entry.rule);
        for path in entry.paths {
            let _ = writeln!(out, "  {path}");
        }
        let _ = writeln!(out, "  ({})", entry.rationale);
    }
    out
}

/// Every rule id this linter knows, in report order.
pub const RULE_IDS: &[&str] = &[
    "DET-HASH-ITER",
    "DET-WALLCLOCK",
    "DET-RAW-SPAWN",
    "DET-RNG",
    "DET-FLOAT-REDUCE",
    "PANIC-POLICY",
    "DET-TAINT",
    "ORD-TOTAL-FLOAT",
    "EVT-EXHAUSTIVE",
    "SCHEMA-LOCK",
    "LOCK-ORDER",
    "LINT-ALLOW-REASON",
    "LINT-UNKNOWN-RULE",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `DET-HASH-ITER`.
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

/// What the linter knows about the file being checked.
pub struct FileContext<'a> {
    /// Workspace-relative path, with `/` separators.
    pub path: &'a str,
    /// The `crates/<name>` the file belongs to, if any.
    pub crate_name: Option<&'a str>,
}

impl FileContext<'_> {
    /// Whether the file belongs to a [`DECISION_PATH_CRATES`] crate.
    pub fn decision_path(&self) -> bool {
        self.crate_name
            .is_some_and(|c| DECISION_PATH_CRATES.contains(&c))
    }

    fn in_list(&self, list: &[&str]) -> bool {
        list.iter().any(|frag| self.path.contains(frag))
    }
}

/// Derives the `crates/<name>` component from a workspace-relative path.
pub fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// Lints one file's source text. Returns the surviving diagnostics
/// (allow-suppressed hits removed) plus diagnostics for malformed allows.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let ctx = FileContext {
        path,
        crate_name: crate_of(path),
    };
    let lexed = lex(source);
    let mut raw = Vec::new();
    det_hash_iter(&ctx, &lexed.tokens, &mut raw);
    det_wallclock(&ctx, &lexed.tokens, &mut raw);
    det_raw_spawn(&ctx, &lexed.tokens, &mut raw);
    det_rng(&ctx, &lexed.tokens, &mut raw);
    det_float_reduce(&ctx, &lexed.tokens, &mut raw);
    panic_policy(&ctx, &lexed.tokens, &mut raw);

    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| !is_allowed(&lexed.allows, d))
        .collect();
    allow_hygiene(&ctx, &lexed.allows, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// An allow suppresses a hit of its rule on its own line, the line below,
/// or — so several rules can be allowed for one site — any line reached
/// from the allow through an unbroken run of further allow-comment lines
/// (a *stacked* allow block annotates the first code line after it).
fn is_allowed(allows: &[Allow], d: &Diagnostic) -> bool {
    use std::collections::BTreeSet;
    let allow_lines: BTreeSet<usize> = allows.iter().map(|a| a.line).collect();
    allows.iter().any(|a| {
        a.rule == d.rule
            && a.has_reason
            && (a.line == d.line
                || (a.line < d.line && (a.line + 1..d.line).all(|l| allow_lines.contains(&l))))
    })
}

/// Applies [`is_allowed`] suppression to a batch of diagnostics produced
/// outside `lint_source` (the graph rules lex files themselves).
pub fn suppress(allows: &[Allow], diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| !is_allowed(allows, d))
        .collect()
}

/// Reports allows that are missing a reason or name an unknown rule.
fn allow_hygiene(ctx: &FileContext, allows: &[Allow], out: &mut Vec<Diagnostic>) {
    for a in allows {
        if !RULE_IDS.contains(&a.rule.as_str()) {
            out.push(Diagnostic {
                rule: "LINT-UNKNOWN-RULE",
                file: ctx.path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow names unknown rule `{}`; known rules: {}",
                    a.rule,
                    RULE_IDS.join(", ")
                ),
            });
        } else if !a.has_reason {
            out.push(Diagnostic {
                rule: "LINT-ALLOW-REASON",
                file: ctx.path.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow({}) must carry a reason: `lint:allow({}, reason = \"...\")`",
                    a.rule, a.rule
                ),
            });
        }
    }
}

fn push(
    out: &mut Vec<Diagnostic>,
    ctx: &FileContext,
    tok: &Token,
    rule: &'static str,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        file: ctx.path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    });
}

/// Active identifier tokens, with their index into `tokens`.
fn active_idents<'a>(
    tokens: &'a [Token],
) -> impl Iterator<Item = (usize, &'a Token, &'a str)> + 'a {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.active)
        .filter_map(|(i, t)| t.ident().map(|s| (i, t, s)))
}

/// Whether token `i` sits inside a `use` declaration (between a `use`
/// keyword and its terminating `;`). Imports alone are not hazards; uses
/// at expression sites are what the rules flag.
fn in_use_decl(tokens: &[Token], i: usize) -> bool {
    // Scan back to the nearest `;`, `{`, or `}` that is *not* part of a
    // use-tree, looking for the `use` keyword.
    let mut j = i;
    let mut brace_depth = 0i32;
    loop {
        if j == 0 {
            return false;
        }
        j -= 1;
        let t = &tokens[j];
        match &t.kind {
            k if *k == crate::lexer::TokenKind::Punct('}') => brace_depth += 1,
            k if *k == crate::lexer::TokenKind::Punct('{') => {
                if brace_depth == 0 {
                    // An un-matched `{` opening before us: a use-tree brace
                    // keeps scanning; a block brace means no `use`.
                    // Distinguish by what precedes: use-trees follow `::`.
                    if j >= 1 && tokens[j - 1].is_punct(':') {
                        continue;
                    }
                    return false;
                }
                brace_depth -= 1;
            }
            k if *k == crate::lexer::TokenKind::Punct(';') => return false,
            _ => {
                if t.ident() == Some("use") {
                    return true;
                }
            }
        }
    }
}

/// `seq_follows(tokens, i, &["::", "now"])`-style helper: whether the
/// tokens after `i` match the given idents separated by `::`. Shared with
/// the graph rules (`taint.rs`), which detect the same clock-read shapes.
pub fn path_follows(tokens: &[Token], i: usize, segments: &[&str]) -> bool {
    let mut j = i + 1;
    for seg in segments {
        if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct(':')))
        {
            return false;
        }
        j += 2;
        if tokens.get(j).and_then(Token::ident) != Some(*seg) {
            return false;
        }
        j += 1;
    }
    true
}

fn det_hash_iter(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.decision_path() {
        return;
    }
    for (i, tok, name) in active_idents(tokens) {
        if (name == "HashMap" || name == "HashSet") && !in_use_decl(tokens, i) {
            push(
                out,
                ctx,
                tok,
                "DET-HASH-ITER",
                format!(
                    "`{name}` in a decision-path crate: hasher order is per-process random and \
                     must not reach training-sample or plan order. Iterated maps must be \
                     `BTreeMap`; a provably lookup-only map needs \
                     `lint:allow(DET-HASH-ITER, reason = \"...\")`"
                ),
            );
        }
    }
}

fn det_wallclock(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if ctx.in_list(allowed_paths("DET-WALLCLOCK")) {
        return;
    }
    for (i, tok, name) in active_idents(tokens) {
        let hit = match name {
            "Instant" => path_follows(tokens, i, &["now"]),
            "SystemTime" => {
                path_follows(tokens, i, &["now"]) || path_follows(tokens, i, &["UNIX_EPOCH"])
            }
            _ => false,
        };
        if hit {
            push(
                out,
                ctx,
                tok,
                "DET-WALLCLOCK",
                format!(
                    "`{name}` reads the wall clock outside the telemetry/bench allowlist; \
                     stage logic must be a pure function of its inputs (simulated time lives \
                     in the slice index). Timing for telemetry carries \
                     `lint:allow(DET-WALLCLOCK, reason = \"...\")`"
                ),
            );
        }
    }
}

fn det_raw_spawn(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if ctx.in_list(allowed_paths("DET-RAW-SPAWN")) {
        return;
    }
    for (i, tok, name) in active_idents(tokens) {
        let hit = match name {
            "thread" => {
                path_follows(tokens, i, &["spawn"])
                    || path_follows(tokens, i, &["scope"])
                    || path_follows(tokens, i, &["Builder"])
            }
            "crossbeam" => path_follows(tokens, i, &["scope"]),
            "rayon" => true,
            _ => false,
        };
        if hit {
            push(
                out,
                ctx,
                tok,
                "DET-RAW-SPAWN",
                format!(
                    "raw thread machinery (`{name}`): all fan-out goes through \
                     `util::pool::WorkerPool`, whose helping wait and worker-ordered \
                     scopes the loom models cover. A reference back-end kept for \
                     cross-checks carries `lint:allow(DET-RAW-SPAWN, reason = \"...\")`"
                ),
            );
        }
    }
}

fn det_rng(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    for (i, tok, name) in active_idents(tokens) {
        let hit = matches!(
            name,
            "thread_rng" | "from_entropy" | "OsRng" | "from_os_rng"
        ) || (name == "rand" && path_follows(tokens, i, &["random"]));
        if hit {
            push(
                out,
                ctx,
                tok,
                "DET-RNG",
                format!(
                    "`{name}` draws ambient OS entropy; every random value must derive \
                     from an explicit seed via `util::rng64` (counter-based streams) or \
                     `StdRng::seed_from_u64`, or replays stop replaying"
                ),
            );
        }
    }
}

fn det_float_reduce(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.decision_path() {
        return;
    }
    // Gate: only files that move floats through atomic bit patterns can
    // accumulate floats atomically. (Plain `AtomicUsize` counters and
    // HOGWILD's racy load/store are fine; CAS/fetch accumulation is not.)
    let touches_float_bits =
        active_idents(tokens).any(|(_, _, name)| name == "to_bits" || name == "from_bits");
    for (i, tok, name) in active_idents(tokens) {
        let fetch_hit = touches_float_bits
            && matches!(
                name,
                "fetch_add"
                    | "fetch_sub"
                    | "fetch_update"
                    | "compare_exchange"
                    | "compare_exchange_weak"
            );
        let mutex_f64_hit = name == "Mutex"
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('<'))
            && tokens.get(i + 2).and_then(Token::ident) == Some("f64");
        if fetch_hit || mutex_f64_hit {
            push(
                out,
                ctx,
                tok,
                "DET-FLOAT-REDUCE",
                format!(
                    "`{name}` looks like a shared float accumulator: parallel float \
                     reduction is completion-order-dependent. Deposit per-worker \
                     partials and fold them with `util::reduce` (worker-index order) \
                     after the scope barrier"
                ),
            );
        }
    }
}

fn panic_policy(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.decision_path() {
        return;
    }
    let clippy_covered = clippy_allow_spans(tokens);
    for (i, tok, name) in active_idents(tokens) {
        if name != "unwrap" && name != "expect" {
            continue;
        }
        // Only method calls: `.unwrap(` / `.expect(`.
        let is_method = i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_method {
            continue;
        }
        if clippy_covered
            .iter()
            .any(|&(start, end)| i >= start && i < end)
        {
            continue;
        }
        push(
            out,
            ctx,
            tok,
            "PANIC-POLICY",
            format!(
                "`.{name}()` in a decision-path crate: the runtime degrades through \
                 `Result` + the circuit breaker instead of panicking. Either return a \
                 `StageError`, or document the invariant with \
                 `lint:allow(PANIC-POLICY, reason = \"...\")` or a commented \
                 `#[allow(clippy::{name}_used)]`"
            ),
        );
    }
}

/// Token index ranges covered by `#[allow(clippy::unwrap_used)]` /
/// `#[allow(clippy::expect_used)]` attributes (the PR-3 documented-panic
/// convention): the attribute's item is exempt.
fn clippy_allow_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let bracket = if inner { i + 2 } else { i + 1 };
        let Some(end) = tokens
            .get(bracket)
            .filter(|t| t.is_punct('['))
            .and_then(|_| crate::lexer::matching_bracket_pub(tokens, bracket))
        else {
            i += 1;
            continue;
        };
        let attr = &tokens[bracket + 1..end];
        let is_allow = attr.first().and_then(Token::ident) == Some("allow");
        let covers = attr
            .iter()
            .filter_map(Token::ident)
            .any(|s| s == "unwrap_used" || s == "expect_used");
        if is_allow && covers {
            if inner {
                spans.push((0, tokens.len()));
            } else {
                spans.push((end + 1, crate::lexer::item_end_pub(tokens, end + 1)));
            }
        }
        i = end + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_iter_fires_only_in_decision_path_crates() {
        let src = "fn f() { let m: HashMap<u32, f64> = HashMap::new(); }";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["DET-HASH-ITER", "DET-HASH-ITER"]
        );
        assert!(rules_hit("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn use_declarations_are_not_flagged() {
        let src = "use std::collections::HashMap;\nuse std::collections::{BTreeMap, HashSet};\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_reports() {
        let with = "// lint:allow(DET-HASH-ITER, reason = \"lookup only\")\nlet m: HashMap<u32, f64> = make();";
        assert_eq!(rules_hit("crates/core/src/x.rs", with), Vec::<&str>::new());
        let without = "// lint:allow(DET-HASH-ITER)\nlet m: HashMap<u32, f64> = make();";
        let hits = rules_hit("crates/core/src/x.rs", without);
        assert!(hits.contains(&"LINT-ALLOW-REASON"));
        assert!(hits.contains(&"DET-HASH-ITER"));
    }

    #[test]
    fn stacked_allows_cover_the_first_code_line_below_the_block() {
        // Two rules fire on one line; a stacked pair of allows covers both.
        let src = "\
// lint:allow(DET-HASH-ITER, reason = \"lookup only\")\n\
// lint:allow(PANIC-POLICY, reason = \"len checked above\")\n\
let v = table.get::<HashMap<u32, f64>>().unwrap();";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), Vec::<&str>::new());
        // The chain breaks at the first non-allow line: an allow two lines
        // up with code in between does not leak downward.
        let gapped = "\
// lint:allow(DET-HASH-ITER, reason = \"lookup only\")\n\
let a = 1;\n\
let m: HashMap<u32, f64> = make();";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", gapped),
            vec!["DET-HASH-ITER"]
        );
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// lint:allow(DET-NOPE, reason = \"x\")\nfn f() {}";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["LINT-UNKNOWN-RULE"]
        );
    }

    #[test]
    fn wallclock_respects_the_allowed_paths_table() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["DET-WALLCLOCK"]
        );
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/telemetry.rs", src).is_empty());
        // The service's pacing module is the one clock-reading service file.
        assert!(rules_hit("crates/service/src/pacing.rs", src).is_empty());
        assert_eq!(
            rules_hit("crates/service/src/lib.rs", src),
            vec!["DET-WALLCLOCK"]
        );
        // The type alone (a parameter) is not a clock read.
        assert!(rules_hit("crates/core/src/x.rs", "fn g(t: Instant) {}").is_empty());
    }

    #[test]
    fn the_allowed_paths_table_names_only_known_rules() {
        for entry in ALLOWED_PATHS {
            assert!(RULE_IDS.contains(&entry.rule), "{}", entry.rule);
            // Graph rules may have no exempt paths; their row still
            // documents the scope boundary for `lint --table`.
            assert!(
                !entry.rationale.is_empty(),
                "{} lacks rationale",
                entry.rule
            );
        }
        assert!(allowed_paths("DET-RNG").is_empty());
        let rendered = render_allowed_paths();
        assert!(rendered.contains("DET-WALLCLOCK"));
        assert!(rendered.contains("crates/service/src/pacing.rs"));
    }

    #[test]
    fn raw_spawn_fires_everywhere_but_the_spawn_boundary() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_hit("crates/workloads/src/x.rs", src),
            vec!["DET-RAW-SPAWN"]
        );
        assert!(rules_hit("crates/util/src/pool.rs", src).is_empty());
        // The service's two thread owners are on the table; the rest of the
        // service crate is not.
        assert!(rules_hit("crates/service/src/reactor.rs", src).is_empty());
        assert!(rules_hit("crates/service/src/http.rs", src).is_empty());
        assert_eq!(
            rules_hit("crates/service/src/lib.rs", src),
            vec!["DET-RAW-SPAWN"]
        );
        assert_eq!(
            rules_hit(
                "crates/dds/src/x.rs",
                "fn f() { crossbeam::scope(|s| {}); }"
            ),
            vec!["DET-RAW-SPAWN"]
        );
    }

    #[test]
    fn rng_bans_ambient_entropy_workspace_wide() {
        assert_eq!(
            rules_hit("crates/workloads/src/x.rs", "let mut r = thread_rng();"),
            vec!["DET-RNG"]
        );
        assert_eq!(
            rules_hit("crates/bench/src/x.rs", "let r = StdRng::from_entropy();"),
            vec!["DET-RNG"]
        );
        assert!(rules_hit("crates/dds/src/x.rs", "let r = StdRng::seed_from_u64(7);").is_empty());
    }

    #[test]
    fn float_reduce_needs_the_bitcast_gate() {
        let accum = "fn f(a: &AtomicU64) { a.fetch_add(1.0f64.to_bits(), O); }";
        assert_eq!(
            rules_hit("crates/recsys/src/x.rs", accum),
            vec!["DET-FLOAT-REDUCE"]
        );
        // Integer counters without float bitcasts are fine.
        let counter = "fn f(a: &AtomicUsize) { a.fetch_add(1, O); }";
        assert!(rules_hit("crates/recsys/src/x.rs", counter).is_empty());
        let mutexed = "struct S { acc: Mutex<f64> }";
        assert_eq!(
            rules_hit("crates/dds/src/x.rs", mutexed),
            vec!["DET-FLOAT-REDUCE"]
        );
    }

    #[test]
    fn panic_policy_honors_clippy_allows_and_test_mods() {
        let bare = "fn f() { x.unwrap(); }";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", bare),
            vec!["PANIC-POLICY"]
        );
        let clippy = "#[allow(clippy::unwrap_used)]\nfn f() { x.unwrap(); }";
        assert!(rules_hit("crates/core/src/x.rs", clippy).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }";
        assert!(rules_hit("crates/core/src/x.rs", test_mod).is_empty());
        // `unwrap_or` is not unwrap.
        assert!(rules_hit("crates/core/src/x.rs", "fn f() { x.unwrap_or(0); }").is_empty());
        assert!(rules_hit("crates/workloads/src/x.rs", bare).is_empty());
    }

    #[test]
    fn diagnostics_carry_spans() {
        let d = &lint_source(
            "crates/core/src/x.rs",
            "fn f() {\n  let m = HashMap::new();\n}",
        )[0];
        assert_eq!((d.line, d.col), (2, 11));
        assert_eq!(d.rule, "DET-HASH-ITER");
    }
}
