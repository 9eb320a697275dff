//! The per-file token rule, the `lint:allow` machinery and the rule catalogue.
//!
//! A rule hit becomes a [`Diagnostic`] with a span-accurate `file:line:col`.
//! A hit is suppressed by an inline `// lint:allow(<RULE>, reason = "...")`
//! on the same line or the line directly above — and the reason is
//! mandatory: an allow without one is itself reported
//! (`LINT-ALLOW-REASON`), as is an allow naming an unknown rule
//! (`LINT-UNKNOWN-RULE`).
//!
//! The bans an off-the-shelf lint can express — hash-ordered collections,
//! wall-clock reads, raw threads, `unwrap`/`expect` — live in
//! `crates/clippy.toml` and the crate-level `clippy::{unwrap_used,
//! expect_used}` attributes (DESIGN.md §8.1). What stays here is the one
//! token rule clippy has no counterpart for:
//!
//! | id | scope | invariant |
//! |----|-------|-----------|
//! | `DET-FLOAT-REDUCE` | decision-path crates | no atomic float accumulation (`fetch_*` over `to_bits`/`from_bits`) or `Mutex<f64>` accumulators; reductions go through `util::reduce` |

use crate::lexer::{lex, Allow, Token};

/// Crates whose source participates in decisions the golden record pins.
/// `cluster` joined when the coordinator landed: cross-node placement,
/// migration, and balancing decide what every node runs, so they are as
/// record-pinned as the per-node decision loop.
pub const DECISION_PATH_CRATES: &[&str] = &["core", "dds", "recsys", "simulator", "cluster"];

/// Every rule id this linter knows, in report order.
pub const RULE_IDS: &[&str] = &[
    "DET-FLOAT-REDUCE",
    "DET-TAINT",
    "ORD-TOTAL-FLOAT",
    "EVT-EXHAUSTIVE",
    "SCHEMA-LOCK",
    "LINT-ALLOW-REASON",
    "LINT-UNKNOWN-RULE",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id, e.g. `DET-TAINT`.
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
    det_float_reduce(&ctx, &lexed.tokens, &mut raw);

    let mut out = suppress(&lexed.allows, raw);
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

/// Drops the diagnostics a reasoned allow in `allows` covers.
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
            out.push(Diagnostic {
                rule: "DET-FLOAT-REDUCE",
                file: ctx.path.to_string(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{name}` looks like a shared float accumulator: parallel float \
                     reduction is completion-order-dependent. Deposit per-worker \
                     partials and fold them with `util::reduce` (worker-index order) \
                     after the scope barrier"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_reports() {
        let with = "// lint:allow(DET-FLOAT-REDUCE, reason = \"single writer\")\nstruct S { acc: Mutex<f64> }";
        assert_eq!(rules_hit("crates/core/src/x.rs", with), Vec::<&str>::new());
        let without = "// lint:allow(DET-FLOAT-REDUCE)\nstruct S { acc: Mutex<f64> }";
        let hits = rules_hit("crates/core/src/x.rs", without);
        assert!(hits.contains(&"LINT-ALLOW-REASON"));
        assert!(hits.contains(&"DET-FLOAT-REDUCE"));
    }

    #[test]
    fn stacked_allows_cover_the_first_code_line_below_the_block() {
        // A site hit by several rules carries a stacked pair of allows; each
        // reaches the code line through the other.
        let src = "\
// lint:allow(DET-FLOAT-REDUCE, reason = \"single writer\")\n\
// lint:allow(DET-TAINT, reason = \"diagnostic only\")\n\
struct S { acc: Mutex<f64> }";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), Vec::<&str>::new());
        // The chain breaks at the first non-allow line: an allow two lines
        // up with code in between does not leak downward.
        let gapped = "\
// lint:allow(DET-FLOAT-REDUCE, reason = \"single writer\")\n\
let a = 1;\n\
struct S { acc: Mutex<f64> }";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", gapped),
            vec!["DET-FLOAT-REDUCE"]
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
        // Outside the decision path, and inside test modules, it is quiet.
        assert!(rules_hit("crates/workloads/src/x.rs", mutexed).is_empty());
        let test_mod = "#[cfg(test)]\nmod tests { struct S { acc: Mutex<f64> } }";
        assert!(rules_hit("crates/dds/src/x.rs", test_mod).is_empty());
    }

    #[test]
    fn diagnostics_carry_spans() {
        let d = &lint_source("crates/core/src/x.rs", "struct S {\n  acc: Mutex<f64>,\n}")[0];
        assert_eq!((d.line, d.col), (2, 8));
        assert_eq!(d.rule, "DET-FLOAT-REDUCE");
    }
}
