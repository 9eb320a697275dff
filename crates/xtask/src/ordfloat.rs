//! `ORD-TOTAL-FLOAT`: float comparators must impose a total order.
//!
//! `partial_cmp` inside a `sort_by` / `max_by` / `min_by` comparator
//! returns `None` on NaN, and the usual `.unwrap()`/`.expect()` escape
//! turns a single NaN — which the power-blackout fault injection *does*
//! produce — into a panic or, worse, an `Ordering` that varies with
//! element order. Decision-path crates and the bench/sweep reporting
//! layers must compare floats with `f64::total_cmp` (total order over all
//! bit patterns) or reduce through `util::reduce::ordered_best`.

use crate::lexer::Token;
use crate::rules::{Diagnostic, FileContext};

/// Comparator-taking methods whose closure is checked.
const COMPARATOR_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
    "select_nth_unstable_by",
];

/// Crates outside the decision path whose float comparisons still shape
/// published artifacts (bench tables, sweep summaries).
const EXTRA_CRATES: &[&str] = &["bench", "sweep"];

/// Runs the rule over one file's tokens.
pub fn check(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let in_scope = ctx.decision_path() || ctx.crate_name.is_some_and(|c| EXTRA_CRATES.contains(&c));
    if !in_scope {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.active {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if !COMPARATOR_FNS.contains(&name) {
            continue;
        }
        let Some(open) = tokens.get(i + 1).filter(|t| t.is_punct('(')).map(|_| i + 1) else {
            continue;
        };
        let close = crate::lexer::matching_bracket_pub(tokens, open).unwrap_or(open);
        for tok in &tokens[open..=close] {
            if tok.ident() == Some("partial_cmp") {
                out.push(Diagnostic {
                    rule: "ORD-TOTAL-FLOAT",
                    file: ctx.path.to_string(),
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`partial_cmp` inside `{name}`: NaN breaks the comparator (panic \
                         or order-dependent result). Compare with `f64::total_cmp`, or \
                         reduce through `util::reduce::ordered_best`"
                    ),
                });
            }
        }
    }
}
