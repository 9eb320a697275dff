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

/// Crates in scope: the decision path, whose choices the golden record
/// pins (`cluster` included: cross-node placement, migration and balancing
/// decide what every node runs), and the bench/sweep reporting layers,
/// whose float comparisons still shape published artifacts.
const SCOPE_CRATES: &[&str] = &[
    "core",
    "dds",
    "recsys",
    "simulator",
    "cluster",
    "bench",
    "sweep",
];

/// Runs the rule over one file's tokens.
pub fn check(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.crate_name.is_some_and(|c| SCOPE_CRATES.contains(&c)) {
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
        let close = crate::lexer::matching_bracket(tokens, open).unwrap_or(open);
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
