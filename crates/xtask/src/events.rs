//! `EVT-EXHAUSTIVE`: event consumers must decide every variant.
//!
//! Inside the `service` and `sweep` crates — the renderers and aggregators
//! that turn `ControlEvent` / `ClusterEvent` streams into `/metrics`
//! lines and sweep summaries — a catch-all arm over an event enum
//! silently swallows every variant added later: the event compiles, flows,
//! and vanishes from the artifacts it should have changed. The rule flags
//!
//! * catch-all arms — `_ =>` and a bare binding such as `other =>` — in
//!   `match`es whose scrutinee or arm patterns name an event enum, and
//! * `matches!(e, Event::X { .. })` over an event enum, which desugars to
//!   exactly such a wildcard.
//!
//! Adding a variant then fails compilation (or this lint) at every
//! consumer, forcing each to decide. (`clippy::wildcard_enum_match_arm`
//! misses `matches!` and tuple scrutinees, so the rule stays here.)

use crate::lexer::{matching_bracket, Token};
use crate::rules::{Diagnostic, FileContext};

/// The event enums whose consumers are held exhaustive.
const EVENT_ENUMS: &[&str] = &["ControlEvent", "ClusterEvent"];

/// Crates in scope: the event consumers/renderers.
const SCOPE_CRATES: &[&str] = &["service", "sweep"];

/// Runs the rule over one file's tokens.
pub fn check(ctx: &FileContext, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    if !ctx.crate_name.is_some_and(|c| SCOPE_CRATES.contains(&c)) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.active {
            continue;
        }
        match t.ident() {
            Some("match") => check_match(ctx, tokens, i, out),
            Some("matches")
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct('(')) =>
            {
                let close = matching_bracket(tokens, i + 2).unwrap_or(i + 2);
                if mentions_event_enum(&tokens[i + 2..=close]) {
                    out.push(Diagnostic {
                        rule: "EVT-EXHAUSTIVE",
                        file: ctx.path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: "`matches!` over an event enum desugars to a `_` wildcard \
                                  arm: variants added later are silently ignored. Write a \
                                  full `match` that names every variant"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// Checks one `match` expression (the `match` keyword at `i`).
fn check_match(ctx: &FileContext, tokens: &[Token], i: usize, out: &mut Vec<Diagnostic>) {
    // Find the arm block: the first `{` at group depth 0 after the
    // scrutinee (struct literals cannot appear unparenthesized there).
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            break;
        }
        j += 1;
    }
    let Some(close) = matching_bracket(tokens, j) else {
        return;
    };
    // Arm patterns: the tokens from an arm start up to the next `=>` at arm
    // depth. An arm body ends at a `,` at arm depth, or at a `}` at arm
    // depth that nothing continues (`if … { } else { }` goes on past its
    // first brace). A `}` inside a pattern closes a struct pattern instead.
    let mut patterns = Vec::new();
    let mut arm_start = j + 1;
    let mut in_body = false;
    let mut depth = 0i32;
    for k in j + 1..close {
        let t = &tokens[k];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            let next = &tokens[k + 1];
            let continued =
                next.ident() == Some("else") || next.is_punct('.') || next.is_punct('?');
            if depth == 0 && in_body && t.is_punct('}') && !continued {
                arm_start = k + 1;
                in_body = false;
            }
        } else if depth == 0 && t.is_punct(',') {
            arm_start = k + 1;
            in_body = false;
        } else if depth == 0 && t.is_punct('=') && tokens[k + 1].is_punct('>') {
            patterns.push(&tokens[arm_start..k]);
            in_body = true;
        }
    }
    // In scope only when the scrutinee or an arm pattern names an event
    // enum (variant paths like `ControlEvent::Lifecycle`): an arm *body*
    // that builds an event does not make the match one over events.
    if !mentions_event_enum(&tokens[i + 1..j]) && !patterns.iter().any(|p| mentions_event_enum(p)) {
        return;
    }
    for t in patterns.into_iter().filter_map(catch_all) {
        out.push(Diagnostic {
            rule: "EVT-EXHAUSTIVE",
            file: ctx.path.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "catch-all arm `{}` in a `match` over an event enum: variants added \
                 later are silently ignored here. Name every variant so new events \
                 force a decision at this consumer",
                t.ident().unwrap_or("_")
            ),
        });
    }
}

/// The token that makes an arm pattern a catch-all: a trailing `_`
/// (`_ =>`, `A | _ =>`), or a pattern that is one lower-case binding
/// (`other =>`). A guarded arm (`x if … =>`) may fail, so it is no
/// catch-all.
fn catch_all(pattern: &[Token]) -> Option<&Token> {
    let last = pattern.last()?;
    let name = last.ident()?;
    let binding = pattern.len() == 1
        && name.starts_with(|c: char| c.is_lowercase() || c == '_')
        && !matches!(name, "true" | "false");
    (name == "_" || binding).then_some(last)
}

/// Whether any token in the slice names an event enum.
fn mentions_event_enum(tokens: &[Token]) -> bool {
    tokens
        .iter()
        .any(|t| t.ident().is_some_and(|n| EVENT_ENUMS.contains(&n)))
}
