//! `LOCK-ORDER`: the static lock-acquisition graph must be acyclic.
//!
//! Every `Mutex`/`RwLock` guard site is a zero-argument `.lock()`,
//! `.read()`, or `.write()` call; the lock's *identity* is the nearest
//! field or variable identifier before the call (`self.state.pending`
//! → `pending`, `posts[t]` → `posts`), qualified by crate so same-named
//! locks in different crates stay distinct. Guard lifetimes are
//! approximated lexically:
//!
//! * a guard bound by `let` (including `if let`/`while let`) is held to the
//!   end of its enclosing brace block, or to an explicit `drop(name)`;
//! * a statement-temporary guard (`x.lock().unwrap().field = ...`) is held
//!   to the end of its statement.
//!
//! While a guard is held, every later acquisition adds a *held→acquired*
//! edge, and every call to a workspace function adds edges to all locks
//! that function transitively acquires. A cycle in the edge set is a
//! potential deadlock and fails the gate. The approximation over-holds
//! guards (it ignores early drops via scope exits), which can only add
//! edges — the conservative direction for a deadlock check.

use crate::graph::Graph;
use crate::lexer::Token;
use crate::rules::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// One guard-acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Crate-qualified lock identity, e.g. `util::pending`.
    pub lock: String,
    /// Token index of the `.lock()`/`.read()`/`.write()` ident.
    pub tok: usize,
    /// Exclusive token index the guard is held to.
    pub held_to: usize,
    /// 1-based line/col of the call for diagnostics.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Runs the rule. Returns raw diagnostics plus `(sites, edges)` counts.
pub fn check(graph: &Graph) -> (Vec<Diagnostic>, (usize, usize)) {
    // Per-function direct acquisition sites.
    let mut sites_per_fn: Vec<Vec<LockSite>> = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        let file = &graph.files[f.file];
        let crate_name = file.crate_name.as_deref().unwrap_or("");
        let sites = match f.body {
            Some((start, end)) if f.active => {
                lock_sites(&file.lexed.tokens, start, end, crate_name)
            }
            _ => Vec::new(),
        };
        sites_per_fn.push(sites);
    }

    // Transitive lock sets per function (fixpoint over the call graph).
    let mut acquires: Vec<BTreeSet<String>> = sites_per_fn
        .iter()
        .map(|sites| sites.iter().map(|s| s.lock.clone()).collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..graph.fns.len() {
            for &callee in &graph.calls_out[i] {
                if acquires[callee].is_empty() {
                    continue;
                }
                let add: Vec<String> = acquires[callee]
                    .iter()
                    .filter(|l| !acquires[i].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    acquires[i].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Held→acquired edges, with the site that witnessed each edge.
    let mut edges: BTreeMap<(String, String), (String, usize, usize)> = BTreeMap::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        let file = &graph.files[f.file];
        let tokens = &file.lexed.tokens;
        for held in &sites_per_fn[fi] {
            // Later direct acquisitions while this guard is held.
            for other in &sites_per_fn[fi] {
                if other.tok > held.tok && other.tok < held.held_to && other.lock != held.lock {
                    edges
                        .entry((held.lock.clone(), other.lock.clone()))
                        .or_insert((file.path.clone(), other.line, other.col));
                }
            }
            // Calls while held: edges to everything the callee acquires.
            for call in &f.calls {
                let Some(call_tok) = position_of(tokens, call.line, call.col) else {
                    continue;
                };
                if call_tok <= held.tok || call_tok >= held.held_to {
                    continue;
                }
                for &callee in &graph.calls_out[fi] {
                    if graph.fns[callee].name != call.name {
                        continue;
                    }
                    for lock in &acquires[callee] {
                        if *lock != held.lock {
                            edges.entry((held.lock.clone(), lock.clone())).or_insert((
                                file.path.clone(),
                                call.line,
                                call.col,
                            ));
                        }
                    }
                }
            }
        }
    }

    let site_count = sites_per_fn.iter().map(Vec::len).sum();
    let mut diags = Vec::new();
    for cycle in find_cycles(&edges) {
        let (file, line, col) = edges[&(cycle[0].clone(), cycle[1].clone())].clone();
        let ring = cycle.join(" -> ");
        diags.push(Diagnostic {
            rule: "LOCK-ORDER",
            file,
            line,
            col,
            message: format!(
                "lock-order cycle [{ring} -> {}]: two threads taking these locks in \
                 opposite orders deadlock; impose one global order (acquire in the \
                 cycle-breaking direction) or narrow a guard's scope with `drop()`",
                cycle[0]
            ),
        });
    }
    (diags, (site_count, edges.len()))
}

/// Direct guard acquisitions in a body token range.
fn lock_sites(tokens: &[Token], start: usize, end: usize, crate_name: &str) -> Vec<LockSite> {
    let mut out = Vec::new();
    for i in start..=end {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        if !matches!(name, "lock" | "read" | "write") {
            continue;
        }
        // Method call with an *empty* argument list: `.lock()` — the
        // zero-arg requirement excludes `io::Read::read(&mut buf)`.
        if i == 0 || !tokens[i - 1].is_punct('.') {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let Some(ident) = receiver_ident(tokens, i - 1) else {
            continue;
        };
        let held_to = guard_extent(tokens, i, end);
        out.push(LockSite {
            lock: format!("{crate_name}::{ident}"),
            tok: i,
            held_to,
            line: tokens[i].line,
            col: tokens[i].col,
        });
    }
    out
}

/// The nearest field/variable ident before the `.` at `dot`: walks back
/// over one optional index group (`posts[t]` → `posts`).
fn receiver_ident(tokens: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    if tokens[j].is_punct(']') {
        // Skip the index group.
        let mut depth = 1usize;
        while depth > 0 {
            j = j.checked_sub(1)?;
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
            }
        }
        j = j.checked_sub(1)?;
    }
    tokens[j].ident().map(str::to_string)
}

/// Exclusive token index the guard acquired at `i` is held to.
fn guard_extent(tokens: &[Token], i: usize, body_end: usize) -> usize {
    // `let`-bound (searching back to the statement head): held to the end
    // of the enclosing block, or to `drop(name)`.
    let mut j = i;
    let mut bound: Option<String> = None;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.ident() == Some("let") {
            // The bound name is the first plain ident after `let`
            // (skipping `mut`); `if let Some(g)` patterns bind inside.
            let mut k = j + 1;
            while tokens.get(k).and_then(Token::ident) == Some("mut") {
                k += 1;
            }
            // Walk into tuple/enum patterns to the innermost first ident.
            while k < i {
                match tokens[k].ident() {
                    Some(id) if id != "Some" && id != "Ok" && id != "Err" => {
                        bound = Some(id.to_string());
                        break;
                    }
                    _ => k += 1,
                }
            }
            break;
        }
    }
    match bound {
        Some(name) => {
            // End of enclosing block: first `}` that closes the depth the
            // guard sits at; or an explicit `drop(name)`.
            let mut depth = 0i32;
            for k in i..=body_end {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                } else if tokens[k].ident() == Some("drop")
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(k + 2).and_then(Token::ident) == Some(name.as_str())
                {
                    return k;
                }
            }
            body_end + 1
        }
        None => {
            // Statement temporary: held to the statement's `;` (or the end
            // of the enclosing block if none — e.g. a tail expression).
            let mut depth = 0i32;
            for (k, tok) in tokens.iter().enumerate().take(body_end + 1).skip(i) {
                if tok.is_punct('{') || tok.is_punct('(') || tok.is_punct('[') {
                    depth += 1;
                } else if tok.is_punct('}') || tok.is_punct(')') || tok.is_punct(']') {
                    depth -= 1;
                    if depth < 0 {
                        return k;
                    }
                } else if tok.is_punct(';') && depth == 0 {
                    return k;
                }
            }
            body_end + 1
        }
    }
}

/// Token index of the token at `(line, col)`, if any.
fn position_of(tokens: &[Token], line: usize, col: usize) -> Option<usize> {
    tokens.iter().position(|t| t.line == line && t.col == col)
}

/// Elementary cycles in the edge set, canonicalized (rotation-minimal,
/// deduplicated) and sorted for deterministic reports.
fn find_cycles(edges: &BTreeMap<(String, String), (String, usize, usize)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (held, acquired) in edges.keys() {
        adj.entry(held).or_default().push(acquired);
    }
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; a back-edge to the path head closes a cycle.
    // Lock graphs here are tiny (≤ dozens of nodes), so this is plenty.
    fn dfs<'a>(
        node: &'a str,
        head: &str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        path: &mut Vec<&'a str>,
        cycles: &mut BTreeSet<Vec<String>>,
    ) {
        for &next in adj.get(node).into_iter().flatten() {
            if next == head {
                // Canonical rotation: start at the smallest lock name.
                let min = path
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| **s)
                    .map(|(i, _)| i);
                if let Some(start) = min {
                    let rotated: Vec<String> = path[start..]
                        .iter()
                        .chain(path[..start].iter())
                        .map(|s| s.to_string())
                        .collect();
                    cycles.insert(rotated);
                }
            } else if !path.contains(&next) && next > head {
                // Only explore nodes ordered after the head so each cycle
                // is found from its smallest node exactly once.
                path.push(next);
                dfs(next, head, adj, path, cycles);
                path.pop();
            }
        }
    }
    for &node in adj.keys() {
        let mut path = vec![node];
        dfs(node, node, &adj, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}
