//! Diagnostic rendering: human-readable text and a stable `--json` report.
//!
//! The JSON is hand-rolled (the container is offline, no `serde_json`) and
//! deliberately boring so CI and editors can depend on its shape:
//!
//! ```json
//! {
//!   "version": 3,
//!   "checked_files": 42,
//!   "counts": { "DET-FLOAT-REDUCE": 0, ... },
//!   "graph": { "functions": 0, "call_edges": 0, ... },
//!   "diagnostics": [
//!     { "rule": "...", "file": "...", "line": 1, "col": 2, "message": "..." }
//!   ]
//! }
//! ```
//!
//! Diagnostics are sorted by `(file, line, col, rule)`; `counts` lists every
//! known rule (zeroes included) in catalogue order; `graph` carries the
//! item-graph statistics (version 3: seven rule ids, six `graph` keys).
//! Same input → byte-equal report.

use crate::graph::GraphStats;
use crate::rules::{Diagnostic, RULE_IDS};

/// A full lint run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files lexed and checked.
    pub checked_files: usize,
    /// All surviving diagnostics, sorted by `(file, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Item-graph statistics.
    pub graph: GraphStats,
}

impl Report {
    /// Finalizes ordering; call once after all files are linted.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `file:line:col: RULE: message` lines plus a summary trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}:{}: {}: {}\n",
                d.file, d.line, d.col, d.rule, d.message
            ));
        }
        if self.diagnostics.is_empty() {
            out.push_str(&format!(
                "xtask lint: {} files checked, no violations\n",
                self.checked_files
            ));
        } else {
            out.push_str(&format!(
                "xtask lint: {} files checked, {} violation{}\n",
                self.checked_files,
                self.diagnostics.len(),
                if self.diagnostics.len() == 1 { "" } else { "s" }
            ));
        }
        out
    }

    /// The stable machine-readable report.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 3,\n");
        out.push_str(&format!("  \"checked_files\": {},\n", self.checked_files));
        out.push_str("  \"counts\": {\n");
        for (i, rule) in RULE_IDS.iter().enumerate() {
            let n = self.diagnostics.iter().filter(|d| d.rule == *rule).count();
            let comma = if i + 1 < RULE_IDS.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{}\n", json_string(rule), n, comma));
        }
        out.push_str("  },\n");
        let g = &self.graph;
        out.push_str("  \"graph\": {\n");
        let stats: [(&str, usize); 6] = [
            ("functions", g.functions),
            ("call_edges", g.call_edges),
            ("taint_sources", g.taint_sources),
            ("taint_sinks", g.taint_sinks),
            ("taint_paths", g.taint_paths),
            ("schema_entries", g.schema_entries),
        ];
        for (i, (key, value)) in stats.iter().enumerate() {
            let comma = if i + 1 < stats.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{}\n", json_string(key), value, comma));
        }
        out.push_str("  },\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {} }}{}",
                json_string(d.rule),
                json_string(&d.file),
                d.line,
                d.col,
                json_string(&d.message),
                comma
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string per RFC 8259 (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            checked_files: 3,
            graph: GraphStats::default(),
            diagnostics: vec![
                Diagnostic {
                    rule: "ORD-TOTAL-FLOAT",
                    file: "crates/core/src/b.rs".into(),
                    line: 9,
                    col: 4,
                    message: "a \"quoted\" word".into(),
                },
                Diagnostic {
                    rule: "DET-TAINT",
                    file: "crates/core/src/a.rs".into(),
                    line: 2,
                    col: 7,
                    message: "taint".into(),
                },
            ],
        };
        r.sort();
        r
    }

    #[test]
    fn text_lines_are_span_accurate_and_sorted() {
        let text = sample().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("crates/core/src/a.rs:2:7: DET-TAINT:"));
        assert!(lines[1].starts_with("crates/core/src/b.rs:9:4: ORD-TOTAL-FLOAT:"));
        assert_eq!(lines[2], "xtask lint: 3 files checked, 2 violations");
    }

    #[test]
    fn json_is_stable_and_escapes_strings() {
        let a = sample().render_json();
        let b = sample().render_json();
        assert_eq!(a, b, "same input must render byte-identical JSON");
        assert!(a.contains("\"version\": 3"));
        assert!(a.contains("\"checked_files\": 3"));
        assert!(a.contains("\"DET-TAINT\": 1"));
        assert!(a.contains("\"SCHEMA-LOCK\": 0"), "zero counts are listed");
        assert!(a.contains("\"graph\": {"), "the report carries graph stats");
        assert!(a.contains("\"taint_paths\": 0"));
        assert!(!a.contains("lock_"), "v3 has no lock-order keys");
        assert!(a.contains("a \\\"quoted\\\" word"), "quotes are escaped");
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let r = Report {
            checked_files: 5,
            diagnostics: vec![],
            graph: GraphStats::default(),
        };
        assert!(r.render_json().contains("\"diagnostics\": []"));
        assert!(r.render_text().contains("no violations"));
    }
}
