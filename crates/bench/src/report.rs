//! Plain-text table rendering and the [`Report`] an experiment returns.
//!
//! Every experiment reports the same rows/series the paper's table or
//! figure does; a fixed-width text table keeps the output diffable and easy
//! to quote in EXPERIMENTS.md. An experiment never prints: it fills a
//! [`Report`] with tables and footer lines in the order they should appear,
//! and the `paper` binary prints it.

/// A fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// What an experiment hands back to `main`: its tables and footer lines in
/// print order, and whether its own acceptance check failed.
#[derive(Debug, Clone, Default)]
pub struct Report {
    text: String,
    /// The experiment's own acceptance failed (exit status 2).
    pub failed: bool,
    /// The experiment refused its input (exit status 1): the message goes
    /// to stderr and nothing is printed.
    pub refused: Option<String>,
}

impl Report {
    /// Appends a table (printed followed by a blank line).
    pub fn table(&mut self, table: Table) {
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Appends one line of prose (an empty string is a blank line).
    pub fn line(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// The report as it is printed to stdout.
    pub fn render(&self) -> &str {
        &self.text
    }
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["scheme", "value"]);
        t.row(vec!["cuttlesys".into(), "1.00".into()]);
        t.row(vec!["ga".into(), "0.85".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("cuttlesys"));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(2.456), "2.46x");
    }

    #[test]
    fn report_prints_in_order() {
        let mut t = Table::new("demo", &["k"]);
        t.row(vec!["1".into()]);
        let mut report = Report::default();
        report.table(t);
        report.line("footer");
        assert_eq!(report.render(), "== demo ==\nk\n-\n1\n\nfooter\n");
    }
}
