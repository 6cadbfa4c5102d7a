//! Text rendering of experiment results.

use std::fmt;

/// One cell of a report.
///
/// `Blank` mirrors the paper's incomplete Diff-training data (rendered
/// `—`); `Failed` is this harness's addition — a cell whose simulation
/// panicked or errored and was isolated rather than allowed to kill
/// the sweep (rendered `✗`, with the failure message in a footnote).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A computed value, as a fraction in `[0, 1]` (or a raw number in
    /// raw reports).
    Value(f64),
    /// Not applicable (the paper's missing Diff-training cells).
    Blank,
    /// The cell's computation failed; the payload is the error or
    /// panic message.
    Failed(String),
}

impl Cell {
    /// The numeric value, if the cell has one.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Value(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the cell records an isolated failure.
    pub fn is_failed(&self) -> bool {
        matches!(self, Cell::Failed(_))
    }
}

impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Self {
        match v {
            Some(v) => Cell::Value(v),
            None => Cell::Blank,
        }
    }
}

/// One row of a report: a labelled series of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Row label (scheme configuration string or benchmark name).
    pub label: String,
    /// One cell per column.
    pub values: Vec<Cell>,
}

/// A rendered experiment: the data behind one of the paper's tables or
/// figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Title, e.g. `"Figure 5: effect of state transition automata"`.
    pub title: String,
    /// Column headings.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<ReportRow>,
    /// Optional footnote (paper-reference numbers, caveats).
    pub notes: Vec<String>,
    /// When `true` (the default) values are fractions rendered as
    /// percentages; when `false` they are raw numbers (used by Table 1
    /// counts).
    pub percent: bool,
}

impl Report {
    /// Creates an empty report with percentage formatting.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        Report {
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
            percent: true,
        }
    }

    /// Creates an empty report with raw-number formatting.
    pub fn new_raw(title: impl Into<String>, columns: Vec<String>) -> Self {
        Report {
            percent: false,
            ..Report::new(title, columns)
        }
    }

    /// Appends a row of plain values (`None` = blank).
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        self.push_cells(label, values.into_iter().map(Cell::from).collect());
    }

    /// Appends a row of [`Cell`]s (the sweep drivers use this to carry
    /// failed cells through).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn push_cells(&mut self, label: impl Into<String>, values: Vec<Cell>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(ReportRow {
            label: label.into(),
            values,
        });
    }

    /// Appends a footnote.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Looks up a cell's value by row label and column name (`None`
    /// for blank, failed, or absent cells).
    pub fn cell(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        self.rows
            .iter()
            .find(|r| r.label == row)
            .and_then(|r| r.values[c].value())
    }

    /// Every failed cell as `(row label, column name, message)`, in
    /// row-major order. Empty for a fully healthy report.
    pub fn failed_cells(&self) -> Vec<(&str, &str, &str)> {
        let mut out = Vec::new();
        for row in &self.rows {
            for (c, cell) in row.values.iter().enumerate() {
                if let Cell::Failed(message) = cell {
                    out.push((
                        row.label.as_str(),
                        self.columns[c].as_str(),
                        message.as_str(),
                    ));
                }
            }
        }
        out
    }
}

fn fmt_cell(v: &Cell, width: usize, percent: bool) -> String {
    match v {
        Cell::Value(v) if percent => format!("{:>width$.2}", v * 100.0),
        Cell::Value(v) => format!("{:>width$.0}", v),
        Cell::Blank => format!("{:>width$}", "—"),
        Cell::Failed(_) => format!("{:>width$}", "✗"),
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([8])
            .max()
            .unwrap_or(8);
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(6)
            .max(6);

        writeln!(f, "=== {} ===", self.title)?;
        write!(f, "{:<label_width$}", "")?;
        for c in &self.columns {
            write!(f, "  {c:>col_width$}")?;
        }
        writeln!(f)?;
        let total = label_width + self.columns.len() * (col_width + 2);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write!(f, "{:<label_width$}", row.label)?;
            for v in &row.values {
                write!(f, "  {}", fmt_cell(v, col_width, self.percent))?;
            }
            writeln!(f)?;
        }
        for (row, column, message) in self.failed_cells() {
            writeln!(f, "  failed: {row} / {column}: {message}")?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("Test", vec!["a".into(), "b".into()]);
        r.push_row("row1", vec![Some(0.97), None]);
        r.push_note("paper reports ~97");
        r
    }

    #[test]
    fn renders_title_rows_and_notes() {
        let text = sample().to_string();
        assert!(text.contains("=== Test ==="));
        assert!(text.contains("row1"));
        assert!(text.contains("97.00"));
        assert!(text.contains("—"));
        assert!(text.contains("paper reports"));
    }

    #[test]
    fn cell_lookup() {
        let r = sample();
        assert_eq!(r.cell("row1", "a"), Some(0.97));
        assert_eq!(r.cell("row1", "b"), None);
        assert_eq!(r.cell("nope", "a"), None);
        assert_eq!(r.cell("row1", "nope"), None);
    }

    #[test]
    fn failed_cells_render_distinctly_and_are_listed() {
        let mut r = Report::new("Test", vec!["a".into(), "b".into()]);
        r.push_cells(
            "row1",
            vec![Cell::Value(0.5), Cell::Failed("lane panicked".into())],
        );
        let text = r.to_string();
        assert!(text.contains('✗'), "{text}");
        assert!(text.contains("failed: row1 / b: lane panicked"), "{text}");
        assert_eq!(r.cell("row1", "b"), None, "failed cells have no value");
        assert_eq!(r.failed_cells(), vec![("row1", "b", "lane panicked")]);
        assert!(r.rows[0].values[1].is_failed());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut r = Report::new("t", vec!["a".into()]);
        r.push_row("x", vec![Some(0.5), Some(0.5)]);
    }
}

impl Report {
    /// Renders the report as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = write!(out, "| |");
        for c in &self.columns {
            let _ = write!(out, " {c} |");
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.columns {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for row in &self.rows {
            let _ = write!(out, "| `{}` |", row.label);
            for v in &row.values {
                let cell = match v {
                    Cell::Value(v) if self.percent => format!("{:.2}", v * 100.0),
                    Cell::Value(v) => format!("{v:.0}"),
                    Cell::Blank => "—".to_owned(),
                    Cell::Failed(_) => "✗".to_owned(),
                };
                let _ = write!(out, " {cell} |");
            }
            let _ = writeln!(out);
        }
        for (row, column, message) in self.failed_cells() {
            let _ = writeln!(out, "\n> failed: `{row}` / `{column}`: {message}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out
    }
}

#[cfg(test)]
mod markdown_tests {
    use super::*;

    #[test]
    fn markdown_has_header_rows_and_notes() {
        let mut r = Report::new("Title", vec!["x".into(), "y".into()]);
        r.push_row("row", vec![Some(0.5), None]);
        r.push_note("a note");
        let md = r.to_markdown();
        assert!(md.contains("### Title"));
        assert!(md.contains("| `row` | 50.00 | — |"));
        assert!(md.contains("> a note"));
    }

    #[test]
    fn raw_reports_render_integers() {
        let mut r = Report::new_raw("Counts", vec!["n".into()]);
        r.push_row("thing", vec![Some(277.0)]);
        assert!(r.to_markdown().contains("| `thing` | 277 |"));
    }

    #[test]
    fn markdown_marks_failed_cells() {
        let mut r = Report::new("F", vec!["x".into()]);
        r.push_cells("row", vec![Cell::Failed("boom".into())]);
        let md = r.to_markdown();
        assert!(md.contains("| `row` | ✗ |"));
        assert!(md.contains("> failed: `row` / `x`: boom"));
    }
}
