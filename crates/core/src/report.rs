//! Plain-text table rendering for experiment results.
//!
//! Every experiment renders its result in the paper's row/column shape
//! so EXPERIMENTS.md can record paper-versus-measured side by side.
//! Sweeps that lose grid points to injected faults report them as
//! [`Hole`]s, rendered in an explicit trailer so a partially-failed
//! table can never be mistaken for a complete one.

use std::fmt::Write as _;

use crate::runner::PointError;

/// A simple monospace table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title.
    #[must_use]
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_owned(),
            ..Self::default()
        }
    }

    /// Sets the column headers.
    pub fn header<I, S>(&mut self, columns: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            self.header.is_empty() || row.len() == self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (header row first; cells quoted when
    /// they contain commas or quotes) — the form the paper's open data
    /// release used.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        if !self.header.is_empty() {
            out.push_str(
                &self
                    .header
                    .iter()
                    .map(|h| esc(h))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                let _ = write!(line, " {cell:<w$} |");
            }
            line
        };
        if !self.header.is_empty() {
            let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
            let mut sep = String::from("|");
            for w in &widths {
                let _ = write!(sep, "{}|", "-".repeat(w + 2));
            }
            let _ = writeln!(out, "{sep}");
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A sweep grid point that failed permanently (every retry exhausted or
/// a non-transient error) and is rendered as an explicit hole rather
/// than silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hole {
    /// Sweep section tag (`"epi"`, `"noc"`, `"scaling"`).
    pub section: String,
    /// Grid-point index within that sweep.
    pub index: usize,
    /// Human-readable point label (matches the table cell it holes).
    pub point: String,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The final panic or error message.
    pub error: String,
}

impl Hole {
    /// Builds a hole from a failed sweep point.
    #[must_use]
    pub fn from_point(section: &str, point: String, e: &PointError) -> Self {
        Self {
            section: section.to_owned(),
            index: e.index,
            point,
            attempts: e.attempts,
            error: e.failure.to_string(),
        }
    }

    /// Whether this hole covers the named point label.
    #[must_use]
    pub fn covers(&self, point: &str) -> bool {
        self.point == point
    }
}

/// Marker rendered in table cells lost to a hole (distinct from `-`,
/// which means "not part of this sweep").
pub const HOLE_MARK: &str = "✗";

/// Marker prefixed to cells whose value came from the analytic backend
/// rather than a cycle-level measurement (distinct from [`HOLE_MARK`]:
/// the value exists, it just was not simulated).
pub const ANALYTIC_MARK: &str = "≈";

/// Renders the hole trailer for a table: empty when the sweep was
/// complete, so fault-free output stays byte-identical.
#[must_use]
pub fn render_holes(holes: &[Hole]) -> String {
    if holes.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\nHoles ({} grid point(s) lost to faults; marked {HOLE_MARK}):\n",
        holes.len()
    );
    for h in holes {
        let _ = writeln!(
            out,
            "  {HOLE_MARK} {}:{} {} — {} (after {} attempt(s))",
            h.section, h.index, h.point, h.error, h.attempts
        );
    }
    out
}

/// Formats a ratio of measured to paper value as a percentage string.
#[must_use]
pub fn vs_paper(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "n/a".to_owned();
    }
    format!("{:+.1}%", 100.0 * (measured - paper) / paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo");
        t.header(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x");
        t.header(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_escapes_and_rounds_trips() {
        let mut t = Table::new("csv");
        t.header(["a", "b"]);
        t.row(["plain", "with,comma"]);
        t.row(["with\"quote", "x"]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("plain,\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\",x"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn vs_paper_formats_deviation() {
        assert_eq!(vs_paper(110.0, 100.0), "+10.0%");
        assert_eq!(vs_paper(95.0, 100.0), "-5.0%");
        assert_eq!(vs_paper(1.0, 0.0), "n/a");
    }
}
