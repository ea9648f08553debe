//! Aligned-table printing for the experiment harnesses.

use std::fmt::Write as _;

/// A rectangular table of experiment results that renders with aligned
/// columns — the harness binaries print these as the paper-style "rows".
///
/// # Example
///
/// ```
/// use seg_analysis::series::Table;
/// let mut t = Table::new(vec!["tau".into(), "E[M]".into()]);
/// t.push_row(vec!["0.45".into(), "1.2e3".into()]);
/// let s = t.render();
/// assert!(s.contains("tau"));
/// assert!(s.contains("1.2e3"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}", cell, w = width[c]);
                if c + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&mut out, &sep);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "value".into()]);
        t.push_row(vec!["1".into(), "10".into()]);
        t.push_row(vec!["22".into(), "3".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // all lines same display width
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }
}
