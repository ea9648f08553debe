//! A minimal CSV writer for experiment outputs.

use std::io::{self, Write};

/// Writes rows of stringly-typed cells as RFC-4180-style CSV (quoting
/// cells that contain commas, quotes or newlines).
///
/// # Example
///
/// ```
/// use seg_analysis::csv::CsvWriter;
/// let mut buf = Vec::new();
/// {
///     let mut w = CsvWriter::new(&mut buf);
///     w.write_row(&["tau", "E[M]"]).unwrap();
///     w.write_row(&["0.45", "123.4"]).unwrap();
/// }
/// assert_eq!(String::from_utf8(buf).unwrap(), "tau,E[M]\n0.45,123.4\n");
/// ```
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    out: W,
}

impl<W: Write> CsvWriter<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        CsvWriter { out }
    }

    /// Writes one row.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn write_row<S: AsRef<str>>(&mut self, cells: &[S]) -> io::Result<()> {
        let mut first = true;
        for cell in cells {
            if !first {
                self.out.write_all(b",")?;
            }
            first = false;
            write_cell(&mut self.out, cell.as_ref())?;
        }
        self.out.write_all(b"\n")
    }

    /// Finishes, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Writes one cell as [`CsvWriter::write_row`] does: quoted, with its
/// quotes doubled, when it holds a comma, a quote or a newline, and
/// verbatim otherwise.
///
/// # Errors
///
/// Any I/O error from `out`.
pub fn write_cell(out: &mut impl Write, c: &str) -> io::Result<()> {
    if c.contains(',') || c.contains('"') || c.contains('\n') {
        let escaped = c.replace('"', "\"\"");
        write!(out, "\"{escaped}\"")
    } else {
        out.write_all(c.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render<S: AsRef<str>>(rows: &[Vec<S>]) -> String {
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf);
            for r in rows {
                w.write_row(r).unwrap();
            }
        }
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn plain_rows() {
        let s = render(&[vec!["a", "b"], vec!["1", "2"]]);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let s = render(&[vec!["x,y", "say \"hi\""]]);
        assert_eq!(s, "\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn newline_cell_is_quoted() {
        let s = render(&[vec!["line1\nline2"]]);
        assert_eq!(s, "\"line1\nline2\"\n");
    }

    #[test]
    fn empty_row_writes_newline() {
        let rows: Vec<Vec<&str>> = vec![vec![]];
        assert_eq!(render(&rows), "\n");
    }
}
