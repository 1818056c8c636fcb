//! Table formatting for experiment output.

/// A simple fixed-width text table, printed to stdout in the shape of the
/// paper's tables (rows of labelled measurements, with a paper-reference
/// column where applicable).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience: appends a row of displayable cells.
    pub fn rowd<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!("{cell:<w$} | "));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.header, &widths));
        out.push('\n');
        let sep: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        out.push_str(&"-".repeat(sep));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats seconds in engineering notation.
pub fn secs(s: f64) -> String {
    if s >= 1e5 {
        format!("{:.2}e5 s", s / 1e5)
    } else if s >= 1000.0 {
        format!("{:.1} ks", s / 1000.0)
    } else {
        format!("{s:.1} s")
    }
}

/// Formats bytes as MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.rowd(&["a", "1"]);
        t.rowd(&["long-name", "2"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| long-name | 2"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.rowd(&["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(mb(1024 * 1024 * 10), "10.0 MB");
        assert_eq!(secs(2.0e5), "2.00e5 s");
    }
}
