//! Markdown tables for experiment write-ups.

use std::fmt::Write as _;

/// A markdown table builder used by the experiment binaries to emit the
/// rows printed by the experiment binaries (README § Experiments).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MdTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// A table with the given headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        MdTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "ragged markdown row");
        self.rows.push(row);
        self
    }

    /// Renders GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a float with 3 significant-ish decimals for table cells.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = MdTable::new(["n", "cost"]);
        t.row(["10", "100"]);
        t.row(["20", "400"]);
        let md = t.render();
        assert!(md.starts_with("| n | cost |\n|---|---|\n"));
        assert!(md.contains("| 10 | 100 |"));
        assert!(md.contains("| 20 | 400 |"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = MdTable::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt_f(12.345), "12.35");
        assert_eq!(fmt_f(0.01234), "0.0123");
    }
}
