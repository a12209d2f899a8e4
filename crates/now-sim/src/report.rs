//! The experiment table: declared once, rendered as markdown for the
//! write-up, as CSV for `results/`, and as JSON rows.

use now_core::Json;
use std::fmt::Write as _;

/// One table cell. Text, flags and counts render the same in markdown
/// and CSV; a float carries its value and each renderer picks the
/// precision. JSON keeps each cell's type: string, boolean or number.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Rendered as is.
    Text(String),
    /// A flag, rendered `true` / `false`.
    Bool(bool),
    /// A count, rendered exactly.
    Int(u64),
    /// Markdown renders about three significant decimals, CSV six
    /// decimals; a magnitude below 10⁻³ (but not zero) renders in
    /// exponent form in both, so it never reads as zero.
    Float(f64),
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

macro_rules! text_cell_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::Text(v.to_string())
            }
        }
    )*};
}
text_cell_from!(&str, String);

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

macro_rules! int_cell_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Self {
                Cell::Int(v as u64)
            }
        }
    )*};
}
int_cell_from!(u32, u64, usize);

/// A rectangular table with a header row, used by the experiment
/// binaries (README § Experiment index): each declares its headers
/// once, pushes each row once, prints [`Table::to_markdown`] and writes
/// [`Table::write_csv`] (and, where CI byte-diffs it, [`Table::json`]).
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Cell>) -> &mut Self {
        let row: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "ragged row: width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.headers.len()].join("|"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| match c {
                    Cell::Text(s) => s.clone(),
                    Cell::Bool(b) => b.to_string(),
                    Cell::Int(v) => v.to_string(),
                    Cell::Float(v) => fmt_f(*v),
                })
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders as CSV (quotes cells containing separators).
    pub(crate) fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let headers: Vec<String> = self.headers.iter().map(|h| escape(h)).collect();
        let _ = writeln!(out, "{}", headers.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| match c {
                    Cell::Text(s) => escape(s),
                    Cell::Bool(b) => b.to_string(),
                    Cell::Int(v) => v.to_string(),
                    Cell::Float(v) if is_tiny(*v) => format!("{v:e}"),
                    Cell::Float(v) => format!("{v:.6}"),
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// One JSON object per row, keyed by header.
    pub fn json(&self) -> Json {
        Json::array(self.rows.iter().map(|row| {
            Json::object(self.headers.iter().zip(row).map(|(h, c)| {
                let v = match c {
                    Cell::Text(s) => s.as_str().into(),
                    Cell::Bool(b) => (*b).into(),
                    Cell::Int(v) => (*v).into(),
                    Cell::Float(v) => (*v).into(),
                };
                (h.as_str(), v)
            }))
        }))
    }

    /// Writes the CSV to a file.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

/// Nonzero and below 10⁻³ in magnitude: fixed-point would print zero.
fn is_tiny(v: f64) -> bool {
    v != 0.0 && v.abs() < 1e-3
}

/// Formats a float with 3 significant-ish decimals for table cells.
fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if is_tiny(v) {
        format!("{v:.1e}")
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
        let mut t = Table::new(["n", "cost"]);
        t.row([10u64.into(), "100".into()]);
        t.row([20u64.into(), "400".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| n | cost |\n|---|---|\n"));
        assert!(md.contains("| 10 | 100 |"));
        assert!(md.contains("| 20 | 400 |"));
    }

    #[test]
    fn csv_renders_and_escapes() {
        let mut t = Table::new(["a", "b,c"]);
        t.row([1usize.into(), "plain".into()]);
        t.row([2usize.into(), "with,comma".into()]);
        t.row([3usize.into(), "with\"quote".into()]);
        t.row([4usize.into(), "with\nnewline".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,\"b,c\"\n1,plain\n"));
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert!(csv.contains("\"with\nnewline\""));
    }

    #[test]
    fn float_cells_carry_the_value_to_both_renderers() {
        let mut t = Table::new(["label", "ratio"]);
        t.row(["x".into(), 12.3456789.into()]);
        assert!(t.to_markdown().ends_with("| x | 12.35 |\n"));
        assert_eq!(t.to_csv(), "label,ratio\nx,12.345679\n");
    }

    #[test]
    fn json_rows_are_keyed_by_header() {
        let mut t = Table::new(["name", "count", "ratio", "ok"]);
        t.row(["a".into(), 3usize.into(), 0.5.into(), true.into()]);
        t.row(["b\"".into(), u64::MAX.into(), f64::NAN.into(), false.into()]);
        assert_eq!(
            t.json().render(),
            "[\n  {\"name\": \"a\", \"count\": 3, \"ratio\": 0.500000, \"ok\": true},\n  \
             {\"name\": \"b\\\"\", \"count\": 18446744073709551615, \"ratio\": null, \
             \"ok\": false}\n]\n"
        );
        // Counts and flags render the same in markdown and CSV as text
        // did.
        assert!(t.to_markdown().contains("| a | 3 | 0.5000 | true |"));
        assert!(t.to_csv().contains("\na,3,0.500000,true\n"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1".into(), "2".into()]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let mut t = Table::new(["x"]);
        t.row([true.into()]);
        let dir = std::env::temp_dir().join("now_sim_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "x\ntrue\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1234.5), "1234"); // round-half-to-even
        assert_eq!(fmt_f(12.345), "12.35");
        assert_eq!(fmt_f(0.01234), "0.0123");
    }

    #[test]
    fn tiny_floats_never_read_as_zero() {
        assert_eq!(fmt_f(1.3e-6), "1.3e-6");
        assert_eq!(fmt_f(4e-7), "4.0e-7");
        assert_eq!(fmt_f(-4e-7), "-4.0e-7");
        let mut t = Table::new(["tv"]);
        t.row([1.3e-6.into()]);
        t.row([4e-7.into()]);
        t.row([0.0.into()]);
        assert_eq!(t.to_csv(), "tv\n1.3e-6\n4e-7\n0.000000\n");
        assert!(t.to_markdown().contains("| 1.3e-6 |"));
    }
}
