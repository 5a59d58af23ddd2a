//! Parameter sweeps with uniform table output.
//!
//! Every figure and table binary in `mmtag-bench` is a parameter sweep that
//! prints rows; this module gives them one table type so the output format
//! (aligned columns, optional CSV) is identical everywhere and the smoke
//! tests can assert on structured values instead of parsing text.

use std::fmt::Write as _;

/// A table of experiment results: named columns, rows of f64 cells, and an
/// optional per-row label (e.g. a system name in a comparison table).
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    labels: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    ///
    /// # Panics
    /// Panics with zero columns.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            labels: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Appends an unlabeled row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the column count.
    pub fn push_row(&mut self, cells: &[f64]) {
        self.push_labeled_row("", cells);
    }

    /// Appends a labeled row.
    pub fn push_labeled_row(&mut self, label: &str, cells: &[f64]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.labels.push(label.to_string());
        self.rows.push(cells.to_vec());
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A cell value by (row, column) index.
    pub fn cell(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col]
    }

    /// A full column of values.
    pub fn column(&self, col: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r[col]).collect()
    }

    /// Finds the first row whose column `col` equals `value` within `tol`.
    pub fn find_row(&self, col: usize, value: f64, tol: f64) -> Option<usize> {
        self.rows.iter().position(|r| (r[col] - value).abs() <= tol)
    }

    /// Row label (empty string when unlabeled).
    pub fn label(&self, row: usize) -> &str {
        &self.labels[row]
    }

    /// Renders the aligned human-readable table (what `mmtag run`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let has_labels = self.labels.iter().any(|l| !l.is_empty());
        let label_w = self
            .labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(0)
            .max(6);
        // Column widths: header vs formatted numbers.
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(c, h)| {
                self.rows
                    .iter()
                    .map(|r| format_cell(r[c]).len())
                    .max()
                    .unwrap_or(0)
                    .max(h.len())
            })
            .collect();
        // Header.
        if has_labels {
            let _ = write!(out, "{:label_w$}  ", "system");
        }
        for (h, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "{h:>w$}  ");
        }
        out.push('\n');
        // Rows.
        for (i, row) in self.rows.iter().enumerate() {
            if has_labels {
                let _ = write!(out, "{:label_w$}  ", self.labels[i]);
            }
            for (v, w) in row.iter().zip(&widths) {
                let _ = write!(out, "{:>w$}  ", format_cell(*v));
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV (label column included when any row is labeled).
    ///
    /// Titles, labels and column headers are free-form strings, so fields
    /// containing commas, double quotes, newlines or carriage returns are
    /// quoted and escaped per RFC 4180 (`"` doubles to `""`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let has_labels = self.labels.iter().any(|l| !l.is_empty());
        if has_labels {
            out.push_str("system,");
        }
        let headers: Vec<String> = self.columns.iter().map(|c| csv_field(c)).collect();
        out.push_str(&headers.join(","));
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            if has_labels {
                let _ = write!(out, "{},", csv_field(&self.labels[i]));
            }
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// Escapes one CSV field per RFC 4180: fields containing a comma, double
/// quote, newline or carriage return are wrapped in double quotes with
/// embedded quotes doubled; everything else passes through unchanged.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats a cell compactly: integers plainly, small magnitudes with
/// precision, huge/tiny values in scientific notation.
fn format_cell(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if v == v.trunc() && a < 1e9 {
        format!("{v:.0}")
    } else if a >= 1e6 || (a > 0.0 && a < 1e-3) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Builds an inclusive linear sweep `[start, stop]` with `points` samples.
///
/// Degenerate requests degrade gracefully instead of panicking: `points`
/// of 1 yields `[start]` and 0 yields an empty sweep. For `points >= 2`
/// the first sample is exactly `start` and the last exactly `stop`.
pub fn linspace(start: f64, stop: f64, points: usize) -> Vec<f64> {
    match points {
        0 => Vec::new(),
        1 => vec![start],
        _ => (0..points)
            .map(|i| start + (stop - start) * i as f64 / (points - 1) as f64)
            .collect(),
    }
}

/// Builds a logarithmic sweep from `start` to `stop` (both positive).
pub fn logspace(start: f64, stop: f64, points: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && stop > 0.0,
        "logspace needs positive endpoints"
    );
    linspace(start.ln(), stop.ln(), points)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("Fig X", &["range_ft", "power_dbm"]);
        t.push_row(&[2.0, -54.4]);
        t.push_row(&[4.0, -66.5]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, 1), -66.5);
        assert_eq!(t.column(0), vec![2.0, 4.0]);
        assert_eq!(t.find_row(0, 4.0, 1e-9), Some(1));
        assert_eq!(t.find_row(0, 5.0, 0.5), None);
    }

    #[test]
    fn render_contains_headers_and_values() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(&[1.0, -2.5]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains('a') && s.contains('b'));
        assert!(s.contains("-2.500"));
    }

    #[test]
    fn labeled_rows_render_system_column() {
        let mut t = Table::new("compare", &["rate_mbps"]);
        t.push_labeled_row("RFID", &[0.64]);
        t.push_labeled_row("mmTag", &[1000.0]);
        let s = t.render();
        assert!(s.contains("system"));
        assert!(s.contains("RFID"));
        assert_eq!(t.label(1), "mmTag");
    }

    #[test]
    fn csv_is_parseable() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push_row(&[1.5, 2.0]);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,y"));
        assert_eq!(lines.next(), Some("1.5,2"));
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(format_cell(42.0), "42");
        assert_eq!(format_cell(-66.512), "-66.512");
        assert_eq!(format_cell(1.0e9), "1.000e9");
        assert_eq!(format_cell(0.0001), "1.000e-4");
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(2.0, 12.0, 6);
        assert_eq!(v, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn linspace_degenerate_point_counts() {
        assert_eq!(linspace(3.0, 9.0, 0), Vec::<f64>::new());
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
        assert_eq!(linspace(3.0, 9.0, 2), vec![3.0, 9.0]);
    }

    /// A minimal RFC 4180 parser for the round-trip test: splits one CSV
    /// record into fields, honoring quoted fields and doubled quotes.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            if quoted {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                } else {
                    cur.push(c);
                }
            } else {
                match c {
                    '"' => quoted = true,
                    ',' => fields.push(std::mem::take(&mut cur)),
                    _ => cur.push(c),
                }
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_escapes_commas_quotes_and_round_trips() {
        let mut t = Table::new("free, form \"title\"", &["rate, mbps", "plain"]);
        t.push_labeled_row("mmTag, 24 GHz \"proto\"", &[1000.0, 1.5]);
        t.push_labeled_row("RFID", &[0.64, 2.0]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header: escaped free-form column name survives the trip.
        assert_eq!(
            parse_csv_line(lines[0]),
            vec!["system", "rate, mbps", "plain"]
        );
        // Labeled row: the comma and quotes come back verbatim.
        assert_eq!(
            parse_csv_line(lines[1]),
            vec!["mmTag, 24 GHz \"proto\"", "1000", "1.5"]
        );
        assert_eq!(parse_csv_line(lines[2]), vec!["RFID", "0.64", "2"]);
        // A plain table stays byte-for-byte what it always was.
        let mut plain = Table::new("demo", &["x", "y"]);
        plain.push_row(&[1.5, 2.0]);
        assert_eq!(plain.to_csv(), "x,y\n1.5,2\n");
    }

    #[test]
    fn csv_field_escapes_newlines() {
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn logspace_is_geometric() {
        let v = logspace(1.0, 100.0, 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert!((v[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_is_a_bug() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(&[1.0]);
    }
}
