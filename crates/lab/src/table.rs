//! Table/series emitters: markdown for the scenario reports, CSV and JSON
//! for downstream plotting.

use crate::json::ToJson;
use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the header count.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
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

    /// Renders CSV (naive quoting: fields containing commas are quoted).
    pub fn to_csv(&self) -> String {
        let quote = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(quote).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(quote).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Serializes any experiment record to pretty JSON (for archival next to
/// the printed tables).
pub fn to_json<T: ToJson>(value: &T) -> String {
    value.to_json().render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(["n", "messages"]);
        t.push_row(["16", "1234"]);
        t.push_row(["32", "5678"]);
        let md = t.to_markdown();
        assert!(md.contains("| n | messages |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 32 | 5678 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["x,y", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn json_roundtrip() {
        use crate::json::Value;
        struct R {
            n: usize,
            rate: f64,
        }
        impl ToJson for R {
            fn to_json(&self) -> Value {
                Value::obj([
                    ("n".to_string(), Value::UInt(self.n as u64)),
                    ("rate".to_string(), Value::Num(self.rate)),
                ])
            }
        }
        let s = to_json(&R { n: 4, rate: 0.5 });
        assert!(s.contains("\"n\": 4"));
    }
}
