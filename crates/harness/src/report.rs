//! Minimal markdown/CSV/JSON table rendering for experiment output.

use gemini_telemetry::{json::Json, json_obj};

/// A rectangular table with a title, headers and string cells.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded, long rows truncated.
    pub fn push(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// The table as a JSON value (`title`, `headers`, `rows`).
    pub fn json(&self) -> Json {
        json_obj! {
            "title" => self.title.as_str(),
            "headers" => self.headers.clone(),
            "rows" => self.rows.clone(),
        }
    }

    /// Renders RFC 4180 CSV: fields containing a comma, a double quote,
    /// CR or LF are enclosed in double quotes, with embedded quotes
    /// doubled.
    pub fn to_csv(&self) -> String {
        let render_row = |cells: &[String]| {
            cells
                .iter()
                .map(|c| csv_field(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut out = format!("{}\n", render_row(&self.headers));
        for row in &self.rows {
            out.push_str(&format!("{}\n", render_row(row)));
        }
        out
    }
}

/// Quotes one CSV field per RFC 4180 when it needs it.
fn csv_field(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats seconds with a sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        t.push(vec!["3".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("| 3 |  |"), "{md}");
    }

    #[test]
    fn csv_shape() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_per_rfc4180() {
        let mut t = Table::new("Demo", &["name", "note"]);
        t.push(vec!["plain".into(), "a,b".into()]);
        t.push(vec!["with \"quotes\"".into(), "line\nbreak".into()]);
        t.push(vec!["carriage\rreturn".into(), "ok".into()]);
        let csv = t.to_csv();
        let mut lines = csv.split_terminator('\n');
        assert_eq!(lines.next(), Some("name,note"));
        // Comma-bearing field quoted, plain field untouched.
        assert_eq!(lines.next(), Some("plain,\"a,b\""));
        // Embedded quotes doubled; the LF field spans two physical lines.
        assert_eq!(lines.next(), Some("\"with \"\"quotes\"\"\",\"line"));
        assert_eq!(lines.next(), Some("break\""));
        assert_eq!(lines.next(), Some("\"carriage\rreturn\",ok"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new("Demo", &["a"]);
        t.push(vec!["1".into()]);
        let v = gemini_telemetry::json::parse(&t.json().pretty()).unwrap();
        assert_eq!(v.get("title").and_then(|t| t.as_str()), Some("Demo"));
        let headers = v.get("headers").and_then(|h| h.as_array()).unwrap();
        assert_eq!(headers[0].as_str(), Some("a"));
        let rows = v.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("1"));
    }

    /// Exact bytes, as Python's `json.dumps(t, indent=2,
    /// ensure_ascii=False)` writes them.
    #[test]
    fn json_golden_bytes() {
        assert_eq!(
            Table::new("Empty", &[]).json().pretty(),
            "{\n  \"title\": \"Empty\",\n  \"headers\": [],\n  \"rows\": []\n}"
        );
        let mut t = Table::new("Padded", &["a", "b"]);
        t.push(vec!["1".into()]);
        assert_eq!(
            t.json().pretty(),
            "{\n  \"title\": \"Padded\",\n  \"headers\": [\n    \"a\",\n    \"b\"\n  ],\n  \
             \"rows\": [\n    [\n      \"1\",\n      \"\"\n    ]\n  ]\n}"
        );
        let mut t = Table::new("No rows", &["x"]);
        assert_eq!(
            t.json().pretty(),
            "{\n  \"title\": \"No rows\",\n  \"headers\": [\n    \"x\"\n  ],\n  \"rows\": []\n}"
        );
        t.title = "Quote \" slash \\".into();
        t.push(vec!["a\"b\\c\nd\te\u{1}f — g".into()]);
        assert_eq!(
            t.json().pretty(),
            "{\n  \"title\": \"Quote \\\" slash \\\\\",\n  \"headers\": [\n    \"x\"\n  ],\n  \
             \"rows\": [\n    [\n      \"a\\\"b\\\\c\\nd\\te\\u0001f — g\"\n    ]\n  ]\n}"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(0.1234), "0.123");
        assert_eq!(pct(0.933), "93.3%");
    }
}
