//! Aligned text tables for harness output.

use std::borrow::Cow;

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity must match header");
        self.rows.push(row);
        self
    }

    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render with every column padded to its widest cell. The first
    /// column is left-aligned (labels); the rest right-aligned (numbers).
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = width[i] - c.chars().count();
                if i == 0 {
                    out.push_str(c);
                    out.push_str(&" ".repeat(pad));
                } else {
                    out.push_str(&" ".repeat(pad));
                    out.push_str(c);
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// GitHub-flavored markdown, aligned as [`Table::render`] aligns:
    /// the first column left, the rest right.
    pub fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.headers);
        out.push_str("|---");
        out.push_str(&"|---:".repeat(self.headers.len() - 1));
        out.push_str("|\n");
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }

    /// CSV: the header line, then one line per row, every field
    /// RFC 4180-escaped.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&csv_field(cell));
            }
            out.push('\n');
        }
        out
    }
}

/// RFC 4180 CSV field escaping: fields containing a comma, double
/// quote, or line break are wrapped in double quotes with embedded
/// quotes doubled; anything else passes through unchanged. Needed
/// because cell keys are not comma-free — churn fault labels embed the
/// inline event grammar (e.g. `churn:0;r0;d,5;r0;u`), which would
/// otherwise shear the row into extra columns.
fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\r', '\n']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// `12_345_678` ns → `"12.35 ms"` style human time.
pub fn fmt_ns(ns: u64) -> String {
    let f = ns as f64;
    if f >= 1e9 {
        format!("{:.3} s", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.2} ms", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.2} µs", f / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Bytes → human size (KiB/MiB/GiB).
pub fn fmt_bytes(b: u64) -> String {
    let f = b as f64;
    if f >= (1 << 30) as f64 {
        format!("{:.2} GiB", f / (1u64 << 30) as f64)
    } else if f >= (1 << 20) as f64 {
        format!("{:.2} MiB", f / (1u64 << 20) as f64)
    } else if f >= (1 << 10) as f64 {
        format!("{:.2} KiB", f / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Signed prediction error of `predicted` against `measured`, in percent
/// (negative = underprediction), the paper's red annotations.
pub fn pct_err(measured: u64, predicted: u64) -> f64 {
    if measured == 0 {
        return 0.0;
    }
    (predicted as f64 - measured as f64) / measured as f64 * 100.0
}

/// `"+4.2%"` / `"-1.3%"` formatting of a percentage.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["app", "time"]);
        t.row(["x", "1"]);
        t.row(["longer", "12345"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[3].ends_with("12345"));
        // Numeric column right-aligned: "1" under the end of "12345".
        assert!(lines[2].ends_with("    1"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn human_time() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000), "2.00 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210 s");
    }

    #[test]
    fn human_bytes() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(5 << 20), "5.00 MiB");
        assert_eq!(fmt_bytes(3 << 30), "3.00 GiB");
    }

    #[test]
    fn csv_field_escapes_per_rfc4180() {
        // Simple fields pass through byte-identical — existing CSV
        // outputs must not change shape.
        assert_eq!(
            csv_field("ai-fattree:16:4/ring:8:131072:1/packed/lgs"),
            "ai-fattree:16:4/ring:8:131072:1/packed/lgs"
        );
        assert_eq!(csv_field(""), "");
        // Commas (churn labels), quotes, and line breaks get quoted with
        // embedded quotes doubled.
        assert_eq!(csv_field("churn:0;r0;d,5;r0;u"), "\"churn:0;r0;d,5;r0;u\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("a\rb"), "\"a\rb\"");
    }

    #[test]
    fn errors_signed() {
        assert!((pct_err(100, 104) - 4.0).abs() < 1e-9);
        assert!((pct_err(100, 97) + 3.0).abs() < 1e-9);
        assert_eq!(fmt_pct(4.0), "+4.0%");
        assert_eq!(fmt_pct(-1.25), "-1.2%");
    }
}
