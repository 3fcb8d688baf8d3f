//! Fixed-width text rendering for paper-style tables and bar figures.

/// A simple left-aligned text table builder.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table with column separators and a header rule.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            s.trim_end().to_string()
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&render_row(row));
        }
        out
    }
}

/// Formats a seconds value as the paper does (2 decimal places).
pub fn secs(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a speedup as `(N.NNx)`.
pub fn speedup(baseline: f64, ours: f64) -> String {
    if ours <= 0.0 {
        return "(n/a)".into();
    }
    format!("({:.2}x)", baseline / ours)
}

/// Formats an AP fraction as a percentage with 2 decimals (paper
/// style, e.g. `98.77`).
pub fn ap(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// Renders a horizontal ASCII bar scaled to `max` (for figure-style
/// output).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let frac = if max > 0.0 { (value / max).clamp(0.0, 1.0) } else { 0.0 };
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["Data", "Time"]);
        t.row(&["Wiki".into(), "1.23".into()]);
        t.row(&["LongerName".into(), "45.6".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Data"));
        assert!(lines[2].starts_with("Wiki"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(&["A", "B", "C"]);
        t.row(&["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(speedup(2.0, 1.0), "(2.00x)");
        assert_eq!(speedup(1.0, 0.0), "(n/a)");
        assert_eq!(ap(0.9877), "98.77");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10, "clamped at width");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
