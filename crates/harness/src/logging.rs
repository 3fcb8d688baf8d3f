//! CSV metric logging.
//!
//! The paper's artifact "will write output text to the console and
//! timing data to CSV files" which its plotting scripts consume. This
//! module provides the same workflow: record per-epoch/per-phase rows
//! during a run, then write a CSV.

use std::io::Write;
use std::path::Path;

use crate::EpochStats;

/// An append-only metric log with a fixed column set.
#[derive(Debug, Clone, Default)]
pub struct MetricLog {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MetricLog {
    /// Creates a log with the given column names.
    pub fn new(columns: &[&str]) -> MetricLog {
        MetricLog {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A log with the standard per-epoch training columns.
    pub fn for_training() -> MetricLog {
        MetricLog::new(&["epoch", "loss", "train_s", "val_ap"])
    }

    /// Appends a raw row (padded/truncated to the column count).
    pub fn record(&mut self, cells: &[String]) {
        let mut row = cells.to_vec();
        row.resize(self.columns.len(), String::new());
        self.rows.push(row);
    }

    /// Appends a standard training row (see [`MetricLog::for_training`]).
    pub fn record_epoch(&mut self, epoch: usize, stats: &EpochStats) {
        self.record(&[
            epoch.to_string(),
            format!("{:.6}", stats.loss),
            format!("{:.4}", stats.train_time_s),
            format!("{:.6}", stats.val_ap),
        ]);
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the log as CSV text (header + rows, RFC-4180 quoting).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out).expect("write to Vec cannot fail");
        String::from_utf8(out).expect("CSV output is UTF-8")
    }

    /// Streams the log as CSV into `w` (header + rows). Cells
    /// containing commas, double quotes, or line breaks (`\n` or `\r`)
    /// are quoted per RFC 4180, with embedded quotes doubled, so
    /// arbitrary cell content round-trips through standard CSV readers.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_row(w, &self.columns)?;
        for row in &self.rows {
            write_row(w, row)?;
        }
        Ok(())
    }

    /// Writes the CSV to `path`.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_csv(&mut f)?;
        f.flush()
    }
}

fn write_row<W: Write>(w: &mut W, cells: &[String]) -> std::io::Result<()> {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        if cell.contains([',', '"', '\n', '\r']) {
            w.write_all(b"\"")?;
            w.write_all(cell.replace('"', "\"\"").as_bytes())?;
            w.write_all(b"\"")?;
        } else {
            w.write_all(cell.as_bytes())?;
        }
    }
    w.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering_and_quoting() {
        let mut log = MetricLog::new(&["a", "b"]);
        log.record(&["1".into(), "plain".into()]);
        log.record(&["2".into(), "has,comma".into()]);
        log.record(&["3".into(), "has\"quote".into()]);
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,plain");
        assert_eq!(lines[2], "2,\"has,comma\"");
        assert_eq!(lines[3], "3,\"has\"\"quote\"");
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
    }

    #[test]
    fn epoch_rows_use_standard_columns() {
        let mut log = MetricLog::for_training();
        log.record_epoch(
            0,
            &EpochStats {
                loss: 0.5,
                steps: 10,
                skipped: 0,
                train_time_s: 1.25,
                val_ap: 0.9,
            },
        );
        let csv = log.to_csv();
        assert!(csv.starts_with("epoch,loss,train_s,val_ap\n"));
        assert!(csv.contains("0,0.500000,1.2500,0.900000"));
    }

    #[test]
    fn save_roundtrip() {
        let mut log = MetricLog::new(&["x"]);
        log.record(&["42".into()]);
        let dir = std::env::temp_dir().join("tgl-harness-log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.csv");
        log.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "x\n42\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_rows_are_padded() {
        let mut log = MetricLog::new(&["a", "b", "c"]);
        log.record(&["only".into()]);
        assert_eq!(log.to_csv().lines().nth(1), Some("only,,"));
    }

    #[test]
    fn write_csv_quotes_line_breaks_and_crlf() {
        let mut log = MetricLog::new(&["k", "v"]);
        log.record(&["1".into(), "line\nbreak".into()]);
        log.record(&["2".into(), "carriage\rreturn".into()]);
        log.record(&["3".into(), "crlf\r\nboth".into()]);
        let mut buf = Vec::new();
        log.write_csv(&mut buf).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.contains("1,\"line\nbreak\"\n"));
        assert!(csv.contains("2,\"carriage\rreturn\"\n"));
        assert!(csv.contains("3,\"crlf\r\nboth\"\n"));
        assert_eq!(csv, log.to_csv(), "to_csv and write_csv must agree");
    }

    #[test]
    fn write_csv_adversarial_cells_round_trip() {
        // A minimal RFC-4180 reader: if it can reconstruct the cells,
        // so can any spreadsheet/pandas-style consumer.
        fn parse(csv: &str) -> Vec<Vec<String>> {
            let mut rows = Vec::new();
            let mut row = Vec::new();
            let mut cell = String::new();
            let mut chars = csv.chars().peekable();
            let mut quoted = false;
            while let Some(c) = chars.next() {
                if quoted {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cell.push('"');
                        } else {
                            quoted = false;
                        }
                    } else {
                        cell.push(c);
                    }
                } else {
                    match c {
                        '"' => quoted = true,
                        ',' => row.push(std::mem::take(&mut cell)),
                        '\n' => {
                            row.push(std::mem::take(&mut cell));
                            rows.push(std::mem::take(&mut row));
                        }
                        c => cell.push(c),
                    }
                }
            }
            rows
        }
        let nasty = [
            "plain",
            "comma,inside",
            "quote\"inside",
            "\"fully quoted\"",
            "new\nline",
            "cr\rhere",
            "all,of\"it\r\n,together",
            "",
        ];
        let mut log = MetricLog::new(&["idx", "payload"]);
        for (i, cell) in nasty.iter().enumerate() {
            log.record(&[i.to_string(), cell.to_string()]);
        }
        let parsed = parse(&log.to_csv());
        assert_eq!(parsed.len(), nasty.len() + 1, "header + one row per cell");
        for (i, cell) in nasty.iter().enumerate() {
            assert_eq!(parsed[i + 1], vec![i.to_string(), cell.to_string()]);
        }
    }
}
