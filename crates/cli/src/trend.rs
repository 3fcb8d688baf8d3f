//! Parent / change comparison backing `tgl jsoncheck --trend`.
//!
//! `scripts/ab` runs the micro bench several times per side, parent and
//! change interleaved on one host, and keeps every run's record. This
//! module reads the runs of each side, takes each timing series'
//! fastest run on each side, and compares the change's with the
//! parent's under the fixed [`BUDGET_PCT`]. A series is one row of a
//! record's `rows` array, keyed by its `name` and `threads` and timed by
//! its `secs`: derived fields echo through and would only add noise,
//! and keying by what a row measures rather than where it sits lets
//! rows be appended or reordered.

use std::collections::{HashMap, HashSet};

use tgl_data::Json;

/// The largest slowdown of a series, in percent of the parent's
/// fastest run, that the comparison accepts.
pub const BUDGET_PCT: f64 = 25.0;

/// One compared series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// The series, `<name> t=<threads>`.
    pub key: String,
    /// The parent's fastest run.
    pub parent: f64,
    /// The change's fastest run.
    pub change: f64,
    /// Relative change in percent; positive = slower.
    pub delta_pct: f64,
}

/// The `(key, secs)` of every row of a record's `rows` array that has
/// a string `name`, a numeric `threads` and a numeric `secs`.
pub fn timings(doc: &Json) -> Vec<(String, f64)> {
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or_default();
    rows.iter()
        .filter_map(|r| {
            let name = r.get("name")?.as_str()?;
            let threads = r.get("threads")?.as_num()?;
            Some((format!("{name} t={threads}"), r.get("secs")?.as_num()?))
        })
        .collect()
}

/// Every timing series of a side's runs at its fastest (lowest) value,
/// in the order the runs first list them.
pub fn fastest(runs: &[Json]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut at: HashMap<String, usize> = HashMap::new();
    for (key, v) in runs.iter().flat_map(timings) {
        match at.get(&key) {
            Some(&i) => out[i].1 = f64::min(out[i].1, v),
            None => {
                at.insert(key.clone(), out.len());
                out.push((key, v));
            }
        }
    }
    out
}

/// Compares the timing series both sides share, each side at its
/// fastest run.
pub fn compare(parent: &[Json], change: &[Json]) -> Vec<TrendRow> {
    let change: HashMap<String, f64> = fastest(change).into_iter().collect();
    fastest(parent)
        .into_iter()
        .filter_map(|(key, parent)| {
            let change = *change.get(&key)?;
            let delta_pct = if parent.abs() < 1e-12 { 0.0 } else { (change - parent) / parent * 100.0 };
            Some(TrendRow { key, parent, change, delta_pct })
        })
        .collect()
}

/// Renders the change / parent table, worst regression first.
pub fn render_table(rows: &[TrendRow]) -> String {
    let mut rows: Vec<&TrendRow> = rows.iter().collect();
    rows.sort_by(|a, b| b.delta_pct.total_cmp(&a.delta_pct));
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(6).max(6);
    let mut out = format!("{:<width$}  {:>10}  {:>10}  {:>8}\n", "series", "parent", "change", "delta");
    for r in rows {
        out.push_str(&format!(
            "{:<width$}  {:>10.4e}  {:>10.4e}  {:>+7.1}%\n",
            r.key, r.parent, r.change, r.delta_pct
        ));
    }
    out
}

/// The largest positive delta (0 when nothing regressed).
pub fn worst_regression(rows: &[TrendRow]) -> f64 {
    rows.iter().map(|r| r.delta_pct).fold(0.0, f64::max)
}

/// Timing series the parent's runs carry and the change's do not — a
/// renamed or dropped bench config. These degrade to a warning line
/// rather than failing the check: the budget only applies to series
/// both sides share.
pub fn missing_series(parent: &[Json], change: &[Json]) -> Vec<String> {
    let change: HashSet<String> = fastest(change).into_iter().map(|(k, _)| k).collect();
    fastest(parent).into_iter().map(|(k, _)| k).filter(|k| !change.contains(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test JSON")
    }

    /// A record whose rows are `(name, threads, secs)`.
    fn record(rows: &[(&str, u32, f64)]) -> Json {
        let rows: Vec<String> =
            rows.iter().map(|(n, t, s)| format!(r#"{{"name": "{n}", "threads": {t}, "secs": {s}}}"#)).collect();
        parse(&format!(r#"{{"schema": "tgl-bench-micro/v1", "rows": [{}]}}"#, rows.join(", ")))
    }

    #[test]
    fn timings_are_keyed_by_name_and_threads() {
        let v = parse(
            r#"{"host": {"threads": 2}, "secs": 9, "rows": [{"name": "a", "threads": 1, "secs": 1.5},
               {"name": "a", "threads": 2, "secs": 1}, {"name": "no_secs", "threads": 1}, {"threads": 1, "secs": 3}]}"#,
        );
        assert_eq!(timings(&v), vec![("a t=1".to_string(), 1.5), ("a t=2".to_string(), 1.0)]);
        assert!(timings(&parse("[1, 2]")).is_empty());
    }

    #[test]
    fn only_wall_time_keys_are_compared() {
        let old = parse(r#"{"rows": [{"name": "gemm", "threads": 1, "secs": 1.0, "gflops": 100}], "pipeline_depth": 2}"#);
        let new = parse(r#"{"rows": [{"name": "gemm", "threads": 1, "secs": 1.5, "gflops": 70}], "pipeline_depth": 3}"#);
        let rows = compare(&[old], &[new]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "gemm t=1");
        assert!((rows[0].delta_pct - 50.0).abs() < 1e-9);
        assert_eq!(worst_regression(&rows), rows[0].delta_pct);
    }

    #[test]
    fn per_site_rows_are_timings() {
        // The obs section's per-site costs in seconds: a disabled span
        // site that takes a lock reads 3 ns -> 20 ns here, and must fail.
        let parent = record(&[("obs_site_span_all_off", 1, 3e-9), ("obs_site_gauge_set", 1, 1e-9)]);
        let change = record(&[("obs_site_span_all_off", 1, 20e-9), ("obs_site_gauge_set", 1, 1e-9)]);
        let rows = compare(&[parent], &[change]);
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["obs_site_span_all_off t=1", "obs_site_gauge_set t=1"]);
        assert!(worst_regression(&rows) > BUDGET_PCT);
    }

    #[test]
    fn each_side_reads_as_its_fastest_run() {
        // One slow parent run and one slow change run: neither counts.
        let runs = |walls: [f64; 3]| walls.map(|w| record(&[("epoch", 2, w)]));
        let rows = compare(&runs([1.0, 3.0, 1.1]), &runs([1.2, 1.05, 9.0]));
        assert_eq!((rows[0].parent, rows[0].change), (1.0, 1.05));
        assert!((rows[0].delta_pct - 5.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_are_not_regressions() {
        let rows = compare(&[record(&[("a", 1, 2.0)])], &[record(&[("a", 1, 1.0)])]);
        assert_eq!(rows[0].delta_pct, -50.0);
        assert_eq!(worst_regression(&rows), 0.0);
    }

    #[test]
    fn missing_series_are_skipped() {
        let old = record(&[("a", 1, 2.0), ("gone", 1, 1.0)]);
        let new = record(&[("a", 1, 2.2)]);
        let rows = compare(&[old], &[new]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "a t=1");
    }

    #[test]
    fn missing_series_are_reported_as_warnings() {
        let old = [record(&[("a", 1, 2.0), ("a", 2, 1.0)])];
        let new = [record(&[("a", 1, 2.2)])];
        let missing = missing_series(&old, &new);
        assert_eq!(missing, vec!["a t=2".to_string()]);
        // Nothing missing -> no warnings.
        assert!(missing_series(&new, &old).is_empty());
    }

    #[test]
    fn rows_match_by_identity_when_reordered() {
        let old = [record(&[("a", 1, 1.0), ("b", 1, 4.0)])];
        let new = [record(&[("b", 1, 4.4), ("a", 1, 1.0)])];
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 2);
        let b = rows.iter().find(|r| r.key == "b t=1").unwrap();
        assert!((b.delta_pct - 10.0).abs() < 1e-9, "b compares with b: {}", b.delta_pct);
        assert_eq!(worst_regression(&rows), b.delta_pct);
        assert!(missing_series(&old, &new).is_empty());
    }

    #[test]
    fn inserted_rows_leave_the_others_matched() {
        // A row inserted at the front, and the same name at another
        // width: the old rows still meet their own values.
        let old = record(&[("gemm_nn_64x64x64", 1, 2.0), ("gemm_nn_64x64x64", 2, 3.0)]);
        let new = record(&[("gemm_tn_8x8x8", 2, 50.0), ("gemm_nn_64x64x64", 1, 2.0), ("gemm_nn_64x64x64", 2, 3.0)]);
        let rows = compare(&[old], &[new]);
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["gemm_nn_64x64x64 t=1", "gemm_nn_64x64x64 t=2"]);
        assert_eq!(worst_regression(&rows), 0.0, "the new row has nothing to compare with");
    }

    #[test]
    fn table_renders_every_series() {
        let rows = vec![
            TrendRow {
                key: "a.secs".into(),
                parent: 1.0,
                change: 1.3,
                delta_pct: 30.0,
            },
            TrendRow {
                key: "b.secs".into(),
                parent: 1.0,
                change: 0.9,
                delta_pct: -10.0,
            },
        ];
        let t = render_table(&rows);
        assert!(t.contains("a.secs"));
        assert!(t.contains("b.secs"));
        assert!(t.contains("+30.0%"));
        // Worst regression sorts first.
        assert!(t.find("a.secs").unwrap() < t.find("b.secs").unwrap());
    }
}
