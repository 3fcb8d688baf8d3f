//! Parent / change comparison backing `tgl jsoncheck --trend`.
//!
//! `scripts/ab` runs each bench several times per side, parent and
//! change interleaved on one host, and keeps every run's document.
//! This module reads the runs of one bench per side, takes each timing
//! series' fastest run on each side, and compares the change's with the
//! parent's under the fixed [`BUDGET_PCT`]. Only timings are compared
//! (leaves named `secs` / `wall_s`, and the rows of an object whose
//! name ends in `_ns`): counts, ratios and configuration echo through
//! unchanged between runs and would only add noise. A row of a results
//! array is named by what it measures, not by where it sits
//! ([`IDENTITY`]), so appending or reordering rows compares like with
//! like.

use std::collections::{HashMap, HashSet};

use tgl_data::Json;

/// The fields that say what an array row measures (the op or bench,
/// its shape, kernel mode and thread count); a row carrying any of them
/// is keyed by their values instead of its position.
const IDENTITY: [&str; 7] = ["op", "bench", "m", "k", "n", "kernel", "threads"];

/// The largest slowdown of a series, in percent of the parent's
/// fastest run, that the comparison accepts.
pub const BUDGET_PCT: f64 = 25.0;

/// One compared series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Flattened key path, e.g. `runs[2].wall_s` or
    /// `results[bench=matmul_512,threads=2].secs`.
    pub key: String,
    /// The parent's fastest run.
    pub parent: f64,
    /// The change's fastest run.
    pub change: f64,
    /// Relative change in percent; positive = slower.
    pub delta_pct: f64,
}

/// Flattens a JSON document into `(path, value)` rows for every
/// numeric leaf, using `a.b[0].c` path syntax; an array element with
/// [`IDENTITY`] fields is `a.b[op=nn,m=64].c` instead, with `#2`, `#3`
/// .. after the identity of a repeated row.
pub fn flatten_numeric(v: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(String::new(), v, &mut out);
    out
}

fn walk(prefix: String, v: &Json, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((prefix, *n)),
        Json::Arr(items) => {
            let mut seen: Vec<String> = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let id = identity(item).map_or_else(
                    || i.to_string(),
                    |id| {
                        let repeats = seen.iter().filter(|s| **s == id).count();
                        seen.push(id.clone());
                        if repeats == 0 { id } else { format!("{id}#{}", repeats + 1) }
                    },
                );
                walk(format!("{prefix}[{id}]"), item, out);
            }
        }
        Json::Obj(pairs) => {
            for (k, item) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(path, item, out);
            }
        }
        _ => {}
    }
}

/// `field=value,..` over the [`IDENTITY`] fields an object carries, or
/// `None` when it carries none.
fn identity(item: &Json) -> Option<String> {
    let Json::Obj(pairs) = item else { return None };
    let parts: Vec<String> = IDENTITY
        .iter()
        .filter_map(|&field| {
            let value = match pairs.iter().find(|(k, _)| k == field)?.1 {
                Json::Str(ref s) => s.clone(),
                Json::Num(n) => n.to_string(),
                _ => return None,
            };
            Some(format!("{field}={value}"))
        })
        .collect();
    (!parts.is_empty()).then(|| parts.join(","))
}

/// Whether a flattened key names a timing: a `secs` / `wall_s` leaf,
/// or a row of an object named in a time unit (`per_site_ns.span_all_off`).
pub fn is_timing_key(key: &str) -> bool {
    let mut parts = key.rsplit('.');
    let leaf = parts.next().unwrap_or(key);
    matches!(leaf, "secs" | "wall_s") || parts.next().is_some_and(|parent| parent.ends_with("_ns"))
}

/// Every timing series of a side's runs at its fastest (lowest) value,
/// in the order the runs first list them.
pub fn fastest(runs: &[Json]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut at: HashMap<String, usize> = HashMap::new();
    for (key, v) in runs.iter().flat_map(flatten_numeric).filter(|(k, _)| is_timing_key(k)) {
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

    #[test]
    fn flatten_walks_nested_structure() {
        let v = parse(r#"{"a": {"b": [1, 2]}, "c": 3, "s": "x"}"#);
        let rows = flatten_numeric(&v);
        assert_eq!(
            rows,
            vec![
                ("a.b[0]".to_string(), 1.0),
                ("a.b[1]".to_string(), 2.0),
                ("c".to_string(), 3.0),
            ]
        );
    }

    #[test]
    fn only_wall_time_keys_are_compared() {
        let old = parse(r#"{"runs": [{"wall_s": 1.0, "iters": 100}], "secs": 2.0}"#);
        let new = parse(r#"{"runs": [{"wall_s": 1.5, "iters": 700}], "secs": 2.0}"#);
        let rows = compare(&[old], &[new]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.key.contains("iters")));
        let wall = rows.iter().find(|r| r.key == "runs[0].wall_s").unwrap();
        assert!((wall.delta_pct - 50.0).abs() < 1e-9);
        assert_eq!(worst_regression(&rows), wall.delta_pct);
    }

    #[test]
    fn per_site_rows_are_timings() {
        // `BENCH_obs.json`'s per-site costs: a disabled span site that
        // takes a lock reads 3 ns -> 20 ns here, and must fail.
        let parent = parse(r#"{"per_site_ns": {"span_all_off": 3.0, "gauge_set": 1.0}, "overhead_pct": 2.0}"#);
        let change = parse(r#"{"per_site_ns": {"span_all_off": 20.0, "gauge_set": 1.0}, "overhead_pct": 9.0}"#);
        let rows = compare(&[parent], &[change]);
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["per_site_ns.span_all_off", "per_site_ns.gauge_set"]);
        assert!(worst_regression(&rows) > BUDGET_PCT);
        assert!(!is_timing_key("workload.overhead_pct") && !is_timing_key("host_cpus"));
    }

    #[test]
    fn each_side_reads_as_its_fastest_run() {
        // One slow parent run and one slow change run: neither counts.
        let runs = |walls: [f64; 3]| walls.map(|w| parse(&format!(r#"{{"wall_s": {w}}}"#)));
        let rows = compare(&runs([1.0, 3.0, 1.1]), &runs([1.2, 1.05, 9.0]));
        assert_eq!((rows[0].parent, rows[0].change), (1.0, 1.05));
        assert!((rows[0].delta_pct - 5.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_are_not_regressions() {
        let rows = compare(&[parse(r#"{"secs": 2.0}"#)], &[parse(r#"{"secs": 1.0}"#)]);
        assert_eq!(rows[0].delta_pct, -50.0);
        assert_eq!(worst_regression(&rows), 0.0);
    }

    #[test]
    fn missing_series_are_skipped() {
        let old = parse(r#"{"secs": 2.0, "gone": {"wall_s": 1.0}}"#);
        let new = parse(r#"{"secs": 2.2}"#);
        let rows = compare(&[old], &[new]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "secs");
    }

    #[test]
    fn missing_series_are_reported_as_warnings() {
        let old = [parse(r#"{"secs": 2.0, "gone": {"wall_s": 1.0}, "iters": 5}"#)];
        let new = [parse(r#"{"secs": 2.2}"#)];
        let missing = missing_series(&old, &new);
        assert_eq!(missing, vec!["gone.wall_s".to_string()]);
        // Non-wall-time keys never warn; nothing missing → no warnings.
        assert!(missing_series(&new, &old).is_empty());
    }

    #[test]
    fn rows_match_by_identity_when_reordered() {
        let old = [parse(
            r#"{"results": [{"bench": "a", "threads": 1, "secs": 1.0}, {"bench": "b", "threads": 1, "secs": 4.0}]}"#,
        )];
        let new = [parse(
            r#"{"results": [{"bench": "b", "threads": 1, "secs": 4.4}, {"bench": "a", "threads": 1, "secs": 1.0}]}"#,
        )];
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 2);
        let b = rows.iter().find(|r| r.key == "results[bench=b,threads=1].secs").unwrap();
        assert!((b.delta_pct - 10.0).abs() < 1e-9, "b compares with b: {}", b.delta_pct);
        assert_eq!(worst_regression(&rows), b.delta_pct);
        assert!(missing_series(&old, &new).is_empty());
    }

    #[test]
    fn inserted_rows_leave_the_others_matched() {
        // A GEMM row inserted at the front, and a second row with the
        // same identity: the old rows still meet their own values.
        let old = parse(
            r#"{"results": [{"op": "nn", "m": 64, "kernel": "exact", "threads": 1, "secs": 2.0, "gflops": 9},
                            {"op": "nn", "m": 64, "kernel": "exact", "threads": 1, "secs": 3.0}]}"#,
        );
        let new = parse(
            r#"{"results": [{"op": "tn", "m": 8, "kernel": "fast", "threads": 2, "secs": 50.0},
                            {"op": "nn", "m": 64, "kernel": "exact", "threads": 1, "secs": 2.0, "gflops": 9},
                            {"op": "nn", "m": 64, "kernel": "exact", "threads": 1, "secs": 3.0}]}"#,
        );
        let rows = compare(&[old], &[new]);
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(
            keys,
            ["results[op=nn,m=64,kernel=exact,threads=1].secs", "results[op=nn,m=64,kernel=exact,threads=1#2].secs"]
        );
        assert_eq!(worst_regression(&rows), 0.0, "the new row has nothing to compare with");
        // Rows without identity fields still go by position.
        let flat = flatten_numeric(&parse(r#"{"epochs": [{"wall_s": 1.0}, {"wall_s": 2.0}]}"#));
        assert_eq!(flat[1].0, "epochs[1].wall_s");
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
