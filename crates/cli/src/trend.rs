//! Bench-trajectory comparison backing `tgl jsoncheck --trend`.
//!
//! Compares wall-time series between two benchmark JSON documents
//! (typically a freshly generated `BENCH_*.json` and the committed
//! copy extracted with `git show`), producing a per-series delta table
//! and the worst regression percentage. Only keys whose leaf name is a
//! wall-time measurement (`secs`, `wall_s`) are compared — counts,
//! ratios, and configuration echo through unchanged between runs and
//! would only add noise. A row of a results array is named by what it
//! measures, not by where it sits ([`IDENTITY`]), so appending or
//! reordering rows compares like with like.

use tgl_data::Json;

/// The fields that say what an array row measures (the op or bench,
/// its shape, kernel mode and thread count); a row carrying any of them
/// is keyed by their values instead of its position.
const IDENTITY: [&str; 7] = ["op", "bench", "m", "k", "n", "kernel", "threads"];

/// One compared series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Flattened key path, e.g. `runs[2].wall_s` or
    /// `results[bench=matmul_512,threads=2].secs`.
    pub key: String,
    /// Value in the old (committed) document.
    pub old: f64,
    /// Value in the new (fresh) document.
    pub new: f64,
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

/// Whether a flattened key names a wall-time measurement.
pub fn is_wall_time_key(key: &str) -> bool {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    matches!(leaf, "secs" | "wall_s")
}

/// Compares wall-time series present in both documents.
pub fn compare(old: &Json, new: &Json) -> Vec<TrendRow> {
    let old_rows = flatten_numeric(old);
    let new_rows: std::collections::HashMap<String, f64> =
        flatten_numeric(new).into_iter().collect();
    old_rows
        .into_iter()
        .filter(|(k, _)| is_wall_time_key(k))
        .filter_map(|(key, old_v)| {
            let new_v = *new_rows.get(&key)?;
            let delta_pct = if old_v.abs() < 1e-12 {
                0.0
            } else {
                (new_v - old_v) / old_v * 100.0
            };
            Some(TrendRow {
                key,
                old: old_v,
                new: new_v,
                delta_pct,
            })
        })
        .collect()
}

/// Renders the delta table, worst regression first.
pub fn render_table(rows: &[TrendRow]) -> String {
    let mut rows: Vec<&TrendRow> = rows.iter().collect();
    rows.sort_by(|a, b| b.delta_pct.total_cmp(&a.delta_pct));
    let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(6).max(6);
    let mut out = format!(
        "{:<width$}  {:>10}  {:>10}  {:>8}\n",
        "series", "old (s)", "new (s)", "delta"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<width$}  {:>10.4}  {:>10.4}  {:>+7.1}%\n",
            r.key, r.old, r.new, r.delta_pct
        ));
    }
    out
}

/// The largest positive delta (0 when nothing regressed).
pub fn worst_regression(rows: &[TrendRow]) -> f64 {
    rows.iter().map(|r| r.delta_pct).fold(0.0, f64::max)
}

/// Wall-time series present in `old` but absent from `new` — a renamed
/// or dropped bench config. These degrade to a warning line rather
/// than failing the check: the budget only applies to series both
/// documents share.
pub fn missing_series(old: &Json, new: &Json) -> Vec<String> {
    let new_keys: std::collections::HashSet<String> = flatten_numeric(new)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    flatten_numeric(old)
        .into_iter()
        .filter(|(k, _)| is_wall_time_key(k) && !new_keys.contains(k))
        .map(|(k, _)| k)
        .collect()
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
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.key.contains("iters")));
        let wall = rows.iter().find(|r| r.key == "runs[0].wall_s").unwrap();
        assert!((wall.delta_pct - 50.0).abs() < 1e-9);
        assert_eq!(worst_regression(&rows), wall.delta_pct);
    }

    #[test]
    fn improvements_are_not_regressions() {
        let old = parse(r#"{"secs": 2.0}"#);
        let new = parse(r#"{"secs": 1.0}"#);
        let rows = compare(&old, &new);
        assert_eq!(rows[0].delta_pct, -50.0);
        assert_eq!(worst_regression(&rows), 0.0);
    }

    #[test]
    fn missing_series_are_skipped() {
        let old = parse(r#"{"secs": 2.0, "gone": {"wall_s": 1.0}}"#);
        let new = parse(r#"{"secs": 2.2}"#);
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "secs");
    }

    #[test]
    fn missing_series_are_reported_as_warnings() {
        let old = parse(r#"{"secs": 2.0, "gone": {"wall_s": 1.0}, "iters": 5}"#);
        let new = parse(r#"{"secs": 2.2}"#);
        let missing = missing_series(&old, &new);
        assert_eq!(missing, vec!["gone.wall_s".to_string()]);
        // Non-wall-time keys never warn; nothing missing → no warnings.
        assert!(missing_series(&new, &old).is_empty());
    }

    #[test]
    fn rows_match_by_identity_when_reordered() {
        let old = parse(
            r#"{"results": [{"bench": "a", "threads": 1, "secs": 1.0}, {"bench": "b", "threads": 1, "secs": 4.0}]}"#,
        );
        let new = parse(
            r#"{"results": [{"bench": "b", "threads": 1, "secs": 4.4}, {"bench": "a", "threads": 1, "secs": 1.0}]}"#,
        );
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
        let rows = compare(&old, &new);
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
                old: 1.0,
                new: 1.3,
                delta_pct: 30.0,
            },
            TrendRow {
                key: "b.secs".into(),
                old: 1.0,
                new: 0.9,
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
