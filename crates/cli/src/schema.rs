//! Known-schema validation for `tgl jsoncheck`.
//!
//! The run report and the micro bench record carry a `"schema"`
//! discriminator: `tgl-run-report/v3`, whose `profile` / `critpath` /
//! `recent` sections are checked here (a flight dump is one), and
//! `tgl-bench-micro/v1` (`BENCH_micro.json`, whose host shape and rows
//! are). After the generic parse/round-trip
//! check, `jsoncheck` looks the discriminator up here
//! and — when it names a schema this module knows — validates the
//! document's shape so CI catches a writer drifting from its contract,
//! not just malformed text. Unknown or absent schemas pass untouched:
//! plain JSON stays plain.

use tgl_data::Json;

/// Validates a parsed document against its declared `schema` field.
///
/// Returns `Ok(Some(name))` when a known schema matched and every
/// shape constraint held, `Ok(None)` when the document declares no
/// (known) schema, and `Err` naming the first violated constraint.
pub fn validate(v: &Json) -> Result<Option<&'static str>, String> {
    let Some(schema) = v.get("schema").and_then(Json::as_str) else {
        return Ok(None);
    };
    match schema {
        "tgl-run-report/v3" => run_report(v).map(|()| Some("tgl-run-report/v3")),
        "tgl-bench-micro/v1" => micro_record(v).map(|()| Some("tgl-bench-micro/v1")),
        _ => Ok(None),
    }
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn string<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))
}

/// The sections of the run report that used to be documents of their
/// own (`profile`, `critpath`, and a flight dump's `recent`). Each may
/// be `null` (layer off) or absent.
fn run_report(v: &Json) -> Result<(), String> {
    let section = |key: &str| v.get(key).filter(|s| **s != Json::Null);
    for (key, fields) in [
        ("profile", &["calls", "self_ns", "span_ns", "total_ns", "flops", "bytes_read", "bytes_written"][..]),
        ("recent", &["tid", "t_ns", "dur_ns"][..]),
    ] {
        if section(key).is_none() {
            continue;
        }
        for (i, r) in arr(v, key)?.iter().enumerate() {
            let name = string(r, "name").map_err(|e| format!("{key}[{i}]: {e}"))?;
            let ctx = |e| format!("{key} row {name:?}: {e}");
            if key == "profile" {
                string(r, "phase").map_err(ctx)?;
            }
            let kind = string(r, "kind").map_err(ctx)?;
            if !matches!(kind, "phase" | "region" | "op" | "timer") {
                return Err(format!("{key} row {name:?}: unknown kind {kind:?}"));
            }
            stage_label(r).map_err(ctx)?;
            for field in fields {
                num(r, field).map_err(ctx)?;
            }
        }
    }
    if let Some(cp) = section("critpath") {
        for key in ["wall_s", "busy_s", "serial_s", "critical_s", "wait_s"] {
            num(cp, key).map_err(|e| format!("critpath: {e}"))?;
        }
        for (i, row) in arr(cp, "stages").map_err(|e| format!("critpath: {e}"))?.iter().enumerate() {
            stage_label(row).map_err(|e| format!("critpath.stages[{i}]: {e}"))?;
            for key in ["serial_s", "exclusive_s", "overlapped_s", "critical_s"] {
                num(row, key).map_err(|e| format!("critpath.stages[{i}]: {e}"))?;
            }
        }
    }
    Ok(())
}

/// `BENCH_micro.json`: the host shape every record carries, and rows
/// that `tgl jsoncheck --trend` can key (a string `name`, a whole
/// `threads`, each pair once) and time (a numeric `secs`).
fn micro_record(v: &Json) -> Result<(), String> {
    let host = v.get("host").ok_or("missing field \"host\"")?;
    num(host, "cores").map_err(|e| format!("host: {e}"))?;
    string(host, "simd").map_err(|e| format!("host: {e}"))?;
    string(host, "kernel").map_err(|e| format!("host: {e}"))?;
    num(host, "threads").map_err(|e| format!("host: {e}"))?;
    let mut seen = std::collections::HashSet::new();
    for (i, r) in arr(v, "rows")?.iter().enumerate() {
        let name = string(r, "name").map_err(|e| format!("rows[{i}]: {e}"))?;
        let threads = num(r, "threads").map_err(|e| format!("row {name:?}: {e}"))?;
        if threads.fract() != 0.0 || threads < 1.0 {
            return Err(format!("row {name:?}: threads {threads} is not a whole count"));
        }
        num(r, "secs").map_err(|e| format!("row {name:?}: {e}"))?;
        if !seen.insert((name, threads as u64)) {
            return Err(format!("row {name:?} at {threads} threads appears twice"));
        }
    }
    Ok(())
}

fn stage_label(v: &Json) -> Result<(), String> {
    match string(v, "stage")? {
        "sample" | "transfer" | "forward" | "backward" | "opt" | "other" => Ok(()),
        other => Err(format!("unknown stage {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test JSON parses")
    }

    #[test]
    fn documents_without_a_known_schema_pass() {
        assert_eq!(validate(&parse("{\"a\": 1}")), Ok(None));
        assert_eq!(validate(&parse("{\"schema\": \"tgl-profile/v1\"}")), Ok(None));
        assert_eq!(validate(&parse("[1, 2]")), Ok(None));
    }

    #[test]
    fn report_profile_and_critpath_sections_are_shape_checked() {
        let row = "{\"name\": \"linear\", \"phase\": \"attention\", \"stage\": \"forward\", \"kind\": \"op\", \
                   \"calls\": 1, \"self_ns\": 5, \"span_ns\": 5, \"total_ns\": 5, \"flops\": 2, \
                   \"bytes_read\": 8, \"bytes_written\": 4}";
        let good = parse(&format!("{{\"schema\": \"tgl-run-report/v3\", \"profile\": [{row}]}}"));
        assert_eq!(validate(&good), Ok(Some("tgl-run-report/v3")));
        let bad_stage = parse(&format!(
            "{{\"schema\": \"tgl-run-report/v3\", \"profile\": [{}]}}",
            row.replace("forward", "sideways")
        ));
        assert!(validate(&bad_stage).unwrap_err().contains("sideways"));
        let bad_cp = parse("{\"schema\": \"tgl-run-report/v3\", \"critpath\": {\"wall_s\": 1}}");
        assert!(validate(&bad_cp).unwrap_err().contains("busy_s"));
        let span = "{\"name\": \"step\", \"kind\": \"region\", \"stage\": \"other\", \"tid\": 0, \"t_ns\": 5, \"dur_ns\": 3}";
        let dump = parse(&format!("{{\"schema\": \"tgl-run-report/v3\", \"test\": null, \"recent\": [{span}]}}"));
        assert_eq!(validate(&dump), Ok(Some("tgl-run-report/v3")));
        let bad_span = parse(&format!("{{\"schema\": \"tgl-run-report/v3\", \"recent\": [{}]}}", span.replace("\"t_ns\": 5, ", "")));
        assert!(validate(&bad_span).unwrap_err().contains("t_ns"));
    }

    #[test]
    fn micro_record_needs_its_host_shape_and_timed_rows() {
        let host = r#"{"cores": 2, "simd": "avx2-fma", "kernel": "exact", "threads": 2}"#;
        let row = r#"{"name": "matmul_512", "threads": 2, "secs": 0.004, "speedup_vs_1t": 1.2}"#;
        let doc = |host: &str, rows: &[&str]| {
            parse(&format!(r#"{{"schema": "tgl-bench-micro/v1", "host": {host}, "rows": [{}]}}"#, rows.join(", ")))
        };
        assert_eq!(validate(&doc(host, &[row])), Ok(Some("tgl-bench-micro/v1")));
        let no_secs = doc(host, &[&row.replace(r#""secs": 0.004, "#, "")]);
        assert!(validate(&no_secs).unwrap_err().contains("secs"));
        let no_simd = doc(&host.replace(r#""simd": "avx2-fma", "#, ""), &[row]);
        assert!(validate(&no_simd).unwrap_err().contains("host: missing or non-string field \"simd\""));
        assert!(validate(&doc(host, &[&row.replace(r#""threads": 2"#, r#""threads": 1.5"#)])).is_err());
        assert!(validate(&doc(host, &[row, row])).unwrap_err().contains("twice"));
    }
}
