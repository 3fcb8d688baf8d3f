//! Known-schema validation for `tgl jsoncheck`.
//!
//! The observability artifacts carry a `"schema"` discriminator
//! (`tgl-timeseries/v1`, `tgl-alerts/v1`, and `tgl-run-report/v3`,
//! whose `profile` / `critpath` / `insight` sections are checked
//! here). After the generic
//! parse/round-trip check, `jsoncheck` looks the discriminator up here
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
        "tgl-timeseries/v1" => timeseries(v).map(|()| Some("tgl-timeseries/v1")),
        "tgl-alerts/v1" => alerts(v).map(|()| Some("tgl-alerts/v1")),
        "tgl-run-report/v3" => run_report(v).map(|()| Some("tgl-run-report/v3")),
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

fn boolean(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field {key:?}")),
    }
}

/// Number or `null` — how the writers render non-finite samples.
fn num_or_null(v: &Json, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Json::Num(_)) | Some(Json::Null) => Ok(()),
        _ => Err(format!("field {key:?} must be a number or null")),
    }
}

fn timeseries(v: &Json) -> Result<(), String> {
    num(v, "unix_ms")?;
    num(v, "retain")?;
    num(v, "ticks")?;
    for (i, s) in arr(v, "series")?.iter().enumerate() {
        let name = string(s, "name").map_err(|e| format!("series[{i}]: {e}"))?;
        let kind = string(s, "kind").map_err(|e| format!("series[{i}] {name:?}: {e}"))?;
        if !matches!(kind, "push" | "counter-delta" | "gauge" | "quantile") {
            return Err(format!("series[{i}] {name:?}: unknown kind {kind:?}"));
        }
        num(s, "total").map_err(|e| format!("series[{i}] {name:?}: {e}"))?;
        let points = arr(s, "points").map_err(|e| format!("series[{i}] {name:?}: {e}"))?;
        let mut prev_idx = None::<f64>;
        for (j, p) in points.iter().enumerate() {
            let pair = p
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("series {name:?} point[{j}]: expected [idx, value]"))?;
            let idx = pair[0]
                .as_num()
                .ok_or_else(|| format!("series {name:?} point[{j}]: non-numeric idx"))?;
            if !matches!(pair[1], Json::Num(_) | Json::Null) {
                return Err(format!(
                    "series {name:?} point[{j}]: value must be a number or null"
                ));
            }
            if prev_idx.is_some_and(|p| idx <= p) {
                return Err(format!(
                    "series {name:?} point[{j}]: idx {idx} not strictly increasing"
                ));
            }
            prev_idx = Some(idx);
        }
    }
    Ok(())
}

fn alerts(v: &Json) -> Result<(), String> {
    num(v, "unix_ms")?;
    boolean(v, "installed")?;
    for (i, r) in arr(v, "rules")?.iter().enumerate() {
        let name = string(r, "name").map_err(|e| format!("rules[{i}]: {e}"))?;
        let ctx = |e| format!("rule {name:?}: {e}");
        string(r, "metric").map_err(ctx)?;
        string(r, "condition").map_err(ctx)?;
        num(r, "window").map_err(ctx)?;
        num(r, "for").map_err(ctx)?;
        let sev = string(r, "severity").map_err(ctx)?;
        if !matches!(sev, "info" | "warn" | "fail") {
            return Err(format!("rule {name:?}: unknown severity {sev:?}"));
        }
        boolean(r, "firing").map_err(ctx)?;
        num(r, "fired_total").map_err(ctx)?;
        num(r, "last_idx").map_err(ctx)?;
        num_or_null(r, "last_value").map_err(ctx)?;
    }
    for (i, t) in arr(v, "transitions")?.iter().enumerate() {
        let ctx = |e| format!("transitions[{i}]: {e}");
        string(t, "rule").map_err(ctx)?;
        string(t, "metric").map_err(ctx)?;
        let sev = string(t, "severity").map_err(ctx)?;
        if !matches!(sev, "info" | "warn" | "fail") {
            return Err(format!("transitions[{i}]: unknown severity {sev:?}"));
        }
        boolean(t, "firing").map_err(ctx)?;
        num(t, "idx").map_err(ctx)?;
        num_or_null(t, "value").map_err(ctx)?;
    }
    Ok(())
}

/// The sections of the run report that used to be documents of their
/// own. Each may be `null` (layer off) or, in an in-progress report,
/// absent.
fn run_report(v: &Json) -> Result<(), String> {
    let section = |key: &str| v.get(key).filter(|s| **s != Json::Null);
    if let Some(ins) = section("insight") {
        num(ins, "steps").map_err(|e| format!("insight: {e}"))?;
        for (i, s) in arr(ins, "series").map_err(|e| format!("insight: {e}"))?.iter().enumerate() {
            let name = string(s, "name").map_err(|e| format!("insight.series[{i}]: {e}"))?;
            let ctx = |e| format!("insight series {name:?}: {e}");
            num(s, "count").map_err(ctx)?;
            // Summary moments of a diverged layer are legitimately
            // non-finite, which the writer renders as null.
            for key in ["mean", "std", "min", "max", "last"] {
                num_or_null(s, key).map_err(ctx)?;
            }
        }
    }
    if section("profile").is_some() {
        for (i, r) in arr(v, "profile")?.iter().enumerate() {
            let name = string(r, "name").map_err(|e| format!("profile[{i}]: {e}"))?;
            let ctx = |e| format!("profile row {name:?}: {e}");
            string(r, "phase").map_err(ctx)?;
            let kind = string(r, "kind").map_err(ctx)?;
            if !matches!(kind, "phase" | "region" | "op" | "timer") {
                return Err(format!("profile row {name:?}: unknown kind {kind:?}"));
            }
            stage_label(r).map_err(ctx)?;
            for key in ["calls", "self_ns", "span_ns", "total_ns", "flops", "bytes_read", "bytes_written"] {
                num(r, key).map_err(ctx)?;
            }
        }
    }
    if let Some(cp) = section("critpath") {
        for key in ["wall_s", "busy_s", "serial_s", "critical_s", "wait_s", "overlap_efficiency"] {
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
    fn valid_timeseries_passes() {
        let doc = parse(
            "{\"schema\": \"tgl-timeseries/v1\", \"unix_ms\": 1, \"retain\": 512, \
             \"ticks\": 3, \"series\": [{\"name\": \"train.loss\", \"kind\": \"push\", \
             \"total\": 4, \"points\": [[0, 0.5], [1, null], [3, 0.25]]}]}",
        );
        assert_eq!(validate(&doc), Ok(Some("tgl-timeseries/v1")));
    }

    #[test]
    fn timeseries_violations_are_named() {
        let bad_kind = parse(
            "{\"schema\": \"tgl-timeseries/v1\", \"unix_ms\": 1, \"retain\": 8, \
             \"ticks\": 0, \"series\": [{\"name\": \"x\", \"kind\": \"meter\", \
             \"total\": 0, \"points\": []}]}",
        );
        assert!(validate(&bad_kind).unwrap_err().contains("unknown kind"));

        let bad_point = parse(
            "{\"schema\": \"tgl-timeseries/v1\", \"unix_ms\": 1, \"retain\": 8, \
             \"ticks\": 0, \"series\": [{\"name\": \"x\", \"kind\": \"push\", \
             \"total\": 1, \"points\": [[0]]}]}",
        );
        assert!(validate(&bad_point).unwrap_err().contains("expected [idx, value]"));

        let non_monotone = parse(
            "{\"schema\": \"tgl-timeseries/v1\", \"unix_ms\": 1, \"retain\": 8, \
             \"ticks\": 0, \"series\": [{\"name\": \"x\", \"kind\": \"push\", \
             \"total\": 2, \"points\": [[1, 0.1], [1, 0.2]]}]}",
        );
        assert!(validate(&non_monotone).unwrap_err().contains("strictly increasing"));

        let missing = parse("{\"schema\": \"tgl-timeseries/v1\", \"unix_ms\": 1}");
        assert!(validate(&missing).unwrap_err().contains("retain"));
    }

    #[test]
    fn valid_insight_passes_and_violations_are_named() {
        let report = |sections: &str| parse(&format!("{{\"schema\": \"tgl-run-report/v3\", {sections}}}"));
        let doc = report(
            "\"insight\": {\"steps\": 12, \"series\": [{\"name\": \"insight.layer.layer0.w_q.grad_norm\", \
             \"count\": 12, \"mean\": 0.2, \"std\": 0.05, \"min\": 0.1, \"max\": null, \"last\": 0.3}]}, \
             \"critpath\": null",
        );
        assert_eq!(validate(&doc), Ok(Some("tgl-run-report/v3")));

        let missing_steps = report("\"insight\": {\"series\": []}");
        assert!(validate(&missing_steps).unwrap_err().contains("steps"));

        let bad_stat = report(
            "\"insight\": {\"steps\": 1, \"series\": [{\"name\": \"x\", \"count\": 1, \"mean\": 0.1, \
             \"std\": 0.0, \"min\": 0.1, \"max\": 0.1, \"last\": \"nan\"}]}",
        );
        assert!(validate(&bad_stat).unwrap_err().contains("last"));
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
    }

    #[test]
    fn valid_alerts_passes() {
        let doc = parse(
            "{\"schema\": \"tgl-alerts/v1\", \"unix_ms\": 1, \"installed\": true, \
             \"rules\": [{\"name\": \"r\", \"metric\": \"train.loss\", \
             \"condition\": \"above 1\", \"window\": 4, \"for\": 2, \
             \"severity\": \"warn\", \"firing\": false, \"fired_total\": 0, \
             \"last_idx\": 0, \"last_value\": null}], \
             \"transitions\": [{\"rule\": \"r\", \"metric\": \"train.loss\", \
             \"severity\": \"warn\", \"firing\": true, \"idx\": 7, \"value\": 2.5}]}",
        );
        assert_eq!(validate(&doc), Ok(Some("tgl-alerts/v1")));
    }

    #[test]
    fn alert_violations_are_named() {
        let bad_sev = parse(
            "{\"schema\": \"tgl-alerts/v1\", \"unix_ms\": 1, \"installed\": true, \
             \"rules\": [{\"name\": \"r\", \"metric\": \"m\", \"condition\": \"c\", \
             \"window\": 1, \"for\": 1, \"severity\": \"panic\", \"firing\": false, \
             \"fired_total\": 0, \"last_idx\": 0, \"last_value\": 0}], \
             \"transitions\": []}",
        );
        assert!(validate(&bad_sev).unwrap_err().contains("unknown severity"));

        let bad_installed =
            parse("{\"schema\": \"tgl-alerts/v1\", \"unix_ms\": 1, \"installed\": 3, \
                   \"rules\": [], \"transitions\": []}");
        assert!(validate(&bad_installed).unwrap_err().contains("installed"));
    }
}
