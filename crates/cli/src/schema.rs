//! Known-schema validation for `tgl jsoncheck`.
//!
//! The observability artifacts carry a `"schema"` discriminator
//! (`tgl-run-report/v3`, whose `profile` / `critpath` / `insight`
//! sections are checked here). After the generic parse/round-trip
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

/// Number or `null` — how the writers render non-finite samples.
fn num_or_null(v: &Json, key: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Json::Num(_)) | Some(Json::Null) => Ok(()),
        _ => Err(format!("field {key:?} must be a number or null")),
    }
}

/// The sections of the run report that used to be documents of their
/// own. Each may be `null` (layer off) or absent.
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
}
