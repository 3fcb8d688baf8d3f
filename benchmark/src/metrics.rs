//! The benchmark's metric catalogue: every name, unit, direction and
//! regression bound. BENCHMARK.json at the repository root carries the
//! same table (a unit test keeps the two equal); README.md defines each
//! metric in words.

use std::collections::BTreeMap;

use tgl_data::Json;

/// One metric's contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, per workload (untraced run). The
/// bounds are three times the widest spread (quartile distance over
/// median, ten seeds) seen on the host that defined the benchmark, whose
/// speed moves by a third with its neighbours' load, capped at 0.25.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("edges_per_s", "edges/s", "higher", 0.25),
    e2e("cpu_s_per_kedge", "cpu_s/kedge", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
    e2e("accel_peak_mb", "MiB", "lower", 0.16),
];

/// The GEMM shapes (MxKxN) the TGAT profile reports.
pub const GEMM_SHAPES: [(usize, usize, usize); 2] = [(512, 32, 32), (4608, 80, 32)];

/// Single-layer metrics, per workload (traced run and probes). The
/// layer is the prefix and names the crate.
pub const PER_LAYER: [MetricDef; 44] = [
    layer("harness.step_ms_p50", "ms", "lower"),
    layer("harness.step_ms_p95", "ms", "lower"),
    layer("harness.eval_s", "s", "lower"),
    layer("harness.untraced_frac", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("data.generate_s", "s", "lower"),
    layer("data.batch_prepare_s", "s", "lower"),
    layer("graph.tcsr_build_s", "s", "lower"),
    layer("graph.memory_rows_read", "count", "lower"),
    layer("graph.memory_rows_written", "count", "lower"),
    layer("graph.mailbox_mails_stored", "count", "lower"),
    layer("sampler.sample_us_per_query", "us", "lower"),
    layer("sampler.queries", "count", "lower"),
    layer("sampler.neighbors", "count", "lower"),
    layer("core.plan_s", "s", "lower"),
    layer("core.clear_s", "s", "lower"),
    layer("core.dedup_saved_frac", "ratio", "higher"),
    layer("core.cache_hit_frac", "ratio", "higher"),
    layer("device.h2d_mb", "MiB", "lower"),
    layer("device.transfers", "count", "lower"),
    layer("device.sim_transfer_s", "s", "lower"),
    layer("device.pinned_frac", "ratio", "higher"),
    layer("models.forward_s", "s", "lower"),
    layer("models.loss_s", "s", "lower"),
    layer("models.val_ap", "ratio", "higher"),
    layer("models.final_loss", "loss", "lower"),
    layer("tensor.backward_s", "s", "lower"),
    layer("tensor.opt_s", "s", "lower"),
    layer("tensor.bwd_over_fwd", "ratio", "lower"),
    layer("tensor.pool_hit_frac", "ratio", "higher"),
    layer("tensor.pool_alloc_mb", "MiB", "lower"),
    layer("tensor.mm_fwd_gflops.512x32x32", "GFLOP/s", "higher"),
    layer("tensor.mm_bwd_gflops.512x32x32", "GFLOP/s", "higher"),
    layer("tensor.mm_bwd_over_fwd.512x32x32", "ratio", "lower"),
    layer("tensor.mm_fwd_gflops.4608x80x32", "GFLOP/s", "higher"),
    layer("tensor.mm_bwd_gflops.4608x80x32", "GFLOP/s", "higher"),
    layer("tensor.mm_bwd_over_fwd.4608x80x32", "ratio", "lower"),
    layer("runtime.cpu_over_wall", "ratio", "higher"),
    layer("runtime.sys_cpu_frac", "ratio", "lower"),
    layer("runtime.dispatch_us", "us", "lower"),
    layer("runtime.channel_ns_per_msg", "ns", "lower"),
    layer("runtime.pool_regions", "count", "lower"),
    layer("runtime.pool_chunks", "count", "lower"),
    layer("runtime.scaling_eff", "ratio", "higher"),
];

/// Counters that repeat exactly when the same data runs again (same
/// seed, same epoch index): the untraced run records their per-epoch
/// deltas, `agree` diffs them between sets, and an inference workload
/// checks them across its passes.
pub const EXACT_COUNTERS: [&str; 15] = [
    "cache.hits",
    "cache.misses",
    "dedup.rows_in",
    "dedup.rows_saved",
    "mailbox.mails_stored",
    "memory.rows_read",
    "memory.rows_written",
    "pool.chunks",
    "pool.regions",
    "sampler.neighbors",
    "sampler.queries",
    "tensor.pool.request",
    "transfer.count",
    "transfer.h2d_bytes",
    "transfer.pinned_count",
];

/// Measured values by metric name, filled by a run.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders `values` as the `metrics` object of a result, in catalogue
/// order.
///
/// # Panics
///
/// Panics if a catalogued metric was not measured or an uncatalogued
/// one was: either is a bug in the benchmark, not a property of the
/// program under test.
pub fn render(defs: &[MetricDef], values: &Values) -> Json {
    assert_eq!(values.len(), defs.len(), "measured {:?}", values.keys());
    Json::obj(
        defs.iter()
            .map(|d| {
                let v = *values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                let entry = Json::obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str(d.unit.into())),
                ]);
                (d.name.to_string(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs_of(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_num),
                )
            })
            .collect()
    }

    fn expect(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(defs_of(&doc, "end_to_end"), expect(&END_TO_END));
        assert_eq!(defs_of(&doc, "per_layer"), expect(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(d.name, "_.-", 64), "name {}", d.name);
            assert!(ok(d.unit, "_/%.-", 16), "unit {}", d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        for (m, k, n) in GEMM_SHAPES {
            assert!(seen.contains(format!("tensor.mm_bwd_over_fwd.{m}x{k}x{n}").as_str()));
        }
    }

    #[test]
    fn rendered_metrics_round_trip_with_all_their_digits() {
        let mut values = Values::new();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.insert(d.name, 1.234_567_890_123_4 * (i + 1) as f64);
        }
        let doc = render(&END_TO_END, &values);
        let back = Json::parse(&doc.render()).expect("valid JSON");
        assert_eq!(back, doc);
        let setup = back.get("setup_s").expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(Json::as_num),
            Some(1.234_567_890_123_4)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
