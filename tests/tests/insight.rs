//! Acceptance suite for the model & data introspection layer on real
//! training runs: every `insight.*` summary must be bitwise identical
//! at 1 and 4 pool threads and at pipeline depths 0 and 2 (the bag
//! travels with its batch and is flushed in batch order, so schedule
//! must not leak into the numbers); and an injected per-layer pathology
//! (absurd learning rate) must be attributable to a specific named
//! parameter group through the cumulative stats, the rendered table,
//! and the run report's `insight` section.
//!
//! Everything the introspection layer touches is process-global
//! (insight registry, thread pool), so every test holds a serial lock
//! and restores default state on exit.

use std::sync::{Mutex, MutexGuard};

use tgl_data::{generate, DatasetKind, DatasetSpec, Split};
use tgl_harness::{HealthPolicy, TrainConfig, Trainer};
use tgl_models::{ModelConfig, OptFlags, TemporalModel, Tgat};
use tgl_runtime::set_threads;
use tglite::obs::insight;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One epoch of TGAT on a scaled-down Wiki stream with introspection
/// on, at a given thread count and pipeline depth. Returns the final
/// loss; the insight registry is left populated for the caller to
/// inspect.
fn insight_epoch(threads: usize, pipeline: usize, lr: f32, policy: HealthPolicy) -> f32 {
    set_threads(threads);
    tglite::obs::health::reset();
    insight::enable(true);
    insight::reset();

    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(8);
    let (g, _) = generate(&spec);
    let ctx = tglite::TContext::new(g.clone());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), lr);
    let split = Split::standard(&g);
    let trainer = Trainer::new(
        TrainConfig { batch_size: 100, epochs: 1, lr, seed: 0 },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_pipeline(pipeline)
    .with_health(policy);
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    stats.loss
}

fn teardown() {
    insight::enable(false);
    insight::reset();
    set_threads(1);
}

/// Bitwise view of the cumulative registry (NaN-safe, unlike `==`).
fn stat_bits(stats: &[insight::InsightStat]) -> Vec<(String, u64, [u64; 5])> {
    stats
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.count,
                [
                    s.mean.to_bits(),
                    s.std.to_bits(),
                    s.min.to_bits(),
                    s.max.to_bits(),
                    s.last.to_bits(),
                ],
            )
        })
        .collect()
}

/// Names every insight family the instrumented TGAT run must produce:
/// model groups (attention projections, ffn, time encoder, predictor)
/// and data-quality series (neighbor dt, negative collisions, dedup).
fn assert_coverage(stats: &[insight::InsightStat]) {
    for needle in [
        "insight.layer.layer0.w_q.grad_norm",
        "insight.layer.layer0.w_q.weight_norm",
        "insight.layer.layer0.w_q.update_ratio",
        "insight.layer.predictor.out_fc.grad_norm",
        "insight.data.nbr_dt.mean",
        "insight.data.neg_collision_rate",
        "insight.data.dedup_saved_frac",
    ] {
        assert!(
            stats.iter().any(|s| s.name == needle && s.count > 0),
            "expected series {needle} in insight stats, have: {:?}",
            stats.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }
}

/// The headline invariance: same run at 1 and 4 pool threads must
/// leave a bitwise-identical insight registry.
#[test]
fn insight_series_bitwise_identical_at_1_and_4_threads() {
    let _g = serial();
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let loss = insight_epoch(threads, 0, 1e-3, HealthPolicy::Off);
        assert!(loss.is_finite());
        let stats = insight::stats();
        assert_coverage(&stats);
        runs.push((stat_bits(&stats), insight::steps()));
    }
    teardown();

    assert!(runs[0].1 > 0, "no steps flushed");
    assert_eq!(runs[0].1, runs[1].1, "step count differs across threads");
    assert_eq!(runs[0].0, runs[1].0, "insight registry differs between 1 and 4 threads");
}

/// Pipeline-depth invariance: the insight bag travels with its batch
/// from the sampler thread and is flushed in batch order, so depth 2
/// must be bitwise identical to the sequential reference.
#[test]
fn insight_series_bitwise_identical_at_pipeline_0_and_2() {
    let _g = serial();
    let mut runs = Vec::new();
    for depth in [0usize, 2] {
        let loss = insight_epoch(2, depth, 1e-3, HealthPolicy::Off);
        assert!(loss.is_finite());
        let stats = insight::stats();
        assert_coverage(&stats);
        runs.push((stat_bits(&stats), insight::steps()));
    }
    teardown();

    assert_eq!(runs[0].1, runs[1].1, "step count differs across pipeline depths");
    assert_eq!(runs[0].0, runs[1].0, "insight registry differs between pipeline 0 and 2");
}

/// An injected per-layer pathology (lr so large the first Adam step
/// moves every weight by ~1e18) must be attributable to a specific
/// named parameter group: the cumulative stats carry an absurd update
/// ratio for `layer0.w_q`, the rendered table names the group, and the
/// run report's `insight` section round-trips with the same numbers.
#[test]
fn diverged_run_is_attributable_to_a_named_parameter_group() {
    let _g = serial();
    insight_epoch(1, 0, 1e18, HealthPolicy::Warn);
    let stats = insight::stats();
    let steps = insight::steps();
    // Wide enough to hold every parameter group: the top-k cut is by
    // gradient norm, and the pathology here lives in the update ratio.
    let table = insight::render_table(16);
    let artifact = tgl_harness::RunReporter::start().finish(0.0, 0.0).to_json();
    teardown();

    assert!(steps > 0);
    let wq = stats
        .iter()
        .find(|s| s.name == "insight.layer.layer0.w_q.update_ratio")
        .expect("layer0.w_q update_ratio tracked");
    assert!(
        !wq.last.is_finite() || wq.last > 1e6,
        "lr=1e18 should blow up layer0.w_q's update ratio, got {}",
        wq.last
    );
    let max_ratio = stats
        .iter()
        .filter(|s| s.name.ends_with(".update_ratio"))
        .map(|s| if s.max.is_finite() { s.max } else { f64::INFINITY })
        .fold(0.0f64, f64::max);
    assert!(max_ratio > 1e6, "no parameter group shows the pathology");

    // The table is the CLI's `--insight` surface: it must name the
    // offending group so the user can act on it.
    assert!(table.contains("layer0.w_q"), "table should name layer0.w_q:\n{table}");
    assert!(table.contains("update_ratio") || table.contains("update"), "table header:\n{table}");

    // The run report is the machine surface: its insight section
    // carries the step count and per-series summaries that match the
    // registry.
    let report = tgl_data::Json::parse(&artifact).expect("run report parses");
    assert_eq!(
        report.get("schema").and_then(tgl_data::Json::as_str),
        Some("tgl-run-report/v3")
    );
    let doc = report.get("insight").expect("insight section");
    assert_eq!(
        doc.get("steps").and_then(tgl_data::Json::as_num),
        Some(steps as f64)
    );
    let arr = doc.get("series").and_then(tgl_data::Json::as_arr).expect("series array");
    assert_eq!(arr.len(), stats.len());
    assert!(arr.iter().any(|s| {
        s.get("name").and_then(tgl_data::Json::as_str)
            == Some("insight.layer.layer0.w_q.update_ratio")
    }));
}
