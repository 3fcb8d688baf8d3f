//! Acceptance suite for the unified observability layer (`tgl-obs`):
//! a real TGAT training run must (a) record trace spans from at least
//! two distinct threads, exported as Chrome-trace JSON that the
//! in-tree parser accepts, (b) produce a structured run report whose
//! per-epoch phase breakdown names the paper's Figure-7 operations,
//! and (c) leave the subsystem counters (cache hits, transfer bytes)
//! visibly advanced.
//!
//! Everything observability touches is process-global (span log,
//! phase map, counter registry, thread pool), so every test holds the
//! `serial()` lock and restores the default state on the way out.

use tgl_data::{DatasetKind, Json};
use tgl_harness::{
    run_experiment, ExperimentConfig, Framework, ModelKind, Placement, RunReporter,
};
use tgl_integration::serial;
use tgl_models::ModelConfig;
use tgl_runtime::set_threads;
use tglite::obs::{log, metrics};

/// One cheap TGAT epoch with the paper-default layer sizes (batches
/// large enough that the tensor kernels dispatch to pool workers).
fn obs_cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(
        Framework::TgLiteOpt,
        ModelKind::Tgat,
        DatasetKind::Wiki,
        Placement::AllOnDevice,
    );
    cfg.dataset = cfg.dataset.scaled_down(10);
    cfg.train_cfg.epochs = 1;
    cfg
}

#[test]
fn traced_run_spans_two_threads_and_exports_valid_chrome_json() {
    let _g = serial();
    set_threads(2);
    log::full(true);
    run_experiment(&obs_cfg());
    let spans = log::take();
    log::full(false);
    set_threads(1);

    assert!(!spans.is_empty(), "traced run recorded no spans");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= 2,
        "expected spans from >=2 threads, got tids {tids:?}"
    );
    for phase in ["sample", "prep_batch", "attention", "backward"] {
        assert!(
            spans.iter().any(|s| s.name == phase),
            "no span named {phase:?} in traced run"
        );
    }

    let json = tgl_harness::report::chrome_trace(&spans);
    let doc = Json::parse(&json).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("ts").and_then(Json::as_num).is_some());
        assert!(ev.get("dur").and_then(Json::as_num).is_some());
        assert!(ev.get("tid").and_then(Json::as_num).is_some());
    }
}

#[test]
fn run_report_names_figure7_phases_and_roundtrips_as_json() {
    let _g = serial();
    let mut rep = RunReporter::start();
    rep.set_meta("model", "TGAT");
    rep.set_meta("dataset", "Wiki");

    // The reporter consumes the `EpochStats` the trainer hands back,
    // so drive the epoch loop directly, the way the CLI does.
    let (ctx, split, trainer, mut model, mut opt) = {
        use tgl_data::{generate, DatasetSpec, Split};
        use tgl_harness::{TrainConfig, Trainer};
        use tgl_models::{OptFlags, TemporalModel, Tgat};
        let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
        let (g, _) = generate(&spec);
        let ctx = tglite::TContext::new(g.clone());
        let model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42);
        let opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
        let split = Split::standard(&g);
        let trainer = Trainer::new(
            TrainConfig { batch_size: 100, epochs: 1, lr: 1e-3, seed: 0 },
            spec.n_src as u32,
            spec.num_nodes() as u32,
        );
        (ctx, split, trainer, model, opt)
    };
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    rep.record_epoch(0, &stats);
    let (test_ap, test_s) = trainer.evaluate(&mut model, &ctx, split.test.clone());
    let report = rep.finish(test_ap, test_s);

    let epoch = &report.epochs[0];
    for phase in ["sample", "prep_batch", "time_nbrs", "attention", "backward"] {
        assert!(
            epoch.phases_s.iter().any(|(n, s)| n == phase && *s > 0.0),
            "epoch phases missing {phase:?}: {:?}",
            epoch.phases_s
        );
    }
    assert!(
        epoch.counters.iter().any(|(n, v)| n == "cache.hits" && *v > 0),
        "epoch counter delta missing cache.hits: {:?}",
        epoch.counters
    );

    let rendered = report.to_json();
    let doc = Json::parse(&rendered).expect("run report must be valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("tgl-run-report/v3")
    );
    let epochs = doc.get("epochs").and_then(Json::as_arr).expect("epochs");
    assert_eq!(epochs.len(), 1);
    assert!(epochs[0].get("phases_s").is_some());
    assert!(epochs[0].get("hists").is_some());
    assert!(doc.get("counters_total").is_some());
    let health = doc.get("health").expect("the report carries a health section");
    assert!(health.get("policy").and_then(Json::as_str).is_some());
    assert!(health.get("status").and_then(Json::as_str).is_some());
}

/// Peak RSS is mostly memory the buffer pool holds, so each epoch end
/// publishes it: after one epoch from an empty pool, the report
/// `--metrics-out` writes carries a nonzero `tensor.pool.held_bytes`
/// gauge.
#[test]
fn run_report_gauges_what_the_buffer_pool_holds() {
    let _g = serial();
    let mut cfg = obs_cfg();
    cfg.dataset = cfg.dataset.scaled_down(2);
    cfg.model_cfg = ModelConfig::tiny();
    let path = std::env::temp_dir().join(format!("tgl-pool-held-{}.json", std::process::id()));
    let opts = tgl_harness::ObsOptions { metrics_out: Some(path.clone()), ..Default::default() };
    tglite::tensor::pool::clear();
    tglite::obs::hist::gauge("tensor.pool.held_bytes").set(0.0);
    tgl_harness::run(&cfg, &opts).expect("the report path is writable");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("read the report")).expect("valid JSON");
    std::fs::remove_file(&path).ok();
    let held = doc.get("gauges").and_then(|g| g.get("tensor.pool.held_bytes")).and_then(Json::as_num);
    assert!(held.is_some_and(|b| b > 0.0), "tensor.pool.held_bytes gauge: {held:?}");
}

/// Everything an end-of-run flight dump held, the `--metrics-out`
/// report holds: its `recent` section carries the run's last training
/// `step` region, the very record the full log kept for the whole run.
#[test]
fn run_report_recent_holds_the_last_training_step() {
    let _g = serial();
    let path = std::env::temp_dir().join(format!("tgl-recent-{}.json", std::process::id()));
    let opts = tgl_harness::ObsOptions { metrics_out: Some(path.clone()), ..Default::default() };
    log::full(true);
    tgl_harness::run(&obs_cfg(), &opts).expect("the report path is writable");
    let spans = log::take();
    log::full(false);
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("read the report")).expect("valid JSON");
    std::fs::remove_file(&path).ok();
    let last = spans.iter().filter(|s| s.name == "step").max_by_key(|s| s.start_ns).expect("the run logged its steps");
    let recent = doc.get("recent").and_then(Json::as_arr).expect("the report has a recent section");
    let field = |s: &Json, key: &str| s.get(key).and_then(Json::as_num);
    let steps: Vec<(Option<f64>, Option<f64>)> = recent
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("step"))
        .filter(|s| s.get("kind").and_then(Json::as_str) == Some("region"))
        .map(|s| (field(s, "t_ns"), field(s, "dur_ns")))
        .collect();
    assert!(
        steps.contains(&(Some(last.start_ns as f64), Some(last.dur_ns as f64))),
        "recent holds {} step regions, not the last one at {} ns",
        steps.len(),
        last.start_ns
    );
}

/// The acceptance bar for the telemetry layer: one reported epoch on
/// the accelerator placement must populate all five latency histogram
/// families, and their quantiles must appear in the run report.
#[test]
fn run_report_covers_latency_histograms() {
    let _g = serial();
    set_threads(2);

    let cfg = obs_cfg();
    let mut rep = RunReporter::start();
    let (ctx, split, trainer, mut model, mut opt) = {
        use tgl_data::{generate, Split};
        use tgl_harness::Trainer;
        use tgl_models::{OptFlags, TemporalModel, Tgat};
        let (g, _) = generate(&cfg.dataset);
        // Accel placement: every batch crosses the (simulated) link, so
        // `transfer.latency_ns` records alongside step/sampler/gemm;
        // two pool threads make `pool.wait_ns` record too.
        let ctx = tglite::TContext::with_device(g.clone(), tgl_device::Device::Accel);
        let model = Tgat::new(&ctx, cfg.model_cfg, OptFlags::all(), 42);
        let opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
        let split = Split::standard(&g);
        let trainer = Trainer::new(
            cfg.train_cfg,
            cfg.dataset.n_src as u32,
            cfg.dataset.num_nodes() as u32,
        );
        (ctx, split, trainer, model, opt)
    };
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);
    rep.record_epoch(0, &stats);
    let report = rep.finish(0.5, 0.1);
    set_threads(1);

    const FAMILIES: [&str; 5] = [
        "step.latency_ns",
        "sampler.latency_ns",
        "transfer.latency_ns",
        "gemm.latency_ns",
        "pool.wait_ns",
    ];
    let doc = Json::parse(&report.to_json()).expect("report JSON");
    let hists = doc.get("histograms").expect("histograms section");
    for fam in FAMILIES {
        let h = hists
            .get(fam)
            .unwrap_or_else(|| panic!("report histograms missing {fam:?}"));
        assert!(
            h.get("count").and_then(Json::as_num).unwrap_or(0.0) > 0.0,
            "{fam}: no samples recorded"
        );
        for q in ["p50", "p90", "p99", "max"] {
            assert!(
                h.get(q).and_then(Json::as_num).is_some(),
                "{fam}: quantile {q} missing from report"
            );
        }
    }
}

/// Poisoned parameters must surface as structured health events, not a
/// crash: under the default `warn` policy a NaN loss skips the batch,
/// records a `trainer.loss` event and advances the
/// `health.nonfinite_loss` counter, and the epoch still completes.
#[test]
fn injected_nan_loss_is_a_health_event_not_a_panic() {
    let _g = serial();
    use tgl_data::{generate, DatasetSpec, Split};
    use tgl_harness::{HealthPolicy, TrainConfig, Trainer};
    use tgl_models::{OptFlags, TemporalModel, Tgat};
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
    let (g, _) = generate(&spec);
    let ctx = tglite::TContext::new(g.clone());
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 7);
    // Poison the weights: every forward pass now produces a NaN loss.
    // (All of them — the segment kernels sanitize non-finite values in
    // isolated spots, so a single poisoned tensor can slip through.)
    for p in model.parameters() {
        p.with_data_mut(|d| d.fill(f32::NAN));
    }
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    let split = Split::standard(&g);
    let trainer = Trainer::new(
        TrainConfig { batch_size: 200, epochs: 1, lr: 1e-3, seed: 0 },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_health(HealthPolicy::Warn);

    let events0 = tglite::obs::health::events().len();
    let nonfinite0 = metrics::get("health.nonfinite_loss");
    let stats = trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0);

    let events = tglite::obs::health::events();
    assert!(
        events.len() > events0,
        "NaN loss recorded no health events"
    );
    assert!(
        events[events0..].iter().any(|e| e.source == "trainer.loss"),
        "no trainer.loss event among {:?}",
        events[events0..].iter().map(|e| e.source).collect::<Vec<_>>()
    );
    assert!(
        metrics::get("health.nonfinite_loss") > nonfinite0,
        "health.nonfinite_loss counter did not advance"
    );
    // Every batch was skipped: no mean loss, and the skips are counted.
    assert!(stats.loss.is_nan() && stats.steps == 0 && stats.skipped > 0, "{stats:?}");
}

#[test]
fn training_run_advances_cache_and_transfer_counters() {
    let _g = serial();
    let cache_before = metrics::get("cache.hits");
    let h2d_before = metrics::get("transfer.h2d_bytes");
    let dedup_before = metrics::get("dedup.rows_saved");
    run_experiment(&obs_cfg());
    assert!(
        metrics::get("cache.hits") > cache_before,
        "TGLite+opt run produced no cache hits"
    );
    assert!(
        metrics::get("transfer.h2d_bytes") > h2d_before,
        "run moved no bytes across the tier boundary"
    );
    assert!(
        metrics::get("dedup.rows_saved") > dedup_before,
        "dedup saved no rows on a repeat-heavy Wiki stream"
    );
}

/// One reported, logged training epoch (plus its validation pass) of
/// `model` at `threads` pool threads, pipeline 0.
fn reported_epoch(model: ModelKind, threads: usize) -> tgl_harness::RunReport {
    use tgl_harness::runner::{build_model, prepare_context};
    use tgl_harness::Trainer;
    let mut cfg = obs_cfg();
    cfg.model = model;
    set_threads(threads);
    let (ctx, split) = prepare_context(&cfg.dataset, cfg.placement, cfg.transfer);
    let mut model = build_model(cfg.framework, cfg.model, &ctx, cfg.model_cfg, cfg.seed);
    let trainer =
        Trainer::new(cfg.train_cfg, cfg.dataset.n_src as u32, cfg.dataset.num_nodes() as u32)
            .with_pipeline(0);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), cfg.train_cfg.lr);
    log::full(true);
    let mut rep = RunReporter::start();
    let stats = trainer.train_epoch(model.as_mut(), &ctx, &split, &mut opt, 0);
    rep.record_epoch(0, &stats);
    let report = rep.finish(0.0, 0.0);
    log::full(false);
    set_threads(1);
    report
}

/// The stage table at two threads: each of its three columns adds up
/// to the critical path's wall within 1%. The phases and the op profile
/// split the main thread's time, and `critpath_s` is each stage's share
/// of the critical path; a stage's serial seconds (every thread's work)
/// would add up to more than the wall.
#[test]
fn stage_table_columns_add_up_to_the_wall_at_two_threads() {
    let _g = serial();
    let report = reported_epoch(ModelKind::Tgat, 2);
    let cp = report.critpath.as_ref().expect("the span log kept the run");
    let table = tgl_harness::profrep::render_stages(&report.profile, Some(cp));
    let mut sums = [0.0f64; 3];
    for row in table.lines().map(|l| l.split_whitespace().collect::<Vec<_>>()) {
        let cols: Vec<f64> = row.iter().skip(1).filter_map(|c| c.parse().ok()).collect();
        if row.len() == 6 && cols.len() == 5 {
            (sums[0], sums[1], sums[2]) = (sums[0] + cols[0], sums[1] + cols[3], sums[2] + cols[4]);
        }
    }
    for (name, sum) in ["phase_s", "ops+rest_s", "critpath_s"].iter().zip(sums) {
        assert!(
            (sum - cp.wall_s).abs() <= 0.01 * cp.wall_s,
            "{name} adds up to {sum:.4}s of a {:.4}s wall:\n{table}",
            cp.wall_s
        );
    }
}

/// The phase table, the op profile and the critical path are three
/// readers of one span stream, so on one thread they must put the same
/// seconds in the same stage: for every stage above 5% of the wall the
/// three agree within 5%. Nothing heavy may hide from them either —
/// `other` stays below 5% of the critical path, the `sample` phase is
/// covered by an op, and on TGN no `(no-phase)` op holds more than 1%.
/// At two threads the backward stage of the critical path tracks the
/// `backward` phase's wall.
#[test]
fn timing_views_agree_per_stage_on_real_tgat_and_tgn_epochs() {
    use tglite::obs::profile::{stage_seconds, NO_PHASE};
    use tglite::obs::{Kind, Stage};
    let _g = serial();
    let within = |a: f64, b: f64| (a - b).abs() <= 0.05 * a.max(b);
    for model in [ModelKind::Tgat, ModelKind::Tgn] {
        let report = reported_epoch(model, 1);
        let cp = report.critpath.as_ref().expect("the span log kept the run");
        let views = stage_seconds(&report.profile);
        let mut heavy = 0;
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            let (phase_s, ops_s, serial_s) =
                (views[i].phase_s, views[i].op_s + views[i].rest_s, cp.stages[i].serial_s);
            if serial_s <= 0.05 * cp.wall_s {
                continue;
            }
            heavy += 1;
            assert!(
                within(phase_s, serial_s) && within(ops_s, serial_s),
                "{model:?} {}: phase table {phase_s:.4}s, op profile {ops_s:.4}s, critpath {serial_s:.4}s",
                stage.label()
            );
        }
        assert!(heavy >= 2, "{model:?}: forward and backward must both be above 5% of the wall");
        let other = &cp.stages[Stage::Other as usize];
        assert!(
            other.critical_s < 0.05 * cp.critical_s,
            "{model:?}: {:.4}s of the {:.4}s critical path is in `other`",
            other.critical_s,
            cp.critical_s
        );
        let ops = || report.profile.iter().filter(|r| r.kind == Kind::Op);
        assert!(
            ops().any(|r| r.phase == "sample" && r.self_ns > 0),
            "{model:?}: no op covers the sample phase"
        );
        if model == ModelKind::Tgn {
            let total: u64 = ops().map(|r| r.self_ns).sum();
            for r in ops().filter(|r| r.phase == NO_PHASE) {
                assert!(
                    r.self_ns * 100 <= total,
                    "TGN: {} in {NO_PHASE} holds {:.1}% of op self time",
                    r.name,
                    100.0 * r.self_ns as f64 / total as f64
                );
            }
        }

        let report = reported_epoch(model, 2);
        let cp = report.critpath.as_ref().expect("the span log kept the run");
        let backward_wall = report
            .phases_total_s
            .iter()
            .find(|(n, _)| n == "backward")
            .map_or(0.0, |&(_, s)| s);
        let critical = cp.stages[Stage::Backward as usize].critical_s;
        assert!(
            within(critical, backward_wall),
            "{model:?} at 2 threads: critpath backward {critical:.4}s vs backward phase {backward_wall:.4}s"
        );
    }
}
