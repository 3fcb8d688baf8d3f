//! Acceptance suite for critical-path analysis and flight dumps: on a
//! real traced TGAT run the analyzer's critical path must land within
//! 10% of the traced wall regardless of thread count (1 vs 4), the run
//! report's `critpath` section must parse with the in-tree JSON parser,
//! and an injected panic must leave a `flight-<ts>.json` post-mortem
//! behind: a run report whose `meta.reason` says why and whose `recent`
//! section holds each thread's last spans.
//!
//! The span log, pool size, and `TGL_FLIGHT_DIR` are all
//! process-global, so every test holds the `serial()` lock and
//! restores the default state on the way out.

use tgl_data::{generate, DatasetKind, DatasetSpec, Json, Split};
use tgl_harness::{
    run_experiment, ExperimentConfig, Framework, ModelKind, ObsOptions, Placement, RunReport, TrainConfig, Trainer,
};
use tgl_integration::{serial, PanicsInForward};
use tgl_models::{ModelConfig, OptFlags, TemporalModel, Tgat};
use tglite::tensor::optim::Adam;
use tglite::TContext;
use tgl_runtime::set_threads;
use tglite::obs::{critpath, log};

/// One cheap TGAT epoch, big enough that the tensor kernels dispatch
/// to pool workers and every pipeline stage leaves spans behind.
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

/// Runs one traced epoch at `threads` pool threads and returns the
/// analysis of the captured spans.
fn traced_run(threads: usize) -> critpath::Analysis {
    set_threads(threads);
    log::full(true);
    run_experiment(&obs_cfg());
    let spans = log::take();
    log::full(false);
    set_threads(1);
    critpath::analyze(&spans)
}

/// Stage labels with nonzero serial time, as a sorted set.
fn active_stages(a: &critpath::Analysis) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = a
        .stages
        .iter()
        .filter(|s| s.serial_s > 0.0)
        .map(|s| s.stage.label())
        .collect();
    names.sort_unstable();
    names
}

/// The headline acceptance bound: the reconstructed critical path
/// must explain the traced wall clock to within 10%, whether the run
/// was fully serial (1 thread) or overlapped (4 threads) — the
/// analyzer follows actual dependencies, not thread count.
#[test]
fn critical_path_tracks_wall_at_one_and_four_threads() {
    let _g = serial();
    let one = traced_run(1);
    let four = traced_run(4);

    for (label, a) in [("1 thread", &one), ("4 threads", &four)] {
        assert!(a.wall_s > 0.0, "{label}: empty trace");
        assert!(
            a.critical_s <= a.wall_s * 1.0001 + 1e-9,
            "{label}: critical path {:.4}s exceeds wall {:.4}s",
            a.critical_s,
            a.wall_s
        );
        assert!(
            a.critical_s >= a.wall_s * 0.90,
            "{label}: critical path {:.4}s explains <90% of wall {:.4}s",
            a.critical_s,
            a.wall_s
        );
        // serial/wall is the average number of busy threads: positive,
        // and never more than the threads that could have been busy.
        let concurrency = a.serial_s / a.wall_s;
        assert!(
            concurrency > 0.0 && concurrency <= a.threads as f64 + 1e-9,
            "{label}: serial/wall {concurrency:.3} outside (0, {}]",
            a.threads
        );
    }

    // The batch schedule is fixed by the dataset, not the pool size.
    assert_eq!(one.steps, four.steps, "step count changed with threads");
    assert!(one.steps > 0, "no step regions observed");
    assert_eq!(
        active_stages(&one),
        active_stages(&four),
        "active stage set changed with thread count"
    );
    for stage in ["sample", "transfer", "forward", "backward", "opt"] {
        assert!(
            active_stages(&one).contains(&stage),
            "traced run missing {stage:?} stage: {:?}",
            active_stages(&one)
        );
    }
    // More workers must not make the dependency-respecting serial
    // total shrink below what one thread measured by a wide margin —
    // same work, just overlapped.
    assert!(
        four.threads > one.threads,
        "4-thread run recorded {} trace thread(s), 1-thread run {}",
        four.threads,
        one.threads
    );
}

/// The artifact contract: a `--critpath --metrics-out` run writes one
/// report the in-tree parser accepts, whose `critpath` section has
/// per-stage rows whose serial times sum to the headline serial total.
#[test]
fn critpath_artifact_parses_and_is_self_consistent() {
    let _g = serial();
    set_threads(2);
    let path = std::env::temp_dir().join(format!("tgl-critpath-report-{}.json", std::process::id()));
    let opts = ObsOptions { critpath: true, metrics_out: Some(path.clone()), ..ObsOptions::default() };
    tgl_harness::run(&obs_cfg(), &opts).expect("run with a writable report path");
    set_threads(1);
    let report = Json::parse(&std::fs::read_to_string(&path).expect("report written"))
        .expect("run report must be valid JSON");
    std::fs::remove_file(&path).ok();
    assert_eq!(report.get("schema").and_then(Json::as_str), Some("tgl-run-report/v3"));
    let doc = report.get("critpath").expect("critpath section");
    for key in ["wall_s", "busy_s", "serial_s", "critical_s", "wait_s", "threads"] {
        assert!(
            doc.get(key).and_then(Json::as_num).is_some(),
            "artifact missing numeric {key:?}"
        );
    }
    let stages = doc.get("stages").and_then(Json::as_arr).expect("stages");
    assert_eq!(stages.len(), critpath::Stage::ALL.len());
    let stage_sum: f64 = stages
        .iter()
        .filter_map(|s| s.get("serial_s").and_then(Json::as_num))
        .sum();
    let serial_s = doc.get("serial_s").and_then(Json::as_num).unwrap();
    assert!(
        serial_s > 0.0 && (stage_sum - serial_s).abs() <= serial_s * 1e-6 + 1e-9,
        "stage serial times sum to {stage_sum:.6}, headline serial is {serial_s:.6}"
    );
    // The section's serial/wall is an average of busy threads.
    let num = |key: &str| doc.get(key).and_then(Json::as_num).unwrap();
    let concurrency = serial_s / num("wall_s");
    assert!(
        concurrency > 0.0 && concurrency <= num("threads") + 1e-9,
        "serial/wall {concurrency:.3} outside (0, {}]",
        num("threads")
    );
}

/// The run report `doc` as a flight dump: schema, `meta.reason` and a
/// `recent` section of well-formed spans, returned.
fn flight_dump<'a>(doc: &'a Json, reason: &str) -> &'a [Json] {
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("tgl-run-report/v3"));
    assert_eq!(doc.get("meta").and_then(|m| m.get("reason")).and_then(Json::as_str), Some(reason));
    let recent = doc.get("recent").and_then(Json::as_arr).expect("flight dump has a recent section");
    for span in recent {
        assert!(span.get("name").and_then(Json::as_str).is_some());
        assert!(span.get("t_ns").and_then(Json::as_num).is_some());
        assert!(span.get("tid").and_then(Json::as_num).is_some());
    }
    recent
}

/// Each thread's span tail captures a real run, and a flight dump taken
/// on demand holds the run's `step` regions and counters.
#[test]
fn flight_dump_from_real_run_parses_with_recent_spans() {
    let _g = serial();
    run_experiment(&obs_cfg());
    let doc = Json::parse(&RunReport::flight("request", None).to_json()).expect("flight dump must be valid JSON");
    let recent = flight_dump(&doc, "request");
    assert!(
        recent.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("step")),
        "the span log's tail holds no step region"
    );
    assert!(
        doc.get("counters_total").and_then(|c| c.get("sampler.queries")).is_some(),
        "flight dump missing the run's counters"
    );
    assert_eq!(doc.get("test"), Some(&Json::Null), "a dump before test inference has no test section");
}

/// Post-mortem contract: a panic anywhere in the process must leave
/// a parseable `flight-<ts>.json` in `TGL_FLIGHT_DIR` with reason
/// "panic" and the steps before it in `recent`. Here a model panics in
/// its third `forward` of an epoch. Std panic hooks run before
/// unwinding, so `catch_unwind` exercises the hook without killing the
/// test runner.
#[test]
fn injected_panic_writes_parseable_flight_dump() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("tgl-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create flight dir");
    std::env::set_var("TGL_FLIGHT_DIR", &dir);
    tgl_harness::install_flight_hook();
    // Outwait the hook's 1s duplicate-dump suppression window in case
    // an earlier test dumped recently.
    std::thread::sleep(std::time::Duration::from_millis(1100));

    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(20);
    let (g, _) = generate(&spec);
    let ctx = TContext::new(g);
    let split = Split::standard(ctx.graph());
    let inner = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 5);
    let mut model = PanicsInForward::new(inner, 3, std::time::Duration::ZERO);
    let mut opt = Adam::new(model.parameters(), 1e-3);
    let trainer = Trainer::new(
        TrainConfig { batch_size: 60, epochs: 1, lr: 1e-3, seed: 1 },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trainer.train_epoch(&mut model, &ctx, &split, &mut opt, 0)
    }));
    assert!(result.is_err(), "injected panic did not propagate");
    std::env::remove_var("TGL_FLIGHT_DIR");

    let dumps: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("read flight dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    assert!(
        !dumps.is_empty(),
        "panic hook wrote no flight-*.json into {}",
        dir.display()
    );
    let body = std::fs::read_to_string(&dumps[0]).expect("read flight dump");
    let doc = Json::parse(&body).expect("panic flight dump must be valid JSON");
    let recent = flight_dump(&doc, "panic");
    let steps = recent.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some("step")).count();
    assert!(steps >= 2, "panic dump holds {steps} of the two steps before the panic");
    let _ = std::fs::remove_dir_all(&dir);
}
