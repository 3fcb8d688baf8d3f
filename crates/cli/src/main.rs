//! `tgl` — command-line training and evaluation for the TGLite
//! reproduction, mirroring the paper artifact's workflow
//! (`./exp/tgat.sh -d wiki --epochs 3 --move --opt-all`).
//!
//! ```sh
//! tgl train --model tgat --dataset wiki --epochs 3 --opt-all --move
//! tgl train --model tgn --dataset reddit --framework tgl
//! tgl generate --dataset lastfm --out lastfm.csv
//! tgl stats --dataset gdelt
//! tgl --help
//! ```

mod args;
mod promcheck;
mod schema;
mod trend;

use std::sync::Arc;

use args::Args;
use tgl_data::{generate, save_csv, temporal_stats, DatasetKind, DatasetSpec, Split};
use tgl_device::{Device, TransferModel};
use tgl_harness::runner::build_model;
use tgl_harness::{Framework, MetricLog, ModelKind, TrainConfig, Trainer};
use tgl_models::ModelConfig;
use tglite::TContext;

const HELP: &str = "\
tgl — TGLite reproduction command line

USAGE:
    tgl <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    train      train a model and report per-epoch loss/AP + test AP
    eval       inference-only run over the test split
    generate   write a synthetic dataset's edge list as CSV
    stats      print a dataset's structural statistics
    jsoncheck  parse a JSON file and exit nonzero if malformed; known
               schemas (tgl-timeseries/v1, tgl-alerts/v1,
               tgl-insight/v1) also get shape-validated against their
               contract;
               with --trend --old <PATH> [--budget <PCT>] also compare
               wall-time series against an older copy and fail on
               regressions beyond the budget (default 25%)
    promcheck  scrape a live /metrics endpoint (`tgl promcheck <ADDR>
               [--min-hist <N>] [--require <NAME[,NAME...]>] [--quit]`)
               and validate the Prometheus exposition; --require fails
               unless every named family appears in the scrape
    get        fetch one path from a live metrics server and print the
               body (`tgl get <ADDR> <PATH>`, e.g. `tgl get
               127.0.0.1:9184 /timeseries.json`); exits nonzero unless
               the response is HTTP 200

OBSERVABILITY OPTIONS (train/eval):
    --prof               print the per-phase epoch breakdown (Fig. 7)
    --profile            per-operator profile: top-k table of self
                         time, calls, achieved GFLOP/s, arithmetic
                         intensity, and a roofline verdict (compute-
                         vs bandwidth-bound vs data movement), plus
                         per-phase attribution coverage
    --profile-out <PATH> write the op profile as a tgl-profile/v1
                         JSON artifact (implies --profile collection)
    --profile-top <N>    rows in the --profile table (default 15)
    --trace-out <PATH>   write a Chrome trace-event JSON of all spans
                         (open in chrome://tracing or ui.perfetto.dev)
    --critpath           enable span tracing and print a critical-path
                         table after the run: per-stage serial vs
                         exclusive vs overlapped time, the critical
                         path itself, overlap efficiency, and pool
                         busy/wait attribution
    --critpath-out <PATH>  write the analysis as a tgl-critpath/v1
                         JSON artifact (implies --critpath)
    --insight            model & data introspection: per-parameter-group
                         gradient/weight norms and update ratios,
                         dead-activation fractions, memory staleness,
                         neighbor time-delta spread, negative-sampling
                         collisions, dedup effectiveness, and mailbox
                         depth — printed as a per-layer table at end of
                         run; series land in the time-series store
                         (insight.*) so --slo rules can target them,
                         and /insight.json serves them live (also via
                         TGL_INSIGHT=1)
    --insight-out <PATH> write the summaries as a tgl-insight/v1 JSON
                         artifact (implies --insight)
    --insight-top <N>    parameter-group rows in the --insight table
                         (default 8)
    --flight <on|off>    flight recorder: always-on ring of recent
                         spans/health events dumped on panic or
                         health-fail (default on; also TGL_FLIGHT=off;
                         dumps land in TGL_FLIGHT_DIR or the cwd)
    --flight-out <PATH>  write a flight dump at end of run
    --metrics-out <PATH> write a structured JSON run report (per-epoch
                         phases, counters, latency histograms, health,
                         critpath section when tracing is on)
    --serve-metrics <ADDR>  serve /metrics, /healthz, /report.json,
                         /profile.json, /critpath.json, /flight.json,
                         /timeseries.json, /alerts.json, /insight.json,
                         /dashboard
                         and /quit over HTTP while the run executes
                         (e.g. 127.0.0.1:0; also via TGL_METRICS_ADDR);
                         enables time-series retention and a background
                         sampler so /dashboard stays live between steps
    --slo <PATH>         load SLO alert rules (INI sections with metric,
                         window, for, severity, and above/below/trend/
                         nonfinite/pegged conditions), enable the
                         time-series store, and evaluate the rules each
                         training step; firings route through --health
                         and are summarized at end of run (also via
                         TGL_SLO)
    --serve-hold         after the run, keep serving until GET /quit
                         (or a 10-minute timeout)
    --health <off|warn|fail>  non-finite loss/gradient policy: warn
                         records a health event and skips the batch
                         (default), fail aborts, off disables checks
                         (also via TGL_HEALTH)
    --threads <N>        set the worker pool width (overrides TGL_THREADS)
    --pipeline <N>       pipelined training: a sampler stage prefetches
                         up to N batches (negatives, neighbor sampling,
                         transfer staging) ahead of the compute stage
                         over a bounded channel; 0 = sequential
                         reference (default; also via TGL_PIPELINE).
                         Losses are bitwise identical at any depth
    --kernel <exact|fast>  tensor kernel contract (overrides TGL_KERNEL):
                         exact = bitwise identical to the scalar
                         reference on every host (default), fast =
                         SIMD with FMA contraction and vectorized
                         exp/reductions (tolerance-level differences)

COMMON OPTIONS:
    --dataset <wiki|mooc|reddit|lastfm|wikitalk|gdelt>   (default wiki)
    --scale <N>        divide dataset node/edge counts by N (default 2)
    --model <jodie|apan|tgat|tgn>                        (default tgat)
    --framework <tgl|tglite|tglite-opt>                  (default tglite-opt)
    --epochs <N>       training epochs                   (default 3)
    --batch <N>        batch size                        (default 200)
    --lr <F>           Adam learning rate                (default 1e-3)
    --seed <N>         parameter seed                    (default 42)
    --move             keep data on CPU host and move per batch
                       (the paper's CPU-to-GPU case; default all-on-GPU)
    --opt-all          shorthand: framework = tglite-opt
    --csv <PATH>       write per-epoch metrics as CSV
    --ckpt <PATH>      save final parameters to a checkpoint
    --out <PATH>       output path for `generate` (default <dataset>.csv)
";

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    if args.has_flag("help") || args.subcommand().is_none() {
        print!("{HELP}");
        return;
    }
    match args.subcommand().unwrap() {
        "train" => train(&args, false),
        "eval" => train(&args, true),
        "generate" => generate_cmd(&args),
        "stats" => stats_cmd(&args),
        "jsoncheck" => jsoncheck_cmd(&args),
        "promcheck" => promcheck_cmd(&args),
        "get" => get_cmd(&args),
        other => {
            eprintln!("unknown subcommand {other:?}\n");
            print!("{HELP}");
            std::process::exit(2);
        }
    }
}

fn dataset_kind(args: &Args) -> DatasetKind {
    let name = args.get("dataset").unwrap_or("wiki");
    DatasetKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown dataset {name:?} (try wiki/mooc/reddit/lastfm/wikitalk/gdelt)");
            std::process::exit(2);
        })
}

fn spec(args: &Args) -> DatasetSpec {
    DatasetSpec::of(dataset_kind(args)).scaled_down(positive_or(args, "scale", 2))
}

fn model_kind(args: &Args) -> ModelKind {
    let name = args.get("model").unwrap_or("tgat");
    ModelKind::all()
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown model {name:?} (try jodie/apan/tgat/tgn)");
            std::process::exit(2);
        })
}

fn framework(args: &Args) -> Framework {
    if args.has_flag("opt-all") {
        return Framework::TgLiteOpt;
    }
    match args.get("framework").unwrap_or("tglite-opt") {
        "tgl" => Framework::Tgl,
        "tglite" => Framework::TgLite,
        "tglite-opt" => Framework::TgLiteOpt,
        other => {
            eprintln!("unknown framework {other:?} (try tgl/tglite/tglite-opt)");
            std::process::exit(2);
        }
    }
}

/// A count option that must be at least 1 (`default` when absent);
/// anything else is a usage error naming the flag.
fn positive_or(args: &Args, key: &str, default: usize) -> usize {
    match args.get(key) {
        None => default,
        Some(v) => v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--{key}: expected a positive integer, got {v:?}");
            std::process::exit(2);
        }),
    }
}

fn train(args: &Args, eval_only: bool) {
    // Any panic from here on — kernel bug, assert, health trip —
    // leaves a flight-recorder post-mortem on disk.
    tgl_harness::install_flight_hook();
    if let Some(v) = args.get("flight") {
        match v {
            "off" | "0" => tgl_obs::flight::enable(false),
            "on" | "1" => tgl_obs::flight::enable(true),
            other => {
                eprintln!("--flight: unknown value {other:?} (try on/off)");
                std::process::exit(2);
            }
        }
    }
    let spec = spec(args);
    let fw = framework(args);
    let mk = model_kind(args);
    let host_resident = args.has_flag("move");
    if let Some(policy) = args.get("health") {
        if tgl_harness::HealthPolicy::parse(policy).is_none() {
            eprintln!("--health: unknown policy {policy:?} (try off/warn/fail)");
            std::process::exit(2);
        }
        // Through the environment so the trainer and the run reporter
        // agree on the active policy.
        std::env::set_var("TGL_HEALTH", policy);
    }
    let serving = if let Some(addr) = args.get("serve-metrics") {
        match tgl_obs::expo::start(addr) {
            Ok(bound) => {
                println!("metrics server listening on http://{bound}/metrics");
                Some(bound)
            }
            Err(e) => {
                eprintln!("--serve-metrics {addr}: bind failed: {e}");
                std::process::exit(2);
            }
        }
    } else {
        tgl_obs::expo::start_from_env().inspect(|bound| {
            println!("metrics server listening on http://{bound}/metrics");
        })
    };
    // SLO alert rules: install before the run so the first step already
    // evaluates them; installing implies the time-series store.
    let slo_path = args
        .get("slo")
        .map(String::from)
        .or_else(|| std::env::var("TGL_SLO").ok().filter(|p| !p.is_empty()));
    if let Some(path) = &slo_path {
        match tgl_obs::alert::RuleSet::from_file(std::path::Path::new(path)) {
            Ok(rules) => {
                let n = rules.rules.len();
                tgl_obs::alert::install(rules);
                tgl_obs::timeseries::enable(true);
                println!("slo: loaded {n} alert rule(s) from {path}");
            }
            Err(e) => {
                eprintln!("--slo {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if serving.is_some() {
        // A live /dashboard needs retained series even without --slo,
        // and a background sampler so gauges and latency quantiles keep
        // advancing between scrapes once the training loop is done.
        tgl_obs::timeseries::enable(true);
        tgl_obs::timeseries::start_sampler(500);
    }
    let insight_out = args.get("insight-out").map(std::path::PathBuf::from);
    let insight = args.has_flag("insight") || insight_out.is_some();
    if insight {
        // Insight series flow through the time-series store, so the
        // flag implies retention (same as --slo).
        tgl_obs::insight::enable(true);
        tgl_obs::timeseries::enable(true);
    }
    if args.get("threads").is_some() {
        tgl_runtime::set_threads(positive_or(args, "threads", 1));
    }
    let batch_size = positive_or(args, "batch", 200);
    if let Some(mode) = args.get("kernel") {
        match tgl_tensor::kernel::parse(mode) {
            Some(m) => tgl_tensor::kernel::set_mode(m),
            None => {
                eprintln!("--kernel: unknown mode {mode:?} (try exact/fast)");
                std::process::exit(2);
            }
        }
    }
    let show_prof = args.has_flag("prof");
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    let metrics_out = args.get("metrics-out").map(std::path::PathBuf::from);
    let profile_out = args.get("profile-out").map(std::path::PathBuf::from);
    let profiling = args.has_flag("profile") || profile_out.is_some();
    let critpath_out = args.get("critpath-out").map(std::path::PathBuf::from);
    let critpath = args.has_flag("critpath") || critpath_out.is_some();
    if trace_out.is_some() || critpath {
        // Critical-path analysis consumes tracer spans, so --critpath
        // implies tracing for the run.
        tglite::obs::trace::enable(true);
    }
    if profiling {
        tgl_obs::profile::enable(true);
    }
    println!(
        "{} {} on {} ({} nodes, {} edges), {}",
        if eval_only { "evaluating" } else { "training" },
        mk.label(),
        spec.kind.name(),
        spec.num_nodes(),
        spec.n_edges,
        if host_resident { "CPU-to-GPU" } else { "all-on-GPU" }
    );

    let (g, _) = generate(&spec);
    if !host_resident {
        if let Some(f) = g.node_feats() {
            g.set_node_feats(f.to(Device::Accel));
        }
        if let Some(f) = g.edge_feats() {
            g.set_edge_feats(f.to(Device::Accel));
        }
    }
    tgl_device::set_transfer_model(if host_resident {
        TransferModel::scaled(TransferModel::pcie_v100(), 400.0)
    } else {
        TransferModel::disabled()
    });
    let ctx = TContext::with_device(Arc::clone(&g), Device::Accel);
    let split = Split::standard(&g);
    let model_cfg = ModelConfig {
        emb_dim: args.get_or("emb-dim", 32),
        time_dim: args.get_or("time-dim", 16),
        heads: args.get_or("heads", 2),
        n_layers: args.get_or("layers", 2),
        n_neighbors: args.get_or("neighbors", 10),
        mailbox_slots: args.get_or("mailbox", 10),
    };
    let mut model = build_model(fw, mk, &ctx, model_cfg, args.get_or("seed", 42));
    let train_cfg = TrainConfig {
        batch_size,
        epochs: if eval_only { 0 } else { args.get_or("epochs", 3) },
        lr: args.get_or("lr", 1e-3),
        seed: args.get_or("seed", 42) ^ 0x5eed,
    };
    let (neg_lo, neg_hi) = if spec.bipartite() {
        (spec.n_src as u32, spec.num_nodes() as u32)
    } else {
        (0, spec.num_nodes() as u32)
    };
    let mut trainer = Trainer::new(train_cfg, neg_lo, neg_hi);
    if let Some(depth) = args.get("pipeline") {
        match depth.parse::<usize>() {
            Ok(d) => trainer = trainer.with_pipeline(d),
            Err(_) => {
                eprintln!("--pipeline: expected a queue depth, got {depth:?}");
                std::process::exit(2);
            }
        }
    }

    if eval_only {
        if let Some(path) = args.get("ckpt") {
            if let Err(e) = model.load(std::path::Path::new(path)) {
                eprintln!("--ckpt {path}: {e}");
                std::process::exit(2);
            }
            println!("loaded checkpoint {path}");
        }
    }

    // A live metrics server implies reporting: /report.json serves the
    // reporter's in-progress publications.
    let mut reporter = (show_prof || profiling || metrics_out.is_some() || serving.is_some()).then(|| {
        let mut rep = tgl_harness::RunReporter::start();
        rep.set_meta("model", mk.label());
        rep.set_meta("dataset", spec.kind.name());
        rep.set_meta("framework", fw.label());
        rep.set_meta(
            "placement",
            if host_resident { "cpu-to-gpu" } else { "all-on-gpu" },
        );
        rep.set_meta_num("seed", args.get_or("seed", 42u64) as f64);
        rep.set_meta_num("scale", args.get_or("scale", 2u64) as f64);
        rep.set_meta_num("batch", train_cfg.batch_size as f64);
        rep.set_meta_num("threads", tgl_runtime::current_threads() as f64);
        rep.set_meta("kernel", tgl_tensor::kernel::mode().label());
        rep
    });

    let mut log = MetricLog::for_training();
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), train_cfg.lr);
    let mut best_val = 0.0f64;
    for e in 0..train_cfg.epochs {
        let s = trainer.train_epoch(model.as_mut(), &ctx, &split, &mut opt, e);
        best_val = best_val.max(s.val_ap);
        log.record_epoch(e, &s);
        println!(
            "epoch {:>2}: loss {:.4}  val AP {:5.2}%  ({:.2}s cpu)",
            e + 1,
            s.loss,
            s.val_ap * 100.0,
            s.train_time_s
        );
        if let Some(rep) = reporter.as_mut() {
            rep.record_epoch(e, &s);
            if show_prof {
                if let Some(epoch_report) = rep.epochs_so_far().last() {
                    for (phase, secs) in &epoch_report.phases_s {
                        println!("    {phase:<14} {secs:8.3}s");
                    }
                }
            }
        }
    }
    let (test_ap, test_s) = trainer.evaluate(model.as_mut(), &ctx, split.test.clone());
    println!("test AP {:.2}% ({test_s:.2}s cpu)", test_ap * 100.0);
    if train_cfg.epochs > 0 {
        println!("best val AP {:.2}%", best_val * 100.0);
    }

    if let Some(rep) = reporter {
        let report = rep.finish(test_ap, test_s);
        if let Some(path) = &metrics_out {
            report.save(path).expect("write run report");
            println!("run report written to {}", path.display());
        }
        if profiling {
            tgl_obs::profile::enable(false);
            let roof = tgl_harness::profrep::Roofline::detect();
            let rows = tgl_harness::profrep::analyze(&report.profile, &roof);
            print!(
                "{}",
                tgl_harness::profrep::render_table(&rows, &roof, args.get_or("profile-top", 15))
            );
            let coverage =
                tgl_harness::profrep::phase_coverage(&report.profile, &report.phases_total_s);
            print!("{}", tgl_harness::profrep::render_coverage(&coverage));
            if let Some(path) = &profile_out {
                std::fs::write(path, tgl_obs::profile::to_json(&report.profile))
                    .expect("write op profile");
                println!("op profile written to {}", path.display());
            }
        }
    }
    if trace_out.is_some() || critpath {
        // Drain once; both consumers read the same span set (the run
        // report's critpath section already took its own snapshot).
        let spans = tglite::obs::trace::take();
        tglite::obs::trace::enable(false);
        if let Some(path) = &trace_out {
            std::fs::write(path, tglite::obs::trace::to_chrome_json(&spans)).expect("write trace");
            println!(
                "chrome trace with {} spans written to {}",
                spans.len(),
                path.display()
            );
        }
        if critpath {
            let analysis = tgl_obs::critpath::analyze(&spans);
            print!("{}", tgl_obs::critpath::render_table(&analysis));
            if let Some(path) = &critpath_out {
                std::fs::write(path, tgl_obs::critpath::to_json(&analysis))
                    .expect("write critpath artifact");
                println!("critpath artifact written to {}", path.display());
            }
        }
    }
    if let Some(path) = args.get("flight-out") {
        std::fs::write(path, tgl_obs::flight::to_json("request")).expect("write flight dump");
        println!("flight dump written to {path}");
    }
    if insight {
        print!(
            "{}",
            tgl_obs::insight::render_table(args.get_or("insight-top", 8))
        );
        if let Some(path) = &insight_out {
            std::fs::write(path, tgl_obs::insight::to_json()).expect("write insight artifact");
            println!("insight artifact written to {}", path.display());
        }
    }

    if let Some(path) = args.get("csv") {
        log.save(std::path::Path::new(path)).expect("write csv");
        println!("metrics written to {path}");
    }
    if let Some(path) = args.get("ckpt") {
        if !eval_only {
            model.save(std::path::Path::new(path)).expect("write checkpoint");
            println!("checkpoint written to {path}");
        }
    }
    tgl_device::set_transfer_model(TransferModel::disabled());
    if tgl_obs::alert::installed() {
        for st in tgl_obs::alert::status() {
            println!(
                "alert {}: fired {}x on {} ({})",
                st.rule.name,
                st.fired_total,
                st.rule.metric,
                if st.firing { "firing" } else { "ok" }
            );
        }
    }
    if serving.is_some() && args.has_flag("serve-hold") {
        println!("holding for scrape: GET /quit to release (10 min timeout)");
        tgl_obs::expo::wait_for_quit(std::time::Duration::from_secs(600));
    }
    tgl_obs::timeseries::stop_sampler();
}

fn get_cmd(args: &Args) {
    // Accept `--addr <ADDR> --path <PATH>` or the positional form
    // `tgl get <ADDR> <PATH>` (positionals arrive concatenated, so the
    // first '/' splits address from path).
    let (addr, path) = match (args.get("addr"), args.get("path")) {
        (Some(a), p) => (a.to_string(), p.unwrap_or("/").to_string()),
        (None, _) => {
            let extra = args.get("_extra").unwrap_or_else(|| {
                eprintln!("usage: tgl get <ADDR> <PATH>  (e.g. tgl get 127.0.0.1:9184 /metrics)");
                std::process::exit(2);
            });
            match extra.find('/') {
                Some(i) => (extra[..i].to_string(), extra[i..].to_string()),
                None => (extra.to_string(), "/".to_string()),
            }
        }
    };
    let (code, body) = tgl_obs::expo::http_get(&addr, &path).unwrap_or_else(|e| {
        eprintln!("{addr}{path}: {e}");
        std::process::exit(1);
    });
    print!("{body}");
    if code != 200 {
        eprintln!("{addr}{path}: HTTP {code}");
        std::process::exit(1);
    }
}

fn promcheck_cmd(args: &Args) {
    let addr = args.get("addr").or_else(|| args.get("_extra")).unwrap_or_else(|| {
        eprintln!("usage: tgl promcheck <ADDR> [--min-hist <N>] [--require <NAME[,NAME...]>] [--quit]");
        std::process::exit(2);
    });
    let (code, body) = tgl_obs::expo::http_get(addr, "/metrics").unwrap_or_else(|e| {
        eprintln!("{addr}/metrics: {e}");
        std::process::exit(1);
    });
    if code != 200 {
        eprintln!("{addr}/metrics: HTTP {code}");
        std::process::exit(1);
    }
    let summary = promcheck::validate(&body).unwrap_or_else(|e| {
        eprintln!("{addr}/metrics: malformed exposition: {e}");
        std::process::exit(1);
    });
    println!(
        "{addr}/metrics: {} samples ({} counters, {} gauges, {} histograms)",
        summary.samples, summary.counters, summary.gauges, summary.histograms
    );
    for name in &summary.histogram_names {
        println!("  histogram {name}");
    }

    let (hcode, hbody) = tgl_obs::expo::http_get(addr, "/healthz").unwrap_or_else(|e| {
        eprintln!("{addr}/healthz: {e}");
        std::process::exit(1);
    });
    if !(hcode == 200 || hcode == 503) || tgl_data::Json::parse(&hbody).is_err() {
        eprintln!("{addr}/healthz: HTTP {hcode} with malformed body {hbody:?}");
        std::process::exit(1);
    }
    println!("{addr}/healthz: HTTP {hcode} {}", hbody.trim());

    let min_hist = args.get_or("min-hist", 0usize);
    if summary.histograms < min_hist {
        eprintln!(
            "{addr}/metrics: {} histogram families, expected at least {min_hist}",
            summary.histograms
        );
        std::process::exit(1);
    }
    if let Some(required) = args.get("require") {
        let missing: Vec<&str> = required
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty() && !summary.has_family(n))
            .collect();
        if !missing.is_empty() {
            eprintln!(
                "{addr}/metrics: missing required families: {}",
                missing.join(", ")
            );
            std::process::exit(1);
        }
        println!("{addr}/metrics: all required families present ({required})");
    }
    if args.has_flag("quit") {
        tgl_obs::expo::http_get(addr, "/quit").ok();
    }
}

fn jsoncheck_cmd(args: &Args) {
    let path = args.get("file").or_else(|| args.get("_extra")).unwrap_or_else(|| {
        eprintln!("usage: tgl jsoncheck --file <PATH>");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let v = match tgl_data::Json::parse(&text) {
        Ok(v) => {
            // Round-trip: rendered output must parse back identically,
            // guarding the writer as well as the reader.
            let rendered = v.render();
            match tgl_data::Json::parse(&rendered) {
                Ok(back) if back == v => {
                    println!("{path}: valid JSON ({} bytes)", text.len());
                    // Artifacts that declare a known schema also get
                    // their shape checked, not just their syntax.
                    match schema::validate(&v) {
                        Ok(Some(name)) => println!("{path}: schema {name} ok"),
                        Ok(None) => {}
                        Err(e) => {
                            eprintln!("{path}: schema violation: {e}");
                            std::process::exit(1);
                        }
                    }
                    v
                }
                _ => {
                    eprintln!("{path}: round-trip mismatch");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            std::process::exit(1);
        }
    };

    if !args.has_flag("trend") {
        return;
    }
    let old_path = args.get("old").unwrap_or_else(|| {
        eprintln!("usage: tgl jsoncheck --file <NEW> --trend --old <OLD> [--budget <PCT>]");
        std::process::exit(2);
    });
    let old_text = std::fs::read_to_string(old_path).unwrap_or_else(|e| {
        eprintln!("{old_path}: {e}");
        std::process::exit(1);
    });
    let old = tgl_data::Json::parse(&old_text).unwrap_or_else(|e| {
        eprintln!("{old_path}: invalid JSON: {e}");
        std::process::exit(1);
    });
    let rows = trend::compare(&old, &v);
    // A renamed or dropped series is worth a look but not a failure —
    // the regression budget only covers series both documents share.
    for key in trend::missing_series(&old, &v) {
        println!("trend: warning: series {key} missing from {path}");
    }
    if rows.is_empty() {
        println!("trend: no wall-time series in common with {old_path}");
        return;
    }
    print!("{}", trend::render_table(&rows));
    let budget = args.get_or("budget", 25.0f64);
    let worst = trend::worst_regression(&rows);
    if worst > budget {
        eprintln!("trend: worst regression {worst:+.1}% exceeds budget {budget:.0}%");
        std::process::exit(1);
    }
    println!("trend: worst regression {worst:+.1}% within budget {budget:.0}%");
}

fn generate_cmd(args: &Args) {
    let spec = spec(args);
    let (g, stats) = generate(&spec);
    let default = format!("{}.csv", spec.kind.name().to_lowercase());
    let out = args.get("out").unwrap_or(&default);
    save_csv(&g, std::path::Path::new(out)).expect("write dataset");
    println!(
        "wrote {} ({} nodes, {} edges, {:.0}% repeat interactions)",
        out,
        stats.num_nodes,
        stats.num_edges,
        stats.repeat_fraction * 100.0
    );
}

fn stats_cmd(args: &Args) {
    let spec = spec(args);
    let (g, ds) = generate(&spec);
    let ts = temporal_stats(&g);
    println!("{} (scale {}):", spec.kind.name(), args.get_or("scale", 2usize));
    println!("  |V| = {}   |E| = {}", ds.num_nodes, ds.num_edges);
    println!("  d_v = {}   d_e = {}   max(t) = {:.2e}", ds.d_node, ds.d_edge, ds.max_t);
    println!("  repeat edges:        {:.1}%", ts.repeat_edge_fraction * 100.0);
    println!("  distinct Δt:         {:.1}%", ts.distinct_delta_fraction * 100.0);
    println!("  mean inter-event Δt: {:.3e}", ts.mean_interevent);
    println!("  degree: mean {:.1}, max {}, gini {:.2}", ts.mean_degree, ts.max_degree, ts.degree_gini);
    println!("  isolated nodes:      {:.1}%", ts.isolated_fraction * 100.0);
}
