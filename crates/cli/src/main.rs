//! `tgl` — command-line training and evaluation for the TGLite
//! reproduction, mirroring the paper artifact's workflow
//! (`./exp/tgat.sh -d wiki --epochs 3 --move --opt-all`).
//!
//! ```sh
//! tgl train --model tgat --dataset wiki --epochs 3 --opt-all --move
//! tgl train --model tgn --dataset reddit --framework tgl
//! tgl stats --dataset gdelt
//! tgl --help
//! ```

#![forbid(unsafe_code)]

mod args;
mod schema;
mod trend;

use tgl_data::{generate, temporal_stats, DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use args::Args;
use tgl_harness::{ExperimentConfig, Framework, ModelKind, ObsOptions, Placement, TrainConfig};
use tgl_models::ModelConfig;

const HELP: &str = "\
tgl — TGLite reproduction command line

USAGE:
    tgl <SUBCOMMAND> [OPTIONS]

    An option the subcommand does not read is a usage error (exit 2),
    not a run with defaults.

SUBCOMMANDS:
    train      train a model and report per-epoch loss/AP + test AP
    eval       inference-only run over the test split
    stats      print a dataset's structural statistics
    jsoncheck  parse a JSON file and exit nonzero if malformed; a
               tgl-run-report/v3 document also gets its profile /
               critpath sections shape-validated, a tgl-bench-micro/v1
               record its host block and rows;
               --trend --old <PARENT_DIR> <CHANGE_DIR> instead compares
               two directories of BENCH_micro.json runs (scripts/ab):
               each (name, threads) row's fastest secs per side,
               failing on a change more than 25% slower than the parent

OBSERVABILITY OPTIONS (train/eval):
    --profile            print the per-phase breakdown (Fig. 7) after
                         every epoch and, after the run, a per-operator
                         profile: top-k table of self time, calls,
                         achieved GFLOP/s, arithmetic intensity, and a
                         roofline verdict (compute- vs bandwidth-bound
                         vs data movement), per-phase attribution
                         coverage, and the per-stage seconds as the
                         phase table, the op profile and (with
                         --critpath) the critical path see them
    --profile-top <N>    rows in the --profile table (default 15)
    --trace-out <PATH>   write a Chrome trace-event JSON of all spans
                         (open in chrome://tracing or ui.perfetto.dev)
    --critpath           log every span and print a critical-path
                         table after the run: per-stage serial vs
                         exclusive vs overlapped time, the critical
                         path itself, serial/wall, and pool
                         busy/wait attribution
    --metrics-out <PATH> write the tgl-run-report/v3 JSON: per-epoch
                         phases, counters, latency histograms, health,
                         the profile (every span-aggregate row), each
                         thread's last 512 spans (recent) and (with
                         --critpath / --trace-out) critpath sections
    --health <warn|fail> non-finite loss/gradient policy: warn
                         records a health event and skips the batch
                         (default), fail aborts leaving a flight dump
                         (a tgl-run-report/v3 with meta.reason) in
                         TGL_FLIGHT_DIR or the cwd, as a panic does
    --threads <N>        set the worker pool width (overrides TGL_THREADS)
    --pipeline <N>       a sampler stage prepares up to N batches
                         (negatives, the sampled block chain, transfer
                         staging) ahead of the compute stage over a
                         bounded channel, in training and evaluation;
                         0 = prepared inline (default). Losses and APs
                         are bitwise identical at any depth

COMMON OPTIONS:
    --dataset <wiki|mooc|reddit|lastfm|wikitalk|gdelt>   (default wiki)
    --scale <N>        divide dataset node/edge counts by N (default 2)
    --model <jodie|apan|tgat|tgn>                        (default tgat)
    --framework <tgl|tglite|tglite-opt>                  (default tglite-opt)
    --epochs <N>       training epochs (eval runs none)  (default 3)
    --batch <N>        batch size                        (default 200)
    --lr <F>           Adam learning rate                (default 1e-3)
    --seed <N>         parameter seed                    (default 42)
    --move             keep data on CPU host and move per batch
                       (the paper's CPU-to-GPU case; default all-on-GPU)
    --opt-all          shorthand: framework = tglite-opt
    --ckpt <PATH>      save final parameters to a checkpoint
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
        "stats" => stats_cmd(&args),
        "jsoncheck" => jsoncheck_cmd(&args),
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
    let named = args.get("framework");
    if args.has_flag("opt-all") {
        if let Some(other) = named.filter(|&f| f != "tglite-opt") {
            usage_error(format!("--opt-all means --framework tglite-opt; it conflicts with --framework {other}"));
        }
        return Framework::TgLiteOpt;
    }
    match named.unwrap_or("tglite-opt") {
        "tgl" => Framework::Tgl,
        "tglite" => Framework::TgLite,
        "tglite-opt" => Framework::TgLiteOpt,
        other => {
            eprintln!("unknown framework {other:?} (try tgl/tglite/tglite-opt)");
            std::process::exit(2);
        }
    }
}

/// Prints a usage / run error as one line and exits 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Every option a subcommand takes has been read by now: anything
/// else on the command line is a usage error, not a run with defaults.
fn reject_unread(args: &Args) {
    args.reject_unread().unwrap_or_else(|e| usage_error(e));
}

/// A count option that must be at least 1 (`default` when absent);
/// anything else is a usage error naming the flag.
fn positive_or(args: &Args, key: &str, default: usize) -> usize {
    args.positive(key).unwrap_or_else(|e| usage_error(e)).unwrap_or(default)
}

/// A numeric option (`default` when absent); a value that does not
/// parse is a usage error naming the flag.
fn number<T: std::str::FromStr>(args: &Args, key: &str, default: T) -> T {
    args.get_or(key, default).unwrap_or_else(|e| usage_error(e))
}

/// `tgl train` / `tgl eval`: the experiment cell from the common
/// options, everything else through the shared run path.
fn train(args: &Args, eval_only: bool) {
    // Any panic from here on — kernel bug, assert, health trip —
    // leaves a flight-recorder post-mortem on disk.
    tgl_harness::install_flight_hook();
    let opts = ObsOptions::from_args(args, eval_only).unwrap_or_else(|e| usage_error(e));
    let seed = number(args, "seed", 42u64);
    let host_resident = args.has_flag("move");
    // Read for `eval` too, which runs no training epoch: a command line
    // shared with `train` stays valid.
    let epochs = positive_or(args, "epochs", 3);
    // Shapes the models would reject only once the run is under way.
    let (emb_dim, heads) = (positive_or(args, "emb-dim", 32), positive_or(args, "heads", 2));
    if !emb_dim.is_multiple_of(heads) {
        usage_error(format!("--heads {heads} does not divide --emb-dim {emb_dim}"));
    }
    let lr: f32 = number(args, "lr", 1e-3);
    if !(lr.is_finite() && lr > 0.0) {
        usage_error(format!("--lr: expected a finite positive learning rate, got {lr}"));
    }
    let cfg = ExperimentConfig {
        framework: framework(args),
        model: model_kind(args),
        dataset: spec(args),
        placement: if host_resident { Placement::HostResident } else { Placement::AllOnDevice },
        model_cfg: ModelConfig {
            emb_dim,
            time_dim: positive_or(args, "time-dim", 16),
            heads,
            n_layers: positive_or(args, "layers", 2),
            n_neighbors: positive_or(args, "neighbors", 10),
            mailbox_slots: positive_or(args, "mailbox", 10),
        },
        train_cfg: TrainConfig {
            batch_size: positive_or(args, "batch", 200),
            epochs: if eval_only { 0 } else { epochs },
            lr,
            seed: seed ^ 0x5eed,
        },
        seed,
        transfer: TransferModel::sim_v100(),
    };
    reject_unread(args);
    println!(
        "{} {} on {} ({} nodes, {} edges), {}",
        if eval_only { "evaluating" } else { "training" },
        cfg.model.label(),
        cfg.dataset.kind.name(),
        cfg.dataset.num_nodes(),
        cfg.dataset.n_edges,
        cfg.placement.label()
    );
    let result = tgl_harness::run(&cfg, &opts).unwrap_or_else(|e| usage_error(e));
    // Trained parameters that the last epoch never stepped (the health
    // policy skipped every batch) are no result to report success on.
    if let Some(last) = result.epochs.last().filter(|e| e.steps == 0) {
        eprintln!("the last epoch applied no optimizer step: all {} batches skipped", last.skipped);
        std::process::exit(1);
    }
}

fn jsoncheck_cmd(args: &Args) {
    let path = args.get("file").or_else(|| args.positional()).unwrap_or_else(|| {
        usage_error("usage: tgl jsoncheck --file <PATH>");
    });
    let parent = args.has_flag("trend").then(|| {
        args.get("old").unwrap_or_else(|| usage_error("usage: tgl jsoncheck --trend --old <PARENT_DIR> <CHANGE_DIR>"))
    });
    reject_unread(args);
    match parent {
        Some(parent) => trend_cmd(parent, path),
        None => check_cmd(path),
    }
}

/// Prints a failed check as one line and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// `tgl jsoncheck <PATH>`: the document parses, renders back to
/// itself, and fits its declared schema.
fn check_cmd(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let v = tgl_data::Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: invalid JSON: {e}")));
    // Round-trip: rendered output must parse back identically, guarding
    // the writer as well as the reader.
    if tgl_data::Json::parse(&v.render()).ok().as_ref() != Some(&v) {
        fail(format!("{path}: round-trip mismatch"));
    }
    println!("{path}: valid JSON ({} bytes)", text.len());
    // Artifacts that declare a known schema also get their shape
    // checked, not just their syntax.
    match schema::validate(&v) {
        Ok(Some(name)) => println!("{path}: schema {name} ok"),
        Ok(None) => {}
        Err(e) => fail(format!("{path}: schema violation: {e}")),
    }
}

/// `tgl jsoncheck --trend --old <PARENT_DIR> <CHANGE_DIR>`: the
/// change's fastest run of every timing series against the parent's.
fn trend_cmd(parent_dir: &str, change_dir: &str) {
    let (parent, change) = (read_runs(parent_dir), read_runs(change_dir));
    // A renamed or dropped series is worth a look but not a failure —
    // the budget only covers series both sides share.
    for key in trend::missing_series(&parent, &change) {
        println!("trend: warning: series {key} missing from {change_dir}");
    }
    let rows = trend::compare(&parent, &change);
    if rows.is_empty() {
        println!("trend: no timing series in common with {parent_dir}");
        return;
    }
    print!("{}", trend::render_table(&rows));
    let worst = trend::worst_regression(&rows);
    let runs = format!("fastest of {} parent / {} change runs", parent.len(), change.len());
    if worst > trend::BUDGET_PCT {
        fail(format!("trend: worst regression {worst:+.1}% ({runs}) exceeds budget {:.0}%", trend::BUDGET_PCT));
    }
    println!("trend: worst regression {worst:+.1}% ({runs}) within budget {:.0}%", trend::BUDGET_PCT);
}

/// The `*.json` documents in `dir`, one per run, in name order.
fn read_runs(dir: &str) -> Vec<tgl_data::Json> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| fail(format!("{dir}: {e}")));
    let mut paths: Vec<_> = entries
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    if paths.is_empty() {
        fail(format!("{dir}: no *.json runs"));
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| fail(format!("{}: {e}", p.display())));
            tgl_data::Json::parse(&text).unwrap_or_else(|e| fail(format!("{}: invalid JSON: {e}", p.display())))
        })
        .collect()
}

fn stats_cmd(args: &Args) {
    let spec = spec(args);
    let scale = positive_or(args, "scale", 2);
    reject_unread(args);
    let (g, ds) = generate(&spec);
    let ts = temporal_stats(&g);
    println!("{} (scale {}):", spec.kind.name(), scale);
    println!("  |V| = {}   |E| = {}", ds.num_nodes, ds.num_edges);
    println!("  d_v = {}   d_e = {}   max(t) = {:.2e}", ds.d_node, ds.d_edge, ds.max_t);
    println!("  repeat edges:        {:.1}%", ts.repeat_edge_fraction * 100.0);
    println!("  distinct Δt:         {:.1}%", ts.distinct_delta_fraction * 100.0);
    println!("  mean inter-event Δt: {:.3e}", ts.mean_interevent);
    println!("  degree: mean {:.1}, max {}, gini {:.2}", ts.mean_degree, ts.max_degree, ts.degree_gini);
    println!("  isolated nodes:      {:.1}%", ts.isolated_fraction * 100.0);
}
