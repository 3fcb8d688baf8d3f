//! Regenerates **Figure 7** — breakdown of major operations in one
//! TGAT training epoch (LastFM-shape, all-on-GPU) for TGL, TGLite, and
//! TGLite+opt.
//!
//! Expected shape (paper §5.2.3): backward similar across settings;
//! TGLite cheaper batch prep; TGLite+opt shrinks the attention and
//! time-encoding phases (with small overhead moving to the
//! precomputed-time operators).
//!
//! Phase durations come from the `tgl-obs` span log in full mode:
//! every `prof::scope` in the run records a span (whichever thread runs
//! it — pool-worker time is included), and this bench aggregates the
//! drained spans by name. Alongside the text table it writes
//! `BENCH_fig7.json` (same flat `results` shape as
//! `BENCH_parallel.json`) so the perf trajectory accumulates data.

use tgl_bench::{cell, preamble};
use tgl_data::{DatasetKind, Json};
use tgl_harness::table::{bar, TextTable};
use tgl_harness::{run_experiment, Framework, ModelKind, Placement};
use tglite::obs::{log, Span};

const PHASES: [&str; 9] = [
    "sample",
    "prep_batch",
    "feature_load",
    "preload",
    "time_zero",
    "time_nbrs",
    "attention",
    "backward",
    "opt_step",
];

/// Aggregates drained spans into per-phase `(seconds, span count)`,
/// keyed in `PHASES` order.
fn aggregate(spans: &[Span]) -> Vec<(f64, u64)> {
    PHASES
        .iter()
        .map(|phase| {
            spans
                .iter()
                .filter(|s| s.name == *phase)
                .fold((0.0, 0), |(secs, n), s| {
                    (secs + s.dur_ns as f64 * 1e-9, n + 1)
                })
        })
        .collect()
}

fn main() {
    preamble(
        "Figure 7: TGAT epoch runtime breakdown (LastFM, all-on-GPU)",
        "paper §5.2.3, Figure 7",
    );
    let mut rows: Vec<(String, Vec<f64>)> =
        PHASES.iter().map(|p| (p.to_string(), Vec::new())).collect();
    let mut totals = Vec::new();
    let mut results: Vec<Json> = Vec::new();
    for fw in Framework::all() {
        let mut cfg = cell(fw, ModelKind::Tgat, DatasetKind::Lastfm, Placement::AllOnDevice);
        cfg.train_cfg.epochs = 1;
        log::full(true);
        let r = run_experiment(&cfg);
        let spans = log::take();
        log::full(false);
        totals.push(r.train_s_per_epoch);
        let agg = aggregate(&spans);
        for ((name, col), (secs, n_spans)) in rows.iter_mut().zip(&agg) {
            col.push(*secs);
            results.push(Json::obj(vec![
                ("framework".into(), Json::Str(fw.label().into())),
                ("phase".into(), Json::Str(name.clone())),
                ("secs".into(), Json::Num(*secs)),
                ("spans".into(), Json::Num(*n_spans as f64)),
            ]));
        }
        results.push(Json::obj(vec![
            ("framework".into(), Json::Str(fw.label().into())),
            ("phase".into(), Json::Str("epoch_total".into())),
            ("secs".into(), Json::Num(r.train_s_per_epoch)),
            ("spans".into(), Json::Num(0.0)),
        ]));
    }
    let max = rows
        .iter()
        .flat_map(|(_, v)| v.iter().cloned())
        .fold(0.0f64, f64::max);
    let mut t = TextTable::new(&["Phase", "TGL", "TGLite", "TGLite+opt", "bars"]);
    for (name, col) in &rows {
        t.row(&[
            name.clone(),
            format!("{:.2}", col[0]),
            format!("{:.2}", col[1]),
            format!("{:.2}", col[2]),
            format!(
                "{:<10}|{:<10}|{:<10}",
                bar(col[0], max, 10),
                bar(col[1], max, 10),
                bar(col[2], max, 10)
            ),
        ]);
    }
    t.row(&[
        "epoch total".into(),
        format!("{:.2}", totals[0]),
        format!("{:.2}", totals[1]),
        format!("{:.2}", totals[2]),
        String::new(),
    ]);
    println!("{}", t.render());
    println!("\n(phase seconds over one training epoch; 'time_zero'/'time_nbrs'");
    println!(" are the Φ(0)/Φ(Δt) encodings, matching the paper's labels)");

    let doc = Json::obj(vec![
        (
            "host_cpus".into(),
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "threads".into(),
            Json::Num(tgl_runtime::current_threads() as f64),
        ),
        ("results".into(), Json::Arr(results)),
    ]);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fig7.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
