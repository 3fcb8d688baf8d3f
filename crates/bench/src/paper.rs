//! The paper's evaluation (§5, Appendix B) as one list of cells, one
//! record, and a view per table and figure.
//!
//! [`cells`] lists every run the tables and figures need, each once.
//! [`record`] runs them with the span aggregate on and returns the
//! record that `cargo bench --bench paper` writes to `BENCH_paper.json`:
//! the host shape, Table 3's dataset statistics, one row per cell and
//! the hooks ablation. [`views`] renders every table from a record
//! alone, so the committed record and EXPERIMENTS.md's tables are
//! checked against each other.
//!
//! A cell's id is `group/dataset/model/column`. The groups are the
//! all-on-GPU grid `device` (Fig. 5, Tables 4 and 5, Fig. 7, A1), the
//! host-resident grid `host` (Fig. 6, A1), Table 6's `t6-device` and
//! `t6-host`, and the large sets' `t7` and `t8`. A training row holds
//! `epochs_s` (each epoch's seconds), `test_s`, `val_ap` (the best),
//! `test_ap`, `peak_bytes` (device) and `phases`; a capped row adds
//! `cap_bytes`, and one that ran out of device memory holds `oom` (the
//! error) in place of the measurements. An inference row holds `test_s`
//! and `phases`. Every time is process CPU seconds; a phase's seconds
//! are its [`obs::phase::table`] total over the whole run (training,
//! validation and test).

use std::sync::Arc;

use tgl_data::{generate, DatasetKind, DatasetSpec, Json, NegativeSampler, Split};
use tgl_device::TransferModel;
use tgl_harness::runner::prepare_context;
use tgl_harness::table::{ap, bar, secs, speedup, TextTable};
use tgl_harness::{run_experiment_with_capacity, CpuTimer, ExperimentConfig, Framework, ModelKind, Placement};
use tgl_models::{OptFlags, TemporalModel, Tgat};
use tglite::tensor::no_grad;
use tglite::{obs, TBatch};

use crate::{bench_epochs, bench_scale, cell, field, text};

/// What a cell runs.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Train, validate and test.
    Train,
    /// The same under Table 7's simulated V100 capacity: twice the
    /// largest peak of the uncapped `t7` cells before it. An OOM is recorded.
    Capped,
    /// Test-split inference by an untrained TGAT with these operators
    /// (Table 6).
    Infer(OptFlags),
}

/// One run of the evaluation.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `group/dataset/model/column`, unique in [`cells`].
    pub id: String,
    /// What runs, on what.
    pub cfg: ExperimentConfig,
    /// How it runs.
    pub run: Run,
}

fn id(group: &str, kind: DatasetKind, model: ModelKind, column: &str) -> String {
    format!("{group}/{}/{}/{column}", kind.name(), model.label())
}

/// The framework behind a model's "TGLite+opt" column: JODIE has no
/// further operators, so the paper reports plain TGLite there.
fn opt_fw(model: ModelKind) -> Framework {
    if model == ModelKind::Jodie {
        Framework::TgLite
    } else {
        Framework::TgLiteOpt
    }
}

/// Table 6's columns: TGL, then plain TGLite with one operator at a time.
fn t6_columns() -> [(&'static str, OptFlags); 5] {
    let lite = OptFlags::preload_only();
    [
        ("TGL", OptFlags::none()),
        ("TGLite", lite),
        ("+dedup", OptFlags { dedup: true, ..lite }),
        ("+cache", OptFlags { cache: true, ..lite }),
        ("+time", OptFlags { time_precompute: true, ..lite }),
    ]
}

const LARGE: [DatasetKind; 2] = [DatasetKind::WikiTalk, DatasetKind::Gdelt];

/// Every run of the evaluation, each once, in run order (Table 7's
/// capped cells after the cells their cap is read from).
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    let mut push = |id, cfg, run| out.push(Cell { id, cfg, run });
    for (group, placement) in [("device", Placement::AllOnDevice), ("host", Placement::HostResident)] {
        for kind in DatasetKind::standard() {
            for model in ModelKind::all() {
                for fw in Framework::all() {
                    // JODIE's TGLite+opt column is its TGLite cell.
                    if fw != Framework::TgLiteOpt || model != ModelKind::Jodie {
                        push(id(group, kind, model, fw.label()), cell(fw, model, kind, placement), Run::Train);
                    }
                }
            }
        }
    }
    for (group, placement) in [("t6-host", Placement::HostResident), ("t6-device", Placement::AllOnDevice)] {
        let (kind, model) = (DatasetKind::Lastfm, ModelKind::Tgat);
        for (column, opts) in t6_columns() {
            push(id(group, kind, model, column), cell(Framework::Tgl, model, kind, placement), Run::Infer(opts));
        }
    }
    // Host-resident, batch 400 (the paper's 4000, scaled) and one epoch
    // by default; Table 8 reports AP only and runs at twice the divisor.
    let large = |fw, model, kind, divisor| {
        let mut cfg = cell(fw, model, kind, Placement::HostResident);
        cfg.dataset = DatasetSpec::of(kind).scaled_down(bench_scale() * divisor);
        cfg.train_cfg.batch_size = 400;
        cfg.train_cfg.epochs = bench_epochs(1);
        cfg
    };
    for (fw, run) in [(None, Run::Train), (Some(Framework::Tgl), Run::Capped)] {
        for kind in LARGE {
            for model in ModelKind::all() {
                let fw = fw.unwrap_or(opt_fw(model));
                let column = if fw == Framework::Tgl { "TGL" } else { "TGLite+opt" };
                push(id("t7", kind, model, column), large(fw, model, kind, 1), run);
            }
        }
    }
    for kind in LARGE {
        for model in ModelKind::all() {
            for (column, fw) in [("TGL", Framework::Tgl), ("TGLite+opt", opt_fw(model))] {
                push(id("t8", kind, model, column), large(fw, model, kind, 2), Run::Train);
            }
        }
    }
    out
}

/// Process CPU seconds of test-split inference by an untrained TGAT
/// with `opts`, in `cfg`'s placement (Table 6).
fn infer_s(cfg: &ExperimentConfig, opts: OptFlags) -> f64 {
    let (ctx, split) = prepare_context(&cfg.dataset, cfg.placement, cfg.transfer);
    let mut negs = NegativeSampler::for_spec(&cfg.dataset, 3);
    let mut model = Tgat::new(&ctx, cfg.model_cfg, opts, 5);
    model.set_training(false);
    let start = CpuTimer::start();
    let _guard = no_grad();
    for r in Split::batches(&split.test, cfg.train_cfg.batch_size) {
        let mut batch = TBatch::new(Arc::clone(ctx.graph()), r);
        batch.set_negatives(negs.draw(batch.len()));
        let _ = model.forward(&ctx, &batch);
    }
    let elapsed = start.elapsed_s();
    tgl_device::set_transfer_model(TransferModel::disabled());
    elapsed
}

/// Runs one cell with the span aggregate on; its record row.
fn measure(cell: &Cell, cap: Option<u64>) -> Json {
    let mut row = vec![text("id", &cell.id)];
    obs::collect(true);
    match cell.run {
        Run::Infer(opts) => {
            let test_s = infer_s(&cell.cfg, opts);
            eprintln!("  [{}] test {test_s:.2}s", cell.id);
            row.push(field("test_s", test_s));
        }
        Run::Train | Run::Capped => match run_experiment_with_capacity(&cell.cfg, cap) {
            Ok(r) => {
                eprintln!("  [{}] train {:.2}s/epoch test {:.2}s", cell.id, r.train_s_per_epoch, r.test_s);
                let epochs = r.epochs.iter().map(|e| Json::Num(e.train_time_s)).collect();
                row.push(("epochs_s".to_string(), Json::Arr(epochs)));
                row.push(field("test_s", r.test_s));
                row.push(field("val_ap", r.best_val_ap));
                row.push(field("test_ap", r.test_ap));
                row.push(field("peak_bytes", r.peak_device_bytes as f64));
            }
            Err(oom) => {
                assert!(cap.is_some(), "{}: {oom} without a capacity cap", cell.id);
                let c = &cell.cfg;
                eprintln!("  [{}] {}/{}: {oom}", c.framework.label(), c.dataset.kind.name(), c.model.label());
                row.push(text("oom", &oom));
            }
        },
    }
    let phases = obs::phase::take();
    obs::collect(false);
    if let Some(cap) = cap {
        row.push(field("cap_bytes", cap as f64));
    }
    let phases = phases.into_iter().map(|(name, d)| field(name, d.as_secs_f64())).collect();
    row.push(("phases".to_string(), Json::Obj(phases)));
    Json::Obj(row)
}

/// Runs every cell once and returns the record: the host shape, Table
/// 3's dataset statistics, one row per cell and the hooks ablation.
pub fn record(cells: &[Cell]) -> Json {
    let datasets = DatasetKind::all().map(|kind| {
        let (_, s) = generate(&DatasetSpec::of(kind).scaled_down(bench_scale()));
        Json::Obj(vec![
            text("name", kind.name()),
            field("nodes", s.num_nodes as f64),
            field("edges", s.num_edges as f64),
            field("d_node", s.d_node as f64),
            field("d_edge", s.d_edge as f64),
            field("max_t", s.max_t),
            field("repeat_frac", s.repeat_fraction),
        ])
    });
    let mut rows: Vec<Json> = Vec::new();
    for cell in cells {
        let cap = matches!(cell.run, Run::Capped).then(|| {
            let uncapped =
                cells.iter().zip(&rows).filter(|(c, _)| matches!(c.run, Run::Train) && c.id.starts_with("t7/"));
            2 * uncapped.map(|(_, r)| num(r, "peak_bytes")).fold(0.0, f64::max) as u64
        });
        rows.push(measure(cell, cap));
    }
    let hooks = crate::hooks::compare(bench_scale(), 4);
    let mut host = crate::host();
    host.extend([
        field("scale", bench_scale() as f64),
        field("epochs", bench_epochs(2) as f64),
        field("large_epochs", bench_epochs(1) as f64),
    ]);
    Json::Obj(vec![
        ("host".to_string(), Json::Obj(host)),
        ("datasets".to_string(), Json::Arr(datasets.into())),
        ("cells".to_string(), Json::Arr(rows)),
        (
            "hooks".to_string(),
            Json::Obj(vec![
                field("hooks_s", hooks.hooks_s),
                field("manual_s", hooks.manual_s),
                field("max_diff", hooks.max_diff),
            ]),
        ),
    ])
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("record row has no number {key:?}: {}", row.render()))
}

fn string<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("record row has no string {key:?}: {}", row.render()))
}

fn items<'a>(rec: &'a Json, key: &str) -> &'a [Json] {
    rec.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("record has no array {key:?}"))
}

/// Mean CPU seconds per training epoch.
fn train_s(row: &Json) -> f64 {
    let epochs = items(row, "epochs_s");
    epochs.iter().filter_map(Json::as_num).sum::<f64>() / epochs.len().max(1) as f64
}

/// Renders every table and figure of the evaluation from `rec` alone:
/// `(title, body)` in the paper's order.
pub fn views(rec: &Json) -> Vec<(&'static str, String)> {
    let row = |group: &str, kind, model, column: &str| {
        let id = id(group, kind, model, column);
        items(rec, "cells").iter().find(|r| string(r, "id") == id).unwrap_or_else(|| panic!("record has no cell {id}"))
    };
    let grid = |group: &str, kind, model, fw: Framework| {
        let fw = if fw == Framework::TgLiteOpt { opt_fw(model) } else { fw };
        row(group, kind, model, fw.label())
    };
    let host = rec.get("host").expect("record has a host shape");
    let host_line = format!(
        "{} cores, {} threads, SIMD {}, kernel {} | scale divisor {} | epochs {} (large sets {})",
        num(host, "cores"),
        num(host, "threads"),
        string(host, "simd"),
        string(host, "kernel"),
        num(host, "scale"),
        num(host, "epochs"),
        num(host, "large_epochs"),
    );

    let mut t3 = TextTable::new(&["Dataset", "|V|", "|E|", "d_v", "d_e", "max(t)", "repeat%"]);
    for d in items(rec, "datasets") {
        t3.row(&[
            string(d, "name").to_string(),
            num(d, "nodes").to_string(),
            num(d, "edges").to_string(),
            num(d, "d_node").to_string(),
            num(d, "d_edge").to_string(),
            format!("{:.1e}", num(d, "max_t")),
            format!("{:.1}", num(d, "repeat_frac") * 100.0),
        ]);
    }

    // Figures 5 and 6: seconds per training epoch, speedups against TGL.
    let epoch_times = |group: &str| {
        let mut header = vec!["Data", "Model", "TGL", "TGLite", "TGLite+opt", "bars (s/epoch)"];
        if group == "host" {
            header.push("TGL host/device");
        }
        let mut t = TextTable::new(&header);
        for kind in DatasetKind::standard() {
            for model in ModelKind::all() {
                let [tgl, lite, opt] = Framework::all().map(|fw| train_s(grid(group, kind, model, fw)));
                let max = tgl.max(lite).max(opt);
                let mut cells = vec![
                    kind.name().to_string(),
                    model.label().to_string(),
                    secs(tgl),
                    format!("{} {}", secs(lite), speedup(tgl, lite)),
                    if model == ModelKind::Jodie {
                        "= TGLite".into()
                    } else {
                        format!("{} {}", secs(opt), speedup(tgl, opt))
                    },
                    format!(
                        "TGL {:<12} lite {:<12} +opt {:<12}",
                        bar(tgl, max, 12),
                        bar(lite, max, 12),
                        bar(opt, max, 12)
                    ),
                ];
                if group == "host" {
                    cells.push(format!("{:.1}x", tgl / train_s(grid("device", kind, model, Framework::Tgl))));
                }
                t.row(&cells);
            }
        }
        t.render()
    };

    let mut t4 = TextTable::new(&["Data", "Model", "TGL", "TGLite", "TGLite+opt"]);
    let mut t5 = TextTable::new(&["Data", "Model", "TGL", "AP", "TGLite", "AP", "TGLite+opt", "AP"]);
    for kind in DatasetKind::standard() {
        for model in ModelKind::all() {
            let [tgl, lite, opt] = Framework::all().map(|fw| grid("device", kind, model, fw));
            let jodie = model == ModelKind::Jodie;
            let names = [kind.name().to_string(), model.label().to_string()];
            t4.row(
                &[
                    &names[..],
                    &[
                        ap(num(tgl, "val_ap")),
                        ap(num(lite, "val_ap")),
                        if jodie { "-".into() } else { ap(num(opt, "val_ap")) },
                    ],
                ]
                .concat(),
            );
            let test_s =
                |r: &Json| format!("{} {}", secs(num(r, "test_s")), speedup(num(tgl, "test_s"), num(r, "test_s")));
            let mut cells = [
                &names[..],
                &[secs(num(tgl, "test_s")), ap(num(tgl, "test_ap")), test_s(lite), ap(num(lite, "test_ap"))],
            ]
            .concat();
            cells.extend(if jodie { ["-".into(), "-".into()] } else { [test_s(opt), ap(num(opt, "test_ap"))] });
            t5.row(&cells);
        }
    }

    // Figure 7: the paper's phases of TGAT / LastFM, all-on-GPU.
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
    let f7_rows = Framework::all().map(|fw| grid("device", DatasetKind::Lastfm, ModelKind::Tgat, fw));
    let phase = |r: &Json, p: &str| r.get("phases").and_then(|ph| ph.get(p)).and_then(Json::as_num).unwrap_or(0.0);
    let max = PHASES.iter().flat_map(|p| f7_rows.iter().map(|r| phase(r, p))).fold(0.0, f64::max);
    let mut f7 = TextTable::new(&["Phase", "TGL", "TGLite", "TGLite+opt", "bars"]);
    for p in PHASES {
        let s = f7_rows.map(|r| phase(r, p));
        f7.row(&[
            p.to_string(),
            secs(s[0]),
            secs(s[1]),
            secs(s[2]),
            format!("{:<10}|{:<10}|{:<10}", bar(s[0], max, 10), bar(s[1], max, 10), bar(s[2], max, 10)),
        ]);
    }
    f7.row(&["epoch total".into(), secs(train_s(f7_rows[0])), secs(train_s(f7_rows[1])), secs(train_s(f7_rows[2]))]);

    let mut t6 = TextTable::new(&["Case", "TGL (s)", "TGLite", "+dedup", "+cache", "+time"]);
    for (group, case) in [("t6-host", "CPU-to-GPU"), ("t6-device", "All-on-GPU")] {
        let s = t6_columns().map(|(column, _)| num(row(group, DatasetKind::Lastfm, ModelKind::Tgat, column), "test_s"));
        let mut cells = vec![case.to_string(), secs(s[0])];
        cells.extend(s[1..].iter().map(|&ours| speedup(s[0], ours).trim_matches(['(', ')']).to_string()));
        t6.row(&cells);
    }

    let mut a1 = TextTable::new(&["Case", "TBlock (s/epoch)", "MFG (s/epoch)", "MFG overhead"]);
    for (group, placement) in [("device", Placement::AllOnDevice), ("host", Placement::HostResident)] {
        let [mfg, tblock] =
            [Framework::Tgl, Framework::TgLite].map(|fw| train_s(grid(group, DatasetKind::Wiki, ModelKind::Tgat, fw)));
        a1.row(&[
            placement.label().to_string(),
            secs(tblock),
            secs(mfg),
            format!("{:+.1}%", (mfg / tblock - 1.0) * 100.0),
        ]);
    }

    let hooks = rec.get("hooks").expect("record has the hooks ablation");
    let (with, manual) = (num(hooks, "hooks_s"), num(hooks, "manual_s"));
    let a2 = format!(
        "with hooks:    {with:.3}s\nmanual (user): {manual:.3}s\nperf delta:    {:+.1}%\nmax output difference: {:.2e}",
        (manual / with - 1.0) * 100.0,
        num(hooks, "max_diff")
    );

    let mut t7 = TextTable::new(&["Data", "Model", "TGL train", "TGL test", "TGLite+opt train", "TGLite+opt test"]);
    let mut t8 =
        TextTable::new(&["Data", "Model", "TGL train-AP", "TGL test-AP", "TGLite+opt train-AP", "TGLite+opt test-AP"]);
    for kind in LARGE {
        for model in ModelKind::all() {
            let names = [kind.name().to_string(), model.label().to_string()];
            let [tgl, opt] = ["TGL", "TGLite+opt"].map(|column| row("t7", kind, model, column));
            let (lite_train, lite_test) = (train_s(opt), num(opt, "test_s"));
            let [tgl_train, tgl_test, train_sp, test_sp] = match tgl.get("oom") {
                Some(_) => ["OOM".into(), "OOM".into(), String::new(), String::new()],
                None => {
                    let (train, test) = (train_s(tgl), num(tgl, "test_s"));
                    [secs(train), secs(test), speedup(train, lite_train), speedup(test, lite_test)]
                }
            };
            let large = [
                tgl_train,
                tgl_test,
                format!("{} {train_sp}", secs(lite_train)),
                format!("{} {test_sp}", secs(lite_test)),
            ];
            t7.row(&[&names[..], &large].concat());
            let [tgl, opt] = ["TGL", "TGLite+opt"].map(|column| row("t8", kind, model, column));
            t8.row(
                &[
                    &names[..],
                    &[ap(num(tgl, "val_ap")), ap(num(tgl, "test_ap")), ap(num(opt, "val_ap")), ap(num(opt, "test_ap"))],
                ]
                .concat(),
            );
        }
    }
    let cap = num(row("t7", LARGE[0], ModelKind::Jodie, "TGL"), "cap_bytes") as u64;
    let t7 = format!(
        "simulated V100 device capacity: {} MiB (2x TGLite+opt peak of {} MiB)\n\n{}",
        cap >> 20,
        (cap / 2) >> 20,
        t7.render()
    );

    vec![
        ("Host", host_line),
        ("Table 3: benchmark datasets", t3.render()),
        ("Figure 5: training time per epoch, all-on-GPU (speedup vs TGL)", epoch_times("device")),
        ("Table 4: training evaluation AP (best epoch), all-on-GPU", t4.render()),
        ("Table 5: test-set inference time + AP, all-on-GPU", t5.render()),
        ("Figure 6: training time per epoch, CPU-to-GPU (speedup vs TGL)", epoch_times("host")),
        ("Figure 7: TGAT / LastFM phase seconds over the run, all-on-GPU", f7.render()),
        ("Table 6: inference speedup vs TGL, one operator at a time (TGAT / LastFM)", t6.render()),
        ("A1: TBlock vs MFG (TGAT / Wiki training)", a1.render()),
        ("A2: hooks mechanism vs manual post-processing (TGAT / Wiki inference)", a2),
        ("Table 7: large-scale train / test seconds, CPU-to-GPU", t7),
        ("Table 8: large-scale training / inference AP", t8.render()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_distinct() {
        let cells = cells();
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn views_of_the_committed_record_are_in_experiments_md() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let read = |name: &str| std::fs::read_to_string(format!("{root}{name}")).expect("committed file");
        let rec = Json::parse(&read("BENCH_paper.json")).expect("BENCH_paper.json parses");
        let doc = read("EXPERIMENTS.md");
        for (title, body) in views(&rec) {
            assert!(doc.contains(&body), "EXPERIMENTS.md lacks the {title:?} view of BENCH_paper.json:\n{body}");
        }
    }
}
