//! Regenerates **Table 7** — training and inference times on the
//! large-scale benchmarks (WikiTalk-shape and GDELT-shape), data
//! host-resident, TGL vs TGLite+opt, under a simulated V100-class
//! device-memory capacity.
//!
//! Expected shape (paper §5.5): TGLite+opt ≥1.15× everywhere, strongly
//! amplified for TGAT/TGN on GDELT; TGL runs **OOM** for TGAT/TGN
//! under the tighter (V100-like) capacity while TGLite+opt completes.

use tgl_bench::{bench_epochs, bench_scale, preamble};
use tgl_data::{DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use tgl_harness::table::{secs, speedup, TextTable};
use tgl_harness::{
    run_experiment_with_capacity, ExperimentConfig, Framework, ModelKind, Placement,
};

fn large_cell(fw: Framework, model: ModelKind, kind: DatasetKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(fw, model, kind, Placement::HostResident);
    cfg.dataset = DatasetSpec::of(kind).scaled_down(bench_scale());
    // Paper: batch 4000 and fewer epochs for the large sets.
    cfg.train_cfg.batch_size = 400;
    cfg.train_cfg.epochs = bench_epochs(1);
    cfg.transfer = TransferModel::sim_v100();
    cfg
}

fn main() {
    preamble(
        "Table 7: large-scale training/inference times (host-resident)",
        "paper §5.5, Table 7",
    );
    tgl_device::set_transfer_model(TransferModel::sim_v100());

    // Phase 1: TGLite+opt runs, recording per-cell peak device usage.
    let mut lite: Vec<(DatasetKind, ModelKind, f64, f64, u64)> = Vec::new();
    for kind in [DatasetKind::WikiTalk, DatasetKind::Gdelt] {
        for model in ModelKind::all() {
            let fw = if model == ModelKind::Jodie {
                Framework::TgLite // JODIE has no further opts
            } else {
                Framework::TgLiteOpt
            };
            let cfg = large_cell(fw, model, kind);
            tgl_device::set_transfer_model(TransferModel::sim_v100());
            let r = run_experiment_with_capacity(&cfg, None).expect("TGLite must complete");
            lite.push((kind, model, r.train_s_per_epoch, r.test_s, r.peak_device_bytes));
            eprintln!(
                "  [TGLite+opt] {}/{}: train {:.1}s test {:.1}s peak {} MiB",
                kind.name(),
                model.label(),
                r.train_s_per_epoch,
                r.test_s,
                r.peak_device_bytes >> 20
            );
        }
    }
    // Simulated V100 capacity: sized so TGLite's working set fits with
    // headroom, mirroring the V100:workload ratio of the paper (the
    // A100, with 5x the memory, fits everything).
    let max_lite_peak = lite.iter().map(|r| r.4).max().unwrap_or(0);
    let cap_v100 = max_lite_peak * 2;
    println!(
        "\nsimulated V100 device capacity: {} MiB (2x TGLite+opt peak of {} MiB)\n",
        cap_v100 >> 20,
        max_lite_peak >> 20
    );

    // Phase 2: TGL baseline under the capacity cap.
    let mut t = TextTable::new(&[
        "Data", "Model", "TGL train", "TGL test", "TGLite+opt train", "TGLite+opt test",
    ]);
    for &(kind, model, lite_train, lite_test, _) in &lite {
        let cfg = large_cell(Framework::Tgl, model, kind);
        tgl_device::set_transfer_model(TransferModel::sim_v100());
        let (tgl_train_cell, tgl_test_cell, train_sp, test_sp) =
            match run_experiment_with_capacity(&cfg, Some(cap_v100)) {
                Ok(r) => (
                    secs(r.train_s_per_epoch),
                    secs(r.test_s),
                    speedup(r.train_s_per_epoch, lite_train),
                    speedup(r.test_s, lite_test),
                ),
                Err(oom) => {
                    eprintln!("  [TGL] {}/{}: {oom}", kind.name(), model.label());
                    ("OOM".into(), "OOM".into(), String::new(), String::new())
                }
            };
        t.row(&[
            kind.name().to_string(),
            model.label().to_string(),
            tgl_train_cell,
            tgl_test_cell,
            format!("{} {train_sp}", secs(lite_train)),
            format!("{} {test_sp}", secs(lite_test)),
        ]);
    }
    tgl_device::set_transfer_model(TransferModel::disabled());
    println!("{}", t.render());
    println!("\n(speedups vs TGL in parentheses; OOM = the baseline exceeded");
    println!(" the simulated V100 capacity, as in the paper's Table 7)");
}
