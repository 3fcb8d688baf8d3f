//! Regenerates **Table 8** (Appendix B) — training and inference AP
//! scores on the large-scale benchmarks.
//!
//! Expected shape: TGL and TGLite+opt land within a point or two of
//! each other (the optimizations are semantic-preserving).
//!
//! Note: to keep this AP-only target affordable it runs at an extra 2x
//! dataset scale-down relative to table7 (override with
//! `TGL_BENCH_SCALE`).

use tgl_bench::{bench_epochs, bench_scale, preamble};
use tgl_data::{DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use tgl_harness::table::{ap, TextTable};
use tgl_harness::{run_experiment, ExperimentConfig, Framework, ModelKind, Placement};

fn main() {
    preamble(
        "Table 8: large-scale training/inference AP",
        "paper Appendix B, Table 8",
    );
    let scale = bench_scale() * 2;
    let mut t = TextTable::new(&[
        "Data", "Model", "TGL train-AP", "TGL test-AP", "TGLite+opt train-AP", "TGLite+opt test-AP",
    ]);
    for kind in [DatasetKind::WikiTalk, DatasetKind::Gdelt] {
        for model in ModelKind::all() {
            let mut cells = vec![kind.name().to_string(), model.label().to_string()];
            for fw in [Framework::Tgl, Framework::TgLiteOpt] {
                let fw = if fw == Framework::TgLiteOpt && model == ModelKind::Jodie {
                    Framework::TgLite
                } else {
                    fw
                };
                let mut cfg =
                    ExperimentConfig::paper_default(fw, model, kind, Placement::HostResident);
                cfg.dataset = DatasetSpec::of(kind).scaled_down(scale);
                cfg.train_cfg.batch_size = 400;
                cfg.train_cfg.epochs = bench_epochs(1);
                cfg.transfer = TransferModel::sim_v100();
                let r = run_experiment(&cfg);
                cells.push(ap(r.best_val_ap));
                cells.push(ap(r.test_ap));
            }
            t.row(&cells);
        }
    }
    println!("{}", t.render());
    println!("\n(train-AP = best validation epoch; test-AP = chronological");
    println!(" test split; semantic-preserving opts keep the columns close)");
}
