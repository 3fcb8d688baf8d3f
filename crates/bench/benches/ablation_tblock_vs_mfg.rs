//! Regenerates the **TBlock-vs-MFG ablation** (paper §5.4).
//!
//! Compares TGAT training time in both placements between TGLite and
//! the `tgl` framework setting, which runs the same model with MFG-style
//! staging: every block's tensors materialized upfront, one pageable
//! transfer each, and kept for the batch.
//!
//! Expected shape: the MFG path is a few percent slower (paper: ~3%
//! all-on-GPU, ~9% CPU-to-GPU, from extra data movement).

use tgl_bench::{cell, preamble};
use tgl_data::DatasetKind;
use tgl_device::TransferModel;
use tgl_harness::table::TextTable;
use tgl_harness::{run_experiment, Framework, ModelKind, Placement};

fn main() {
    preamble(
        "Ablation: TBlock vs MFG (TGAT training)",
        "paper §5.4 'TBlock-vs-MFG'",
    );
    let mut t = TextTable::new(&["Case", "TBlock (s/epoch)", "MFG (s/epoch)", "MFG overhead"]);
    for &placement in &[Placement::AllOnDevice, Placement::HostResident] {
        if placement == Placement::HostResident {
            tgl_device::set_transfer_model(TransferModel::sim_v100());
        }
        // TBlock path without redundancy opts (`preload` only), so the
        // two rows differ in staging alone.
        let mut lite_cfg = cell(Framework::TgLite, ModelKind::Tgat, DatasetKind::Wiki, placement);
        lite_cfg.train_cfg.epochs = 1;
        let lite = run_experiment(&lite_cfg);
        let mut mfg_cfg = cell(Framework::Tgl, ModelKind::Tgat, DatasetKind::Wiki, placement);
        mfg_cfg.train_cfg.epochs = 1;
        let mfg = run_experiment(&mfg_cfg);
        let overhead = (mfg.train_s_per_epoch / lite.train_s_per_epoch - 1.0) * 100.0;
        t.row(&[
            placement.label().to_string(),
            format!("{:.2}", lite.train_s_per_epoch),
            format!("{:.2}", mfg.train_s_per_epoch),
            format!("{overhead:+.1}%"),
        ]);
    }
    println!("{}", t.render());
    println!("\n(the MFG path also peaks higher on device memory — see");
    println!(" table7_large_scale for the capacity consequence)");
}
