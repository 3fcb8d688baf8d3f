//! Quickstart: train TGAT on a Wiki-shaped CTDG for temporal link
//! prediction, then evaluate on the held-out chronological test split.
//!
//! ```sh
//! cargo run --release -p tgl-examples --bin quickstart
//! # with observability:
//! cargo run --release -p tgl-examples --bin quickstart -- \
//!     --prof --profile --critpath --metrics-out report.json
//! ```
//!
//! One experiment is one [`ExperimentConfig`] — framework, model,
//! dataset, data placement, hyperparameters — handed to
//! [`tgl_harness::run`], the same run path behind `tgl train`. `run`
//! generates the graph, wraps it in a `TContext`, builds the model,
//! trains, evaluates, and writes whatever the observability flags ask
//! for; `examples/custom_model.rs` shows the same steps by hand.
//!
//! Flags of its own: `--scale <N>` (divide the dataset, default 2),
//! `--epochs <N>` (default 3), `--lr <F>` (Adam learning rate; try
//! `1e18` to watch the health monitor skip batches) and `--move` (keep
//! features on the host and move them per batch over the simulated PCIe
//! link). Every observability flag of `tgl train` works here too,
//! through the one [`ObsOptions::from_args`]: `--prof`, `--profile`, `--critpath`,
//! `--trace-out`, `--metrics-out`, `--flight-out`,
//! `--health`, `--pipeline`, `--threads`, `--flight`,
//! `--csv`, `--ckpt` (see `tgl --help`). Any other argument exits 2.

use tgl_data::{DatasetKind, DatasetSpec};
use tgl_device::TransferModel;
use tgl_harness::{Args, ExperimentConfig, Framework, ModelKind, ObsOptions, Placement, TrainConfig};
use tgl_models::ModelConfig;

fn main() {
    // A panic anywhere below leaves a flight-recorder post-mortem.
    tgl_harness::install_flight_hook();
    let args = Args::parse(std::env::args().skip(1));
    let usage = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let opts = ObsOptions::from_args(&args, false).unwrap_or_else(|e| usage(e.to_string()));
    let scale = args.positive("scale").unwrap_or_else(|e| usage(e)).unwrap_or(2);
    let epochs: usize = args.get_or("epochs", 3).unwrap_or_else(|e| usage(e));
    let host_resident = args.has_flag("move");

    // A synthetic stream shaped like the paper's Wiki dataset
    // (bipartite user–page edits with heavy repeat interactions),
    // trained with TGAT under the paper's "TGLite+opt" operators
    // (preload / dedup / cache / time-precompute): 2 layers of temporal
    // attention over the 10 most recent neighbors.
    let cfg = ExperimentConfig {
        framework: Framework::TgLiteOpt,
        model: ModelKind::Tgat,
        dataset: DatasetSpec::of(DatasetKind::Wiki).scaled_down(scale),
        placement: if host_resident { Placement::HostResident } else { Placement::AllOnDevice },
        model_cfg: ModelConfig {
            emb_dim: 32,
            time_dim: 16,
            heads: 2,
            n_layers: 2,
            n_neighbors: 10,
            mailbox_slots: 1,
        },
        train_cfg: TrainConfig {
            batch_size: 200,
            epochs,
            lr: args.get_or("lr", 1e-3).unwrap_or_else(|e| usage(e)),
            seed: 0,
        },
        seed: 42,
        transfer: TransferModel::scaled(TransferModel::pcie_v100(), 400.0),
    };
    args.reject_unread().unwrap_or_else(|e| usage(e));
    println!(
        "TGAT on {} ({} nodes, {} edges), {}, simd {}",
        cfg.dataset.kind.name(),
        cfg.dataset.num_nodes(),
        cfg.dataset.n_edges,
        cfg.placement.label(),
        tgl_tensor::kernel::simd_label()
    );
    let result = tgl_harness::run(&cfg, &opts).unwrap_or_else(|e| usage(e.to_string()));

    // The learning signal needs the full-size stream, all epochs, and
    // the default learning rate; a scaled-down quick run (or a
    // deliberately diverged one) only checks the plumbing.
    if scale <= 2 && epochs >= 3 && !host_resident && args.get("lr").is_none() {
        assert!(result.test_ap > 0.5, "model should beat random");
    }
}
