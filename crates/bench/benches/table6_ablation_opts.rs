//! Regenerates **Table 6** — inference-runtime speedup from one
//! optimization operator at a time (TGAT / LastFM-shape), for both
//! data placements.
//!
//! Expected shape (paper §5.4): each single optimization improves over
//! plain TGLite; dedup and cache bring the largest gains; everything
//! is amplified in the CPU-to-GPU case.

use std::sync::Arc;

use tgl_bench::{bench_scale, preamble};
use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler, Split};
use tgl_device::{Device, TransferModel};
use tgl_harness::table::{speedup, TextTable};
use tgl_models::{ModelConfig, OptFlags, TemporalModel, Tgat};
use tglite::tensor::no_grad;
use tglite::{TBatch, TContext};

/// Inference wall time over the test split for a TGAT with `opts`.
fn inference_time(spec: &DatasetSpec, host_resident: bool, opts: OptFlags) -> f64 {
    let (g, _) = generate(spec);
    if !host_resident {
        if let Some(f) = g.node_feats() {
            g.set_node_feats(f.to(Device::Accel));
        }
        if let Some(f) = g.edge_feats() {
            g.set_edge_feats(f.to(Device::Accel));
        }
    }
    tgl_device::set_transfer_model(if host_resident {
        TransferModel::sim_v100()
    } else {
        TransferModel::disabled()
    });
    let ctx = TContext::with_device(Arc::clone(&g), Device::Accel);
    let split = Split::standard(&g);
    let cfg = ModelConfig {
        emb_dim: 32,
        time_dim: 16,
        heads: 2,
        n_layers: 2,
        n_neighbors: 10,
        mailbox_slots: 10,
    };
    let mut negs = NegativeSampler::for_spec(spec, 3);
    let mut model = Tgat::new(&ctx, cfg, opts, 5);
    model.set_training(false);
    let start = tgl_harness::CpuTimer::start();
    let _guard = no_grad();
    for r in Split::batches(&split.test, 200) {
        let mut batch = TBatch::new(Arc::clone(&g), r);
        batch.set_negatives(negs.draw(batch.len()));
        let _ = model.forward(&ctx, &batch);
    }
    let elapsed = start.elapsed_s();
    tgl_device::set_transfer_model(TransferModel::disabled());
    elapsed
}

fn main() {
    preamble(
        "Table 6: per-optimization inference speedups (TGAT / LastFM)",
        "paper §5.4, Table 6",
    );
    let spec = DatasetSpec::of(DatasetKind::Lastfm).scaled_down(bench_scale());
    let variants: [(&str, OptFlags); 4] = [
        ("TGLite", OptFlags::preload_only()),
        (
            "+dedup",
            OptFlags {
                dedup: true,
                ..OptFlags::preload_only()
            },
        ),
        (
            "+cache",
            OptFlags {
                cache: true,
                ..OptFlags::preload_only()
            },
        ),
        (
            "+time",
            OptFlags {
                time_precompute: true,
                ..OptFlags::preload_only()
            },
        ),
    ];
    let mut t = TextTable::new(&["Case", "TGLite", "+dedup", "+cache", "+time"]);
    for &host_resident in &[true, false] {
        let case = if host_resident { "CPU-to-GPU" } else { "All-on-GPU" };
        let tgl = inference_time(&spec, host_resident, OptFlags::none());
        let mut cells: Vec<String> = vec![case.to_string()];
        for (_, opts) in &variants {
            let ours = inference_time(&spec, host_resident, *opts);
            cells.push(speedup(tgl, ours).trim_matches(['(', ')']).to_string());
        }
        t.row(&cells);
        println!("  [{case}] TGL baseline: {tgl:.2}s");
    }
    println!("{}", t.render());
    println!("\n(speedups vs the TGL baseline, one optimization enabled at a");
    println!(" time on top of plain TGLite, as in the paper's Table 6)");
}
