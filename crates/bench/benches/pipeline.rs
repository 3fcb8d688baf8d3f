//! Sequential-vs-pipelined trainer epoch walls.
//!
//! Trains four configurations twice each — pipeline depth 0 (batches
//! prepared inline) and depth 2 (sampler stage preparing them ahead
//! over the bounded channel) — and records per-epoch *wall* time for
//! both:
//!
//! * TGAT with everything on the compute tier: the sampler stage takes
//!   dedup and neighbor sampling off the compute thread;
//! * TGN with host-resident features behind the scaled PCIe model (the
//!   CLI's `--move` link): the sampler stage also takes the staging
//!   transfers, while memory and mailbox reads stay on the compute
//!   thread in batch order;
//! * APAN and JODIE, host-resident the same way: their chain is the
//!   head block alone, so what moves to the sampler stage is the
//!   negative draw and the head's node-feature staging.
//!
//! CPU time is the wrong metric here: the pipeline wins by overlapping
//! the sampler stage with compute, which lowers wall clock while total
//! cycles stay put. That needs a second core, so on a 1-cpu host the
//! bench still checks the contract below but refuses to record
//! anything: a speedup measured there means nothing.
//!
//! The bench *asserts* the bitwise-identity contract: per-epoch losses
//! at depth 2 must equal the sequential ones bit for bit — a perf
//! artifact generated from a diverged run would be meaningless.

use std::sync::Arc;
use std::time::Instant;

use tgl_data::{generate, DatasetKind, DatasetSpec, Split};
use tgl_device::TransferModel;
use tgl_harness::runner::{prepare_context, Placement};
use tgl_harness::{TrainConfig, Trainer};
use tgl_models::{Apan, Jodie, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tglite::TContext;

const EPOCHS: usize = 3;
const DEPTH: usize = 2;

/// Per-epoch `(wall_s, loss)`.
type Series = Vec<(f64, f32)>;

fn spec() -> DatasetSpec {
    DatasetSpec::of(DatasetKind::Wiki).scaled_down(2)
}

/// Trains `EPOCHS` epochs of `model` at the given pipeline depth.
fn train(model: &mut dyn TemporalModel, ctx: &TContext, depth: usize) -> Series {
    let spec = spec();
    let split = Split::standard(ctx.graph());
    let trainer = Trainer::new(
        TrainConfig {
            batch_size: 100,
            epochs: EPOCHS,
            lr: 1e-3,
            seed: 17,
        },
        spec.n_src as u32,
        spec.num_nodes() as u32,
    )
    .with_pipeline(depth);
    let mut opt = tglite::tensor::optim::Adam::new(model.parameters(), 1e-3);
    (0..EPOCHS)
        .map(|e| {
            let t0 = Instant::now();
            let s = trainer.train_epoch(model, ctx, &split, &mut opt, e);
            (t0.elapsed().as_secs_f64(), s.loss)
        })
        .collect()
}

fn run_tgat(depth: usize) -> Series {
    let (g, _) = generate(&spec());
    let ctx = TContext::new(Arc::clone(&g));
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 42);
    train(&mut model, &ctx, depth)
}

/// Trains the model `build` makes with host-resident features behind
/// the scaled link.
fn run_host_resident(build: fn(&TContext) -> Box<dyn TemporalModel>, depth: usize) -> Series {
    let link = TransferModel::sim_v100();
    let (ctx, _) = prepare_context(&spec(), Placement::HostResident, link);
    let series = train(build(&ctx).as_mut(), &ctx, depth);
    tgl_device::set_transfer_model(TransferModel::disabled());
    series
}

/// Runs `run` at depth 0 and `DEPTH`, checks the losses bit for bit,
/// prints the comparison and returns the series as JSON members
/// (`"epochs": [...], "total": {...}`).
fn compare(label: &str, run: fn(usize) -> Series) -> String {
    println!("-- {label}");
    let sequential = run(0);
    let pipelined = run(DEPTH);
    let mut epochs_json = String::new();
    for (e, ((sw, sl), (pw, pl))) in sequential.iter().zip(&pipelined).enumerate() {
        assert_eq!(
            sl.to_bits(),
            pl.to_bits(),
            "{label} epoch {e}: pipelined loss {pl} diverged from sequential {sl}"
        );
        println!(
            "  epoch {e}: sequential {sw:>7.3}s  pipelined {pw:>7.3}s  ({:.2}x)  loss {sl:.4} (bitwise equal)",
            sw / pw
        );
        epochs_json.push_str(&format!(
            "{}\n      {{\"epoch\": {e}, \"sequential\": {{\"wall_s\": {sw:.6}}}, \
             \"pipelined\": {{\"wall_s\": {pw:.6}}}}}",
            if e > 0 { "," } else { "" }
        ));
    }
    let seq_total: f64 = sequential.iter().map(|(w, _)| w).sum();
    let pipe_total: f64 = pipelined.iter().map(|(w, _)| w).sum();
    println!(
        "  total: sequential {seq_total:.3}s, pipelined {pipe_total:.3}s ({:.2}x)",
        seq_total / pipe_total
    );
    format!(
        "\"epochs\": [{epochs_json}\n    ],\n    \
         \"total\": {{\"sequential\": {{\"wall_s\": {seq_total:.6}}}, \
         \"pipelined\": {{\"wall_s\": {pipe_total:.6}}}, \"speedup\": {:.3}}}",
        seq_total / pipe_total
    )
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("== pipelined trainer: sequential vs depth-{DEPTH} epoch walls ({cpus} cpus) ==");
    // JSON key, label, run. `scripts/ab` matches the epochs of a row by
    // position.
    type Run = fn(usize) -> Series;
    let rows: [(&str, &str, Run); 4] = [
        ("tgat", "TGAT, all on the compute tier", run_tgat),
        ("tgn_host_resident", "TGN, host-resident features behind the scaled link", |d| {
            run_host_resident(|c| Box::new(Tgn::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
        ("apan_host_resident", "APAN, host-resident", |d| {
            run_host_resident(|c| Box::new(Apan::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
        ("jodie_host_resident", "JODIE, host-resident", |d| {
            run_host_resident(|c| Box::new(Jodie::new(c, ModelConfig::tiny(), OptFlags::all(), 42)), d)
        }),
    ];
    let members: Vec<String> = rows
        .iter()
        .map(|(key, label, run)| format!("  \"{key}\": {{\n    {}\n  }}", compare(label, *run)))
        .collect();

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    if cpus == 1 {
        println!(
            "  1 cpu: the stages cannot overlap, so no speedup is recorded; {} left as it is",
            path.display()
        );
        return;
    }
    let json = format!(
        "{{\n  \"host_cpus\": {cpus},\n  \"pipeline_depth\": {DEPTH},\n  \
         \"bitwise_identical\": true,\n{}\n}}\n",
        members.join(",\n")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
