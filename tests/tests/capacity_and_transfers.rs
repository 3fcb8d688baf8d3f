//! The simulated memory system end-to-end: device capacity (OOM)
//! behaviour and transfer metering, across the full training stack.
//!
//! These integration tests back the paper's Table 7 (TGL OOMs where
//! TGLite completes) and the Fig. 5/6 placement contrast.

use tgl_harness::{
    run_experiment, run_experiment_with_capacity, ExperimentConfig, Framework, ModelKind,
    Placement,
};
use tgl_models::ModelConfig;

/// Device allocation counters, capacity caps, and transfer meters are
/// process-global; serialize the tests in this file.
static DEVICE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn device_guard() -> std::sync::MutexGuard<'static, ()> {
    DEVICE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn cfg(fw: Framework, placement: Placement) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_default(
        fw,
        ModelKind::Tgat,
        tgl_data::DatasetKind::Wiki,
        placement,
    );
    c.dataset = c.dataset.scaled_down(10);
    c.model_cfg = ModelConfig::tiny();
    c.train_cfg.epochs = 1;
    c.train_cfg.batch_size = 60;
    c
}

#[test]
fn baseline_ooms_under_cap_where_tglite_fits() {
    let _g = device_guard();
    // Measure TGLite+opt's peak, cap the device modestly above it, and
    // verify the MFG baseline (which retains eagerly materialized
    // per-layer tensors) trips the cap while TGLite completes.
    let lite = run_experiment(&cfg(Framework::TgLiteOpt, Placement::AllOnDevice));
    let cap = lite.peak_device_bytes + lite.peak_device_bytes / 4;
    let lite_again =
        run_experiment_with_capacity(&cfg(Framework::TgLiteOpt, Placement::AllOnDevice), Some(cap));
    assert!(lite_again.is_ok(), "TGLite must fit under its own cap");
    let tgl = run_experiment_with_capacity(&cfg(Framework::Tgl, Placement::AllOnDevice), Some(cap));
    match tgl {
        Err(msg) => assert!(msg.contains("OOM"), "unexpected error: {msg}"),
        Ok(r) => panic!(
            "baseline unexpectedly fit: peak {} vs cap {cap}",
            r.peak_device_bytes
        ),
    }
}

#[test]
fn generous_cap_lets_everyone_finish() {
    let _g = device_guard();
    let r = run_experiment_with_capacity(
        &cfg(Framework::Tgl, Placement::AllOnDevice),
        Some(8 << 30),
    );
    assert!(r.is_ok());
}

#[test]
fn host_resident_transfers_exceed_device_resident() {
    let _g = device_guard();
    // A run zeroes the transfer counters once its data is placed, so
    // the counter after a run reads that run's traffic alone, whatever
    // an earlier test left in it. All-on-device still has a few
    // transfers (mem gathers), but host-resident per-batch feature
    // shipping dominates.
    let _ = run_experiment(&cfg(Framework::Tgl, Placement::AllOnDevice));
    let gpu_case = tgl_device::stats().h2d_bytes;
    let _ = run_experiment(&cfg(Framework::Tgl, Placement::HostResident));
    let cpu_case = tgl_device::stats().h2d_bytes;
    assert!(
        cpu_case > gpu_case,
        "host-resident should move more bytes: {cpu_case} vs {gpu_case}"
    );
}

#[test]
fn pinned_pool_is_reused_across_batches() {
    let _g = device_guard();
    use std::sync::Arc;
    use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler};
    use tgl_models::{OptFlags, TemporalModel, Tgat};
    use tglite::{TBatch, TContext};

    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
    let (g, _) = generate(&spec);
    let ctx = TContext::with_device(Arc::clone(&g), tgl_device::Device::Accel);
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::preload_only(), 0);
    let mut negs = NegativeSampler::for_spec(&spec, 0);
    for i in 0..4 {
        let mut b = TBatch::new(Arc::clone(&g), i * 60..(i + 1) * 60);
        b.set_negatives(negs.draw(60));
        let _ = model.forward(&ctx, &b);
    }
    let (acquired, reused) = ctx.pinned_pool().stats();
    assert!(acquired > 0, "preload never used the pinned pool");
    assert!(
        reused > 0,
        "pinned buffers should be recycled across batches ({acquired} acquisitions, 0 reuses)"
    );
}
