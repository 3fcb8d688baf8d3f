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

// Device allocation counters, capacity caps, and transfer meters are
// process-global: every test here holds `serial()`.
use tgl_integration::serial;

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
    let _g = serial();
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
    let _g = serial();
    let r = run_experiment_with_capacity(
        &cfg(Framework::Tgl, Placement::AllOnDevice),
        Some(8 << 30),
    );
    assert!(r.is_ok());
}

#[test]
fn host_resident_transfers_exceed_device_resident() {
    let _g = serial();
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
fn preloaded_batches_cross_as_pinned_transfers() {
    let _g = serial();
    use std::sync::Arc;
    use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler};
    use tgl_models::{OptFlags, TemporalModel, Tgat};
    use tglite::{TBatch, TContext};

    let kinds = || ["transfer.pinned_count", "transfer.pageable_count"].map(tglite::obs::metrics::get);
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
    let (g, _) = generate(&spec);
    let ctx = TContext::with_device(Arc::clone(&g), tgl_device::Device::Accel);
    let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::preload_only(), 0);
    let mut negs = NegativeSampler::for_spec(&spec, 0);
    for i in 0..4 {
        let mut b = TBatch::new(Arc::clone(&g), i * 60..(i + 1) * 60);
        b.set_negatives(negs.draw(60));
        let before = kinds();
        let _ = model.forward(&ctx, &b);
        let after = kinds();
        // Every batch stages its node rows, edge rows and time deltas
        // as three pinned transfers, and nothing crosses pageable.
        assert_eq!([after[0] - before[0], after[1] - before[1]], [3, 0], "batch {i}");
    }
}
