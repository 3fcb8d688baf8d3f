//! End-to-end training pipelines across crates: data generation →
//! TGLite abstractions → models → harness, for all four models and
//! all three framework settings.

use tgl_harness::{run_experiment, ExperimentConfig, Framework, ModelKind, Placement};
use tgl_integration::mfg::MfgTgat;
use tgl_integration::{assert_logits_close, batch, ctx, tiny_wiki};
use tgl_models::{ModelConfig, OptFlags, TemporalModel};

fn tiny_cfg(fw: Framework, model: ModelKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(
        fw,
        model,
        tgl_data::DatasetKind::Wiki,
        Placement::AllOnDevice,
    );
    cfg.dataset = cfg.dataset.scaled_down(10);
    cfg.model_cfg = ModelConfig::tiny();
    cfg.train_cfg.epochs = 3;
    cfg.train_cfg.lr = 2e-3;
    cfg.train_cfg.batch_size = 60;
    cfg
}

#[test]
fn all_models_learn_above_random_with_tglite() {
    for model in ModelKind::all() {
        let mut cfg = tiny_cfg(Framework::TgLite, model);
        // The memory-only models need a few more passes over the tiny
        // stream to pull ahead of random.
        if matches!(model, ModelKind::Jodie | ModelKind::Apan) {
            cfg.dataset = tgl_data::DatasetSpec::of(tgl_data::DatasetKind::Wiki).scaled_down(6);
            cfg.train_cfg.epochs = 4;
        }
        let r = run_experiment(&cfg);
        assert!(
            r.best_val_ap > 0.55,
            "{}: val AP {:.3} not above random",
            model.label(),
            r.best_val_ap
        );
        assert!(r.test_ap.is_finite());
        assert!(r.epochs.iter().all(|e| e.loss.is_finite()));
    }
}

#[test]
fn baseline_framework_also_learns() {
    let r = run_experiment(&tiny_cfg(Framework::Tgl, ModelKind::Tgat));
    assert!(r.best_val_ap > 0.55, "TGL TGAT val AP {:.3}", r.best_val_ap);
}

#[test]
fn epoch_losses_decrease_over_training() {
    let r = run_experiment(&tiny_cfg(Framework::TgLite, ModelKind::Tgat));
    let first = r.epochs.first().unwrap().loss;
    let last = r.epochs.last().unwrap().loss;
    assert!(last < first, "loss {first} -> {last} did not drop");
}

#[test]
fn frameworks_agree_on_untrained_tgat_logits() {
    // Same seeds => the MFG reference and the TBlock stack must
    // produce identical first-batch logits: they share kernels and
    // differ only in orchestration.
    let (g, spec) = tiny_wiki();
    let a = MfgTgat::new(&g, ModelConfig::tiny(), 3);
    let c = ctx(&g);
    let mut b = tgl_models::Tgat::new(&c, ModelConfig::tiny(), OptFlags::none(), 3);
    let bt = batch(&g, &spec, 100..160, 0);
    let (p1, n1) = a.forward(&g, &bt);
    let (p2, n2) = b.forward(&c, &bt);
    assert_logits_close(&p1.to_vec(), &p2.to_vec(), 1e-4, "pos");
    assert_logits_close(&n1.to_vec(), &n2.to_vec(), 1e-4, "neg");
}

#[test]
fn tgl_and_tglite_train_to_the_same_bits() {
    // The framework setting decides staging, not values: one epoch of
    // every model reads the same losses and APs under both.
    for model in ModelKind::all() {
        let run = |fw| {
            let mut cfg = tiny_cfg(fw, model);
            cfg.train_cfg.epochs = 1;
            let r = run_experiment(&cfg);
            let epochs: Vec<(u32, u64)> =
                r.epochs.iter().map(|e| (e.loss.to_bits(), e.val_ap.to_bits())).collect();
            (epochs, r.test_ap.to_bits())
        };
        assert_eq!(run(Framework::Tgl), run(Framework::TgLite), "{}", model.label());
    }
}

#[test]
fn memory_models_roundtrip_state_across_batches() {
    let (g, spec) = tiny_wiki();
    let c = ctx(&g);
    let mut m = tgl_models::Tgn::new(&c, ModelConfig::tiny(), OptFlags::none(), 0);
    // First batch seeds memory; second batch must observe it.
    let b1 = batch(&g, &spec, 0..60, 1);
    m.forward(&c, &b1);
    let mem_after_1 = g.memory().rows(&[b1.srcs()[0]]).to_vec();
    let b2 = batch(&g, &spec, 60..120, 2);
    m.forward(&c, &b2);
    // Reset restores zeros.
    m.reset_state(&c);
    let zeroed = g.memory().rows(&[b1.srcs()[0]]).to_vec();
    assert!(mem_after_1.iter().any(|&v| v != 0.0), "memory never written");
    assert!(zeroed.iter().all(|&v| v == 0.0), "reset_state failed");
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let r = run_experiment(&tiny_cfg(Framework::TgLite, ModelKind::Tgat));
        (r.epochs[0].loss, r.best_val_ap)
    };
    let (l1, ap1) = run();
    let (l2, ap2) = run();
    assert_eq!(l1, l2, "first-epoch loss must be deterministic");
    assert_eq!(ap1, ap2, "val AP must be deterministic");
}
