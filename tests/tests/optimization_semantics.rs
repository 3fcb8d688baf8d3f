//! Semantic preservation of the optimization operators across the full
//! model stack: "optimization operators (which are semantic-preserving
//! transformations and does not affect model accuracy)" (paper §1).

use tgl_integration::{assert_logits_close, batch, ctx, tiny_wiki};
use tgl_models::{Apan, Jodie, ModelConfig, OptFlags, TemporalModel, Tgat, Tgn};
use tglite::tensor::optim::Adam;
use tglite::tensor::{bce_with_logits, no_grad, ops::cat, Tensor};
use tglite::TContext;

#[test]
fn tgat_all_optimizations_preserve_inference() {
    let (g, spec) = tiny_wiki();
    let c_plain = ctx(&g);
    let c_opt = ctx(&g);
    let mut plain = Tgat::new(&c_plain, ModelConfig::tiny(), OptFlags::none(), 5);
    let mut opt = Tgat::new(&c_opt, ModelConfig::tiny(), OptFlags::all(), 5);
    plain.set_training(false);
    opt.set_training(false);
    let _guard = no_grad();
    // Several consecutive batches: later ones exercise warm caches.
    for (i, start) in [(0usize, 0usize), (1, 80), (2, 160), (3, 160)] {
        let b = batch(&g, &spec, start..start + 80, i as u64);
        let (p1, n1) = plain.forward(&c_plain, &b);
        let (p2, n2) = opt.forward(&c_opt, &b);
        assert_logits_close(&p1.to_vec(), &p2.to_vec(), 1e-4, "pos batch");
        assert_logits_close(&n1.to_vec(), &n2.to_vec(), 1e-4, "neg batch");
    }
    let (hits, _) = c_opt.embed_cache().stats();
    assert!(hits > 0, "repeat batch produced no cache hits");
}

#[test]
fn tgn_dedup_preserves_training_forward() {
    let (g, spec) = tiny_wiki();
    let run = |opts: OptFlags| {
        let c = ctx(&g);
        let mut m = Tgn::new(&c, ModelConfig::tiny(), opts, 8);
        let mut out = Vec::new();
        for i in 0..3 {
            let b = batch(&g, &spec, i * 60..(i + 1) * 60, i as u64);
            let (p, _) = m.forward(&c, &b);
            out.extend(p.to_vec());
        }
        out
    };
    let plain = run(OptFlags::none());
    let dedup = run(OptFlags {
        dedup: true,
        ..OptFlags::none()
    });
    assert_logits_close(&plain, &dedup, 1e-3, "TGN dedup across batches");
}

#[test]
fn apan_time_precompute_preserves_inference() {
    let (g, spec) = tiny_wiki();
    let run = |opts: OptFlags| {
        let c = ctx(&g);
        let mut m = Apan::new(&c, ModelConfig::tiny(), opts, 4);
        m.set_training(false);
        let _guard = no_grad();
        let b = batch(&g, &spec, 50..120, 1);
        let (p, _) = m.forward(&c, &b);
        p.to_vec()
    };
    let plain = run(OptFlags::none());
    let pre = run(OptFlags {
        time_precompute: true,
        ..OptFlags::none()
    });
    assert_logits_close(&plain, &pre, 1e-4, "APAN time precompute");
}

#[test]
fn stale_cache_is_invalidated_by_clear() {
    // After a (simulated) parameter update, clear_caches must drop
    // memoized embeddings so results follow the new parameters.
    let (g, spec) = tiny_wiki();
    let c = ctx(&g);
    let mut m = Tgat::new(&c, ModelConfig::tiny(), OptFlags::all(), 6);
    m.set_training(false);
    let _guard = no_grad();
    let b = batch(&g, &spec, 0..60, 0);
    let _ = m.forward(&c, &b);
    assert!(!c.embed_cache().is_empty(), "cache should be populated");
    // Perturb a parameter in place.
    let p = &m.parameters()[0];
    p.with_data_mut(|d| d[0] += 1.0);
    c.clear_caches();
    assert!(c.embed_cache().is_empty(), "clear_caches must flush");
    let (p2, _) = m.forward(&c, &b);
    assert!(p2.to_vec().iter().all(|v| v.is_finite()));
}

#[test]
fn preload_pinned_matches_pageable_results() {
    // Data movement path must not change values.
    let (g, spec) = tiny_wiki();
    let run = |opts: OptFlags| {
        let c = ctx(&g);
        let mut m = Tgat::new(&c, ModelConfig::tiny(), opts, 9);
        let b = batch(&g, &spec, 30..90, 3);
        let (p, _) = m.forward(&c, &b);
        p.to_vec()
    };
    let plain = run(OptFlags::none());
    let pinned = run(OptFlags::preload_only());
    assert_logits_close(&plain, &pinned, 1e-5, "preload path");
}

/// Trains `model` for six steps (training forwards never use the
/// redundancy operators, so every `opts` sees the same parameters),
/// then returns the bits of one inference batch's logits.
fn logits_after_training(model: &mut dyn TemporalModel, c: &TContext) -> Vec<u32> {
    let (g, spec) = tiny_wiki();
    let mut opt = Adam::new(model.parameters(), 1e-2);
    for i in 0..6 {
        let b = batch(&g, &spec, i * 50..(i + 1) * 50, i as u64);
        opt.zero_grad();
        let (pos, neg) = model.forward(c, &b);
        let mut targets = vec![1.0f32; pos.dim(0)];
        targets.extend(vec![0.0; neg.dim(0)]);
        let n = targets.len();
        bce_with_logits(&cat(&[pos, neg], 0), &Tensor::from_vec(targets, [n])).backward();
        opt.step();
        c.clear_caches();
    }
    model.set_training(false);
    let _guard = no_grad();
    let b = batch(&g, &spec, 300..380, 9);
    let (pos, neg) = model.forward(c, &b);
    pos.to_vec().iter().chain(&neg.to_vec()).map(|v| v.to_bits()).collect()
}

#[test]
fn time_precompute_is_bitwise_neutral_after_training() {
    // Every attention layer (and TGN's memory updater) owns a trainable
    // time encoder. Once training has pulled them apart, a Φ(Δt) row
    // may only ever be served to the encoder that computed it: the
    // operator must not change one bit of the logits. (Untrained
    // encoders are identical, which hides any sharing between them.)
    //
    // APAN and JODIE run on the head block alone, so for them every
    // operator must be neutral: `tglite-opt` against `tglite`.
    let (g, _) = tiny_wiki();
    let without = OptFlags { time_precompute: false, ..OptFlags::all() };
    for (model, reference) in
        [("tgat", without), ("tgn", without), ("apan", OptFlags::preload_only()), ("jodie", OptFlags::preload_only())]
    {
        let run = |opts: OptFlags| {
            let c = ctx(&g);
            let mut m: Box<dyn TemporalModel> = match model {
                "tgat" => Box::new(Tgat::new(&c, ModelConfig::tiny(), opts, 5)),
                "tgn" => Box::new(Tgn::new(&c, ModelConfig::tiny(), opts, 5)),
                "apan" => Box::new(Apan::new(&c, ModelConfig::tiny(), opts, 5)),
                _ => Box::new(Jodie::new(&c, ModelConfig::tiny(), opts, 5)),
            };
            logits_after_training(m.as_mut(), &c)
        };
        assert_eq!(run(OptFlags::all()), run(reference), "{model}: an operator moved the logits");
    }
}
