//! TGAT: temporal graph attention network (paper Listing 2).

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::SeedableRng;
use tgl_tensor::nn::Module;
use tgl_tensor::Tensor;
use tglite::plan::{self, SamplingSpec};
use tglite::{op, TBatch, TContext};

use crate::{score_embeddings, EdgePredictor, ModelConfig, OptFlags, TemporalAttnLayer, TemporalModel};

/// The TGAT model: `n_layers` of temporal self-attention over recent
/// sampled neighborhoods, with learnable time encoding.
///
/// This mirrors the paper's Listing 2: build the block chain
/// iteratively (`block` → `dedup` → `cache` → `sample` per layer) and
/// `preload` features ([`plan::build_chain`]), seed the tail with raw
/// features, then `aggregate` the attention layers over the chain.
pub struct Tgat {
    layers: Vec<TemporalAttnLayer>,
    spec: SamplingSpec,
    predictor: EdgePredictor,
    opts: OptFlags,
    cfg: ModelConfig,
    training: bool,
}

impl Tgat {
    /// Builds TGAT for the context's graph (feature widths are read
    /// from the graph) with parameters on the context's device.
    pub fn new(ctx: &TContext, cfg: ModelConfig, opts: OptFlags, seed: u64) -> Tgat {
        let mut rng = StdRng::seed_from_u64(seed);
        let d_node = ctx.graph().node_feat_dim();
        let d_edge = ctx.graph().edge_feat_dim();
        let device = ctx.device();
        // Block layer index i: the deepest block (i = n_layers-1)
        // consumes raw node features; shallower blocks consume the
        // previous layer's emb_dim-wide output.
        let layers = (0..cfg.n_layers)
            .map(|i| {
                let dim_in = if i == cfg.n_layers - 1 { d_node } else { cfg.emb_dim };
                TemporalAttnLayer::new(dim_in, d_edge, cfg.time_dim, cfg.emb_dim, cfg.heads, &mut rng)
                    .to_device(device)
            })
            .collect();
        Tgat {
            layers,
            spec: crate::sampling_spec(&cfg, &opts, seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            opts,
            cfg,
            training: true,
        }
    }

    /// Whether chain construction runs `op::cache` (inference only).
    fn caching(&self) -> bool {
        self.opts.cache && !self.training
    }

    /// Computes time-aware embeddings for the batch's head block. The
    /// chain is the one the batch carries when the sampler stage
    /// prepared it, else built here (see [`plan::build_chain`]).
    pub fn embeddings(&self, ctx: &TContext, batch: &TBatch) -> Tensor {
        let head = plan::build_chain(ctx, batch, &self.spec, self.caching());
        let tail = head.tail();
        let _f = tgl_obs::span("feature_load").stage(tgl_obs::Stage::Transfer);
        tail.set_dstdata("h", tail.dstfeat());
        tail.set_srcdata("h", tail.srcfeat());
        drop(_f);
        let use_pre = self.opts.time_precompute && !self.training;
        op::aggregate(&head, "h", |blk| {
            let li = blk.layer().min(self.cfg.n_layers - 1);
            self.layers[li].forward(ctx, blk, use_pre)
        })
    }
}

impl TemporalModel for Tgat {
    fn name(&self) -> &'static str {
        "TGAT"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(|l| l.parameters()).collect();
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let embs = self.embeddings(ctx, batch);
        score_embeddings(&self.predictor, &embs, batch.len())
    }

    fn sampling_spec(&self) -> Option<SamplingSpec> {
        // `op::cache` reads the embedding cache, which earlier batches
        // of the same pass fill: such a chain cannot be built ahead.
        (!self.caching()).then(|| self.spec.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_with_negs, ctx_for, small_graph, train_steps};

    #[test]
    fn forward_shapes() {
        let g = small_graph(1);
        let ctx = ctx_for(&g);
        let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 50..70, 0);
        let (pos, neg) = model.forward(&ctx, &batch);
        assert_eq!(pos.dims(), &[20]);
        assert_eq!(neg.dims(), &[20]);
    }

    #[test]
    fn optimized_inference_matches_unoptimized() {
        // dedup/cache/time-precompute are semantic-preserving: the
        // same inference pass must produce identical logits.
        let g = small_graph(2);
        let ctx_plain = ctx_for(&g);
        let ctx_opt = ctx_for(&g);
        let mut plain = Tgat::new(&ctx_plain, ModelConfig::tiny(), OptFlags::none(), 7);
        let mut opt = Tgat::new(&ctx_opt, ModelConfig::tiny(), OptFlags::all(), 7);
        plain.set_training(false);
        opt.set_training(false);
        let batch = batch_with_negs(&g, 40..80, 3);
        let _guard = tglite::tensor::no_grad();
        let (p1, n1) = plain.forward(&ctx_plain, &batch);
        let (p2, n2) = opt.forward(&ctx_opt, &batch);
        for (a, b) in p1.to_vec().iter().zip(p2.to_vec()) {
            assert!((a - b).abs() < 1e-4, "pos logits drift: {a} vs {b}");
        }
        for (a, b) in n1.to_vec().iter().zip(n2.to_vec()) {
            assert!((a - b).abs() < 1e-4, "neg logits drift: {a} vs {b}");
        }
        // Second pass exercises cache hits and still matches.
        let (p1b, _) = plain.forward(&ctx_plain, &batch);
        let (p2b, _) = opt.forward(&ctx_opt, &batch);
        let (hits, _) = ctx_opt.embed_cache().stats();
        assert!(hits > 0, "expected cache hits on repeat inference");
        for (a, b) in p1b.to_vec().iter().zip(p2b.to_vec()) {
            assert!((a - b).abs() < 1e-4, "cached logits drift: {a} vs {b}");
        }
    }

    #[test]
    fn plan_driven_forward_is_bitwise_identical() {
        // A chain prepared ahead (pipelined training) must produce the
        // exact logits the inline chain construction produces, and so
        // must a second pass over the same batch, which finds the
        // prepared chain gone and builds inline.
        let g = small_graph(5);
        for opts in [OptFlags::none(), OptFlags::all()] {
            let ctx_a = ctx_for(&g);
            let ctx_b = ctx_for(&g);
            let mut inline = Tgat::new(&ctx_a, ModelConfig::tiny(), opts, 11);
            let mut planned = Tgat::new(&ctx_b, ModelConfig::tiny(), opts, 11);
            let batch = batch_with_negs(&g, 30..70, 2);
            let (p1, n1) = inline.forward(&ctx_a, &batch);
            let mut staged = batch.clone();
            let spec = planned.sampling_spec().expect("TGAT is plan-aware");
            let plan = tglite::plan::build_plan(&ctx_b, &staged, &spec);
            staged.set_plan(std::sync::Arc::new(plan));
            let (p2, n2) = planned.forward(&ctx_b, &staged);
            let bits = |t: &tglite::tensor::Tensor| -> Vec<u32> {
                t.to_vec().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&p1), bits(&p2), "pos logits drift (opts {opts:?})");
            assert_eq!(bits(&n1), bits(&n2), "neg logits drift (opts {opts:?})");
            let (p3, n3) = planned.forward(&ctx_b, &staged);
            assert_eq!((bits(&p2), bits(&n2)), (bits(&p3), bits(&n3)), "second forward drifts");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let g = small_graph(3);
        let ctx = ctx_for(&g);
        let mut model = Tgat::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 1);
        let (first, last) = train_steps(&mut model, &ctx, 12);
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn dedup_training_matches_plain_training_loss() {
        let g = small_graph(4);
        let run = |opts: OptFlags| {
            let ctx = ctx_for(&g);
            let mut model = Tgat::new(&ctx, ModelConfig::tiny(), opts, 9);
            train_steps(&mut model, &ctx, 5)
        };
        let (f1, l1) = run(OptFlags::none());
        let (f2, l2) = run(OptFlags {
            dedup: true,
            ..OptFlags::none()
        });
        assert!((f1 - f2).abs() < 1e-4, "first-step loss differs: {f1} vs {f2}");
        assert!((l1 - l2).abs() < 1e-3, "training trajectory diverged: {l1} vs {l2}");
    }
}
