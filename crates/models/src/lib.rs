//! TGNN model implementations on TGLite abstractions.
//!
//! The paper demonstrates TGLite's expressiveness by implementing four
//! existing continuous-time TGNN models (§4, Appendix A):
//!
//! * [`Tgat`] — time-encoding + multi-head temporal self-attention over
//!   sampled neighborhoods (Xu et al., ICLR'20);
//! * [`Tgn`] — TGAT-style attention on top of GRU node memory updated
//!   from a mailbox (Rossi et al., 2020);
//! * [`Jodie`] — RNN node-memory updates with time-projected
//!   embeddings, no neighbor aggregation (Kumar et al., KDD'19);
//! * [`Apan`] — attention over a per-node mailbox, then push-style
//!   mail propagation to sampled neighbors (Wang et al., SIGMOD'21).
//!
//! All four train for temporal link prediction: given a batch of
//! positive edges and sampled negative destinations, produce positive
//! and negative logits scored by a shared [`EdgePredictor`].
//!
//! Optimization operators are toggled per the paper's evaluation
//! settings via [`OptFlags`]: `none()` (plain), `preload_only()`
//! (the paper's "TGLite" setting), `all()` ("TGLite+opt").

#![forbid(unsafe_code)]

mod apan;
mod attn;
mod jodie;
mod predictor;
mod tgat;
mod tgn;

pub use apan::Apan;
pub use attn::TemporalAttnLayer;
pub use jodie::Jodie;
pub use predictor::EdgePredictor;
pub use tgat::Tgat;
pub use tgn::Tgn;

use tglite::tensor::Tensor;
use tglite::{TBatch, TContext};

/// Which semantic-preserving optimization operators a model applies
/// (paper §5.2: "TGLite" = `preload()` only; "TGLite+opt" = all
/// applicable operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Apply `op::preload` with the pinned-memory pool.
    pub preload_pinned: bool,
    /// Apply `op::dedup` on every block before sampling.
    pub dedup: bool,
    /// Apply `op::cache` (inference only; ignored while training).
    pub cache: bool,
    /// Use the precomputed-time operators (inference only).
    pub time_precompute: bool,
}

impl OptFlags {
    /// No optimization operators at all (used by ablations).
    pub fn none() -> OptFlags {
        OptFlags {
            preload_pinned: false,
            dedup: false,
            cache: false,
            time_precompute: false,
        }
    }

    /// Only `preload()` — the paper's plain "TGLite" setting.
    pub fn preload_only() -> OptFlags {
        OptFlags {
            preload_pinned: true,
            ..OptFlags::none()
        }
    }

    /// All applicable operators — the paper's "TGLite+opt" setting.
    pub fn all() -> OptFlags {
        OptFlags {
            preload_pinned: true,
            dedup: true,
            cache: true,
            time_precompute: true,
        }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::preload_only()
    }
}

/// Shared hyperparameters (paper §5.1 defaults, dimensioned by the
/// dataset's feature widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Embedding width.
    pub emb_dim: usize,
    /// Time-encoding width.
    pub time_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Message-passing layers (TGAT/TGN; paper: 2).
    pub n_layers: usize,
    /// Sampled neighbors per destination (paper: 10).
    pub n_neighbors: usize,
    /// Mailbox slots per node (APAN; paper: 10).
    pub mailbox_slots: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            emb_dim: 100,
            time_dim: 100,
            heads: 2,
            n_layers: 2,
            n_neighbors: 10,
            mailbox_slots: 10,
        }
    }
}

impl ModelConfig {
    /// A small configuration for fast tests.
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            emb_dim: 8,
            time_dim: 4,
            heads: 2,
            n_layers: 2,
            n_neighbors: 3,
            mailbox_slots: 2,
        }
    }
}

/// The chain-construction recipe the models share: `n_layers` sampled
/// blocks (APAN and JODIE pass 0: the head block alone) of up to
/// `n_neighbors` most-recent neighbors each, sampled with an engine
/// seeded like the parameters.
fn sampling_spec(cfg: &ModelConfig, opts: &OptFlags, seed: u64) -> tglite::plan::SamplingSpec {
    use tgl_sampler::{SamplingStrategy, TemporalSampler};
    tglite::plan::SamplingSpec {
        n_layers: cfg.n_layers,
        dedup: opts.dedup,
        preload_pinned: opts.preload_pinned,
        sampler: TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent).with_seed(seed),
    }
}

/// A trainable temporal-graph model for link prediction.
pub trait TemporalModel {
    /// Model name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// All trainable parameters.
    fn parameters(&self) -> Vec<Tensor>;

    /// Named parameter groups for per-layer introspection
    /// (`layer0.w_q`, `predictor`, ...). The default is one whole-model
    /// group; models override so the insight layer can attribute
    /// gradient/weight/update stats to a specific component.
    fn param_groups(&self) -> Vec<(String, Vec<Tensor>)> {
        vec![("model".to_string(), self.parameters())]
    }

    /// Switches training/inference mode (controls which optimization
    /// operators apply; cache/time-precompute are inference-only).
    fn set_training(&mut self, training: bool);

    /// Computes `(positive_logits, negative_logits)` for a batch whose
    /// negatives have been set. Memory-based models also update their
    /// node state as a side effect (raw-message mailbox discipline).
    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor);

    /// The sampling/staging recipe this model hands
    /// [`tglite::plan::build_chain`] at the top of `forward`, published
    /// only while chain construction is a pure function of the batch
    /// (no parameter- or state-dependent step): the pipelined trainer
    /// then builds batch N+1's chain from it on a sampler stage. A
    /// memory model qualifies as long as its memory/mailbox reads
    /// happen in `forward`, after the chain is built. `None` (the
    /// default; TGAT in inference with `cache` on) limits the sampler
    /// stage to negative draws.
    fn sampling_spec(&self) -> Option<tglite::plan::SamplingSpec> {
        None
    }

    /// Resets model-held graph state (memory/mailbox) for a new epoch.
    fn reset_state(&self, ctx: &TContext) {
        ctx.graph().reset_state();
        ctx.clear_caches();
    }

    /// Checkpoints all parameters to `path` (positional format; see
    /// `tgl_tensor::save_params`). TGL's scripts checkpoint the best
    /// epoch and reload before test inference — this enables the same
    /// workflow.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        tglite::tensor::save_params(&self.parameters(), path)
    }

    /// Restores parameters from a checkpoint written by
    /// [`TemporalModel::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on shape/count mismatch or any I/O error.
    fn load(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        tglite::tensor::load_params(&self.parameters(), path)
    }
}

/// Splits a head-block output with rows `[srcs | dsts | negs]` into the
/// three embedding groups and scores them, the split included in the
/// `predictor` phase (its three copies and their backward are the
/// predictor's cost, not a `(no-phase)` row's).
pub(crate) fn score_embeddings(
    predictor: &EdgePredictor,
    embs: &Tensor,
    batch_len: usize,
) -> (Tensor, Tensor) {
    let _phase = tglite::prof::scope("predictor");
    let _scope = tgl_obs::insight::act_scope("predictor");
    let src = embs.narrow_rows(0, batch_len);
    let dst = embs.narrow_rows(batch_len, batch_len);
    let neg = embs.narrow_rows(2 * batch_len, batch_len);
    (predictor.logits(&src, &dst), predictor.logits(&src, &neg))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for model tests.

    use std::sync::Arc;

    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::{Rng, SeedableRng};
    use tglite::tensor::Tensor;
    use tglite::{TBatch, TContext, TGraph};

    /// A small random bipartite-ish CTDG with features, suitable for
    /// smoke-training all four models.
    pub fn small_graph(seed: u64) -> Arc<TGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_nodes = 20;
        let n_edges = 120;
        let mut edges = Vec::with_capacity(n_edges);
        for i in 0..n_edges {
            let s = rng.gen_range(0..10u32);
            let d = rng.gen_range(10..20u32);
            edges.push((s, d, i as f64 + 1.0));
        }
        let g = Arc::new(TGraph::from_edges(n_nodes, edges));
        g.set_node_feats(Tensor::rand_uniform([n_nodes, 6], -1.0, 1.0, &mut rng));
        g.set_edge_feats(Tensor::rand_uniform([n_edges, 4], -1.0, 1.0, &mut rng));
        g
    }

    pub fn ctx_for(g: &Arc<TGraph>) -> TContext {
        TContext::new(Arc::clone(g))
    }

    pub fn batch_with_negs(g: &Arc<TGraph>, range: std::ops::Range<usize>, seed: u64) -> TBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = TBatch::new(Arc::clone(g), range);
        let negs = (0..b.len()).map(|_| rng.gen_range(10..20u32)).collect();
        b.set_negatives(negs);
        b
    }

    /// Smoke-trains a model for a few steps and asserts the loss
    /// decreases (or at least stays finite and the graph is exercised).
    pub fn train_steps<M: crate::TemporalModel>(
        model: &mut M,
        ctx: &TContext,
        steps: usize,
    ) -> (f32, f32) {
        use tglite::tensor::optim::Adam;
        let mut opt = Adam::new(model.parameters(), 1e-2);
        let g = Arc::clone(ctx.graph());
        let batch_size = 30;
        let mut first = f32::NAN;
        let mut last;
        let mut step = 0;
        'outer: loop {
            model.reset_state(ctx);
            for start in (0..g.num_edges() - batch_size).step_by(batch_size) {
                let batch = batch_with_negs(&g, start..start + batch_size, step as u64);
                opt.zero_grad();
                let (pos, neg) = model.forward(ctx, &batch);
                let logits = tglite::tensor::ops::cat(&[pos, neg], 0);
                let n = logits.dim(0);
                let mut targets = vec![1.0; n / 2];
                targets.extend(vec![0.0; n - n / 2]);
                let loss =
                    tglite::tensor::bce_with_logits(&logits, &Tensor::from_vec(targets, [n]));
                let l = loss.item();
                assert!(l.is_finite(), "loss must stay finite, got {l}");
                if step == 0 {
                    first = l;
                }
                last = l;
                loss.backward();
                opt.step();
                step += 1;
                if step >= steps {
                    break 'outer;
                }
            }
        }
        (first, last)
    }
}
