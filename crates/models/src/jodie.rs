//! JODIE: RNN memory with time-projected embeddings (paper Listing 5).

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::SeedableRng;
use tgl_graph::NodeId;
use tgl_tensor::nn::{Linear, Module, RnnCell};
use tgl_tensor::ops::cat;
use tgl_tensor::{no_grad, Tensor};
use tglite::nn::TimeEncode;
use tglite::plan::{self, SamplingSpec};
use tglite::{op, TBatch, TBlock, TContext};

use crate::{score_embeddings, EdgePredictor, ModelConfig, OptFlags, TemporalModel};

/// The JODIE model: "does not perform neighbor sampling or
/// aggregation, but rather mainly updates node memory using RNNs"
/// (paper Appendix A). Embeddings are the RNN-updated memory passed
/// through JODIE's time-projection `(1 + Δt·w) ⊙ mem`, merged with
/// projected node features.
pub struct Jodie {
    rnn: RnnCell,
    time_encoder: TimeEncode,
    feat_linear: Linear,
    projector: Tensor, // learnable w for (1 + Δt·w)
    predictor: EdgePredictor,
    /// Head block only: JODIE samples nothing.
    spec: SamplingSpec,
    training: bool,
    mail_dim: usize,
}

impl Jodie {
    /// Builds JODIE, attaching memory and a 1-slot mailbox to the
    /// context's graph.
    ///
    /// Note: "no further optimization operators are applied for the
    /// JODIE model due to its simplicity" (paper §5.2): of `opts` only
    /// `preload_pinned` applies, to the head block's node features.
    pub fn new(ctx: &TContext, cfg: ModelConfig, opts: OptFlags, seed: u64) -> Jodie {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let d_node = g.node_feat_dim();
        let d_edge = g.edge_feat_dim();
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(1, mail_dim, device);
        Jodie {
            rnn: RnnCell::new(mail_dim + cfg.time_dim, mem_dim, &mut rng).to_device(device),
            time_encoder: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            feat_linear: Linear::new(d_node, mem_dim, &mut rng).to_device(device),
            projector: Tensor::zeros([mem_dim])
                .to(device)
                .requires_grad(true),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            spec: crate::sampling_spec(&ModelConfig { n_layers: 0, ..cfg }, &opts, seed),
            training: true,
            mail_dim,
        }
    }

    /// RNN memory update from the latest mailbox message
    /// (paper Listing 5 `update_memory`). Returns in-graph rows plus
    /// the mail delivery times used.
    fn update_memory(&self, ctx: &TContext, nodes: &[NodeId]) -> (Tensor, Vec<f64>) {
        let g = ctx.graph();
        let mem = g.memory();
        let mb = g.mailbox();
        let device = ctx.device();
        let mem_rows = mem.rows(nodes).to(device);
        let mem_ts = mem.times(nodes);
        let (mail, mail_ts) = mb.latest(nodes);
        let mail = mail.to(device);
        let deltas: Vec<f32> = mail_ts
            .iter()
            .zip(&mem_ts)
            .map(|(&a, &b)| (a - b) as f32)
            .collect();
        let tfeat = self.time_encoder.forward(&deltas);
        let updated = self.rnn.forward(&[&mail, &tfeat], &mem_rows);
        (updated, mail_ts)
    }

    /// JODIE's embedding projection of `blk`'s destinations: `(1 + Δt·w)
    /// ⊙ mem ⊕ W_f x`, with Δt the gap between the query time and the
    /// node's last update.
    fn project(&self, ctx: &TContext, mem: &Tensor, blk: &TBlock) -> Tensor {
        let g = ctx.graph();
        let (nodes, times) = (blk.dst_nodes(), blk.dst_times());
        let mem_ts = g.memory().times(&nodes);
        // JODIE normalizes the projection delta by the stream's time
        // scale so (1 + Δt·w) stays well-conditioned across datasets.
        let norm = (g.max_time() as f32).max(1.0);
        let deltas: Vec<f32> = times
            .iter()
            .zip(&mem_ts)
            .map(|(&q, &u)| (q - u) as f32 / norm)
            .collect();
        let n = nodes.len();
        let dt = Tensor::from_vec(deltas, [n, 1]).to(ctx.device());
        let scale = dt.mul(&self.projector).add_scalar(1.0); // [n, mem_dim]
        let nfeat = self.feat_linear.forward(&blk.dstfeat());
        // (1 + Δt·w) ⊙ mem + W_f x fused into one kernel.
        nfeat.addcmul(mem, &scale, 1.0)
    }

    /// Scores candidate `(src, dst)` pairs at the given times *without*
    /// advancing memory/mailbox state — the inference API a
    /// recommender uses to rank items for a user "as of now".
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn score_pairs(
        &self,
        ctx: &TContext,
        srcs: &[NodeId],
        dsts: &[NodeId],
        times: &[f64],
    ) -> Vec<f32> {
        assert_eq!(srcs.len(), dsts.len(), "pair slices must match");
        assert_eq!(srcs.len(), times.len(), "times must match pairs");
        let _guard = no_grad();
        let mut nodes: Vec<NodeId> = Vec::with_capacity(2 * srcs.len());
        nodes.extend_from_slice(srcs);
        nodes.extend_from_slice(dsts);
        let mut ts: Vec<f64> = Vec::with_capacity(nodes.len());
        ts.extend_from_slice(times);
        ts.extend_from_slice(times);
        let (mem_new, _) = self.update_memory(ctx, &nodes);
        let embs = self.project(ctx, &mem_new, &TBlock::new(ctx, 0, nodes, ts));
        let n = srcs.len();
        let s = embs.narrow_rows(0, n);
        let d = embs.narrow_rows(n, n);
        self.predictor.forward(&s, &d).to_vec()
    }

    /// Persists memory for the batch endpoints and stores raw messages
    /// `[counterpart memory ‖ edge features]` (paper Listing 5
    /// `save_raw_msgs`).
    fn save_state(&self, ctx: &TContext, batch: &TBatch) {
        let _phase = tglite::prof::scope("memory");
        let _guard = no_grad();
        let g = ctx.graph();
        let blk = batch.block_adj(ctx);
        op::coalesce(&blk, op::CoalesceBy::Latest);
        let uniq = blk.dst_nodes();
        let times = blk.src_times();
        let (mem_new, _) = self.update_memory(ctx, &uniq);
        g.memory().store(&uniq, &mem_new, &times);
        let counterpart = g.memory().rows(&blk.src_nodes()).to(ctx.device());
        let mail = cat(&[counterpart, blk.efeat()], 1);
        debug_assert_eq!(mail.dim(1), self.mail_dim);
        g.mailbox().store(&uniq, &mail, &times);
    }
}

impl TemporalModel for Jodie {
    fn name(&self) -> &'static str {
        "JODIE"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.rnn.parameters();
        p.extend(self.time_encoder.parameters());
        p.extend(self.feat_linear.parameters());
        p.push(self.projector.clone());
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn sampling_spec(&self) -> Option<SamplingSpec> {
        Some(self.spec.clone())
    }

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        // Nodes: [srcs | dsts | negs] at their edge times.
        let head = plan::build_chain(ctx, batch, &self.spec, false);
        let memory_phase = tglite::prof::scope("memory");
        let (mem_new, _) = self.update_memory(ctx, &head.dst_nodes());
        drop(memory_phase);
        let embs = self.project(ctx, &mem_new, &head);
        self.save_state(ctx, batch);
        score_embeddings(&self.predictor, &embs, batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_with_negs, ctx_for, small_graph, train_steps};

    #[test]
    fn forward_shapes() {
        let g = small_graph(20);
        let ctx = ctx_for(&g);
        let mut model = Jodie::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..15, 0);
        let (pos, neg) = model.forward(&ctx, &batch);
        assert_eq!(pos.dims(), &[15]);
        assert_eq!(neg.dims(), &[15]);
    }

    #[test]
    fn no_sampling_is_performed() {
        // JODIE touches no T-CSR sampling in its forward pass; this is
        // structural (it only reads memory/mailbox and features), so
        // just assert the forward works on a graph whose CSR was never
        // built and state advances.
        let g = small_graph(21);
        let ctx = ctx_for(&g);
        let mut model = Jodie::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..10, 0);
        model.forward(&ctx, &batch);
        let times = g.memory().times(batch.srcs());
        assert!(times.iter().any(|&t| t > 0.0));
    }

    #[test]
    fn training_reduces_loss() {
        let g = small_graph(22);
        let ctx = ctx_for(&g);
        let mut model = Jodie::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 3);
        let (first, last) = train_steps(&mut model, &ctx, 15);
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn memory_state_affects_embeddings() {
        let g = small_graph(23);
        let ctx = ctx_for(&g);
        let mut model = Jodie::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..10, 0);
        let (p1, _) = model.forward(&ctx, &batch);
        // Second forward on the same batch sees updated memory/mailbox
        // and must differ.
        let (p2, _) = model.forward(&ctx, &batch);
        assert_ne!(p1.to_vec(), p2.to_vec());
    }
}
