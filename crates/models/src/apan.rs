//! APAN: asynchronous propagation attention network (paper Listing 6).

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::SeedableRng;
use tgl_graph::NodeId;
use tgl_tensor::nn::{GruCell, Linear, Mlp, Module};
use tgl_tensor::ops::{cat, segment_dot, segment_softmax, segment_weighted_sum};
use tgl_tensor::{no_grad, Tensor};
use tglite::nn::TimeEncode;
use tglite::plan::{self, SamplingSpec};
use tglite::{op, TBatch, TBlock, TContext, TSampler};

use crate::{score_embeddings, EdgePredictor, ModelConfig, OptFlags, TemporalModel};

/// The APAN model. "While other models first sample the neighbors and
/// then generate embeddings, APAN reorders and swaps this around by
/// first performing embedding generation using stored messages, then
/// propagating messages to neighbors" (paper Appendix A).
///
/// * Embeddings: attention over each node's mailbox slots (no
///   neighborhood sampling on the embedding path).
/// * Memory: GRU update from the attended mail summary.
/// * Propagation: mails created from endpoint memories are pushed to
///   sampled 1-hop neighbors via [`op::propagate`] + [`op::src_scatter`].
pub struct Apan {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    ffn: Mlp,
    time_encoder: TimeEncode,
    memory_updater: GruCell,
    /// Head block only: the embedding path samples nothing.
    spec: SamplingSpec,
    /// Mail delivery's 1-hop sampler (runs inline, after the memory
    /// update, in `propagate_mails`).
    sampler: TSampler,
    predictor: EdgePredictor,
    opts: OptFlags,
    training: bool,
    mail_dim: usize,
}

impl Apan {
    /// Builds APAN, attaching memory and a `mailbox_slots`-slot mailbox
    /// (paper §5.1: mailbox of size 10) to the context's graph.
    pub fn new(ctx: &TContext, cfg: ModelConfig, opts: OptFlags, seed: u64) -> Apan {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let d_node = g.node_feat_dim();
        let d_edge = g.edge_feat_dim();
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = 2 * mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(cfg.mailbox_slots, mail_dim, device);
        let hd = cfg.emb_dim;
        let spec = crate::sampling_spec(&ModelConfig { n_layers: 0, ..cfg }, &opts, seed);
        Apan {
            w_q: Linear::new(d_node + cfg.time_dim, hd, &mut rng).to_device(device),
            w_k: Linear::new(mail_dim + cfg.time_dim, hd, &mut rng).to_device(device),
            w_v: Linear::new(mail_dim + cfg.time_dim, hd, &mut rng).to_device(device),
            ffn: Mlp::new(hd + d_node, cfg.emb_dim, cfg.emb_dim, &mut rng).to_device(device),
            time_encoder: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            memory_updater: GruCell::new(hd, mem_dim, &mut rng).to_device(device),
            sampler: TSampler::from_engine(spec.sampler.clone()),
            spec,
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            opts,
            training: true,
            mail_dim,
        }
    }

    /// Attention over mailbox slots: one embedding row per destination
    /// of `head`, plus the attended mail summary used for the memory
    /// update.
    fn attention(&self, ctx: &TContext, head: &TBlock) -> (Tensor, Tensor) {
        let g = ctx.graph();
        let device = ctx.device();
        let (nodes, times) = (head.dst_nodes(), head.dst_times());
        let n = nodes.len();
        let (mails, mail_ts, owners) = g.mailbox().all_slots(&nodes);
        let mails = mails.to(device);
        let deltas: Vec<f32> = owners
            .iter()
            .zip(&mail_ts)
            .map(|(&o, &mt)| (times[o] - mt) as f32)
            .collect();
        let deltas = Tensor::from_vec(deltas, [owners.len()]).to(device);
        let use_pre = self.opts.time_precompute && !self.training;
        let mail_t = if use_pre {
            op::precomputed_times(ctx, &self.time_encoder, &deltas)
        } else {
            self.time_encoder.encode(&deltas)
        };
        let zeros_t = if use_pre {
            op::precomputed_zeros(ctx, &self.time_encoder, n)
        } else {
            self.time_encoder.encode_zeros(n)
        };
        let nfeat = head.dstfeat();
        let q = self.w_q.forward_parts(&[&nfeat, &zeros_t]);
        let kv_in = [&mails, &mail_t];
        let k = self.w_k.forward_parts(&kv_in);
        let v = self.w_v.forward_parts(&kv_in);
        let scale = 1.0 / (q.dim(1) as f32).sqrt();
        let logits = segment_dot(&q, &k, &owners, 1, scale); // [slots, 1]
        let attn = segment_softmax(&logits, &owners, n);
        let summary = segment_weighted_sum(&v, &attn, &owners, n); // [n, hd]
        let emb = self.ffn.forward_parts(&[&summary, &nfeat]);
        (emb, summary)
    }

    /// Creates this batch's mails and pushes them to sampled 1-hop
    /// neighbors (paper Listing 6 `create_mails`/`send_mails`).
    fn propagate_mails(&self, ctx: &TContext, batch: &TBatch) {
        let _guard = no_grad();
        let g = ctx.graph();
        let device = ctx.device();
        let n = batch.len();
        if n == 0 {
            return;
        }
        // Endpoint nodes at their interaction times.
        let mut nodes: Vec<NodeId> = Vec::with_capacity(2 * n);
        nodes.extend_from_slice(batch.srcs());
        nodes.extend_from_slice(batch.dsts());
        let mut times: Vec<f64> = Vec::with_capacity(2 * n);
        times.extend_from_slice(batch.times());
        times.extend_from_slice(batch.times());

        let mem = g.memory();
        let mem_src = mem.rows(batch.srcs()).to(device);
        let mem_dst = mem.rows(batch.dsts()).to(device);
        let efeat = g.edge_feat_rows(&batch.eids()).to(device);
        let mail_s = cat(&[mem_src.clone(), mem_dst.clone(), efeat.clone()], 1);
        let mail_d = cat(&[mem_dst, mem_src, efeat], 1);
        let mails = cat(&[mail_s, mail_d], 0); // [2n, mail_dim]
        debug_assert_eq!(mails.dim(1), self.mail_dim);

        // Deliver to the endpoints themselves...
        g.mailbox().store(&nodes, &mails, &times);

        // ...and propagate to sampled 1-hop neighbors (push-style).
        let blk = TBlock::new(ctx, 0, nodes, times.clone());
        self.sampler.sample(&blk);
        op::propagate(&blk, |b| {
            if b.num_edges() == 0 {
                return;
            }
            let per_edge_mail = mails.index_select(&b.dst_index());
            let (uniq, scattered) = op::src_scatter(b, &per_edge_mail, op::ReduceOp::Mean);
            let dst_times = b.dst_times();
            let t_mail = Tensor::from_vec(
                b.dst_index().iter().map(|&d| dst_times[d] as f32).collect(),
                [b.num_edges(), 1],
            )
            .to(b.device());
            let (_, t_scattered) = op::src_scatter(b, &t_mail, op::ReduceOp::Mean);
            let t_vals: Vec<f64> = t_scattered.to_vec().iter().map(|&v| v as f64).collect();
            b.graph().mailbox().store(&uniq, &scattered, &t_vals);
        });
    }

    /// Persists GRU-updated memory for the batch endpoints.
    fn persist_memory(&self, ctx: &TContext, batch: &TBatch, summaries: &Tensor) {
        let _guard = no_grad();
        let g = ctx.graph();
        // Unique endpoints in first-appearance order, each keeping the
        // row of its *latest* occurrence (the later row on a tie).
        let endpoints: Vec<NodeId> = batch.srcs().iter().chain(batch.dsts()).copied().collect();
        let idx = op::node_index(g.num_nodes(), &endpoints);
        let mut rows = idx.first.clone();
        let mut times: Vec<f64> = rows.iter().map(|&r| batch.times()[r % batch.len()]).collect();
        for (i, &slot) in idx.inverse.iter().enumerate() {
            let t = batch.times()[i % batch.len()];
            if t >= times[slot] {
                (rows[slot], times[slot]) = (i, t);
            }
        }
        let summary_rows = summaries.index_select(&rows);
        let mem_rows = g.memory().rows(&idx.nodes).to(ctx.device());
        let updated = self.memory_updater.forward(&[&summary_rows], &mem_rows);
        g.memory().store(&idx.nodes, &updated, &times);
    }
}

impl TemporalModel for Apan {
    fn name(&self) -> &'static str {
        "APAN"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w_q.parameters();
        p.extend(self.w_k.parameters());
        p.extend(self.w_v.parameters());
        p.extend(self.ffn.parameters());
        p.extend(self.time_encoder.parameters());
        p.extend(self.memory_updater.parameters());
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
        let head = plan::build_chain(ctx, batch, &self.spec, false);
        // 1. Embedding generation from stored messages.
        let (embs, summaries) = self.attention(ctx, &head);
        // 2. Memory update for the positive endpoints (first 2n rows of
        //    the summary tensor).
        let n = batch.len();
        let memory_phase = tgl_obs::span("memory");
        self.persist_memory(ctx, batch, &summaries.narrow_rows(0, 2 * n));
        // 3. Mail creation + asynchronous propagation to neighbors.
        self.propagate_mails(ctx, batch);
        drop(memory_phase);
        score_embeddings(&self.predictor, &embs, batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_with_negs, ctx_for, small_graph, train_steps};

    #[test]
    fn forward_shapes() {
        let g = small_graph(30);
        let ctx = ctx_for(&g);
        let mut model = Apan::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..12, 0);
        let (pos, neg) = model.forward(&ctx, &batch);
        assert_eq!(pos.dims(), &[12]);
        assert_eq!(neg.dims(), &[12]);
    }

    #[test]
    fn mails_propagate_to_neighbors() {
        let g = small_graph(31);
        let ctx = ctx_for(&g);
        let mut model = Apan::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        // Process an early batch; later nodes' mailboxes get mails via
        // propagation even if they were not endpoints in the batch.
        let batch = batch_with_negs(&g, 40..60, 0);
        model.forward(&ctx, &batch);
        // At least some node beyond the batch endpoints got mail.
        let endpoints: std::collections::HashSet<u32> = batch
            .srcs()
            .iter()
            .chain(batch.dsts())
            .copied()
            .collect();
        let all: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|n| !endpoints.contains(n))
            .collect();
        let (_, times, _) = g.mailbox().all_slots(&all);
        assert!(
            times.iter().any(|&t| t > 0.0),
            "no mail propagated to non-endpoint neighbors"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let g = small_graph(32);
        let ctx = ctx_for(&g);
        let mut model = Apan::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 4);
        let (first, last) = train_steps(&mut model, &ctx, 15);
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn memory_updates_for_endpoints() {
        let g = small_graph(33);
        let ctx = ctx_for(&g);
        let mut model = Apan::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..10, 0);
        model.forward(&ctx, &batch);
        let times = g.memory().times(batch.dsts());
        assert!(times.iter().all(|&t| t > 0.0), "endpoint memory not updated");
    }
}
