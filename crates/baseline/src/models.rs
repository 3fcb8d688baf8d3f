//! TGL-style implementations of the four models.
//!
//! Same math and kernels as the `tgl-models` versions, but structured
//! the way TGL structures training: standalone [`Mfg`]s materialized
//! eagerly per layer (and retained for the batch), pageable
//! transfers, manual bookkeeping instead of block operators, and no
//! redundancy optimizations.

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::SeedableRng;
use tgl_graph::NodeId;
use tgl_models::{EdgePredictor, ModelConfig, TemporalModel};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::nn::{GruCell, Linear, Mlp, Module, RnnCell};
use tgl_tensor::ops::{
    cat, segment_dot, segment_mean, segment_softmax, segment_sum, segment_weighted_sum,
};
use tgl_tensor::{no_grad, Tensor};
use tglite::nn::TimeEncode;
use tglite::{TBatch, TContext};

use crate::Mfg;

/// Attention parameters shared by the baseline TGAT/TGN (same
/// structure as `tgl_models::TemporalAttnLayer`, applied to MFGs).
struct AttnParams {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    ffn: Mlp,
    te: TimeEncode,
    heads: usize,
    head_dim: usize,
}

impl AttnParams {
    fn new(
        dim_node: usize,
        dim_edge: usize,
        dim_time: usize,
        dim_out: usize,
        heads: usize,
        device: tgl_device::Device,
        rng: &mut StdRng,
    ) -> AttnParams {
        let head_dim = dim_out / heads;
        AttnParams {
            w_q: Linear::new(dim_node + dim_time, heads * head_dim, rng).to_device(device),
            w_k: Linear::new(dim_node + dim_edge + dim_time, heads * head_dim, rng)
                .to_device(device),
            w_v: Linear::new(dim_node + dim_edge + dim_time, heads * head_dim, rng)
                .to_device(device),
            ffn: Mlp::new(heads * head_dim + dim_node, dim_out, dim_out, rng).to_device(device),
            te: TimeEncode::new(dim_time, rng).to_device(device),
            heads,
            head_dim,
        }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.w_q.parameters();
        p.extend(self.w_k.parameters());
        p.extend(self.w_v.parameters());
        p.extend(self.ffn.parameters());
        p.extend(self.te.parameters());
        p
    }

    /// Same attention math as the TGLite layer, with manual segment
    /// bookkeeping over the MFG.
    fn forward(&self, mfg: &Mfg, h_dst: &Tensor, h_src: &Tensor) -> Tensor {
        let n_dst = mfg.num_dst();
        let n_edges = mfg.num_edges();
        let hd = self.heads * self.head_dim;
        let _t0 = tglite::prof::scope("time_zero");
        let tfeats = self.te.forward(&vec![0.0; n_dst]);
        drop(_t0);
        let q = {
            let _ta = tglite::prof::scope("attention");
            self.w_q.forward_parts(&[h_dst, &tfeats])
        };
        if n_edges == 0 {
            let _ta = tglite::prof::scope("attention");
            let r = Tensor::zeros_on([n_dst, hd], h_dst.device());
            return self.ffn.forward_parts(&[&r, h_dst]);
        }
        let _tn = tglite::prof::scope("time_nbrs");
        let nbr_t = self.te.forward(mfg.deltas());
        drop(_tn);
        let _ta = tglite::prof::scope("attention");
        let z = [h_src, mfg.edge_feat(), &nbr_t];
        let k = self.w_k.forward_parts(&z);
        let v = self.w_v.forward_parts(&z);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let logits = segment_dot(&q, &k, mfg.dst_index(), self.heads, scale);
        let attn = segment_softmax(&logits, mfg.dst_index(), n_dst);
        let r = segment_weighted_sum(&v, &attn, mfg.dst_index(), n_dst);
        self.ffn.forward_parts(&[&r, h_dst])
    }
}

/// Builds the per-layer MFG stack for `[srcs | dsts | negs]` and runs
/// the attention layers bottom-up, TGL-style. Every MFG stays alive in
/// `mfgs` until the whole batch completes.
fn mfg_stack(
    ctx: &TContext,
    sampler: &TemporalSampler,
    n_layers: usize,
    nodes: Vec<NodeId>,
    times: Vec<f64>,
) -> Vec<Mfg> {
    let g = ctx.graph();
    let device = ctx.device();
    let mut mfgs: Vec<Mfg> = Vec::with_capacity(n_layers);
    let (mut cur_nodes, mut cur_times) = (nodes, times);
    for _ in 0..n_layers {
        let mfg = Mfg::build(g, device, sampler, cur_nodes.clone(), cur_times.clone());
        let mut next_nodes = mfg.dst_nodes().to_vec();
        next_nodes.extend_from_slice(mfg.src_nodes());
        let mut next_times = mfg.dst_times().to_vec();
        // Source timestamps are the sampled edge times (exact).
        next_times.extend_from_slice(mfg.src_times());
        cur_nodes = next_nodes;
        cur_times = next_times;
        mfgs.push(mfg);
    }
    mfgs
}

fn run_attention_stack(layers: &[AttnParams], mfgs: &[Mfg], deep_h: Tensor) -> Tensor {
    // deep_h holds rows for the deepest MFG's [dst | src] nodes.
    let mut h = deep_h;
    for (i, mfg) in mfgs.iter().enumerate().rev() {
        let nd = mfg.num_dst();
        let h_dst = h.narrow_rows(0, nd);
        let h_src = h.narrow_rows(nd, h.dim(0) - nd);
        h = layers[i].forward(mfg, &h_dst, &h_src);
    }
    h
}

// ===================================================================
// TGAT
// ===================================================================

/// Baseline (TGL-style) TGAT.
pub struct BaselineTgat {
    layers: Vec<AttnParams>,
    sampler: TemporalSampler,
    predictor: EdgePredictor,
    cfg: ModelConfig,
}

impl BaselineTgat {
    /// Builds the baseline TGAT for the context's graph.
    pub fn new(ctx: &TContext, cfg: ModelConfig, seed: u64) -> BaselineTgat {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let (d_node, d_edge) = (g.node_feat_dim(), g.edge_feat_dim());
        let device = ctx.device();
        let layers = (0..cfg.n_layers)
            .map(|i| {
                let dim_in = if i == cfg.n_layers - 1 { d_node } else { cfg.emb_dim };
                AttnParams::new(dim_in, d_edge, cfg.time_dim, cfg.emb_dim, cfg.heads, device, &mut rng)
            })
            .collect();
        BaselineTgat {
            layers,
            sampler: TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent).with_seed(seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            cfg,
        }
    }
}

impl TemporalModel for BaselineTgat {
    fn name(&self) -> &'static str {
        "TGAT"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(|l| l.params()).collect();
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, _training: bool) {}

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let n = batch.len();
        let mut nodes = Vec::with_capacity(3 * n);
        nodes.extend_from_slice(batch.srcs());
        nodes.extend_from_slice(batch.dsts());
        nodes.extend_from_slice(batch.negatives());
        let mut times = Vec::with_capacity(nodes.len());
        for _ in 0..(nodes.len() / n.max(1)) {
            times.extend_from_slice(batch.times());
        }
        let mfgs = mfg_stack(ctx, &self.sampler, self.cfg.n_layers, nodes, times);
        let deepest = mfgs.last().expect("at least one layer");
        let deep_h = cat(&[deepest.dst_feat().clone(), deepest.src_feat().clone()], 0);
        let embs = run_attention_stack(&self.layers, &mfgs, deep_h);
        let src = embs.narrow_rows(0, n);
        let dst = embs.narrow_rows(n, n);
        let neg = embs.narrow_rows(2 * n, n);
        (
            self.predictor.forward(&src, &dst),
            self.predictor.forward(&src, &neg),
        )
    }
}

// ===================================================================
// TGN
// ===================================================================

/// Baseline (TGL-style) TGN: GRU memory + attention, with the manual
/// unique/latest bookkeeping of the paper's Listing 3.
pub struct BaselineTgn {
    layers: Vec<AttnParams>,
    memory_updater: GruCell,
    mem_te: TimeEncode,
    feat_linear: Linear,
    sampler: TemporalSampler,
    predictor: EdgePredictor,
    cfg: ModelConfig,
    mail_dim: usize,
}

impl BaselineTgn {
    /// Builds the baseline TGN, attaching memory + 1-slot mailbox.
    pub fn new(ctx: &TContext, cfg: ModelConfig, seed: u64) -> BaselineTgn {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let (d_node, d_edge) = (g.node_feat_dim(), g.edge_feat_dim());
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = 2 * mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(1, mail_dim, device);
        let layers = (0..cfg.n_layers)
            .map(|_| AttnParams::new(cfg.emb_dim, d_edge, cfg.time_dim, cfg.emb_dim, cfg.heads, device, &mut rng))
            .collect();
        BaselineTgn {
            layers,
            memory_updater: GruCell::new(mail_dim + cfg.time_dim, mem_dim, &mut rng).to_device(device),
            mem_te: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            feat_linear: Linear::new(d_node, mem_dim, &mut rng).to_device(device),
            sampler: TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent).with_seed(seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            cfg,
            mail_dim,
        }
    }

    fn update_memory(&self, ctx: &TContext, nodes: &[NodeId]) -> Tensor {
        let g = ctx.graph();
        let device = ctx.device();
        let mem = g.memory();
        let mem_rows = mem.rows(nodes).to(device);
        let mem_ts = mem.times(nodes);
        let (mail, mail_ts) = g.mailbox().latest(nodes);
        let mail = mail.to(device);
        let deltas: Vec<f32> = mail_ts
            .iter()
            .zip(&mem_ts)
            .map(|(&a, &b)| (a - b) as f32)
            .collect();
        let tfeat = self.mem_te.forward(&deltas);
        self.memory_updater.forward(&[&mail, &tfeat], &mem_rows)
    }

    /// The "complex code sequence ... to find the unique nodes and to
    /// select their latest messages" (paper Listing 3, region T),
    /// written out manually.
    fn unique_latest(batch: &TBatch) -> (Vec<NodeId>, Vec<NodeId>, Vec<f64>, Vec<u32>) {
        let mut latest: std::collections::HashMap<NodeId, (NodeId, f64, u32)> =
            std::collections::HashMap::new();
        for (i, ((&s, &d), &t)) in batch
            .srcs()
            .iter()
            .zip(batch.dsts())
            .zip(batch.times())
            .enumerate()
        {
            let eid = (batch.range().start + i) as u32;
            for (a, b) in [(s, d), (d, s)] {
                let e = latest.entry(a).or_insert((b, t, eid));
                if t >= e.1 {
                    *e = (b, t, eid);
                }
            }
        }
        let mut uniq: Vec<NodeId> = latest.keys().copied().collect();
        uniq.sort_unstable();
        let mut partners = Vec::with_capacity(uniq.len());
        let mut times = Vec::with_capacity(uniq.len());
        let mut eids = Vec::with_capacity(uniq.len());
        for &u in &uniq {
            let (p, t, e) = latest[&u];
            partners.push(p);
            times.push(t);
            eids.push(e);
        }
        (uniq, partners, times, eids)
    }

    fn save_state(&self, ctx: &TContext, batch: &TBatch) {
        let _guard = no_grad();
        let g = ctx.graph();
        let device = ctx.device();
        let (uniq, partners, times, eids) = Self::unique_latest(batch);
        let mem_new = self.update_memory(ctx, &uniq);
        g.memory().store(&uniq, &mem_new, &times);
        let own = g.memory().rows(&uniq).to(device);
        let other = g.memory().rows(&partners).to(device);
        let efeat = g.edge_feat_rows(&eids).to(device);
        let mail = cat(&[own, other, efeat], 1);
        debug_assert_eq!(mail.dim(1), self.mail_dim);
        g.mailbox().store(&uniq, &mail, &times);
    }
}

impl TemporalModel for BaselineTgn {
    fn name(&self) -> &'static str {
        "TGN"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(|l| l.params()).collect();
        p.extend(self.memory_updater.parameters());
        p.extend(self.mem_te.parameters());
        p.extend(self.feat_linear.parameters());
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, _training: bool) {}

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let n = batch.len();
        let mut nodes = Vec::with_capacity(3 * n);
        nodes.extend_from_slice(batch.srcs());
        nodes.extend_from_slice(batch.dsts());
        nodes.extend_from_slice(batch.negatives());
        let mut times = Vec::with_capacity(nodes.len());
        for _ in 0..(nodes.len() / n.max(1)) {
            times.extend_from_slice(batch.times());
        }
        let mfgs = mfg_stack(ctx, &self.sampler, self.cfg.n_layers, nodes, times);
        let deepest = mfgs.last().expect("layers >= 1");
        let mut deep_nodes = deepest.dst_nodes().to_vec();
        deep_nodes.extend_from_slice(deepest.src_nodes());
        let mem = self.update_memory(ctx, &deep_nodes);
        let nfeat = self.feat_linear.forward(
            &ctx.graph().node_feat_rows(&deep_nodes).to(ctx.device()),
        );
        let deep_h = nfeat.add(&mem);
        let embs = run_attention_stack(&self.layers, &mfgs, deep_h);
        self.save_state(ctx, batch);
        let src = embs.narrow_rows(0, n);
        let dst = embs.narrow_rows(n, n);
        let neg = embs.narrow_rows(2 * n, n);
        (
            self.predictor.forward(&src, &dst),
            self.predictor.forward(&src, &neg),
        )
    }
}

// ===================================================================
// JODIE
// ===================================================================

/// Baseline (TGL-style) JODIE: RNN memory + time projection.
pub struct BaselineJodie {
    rnn: RnnCell,
    te: TimeEncode,
    feat_linear: Linear,
    projector: Tensor,
    predictor: EdgePredictor,
    mail_dim: usize,
}

impl BaselineJodie {
    /// Builds the baseline JODIE, attaching memory + 1-slot mailbox.
    pub fn new(ctx: &TContext, cfg: ModelConfig, seed: u64) -> BaselineJodie {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let (d_node, d_edge) = (g.node_feat_dim(), g.edge_feat_dim());
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(1, mail_dim, device);
        BaselineJodie {
            rnn: RnnCell::new(mail_dim + cfg.time_dim, mem_dim, &mut rng).to_device(device),
            te: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            feat_linear: Linear::new(d_node, mem_dim, &mut rng).to_device(device),
            projector: Tensor::zeros([mem_dim]).to(device).requires_grad(true),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            mail_dim,
        }
    }

    fn update_memory(&self, ctx: &TContext, nodes: &[NodeId]) -> Tensor {
        let g = ctx.graph();
        let device = ctx.device();
        let mem_rows = g.memory().rows(nodes).to(device);
        let mem_ts = g.memory().times(nodes);
        let (mail, mail_ts) = g.mailbox().latest(nodes);
        let mail = mail.to(device);
        let deltas: Vec<f32> = mail_ts
            .iter()
            .zip(&mem_ts)
            .map(|(&a, &b)| (a - b) as f32)
            .collect();
        let tfeat = self.te.forward(&deltas);
        self.rnn.forward(&[&mail, &tfeat], &mem_rows)
    }
}

impl TemporalModel for BaselineJodie {
    fn name(&self) -> &'static str {
        "JODIE"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.rnn.parameters();
        p.extend(self.te.parameters());
        p.extend(self.feat_linear.parameters());
        p.push(self.projector.clone());
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, _training: bool) {}

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let g = ctx.graph();
        let device = ctx.device();
        let n = batch.len();
        let mut nodes = Vec::with_capacity(3 * n);
        nodes.extend_from_slice(batch.srcs());
        nodes.extend_from_slice(batch.dsts());
        nodes.extend_from_slice(batch.negatives());
        let mut times: Vec<f64> = Vec::with_capacity(nodes.len());
        for _ in 0..3 {
            times.extend_from_slice(batch.times());
        }
        let mem_new = self.update_memory(ctx, &nodes);
        // Projection: (1 + Δt·w) ⊙ mem + W_f x, with Δt normalized by
        // the stream's time scale (as the TGLite JODIE does).
        let norm = (g.max_time() as f32).max(1.0);
        let mem_ts = g.memory().times(&nodes);
        let deltas: Vec<f32> = times
            .iter()
            .zip(&mem_ts)
            .map(|(&q, &u)| (q - u) as f32 / norm)
            .collect();
        let dt = Tensor::from_vec(deltas, [nodes.len(), 1]).to(device);
        let scale = dt.mul(&self.projector).add_scalar(1.0);
        let nfeat = self.feat_linear.forward(&g.node_feat_rows(&nodes).to(device));
        let embs = mem_new.mul(&scale).add(&nfeat);

        // Persist + mailbox (manual unique/latest).
        {
            let _guard = no_grad();
            let (uniq, partners, t_latest, eids) = BaselineTgn::unique_latest(batch);
            let updated = self.update_memory(ctx, &uniq);
            g.memory().store(&uniq, &updated, &t_latest);
            let other = g.memory().rows(&partners).to(device);
            let efeat = g.edge_feat_rows(&eids).to(device);
            let mail = cat(&[other, efeat], 1);
            debug_assert_eq!(mail.dim(1), self.mail_dim);
            g.mailbox().store(&uniq, &mail, &t_latest);
        }

        let src = embs.narrow_rows(0, n);
        let dst = embs.narrow_rows(n, n);
        let neg = embs.narrow_rows(2 * n, n);
        (
            self.predictor.forward(&src, &dst),
            self.predictor.forward(&src, &neg),
        )
    }
}

// ===================================================================
// APAN
// ===================================================================

/// Baseline (TGL-style) APAN: mailbox attention + manual mail
/// propagation (TGL handles this with "special handling code in the
/// mailbox/memory-related modules", paper Appendix A).
pub struct BaselineApan {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    ffn: Mlp,
    te: TimeEncode,
    memory_updater: GruCell,
    sampler: TemporalSampler,
    predictor: EdgePredictor,
    mail_dim: usize,
}

impl BaselineApan {
    /// Builds the baseline APAN, attaching memory + multi-slot mailbox.
    pub fn new(ctx: &TContext, cfg: ModelConfig, seed: u64) -> BaselineApan {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let (d_node, d_edge) = (g.node_feat_dim(), g.edge_feat_dim());
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = 2 * mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(cfg.mailbox_slots, mail_dim, device);
        let hd = cfg.emb_dim;
        BaselineApan {
            w_q: Linear::new(d_node + cfg.time_dim, hd, &mut rng).to_device(device),
            w_k: Linear::new(mail_dim + cfg.time_dim, hd, &mut rng).to_device(device),
            w_v: Linear::new(mail_dim + cfg.time_dim, hd, &mut rng).to_device(device),
            ffn: Mlp::new(hd + d_node, cfg.emb_dim, cfg.emb_dim, &mut rng).to_device(device),
            te: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            memory_updater: GruCell::new(hd, mem_dim, &mut rng).to_device(device),
            sampler: TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent).with_seed(seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            mail_dim,
        }
    }
}

impl TemporalModel for BaselineApan {
    fn name(&self) -> &'static str {
        "APAN"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w_q.parameters();
        p.extend(self.w_k.parameters());
        p.extend(self.w_v.parameters());
        p.extend(self.ffn.parameters());
        p.extend(self.te.parameters());
        p.extend(self.memory_updater.parameters());
        p.extend(self.predictor.parameters());
        p
    }

    fn set_training(&mut self, _training: bool) {}

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let g = ctx.graph();
        let device = ctx.device();
        let n = batch.len();
        let mut nodes = Vec::with_capacity(3 * n);
        nodes.extend_from_slice(batch.srcs());
        nodes.extend_from_slice(batch.dsts());
        nodes.extend_from_slice(batch.negatives());
        let mut times: Vec<f64> = Vec::with_capacity(nodes.len());
        for _ in 0..3 {
            times.extend_from_slice(batch.times());
        }

        // Mailbox attention (manual segment bookkeeping).
        let (mails, mail_ts, owners) = g.mailbox().all_slots(&nodes);
        let mails = mails.to(device);
        let deltas: Vec<f32> = owners
            .iter()
            .zip(&mail_ts)
            .map(|(&o, &mt)| (times[o] - mt) as f32)
            .collect();
        let mail_t = self.te.forward(&deltas);
        let zeros_t = self.te.forward(&vec![0.0; nodes.len()]);
        let nfeat = g.node_feat_rows(&nodes).to(device);
        let q = self.w_q.forward_parts(&[&nfeat, &zeros_t]);
        let kv_in = [&mails, &mail_t];
        let k = self.w_k.forward_parts(&kv_in);
        let v = self.w_v.forward_parts(&kv_in);
        let hd = q.dim(1);
        let q_slot = q.index_select(&owners);
        let logits = q_slot
            .mul(&k)
            .sum_dim(1)
            .mul_scalar(1.0 / (hd as f32).sqrt())
            .reshape([owners.len(), 1]);
        let attn = segment_softmax(&logits, &owners, nodes.len());
        let summary = segment_sum(&v.mul(&attn), &owners, nodes.len());
        let embs = self.ffn.forward_parts(&[&summary, &nfeat]);

        // Memory update + mail propagation (manual).
        {
            let _guard = no_grad();
            let (uniq, _, t_latest, _) = BaselineTgn::unique_latest(batch);
            let rows: Vec<usize> = uniq
                .iter()
                .map(|&u| nodes.iter().position(|&x| x == u).expect("endpoint present"))
                .collect();
            let mem_rows = g.memory().rows(&uniq).to(device);
            let updated = self
                .memory_updater
                .forward(&[&summary.index_select(&rows)], &mem_rows);
            g.memory().store(&uniq, &updated, &t_latest);

            // Mails to endpoints and to sampled neighbors.
            let mem_src = g.memory().rows(batch.srcs()).to(device);
            let mem_dst = g.memory().rows(batch.dsts()).to(device);
            let efeat = g.edge_feat_rows(&batch.eids()).to(device);
            let mail_s = cat(&[mem_src.clone(), mem_dst.clone(), efeat.clone()], 1);
            let mail_d = cat(&[mem_dst, mem_src, efeat], 1);
            let all_mails = cat(&[mail_s, mail_d], 0);
            debug_assert_eq!(all_mails.dim(1), self.mail_dim);
            let mut ep_nodes = batch.srcs().to_vec();
            ep_nodes.extend_from_slice(batch.dsts());
            let mut ep_times = batch.times().to_vec();
            ep_times.extend_from_slice(batch.times());
            g.mailbox().store(&ep_nodes, &all_mails, &ep_times);

            let nb = self.sampler.sample(&g.tcsr(), &ep_nodes, &ep_times);
            if !nb.is_empty() {
                let per_edge = all_mails.index_select(&nb.dst_index);
                // Manual unique-src mean scatter.
                let mut pos: std::collections::HashMap<NodeId, usize> =
                    std::collections::HashMap::new();
                let mut uniq_src: Vec<NodeId> = Vec::new();
                let seg: Vec<usize> = nb
                    .src_nodes
                    .iter()
                    .map(|&s| {
                        *pos.entry(s).or_insert_with(|| {
                            uniq_src.push(s);
                            uniq_src.len() - 1
                        })
                    })
                    .collect();
                let scattered = segment_mean(&per_edge, &seg, uniq_src.len());
                let t_mail = Tensor::from_vec(
                    nb.dst_index
                        .iter()
                        .map(|&d| ep_times[d] as f32)
                        .collect(),
                    [nb.len(), 1],
                )
                .to(device);
                let t_scat = segment_mean(&t_mail, &seg, uniq_src.len());
                let t_vals: Vec<f64> = t_scat.to_vec().iter().map(|&v| v as f64).collect();
                g.mailbox().store(&uniq_src, &scattered, &t_vals);
            }
        }

        let src = embs.narrow_rows(0, n);
        let dst = embs.narrow_rows(n, n);
        let neg = embs.narrow_rows(2 * n, n);
        (
            self.predictor.forward(&src, &dst),
            self.predictor.forward(&src, &neg),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use tgl_runtime::rng::Rng;
    use tglite::TGraph;

    fn small_graph(seed: u64) -> Arc<TGraph> {
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

    fn batch(g: &Arc<TGraph>, range: std::ops::Range<usize>) -> TBatch {
        let mut rng = StdRng::seed_from_u64(9);
        let mut b = TBatch::new(Arc::clone(g), range);
        let negs = (0..b.len()).map(|_| rng.gen_range(10..20u32)).collect();
        b.set_negatives(negs);
        b
    }

    fn check_forward<M: TemporalModel>(mut model: M, g: &Arc<TGraph>) {
        let ctx = TContext::new(Arc::clone(g));
        let b = batch(g, 30..50);
        let (pos, neg) = model.forward(&ctx, &b);
        assert_eq!(pos.dims(), &[20]);
        assert_eq!(neg.dims(), &[20]);
        assert!(pos.to_vec().iter().all(|v| v.is_finite()));
        assert!(neg.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn baseline_tgat_forward() {
        let g = small_graph(1);
        let ctx = TContext::new(Arc::clone(&g));
        check_forward(
            BaselineTgat::new(&ctx, ModelConfig::tiny(), 0),
            &g,
        );
    }

    #[test]
    fn baseline_tgn_forward() {
        let g = small_graph(2);
        let ctx = TContext::new(Arc::clone(&g));
        check_forward(BaselineTgn::new(&ctx, ModelConfig::tiny(), 0), &g);
    }

    #[test]
    fn baseline_jodie_forward() {
        let g = small_graph(3);
        let ctx = TContext::new(Arc::clone(&g));
        check_forward(BaselineJodie::new(&ctx, ModelConfig::tiny(), 0), &g);
    }

    #[test]
    fn baseline_apan_forward() {
        let g = small_graph(4);
        let ctx = TContext::new(Arc::clone(&g));
        check_forward(BaselineApan::new(&ctx, ModelConfig::tiny(), 0), &g);
    }

    #[test]
    fn baseline_tgat_trains() {
        use tgl_tensor::optim::Adam;
        let g = small_graph(5);
        let ctx = TContext::new(Arc::clone(&g));
        let mut model = BaselineTgat::new(&ctx, ModelConfig::tiny(), 2);
        let mut opt = Adam::new(model.parameters(), 1e-2);
        let mut first = f32::NAN;
        let mut last = f32::NAN;
        for step in 0..10 {
            let b = batch(&g, 20..60);
            opt.zero_grad();
            let (pos, neg) = model.forward(&ctx, &b);
            let logits = cat(&[pos, neg], 0);
            let m = logits.dim(0);
            let mut targets = vec![1.0; m / 2];
            targets.extend(vec![0.0; m / 2]);
            let loss =
                tgl_tensor::bce_with_logits(&logits, &Tensor::from_vec(targets, [m]));
            if step == 0 {
                first = loss.item();
            }
            last = loss.item();
            loss.backward();
            opt.step();
        }
        assert!(last < first, "baseline TGAT should train: {first} -> {last}");
    }

    #[test]
    fn baseline_matches_tglite_tgat_semantics() {
        // The baseline and TGLite TGAT use the same kernels and the
        // same seeded parameters, so their first forward pass on the
        // same batch must agree exactly.
        let g = small_graph(6);
        let ctx1 = TContext::new(Arc::clone(&g));
        let mut base = BaselineTgat::new(&ctx1, ModelConfig::tiny(), 11);
        let ctx2 = TContext::new(Arc::clone(&g));
        let mut lite = tgl_models::Tgat::new(
            &ctx2,
            ModelConfig::tiny(),
            tgl_models::OptFlags::none(),
            11,
        );
        let b = batch(&g, 40..70);
        let (p1, n1) = base.forward(&ctx1, &b);
        let (p2, n2) = lite.forward(&ctx2, &b);
        for (a, b) in p1.to_vec().iter().zip(p2.to_vec()) {
            assert!((a - b).abs() < 1e-4, "frameworks disagree: {a} vs {b}");
        }
        for (a, b) in n1.to_vec().iter().zip(n2.to_vec()) {
            assert!((a - b).abs() < 1e-4, "frameworks disagree: {a} vs {b}");
        }
    }
}
