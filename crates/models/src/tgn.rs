//! TGN: temporal graph network with GRU node memory (paper §4,
//! Listing 4).

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::SeedableRng;
use tgl_graph::NodeId;
use tgl_tensor::nn::{GruCell, Linear, Module};
use tgl_tensor::ops::cat;
use tgl_tensor::{no_grad, Tensor};
use tglite::nn::TimeEncode;
use tglite::plan::{self, SamplingSpec};
use tglite::{op, TBatch, TBlock, TContext};

use crate::{score_embeddings, EdgePredictor, ModelConfig, OptFlags, TemporalAttnLayer, TemporalModel};

/// The TGN model: GRU memory updated from a raw-message mailbox,
/// merged with node features, then TGAT-style attention layers.
///
/// Training discipline follows the paper (§2 "Model Training"): the
/// mailbox holds messages from *previous* batches; the in-graph memory
/// update consumes them (so the GRU receives gradients through the
/// batch loss), and only afterwards are this batch's raw messages
/// saved — avoiding information leakage.
pub struct Tgn {
    layers: Vec<TemporalAttnLayer>,
    memory_updater: GruCell,
    mem_time_encoder: TimeEncode,
    feat_linear: Linear,
    spec: SamplingSpec,
    predictor: EdgePredictor,
    opts: OptFlags,
    cfg: ModelConfig,
    training: bool,
    mail_dim: usize,
}

impl Tgn {
    /// Builds TGN, attaching memory and a 1-slot mailbox to the
    /// context's graph.
    pub fn new(ctx: &TContext, cfg: ModelConfig, opts: OptFlags, seed: u64) -> Tgn {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ctx.graph();
        let d_node = g.node_feat_dim();
        let d_edge = g.edge_feat_dim();
        let device = ctx.device();
        let mem_dim = cfg.emb_dim;
        let mail_dim = 2 * mem_dim + d_edge;
        g.attach_memory(mem_dim, device);
        g.attach_mailbox(1, mail_dim, device);
        // All attention layers consume emb_dim-wide inputs: the tail
        // block's inputs are memory ⊕ projected features.
        let layers = (0..cfg.n_layers)
            .map(|_| {
                TemporalAttnLayer::new(cfg.emb_dim, d_edge, cfg.time_dim, cfg.emb_dim, cfg.heads, &mut rng)
                    .to_device(device)
            })
            .collect();
        Tgn {
            layers,
            memory_updater: GruCell::new(mail_dim + cfg.time_dim, mem_dim, &mut rng)
                .to_device(device),
            mem_time_encoder: TimeEncode::new(cfg.time_dim, &mut rng).to_device(device),
            feat_linear: Linear::new(d_node, mem_dim, &mut rng).to_device(device),
            spec: crate::sampling_spec(&cfg, &opts, seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng).to_device(device),
            opts,
            cfg,
            training: true,
            mail_dim,
        }
    }

    /// Applies the GRU memory update (paper Eq. 9–11) to `nodes`,
    /// returning in-graph updated memory rows `[n, mem_dim]`.
    fn update_memory(&self, ctx: &TContext, nodes: &[NodeId]) -> Tensor {
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
        // The GRU deltas ARE the memory-staleness signal: how old each
        // node's stored state is relative to the mail consuming it.
        tgl_obs::insight::observe_mem_staleness(&deltas);
        let deltas = Tensor::from_vec(deltas, [nodes.len()]).to(device);
        let tfeat = if self.opts.time_precompute && !self.training {
            op::precomputed_times(ctx, &self.mem_time_encoder, &deltas)
        } else {
            self.mem_time_encoder.encode(&deltas)
        };
        self.memory_updater.forward(&[&mail, &tfeat], &mem_rows)
    }

    /// Persists updated memory for the batch's positive endpoints and
    /// stores this batch's raw messages in the mailbox
    /// (paper Listing 4 `save_raw_msgs`, using `block_adj` +
    /// `coalesce(latest)`). `mem` holds the updated memory of
    /// `idx.nodes` that the embeddings were computed from: the rows
    /// persisted are sliced out of it, not recomputed.
    fn save_state(&self, ctx: &TContext, batch: &TBatch, idx: &op::NodeIndex, mem: &Tensor) {
        let _phase = tglite::prof::scope("memory");
        let _guard = no_grad();
        let g = ctx.graph();
        let blk: TBlock = batch.block_adj(ctx);
        op::coalesce(&blk, op::CoalesceBy::Latest);
        let uniq = blk.dst_nodes();
        let times = blk.src_times(); // latest interaction time per node
        let slot = |&n: &NodeId| idx.slot(n).expect("batch endpoints are rows of the tail block");
        let own = mem.index_select(&uniq.iter().map(slot).collect::<Vec<_>>());
        g.memory().store(&uniq, &own, &times);

        // Raw messages: [own memory ‖ counterpart memory ‖ edge feats].
        let counterpart = g.memory().rows(&blk.src_nodes()).to(ctx.device());
        let mail = cat(&[own, counterpart, blk.efeat()], 1);
        debug_assert_eq!(mail.dim(1), self.mail_dim);
        g.mailbox().store(&uniq, &mail, &times);
    }
}

impl TemporalModel for Tgn {
    fn name(&self) -> &'static str {
        "TGN"
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(|l| l.parameters()).collect();
        p.extend(self.memory_updater.parameters());
        p.extend(self.mem_time_encoder.parameters());
        p.extend(self.feat_linear.parameters());
        p.extend(self.predictor.parameters());
        p
    }

    fn param_groups(&self) -> Vec<(String, Vec<Tensor>)> {
        let mut groups = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            groups.extend(l.param_groups(&format!("layer{i}")));
        }
        groups.push(("memory.gru".to_string(), self.memory_updater.parameters()));
        groups.push(("memory.time".to_string(), self.mem_time_encoder.parameters()));
        groups.push(("feat".to_string(), self.feat_linear.parameters()));
        groups.extend(self.predictor.param_groups());
        groups
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn forward(&mut self, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        // The block chain, built here or taken from the batch (dedup
        // only: the paper skips cache() for TGN since memory updates
        // invalidate cached embeddings). Nothing up to here reads node
        // memory, which is why the chain can be built ahead;
        // everything below does, on this thread, in batch order.
        let head = plan::build_chain(ctx, batch, &self.spec, false);
        let tail = head.tail();

        // Deepest inputs: updated memory ⊕ projected raw features for
        // the tail's destinations and sources (paper Listing 4 lines
        // 4-7). Both are keyed on the node alone, so they are computed
        // once per distinct node (features read from the first staged
        // row naming it) and expanded into the tail's rows.
        let memory_phase = tglite::prof::scope("memory");
        let mut rows = tail.dst_nodes();
        let n_dst = rows.len();
        rows.extend(tail.src_nodes());
        let idx = op::node_index(ctx.graph().num_nodes(), &rows);
        let mem = self.update_memory(ctx, &idx.nodes);
        let feats = cat(&[tail.dstfeat(), tail.srcfeat()], 0).index_select(&idx.first);
        let h = self.feat_linear.forward(&feats).add(&mem);
        tail.set_dstdata("h", h.index_select(&idx.inverse[..n_dst]));
        tail.set_srcdata("h", h.index_select(&idx.inverse[n_dst..]));
        drop(memory_phase);

        let use_pre = self.opts.time_precompute && !self.training;
        let embs = op::aggregate(&head, "h", |blk| {
            let li = blk.layer().min(self.cfg.n_layers - 1);
            let _act = tgl_obs::insight::act_scope(crate::tgat::layer_scope(li));
            self.layers[li].forward(ctx, blk, use_pre)
        });

        // Delayed-update discipline: persist memory + save this
        // batch's raw messages after embedding computation.
        self.save_state(ctx, batch, &idx, &mem);

        score_embeddings(&self.predictor, &embs, batch.len())
    }

    fn sampling_spec(&self) -> Option<SamplingSpec> {
        Some(self.spec.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_with_negs, ctx_for, small_graph, train_steps};

    /// The step as it was before node state was evaluated per distinct
    /// node: the GRU and `feat_linear` on every row of the tail block,
    /// and a second GRU pass (memory, mail and time encoder re-read) for
    /// the rows `save_state` persists. The oracle of the tests below.
    fn forward_expanded(model: &mut Tgn, ctx: &TContext, batch: &TBatch) -> (Tensor, Tensor) {
        let head = plan::build_chain(ctx, batch, &model.spec, false);
        let tail = head.tail();
        let mut nodes = tail.dst_nodes();
        let n_dst = nodes.len();
        nodes.extend(tail.src_nodes());
        let mem = model.update_memory(ctx, &nodes);
        let nfeat = model.feat_linear.forward(&cat(&[tail.dstfeat(), tail.srcfeat()], 0));
        let h = nfeat.add(&mem);
        tail.set_dstdata("h", h.narrow_rows(0, n_dst));
        tail.set_srcdata("h", h.narrow_rows(n_dst, nodes.len() - n_dst));
        let embs = op::aggregate(&head, "h", |blk| {
            let li = blk.layer().min(model.cfg.n_layers - 1);
            model.layers[li].forward(ctx, blk, false)
        });
        {
            let _guard = no_grad();
            let g = ctx.graph();
            let blk = batch.block_adj(ctx);
            op::coalesce(&blk, op::CoalesceBy::Latest);
            let (uniq, times) = (blk.dst_nodes(), blk.src_times());
            let mem_new = model.update_memory(ctx, &uniq);
            g.memory().store(&uniq, &mem_new, &times);
            let own = g.memory().rows(&uniq);
            let counterpart = g.memory().rows(&blk.src_nodes());
            g.mailbox().store(&uniq, &cat(&[own, counterpart, blk.efeat()], 1), &times);
        }
        score_embeddings(&model.predictor, &embs, batch.len())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// Memory and mailbox tables of every node, as bits and times.
    fn node_state(g: &tglite::TGraph) -> (Vec<u32>, Vec<f64>, Vec<u32>, Vec<f64>) {
        let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let (mail, mail_ts) = g.mailbox().latest(&all);
        (bits(&g.memory().rows(&all)), g.memory().times(&all), bits(&mail), mail_ts)
    }

    // `scripts/ci.sh` runs this suite under TGL_KERNEL=exact and =fast,
    // so the three bitwise checks below hold in both kernel modes.

    #[test]
    fn distinct_node_memory_expands_to_the_per_row_update_bitwise() {
        let g = small_graph(16);
        let ctx = ctx_for(&g);
        let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 3);
        train_steps(&mut model, &ctx, 6); // six Adam steps; leaves three batches of state
        let batch = batch_with_negs(&g, 90..120, 9);
        let tail = plan::build_chain(&ctx, &batch, &model.spec, false).tail();
        let mut rows = tail.dst_nodes();
        rows.extend(tail.src_nodes());
        let idx = op::node_index(g.num_nodes(), &rows);
        assert!(rows.len() > 3 * idx.nodes.len(), "{} rows, {} nodes", rows.len(), idx.nodes.len());
        let per_row = model.update_memory(&ctx, &rows);
        let expanded = model.update_memory(&ctx, &idx.nodes).index_select(&idx.inverse);
        assert!(per_row.to_vec().iter().any(|&v| v != 0.0), "memory never moved");
        assert_eq!(bits(&expanded), bits(&per_row));
    }

    #[test]
    fn gradients_agree_with_the_expanded_route() {
        let grads = |expanded: bool| {
            let g = small_graph(17);
            let ctx = ctx_for(&g);
            let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 4);
            // One step of state first, so the GRU sees mail and memory.
            model.forward(&ctx, &batch_with_negs(&g, 0..40, 1));
            let batch = batch_with_negs(&g, 40..80, 2);
            let (pos, neg) = if expanded {
                forward_expanded(&mut model, &ctx, &batch)
            } else {
                model.forward(&ctx, &batch)
            };
            let logits = cat(&[pos, neg], 0);
            let mut targets = vec![1.0; 40];
            targets.extend(vec![0.0; 40]);
            tglite::tensor::bce_with_logits(&logits, &Tensor::from_vec(targets, [80])).backward();
            let grads: Vec<Vec<f32>> =
                model.parameters().iter().map(|p| p.grad().unwrap_or_default()).collect();
            (bits(&logits), grads)
        };
        let ((logits, distinct), (want_logits, expanded)) = (grads(false), grads(true));
        assert_eq!(logits, want_logits, "the forward pass is the same bits on both routes");
        assert!(distinct.iter().filter(|g| !g.is_empty()).count() > 20, "few parameters on the graph");
        for (i, (a, b)) in distinct.iter().zip(&expanded).enumerate() {
            assert_eq!(a.len(), b.len(), "parameter {i}");
            let size = b.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let err = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
            assert!(err <= 1e-5 * size, "parameter {i}: gradients differ by {err} of {size}");
        }
    }

    #[test]
    fn save_state_persists_what_a_recomputing_reference_does() {
        let run = |expanded: bool| {
            let g = small_graph(18);
            let ctx = ctx_for(&g);
            let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::all(), 6);
            let mut logits = Vec::new();
            for (range, neg_seed) in [(0..40, 1), (40..80, 2), (80..120, 3)] {
                let batch = batch_with_negs(&g, range, neg_seed);
                let (pos, neg) = if expanded {
                    forward_expanded(&mut model, &ctx, &batch)
                } else {
                    model.forward(&ctx, &batch)
                };
                logits.push((bits(&pos), bits(&neg)));
            }
            (logits, node_state(&g))
        };
        let (distinct, reference) = (run(false), run(true));
        assert!(reference.1 .0.iter().any(|&b| b != 0), "no memory was stored");
        assert!(reference.1 .2.iter().any(|&b| b != 0), "no mail was stored");
        assert_eq!(distinct, reference);
    }

    #[test]
    fn forward_shapes_and_state_updates() {
        let g = small_graph(10);
        let ctx = ctx_for(&g);
        let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..20, 0);
        let (pos, neg) = model.forward(&ctx, &batch);
        assert_eq!(pos.dims(), &[20]);
        assert_eq!(neg.dims(), &[20]);
        // Memory must have been updated for batch endpoints.
        let mem = g.memory();
        let touched: Vec<u32> = batch.srcs().to_vec();
        let times = mem.times(&touched);
        assert!(times.iter().any(|&t| t > 0.0), "memory times not updated");
    }

    #[test]
    fn mailbox_messages_accumulate() {
        let g = small_graph(11);
        let ctx = ctx_for(&g);
        let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let b1 = batch_with_negs(&g, 0..20, 1);
        model.forward(&ctx, &b1);
        let src0 = b1.srcs()[0];
        let (mail, times) = g.mailbox().latest(&[src0]);
        assert!(times[0] > 0.0, "mail delivery time not set");
        assert!(mail.to_vec().iter().any(|&v| v != 0.0) || times[0] > 0.0);
    }

    #[test]
    fn plan_driven_forward_is_bitwise_identical() {
        // A chain prepared ahead (pipelined training) must produce the
        // exact logits the inline chain construction produces, and
        // leave the same memory and mailbox behind: the chain holds no
        // node state, so two steps in a row see each other's writes.
        for opts in [OptFlags::none(), OptFlags::all()] {
            let run = |planned: bool| {
                let g = small_graph(15);
                let ctx = ctx_for(&g);
                let mut model = Tgn::new(&ctx, ModelConfig::tiny(), opts, 11);
                let mut out = Vec::new();
                for (range, neg_seed) in [(0..30, 2), (30..60, 3)] {
                    let mut batch = batch_with_negs(&g, range, neg_seed);
                    if planned {
                        let spec = model.sampling_spec().expect("TGN is plan-aware");
                        let plan = plan::build_plan(&ctx, &batch, &spec);
                        batch.set_plan(std::sync::Arc::new(plan));
                    }
                    let (pos, neg) = model.forward(&ctx, &batch);
                    out.push((bits(&pos), bits(&neg)));
                }
                (out, node_state(&g))
            };
            let (inline, planned) = (run(false), run(true));
            assert!(inline.1 .2.iter().any(|&b| b != 0), "no mail was stored");
            assert_eq!(inline, planned, "prepared chain drifted (opts {opts:?})");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let g = small_graph(12);
        let ctx = ctx_for(&g);
        let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 2);
        let (first, last) = train_steps(&mut model, &ctx, 12);
        assert!(last < first, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn reset_state_clears_memory() {
        let g = small_graph(13);
        let ctx = ctx_for(&g);
        let mut model = Tgn::new(&ctx, ModelConfig::tiny(), OptFlags::none(), 0);
        let batch = batch_with_negs(&g, 0..20, 0);
        model.forward(&ctx, &batch);
        model.reset_state(&ctx);
        let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
        assert!(g.memory().times(&all).iter().all(|&t| t == 0.0));
    }

    #[test]
    fn dedup_matches_plain_first_step() {
        let g = small_graph(14);
        let logits = |opts: OptFlags| {
            let ctx = ctx_for(&g);
            // Fresh memory per run (attach_memory in constructor resets).
            let mut model = Tgn::new(&ctx, ModelConfig::tiny(), opts, 5);
            let batch = batch_with_negs(&g, 30..60, 2);
            let (pos, _) = model.forward(&ctx, &batch);
            pos.to_vec()
        };
        let plain = logits(OptFlags::none());
        let dedup = logits(OptFlags {
            dedup: true,
            ..OptFlags::none()
        });
        for (a, b) in plain.iter().zip(&dedup) {
            assert!((a - b).abs() < 1e-4, "dedup changed TGN semantics: {a} vs {b}");
        }
    }
}
