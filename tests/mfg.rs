//! A TGL/DGL-style TGAT over message-flow graphs (MFGs), the test-only
//! reference the TBlock stack is compared against (paper §3.2). Each
//! layer's MFG fixes both its destination and source sides when it is
//! built, has no link to the other layers, and holds its tensors from
//! construction on; the attention runs over `dst_index` by hand. It
//! runs on the host and shares only kernels and parameter init with
//! `tgl_models::Tgat`.

use tgl_graph::{NodeId, TemporalGraph, Time};
use tgl_models::{EdgePredictor, ModelConfig};
use tgl_runtime::rng::{SeedableRng, StdRng};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::nn::{Linear, Mlp};
use tgl_tensor::ops::{cat, segment_softmax, segment_sum};
use tgl_tensor::Tensor;
use tglite::nn::TimeEncode;
use tglite::TBatch;

/// One layer's 1-hop neighbourhood with every tensor materialized.
struct Mfg {
    dst_nodes: Vec<NodeId>,
    dst_times: Vec<Time>,
    src_nodes: Vec<NodeId>,
    src_times: Vec<Time>,
    dst_index: Vec<usize>,
    /// Per-edge `t_dst − t_edge`, computed with the sample.
    deltas: Vec<f32>,
    dst_feat: Tensor,
    src_feat: Tensor,
    edge_feat: Tensor,
}

impl Mfg {
    fn build(
        g: &TemporalGraph,
        sampler: &TemporalSampler,
        dst_nodes: Vec<NodeId>,
        dst_times: Vec<Time>,
    ) -> Mfg {
        let nbrs = sampler.sample(&g.tcsr(), &dst_nodes, &dst_times);
        let deltas = nbrs
            .dst_index
            .iter()
            .zip(&nbrs.src_times)
            .map(|(&d, &st)| (dst_times[d] - st) as f32)
            .collect();
        Mfg {
            dst_feat: g.node_feat_rows(&dst_nodes),
            src_feat: g.node_feat_rows(&nbrs.src_nodes),
            edge_feat: g.edge_feat_rows(&nbrs.eids),
            dst_nodes,
            dst_times,
            src_nodes: nbrs.src_nodes,
            src_times: nbrs.src_times,
            dst_index: nbrs.dst_index,
            deltas,
        }
    }
}

/// One attention layer, its parameters drawn in
/// `tgl_models::TemporalAttnLayer::new`'s order.
struct Attn {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    ffn: Mlp,
    te: TimeEncode,
    heads: usize,
    head_dim: usize,
}

impl Attn {
    fn new(dim_node: usize, dim_edge: usize, cfg: &ModelConfig, rng: &mut StdRng) -> Attn {
        let (hd, dim_time) = (cfg.emb_dim, cfg.time_dim);
        Attn {
            w_q: Linear::new(dim_node + dim_time, hd, rng),
            w_k: Linear::new(dim_node + dim_edge + dim_time, hd, rng),
            w_v: Linear::new(dim_node + dim_edge + dim_time, hd, rng),
            ffn: Mlp::new(hd + dim_node, cfg.emb_dim, cfg.emb_dim, rng),
            te: TimeEncode::new(dim_time, rng),
            heads: cfg.heads,
            head_dim: hd / cfg.heads,
        }
    }

    fn forward(&self, mfg: &Mfg, h_dst: &Tensor, h_src: &Tensor) -> Tensor {
        let n_dst = mfg.dst_nodes.len();
        let q = self
            .w_q
            .forward_parts(&[h_dst, &self.te.forward(&vec![0.0; n_dst])]);
        if mfg.src_nodes.is_empty() {
            let r = Tensor::zeros([n_dst, self.heads * self.head_dim]);
            return self.ffn.forward_parts(&[&r, h_dst]);
        }
        let z = [h_src, &mfg.edge_feat, &self.te.forward(&mfg.deltas)];
        let k = self.w_k.forward_parts(&z);
        let v = self.w_v.forward_parts(&z);
        let (e, h, d) = (mfg.dst_index.len(), self.heads, self.head_dim);
        let scale = 1.0 / (d as f32).sqrt();
        let logits = q
            .index_select(&mfg.dst_index)
            .mul(&k)
            .reshape([e, h, d])
            .sum_dim(2)
            .mul_scalar(scale);
        let attn = segment_softmax(&logits, &mfg.dst_index, n_dst);
        let weighted = v
            .reshape([e, h, d])
            .mul(&attn.reshape([e, h, 1]))
            .reshape([e, h * d]);
        let r = segment_sum(&weighted, &mfg.dst_index, n_dst);
        self.ffn.forward_parts(&[&r, h_dst])
    }
}

/// TGAT as TGL writes it: a stack of standalone MFGs built top-down,
/// then the layers run bottom-up with manual `[dst | src]` slicing.
pub struct MfgTgat {
    layers: Vec<Attn>,
    sampler: TemporalSampler,
    predictor: EdgePredictor,
}

impl MfgTgat {
    /// The parameters `tgl_models::Tgat::new(.., cfg, _, seed)` draws.
    pub fn new(g: &TemporalGraph, cfg: ModelConfig, seed: u64) -> MfgTgat {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = (0..cfg.n_layers)
            .map(|i| {
                let dim_in = if i == cfg.n_layers - 1 {
                    g.node_feat_dim()
                } else {
                    cfg.emb_dim
                };
                Attn::new(dim_in, g.edge_feat_dim(), &cfg, &mut rng)
            })
            .collect();
        MfgTgat {
            layers,
            sampler: TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent)
                .with_seed(seed),
            predictor: EdgePredictor::new(cfg.emb_dim, &mut rng),
        }
    }

    /// `(positive, negative)` logits of a batch whose negatives are set.
    pub fn forward(&self, g: &TemporalGraph, batch: &TBatch) -> (Tensor, Tensor) {
        let mut nodes = [batch.srcs(), batch.dsts(), batch.negatives()].concat();
        let mut times = batch.times().repeat(3);
        let mut mfgs = Vec::with_capacity(self.layers.len());
        for _ in &self.layers {
            let mfg = Mfg::build(g, &self.sampler, nodes, times);
            nodes = [&mfg.dst_nodes[..], &mfg.src_nodes[..]].concat();
            times = [&mfg.dst_times[..], &mfg.src_times[..]].concat();
            mfgs.push(mfg);
        }
        let deepest = mfgs.last().expect("at least one layer");
        let mut h = cat(&[deepest.dst_feat.clone(), deepest.src_feat.clone()], 0);
        for (layer, mfg) in self.layers.iter().zip(&mfgs).rev() {
            let nd = mfg.dst_nodes.len();
            h = layer.forward(
                mfg,
                &h.narrow_rows(0, nd),
                &h.narrow_rows(nd, h.dim(0) - nd),
            );
        }
        let n = batch.len();
        let src = h.narrow_rows(0, n);
        (
            self.predictor.forward(&src, &h.narrow_rows(n, n)),
            self.predictor.forward(&src, &h.narrow_rows(2 * n, n)),
        )
    }
}
