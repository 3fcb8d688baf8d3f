//! Temporal multi-head self-attention layer (paper Listing 2 /
//! Eqs. 4–7), expressed with TGLite's edge-wise block operators.

use tgl_runtime::rng::Rng;
use tgl_device::Device;
use tgl_tensor::nn::{Linear, Mlp, Module};
use tgl_tensor::ops::Part;
use tgl_tensor::Tensor;
use tglite::nn::TimeEncode;
use tglite::{op, TBlock, TContext};

/// One layer of TGAT-style temporal attention.
///
/// For a block with destination data `h_dst` and source data `h_src`:
///
/// * `Q = W_q [h_dst ‖ Φ(0)]` (Eq. 4),
/// * `K/V = W_{k,v} z_e` of every edge's `z_e = [h_src ‖ e ‖ Φ(Δt)]`
///   (Eq. 5),
/// * per-edge attention logits `Σ_h (Q⊙K)/√d_h`, normalized per
///   destination (Eq. 6), and the attention-weighted sum of the values
///   (all three steps one [`op::edge_attention`], which applies `W_k`
///   and `W_v` per destination instead of building `K` and `V`),
/// * then an output FFN over `[r ‖ h_dst]` (Eq. 7).
///
/// With `time_precompute` enabled (inference), `Φ(0)` and `Φ(Δt)` come
/// from the context's precomputed tables.
#[derive(Debug, Clone)]
pub struct TemporalAttnLayer {
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    ffn: Mlp,
    time_encoder: TimeEncode,
    heads: usize,
    head_dim: usize,
}

impl TemporalAttnLayer {
    /// Creates a layer mapping `dim_node` destination / source features
    /// (plus `dim_edge` edge features and `dim_time` time encodings)
    /// to `dim_out` embeddings with `heads` attention heads.
    pub fn new(
        dim_node: usize,
        dim_edge: usize,
        dim_time: usize,
        dim_out: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> TemporalAttnLayer {
        assert!(dim_out.is_multiple_of(heads), "dim_out must be divisible by heads");
        let head_dim = dim_out / heads;
        TemporalAttnLayer {
            w_q: Linear::new(dim_node + dim_time, heads * head_dim, rng),
            w_k: Linear::new(dim_node + dim_edge + dim_time, heads * head_dim, rng),
            w_v: Linear::new(dim_node + dim_edge + dim_time, heads * head_dim, rng),
            ffn: Mlp::new(heads * head_dim + dim_node, dim_out, dim_out, rng),
            time_encoder: TimeEncode::new(dim_time, rng),
            heads,
            head_dim,
        }
    }

    /// Moves parameters to `device`.
    pub fn to_device(&self, device: Device) -> TemporalAttnLayer {
        TemporalAttnLayer {
            w_q: self.w_q.to_device(device),
            w_k: self.w_k.to_device(device),
            w_v: self.w_v.to_device(device),
            ffn: self.ffn.to_device(device),
            time_encoder: self.time_encoder.to_device(device),
            heads: self.heads,
            head_dim: self.head_dim,
        }
    }

    /// Computes one row of output per block destination, consuming
    /// `blk.dstdata("h")` / `blk.srcdata("h")`.
    pub fn forward(&self, ctx: &TContext, blk: &TBlock, time_precompute: bool) -> Tensor {
        let h_dst = blk.dstdata("h");
        let n_dst = blk.num_dst();
        let n_edges = blk.num_edges();
        let hd = self.heads * self.head_dim;

        // Φ(0) for destinations (Eq. 4).
        let _t0 = tgl_obs::span("time_zero");
        let tfeats = if time_precompute {
            op::precomputed_zeros(ctx, &self.time_encoder, n_dst)
        } else {
            self.time_encoder.encode_zeros(n_dst)
        };
        drop(_t0);
        let q = {
            let _ta = tgl_obs::span("attention");
            self.w_q.forward_parts(&[&h_dst, &tfeats])
        };

        if n_edges == 0 {
            // No sampled neighbors anywhere: attention output is zero.
            let _ta = tgl_obs::span("attention");
            let r = Tensor::zeros_on([n_dst, hd], blk.device());
            return self.ffn.forward_parts(&[&r, &h_dst]);
        }

        // Φ(Δt) for sampled edges (Eq. 5).
        let _tn = tgl_obs::span("time_nbrs");
        let deltas = blk.deltas();
        let nbr_t = if time_precompute {
            op::precomputed_times(ctx, &self.time_encoder, &deltas)
        } else {
            self.time_encoder.encode(&deltas)
        };
        drop(_tn);
        let _ta = tgl_obs::span("attention");
        let h_src = blk.srcdata("h");
        // The edge features are read through their slots in the staged
        // table, not gathered into an `[E, d_edge]` copy first.
        let (etable, erows) = blk.efeat_rows();
        let efeat = erows.as_deref().map_or(Part::Whole(&etable), |rows| Part::Rows(&etable, rows));
        let z = [Part::Whole(&h_src), efeat, Part::Whole(&nbr_t)];

        // Per-edge attention logits Σ_d Q⊙K / √d_h, normalized per
        // destination (Eq. 6, edge-wise instead of padded bmm — paper
        // Listing 2 lines 33-34), then the attention-weighted values
        // summed per destination.
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let r = op::edge_attention(blk, &q, &self.w_k, &self.w_v, &z, self.heads, scale);

        // Output FFN over [r ‖ h_dst] (Eq. 7).
        self.ffn.forward_parts(&[&r, &h_dst])
    }
}

impl Module for TemporalAttnLayer {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w_q.parameters();
        p.extend(self.w_k.parameters());
        p.extend(self.w_v.parameters());
        p.extend(self.ffn.parameters());
        p.extend(self.time_encoder.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx_for, small_graph};
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;
    use tgl_sampler::SamplingStrategy;
    use tglite::{TBlock, TSampler};

    fn layer(dim_node: usize) -> TemporalAttnLayer {
        let mut rng = StdRng::seed_from_u64(0);
        TemporalAttnLayer::new(dim_node, 4, 4, 8, 2, &mut rng)
    }

    #[test]
    fn output_shape_per_destination() {
        let g = small_graph(0);
        let ctx = ctx_for(&g);
        let blk = TBlock::new(&ctx, 0, vec![10, 11, 12], vec![100.0, 100.0, 100.0]);
        TSampler::new(3, SamplingStrategy::Recent).sample(&blk);
        blk.set_dstdata("h", blk.dstfeat());
        blk.set_srcdata("h", blk.srcfeat());
        let l = layer(6);
        let out = l.forward(&ctx, &blk, false);
        assert_eq!(out.dims(), &[3, 8]);
    }

    #[test]
    fn no_neighbors_still_produces_rows() {
        let g = small_graph(0);
        let ctx = ctx_for(&g);
        // Query before any edges exist: nothing to sample.
        let blk = TBlock::new(&ctx, 0, vec![0, 1], vec![0.5, 0.5]);
        TSampler::new(3, SamplingStrategy::Recent).sample(&blk);
        assert_eq!(blk.num_edges(), 0);
        blk.set_dstdata("h", blk.dstfeat());
        blk.set_srcdata("h", blk.srcfeat());
        let out = layer(6).forward(&ctx, &blk, false);
        assert_eq!(out.dims(), &[2, 8]);
        assert!(out.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_reach_all_parameter_groups() {
        let g = small_graph(0);
        let ctx = ctx_for(&g);
        let blk = TBlock::new(&ctx, 0, vec![10], vec![100.0]);
        TSampler::new(3, SamplingStrategy::Recent).sample(&blk);
        blk.set_dstdata("h", blk.dstfeat());
        blk.set_srcdata("h", blk.srcfeat());
        let l = layer(6);
        l.forward(&ctx, &blk, false).sum_all().backward();
        let with_grad = l.parameters().iter().filter(|p| p.grad().is_some()).count();
        // Everything except possibly unused biases should have grads.
        assert!(with_grad >= 8, "only {with_grad} params got gradients");
    }

    /// The layer against the key / value chain it replaced, kept here
    /// as the oracle: `K` and `V` per edge (`linear_cat`), the logits by
    /// gather, product and sum, `edge_softmax`, `edge_reduce` of the
    /// weighted values, then the same FFN. Outputs and every parameter's
    /// first-step gradient agree within 1e-5.
    #[test]
    fn forward_matches_the_key_value_chain() {
        let g = small_graph(3);
        let ctx = ctx_for(&g);
        let blk = TBlock::new(&ctx, 0, vec![10, 11, 12, 13], vec![100.0, 100.0, 40.0, 0.5]);
        TSampler::new(5, SamplingStrategy::Recent).sample(&blk);
        blk.set_dstdata("h", blk.dstfeat());
        blk.set_srcdata("h", blk.srcfeat());
        let l = layer(6);
        let chain = |l: &TemporalAttnLayer| {
            let h_dst = blk.dstdata("h");
            let q = l.w_q.forward_parts(&[&h_dst, &l.time_encoder.encode_zeros(blk.num_dst())]);
            let (h_src, efeat, phi) = (blk.srcdata("h"), blk.efeat(), l.time_encoder.encode(&blk.deltas()));
            let z = [&h_src, &efeat, &phi];
            let (k, v) = (l.w_k.forward_parts(&z), l.w_v.forward_parts(&z));
            let (e, h, d) = (blk.num_edges(), l.heads, l.head_dim);
            let logits = q.index_select(&blk.dst_index()).mul(&k).reshape([e, h, d]).sum_dim(2);
            let attn = op::edge_softmax(&blk, &logits.mul_scalar(1.0 / (d as f32).sqrt()));
            let weighted = v.reshape([e, h, d]).mul(&attn.reshape([e, h, 1])).reshape([e, h * d]);
            l.ffn.forward_parts(&[&op::edge_reduce(&blk, &weighted, op::ReduceOp::Sum), &h_dst])
        };
        let run = |out: Tensor| {
            let w = Tensor::from_vec((0..out.numel()).map(|i| (i % 7) as f32 * 0.3 - 1.0).collect(), out.dims().to_vec());
            out.mul(&w).sum_all().backward();
            let mut all = vec![out.to_vec()];
            for p in l.parameters() {
                all.push(p.grad().unwrap_or_else(|| vec![0.0; p.numel()]));
                p.zero_grad();
            }
            all
        };
        let (fused, want) = (run(l.forward(&ctx, &blk, false)), run(chain(&l)));
        assert!(blk.num_edges() > 0 && want[0].iter().any(|&x| x != 0.0));
        for (i, (got, want)) in fused.iter().zip(&want).enumerate() {
            for (a, b) in got.iter().zip(want) {
                assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "tensor {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn precomputed_time_path_matches_direct_path() {
        let g = small_graph(0);
        let ctx = ctx_for(&g);
        let make = || {
            let blk = TBlock::new(&ctx, 0, vec![10, 12], vec![100.0, 90.0]);
            TSampler::new(3, SamplingStrategy::Recent).sample(&blk);
            blk.set_dstdata("h", blk.dstfeat());
            blk.set_srcdata("h", blk.srcfeat());
            blk
        };
        let l = layer(6);
        let direct = l.forward(&ctx, &make(), false).to_vec();
        let pre = l.forward(&ctx, &make(), true).to_vec();
        assert_eq!(direct.len(), pre.len());
        for (a, b) in direct.iter().zip(&pre) {
            assert!((a - b).abs() < 1e-5, "semantic drift: {a} vs {b}");
        }
    }
}
