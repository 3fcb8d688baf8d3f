//! Edge-wise segmented computation operators.
//!
//! These let models express attention "more naturally with edge-wise
//! computation operators on TBlocks" (paper §3.1) instead of batched
//! matmul + masked softmax over padded neighbor tensors.

use tgl_tensor::nn::Linear;
use tgl_tensor::ops::{edge_attention as attend, segment_max, segment_mean, segment_softmax, segment_sum, Part};
use tgl_tensor::Tensor;

use crate::TBlock;

/// Reduction applied by [`edge_reduce`] / [`src_scatter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceOp {
    /// Sum rows per group.
    #[default]
    Sum,
    /// Average rows per group.
    Mean,
    /// Elementwise max per group.
    Max,
}

/// Multi-head attention of every destination over its sampled edges
/// (paper Listing 2, lines 31-36, Eqs. 5-7) with the key and value maps
/// applied on the destination's side: `q` has one `[heads · dim]` query
/// row per destination, `z` the parts of each edge's input row
/// `[h_src ‖ e ‖ Φ(Δt)]` (read in place; the edge features as rows of
/// their staged table), and the result is, per destination and head,
/// `W_v` of the softmax-weighted sum of its edges' `z` plus the bias —
/// the attention output `Σ_e softmax(q·k_e · scale) v_e` of the keys
/// `k_e = key(z_e)` and values `v_e = value(z_e)`, which are never built
/// ([`tgl_tensor::ops::edge_attention`]). The key's bias shifts every
/// logit of a destination alike, which the softmax cancels: it takes no
/// part and gets no gradient. Destinations with no sampled edges yield
/// zero rows.
///
/// # Panics
///
/// Panics unless `q` has one row per destination and every part one
/// per edge, and on the shape checks of the kernel.
pub fn edge_attention(
    blk: &TBlock,
    q: &Tensor,
    key: &Linear,
    value: &Linear,
    z: &[Part<'_>],
    heads: usize,
    scale: f32,
) -> Tensor {
    assert_eq!(q.dim(0), blk.num_dst(), "edge_attention expects one query row per destination");
    attend(q, key.weight(), [value.weight(), value.bias()], z, &blk.dst_index(), heads, scale)
}

/// Segmented softmax of per-edge values grouped by destination
/// (the `edge_softmax()` of paper Listing 2, line 34).
///
/// `values` has one row per sampled edge (columns = attention heads);
/// rows belonging to the same destination are normalized together.
///
/// # Panics
///
/// Panics if `values.dim(0) != blk.num_edges()`.
pub fn edge_softmax(blk: &TBlock, values: &Tensor) -> Tensor {
    assert_eq!(
        values.dim(0),
        blk.num_edges(),
        "edge_softmax expects one row per edge"
    );
    segment_softmax(values, &blk.dst_index(), blk.num_dst())
}

/// Segmented reduction of per-edge values into per-destination rows
/// (the `edge_reduce()` of paper Listing 2, line 36).
///
/// "For each destination node it applies a reduce operation to its
/// group of source nodes to combine their data" (§3.3). Destinations
/// with no sampled edges yield zero rows.
///
/// # Panics
///
/// Panics if `values.dim(0) != blk.num_edges()`.
pub fn edge_reduce(blk: &TBlock, values: &Tensor, op: ReduceOp) -> Tensor {
    assert_eq!(
        values.dim(0),
        blk.num_edges(),
        "edge_reduce expects one row per edge"
    );
    let seg = blk.dst_index();
    let n = blk.num_dst();
    match op {
        ReduceOp::Sum => segment_sum(values, &seg, n),
        ReduceOp::Mean => segment_mean(values, &seg, n),
        ReduceOp::Max => segment_max(values, &seg, n),
    }
}

/// Scatters per-edge values onto the block's *unique source nodes*,
/// reducing duplicates (the `src_scatter()` used by APAN's
/// `send_mails`, paper Listing 6).
///
/// Returns the unique source node list (first-appearance order) and a
/// `[num_unique, D]` tensor.
///
/// # Panics
///
/// Panics if `values.dim(0) != blk.num_edges()`.
pub fn src_scatter(
    blk: &TBlock,
    values: &Tensor,
    op: ReduceOp,
) -> (Vec<tgl_graph::NodeId>, Tensor) {
    assert_eq!(
        values.dim(0),
        blk.num_edges(),
        "src_scatter expects one row per edge"
    );
    let (uniq, index) = blk.uniq_src();
    let n = uniq.len();
    let out = match op {
        ReduceOp::Sum => segment_sum(values, &index, n),
        ReduceOp::Mean => segment_mean(values, &index, n),
        ReduceOp::Max => segment_max(values, &index, n),
    };
    (uniq, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TBlock, TContext};
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::NeighborSample;

    fn block_with_edges() -> TBlock {
        let g = Arc::new(TemporalGraph::from_edges(4, vec![(0, 1, 1.0)]));
        let ctx = TContext::new(g);
        let blk = TBlock::new(&ctx, 0, vec![0, 1], vec![5.0, 5.0]);
        blk.set_neighborhood(NeighborSample {
            src_nodes: vec![2, 3, 2],
            src_times: vec![1.0, 2.0, 3.0],
            eids: vec![0, 0, 0],
            dst_index: vec![0, 0, 1],
        });
        blk
    }

    #[test]
    fn edge_softmax_normalizes_per_dst() {
        let blk = block_with_edges();
        let attn = Tensor::from_vec(vec![1.0, 1.0, 7.0], [3, 1]);
        let s = edge_softmax(&blk, &attn).to_vec();
        assert!((s[0] - 0.5).abs() < 1e-6);
        assert!((s[1] - 0.5).abs() < 1e-6);
        assert!((s[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn edge_reduce_sum_mean_max() {
        let blk = block_with_edges();
        let vals = Tensor::from_vec(vec![1.0, 3.0, 10.0], [3, 1]);
        assert_eq!(edge_reduce(&blk, &vals, ReduceOp::Sum).to_vec(), vec![4.0, 10.0]);
        assert_eq!(edge_reduce(&blk, &vals, ReduceOp::Mean).to_vec(), vec![2.0, 10.0]);
        assert_eq!(edge_reduce(&blk, &vals, ReduceOp::Max).to_vec(), vec![3.0, 10.0]);
    }

    #[test]
    fn src_scatter_mean_merges_duplicate_sources() {
        let blk = block_with_edges();
        let vals = Tensor::from_vec(vec![2.0, 4.0, 6.0], [3, 1]);
        let (uniq, out) = src_scatter(&blk, &vals, ReduceOp::Mean);
        assert_eq!(uniq, vec![2, 3]);
        // node 2 receives rows 0 and 2 -> mean(2, 6) = 4
        assert_eq!(out.to_vec(), vec![4.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "one row per edge")]
    fn wrong_row_count_panics() {
        let blk = block_with_edges();
        edge_reduce(&blk, &Tensor::zeros([5, 1]), ReduceOp::Sum);
    }

    #[test]
    fn gradient_flows_through_edge_ops() {
        let blk = block_with_edges();
        let vals = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3, 1]).requires_grad(true);
        let attn = edge_softmax(&blk, &vals);
        let out = edge_reduce(&blk, &attn.mul(&vals), ReduceOp::Sum);
        out.sum_all().backward();
        assert!(vals.grad().is_some());
    }
}
