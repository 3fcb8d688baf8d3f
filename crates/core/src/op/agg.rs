//! Multi-block operators: pull-style aggregation and push-style
//! propagation over the block chain.

use tgl_tensor::Tensor;

use crate::TBlock;

/// Pull-style multi-hop neighborhood aggregation (paper §3.3).
///
/// "Given a block it will traverse the linked list to the tail and
/// apply a function provided by the user to each block all the way
/// back up to the starting block. It also handles some tedious
/// bookkeeping that is necessary when passing information across
/// blocks, such as assigning the correct data to the destination and
/// source nodes."
///
/// Concretely, walking tail→head for each block `b`:
/// 1. `out = f(b)` — the user layer computes one row per destination;
/// 2. `out = b.run_hooks(out)` — registered post-processing (dedup
///    inversion, cache merge) restores the pre-filter layout;
/// 3. if `b` has a predecessor `p`, the rows split into
///    `p.dstdata[key] = out[..p.num_dst()]` and
///    `p.srcdata[key] = out[p.num_dst()..]` (this works because
///    [`TBlock::next_block`] stacks `p`'s destinations before its
///    sampled sources when creating `b`'s destination list). The two
///    sides are rows of `out` ([`TBlock::set_dstdata_rows`]), not
///    copies: a layer that reads them as rows (`dstdata_rows` /
///    `srcdata_rows`) reads `out` in place, and its gradient reaches
///    `out` with no split to undo.
///
/// Returns the head block's (hook-processed) output.
///
/// # Panics
///
/// Panics if an intermediate output's row count does not match the
/// predecessor's `num_dst() + num_edges()`.
pub fn aggregate(head: &TBlock, key: &str, mut f: impl FnMut(&TBlock) -> Tensor) -> Tensor {
    // Collect the chain head..=tail.
    let mut chain = vec![head.clone()];
    while let Some(next) = chain.last().expect("nonempty").next() {
        chain.push(next);
    }
    for blk in chain.iter().rev() {
        let out = f(blk);
        let out = blk.run_hooks(out);
        match blk.prev() {
            Some(prev) => {
                let nd = prev.num_dst();
                let ne = prev.num_edges();
                assert_eq!(
                    out.dim(0),
                    nd + ne,
                    "aggregate: layer output rows ({}) != predecessor dst+edges ({nd}+{ne})",
                    out.dim(0)
                );
                let _phase = tgl_obs::span("aggregate");
                prev.set_dstdata_rows(key, out.clone(), Some((0..nd).collect()));
                prev.set_srcdata_rows(key, out, Some((nd..nd + ne).collect()));
            }
            None => return out,
        }
    }
    unreachable!("chain iteration always returns at the head block")
}

/// Push-style propagation (paper §3.3): applies `f` to each block from
/// the given one toward the tail of the chain.
///
/// "The propagate() operator does the push-style where it starts at
/// the given block and works its way toward the tail of the list. This
/// propagation pattern is useful for the APAN model."
pub fn propagate(start: &TBlock, mut f: impl FnMut(&TBlock)) {
    let mut cur = Some(start.clone());
    while let Some(blk) = cur {
        f(&blk);
        cur = blk.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{op, TBlock, TContext, TSampler};
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;

    fn setup() -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(
            5,
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0), (0, 2, 5.0)],
        ));
        g.set_node_feats(Tensor::from_vec(
            (0..5).map(|v| v as f32).collect(),
            [5, 1],
        ));
        let ctx = TContext::new(Arc::clone(&g));
        (g, ctx)
    }

    /// A simple "layer": dst value + sum of neighbor values.
    fn sum_layer(blk: &TBlock) -> Tensor {
        let nbr = op::edge_reduce(blk, &blk.srcdata("h"), op::ReduceOp::Sum);
        blk.dstdata("h").add(&nbr)
    }

    #[test]
    fn single_block_aggregate_runs_hooks_and_returns() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        TSampler::new(10, SamplingStrategy::Recent).sample(&blk);
        blk.set_dstdata("h", blk.dstfeat());
        blk.set_srcdata("h", blk.srcfeat());
        let out = aggregate(&blk, "h", sum_layer);
        // node 2's earlier neighbors: 1@2, 3@3, 0@5 -> 2 + (1+3+0) = 6
        assert_eq!(out.to_vec(), vec![6.0]);
    }

    #[test]
    fn two_hop_aggregate_propagates_between_blocks() {
        let (_g, ctx) = setup();
        let sampler = TSampler::new(10, SamplingStrategy::Recent);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        sampler.sample(&head);
        let tail = head.next_block();
        sampler.sample(&tail);
        tail.set_dstdata("h", tail.dstfeat());
        tail.set_srcdata("h", tail.srcfeat());
        let out = aggregate(&head, "h", sum_layer);
        assert_eq!(out.dim(0), 1);
        // The head's inputs are the tail's output rows, not copies.
        let (nd, ne) = (head.num_dst(), head.num_edges());
        let (dst, dst_rows) = head.dstdata_rows("h");
        let (src, src_rows) = head.srcdata_rows("h");
        assert_eq!((dst.id(), dst.dim(0)), (src.id(), nd + ne));
        assert_eq!((dst_rows, src_rows), (Some((0..nd).collect()), Some((nd..nd + ne).collect())));
        // Hand-computed 2-hop result:
        // layer-1 value of node v at time t: v + sum(earlier nbrs of v)
        // head dst = 2@9: nbrs = 1@2, 3@3, 0@5
        //   l1(2@9)= 2 + (1+3+0) = 6
        //   l1(1@2)= 1 + 0 (nbr 0@1) = 1        [0 at t<2: edge 0-1@1 -> nbr 0]
        //   l1(3@3)= 3 + 2 (nbr 2@3? strictly before 3 -> edge 2-3@3 excluded; 3 has no earlier)
        // Recompute carefully below via independent code instead:
        let expected = {
            let g = head.graph();
            let csr = g.tcsr();
            let l1 = |v: u32, t: f64| -> f32 {
                let (nbrs, _, _) = csr.neighbors_before(v, t);
                v as f32 + nbrs.iter().map(|&n| n as f32).sum::<f32>()
            };
            let (nbrs, _, times) = csr.neighbors_before(2, 9.0);
            l1(2, 9.0)
                + nbrs
                    .iter()
                    .zip(times)
                    .map(|(&n, &t)| l1(n, t))
                    .sum::<f32>()
        };
        assert_eq!(out.to_vec(), vec![expected]);
    }

    #[test]
    fn aggregate_with_dedup_matches_without() {
        // Semantic preservation: dedup'd aggregation == plain aggregation.
        let (_g, ctx) = setup();
        let sampler = TSampler::new(10, SamplingStrategy::Recent);
        let dsts = vec![2u32, 2, 3, 2];
        let times = vec![9.0, 9.0, 9.0, 9.0];

        let run = |use_dedup: bool| -> Vec<f32> {
            let head = TBlock::new(&ctx, 0, dsts.clone(), times.clone());
            if use_dedup {
                op::dedup(&head);
            }
            sampler.sample(&head);
            let tail = head.next_block();
            if use_dedup {
                op::dedup(&tail);
            }
            sampler.sample(&tail);
            tail.set_dstdata("h", tail.dstfeat());
            tail.set_srcdata("h", tail.srcfeat());
            aggregate(&head, "h", sum_layer).to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn propagate_visits_whole_chain_in_order() {
        let (_g, ctx) = setup();
        let sampler = TSampler::new(2, SamplingStrategy::Recent);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        sampler.sample(&head);
        let tail = head.next_block();
        sampler.sample(&tail);
        let mut layers = Vec::new();
        propagate(&head, |b| layers.push(b.layer()));
        assert_eq!(layers, vec![0, 1]);
    }
}
