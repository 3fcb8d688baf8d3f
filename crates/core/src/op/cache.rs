//! The memoization (embedding cache) optimization operator.

use tgl_tensor::Tensor;

use crate::block::BlockHook;
use crate::{TBlock, TContext};

/// Memoizes computed embeddings per `(layer, node, time)` key
/// (the paper's `cache()` operator, after TGOpt).
///
/// Looks up the block's destination pairs in the context's embedding
/// cache; cached pairs are removed from the destination list (so they
/// are neither sampled nor recomputed) and a hook is registered that
/// (1) stores freshly computed rows into the cache and (2) merges
/// cached and computed rows back into the original layout — "thus
/// avoiding repeated computations for cached embeddings and retaining
/// expected output semantics" (§3.3).
///
/// The lookup copies every cached row straight to its place in the
/// merged output and the hook fills in the computed rows around them
/// and stores them from the layer output; the cache's lock is taken
/// once for the lookup and once for the store.
///
/// Intended for inference: memoization across parameter updates would
/// serve stale embeddings, so call [`TContext::clear_caches`] after
/// training steps (the paper likewise enables `cache()` only at
/// inference).
///
/// # Panics
///
/// Panics if the block already has a sampled neighborhood.
pub fn cache(ctx: &TContext, blk: &TBlock) -> TBlock {
    assert!(
        !blk.has_nbrs(),
        "cache must be applied before sampling the neighborhood"
    );
    let _phase = crate::prof::scope("cache");
    let layer = blk.layer();
    let (nodes, times) = (blk.dst_nodes(), blk.dst_times());
    let n = nodes.len();

    let device = blk.device();
    let (hit, mut merged) = {
        let _prof = tgl_obs::profile::op("cache_lookup").shape(&[&[n]]);
        ctx.embed_cache().lookup(layer, &nodes, &times, device)
    };
    let mut miss_positions: Vec<usize> = (0..n).filter(|&i| !hit[i]).collect();
    tgl_obs::counter!("cache.hits").add((n - miss_positions.len()) as u64);
    tgl_obs::counter!("cache.misses").add(miss_positions.len() as u64);

    let miss_nodes: Vec<_> = miss_positions.iter().map(|&i| nodes[i]).collect();
    let miss_times: Vec<_> = miss_positions.iter().map(|&i| times[i]).collect();
    if miss_positions.len() < n {
        blk.replace_dst(miss_nodes.clone(), miss_times.clone());
    }

    let store = ctx.embed_cache_arc();
    blk.register_hook(BlockHook::new("cache-merge", move |out: Tensor| {
        let _phase = crate::prof::scope("cache");
        let width: usize = out.dims()[1..].iter().product();
        {
            let _prof = tgl_obs::profile::op("cache_store")
                .io(4 * out.numel() as u64, 4 * out.numel() as u64)
                .shape(&[out.dims()]);
            out.with_data(|rows| store.store(layer, &miss_nodes, &miss_times, rows, width));
        }
        if miss_positions.len() == n {
            return out; // nothing was cached: the layout is already the original
        }
        let _prof = tgl_obs::profile::op("cache_merge")
            .io(4 * out.numel() as u64, 4 * out.numel() as u64)
            .shape(&[out.dims(), &[n]])
            .backward_cost(0, 4 * out.numel() as u64, 4 * out.numel() as u64);
        let mut merged = std::mem::take(&mut merged);
        assert_eq!(merged.len(), n * width, "cached row width changed between runs");
        out.with_data(|rows| {
            for (row, &i) in rows.chunks_exact(width.max(1)).zip(&miss_positions) {
                merged[i * width..][..width].copy_from_slice(row);
            }
        });
        let mut dims = out.dims().to_vec();
        dims[0] = n;
        // The computed rows pass their gradient straight through; the
        // cached rows are constants.
        let (positions, out_len) = (std::mem::take(&mut miss_positions), out.numel());
        Tensor::custom_op(&[out], merged, dims, move |g| {
            let mut back = tgl_tensor::pool::take_uninit(out_len, device);
            for (row, &i) in back.chunks_exact_mut(width.max(1)).zip(&positions) {
                row.copy_from_slice(&g[i * width..][..width]);
            }
            vec![Some(back)]
        })
    }));
    blk.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TContext;
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;

    fn ctx() -> TContext {
        TContext::new(Arc::new(TemporalGraph::from_edges(
            5,
            vec![(0, 1, 1.0), (1, 2, 2.0)],
        )))
    }

    #[test]
    fn first_pass_stores_second_pass_hits() {
        let ctx = ctx();
        // Pass 1: all misses.
        let blk = TBlock::new(&ctx, 0, vec![1, 2], vec![5.0, 5.0]);
        cache(&ctx, &blk);
        assert_eq!(blk.num_dst(), 2, "no hits yet; dst unchanged");
        let out = Tensor::from_vec(vec![10.0, 11.0, 20.0, 21.0], [2, 2]);
        let restored = blk.run_hooks(out);
        assert_eq!(restored.to_vec(), vec![10.0, 11.0, 20.0, 21.0]);
        let (hits, _) = ctx.embed_cache().stats();
        assert_eq!(hits, 0);

        // Pass 2: node 2 cached, node 3 new.
        let blk2 = TBlock::new(&ctx, 0, vec![2, 3], vec![5.0, 5.0]);
        cache(&ctx, &blk2);
        assert_eq!(blk2.dst_nodes(), vec![3], "hit removed from dst");
        let out2 = Tensor::from_vec(vec![30.0, 31.0], [1, 2]);
        let restored2 = blk2.run_hooks(out2);
        // original layout: row for node 2 (cached), row for node 3 (fresh)
        assert_eq!(restored2.to_vec(), vec![20.0, 21.0, 30.0, 31.0]);
    }

    #[test]
    fn all_hits_yields_empty_dst() {
        let ctx = ctx();
        ctx.embed_cache().put(0, 4, 9.0, &[7.0]);
        let blk = TBlock::new(&ctx, 0, vec![4], vec![9.0]);
        cache(&ctx, &blk);
        assert_eq!(blk.num_dst(), 0);
        let restored = blk.run_hooks(Tensor::zeros([0, 1]));
        assert_eq!(restored.to_vec(), vec![7.0]);
    }

    #[test]
    fn layer_keys_are_distinct() {
        let ctx = ctx();
        ctx.embed_cache().put(0, 1, 5.0, &[1.0]);
        let blk = TBlock::new(&ctx, 1, vec![1], vec![5.0]);
        cache(&ctx, &blk);
        assert_eq!(blk.num_dst(), 1, "layer-1 lookup must miss layer-0 entry");
    }

    #[test]
    fn layers_may_differ_in_output_width() {
        // A model whose layers emit different widths shares the
        // context's one cache: each layer merges at its own width.
        let ctx = ctx();
        for pass in 0..2 {
            for (layer, width) in [(0usize, 2usize), (1, 3)] {
                let blk = TBlock::new(&ctx, layer, vec![1, 2 + pass], vec![5.0, 5.0]);
                cache(&ctx, &blk);
                let k = blk.num_dst();
                assert_eq!(k, 2 - pass as usize, "node 1 is cached on the second pass");
                let fresh: Vec<f32> = blk
                    .dst_nodes()
                    .iter()
                    .flat_map(|&n| vec![(10 * layer + n as usize) as f32; width])
                    .collect();
                let out = blk.run_hooks(Tensor::from_vec(fresh, [k, width]));
                let want: Vec<f32> = [1, 2 + pass]
                    .iter()
                    .flat_map(|&n| vec![(10 * layer + n as usize) as f32; width])
                    .collect();
                assert_eq!(out.dims(), &[2, width]);
                assert_eq!(out.to_vec(), want);
            }
        }
    }

    #[test]
    fn semantic_preservation_random_layout() {
        // cache() + hooks must reproduce exactly what an uncached
        // computation produces, for a deterministic row function.
        let ctx = ctx();
        let f = |nodes: &[tgl_graph::NodeId]| -> Vec<f32> {
            nodes.iter().flat_map(|&n| [n as f32, n as f32 * 10.0]).collect()
        };
        // Warm the cache with nodes 1 and 2.
        let blk = TBlock::new(&ctx, 0, vec![1, 2], vec![3.0, 3.0]);
        cache(&ctx, &blk);
        let rows = f(&blk.dst_nodes());
        let k = blk.num_dst();
        blk.run_hooks(Tensor::from_vec(rows, [k, 2]));

        // Mixed query.
        let query = vec![2u32, 0, 1, 3];
        let blk2 = TBlock::new(&ctx, 0, query.clone(), vec![3.0; 4]);
        cache(&ctx, &blk2);
        assert!(blk2.num_dst() < 4, "some hits expected");
        let rows2 = f(&blk2.dst_nodes());
        let k2 = blk2.num_dst();
        let restored = blk2.run_hooks(Tensor::from_vec(rows2, [k2, 2]));
        assert_eq!(restored.to_vec(), f(&query), "optimized != unoptimized");
    }

    #[test]
    #[should_panic(expected = "before sampling")]
    fn after_sampling_panics() {
        let ctx = ctx();
        let blk = TBlock::new(&ctx, 0, vec![1], vec![5.0]);
        crate::TSampler::new(2, tgl_sampler::SamplingStrategy::Recent).sample(&blk);
        cache(&ctx, &blk);
    }
}
