//! Chain construction and prefetch plans.
//!
//! [`build_chain`] is the one place a batch's block chain is built:
//! `block` → `dedup` → `[cache]` → `sample` per layer, then `preload`.
//! Models call it from `forward`. Without `cache` (an inference-only
//! operator) everything it does is a function of the batch and the
//! model's [`SamplingSpec`], never of parameters or node memory, so
//! the same work can run ahead of the optimizer.
//!
//! The pipelined trainer does exactly that: it computes batch N+1's
//! negative draws, per-layer dedup, temporal neighbor sampling and
//! host-to-device feature staging on a sampler stage while batch N
//! runs forward/backward on the compute stage. [`TBlock`]s are
//! `Rc`-based and cannot cross threads, so the sampler stage ships a
//! [`BatchPlan`] instead: plain vectors plus the staged feature
//! *tables* (distinct rows on the compute device and the slot layout,
//! not one expanded tensor per block). On the compute stage
//! [`build_chain`] rebuilds the chain by replaying the plan.
//!
//! # Determinism and counter contract
//!
//! [`build_plan`] runs the same loop as an inline [`build_chain`]:
//! dedup is a pure function of the destination list, and temporal
//! sampling seeds one RNG stream per destination from the sampler
//! seed, so the plan built on another thread is bitwise identical to
//! what the sequential path would have computed. Every observability
//! counter for this work (`dedup.*`, `sampler.*`, `preload.*`,
//! `transfer.*`) fires exactly once — at build time, on the sampler
//! stage — and the replay is counter-silent, so pipelined counter
//! totals match the sequential trainer's.

use tgl_sampler::{NeighborSample, TemporalSampler};

use crate::{op, TBatch, TBlock, TContext};

/// The sampling/staging recipe of a model — everything chain
/// construction needs besides the batch, so [`build_plan`] can run it
/// off the compute thread.
#[derive(Debug, Clone)]
pub struct SamplingSpec {
    /// Blocks in the chain (message-passing layers).
    pub n_layers: usize,
    /// Apply `op::dedup` to each block before sampling.
    pub dedup: bool,
    /// Stage features through the pinned pool (`op::preload`). When
    /// false, features stay lazy and load on the compute stage exactly
    /// as the sequential path would.
    pub preload_pinned: bool,
    /// The model's sampler engine (its seed makes sampling a pure
    /// function of the destination list).
    pub sampler: TemporalSampler,
}

/// One block's worth of prefetched work.
#[derive(Debug)]
struct LayerPlan {
    /// `Some` only when dedup actually shrank the destination list.
    dedup: Option<op::Replacement>,
    nbrs: NeighborSample,
}

/// The full prefetched work for one batch: per-layer dedup and
/// neighborhoods, plus the chain's staged feature tables.
#[derive(Debug)]
pub struct BatchPlan {
    layers: Vec<LayerPlan>,
    /// `Some` when the spec preloads.
    staged: Option<op::Staged>,
}

impl BatchPlan {
    /// Replays layer `i`'s prefetched work onto a freshly built block:
    /// dedup replacement + inversion hook, sampled neighborhood, and
    /// the block's feature rows expanded out of the staged tables (on
    /// the calling thread, so a queued plan holds tables only). Fires
    /// no counters — they already fired at build time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the block's destination list
    /// does not match what the plan was built from (a determinism
    /// violation).
    fn apply_layer(&self, i: usize, blk: &TBlock) {
        let layer = &self.layers[i];
        if let Some((nodes, times, inverse)) = &layer.dedup {
            op::dedup_apply(blk, nodes.clone(), times.clone(), inverse.clone());
        }
        blk.set_neighborhood(layer.nbrs.clone());
        if let Some(staged) = &self.staged {
            staged.fill(i, blk);
        }
    }
}

/// The chain-construction loop: one `fill` per layer on that layer's
/// still-unsampled block, starting at `head`. `fill` must leave the
/// block sampled so the next block can be derived from it.
fn chain(head: &TBlock, n_layers: usize, mut fill: impl FnMut(usize, &TBlock)) {
    let mut tail = head.clone();
    for i in 0..n_layers {
        if i > 0 {
            tail = tail.next_block();
        }
        fill(i, &tail);
    }
}

/// The batch's head block, built under the `prep_batch` phase.
fn head_block(ctx: &TContext, batch: &TBatch) -> TBlock {
    let _prep = crate::prof::scope("prep_batch");
    batch.block(ctx)
}

/// One layer built from scratch: `dedup` → `[cache]` → `sample`.
/// Returns the dedup replacement for a plan to record.
fn sample_layer(
    ctx: &TContext,
    blk: &TBlock,
    spec: &SamplingSpec,
    cache: bool,
) -> Option<op::Replacement> {
    let dedup = if spec.dedup {
        op::dedup_planned(blk)
    } else {
        None
    };
    if cache {
        op::cache(ctx, blk);
    }
    let _s = crate::prof::scope("sample").stage(tgl_obs::Stage::Sample);
    let csr = blk.graph().tcsr();
    let nbrs = blk.with_dst(|nodes, times| spec.sampler.sample(&csr, nodes, times));
    blk.set_neighborhood(nbrs);
    dedup
}

/// Builds the block chain of `batch` and returns its head: per layer
/// `block` → `dedup` → `[cache]` → `sample`, then `preload`, as `spec`
/// says (paper Listing 2). `cache` applies `op::cache` to every block
/// (inference only: it filters destinations by what the embedding
/// cache holds, which depends on the parameters).
///
/// When the batch carries a prefetch plan and `cache` is off, chain
/// construction is a pure function of the batch, so the plan is
/// replayed instead — dedup, sampling and feature staging already
/// happened, and were counted, where the plan was built. The replay is
/// bitwise identical to the inline construction.
pub fn build_chain(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec, cache: bool) -> TBlock {
    if let (Some(plan), false) = (batch.plan(), cache) {
        // The prep_batch phase fired where the plan was built; the
        // cheap rebuild here stays unscoped so the phase breakdown
        // counts that work once.
        let head = batch.block(ctx);
        chain(&head, spec.n_layers, |i, blk| plan.apply_layer(i, blk));
        return head;
    }
    let head = head_block(ctx, batch);
    chain(&head, spec.n_layers, |_, blk| {
        sample_layer(ctx, blk, spec, cache);
    });
    if spec.preload_pinned {
        let _p = crate::prof::scope("preload").stage(tgl_obs::Stage::Transfer);
        op::preload(ctx, &head, true);
    }
    head
}

/// Builds the prefetch plan for `batch` by running the model's chain
/// construction on the calling thread (the pipelined trainer calls
/// this from its sampler stage). The local block chain is thrown away
/// without ever expanding its features; only `Send` data survives in
/// the plan.
pub fn build_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> BatchPlan {
    let head = head_block(ctx, batch);
    let mut layers = Vec::with_capacity(spec.n_layers);
    chain(&head, spec.n_layers, |_, blk| {
        let dedup = sample_layer(ctx, blk, spec, false);
        layers.push(LayerPlan {
            dedup,
            nbrs: blk.with_nbrs(Clone::clone),
        });
    });
    let staged = spec.preload_pinned.then(|| {
        let _p = crate::prof::scope("preload").stage(tgl_obs::Stage::Transfer);
        op::stage(ctx, &head, true)
    });
    BatchPlan { layers, staged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TContext;
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;
    use tgl_tensor::Tensor;

    fn setup() -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(
            6,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (0, 2, 4.0),
                (1, 3, 5.0),
                (3, 4, 6.0),
            ],
        ));
        g.set_node_feats(Tensor::from_vec((0..12).map(|v| v as f32).collect(), [6, 2]));
        g.set_edge_feats(Tensor::from_vec((0..6).map(|v| v as f32).collect(), [6, 1]));
        let ctx = TContext::new(Arc::clone(&g));
        (g, ctx)
    }

    fn spec(dedup: bool, preload: bool) -> SamplingSpec {
        SamplingSpec {
            n_layers: 2,
            dedup,
            preload_pinned: preload,
            sampler: TemporalSampler::new(3, SamplingStrategy::Recent).with_seed(7),
        }
    }

    /// Inline construction: what a model's `forward` does at depth 0.
    fn build_sequential(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        assert!(batch.plan().is_none());
        build_chain(ctx, batch, spec, false)
    }

    /// Plan-style: build on one "thread", replay onto a fresh chain.
    fn build_via_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        let mut planned = batch.clone();
        planned.set_plan(Arc::new(build_plan(ctx, batch, spec)));
        build_chain(ctx, &planned, spec, false)
    }

    fn assert_chains_identical(a: &TBlock, b: &TBlock) {
        let (mut ca, mut cb) = (Some(a.clone()), Some(b.clone()));
        while let (Some(x), Some(y)) = (&ca, &cb) {
            assert_eq!(x.dst_nodes(), y.dst_nodes());
            assert_eq!(x.dst_times(), y.dst_times());
            assert_eq!(x.src_nodes(), y.src_nodes());
            assert_eq!(x.src_times(), y.src_times());
            assert_eq!(x.eids(), y.eids());
            assert_eq!(x.dst_index(), y.dst_index());
            assert_eq!(x.num_hooks(), y.num_hooks());
            let (nx, ny) = (x.next(), y.next());
            ca = nx;
            cb = ny;
        }
        assert!(ca.is_none() && cb.is_none(), "chain lengths differ");
    }

    #[test]
    fn plan_rebuild_matches_sequential_chain() {
        for (dedup, preload) in [(false, false), (true, false), (true, true)] {
            let (g, ctx) = setup();
            let mut batch = TBatch::new(Arc::clone(&g), 2..6);
            batch.set_negatives(vec![4, 5, 4, 5]);
            let s = spec(dedup, preload);
            let seq = build_sequential(&ctx, &batch, &s);
            let via = build_via_plan(&ctx, &batch, &s);
            assert_chains_identical(&seq, &via);
        }
    }

    #[test]
    fn staged_features_match_lazy_loads() {
        let (g, ctx) = setup();
        let mut batch = TBatch::new(Arc::clone(&g), 2..6);
        batch.set_negatives(vec![4, 5, 4, 5]);
        let s = spec(true, true);
        let seq = build_sequential(&ctx, &batch, &s);
        let via = build_via_plan(&ctx, &batch, &s);
        let (seq_tail, via_tail) = (seq.tail(), via.tail());
        assert_eq!(seq_tail.dstfeat().to_vec(), via_tail.dstfeat().to_vec());
        assert_eq!(seq_tail.srcfeat().to_vec(), via_tail.srcfeat().to_vec());
        assert_eq!(seq.efeat().to_vec(), via.efeat().to_vec());
    }

    #[test]
    fn staged_deltas_are_delta_times_inline_and_replayed() {
        let (g, ctx) = setup();
        let mut batch = TBatch::new(Arc::clone(&g), 2..6);
        batch.set_negatives(vec![4, 5, 4, 5]);
        let s = spec(true, true);
        let bits = |v: Vec<f32>| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for head in [build_sequential(&ctx, &batch, &s), build_via_plan(&ctx, &batch, &s)] {
            let blocks: Vec<TBlock> = std::iter::successors(Some(head), TBlock::next).collect();
            assert_eq!(blocks.len(), 2);
            for blk in blocks {
                assert!(blk.num_edges() > 0, "block {} sampled nothing", blk.layer());
                assert_eq!(bits(blk.deltas().to_vec()), bits(blk.delta_times()));
            }
        }
    }

    #[test]
    fn plan_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BatchPlan>();
        assert_send::<SamplingSpec>();
    }
}
