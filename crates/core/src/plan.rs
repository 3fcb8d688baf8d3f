//! Chain construction, inline or ahead of the step.
//!
//! One private builder makes a batch's block chain: `block` → `dedup` →
//! `[cache]` → `sample` per layer, then `preload`, or without it TGL's
//! eager per-tensor staging (the `tgl` framework). Models call
//! [`build_chain`] first thing in `forward`. Without `cache` (an
//! inference-only operator that reads the embedding cache, hence the
//! parameters) everything the builder does is a function of the batch
//! and the model's [`SamplingSpec`], never of parameters or node
//! memory, so the same call can run ahead of the optimizer.
//!
//! The pipelined trainer does exactly that: its sampler stage draws
//! batch N+1's negatives and calls [`build_plan`], which runs the
//! builder there and wraps the finished chain as a [`BatchPlan`]
//! ([`TBlock`] is `Send`), while batch N runs forward/backward on the
//! compute stage. `build_chain` then finds the chain on the batch and
//! takes it instead of building one.
//!
//! # Determinism and counter contract
//!
//! Dedup is a pure function of the destination list, and temporal
//! sampling seeds one RNG stream per destination from the sampler
//! seed, so a chain built on another thread is bitwise the chain the
//! compute thread would have built. Every observability counter and
//! phase of this work (`dedup.*`, `sampler.*`, `preload.*`,
//! `transfer.*`; `prep_batch`, `sample`, `preload`, `feature_load`)
//! fires exactly once, where the chain is built; taking a prepared
//! chain fires nothing, so pipelined counter totals match the
//! sequential trainer's.

use tgl_runtime::sync::Mutex;
use tgl_sampler::TemporalSampler;

use crate::{op, TBatch, TBlock, TContext};

/// The sampling/staging recipe of a model — everything chain
/// construction needs besides the batch, so [`build_plan`] can run it
/// off the compute thread.
#[derive(Debug, Clone)]
pub struct SamplingSpec {
    /// Sampled blocks in the chain (message-passing layers); 0 leaves
    /// the unsampled head block only.
    pub n_layers: usize,
    /// Apply `op::dedup` to each block before sampling.
    pub dedup: bool,
    /// Stage features as `op::preload` does (distinct rows, pinned). When
    /// false, the chain is staged the way TGL stages its message-flow
    /// graphs: every block's tensors are loaded one by one over the
    /// pageable path while the chain is built, and kept for the batch.
    pub preload_pinned: bool,
    /// The model's sampler engine (its seed makes sampling a pure
    /// function of the destination list).
    pub sampler: TemporalSampler,
}

/// A built chain in transit from the thread that prepared it to the
/// `forward` that consumes it. What it keeps on the device tier is what
/// `op::preload` staged (distinct rows and time deltas), which blocks
/// expand on first read, on the consuming thread; or, unpinned, every
/// block's tensors in full.
#[derive(Debug)]
pub struct BatchPlan {
    /// Taken by the first [`build_chain`]: hooks and named data make a
    /// chain single-use.
    head: Mutex<Option<TBlock>>,
}

/// The one chain-construction loop.
fn build(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec, cache: bool) -> TBlock {
    let head = {
        let _prep = tgl_obs::span("prep_batch");
        batch.block(ctx)
    };
    let mut tail = head.clone();
    for i in 0..spec.n_layers {
        if i > 0 {
            tail = tail.next_block();
        }
        if spec.dedup {
            op::dedup(&tail);
        }
        if cache {
            op::cache(ctx, &tail);
        }
        let _s = tgl_obs::span("sample").stage(tgl_obs::Stage::Sample);
        let csr = tail.graph().tcsr();
        let nbrs = tail.with_dst(|nodes, times| spec.sampler.sample(&csr, nodes, times));
        tail.set_neighborhood(nbrs);
    }
    if spec.preload_pinned {
        let _p = tgl_obs::span("preload").stage(tgl_obs::Stage::Transfer);
        op::preload(ctx, &head);
    } else {
        // An MFG's eager materialization (paper §3.2): each tensor of
        // each block crosses on its own, however many rows repeat.
        let _f = tgl_obs::span("feature_load").stage(tgl_obs::Stage::Transfer);
        for blk in head.chain() {
            blk.dstfeat();
            if blk.has_nbrs() {
                blk.srcfeat();
                blk.efeat();
                blk.deltas();
            }
        }
    }
    head
}

/// The block chain of `batch`, head first: per layer `block` → `dedup`
/// → `[cache]` → `sample`, then `preload`, as `spec` says (paper
/// Listing 2). `cache` applies `op::cache` to every block (inference
/// only: it filters destinations by what the embedding cache holds,
/// which depends on the parameters).
///
/// When the batch carries a prepared chain ([`build_plan`]) and `cache`
/// is off, that chain is taken: it is bitwise the one this call would
/// build, and its work was counted where it was built. A chain is
/// consumed by its first use; a later call on the same batch builds
/// inline.
pub fn build_chain(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec, cache: bool) -> TBlock {
    let prepared = if cache {
        None
    } else {
        batch.plan().and_then(|plan| plan.head.lock().take())
    };
    prepared.unwrap_or_else(|| build(ctx, batch, spec, cache))
}

/// Builds `batch`'s chain now, on the calling thread (the pipelined
/// trainer's sampler stage), for a later [`build_chain`] to take.
pub fn build_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> BatchPlan {
    BatchPlan {
        head: Mutex::new(Some(build(ctx, batch, spec, false))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TContext;
    use std::sync::Arc;
    use tgl_device::Device;
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

    /// Pipeline-style: prepare the chain on another thread, take it here.
    fn build_via_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        let mut planned = batch.clone();
        let plan = std::thread::scope(|s| {
            s.spawn(|| build_plan(ctx, batch, spec)).join().expect("sampler stage")
        });
        planned.set_plan(Arc::new(plan));
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
            let blocks: Vec<TBlock> = head.chain().collect();
            assert_eq!(blocks.len(), 2);
            for blk in blocks {
                assert!(blk.num_edges() > 0, "block {} sampled nothing", blk.layer());
                assert_eq!(bits(blk.deltas().to_vec()), bits(blk.delta_times()));
            }
        }
    }

    #[test]
    fn unpinned_chain_moves_every_block_tensor_while_it_builds() {
        let _l = crate::testing::link();
        let (g, _) = setup();
        let ctx = TContext::with_device(Arc::clone(&g), Device::Accel);
        let mut batch = TBatch::new(Arc::clone(&g), 2..6);
        batch.set_negatives(vec![4, 5, 4, 5]);
        let pageable = || tgl_obs::metrics::get("transfer.pageable_count");
        let (before, paged) = (tgl_device::stats(), pageable());
        let head = build_sequential(&ctx, &batch, &spec(false, false));
        let (built, paged_built) = (tgl_device::stats(), pageable());

        // Per sampled block: dst, src and edge rows and the deltas, one
        // transfer each, every slot's row shipped however often it repeats.
        let blocks: Vec<TBlock> = head.chain().collect();
        assert_eq!(blocks.len(), 2);
        let (dn, de) = (g.node_feat_dim(), g.edge_feat_dim());
        let floats: usize = blocks
            .iter()
            .map(|b| {
                assert!(b.num_edges() > 0, "block {} sampled nothing", b.layer());
                b.num_dst() * dn + b.num_edges() * (dn + de + 1)
            })
            .sum();
        assert_eq!(built.h2d_bytes - before.h2d_bytes, 4 * floats as u64);
        assert_eq!(built.transfer_count - before.transfer_count, 4 * blocks.len() as u64);
        assert_eq!(paged_built - paged, 4 * blocks.len() as u64);

        for blk in &blocks {
            for t in [blk.dstfeat(), blk.srcfeat(), blk.efeat(), blk.deltas()] {
                assert_eq!(t.device(), Device::Accel);
            }
        }
        let after_reads = tgl_device::stats().transfer_count;
        assert_eq!(after_reads, built.transfer_count, "a later read crossed the link");
    }

    #[test]
    fn a_prepared_chain_is_taken_once_then_built_inline() {
        let (g, ctx) = setup();
        let mut batch = TBatch::new(Arc::clone(&g), 2..6);
        batch.set_negatives(vec![4, 5, 4, 5]);
        let s = spec(true, true);
        batch.set_plan(Arc::new(build_plan(&ctx, &batch, &s)));
        let first = build_chain(&ctx, &batch, &s, false);
        let second = build_chain(&ctx, &batch, &s, false);
        assert_chains_identical(&first, &second);
        // Two chains, not one handed out twice: a used chain has run
        // its hooks and carries the first pass's named data.
        first.set_dstdata("h", first.dstfeat());
        assert!(!second.has_dstdata("h"));
    }

    #[test]
    fn plan_is_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TBlock>();
        assert_send_sync::<BatchPlan>();
        assert_send_sync::<SamplingSpec>();
    }
}
