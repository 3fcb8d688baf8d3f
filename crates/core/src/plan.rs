//! Prefetch plans: a `Send` description of a batch's sampling work.
//!
//! The pipelined trainer computes batch N+1's expensive, parameter-
//! independent work — negative draws, per-layer dedup, temporal
//! neighbor sampling, and host-to-device feature staging — on a
//! sampler stage while batch N runs forward/backward on the compute
//! stage. [`TBlock`]s are `Rc`-based and cannot cross threads, so the
//! sampler stage ships a [`BatchPlan`] instead: plain vectors plus
//! staged [`Tensor`]s (which are `Send + Sync`). The compute stage
//! rebuilds its block chain and replays the plan with
//! [`BatchPlan::apply_layer`].
//!
//! # Determinism and counter contract
//!
//! [`build_plan`] replicates exactly the chain construction a
//! training-mode forward pass performs (`block` → `dedup` → `sample`
//! per layer, then `preload`): dedup is a pure function of the
//! destination list, and temporal sampling seeds one RNG stream per
//! destination from the sampler seed, so the plan built on another
//! thread is bitwise identical to what the sequential path would have
//! computed. Every observability counter for this work
//! (`dedup.*`, `sampler.*`, `preload.*`, `transfer.*`) fires exactly
//! once — at build time, on the sampler stage — and
//! [`BatchPlan::apply_layer`] is counter-silent, so pipelined counter
//! totals match the sequential trainer's.

use tgl_graph::{NodeId, Time};
use tgl_sampler::{NeighborSample, TemporalSampler};
use tgl_tensor::Tensor;

use crate::{op, TBatch, TBlock, TContext};

/// The training-mode sampling/staging recipe of a model — everything
/// [`build_plan`] needs to replay the model's chain construction off
/// the compute thread.
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

/// A layer's precomputed dedup replacement.
#[derive(Debug)]
struct DedupPlan {
    nodes: Vec<NodeId>,
    times: Vec<Time>,
    inverse: Vec<usize>,
}

/// One block's worth of prefetched work.
#[derive(Debug)]
struct LayerPlan {
    /// `Some` only when dedup actually shrank the destination list.
    dedup: Option<DedupPlan>,
    nbrs: NeighborSample,
    /// Staged `(dst, src, edge)` feature tensors (preload only).
    feats: (Option<Tensor>, Option<Tensor>, Option<Tensor>),
}

/// The full prefetched work for one batch, layer by layer.
#[derive(Debug)]
pub struct BatchPlan {
    layers: Vec<LayerPlan>,
}

impl BatchPlan {
    /// Number of planned layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Replays layer `i`'s prefetched work onto a freshly built block:
    /// dedup replacement + inversion hook, sampled neighborhood, and
    /// staged feature tensors. Fires no counters — they already fired
    /// at build time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the block's destination list
    /// does not match what the plan was built from (a determinism
    /// violation).
    pub fn apply_layer(&self, i: usize, blk: &TBlock) {
        let layer = &self.layers[i];
        if let Some(d) = &layer.dedup {
            op::dedup_apply(blk, d.nodes.clone(), d.times.clone(), d.inverse.clone());
        }
        blk.set_neighborhood(layer.nbrs.clone());
        let (dst, src, edge) = layer.feats.clone();
        blk.install_feat_cache(dst, src, edge);
    }
}

/// Builds the prefetch plan for `batch` by replaying the model's
/// training-mode chain construction on the calling thread (the
/// pipelined trainer calls this from its sampler stage). The local
/// block chain is thrown away; only `Send` data survives in the plan.
pub fn build_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> BatchPlan {
    let prep = crate::prof::scope("prep_batch");
    let head = batch.block(ctx);
    drop(prep);
    let mut tail = head.clone();
    let mut layers = Vec::with_capacity(spec.n_layers);
    for i in 0..spec.n_layers {
        if i > 0 {
            tail = tail.next_block();
        }
        let dedup = if spec.dedup {
            op::dedup_planned(&tail)
                .map(|(nodes, times, inverse)| DedupPlan { nodes, times, inverse })
        } else {
            None
        };
        let nbrs = {
            let _s = crate::prof::scope("sample");
            let csr = tail.graph().tcsr();
            tail.with_dst(|nodes, times| spec.sampler.sample(&csr, nodes, times))
        };
        tail.set_neighborhood(nbrs.clone());
        layers.push(LayerPlan {
            dedup,
            nbrs,
            feats: (None, None, None),
        });
    }
    if spec.preload_pinned {
        let _p = crate::prof::scope("preload");
        op::preload(ctx, &head, true);
        // Harvest the staged tensors preload installed into the local
        // chain; apply_layer re-installs them on the compute stage.
        let mut cur = Some(head);
        let mut i = 0;
        while let Some(blk) = cur {
            if i < layers.len() {
                layers[i].feats = blk.feat_caches();
            }
            cur = blk.next();
            i += 1;
        }
    }
    BatchPlan { layers }
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

    /// Sequential-style chain construction, as `Tgat::embeddings` does
    /// it in training mode.
    fn build_sequential(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        let head = batch.block(ctx);
        let mut tail = head.clone();
        for i in 0..spec.n_layers {
            if i > 0 {
                tail = tail.next_block();
            }
            if spec.dedup {
                op::dedup(&tail);
            }
            let csr = tail.graph().tcsr();
            let nbrs = tail.with_dst(|nodes, times| spec.sampler.sample(&csr, nodes, times));
            tail.set_neighborhood(nbrs);
        }
        if spec.preload_pinned {
            op::preload(ctx, &head, true);
        }
        head
    }

    /// Plan-style: build on one "thread", apply to a fresh chain.
    fn build_via_plan(ctx: &TContext, batch: &TBatch, spec: &SamplingSpec) -> TBlock {
        let plan = build_plan(ctx, batch, spec);
        let head = batch.block(ctx);
        let mut tail = head.clone();
        for i in 0..spec.n_layers {
            if i > 0 {
                tail = tail.next_block();
            }
            plan.apply_layer(i, &tail);
        }
        head
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
    fn plan_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BatchPlan>();
        assert_send::<SamplingSpec>();
    }

    #[test]
    fn apply_is_counter_silent() {
        let (g, ctx) = setup();
        let mut batch = TBatch::new(Arc::clone(&g), 0..4);
        batch.set_negatives(vec![4, 5, 4, 5]);
        let s = spec(true, false);
        let plan = build_plan(&ctx, &batch, &s);
        // The counters are process-global and sibling tests bump them
        // concurrently, so one quiet replay is the proof: if
        // `apply_layer` itself counted, no attempt could come out clean.
        let moved = |_| {
            let before = tgl_obs::metrics::snapshot();
            let head = batch.block(&ctx);
            let mut tail = head.clone();
            for i in 0..s.n_layers {
                if i > 0 {
                    tail = tail.next_block();
                }
                plan.apply_layer(i, &tail);
            }
            let after = tgl_obs::metrics::snapshot();
            before
                .iter()
                .zip(&after)
                .filter(|((name, _), _)| name.starts_with("dedup.") || name.starts_with("sampler."))
                .find(|((_, a), (_, b))| a != b)
                .map(|((name, _), _)| *name)
        };
        let noisy: Vec<&str> = (0..50).map_while(moved).collect();
        assert!(noisy.len() < 50, "apply_layer moved counters on every replay: {noisy:?}");
    }
}
