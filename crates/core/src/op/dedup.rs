//! The deduplication optimization operator.

use std::collections::HashMap;

use tgl_graph::{NodeId, Time};

use crate::block::BlockHook;
use crate::TBlock;

/// Filters the block's destination `(node, time)` pairs to unique ones
/// and registers a hook that re-expands computed outputs to the
/// original row layout — a semantic-preserving transformation
/// ("deduplication filters out duplicates to ensure embeddings are only
/// computed for unique node-time pairs", paper §2).
///
/// Must be applied *before* sampling so that downstream subgraphs
/// shrink too. Returns the same block for chaining. When all pairs are
/// already unique, the block is left untouched (no hook).
///
/// # Panics
///
/// Panics if the block already has a sampled neighborhood.
pub fn dedup(blk: &TBlock) -> TBlock {
    dedup_planned(blk);
    blk.clone()
}

/// A dedup replacement: the unique `(nodes, times)` destination list
/// plus the `inverse` row mapping back to the original layout.
pub(crate) type Replacement = (Vec<NodeId>, Vec<Time>, Vec<usize>);

/// Like [`dedup`], but also returns the replacement when one actually
/// happened, so a prefetch plan can replay it later with
/// [`dedup_apply`]. Counters fire here (once).
pub(crate) fn dedup_planned(blk: &TBlock) -> Option<Replacement> {
    assert!(
        !blk.has_nbrs(),
        "dedup must be applied before sampling the neighborhood"
    );
    let (uniq_nodes, uniq_times, inverse) = blk.with_dst(compute);
    tgl_obs::counter!("dedup.rows_in").add(inverse.len() as u64);
    tgl_obs::counter!("dedup.rows_saved").add((inverse.len() - uniq_nodes.len()) as u64);
    tgl_obs::insight::observe_dedup(inverse.len() as u64, (inverse.len() - uniq_nodes.len()) as u64);
    if uniq_nodes.len() == inverse.len() {
        return None; // already unique — nothing to do
    }
    dedup_apply(blk, uniq_nodes.clone(), uniq_times.clone(), inverse.clone());
    Some((uniq_nodes, uniq_times, inverse))
}

/// Applies a precomputed dedup replacement: swaps in the unique
/// destination list and registers the inversion hook. Fires no
/// counters — the plan-apply path, where [`dedup_planned`] already
/// counted this work on the sampler stage.
pub(crate) fn dedup_apply(blk: &TBlock, nodes: Vec<NodeId>, times: Vec<Time>, inverse: Vec<usize>) {
    blk.replace_dst(nodes, times);
    blk.register_hook(BlockHook::new("dedup-invert", move |out| {
        let _phase = crate::prof::scope("dedup");
        out.index_select(&inverse)
    }));
}

/// The pure dedup computation: unique `(node, time)` pairs in
/// first-appearance order plus the inverse row mapping.
fn compute(nodes: &[NodeId], times: &[Time]) -> Replacement {
    let mut seen: HashMap<(NodeId, u64), usize> = HashMap::with_capacity(nodes.len());
    let mut uniq_nodes: Vec<NodeId> = Vec::new();
    let mut uniq_times: Vec<Time> = Vec::new();
    let mut inverse = Vec::with_capacity(nodes.len());
    for (&n, &t) in nodes.iter().zip(times) {
        let key = (n, t.to_bits());
        let pos = *seen.entry(key).or_insert_with(|| {
            uniq_nodes.push(n);
            uniq_times.push(t);
            uniq_nodes.len() - 1
        });
        inverse.push(pos);
    }
    (uniq_nodes, uniq_times, inverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TContext, TSampler};
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;
    use tgl_tensor::Tensor;

    fn ctx() -> TContext {
        TContext::new(Arc::new(TemporalGraph::from_edges(
            5,
            vec![(0, 1, 1.0), (1, 2, 2.0)],
        )))
    }

    #[test]
    fn removes_duplicates_and_restores_layout() {
        let ctx = ctx();
        let blk = TBlock::new(&ctx, 0, vec![3, 1, 3, 1, 2], vec![5.0, 5.0, 5.0, 5.0, 5.0]);
        dedup(&blk);
        assert_eq!(blk.dst_nodes(), vec![3, 1, 2]);
        assert_eq!(blk.num_hooks(), 1);
        // Simulate per-unique-row outputs 10, 20, 30.
        let out = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3, 1]);
        let restored = blk.run_hooks(out);
        assert_eq!(restored.to_vec(), vec![10.0, 20.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn same_node_different_time_not_merged() {
        let ctx = ctx();
        let blk = TBlock::new(&ctx, 0, vec![1, 1], vec![5.0, 6.0]);
        dedup(&blk);
        assert_eq!(blk.num_dst(), 2);
        assert_eq!(blk.num_hooks(), 0);
    }

    #[test]
    fn already_unique_is_noop() {
        let ctx = ctx();
        let blk = TBlock::new(&ctx, 0, vec![0, 1, 2], vec![5.0, 5.0, 5.0]);
        dedup(&blk);
        assert_eq!(blk.num_dst(), 3);
        assert_eq!(blk.num_hooks(), 0);
    }

    #[test]
    #[should_panic(expected = "before sampling")]
    fn after_sampling_panics() {
        let ctx = ctx();
        let blk = TBlock::new(&ctx, 0, vec![1, 1], vec![5.0, 5.0]);
        TSampler::new(2, SamplingStrategy::Recent).sample(&blk);
        dedup(&blk);
    }

    #[test]
    fn dedup_invert_is_identity_composition() {
        // dedup ∘ invert == identity on arbitrary duplicated layouts.
        let ctx = ctx();
        let nodes = vec![4, 4, 0, 2, 0, 4];
        let times = vec![3.0, 3.0, 3.0, 7.0, 3.0, 3.0];
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        dedup(&blk);
        // Identity function on unique rows: output row i = unique node id.
        let vals: Vec<f32> = blk.dst_nodes().iter().map(|&n| n as f32).collect();
        let k = vals.len();
        let restored = blk.run_hooks(Tensor::from_vec(vals, [k, 1]));
        let expect: Vec<f32> = nodes.iter().map(|&n| n as f32).collect();
        assert_eq!(restored.to_vec(), expect);
    }
}
