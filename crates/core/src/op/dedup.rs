//! The deduplication optimization operator.

use tgl_graph::{NodeId, Time};
use tgl_runtime::IntMap;

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
    assert!(
        !blk.has_nbrs(),
        "dedup must be applied before sampling the neighborhood"
    );
    let (uniq_nodes, uniq_times, inverse) = blk.with_dst(compute);
    let saved = (inverse.len() - uniq_nodes.len()) as u64;
    tgl_obs::counter!("dedup.rows_in").add(inverse.len() as u64);
    tgl_obs::counter!("dedup.rows_saved").add(saved);
    tgl_obs::insight::observe_dedup(inverse.len() as u64, saved);
    if saved > 0 {
        blk.replace_dst(uniq_nodes, uniq_times);
        blk.register_hook(BlockHook::new("dedup-invert", move |out| {
            let _phase = crate::prof::scope("dedup");
            out.index_select(&inverse)
        }));
    }
    blk.clone()
}

/// The pure dedup computation: unique `(node, time)` pairs in
/// first-appearance order plus the inverse row mapping.
fn compute(nodes: &[NodeId], times: &[Time]) -> (Vec<NodeId>, Vec<Time>, Vec<usize>) {
    let mut seen: IntMap<(NodeId, u64), usize> = IntMap::with_capacity_and_hasher(nodes.len(), Default::default());
    let keys = nodes.iter().zip(times).map(|(&n, &t)| (n, t.to_bits()));
    let (first, inverse) = first_unique(keys, |key, next| *seen.entry(key).or_insert(next));
    let uniq_nodes = first.iter().map(|&i| nodes[i]).collect();
    let uniq_times = first.iter().map(|&i| times[i]).collect();
    (uniq_nodes, uniq_times, inverse)
}

/// First-appearance unique over any key type: the position of the
/// first item carrying each distinct key (ascending, so in
/// first-appearance order) and every item's slot in that list.
/// `slot_or_insert(key, next)` is the key → slot map: it returns the
/// slot recorded for `key`, after recording `next` if there was none.
fn first_unique<K>(
    keys: impl IntoIterator<Item = K>,
    mut slot_or_insert: impl FnMut(K, usize) -> usize,
) -> (Vec<usize>, Vec<usize>) {
    let keys = keys.into_iter();
    let (mut first, mut inverse) = (Vec::new(), Vec::with_capacity(keys.size_hint().0));
    for (i, key) in keys.enumerate() {
        let slot = slot_or_insert(key, first.len());
        if slot == first.len() {
            first.push(i);
        }
        inverse.push(slot);
    }
    (first, inverse)
}

/// The distinct nodes of a row list, built by [`node_index`].
#[derive(Debug)]
pub struct NodeIndex {
    /// Distinct nodes in first-appearance order.
    pub nodes: Vec<NodeId>,
    /// The first row naming each distinct node (ascending).
    pub first: Vec<usize>,
    /// Every row's slot in `nodes`.
    pub inverse: Vec<usize>,
    /// Dense node → slot table; `u32::MAX` marks a node no row names.
    slot_of: Vec<u32>,
}

impl NodeIndex {
    /// The slot of `node` in `nodes`, if any row named it.
    pub fn slot(&self, node: NodeId) -> Option<usize> {
        self.slot_of.get(node as usize).filter(|&&s| s != u32::MAX).map(|&s| s as usize)
    }
}

/// The node-keyed sibling of [`dedup`]: the distinct *nodes* of `rows`,
/// whatever their times. Node memory, mail and raw features are keyed
/// on the node, so anything computed from them alone is the same for
/// every row naming the node: evaluate it on `nodes` (inputs taken from
/// the rows in `first`) and expand with `index_select(&inverse)`.
///
/// # Panics
///
/// Panics if a row names a node at or above `num_nodes`.
pub fn node_index(num_nodes: usize, rows: &[NodeId]) -> NodeIndex {
    let mut slot_of = vec![u32::MAX; num_nodes];
    let (first, inverse) = first_unique(rows.iter().copied(), |node, next| {
        let slot = &mut slot_of[node as usize];
        if *slot == u32::MAX {
            *slot = next as u32;
        }
        *slot as usize
    });
    NodeIndex {
        nodes: first.iter().map(|&i| rows[i]).collect(),
        first,
        inverse,
        slot_of,
    }
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
    fn node_index_ignores_times_and_inverts() {
        let rows = [4, 1, 4, 0, 1, 4];
        let idx = node_index(5, &rows);
        assert_eq!(idx.nodes, vec![4, 1, 0]);
        assert_eq!(idx.first, vec![0, 1, 3]);
        assert_eq!(idx.inverse, vec![0, 1, 0, 2, 1, 0]);
        for (row, &slot) in rows.iter().zip(&idx.inverse) {
            assert_eq!(idx.nodes[slot], *row);
            assert_eq!(idx.slot(*row), Some(slot));
        }
        assert_eq!((idx.slot(2), idx.slot(3), idx.slot(99)), (None, None, None));
        assert!(node_index(5, &[]).nodes.is_empty());
    }

    #[test]
    fn compute_and_node_index_match_a_btreemap_on_seeded_rows() {
        use std::collections::BTreeMap;
        use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..300usize);
            let nodes: Vec<NodeId> = (0..n).map(|_| rng.gen_range(0..40u32)).collect();
            // Whole seconds, as the datasets' timestamps are.
            let times: Vec<Time> = (0..n).map(|_| rng.gen_range(0..5u32) as f64 * 3600.0).collect();
            // The reference: a sorted map from key to slot, filled in
            // row order.
            let (mut slot_of, mut uniq, mut inverse) = (BTreeMap::new(), Vec::new(), Vec::new());
            for (&node, &t) in nodes.iter().zip(&times) {
                let slot = *slot_of.entry((node, t.to_bits())).or_insert_with(|| {
                    uniq.push((node, t));
                    uniq.len() - 1
                });
                inverse.push(slot);
            }
            let (got_nodes, got_times, got_inverse) = compute(&nodes, &times);
            assert_eq!(got_nodes, uniq.iter().map(|&(node, _)| node).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(got_times, uniq.iter().map(|&(_, t)| t).collect::<Vec<_>>(), "seed {seed}");
            assert_eq!(got_inverse, inverse, "seed {seed}");

            let (mut slot_of, mut distinct) = (BTreeMap::new(), Vec::new());
            let inverse: Vec<usize> = nodes
                .iter()
                .map(|&node| {
                    *slot_of.entry(node).or_insert_with(|| {
                        distinct.push(node);
                        distinct.len() - 1
                    })
                })
                .collect();
            let idx = node_index(40, &nodes);
            assert_eq!((&idx.nodes, &idx.inverse), (&distinct, &inverse), "seed {seed}");
            assert!(idx.first.iter().zip(&idx.nodes).all(|(&row, &node)| nodes[row] == node));
        }
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
