//! The `coalesce` operator: reduce each destination's sources to one.

use tgl_sampler::NeighborSample;

use crate::TBlock;

/// Which edge survives coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoalesceBy {
    /// Keep the edge with the latest timestamp (ties: last occurrence).
    ///
    /// This is what TGN's `save_raw_msgs` needs: "only retains the
    /// latest message in the batch for each node" (paper §4).
    #[default]
    Latest,
    /// Keep the edge with the earliest timestamp (ties: first
    /// occurrence).
    Earliest,
}

/// Re-arranges and reduces the block's sources so each destination
/// keeps exactly one edge, selected by `by` (paper §3.3: "coalesce()
/// re-arranges and reduces the source nodes for each destination node
/// based on some property, such as latest edge timestamp").
///
/// Destinations with no sampled edges remain without edges. Returns
/// the same block for chaining.
///
/// # Panics
///
/// Panics if the block has no sampled neighborhood.
pub fn coalesce(blk: &TBlock, by: CoalesceBy) -> TBlock {
    let num_dst = blk.num_dst();
    let reduced = blk.with_nbrs(|n| {
        let mut keep: Vec<Option<usize>> = vec![None; num_dst];
        for (e, &d) in n.dst_index.iter().enumerate() {
            keep[d] = Some(match keep[d] {
                None => e,
                Some(prev) => match by {
                    CoalesceBy::Latest => {
                        if n.src_times[e] >= n.src_times[prev] {
                            e
                        } else {
                            prev
                        }
                    }
                    CoalesceBy::Earliest => {
                        if n.src_times[e] < n.src_times[prev] {
                            e
                        } else {
                            prev
                        }
                    }
                },
            });
        }
        let mut out = NeighborSample::default();
        for (d, k) in keep.iter().enumerate() {
            if let Some(e) = *k {
                out.src_nodes.push(n.src_nodes[e]);
                out.src_times.push(n.src_times[e]);
                out.eids.push(n.eids[e]);
                out.dst_index.push(d);
            }
        }
        out
    });
    // Re-attach (clears stale src/edge feature caches).
    blk.set_neighborhood(reduced);
    blk.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TBlock, TContext};
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;

    fn block() -> TBlock {
        let g = Arc::new(TemporalGraph::from_edges(5, vec![(0, 1, 1.0)]));
        let ctx = TContext::new(g);
        let blk = TBlock::new(&ctx, 0, vec![0, 1, 2], vec![9.0, 9.0, 9.0]);
        blk.set_neighborhood(NeighborSample {
            src_nodes: vec![3, 4, 3, 4],
            src_times: vec![1.0, 5.0, 2.0, 4.0],
            eids: vec![0, 1, 2, 3],
            dst_index: vec![0, 0, 1, 1],
        });
        blk
    }

    #[test]
    fn latest_keeps_max_time_edge_per_dst() {
        let blk = block();
        coalesce(&blk, CoalesceBy::Latest);
        assert_eq!(blk.num_edges(), 2);
        assert_eq!(blk.src_times(), vec![5.0, 4.0]);
        assert_eq!(blk.src_nodes(), vec![4, 4]);
        assert_eq!(blk.dst_index(), vec![0, 1]);
    }

    #[test]
    fn earliest_keeps_min_time_edge() {
        let blk = block();
        coalesce(&blk, CoalesceBy::Earliest);
        assert_eq!(blk.src_times(), vec![1.0, 2.0]);
        assert_eq!(blk.src_nodes(), vec![3, 3]);
    }

    #[test]
    fn dst_without_edges_stays_empty() {
        let blk = block();
        coalesce(&blk, CoalesceBy::Latest);
        // dst 2 had no edges; dst_index never contains 2.
        assert!(!blk.dst_index().contains(&2));
    }

    #[test]
    fn latest_tie_prefers_last_occurrence() {
        let g = Arc::new(TemporalGraph::from_edges(3, vec![(0, 1, 1.0)]));
        let ctx = TContext::new(g);
        let blk = TBlock::new(&ctx, 0, vec![0], vec![9.0]);
        blk.set_neighborhood(NeighborSample {
            src_nodes: vec![1, 2],
            src_times: vec![3.0, 3.0],
            eids: vec![0, 1],
            dst_index: vec![0, 0],
        });
        coalesce(&blk, CoalesceBy::Latest);
        assert_eq!(blk.src_nodes(), vec![2]);
    }

    #[test]
    fn idempotent() {
        let blk = block();
        coalesce(&blk, CoalesceBy::Latest);
        let once = (blk.src_nodes(), blk.src_times(), blk.dst_index());
        coalesce(&blk, CoalesceBy::Latest);
        assert_eq!(once, (blk.src_nodes(), blk.src_times(), blk.dst_index()));
    }
}
