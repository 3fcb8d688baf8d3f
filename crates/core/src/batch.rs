//! `TBatch`: a lazy view of a chronological slice of temporal edges.

use std::ops::Range;
use std::sync::Arc;

use tgl_graph::{NodeId, TemporalGraph, Time};
use tgl_sampler::NeighborSample;

use crate::{TBlock, TContext};

/// "Represents a batch of temporal edges to process ... a thin wrapper
/// with a TGraph reference and without actually materializing any
/// arrays until they are needed" (paper §3.4).
///
/// For link-prediction training a batch may also carry sampled
/// negative destination nodes.
#[derive(Debug, Clone)]
pub struct TBatch {
    graph: Arc<TemporalGraph>,
    range: Range<usize>,
    negs: Vec<NodeId>,
    /// The chain built ahead of the step by the pipelined trainer's
    /// sampler stage (see [`crate::plan`]).
    plan: Option<Arc<crate::plan::BatchPlan>>,
}

impl TBatch {
    /// Creates a batch over edge indices `range` (chronological order).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the graph's edge count.
    pub fn new(graph: Arc<TemporalGraph>, range: Range<usize>) -> TBatch {
        assert!(range.end <= graph.num_edges(), "batch range out of bounds");
        TBatch {
            graph,
            range,
            negs: Vec::new(),
            plan: None,
        }
    }

    /// Number of edges in the batch.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the batch has no edges.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Arc<TemporalGraph> {
        &self.graph
    }

    /// The edge index range.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Source endpoints of the batch edges.
    pub fn srcs(&self) -> &[NodeId] {
        &self.graph.src()[self.range.clone()]
    }

    /// Destination endpoints of the batch edges.
    pub fn dsts(&self) -> &[NodeId] {
        &self.graph.dst()[self.range.clone()]
    }

    /// Timestamps of the batch edges.
    pub fn times(&self) -> &[Time] {
        &self.graph.times()[self.range.clone()]
    }

    /// Edge ids (chronological indices) of the batch edges.
    pub fn eids(&self) -> Vec<tgl_graph::EdgeId> {
        self.range.clone().map(|e| e as tgl_graph::EdgeId).collect()
    }

    /// Attaches negative destination samples (one per edge) for link
    /// prediction.
    ///
    /// # Panics
    ///
    /// Panics if `negs.len() != len()`.
    pub fn set_negatives(&mut self, negs: Vec<NodeId>) {
        assert_eq!(negs.len(), self.len(), "one negative per edge required");
        self.negs = negs;
    }

    /// The attached negative destinations (empty if none).
    pub fn negatives(&self) -> &[NodeId] {
        &self.negs
    }

    /// Attaches the chain [`crate::plan::build_plan`] prepared;
    /// [`crate::plan::build_chain`] takes it instead of building one.
    pub fn set_plan(&mut self, plan: Arc<crate::plan::BatchPlan>) {
        self.plan = Some(plan);
    }

    /// The attached prepared chain, if any.
    pub fn plan(&self) -> Option<&Arc<crate::plan::BatchPlan>> {
        self.plan.as_ref()
    }

    /// Builds the head [`TBlock`] for embedding computation: the
    /// destination pairs are `[srcs, dsts, negatives]`, each at its
    /// edge's timestamp. Model outputs for these rows split into
    /// source/destination/negative embeddings in that order.
    pub fn block(&self, ctx: &TContext) -> TBlock {
        let n = self.len();
        let mut nodes = Vec::with_capacity(2 * n + self.negs.len());
        nodes.extend_from_slice(self.srcs());
        nodes.extend_from_slice(self.dsts());
        nodes.extend_from_slice(&self.negs);
        let times = self.times();
        let mut ts = Vec::with_capacity(nodes.len());
        for _ in 0..(nodes.len() / n.max(1)) {
            ts.extend_from_slice(times);
        }
        ts.truncate(nodes.len());
        TBlock::new(ctx, 0, nodes, ts)
    }

    /// Builds a block over the batch's *adjacency*: destinations are
    /// the unique nodes touched by the batch (first-appearance order)
    /// and the attached neighborhood holds, for each batch edge, the
    /// counterparty node at the edge time — both directions.
    ///
    /// This is the structure TGN-style models use to save raw messages
    /// (`save_raw_msgs` in the paper's Listing 4), usually followed by
    /// [`crate::op::coalesce`] to keep only the latest message per
    /// node.
    pub fn block_adj(&self, ctx: &TContext) -> TBlock {
        // Endpoints interleaved `s0, d0, s1, d1, ..`: entry `i ^ 1` is
        // the counterparty of entry `i`.
        let ends: Vec<NodeId> =
            self.srcs().iter().zip(self.dsts()).flat_map(|(&s, &d)| [s, d]).collect();
        let idx = crate::op::node_index(self.graph.num_nodes(), &ends);
        let uniq = idx.nodes;
        let mut entries: Vec<Vec<(NodeId, Time, tgl_graph::EdgeId)>> = vec![Vec::new(); uniq.len()];
        for (i, &p) in idx.inverse.iter().enumerate() {
            let eid = (self.range.start + i / 2) as tgl_graph::EdgeId;
            entries[p].push((ends[i ^ 1], self.times()[i / 2], eid));
        }
        // Batch-time destinations: each unique node queried at the max
        // batch time (all of its in-batch interactions are "earlier or
        // equal").
        let t_query = self.times().last().copied().unwrap_or(0.0);
        let times = vec![t_query; uniq.len()];
        let blk = TBlock::new(ctx, 0, uniq, times);
        let mut nbrs = NeighborSample::default();
        for (p, list) in entries.iter().enumerate() {
            for &(b, t, eid) in list {
                nbrs.src_nodes.push(b);
                nbrs.src_times.push(t);
                nbrs.eids.push(eid);
                nbrs.dst_index.push(p);
            }
        }
        blk.set_neighborhood(nbrs);
        blk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_tensor::Tensor;

    fn setup() -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(
            5,
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0)],
        ));
        g.set_node_feats(Tensor::zeros([5, 2]));
        let ctx = TContext::new(Arc::clone(&g));
        (g, ctx)
    }

    #[test]
    fn batch_views_are_lazy_slices() {
        let (g, _ctx) = setup();
        let b = TBatch::new(g, 1..3);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.srcs(), &[1, 2]);
        assert_eq!(b.dsts(), &[2, 3]);
        assert_eq!(b.times(), &[2.0, 3.0]);
        assert_eq!(b.eids(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_range_panics() {
        let (g, _ctx) = setup();
        TBatch::new(g, 2..99);
    }

    #[test]
    fn block_stacks_src_dst_neg() {
        let (g, ctx) = setup();
        let mut b = TBatch::new(g, 0..2);
        b.set_negatives(vec![4, 4]);
        let blk = b.block(&ctx);
        assert_eq!(blk.num_dst(), 6);
        assert_eq!(blk.dst_nodes(), vec![0, 1, 1, 2, 4, 4]);
        assert_eq!(blk.dst_times(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn block_without_negatives() {
        let (g, ctx) = setup();
        let b = TBatch::new(g, 0..2);
        let blk = b.block(&ctx);
        assert_eq!(blk.num_dst(), 4);
    }

    #[test]
    #[should_panic(expected = "one negative per edge")]
    fn wrong_negative_count_panics() {
        let (g, _ctx) = setup();
        TBatch::new(g, 0..2).set_negatives(vec![4]);
    }

    #[test]
    fn block_adj_covers_both_directions() {
        let (g, ctx) = setup();
        let b = TBatch::new(g, 0..2); // edges 0-1@1, 1-2@2
        let blk = b.block_adj(&ctx);
        // unique nodes in first-appearance order: 0, 1, 2
        assert_eq!(blk.dst_nodes(), vec![0, 1, 2]);
        assert_eq!(blk.num_edges(), 4); // both directions per edge
        // node 1 participates in both edges.
        let dst_index = blk.dst_index();
        let count_node1 = dst_index.iter().filter(|&&d| d == 1).count();
        assert_eq!(count_node1, 2);
        // eids refer to global chronological ids.
        assert!(blk.eids().iter().all(|&e| e < 2));
    }

    #[test]
    fn empty_batch_block() {
        let (g, ctx) = setup();
        let b = TBatch::new(g, 2..2);
        assert!(b.is_empty());
        let blk = b.block(&ctx);
        assert_eq!(blk.num_dst(), 0);
    }
}
