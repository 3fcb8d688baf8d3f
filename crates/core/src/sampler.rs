//! `TSampler`: temporal neighborhood sampling as a block operator.

use tgl_sampler::{SamplingStrategy, TemporalSampler};

use crate::TBlock;

/// Samples temporal neighbors for a block's destination pairs
/// (paper Table 2 / §3.4: "TGLite provides a TSampler module that
/// exposes 1-hop temporal sampling via its sample() method, which can
/// be used as a block operator").
#[derive(Debug, Clone)]
pub struct TSampler {
    inner: TemporalSampler,
}

impl TSampler {
    /// Creates a sampler taking up to `k` neighbors per destination.
    pub fn new(k: usize, strategy: SamplingStrategy) -> TSampler {
        TSampler {
            inner: TemporalSampler::new(k, strategy),
        }
    }

    /// Wraps a pre-configured engine (custom threads/seed).
    pub fn from_engine(engine: TemporalSampler) -> TSampler {
        TSampler { inner: engine }
    }

    /// Neighbors per destination.
    pub fn num_neighbors(&self) -> usize {
        self.inner.num_neighbors()
    }

    /// Samples the block's neighborhood in place and returns the same
    /// block for chaining.
    ///
    /// Apply destination-filtering optimizations (`dedup`, `cache`)
    /// *before* sampling "so to minimize the size of the following
    /// subgraphs" (paper §3.2).
    pub fn sample(&self, blk: &TBlock) -> TBlock {
        let csr = blk.graph().tcsr();
        let nbrs = blk.with_dst(|nodes, times| self.inner.sample(&csr, nodes, times));
        blk.set_neighborhood(nbrs);
        blk.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TBlock, TContext};
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;

    #[test]
    fn sample_fills_block() {
        let g = Arc::new(TemporalGraph::from_edges(
            3,
            vec![(0, 1, 1.0), (0, 2, 2.0)],
        ));
        let ctx = TContext::new(Arc::clone(&g));
        let blk = TBlock::new(&ctx, 0, vec![0], vec![5.0]);
        let sampler = TSampler::new(5, SamplingStrategy::Recent);
        assert_eq!(sampler.num_neighbors(), 5);
        let same = sampler.sample(&blk);
        assert!(same.has_nbrs());
        assert_eq!(blk.num_edges(), 2);
        assert_eq!(blk.src_nodes(), vec![1, 2]);
    }
}
