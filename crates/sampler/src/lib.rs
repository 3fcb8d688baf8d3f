//! Parallel temporal neighborhood sampling.
//!
//! Implements the engine behind TGLite's `TSampler` (paper Table 2):
//! "Parallel temporal neighborhood sampling, using either uniform or
//! most-recent sampling strategies." Given destination `(node, time)`
//! pairs, it selects up to `k` neighbors per destination among edges
//! *strictly earlier* than the destination's timestamp — the temporal
//! constraint of `N(i, t)` in the paper's message-passing equations —
//! by binary search over the time-sorted T-CSR.
//!
//! Each destination samples independently, so the batch is
//! embarrassingly parallel: work is split over destination chunks on
//! the `tgl-runtime` thread pool (the paper uses 32/64 sampler threads
//! on its two machines; here the count follows `TGL_THREADS`). Uniform
//! sampling seeds one RNG stream per destination from the sampler seed
//! and the destination's batch position, so results are bitwise
//! identical for any thread count or chunk layout.
//!
//! # Examples
//!
//! ```
//! use tgl_graph::TemporalGraph;
//! use tgl_sampler::{SamplingStrategy, TemporalSampler};
//!
//! let g = TemporalGraph::from_edges(3, vec![(0, 1, 1.0), (0, 2, 2.0), (0, 1, 3.0)]);
//! let sampler = TemporalSampler::new(2, SamplingStrategy::Recent);
//! let s = sampler.sample(&g.tcsr(), &[0], &[10.0]);
//! // The two most recent of node 0's three earlier edges.
//! assert_eq!(s.src_nodes, vec![2, 1]);
//! assert_eq!(s.src_times, vec![2.0, 3.0]);
//! ```

#![forbid(unsafe_code)]

use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
use tgl_runtime::{parallel_rows, Chunks, Rows};

use tgl_graph::{EdgeId, NodeId, TCsr, Time};

/// Batches smaller than this sample inline on the caller; dispatching
/// to the pool costs more than the sampling itself.
const SEQ_DST_THRESHOLD: usize = 64;

/// Neighbor selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SamplingStrategy {
    /// The `k` most recent earlier edges (paper's default, "recent
    /// sampling").
    #[default]
    Recent,
    /// `k` earlier edges drawn uniformly without replacement.
    Uniform,
}

/// Result of sampling one batch of destinations.
///
/// Rows are grouped by destination in input order: all sampled edges of
/// destination 0, then destination 1, etc. `dst_index[i]` maps sampled
/// edge `i` back to its destination position — the segment ids consumed
/// by segmented operators downstream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborSample {
    /// Sampled neighbor node per edge.
    pub src_nodes: Vec<NodeId>,
    /// Timestamp of each sampled edge.
    pub src_times: Vec<Time>,
    /// Edge id of each sampled edge.
    pub eids: Vec<EdgeId>,
    /// Destination position (0-based within the query batch) per edge.
    pub dst_index: Vec<usize>,
}

impl NeighborSample {
    /// Number of sampled edges.
    pub fn len(&self) -> usize {
        self.src_nodes.len()
    }

    /// True when no edges were sampled.
    pub fn is_empty(&self) -> bool {
        self.src_nodes.is_empty()
    }
}

/// A configured temporal neighborhood sampler.
#[derive(Debug, Clone)]
pub struct TemporalSampler {
    k: usize,
    strategy: SamplingStrategy,
    seed: u64,
}

impl TemporalSampler {
    /// Creates a sampler taking up to `k` neighbors per destination.
    pub fn new(k: usize, strategy: SamplingStrategy) -> TemporalSampler {
        TemporalSampler {
            k,
            strategy,
            seed: 0x7161_1e5d,
        }
    }

    /// Sets the RNG seed for uniform sampling (deterministic per seed).
    pub fn with_seed(mut self, seed: u64) -> TemporalSampler {
        self.seed = seed;
        self
    }

    /// Neighbors per destination.
    pub fn num_neighbors(&self) -> usize {
        self.k
    }

    /// The configured strategy.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    /// Samples neighbors for each `(dst_nodes[i], dst_times[i])` pair.
    ///
    /// # Panics
    ///
    /// Panics if the two input slices differ in length.
    pub fn sample(&self, csr: &TCsr, dst_nodes: &[NodeId], dst_times: &[Time]) -> NeighborSample {
        assert_eq!(
            dst_nodes.len(),
            dst_times.len(),
            "dst nodes/times length mismatch"
        );
        let n = dst_nodes.len();
        if n == 0 {
            return NeighborSample::default();
        }
        let prof = tgl_obs::profile::op("sampler").shape(&[&[n]]);

        // Pass 1: how many edges each destination contributes, so each
        // destination's rows land at an exact offset in pass 2.
        let chunks = Chunks::Auto(SEQ_DST_THRESHOLD);
        let mut counts = vec![0usize; n];
        parallel_rows(n, chunks, Rows::width(&mut counts, 1), |dsts, counts| {
            for (c, i) in counts.iter_mut().zip(dsts) {
                *c = csr.neighbors_before(dst_nodes[i], dst_times[i]).0.len().min(self.k);
            }
        });
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let total = offsets[n];
        // One (node, time) pair read per query; a (node, time, edge,
        // destination slot) row written per sampled neighbor.
        let _prof = prof.io(12 * n as u64, 24 * total as u64);
        tgl_obs::counter!("sampler.queries").add(n as u64);
        tgl_obs::counter!("sampler.neighbors").add(total as u64);

        // Pass 2: every destination fills its own rows, cut at `offsets`.
        let mut out = NeighborSample {
            src_nodes: vec![NodeId::default(); total],
            src_times: vec![Time::default(); total],
            eids: vec![EdgeId::default(); total],
            dst_index: vec![0usize; total],
        };
        let outs = (
            Rows::offsets(&mut out.src_nodes, &offsets, 1),
            Rows::offsets(&mut out.src_times, &offsets, 1),
            Rows::offsets(&mut out.eids, &offsets, 1),
            Rows::offsets(&mut out.dst_index, &offsets, 1),
        );
        parallel_rows(n, chunks, outs, |dsts, (sn, st, se, sd)| {
            let base = offsets[dsts.start];
            for i in dsts {
                let rows = offsets[i] - base..offsets[i + 1] - base;
                if rows.is_empty() {
                    continue;
                }
                let (sn, st) = (&mut sn[rows.clone()], &mut st[rows.clone()]);
                let (se, sd) = (&mut se[rows.clone()], &mut sd[rows]);
                self.sample_one(csr, dst_nodes[i], dst_times[i], i, sn, st, se, sd);
            }
        });
        out
    }

    /// Samples one destination's neighbors into its output rows.
    ///
    /// Uniform draws use an RNG seeded from `(sampler seed, dst)` so the
    /// stream is a function of the destination alone — not of which
    /// thread or chunk processed it.
    #[allow(clippy::too_many_arguments)]
    fn sample_one(
        &self,
        csr: &TCsr,
        node: NodeId,
        t: Time,
        dst: usize,
        sn: &mut [NodeId],
        st: &mut [Time],
        se: &mut [EdgeId],
        sd: &mut [usize],
    ) {
        let (nbrs, eids, etimes) = csr.neighbors_before(node, t);
        let avail = nbrs.len();
        let take = sn.len();
        sd.fill(dst);
        match self.strategy {
            SamplingStrategy::Recent => {
                let start = avail - take;
                sn.copy_from_slice(&nbrs[start..]);
                st.copy_from_slice(&etimes[start..]);
                se.copy_from_slice(&eids[start..]);
            }
            SamplingStrategy::Uniform => {
                if avail <= self.k {
                    // Degenerate draw: degree does not exceed k, so the
                    // "uniform" sample is just a copy of every neighbor.
                    tgl_obs::counter!("sampler.uniform_fallbacks").incr();
                    sn.copy_from_slice(nbrs);
                    st.copy_from_slice(etimes);
                    se.copy_from_slice(eids);
                } else {
                    let mut rng = StdRng::seed_from_u64(
                        self.seed
                            .wrapping_add((dst as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    );
                    // Partial Fisher–Yates over [0, avail): k draws
                    // without replacement in O(k) extra space.
                    let mut swapped: tgl_runtime::IntMap<usize, usize> =
                        tgl_runtime::IntMap::with_capacity_and_hasher(self.k * 2, Default::default());
                    for draw in 0..take {
                        let r = rng.gen_range(draw..avail);
                        let pick = *swapped.get(&r).unwrap_or(&r);
                        let dv = *swapped.get(&draw).unwrap_or(&draw);
                        swapped.insert(r, dv);
                        sn[draw] = nbrs[pick];
                        st[draw] = etimes[pick];
                        se[draw] = eids[pick];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_graph::TemporalGraph;

    /// `f()` with the pool `threads` wide, one caller at a time.
    fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = tgl_runtime::current_threads();
        tgl_runtime::set_threads(threads);
        let out = f();
        tgl_runtime::set_threads(before);
        out
    }

    /// Star graph: node 0 connected to nodes 1..=5 at times 1..=5.
    fn star() -> TemporalGraph {
        TemporalGraph::from_edges(
            6,
            (1..=5u32).map(|i| (0, i, i as Time)).collect(),
        )
    }

    #[test]
    fn recent_takes_latest_k() {
        let g = star();
        let s = TemporalSampler::new(3, SamplingStrategy::Recent).sample(&g.tcsr(), &[0], &[10.0]);
        assert_eq!(s.src_nodes, vec![3, 4, 5]);
        assert_eq!(s.src_times, vec![3.0, 4.0, 5.0]);
        assert_eq!(s.dst_index, vec![0, 0, 0]);
    }

    #[test]
    fn temporal_constraint_strictly_before() {
        let g = star();
        let s = TemporalSampler::new(10, SamplingStrategy::Recent).sample(&g.tcsr(), &[0], &[3.0]);
        // Only edges at t=1,2 qualify (t=3 excluded).
        assert_eq!(s.src_times, vec![1.0, 2.0]);
    }

    #[test]
    fn no_earlier_edges_empty() {
        let g = star();
        let s = TemporalSampler::new(5, SamplingStrategy::Recent).sample(&g.tcsr(), &[0], &[1.0]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn fewer_than_k_returns_all() {
        let g = star();
        let s = TemporalSampler::new(10, SamplingStrategy::Recent).sample(&g.tcsr(), &[0], &[10.0]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn multiple_destinations_grouped_in_order() {
        let g = star();
        let s = TemporalSampler::new(2, SamplingStrategy::Recent)
            .sample(&g.tcsr(), &[1, 0, 2], &[10.0, 10.0, 10.0]);
        // node 1 has one neighbor (0@1), node 0 two most recent, node 2 one.
        assert_eq!(s.dst_index, vec![0, 1, 1, 2]);
        assert_eq!(s.src_nodes, vec![0, 4, 5, 0]);
    }

    #[test]
    fn uniform_is_deterministic_and_valid() {
        let g = star();
        let sampler = TemporalSampler::new(3, SamplingStrategy::Uniform).with_seed(7);
        let a = sampler.sample(&g.tcsr(), &[0], &[10.0]);
        let b = sampler.sample(&g.tcsr(), &[0], &[10.0]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Without replacement: all eids distinct.
        let mut eids = a.eids.clone();
        eids.sort_unstable();
        eids.dedup();
        assert_eq!(eids.len(), 3);
        // Temporal constraint holds.
        assert!(a.src_times.iter().all(|&t| t < 10.0));
    }

    #[test]
    fn uniform_covers_all_when_k_exceeds_degree() {
        let g = star();
        let s = TemporalSampler::new(9, SamplingStrategy::Uniform).sample(&g.tcsr(), &[0], &[10.0]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = star();
        let dsts: Vec<NodeId> = (0..6).cycle().take(100).collect();
        let times: Vec<Time> = (0..100).map(|i| 1.0 + (i % 7) as Time).collect();
        let sampler = TemporalSampler::new(2, SamplingStrategy::Recent);
        let [seq, par] = [1, 4].map(|t| at_threads(t, || sampler.sample(&g.tcsr(), &dsts, &times)));
        assert_eq!(seq, par);
    }

    #[test]
    fn uniform_parallel_matches_sequential() {
        let g = star();
        let dsts: Vec<NodeId> = (0..6).cycle().take(500).collect();
        let times: Vec<Time> = (0..500).map(|i| 1.0 + (i % 7) as Time).collect();
        let sampler = TemporalSampler::new(2, SamplingStrategy::Uniform).with_seed(5);
        let [seq, par] = [1, 8].map(|t| at_threads(t, || sampler.sample(&g.tcsr(), &dsts, &times)));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_query_empty_result() {
        let g = star();
        let s = TemporalSampler::new(2, SamplingStrategy::Recent).sample(&g.tcsr(), &[], &[]);
        assert!(s.is_empty());
    }

    #[test]
    fn dst_index_is_nondecreasing() {
        let g = star();
        let dsts: Vec<NodeId> = vec![0, 5, 3, 0];
        let s = TemporalSampler::new(3, SamplingStrategy::Recent)
            .sample(&g.tcsr(), &dsts, &[9.0, 9.0, 9.0, 2.0]);
        assert!(s.dst_index.windows(2).all(|w| w[0] <= w[1]));
    }
}
