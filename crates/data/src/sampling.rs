//! Negative edge sampling for link-prediction training.

use tgl_runtime::rng::StdRng;
use tgl_runtime::rng::{Rng, SeedableRng};
use tgl_graph::NodeId;

/// Draws negative destination nodes uniformly from the destination
/// universe (the item partition for bipartite datasets, all nodes
/// otherwise) — the standard corruption scheme for temporal link
/// prediction.
#[derive(Debug, Clone)]
pub struct NegativeSampler {
    lo: NodeId,
    hi: NodeId,
    rng: StdRng,
}

impl NegativeSampler {
    /// Creates a sampler over destination ids `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(lo: NodeId, hi: NodeId, seed: u64) -> NegativeSampler {
        assert!(lo < hi, "empty negative range");
        NegativeSampler {
            lo,
            hi,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sampler matching a dataset spec's destination universe.
    pub fn for_spec(spec: &crate::DatasetSpec, seed: u64) -> NegativeSampler {
        if spec.bipartite() {
            NegativeSampler::new(spec.n_src as NodeId, spec.num_nodes() as NodeId, seed)
        } else {
            NegativeSampler::new(0, spec.num_nodes() as NodeId, seed)
        }
    }

    /// Draws `n` negatives.
    pub fn draw(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.rng.gen_range(self.lo..self.hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, DatasetSpec};

    #[test]
    fn draws_within_range() {
        let mut s = NegativeSampler::new(10, 20, 0);
        let v = s.draw(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&n| (10..20).contains(&n)));
        // Covers the range reasonably.
        let distinct: std::collections::HashSet<_> = v.iter().collect();
        assert!(distinct.len() >= 9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = NegativeSampler::new(0, 100, 7).draw(50);
        let b = NegativeSampler::new(0, 100, 7).draw(50);
        assert_eq!(a, b);
        let c = NegativeSampler::new(0, 100, 8).draw(50);
        assert_ne!(a, c);
    }

    #[test]
    fn for_spec_respects_bipartite_partition() {
        let spec = DatasetSpec::of(DatasetKind::Wiki);
        let mut s = NegativeSampler::for_spec(&spec, 0);
        assert!(s.draw(200).iter().all(|&n| (n as usize) >= spec.n_src));
        let spec2 = DatasetSpec::of(DatasetKind::WikiTalk);
        let mut s2 = NegativeSampler::for_spec(&spec2, 0);
        assert!(s2.draw(200).iter().all(|&n| (n as usize) < spec2.num_nodes()));
    }

    #[test]
    #[should_panic(expected = "empty negative range")]
    fn empty_range_panics() {
        NegativeSampler::new(5, 5, 0);
    }
}
