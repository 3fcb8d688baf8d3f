//! Temporal compressed-sparse-row adjacency.

use crate::{EdgeId, NodeId, Time};

/// Per-node adjacency with neighbors sorted by edge timestamp.
///
/// "When a model needs to perform neighborhood sampling ... it is best
/// to use a CSR format for faster lookups" (§3.4). Within each node's
/// slice, entries are ascending in time, so the set of edges strictly
/// earlier than a query time is a prefix found by binary search.
#[derive(Debug, Clone, PartialEq)]
pub struct TCsr {
    indptr: Vec<usize>,
    nbrs: Vec<NodeId>,
    eids: Vec<EdgeId>,
    times: Vec<Time>,
}

impl TCsr {
    /// Builds a T-CSR from a (src, dst, time) edge list.
    ///
    /// When `undirected` is true each edge is inserted in both
    /// directions (the usual treatment for CTDG neighbor sampling, as
    /// in TGL); edge ids are shared between the two directions.
    pub fn build(
        num_nodes: usize,
        src: &[NodeId],
        dst: &[NodeId],
        time: &[Time],
        undirected: bool,
    ) -> TCsr {
        assert_eq!(src.len(), dst.len());
        assert_eq!(src.len(), time.len());
        let mut degree = vec![0usize; num_nodes];
        for (&s, &d) in src.iter().zip(dst) {
            degree[s as usize] += 1;
            if undirected {
                degree[d as usize] += 1;
            }
        }
        let mut indptr = vec![0usize; num_nodes + 1];
        for i in 0..num_nodes {
            indptr[i + 1] = indptr[i] + degree[i];
        }
        let total = indptr[num_nodes];
        let mut nbrs = vec![0 as NodeId; total];
        let mut eids = vec![0 as EdgeId; total];
        let mut times = vec![0.0 as Time; total];
        let mut cursor = indptr.clone();
        // Edges are inserted in input order; because TemporalGraph keeps
        // its COO sorted by time, each node's slice ends up time-sorted.
        for (e, ((&s, &d), &t)) in src.iter().zip(dst).zip(time).enumerate() {
            let c = cursor[s as usize];
            nbrs[c] = d;
            eids[c] = e as EdgeId;
            times[c] = t;
            cursor[s as usize] += 1;
            if undirected {
                let c = cursor[d as usize];
                nbrs[c] = s;
                eids[c] = e as EdgeId;
                times[c] = t;
                cursor[d as usize] += 1;
            }
        }
        // Defensive: ensure per-node time-sortedness even if the input
        // was not chronologically sorted.
        for v in 0..num_nodes {
            let (lo, hi) = (indptr[v], indptr[v + 1]);
            let slice_sorted = times[lo..hi].windows(2).all(|w| w[0] <= w[1]);
            if !slice_sorted {
                let mut order: Vec<usize> = (lo..hi).collect();
                order.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("finite times"));
                let (n2, e2, t2): (Vec<_>, Vec<_>, Vec<_>) = order
                    .iter()
                    .map(|&i| (nbrs[i], eids[i], times[i]))
                    .fold((vec![], vec![], vec![]), |(mut a, mut b, mut c), (x, y, z)| {
                        a.push(x);
                        b.push(y);
                        c.push(z);
                        (a, b, c)
                    });
                nbrs[lo..hi].copy_from_slice(&n2);
                eids[lo..hi].copy_from_slice(&e2);
                times[lo..hi].copy_from_slice(&t2);
            }
        }
        TCsr {
            indptr,
            nbrs,
            eids,
            times,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Iterates `(neighbor, edge_id, time)` for all of `node`'s
    /// adjacency, ascending in time.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId, Time)> + '_ {
        let (lo, hi) = self.range(node);
        (lo..hi).map(move |i| (self.nbrs[i], self.eids[i], self.times[i]))
    }

    /// Returns `(nbrs, eids, times)` slices of `node`'s adjacency
    /// restricted to edges with `time < t` (the temporal constraint of
    /// `N(i, t)` in the paper's Eq. 2).
    pub fn neighbors_before(&self, node: NodeId, t: Time) -> (&[NodeId], &[EdgeId], &[Time]) {
        let (lo, hi) = self.range(node);
        let slice = &self.times[lo..hi];
        let cut = lo + slice.partition_point(|&x| x < t);
        (
            &self.nbrs[lo..cut],
            &self.eids[lo..cut],
            &self.times[lo..cut],
        )
    }

    /// Node degree (total adjacency entries).
    pub fn degree(&self, node: NodeId) -> usize {
        let (lo, hi) = self.range(node);
        hi - lo
    }

    fn range(&self, node: NodeId) -> (usize, usize) {
        let v = node as usize;
        assert!(v + 1 < self.indptr.len(), "node {node} out of range");
        (self.indptr[v], self.indptr[v + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr(undirected: bool) -> TCsr {
        // edges (sorted by time): 0-1@1, 0-2@2, 1-2@3, 0-1@4
        TCsr::build(
            3,
            &[0, 0, 1, 0],
            &[1, 2, 2, 1],
            &[1.0, 2.0, 3.0, 4.0],
            undirected,
        )
    }

    #[test]
    fn directed_degrees() {
        let csr = sample_csr(false);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.nbrs.len(), 4);
    }

    #[test]
    fn undirected_doubles_entries() {
        let csr = sample_csr(true);
        assert_eq!(csr.nbrs.len(), 8);
        assert_eq!(csr.degree(2), 2);
    }

    #[test]
    fn neighbors_sorted_by_time() {
        let csr = sample_csr(true);
        for v in 0..3 {
            let times: Vec<Time> = csr.neighbors(v).map(|(_, _, t)| t).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "node {v}: {times:?}");
        }
    }

    #[test]
    fn neighbors_before_respects_strict_cut() {
        let csr = sample_csr(true);
        let (nbrs, eids, times) = csr.neighbors_before(0, 2.0);
        assert_eq!(nbrs, &[1]);
        assert_eq!(eids, &[0]);
        assert_eq!(times, &[1.0]);
        // Strictly before: an edge exactly at t is excluded.
        let (nbrs, _, _) = csr.neighbors_before(0, 1.0);
        assert!(nbrs.is_empty());
        // Everything before a late time.
        let (nbrs, _, _) = csr.neighbors_before(0, 100.0);
        assert_eq!(nbrs.len(), 3);
    }

    #[test]
    fn unsorted_input_is_sorted_per_node() {
        let csr = TCsr::build(2, &[0, 0], &[1, 1], &[5.0, 1.0], false);
        let times: Vec<Time> = csr.neighbors(0).map(|(_, _, t)| t).collect();
        assert_eq!(times, vec![1.0, 5.0]);
        // Edge ids follow the permutation.
        let eids: Vec<EdgeId> = csr.neighbors(0).map(|(_, e, _)| e).collect();
        assert_eq!(eids, vec![1, 0]);
    }

    #[test]
    fn shared_edge_ids_between_directions() {
        let csr = sample_csr(true);
        let from0: Vec<EdgeId> = csr
            .neighbors(0)
            .filter(|&(n, _, _)| n == 2)
            .map(|(_, e, _)| e)
            .collect();
        let from2: Vec<EdgeId> = csr
            .neighbors(2)
            .filter(|&(n, _, _)| n == 0)
            .map(|(_, e, _)| e)
            .collect();
        assert_eq!(from0, from2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        sample_csr(false).degree(99);
    }
}
