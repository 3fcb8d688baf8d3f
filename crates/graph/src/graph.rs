//! The central temporal-graph container.

use std::sync::{Arc, OnceLock};

use tgl_runtime::sync::RwLock;
use tgl_device::Device;
use tgl_tensor::Tensor;

use crate::{EdgeId, Mailbox, Memory, NodeId, TCsr, Time};

/// A continuous-time dynamic graph: time-sorted COO edges, lazily-built
/// T-CSR, feature tensors, and (for memory-based models) node
/// [`Memory`] and [`Mailbox`].
///
/// This is the Rust analogue of TGLite's `TGraph` (paper Table 2): "the
/// central hub for all data related to a CTDG dataset ... TGLite
/// automatically handles the construction and management of these graph
/// formats without intervention from the user."
#[derive(Debug)]
pub struct TemporalGraph {
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    time: Vec<Time>,
    num_nodes: usize,
    tcsr: OnceLock<Arc<TCsr>>,
    node_feats: RwLock<Option<Tensor>>,
    edge_feats: RwLock<Option<Tensor>>,
    memory: RwLock<Option<Arc<Memory>>>,
    mailbox: RwLock<Option<Arc<Mailbox>>>,
}

impl TemporalGraph {
    /// Builds a graph from `(src, dst, time)` triples, sorting edges
    /// chronologically (stable, so simultaneous edges keep input
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, mut edges: Vec<(NodeId, NodeId, Time)>) -> TemporalGraph {
        edges.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite timestamps"));
        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        let mut time = Vec::with_capacity(edges.len());
        for (s, d, t) in edges {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s}, {d}) out of range for {num_nodes} nodes"
            );
            src.push(s);
            dst.push(d);
            time.push(t);
        }
        TemporalGraph {
            src,
            dst,
            time,
            num_nodes,
            tcsr: OnceLock::new(),
            node_feats: RwLock::new(None),
            edge_feats: RwLock::new(None),
            memory: RwLock::new(None),
            mailbox: RwLock::new(None),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of temporal edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Source endpoints, time-sorted.
    pub fn src(&self) -> &[NodeId] {
        &self.src
    }

    /// Destination endpoints, time-sorted.
    pub fn dst(&self) -> &[NodeId] {
        &self.dst
    }

    /// Edge timestamps, ascending.
    pub fn times(&self) -> &[Time] {
        &self.time
    }

    /// The `i`-th chronological edge as `(src, dst, time)`.
    pub fn edge(&self, i: usize) -> (NodeId, NodeId, Time) {
        (self.src[i], self.dst[i], self.time[i])
    }

    /// The largest timestamp (`max(t)` column of the paper's Table 3),
    /// or 0 for an empty graph.
    pub fn max_time(&self) -> Time {
        self.time.last().copied().unwrap_or(0.0)
    }

    /// The T-CSR adjacency (built once on first use, undirected, per
    /// the paper's sampling treatment).
    pub fn tcsr(&self) -> Arc<TCsr> {
        self.tcsr
            .get_or_init(|| {
                Arc::new(TCsr::build(
                    self.num_nodes,
                    &self.src,
                    &self.dst,
                    &self.time,
                    true,
                ))
            })
            .clone()
    }

    // ---------------------------------------------------------------
    // Features
    // ---------------------------------------------------------------

    /// Installs node features (`[num_nodes, d_v]`).
    ///
    /// # Panics
    ///
    /// Panics if the row count mismatches `num_nodes`.
    pub fn set_node_feats(&self, feats: Tensor) {
        assert_eq!(feats.dim(0), self.num_nodes, "node feature rows");
        *self.node_feats.write() = Some(feats);
    }

    /// Installs edge features (`[num_edges, d_e]`, rows in chronological
    /// edge order).
    pub fn set_edge_feats(&self, feats: Tensor) {
        assert_eq!(feats.dim(0), self.num_edges(), "edge feature rows");
        *self.edge_feats.write() = Some(feats);
    }

    /// The full node feature tensor, if installed.
    pub fn node_feats(&self) -> Option<Tensor> {
        self.node_feats.read().clone()
    }

    /// The full edge feature tensor, if installed.
    pub fn edge_feats(&self) -> Option<Tensor> {
        self.edge_feats.read().clone()
    }

    /// Node feature width (0 if none installed).
    pub fn node_feat_dim(&self) -> usize {
        self.node_feats.read().as_ref().map_or(0, |t| t.dim(1))
    }

    /// Edge feature width (0 if none installed).
    pub fn edge_feat_dim(&self) -> usize {
        self.edge_feats.read().as_ref().map_or(0, |t| t.dim(1))
    }

    /// Gathers node feature rows (on the features' device). Missing
    /// features yield a `[n, 0]` tensor.
    pub fn node_feat_rows(&self, nodes: &[NodeId]) -> Tensor {
        match self.node_feats.read().as_ref() {
            Some(f) => f.index_select(&nodes.iter().map(|&n| n as usize).collect::<Vec<_>>()),
            None => Tensor::zeros([nodes.len(), 0]),
        }
    }

    /// Gathers edge feature rows. Missing features yield `[n, 0]`.
    pub fn edge_feat_rows(&self, edges: &[EdgeId]) -> Tensor {
        match self.edge_feats.read().as_ref() {
            Some(f) => f.index_select(&edges.iter().map(|&e| e as usize).collect::<Vec<_>>()),
            None => Tensor::zeros([edges.len(), 0]),
        }
    }

    // ---------------------------------------------------------------
    // Memory & mailbox (paper §3.4: part of the TGraph interface)
    // ---------------------------------------------------------------

    /// Attaches zeroed node memory of width `dim` on `device`,
    /// replacing any existing memory.
    pub fn attach_memory(&self, dim: usize, device: Device) {
        *self.memory.write() = Some(Arc::new(Memory::new(self.num_nodes, dim, device)));
    }

    /// Attaches a zeroed mailbox with `slots` messages of width `dim`.
    pub fn attach_mailbox(&self, slots: usize, dim: usize, device: Device) {
        *self.mailbox.write() = Some(Arc::new(Mailbox::new(self.num_nodes, slots, dim, device)));
    }

    /// The node memory.
    ///
    /// # Panics
    ///
    /// Panics if no memory was attached.
    pub fn memory(&self) -> Arc<Memory> {
        self.memory
            .read()
            .clone()
            .expect("no memory attached; call attach_memory first")
    }

    /// The mailbox.
    ///
    /// # Panics
    ///
    /// Panics if no mailbox was attached.
    pub fn mailbox(&self) -> Arc<Mailbox> {
        self.mailbox
            .read()
            .clone()
            .expect("no mailbox attached; call attach_mailbox first")
    }

    /// Resets memory and mailbox (epoch boundary).
    pub fn reset_state(&self) {
        if let Some(m) = self.memory.read().as_ref() {
            m.reset();
        }
        if let Some(mb) = self.mailbox.read().as_ref() {
            mb.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> TemporalGraph {
        // Deliberately unsorted input.
        TemporalGraph::from_edges(4, vec![(2, 3, 5.0), (0, 1, 1.0), (1, 2, 3.0)])
    }

    #[test]
    fn edges_sorted_by_time() {
        let g = graph();
        assert_eq!(g.times(), &[1.0, 3.0, 5.0]);
        assert_eq!(g.src(), &[0, 1, 2]);
        assert_eq!(g.dst(), &[1, 2, 3]);
        assert_eq!(g.edge(1), (1, 2, 3.0));
        assert_eq!(g.max_time(), 5.0);
    }

    #[test]
    fn stable_sort_keeps_simultaneous_order() {
        let g = TemporalGraph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 1.0)]);
        assert_eq!(g.src(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_endpoint_panics() {
        TemporalGraph::from_edges(2, vec![(0, 5, 1.0)]);
    }

    #[test]
    fn tcsr_is_cached() {
        let g = graph();
        let a = g.tcsr();
        let b = g.tcsr();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn feature_roundtrip() {
        let g = graph();
        g.set_node_feats(Tensor::from_vec((0..8).map(|v| v as f32).collect(), [4, 2]));
        g.set_edge_feats(Tensor::from_vec(vec![9.0, 8.0, 7.0], [3, 1]));
        assert_eq!(g.node_feat_dim(), 2);
        assert_eq!(g.edge_feat_dim(), 1);
        assert_eq!(g.node_feat_rows(&[3, 0]).to_vec(), vec![6.0, 7.0, 0.0, 1.0]);
        assert_eq!(g.edge_feat_rows(&[2]).to_vec(), vec![7.0]);
    }

    #[test]
    fn missing_features_zero_width() {
        let g = graph();
        assert_eq!(g.node_feat_rows(&[0, 1]).dims(), &[2, 0]);
        assert_eq!(g.node_feat_dim(), 0);
    }

    #[test]
    fn memory_mailbox_lifecycle() {
        let g = graph();
        assert!(g.memory.read().is_none());
        g.attach_memory(4, Device::Host);
        g.attach_mailbox(2, 6, Device::Host);
        assert!(g.memory.read().is_some());
        g.memory()
            .store(&[1], &Tensor::ones([1, 4]), &[3.0]);
        g.mailbox()
            .store(&[2], &Tensor::ones([1, 6]), &[3.0]);
        g.reset_state();
        assert_eq!(g.memory().rows(&[1]).to_vec(), vec![0.0; 4]);
        let (mail, _) = g.mailbox().latest(&[2]);
        assert_eq!(mail.to_vec(), vec![0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "no memory attached")]
    fn memory_unattached_panics() {
        graph().memory();
    }
}
