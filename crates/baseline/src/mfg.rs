//! Standalone message-flow graphs (DGL/TGL style).

use std::collections::HashMap;

use tgl_device::Device;
use tgl_graph::{EdgeId, NodeId, TemporalGraph, Time};
use tgl_sampler::TemporalSampler;
use tgl_tensor::Tensor;

/// A message-flow graph: 1-hop dependencies with *both* destination
/// and source sides fixed at construction, all tensors materialized on
/// the compute device.
///
/// This is the representation the paper's TBlock is contrasted with
/// (§3.2): "MFGs require both destination and source node information
/// upfront"; "the MFGs in DGL/TGL are standalone objects without these
/// links"; "MFGs require all data associated with the MFG to be stored
/// on the same device".
#[derive(Debug)]
pub struct Mfg {
    dst_nodes: Vec<NodeId>,
    dst_times: Vec<Time>,
    src_nodes: Vec<NodeId>,
    src_times: Vec<Time>,
    eids: Vec<EdgeId>,
    dst_index: Vec<usize>,
    /// Per-edge `t_dst − t_edge`, computed during sampling (TGL fuses
    /// this into its sampler).
    deltas: Vec<f32>,
    /// Materialized device tensors, retained for the MFG's lifetime.
    dst_feat: Tensor,
    src_feat: Tensor,
    edge_feat: Tensor,
    /// String-keyed data, as in DGL (`mfg.srcdata['h']`).
    dstdata: HashMap<String, Tensor>,
    srcdata: HashMap<String, Tensor>,
}

impl Mfg {
    /// Samples the temporal neighborhood of `(dst_nodes, dst_times)`
    /// and materializes every associated tensor on `device` through
    /// the pageable transfer path.
    pub fn build(
        g: &TemporalGraph,
        device: Device,
        sampler: &TemporalSampler,
        dst_nodes: Vec<NodeId>,
        dst_times: Vec<Time>,
    ) -> Mfg {
        let _s = tglite::prof::scope("sample").stage(tglite::obs::Stage::Sample);
        let nbrs = sampler.sample(&g.tcsr(), &dst_nodes, &dst_times);
        drop(_s);
        let deltas: Vec<f32> = nbrs
            .dst_index
            .iter()
            .zip(&nbrs.src_times)
            .map(|(&d, &st)| (dst_times[d] - st) as f32)
            .collect();
        // Eager materialization: dst features, src features, and edge
        // features all shipped to the device now and retained.
        let _f = tglite::prof::scope("feature_load").stage(tglite::obs::Stage::Transfer);
        let dst_feat = g.node_feat_rows(&dst_nodes).to(device);
        let src_feat = g.node_feat_rows(&nbrs.src_nodes).to(device);
        let edge_feat = g.edge_feat_rows(&nbrs.eids).to(device);
        Mfg {
            dst_nodes,
            dst_times,
            src_nodes: nbrs.src_nodes,
            src_times: nbrs.src_times,
            eids: nbrs.eids,
            dst_index: nbrs.dst_index,
            deltas,
            dst_feat,
            src_feat,
            edge_feat,
            dstdata: HashMap::new(),
            srcdata: HashMap::new(),
        }
    }

    /// Number of destination pairs.
    pub fn num_dst(&self) -> usize {
        self.dst_nodes.len()
    }

    /// Number of sampled edges.
    pub fn num_edges(&self) -> usize {
        self.src_nodes.len()
    }

    /// Destination node ids.
    pub fn dst_nodes(&self) -> &[NodeId] {
        &self.dst_nodes
    }

    /// Destination timestamps.
    pub fn dst_times(&self) -> &[Time] {
        &self.dst_times
    }

    /// Sampled source node ids.
    pub fn src_nodes(&self) -> &[NodeId] {
        &self.src_nodes
    }

    /// Sampled edge timestamps (exact, for chaining deeper layers).
    pub fn src_times(&self) -> &[Time] {
        &self.src_times
    }

    /// Sampled edge ids.
    pub fn eids(&self) -> &[EdgeId] {
        &self.eids
    }

    /// Per-edge destination position (segment ids).
    pub fn dst_index(&self) -> &[usize] {
        &self.dst_index
    }

    /// Per-edge time deltas (fused with sampling, as TGL does).
    pub fn deltas(&self) -> &[f32] {
        &self.deltas
    }

    /// Materialized destination features.
    pub fn dst_feat(&self) -> &Tensor {
        &self.dst_feat
    }

    /// Materialized source features.
    pub fn src_feat(&self) -> &Tensor {
        &self.src_feat
    }

    /// Materialized edge features.
    pub fn edge_feat(&self) -> &Tensor {
        &self.edge_feat
    }

    /// Sets `dstdata[key]` (DGL-style string-keyed tensor data).
    pub fn set_dstdata(&mut self, key: &str, t: Tensor) {
        self.dstdata.insert(key.to_string(), t);
    }

    /// Gets `dstdata[key]`.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn dstdata(&self, key: &str) -> Tensor {
        self.dstdata
            .get(key)
            .unwrap_or_else(|| panic!("no dstdata[{key:?}]"))
            .clone()
    }

    /// Sets `srcdata[key]`.
    pub fn set_srcdata(&mut self, key: &str, t: Tensor) {
        self.srcdata.insert(key.to_string(), t);
    }

    /// Gets `srcdata[key]`.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn srcdata(&self, key: &str) -> Tensor {
        self.srcdata
            .get(key)
            .unwrap_or_else(|| panic!("no srcdata[{key:?}]"))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_sampler::SamplingStrategy;

    fn graph() -> TemporalGraph {
        let g = TemporalGraph::from_edges(4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        g.set_node_feats(Tensor::from_vec((0..8).map(|v| v as f32).collect(), [4, 2]));
        g.set_edge_feats(Tensor::from_vec(vec![1.0, 2.0, 3.0], [3, 1]));
        g
    }

    #[test]
    fn build_materializes_everything() {
        let g = graph();
        let sampler = TemporalSampler::new(5, SamplingStrategy::Recent).with_threads(1);
        let mfg = Mfg::build(&g, Device::Host, &sampler, vec![2], vec![10.0]);
        assert_eq!(mfg.num_dst(), 1);
        assert_eq!(mfg.num_edges(), 2);
        assert_eq!(mfg.dst_feat().dims(), &[1, 2]);
        assert_eq!(mfg.src_feat().dims(), &[2, 2]);
        assert_eq!(mfg.edge_feat().dims(), &[2, 1]);
        assert_eq!(mfg.deltas(), &[8.0, 7.0]);
        assert_eq!(mfg.dst_index(), &[0, 0]);
        assert_eq!(mfg.eids().len(), 2);
        assert_eq!(mfg.dst_times(), &[10.0]);
    }

    #[test]
    fn device_transfers_happen_at_build() {
        let g = graph();
        let sampler = TemporalSampler::new(5, SamplingStrategy::Recent).with_threads(1);
        let before = tgl_device::stats().h2d_bytes;
        let mfg = Mfg::build(&g, Device::Accel, &sampler, vec![2, 1], vec![10.0, 10.0]);
        let after = tgl_device::stats().h2d_bytes;
        assert!(after > before, "expected eager pageable transfers");
        assert_eq!(mfg.dst_feat().device(), Device::Accel);
        assert_eq!(mfg.src_feat().device(), Device::Accel);
    }

    #[test]
    fn string_keyed_data_roundtrip() {
        let g = graph();
        let sampler = TemporalSampler::new(2, SamplingStrategy::Recent).with_threads(1);
        let mut mfg = Mfg::build(&g, Device::Host, &sampler, vec![1], vec![5.0]);
        mfg.set_dstdata("h", Tensor::ones([1, 3]));
        mfg.set_srcdata("h", Tensor::zeros([1, 3]));
        assert_eq!(mfg.dstdata("h").to_vec(), vec![1.0; 3]);
        assert_eq!(mfg.srcdata("h").to_vec(), vec![0.0; 3]);
    }
}
