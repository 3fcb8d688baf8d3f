//! The `preload` data-movement optimization operator.

use std::ops::Range;
use std::sync::Arc;

use tgl_tensor::Tensor;

use crate::block::Part;
use crate::{TBlock, TContext};

/// One feature table as the compute device sees it, plus the row in it
/// of every feature slot of the chain (block by block, `dst` then
/// `src` slots for the node table, edge slots for the edge table).
#[derive(Debug)]
struct StagedTable {
    rows: Tensor,
    slots: Vec<usize>,
}

impl StagedTable {
    /// Stages the rows `ids` name. A table that already lives on the
    /// compute device is used as it is (slot = id, the direct gather);
    /// one on another tier has its *distinct* rows gathered there and
    /// moved in a single pinned transfer, so a row crosses the link once
    /// per batch however many slots read it.
    fn new(ctx: &TContext, feats: &Tensor, ids: Vec<usize>) -> StagedTable {
        let device = ctx.device();
        if feats.device() == device {
            return StagedTable {
                rows: feats.clone(),
                slots: ids,
            };
        }
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let slots = ids
            .iter()
            .map(|id| {
                distinct
                    .binary_search(id)
                    .expect("slot id is in the distinct list")
            })
            .collect();
        let gathered = feats.index_select(&distinct);
        tgl_obs::counter!("preload.tensors_moved").incr();
        StagedTable {
            rows: gathered.to_pinned(device),
            slots,
        }
    }

    /// The feature rows of a run of slots, gathered on the compute device.
    fn expand(&self, slots: Range<usize>) -> Tensor {
        self.rows.index_select(&self.slots[slots])
    }
}

/// Where one block's slots start in the tables, and how many it has.
#[derive(Debug)]
struct BlockSlots {
    node_at: usize,
    edge_at: usize,
    n_dst: usize,
    /// `None` for a block whose neighborhood is not sampled yet.
    n_nbrs: Option<usize>,
}

/// What [`preload`] put on the compute device for a whole block chain:
/// per feature table the rows the chain reads, the slot layout, and
/// the chain's per-edge time deltas (like the features, a function of
/// the chain alone). Every block of the chain shares one of these and
/// expands its own part out of it on first read ([`Staged::expand`]),
/// so a chain nobody has read yet keeps only distinct rows resident on
/// the device tier.
#[derive(Debug)]
pub(crate) struct Staged {
    node: Option<StagedTable>,
    edge: Option<StagedTable>,
    /// Every sampled block's `delta_times()`, end to end in edge-slot
    /// order (block `i`'s start at its `edge_at`). Like `edge`, `None`
    /// for a chain with no sampled block.
    deltas: Option<Tensor>,
    blocks: Vec<BlockSlots>,
}

impl Staged {
    /// Block `i`'s feature `part` as a staged table and the run of slots
    /// in it; `None` when nothing was staged for it (no such table, or
    /// the block was not sampled yet).
    fn slots(&self, i: usize, part: Part) -> Option<(&StagedTable, Range<usize>)> {
        let s = &self.blocks[i];
        let src_at = s.node_at + s.n_dst;
        let (table, slots) = match part {
            Part::Dst => (&self.node, Some(s.node_at..src_at)),
            Part::Src => (&self.node, s.n_nbrs.map(|k| src_at..src_at + k)),
            Part::Edge => (&self.edge, s.n_nbrs.map(|k| s.edge_at..s.edge_at + k)),
            // The deltas are one staged tensor, not rows of a table.
            Part::Delta => return None,
        };
        table.as_ref().zip(slots)
    }

    /// Block `i`'s `part`, gathered out of the staged rows on the
    /// compute device; `None` when nothing was staged for it. Fires no
    /// counters.
    pub(crate) fn expand(&self, i: usize, part: Part) -> Option<Tensor> {
        if let Part::Delta = part {
            let s = &self.blocks[i];
            let deltas = self.deltas.as_ref().zip(s.n_nbrs);
            return deltas.map(|(d, k)| d.narrow_rows(s.edge_at, k));
        }
        self.slots(i, part).map(|(table, slots)| table.expand(slots))
    }

    /// Block `i`'s `part` (`Dst`, `Src` or `Edge`) left in the staged
    /// table: the table and the row of each of the block's slots in it.
    /// `None` as for [`Staged::expand`].
    pub(crate) fn rows(&self, i: usize, part: Part) -> Option<(Tensor, Vec<usize>)> {
        self.slots(i, part).map(|(table, slots)| (table.rows.clone(), table.slots[slots].to_vec()))
    }
}

/// Loads feature data for *all* blocks in the chain onto the compute
/// device ahead of computation (paper §3.3: "preload() ... focuses on
/// optimizing data movements ... one technique is to use pinned memory
/// to minimize data transfer costs"). Each feature table that lives on
/// another tier has the chain's *distinct* rows gathered there, into a
/// recycled tensor-pool buffer that stands for the paper's pool of
/// pre-allocated pinned memory, and moved in one pinned transfer; so
/// are the sampled blocks' time deltas when the compute device is not
/// the host that computed them. Every block then reads its `dstfeat` /
/// `srcfeat` / `efeat` / `deltas` out of those rows with a gather on the
/// compute device, on first use.
///
/// In the all-on-GPU configuration (features already on the compute
/// device) no feature row is moved and the read is the plain gather —
/// matching the paper's observation that "the preload() operator in
/// TGLite has no effect in this scenario". Which case applies is read
/// from each table's device.
///
/// Fires `preload.calls` once and `preload.tensors_moved` once per
/// table that crossed a tier.
pub fn preload(ctx: &TContext, head: &TBlock) {
    tgl_obs::counter!("preload.calls").incr();
    let g = head.graph();
    let (mut node_ids, mut edge_ids) = (Vec::new(), Vec::new());
    let mut blocks = Vec::new();
    for blk in head.chain() {
        let (node_at, edge_at) = (node_ids.len(), edge_ids.len());
        blk.with_dst(|nodes, _| node_ids.extend(nodes.iter().map(|&n| n as usize)));
        let n_nbrs = blk.has_nbrs().then(|| {
            blk.with_nbrs(|n| {
                node_ids.extend(n.src_nodes.iter().map(|&s| s as usize));
                edge_ids.extend(n.eids.iter().map(|&e| e as usize));
                n.len()
            })
        });
        blocks.push(BlockSlots {
            node_at,
            edge_at,
            n_dst: blk.num_dst(),
            n_nbrs,
        });
    }
    // Edge rows and time deltas exist only once a block is sampled: a
    // chain that is just its head stages the node table alone.
    let sampled = blocks.iter().any(|s| s.n_nbrs.is_some());
    let host_deltas = sampled.then(|| {
        // One delta per edge slot, in a pooled host buffer like every
        // other staging copy.
        let mut deltas = tgl_tensor::pool::take_uninit(edge_ids.len(), tgl_device::Device::Host);
        for (blk, s) in head.chain().zip(&blocks) {
            if let Some(k) = s.n_nbrs {
                deltas[s.edge_at..s.edge_at + k].copy_from_slice(&blk.delta_times());
            }
        }
        Tensor::from_vec(deltas, [edge_ids.len()])
    });
    let table = |feats: Option<Tensor>, ids| {
        feats
            .filter(|f| f.dim(1) > 0)
            .map(|f| StagedTable::new(ctx, &f, ids))
    };
    let staged = Arc::new(Staged {
        node: table(g.node_feats(), node_ids),
        edge: table(g.edge_feats().filter(|_| sampled), edge_ids),
        deltas: host_deltas.map(|d| d.to_pinned(ctx.device())),
        blocks,
    });
    for (i, blk) in head.chain().enumerate() {
        blk.attach_staged(Arc::clone(&staged), i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::link;
    use crate::{TBlock, TContext, TSampler};
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use tgl_device::Device;
    use tgl_graph::TemporalGraph;
    use tgl_sampler::SamplingStrategy;
    use tgl_tensor::Tensor;

    /// `(transfer.pinned_count, transfer.pageable_count)`.
    fn kinds() -> (u64, u64) {
        (
            tgl_obs::metrics::get("transfer.pinned_count"),
            tgl_obs::metrics::get("transfer.pageable_count"),
        )
    }

    fn setup(feat_device: Device, compute: Device) -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0)]));
        g.set_node_feats(
            Tensor::from_vec((0..6).map(|v| v as f32).collect(), [3, 2]).to(feat_device),
        );
        g.set_edge_feats(Tensor::from_vec(vec![1.0, 2.0], [2, 1]).to(feat_device));
        let ctx = TContext::with_device(Arc::clone(&g), compute);
        (g, ctx)
    }

    /// A sampled two-block chain whose slots repeat nodes and edges.
    fn two_block_chain(ctx: &TContext) -> TBlock {
        let sampler = TSampler::new(2, SamplingStrategy::Recent);
        let head = TBlock::new(ctx, 0, vec![2, 1, 2], vec![9.0, 9.0, 9.0]);
        sampler.sample(&head);
        sampler.sample(&head.next_block());
        head
    }

    #[test]
    fn preload_moves_features_to_compute_device() {
        let _l = link();
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        TSampler::new(2, SamplingStrategy::Recent).sample(&head);
        let before = kinds().0;
        preload(&ctx, &head);
        // One pinned transfer per table, one for the deltas.
        assert_eq!(kinds().0 - before, 3);
        assert_eq!(head.dstfeat().device(), Device::Accel);
        assert_eq!(head.srcfeat().device(), Device::Accel);
        assert_eq!(head.efeat().device(), Device::Accel);
    }

    #[test]
    fn preload_walks_whole_chain() {
        let _l = link();
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = two_block_chain(&ctx);
        preload(&ctx, &head);
        let tail = head.tail();
        assert_eq!(tail.dstfeat().device(), Device::Accel);
        assert_eq!(tail.srcfeat().device(), Device::Accel);
    }

    #[test]
    fn preload_noop_when_already_on_device() {
        let _l = link();
        let (g, ctx) = setup(Device::Host, Device::Host);
        let head = two_block_chain(&ctx);
        let before = tgl_device::stats().transfer_count;
        preload(&ctx, &head);
        for blk in head.chain() {
            let (dst, src, edge) = (blk.dstfeat(), blk.srcfeat(), blk.efeat());
            assert_eq!(dst.device(), Device::Host);
            assert_eq!(dst.to_vec(), g.node_feat_rows(&blk.dst_nodes()).to_vec());
            assert_eq!(src.to_vec(), g.node_feat_rows(&blk.src_nodes()).to_vec());
            assert_eq!(edge.to_vec(), g.edge_feat_rows(&blk.eids()).to_vec());
        }
        assert_eq!(
            tgl_device::stats().transfer_count,
            before,
            "nothing to stage: the tables are on the compute device"
        );
    }

    #[test]
    fn each_distinct_row_crosses_the_link_once() {
        let _l = link();
        let (g, ctx) = setup(Device::Host, Device::Accel);
        let head = two_block_chain(&ctx);
        let (mut nodes, mut eids) = (BTreeSet::new(), BTreeSet::new());
        for blk in head.chain() {
            nodes.extend(blk.dst_nodes());
            nodes.extend(blk.src_nodes());
            eids.extend(blk.eids());
        }
        assert!(
            head.tail().num_edges() > eids.len(),
            "chain repeats no edge"
        );
        let (before, pinned) = (tgl_device::stats(), kinds().0);
        preload(&ctx, &head);
        let after = tgl_device::stats();
        // Plus one time delta per sampled edge, in a third transfer.
        let n_edges: usize = head.chain().map(|b| b.num_edges()).sum();
        let floats =
            nodes.len() * g.node_feat_dim() + eids.len() * g.edge_feat_dim() + n_edges;
        assert_eq!(after.h2d_bytes - before.h2d_bytes, 4 * floats as u64);
        assert_eq!(after.transfer_count - before.transfer_count, 3);
        assert_eq!(kinds().0 - pinned, 3);

        // Bitwise what the lazy loads of an unstaged chain return.
        let bits = |t: Tensor| -> Vec<u32> { t.to_vec().iter().map(|v| v.to_bits()).collect() };
        for (staged, lazy) in head.chain().zip(two_block_chain(&ctx).chain()) {
            assert_eq!(staged.dstfeat().device(), Device::Accel);
            assert_eq!(bits(staged.dstfeat()), bits(lazy.dstfeat()));
            assert_eq!(bits(staged.srcfeat()), bits(lazy.srcfeat()));
            assert_eq!(bits(staged.efeat()), bits(lazy.efeat()));
            // The staged deltas too: nothing crosses on this read.
            let crossed = tgl_device::stats().transfer_count;
            assert_eq!(staged.deltas().device(), Device::Accel);
            assert_eq!(tgl_device::stats().transfer_count, crossed);
            assert_eq!(staged.deltas().to_vec(), staged.delta_times());
            assert_eq!(bits(staged.deltas()), bits(lazy.deltas()));
        }
    }

    #[test]
    fn staged_chain_keeps_only_distinct_rows_on_the_device() {
        // What a chain queued by the sampler stage holds on the device tier.
        let _l = link();
        let (g, ctx) = setup(Device::Host, Device::Accel);
        let head = two_block_chain(&ctx);
        let used = tgl_device::stats().accel_used_bytes;
        preload(&ctx, &head);
        let resident = tgl_device::stats().accel_used_bytes - used;
        // All 3 nodes and both edges are reachable from node 2 at t=9;
        // every sampled edge adds its time delta.
        let n_edges: usize = head.chain().map(|b| b.num_edges()).sum();
        assert_eq!(
            resident,
            4 * (3 * g.node_feat_dim() + 2 * g.edge_feat_dim() + n_edges) as u64
        );
        drop(head);
        assert_eq!(tgl_device::stats().accel_used_bytes, used);
    }

    #[test]
    fn expansion_waits_for_the_first_read() {
        let _l = link();
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = two_block_chain(&ctx);
        preload(&ctx, &head);
        // The head is not the tail: no model reads its node rows, so
        // they are never gathered.
        assert!(matches!(head.feat_caches(), (None, None, None)));
        let crossed = tgl_device::stats().transfer_count;
        let dst = head.dstfeat();
        assert_eq!(tgl_device::stats().transfer_count, crossed, "the read crossed the link");
        let (expanded, src, edge) = head.feat_caches();
        assert_eq!(expanded.expect("dstfeat() fills the cached area").id(), dst.id());
        assert!(src.is_none() && edge.is_none());
        let bits = |t: Tensor| -> Vec<u32> { t.to_vec().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(dst), bits(two_block_chain(&ctx).dstfeat()));
    }

    #[test]
    fn feature_rows_name_the_staged_slots_and_copy_nothing() {
        let _l = link();
        let bits = |t: Tensor| -> Vec<u32> { t.to_vec().iter().map(|v| v.to_bits()).collect() };
        for feat_device in [Device::Host, Device::Accel] {
            let (_g, ctx) = setup(feat_device, Device::Accel);
            let head = two_block_chain(&ctx);
            preload(&ctx, &head);
            for (staged, lazy) in head.chain().zip(two_block_chain(&ctx).chain()) {
                for (rows, want) in [
                    (staged.dstfeat_rows(), lazy.dstfeat()),
                    (staged.srcfeat_rows(), lazy.srcfeat()),
                    (staged.efeat_rows(), lazy.efeat()),
                ] {
                    let (table, rows) = (rows.0, rows.1.expect("staged slots come with their rows"));
                    assert_eq!(table.device(), Device::Accel);
                    assert_eq!(bits(table.index_select(&rows)), bits(want));
                }
                // Naming the rows expanded nothing into the cached area.
                assert!(matches!(staged.feat_caches(), (None, None, None)));
            }
        }
        // Once a part is materialized (the `tgl` framework's eager
        // staging), or with nothing staged, the tensor comes whole.
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = two_block_chain(&ctx);
        preload(&ctx, &head);
        let src = head.srcfeat();
        assert_eq!(head.srcfeat_rows().0.id(), src.id());
        assert!(head.srcfeat_rows().1.is_none() && head.dstfeat_rows().1.is_some());
        let unstaged = two_block_chain(&ctx);
        assert!(unstaged.dstfeat_rows().1.is_none());
        assert_eq!(unstaged.dstfeat_rows().0.to_vec(), unstaged.dstfeat().to_vec());
    }

    #[test]
    fn pinned_transfers_use_pinned_kind() {
        let _l = link();
        let (_g, ctx) = setup(Device::Host, Device::Accel);
        let head = TBlock::new(&ctx, 0, vec![0, 1, 2], vec![9.0, 9.0, 9.0]);
        TSampler::new(2, SamplingStrategy::Recent).sample(&head);
        let before = kinds();
        preload(&ctx, &head);
        let after = kinds();
        // Two tables and the deltas, none of them pageable.
        assert_eq!((after.0 - before.0, after.1 - before.1), (3, 0));
    }

    #[test]
    fn phi_zero_input_is_built_on_the_device_not_shipped() {
        use tgl_tensor::nn::Module;
        let _l = link();
        let mut rng = <tgl_runtime::rng::StdRng as tgl_runtime::rng::SeedableRng>::seed_from_u64(0);
        let enc = crate::nn::TimeEncode::new(4, &mut rng).to_device(Device::Accel);
        let shipped = enc.forward(&[0.0; 3]);
        let before = tgl_device::stats().transfer_count;
        let built = enc.encode_zeros(3);
        assert_eq!(tgl_device::stats().transfer_count, before, "a constant crossed the link");
        assert_eq!(built.device(), Device::Accel);
        assert_eq!(built.dims(), shipped.dims());
        assert_eq!(built.to_vec(), shipped.to_vec());
        built.sum_all().backward();
        assert!(enc.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn unsampled_tail_gets_destination_features_only() {
        let _l = link();
        let (g, ctx) = setup(Device::Host, Device::Accel);
        let head = TBlock::new(&ctx, 0, vec![2], vec![9.0]);
        TSampler::new(2, SamplingStrategy::Recent).sample(&head);
        let tail = head.next_block();
        preload(&ctx, &head);
        let crossed = tgl_device::stats().transfer_count;
        assert_eq!(
            tail.dstfeat().to_vec(),
            g.node_feat_rows(&tail.dst_nodes()).to_vec()
        );
        assert_eq!(tgl_device::stats().transfer_count, crossed, "staged rows crossed again");
        // Nothing was staged for a neighborhood that does not exist:
        // these are the (empty) lazy loads.
        assert_eq!((tail.srcfeat().dim(0), tail.efeat().dim(0)), (0, 0));
    }
}
