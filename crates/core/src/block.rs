//! The `TBlock` abstraction — TGLite's centerpiece (paper §3.2).
//!
//! A TBlock captures the 1-hop message-flow dependencies between target
//! destination `(node, time)` pairs and their temporally sampled
//! neighbors. Three properties distinguish it from DGL-style MFGs:
//!
//! 1. **Doubly-linked chain**: blocks link to predecessor/successor
//!    blocks, explicitly representing multi-hop aggregation so that
//!    multi-block operators ([`crate::op::aggregate`],
//!    [`crate::op::propagate`]) can walk the chain and handle
//!    inter-layer bookkeeping.
//! 2. **Optional neighborhood**: a block starts with only destination
//!    pairs; optimizations like dedup/cache manipulate the destinations
//!    *before* sampling fills in the sources, shrinking downstream
//!    subgraphs.
//! 3. **Hooks**: operators register post-processing callbacks (e.g.
//!    dedup inversion, cache merge) that the runtime invokes
//!    automatically after the block's computation, preserving output
//!    semantics without user bookkeeping.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use tgl_device::Device;
use tgl_graph::{NodeId, TemporalGraph, Time};
use tgl_runtime::sync::{Mutex, MutexGuard};
use tgl_sampler::NeighborSample;
use tgl_tensor::Tensor;

use crate::op::Staged;
use crate::TContext;

/// A named post-processing hook: receives the block's computed output
/// rows and returns the transformed rows.
pub struct BlockHook {
    name: String,
    func: Box<dyn FnMut(Tensor) -> Tensor + Send>,
}

impl BlockHook {
    /// Creates a hook.
    pub fn new(
        name: impl Into<String>,
        func: impl FnMut(Tensor) -> Tensor + Send + 'static,
    ) -> BlockHook {
        BlockHook {
            name: name.into(),
            func: Box::new(func),
        }
    }

    /// The hook's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for BlockHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockHook({})", self.name)
    }
}

/// The per-block tensors that live in the block's cached area: feature
/// rows of the destinations, of the sampled neighbors and of the
/// sampled edges, and the per-edge time deltas.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Part {
    Dst,
    Src,
    Edge,
    Delta,
}

/// One entry of a block's named data: a table and the rows of it the
/// entry is (row `r` is the table's row `rows[r]`; `None`: the whole
/// table). Readers that take a `tgl_tensor::ops::Part` read the rows
/// where they lie.
type Rows = (Tensor, Option<Vec<usize>>);

struct BlockInner {
    graph: Arc<TemporalGraph>,
    device: Device,
    layer: usize,
    dst_nodes: Vec<NodeId>,
    dst_times: Vec<Time>,
    nbrs: Option<NeighborSample>,
    dstdata: HashMap<String, Rows>,
    srcdata: HashMap<String, Rows>,
    edata: HashMap<String, Tensor>,
    hooks: Vec<BlockHook>,
    next: Option<TBlock>,
    prev: Weak<Mutex<BlockInner>>,
    /// What [`crate::op::preload`] staged for the chain this block is
    /// in, and the block's position in that chain.
    staged: Option<(Arc<Staged>, usize)>,
    /// The cached area, indexed by [`Part`]: filled on first read.
    cache: [Option<Tensor>; 4],
}

impl BlockInner {
    fn delta_times(&self) -> Vec<f32> {
        self.nbrs.as_ref().map_or_else(Vec::new, |n| {
            n.dst_index
                .iter()
                .zip(&n.src_times)
                .map(|(&d, &st)| (self.dst_times[d] - st) as f32)
                .collect()
        })
    }

    /// The lazy load: `part` gathered on the graph's tier and moved to
    /// the compute device over the pageable path.
    fn load(&self, part: Part) -> Tensor {
        let nbrs = self.nbrs.as_ref();
        let gathered = match part {
            Part::Dst => self.graph.node_feat_rows(&self.dst_nodes),
            Part::Src => self.graph.node_feat_rows(nbrs.map_or(&[][..], |n| &n.src_nodes)),
            Part::Edge => self.graph.edge_feat_rows(nbrs.map_or(&[][..], |n| &n.eids)),
            Part::Delta => {
                let deltas = self.delta_times();
                let n = deltas.len();
                Tensor::from_vec(deltas, [n])
            }
        };
        gathered.to(self.device)
    }
}

/// A temporal block. Cheap to clone (shared handle), and `Send + Sync`:
/// a chain built on one thread can be handed to another (the pipelined
/// trainer's sampler stage does). One lock per block guards its state;
/// every accessor takes it for the duration of the call and none holds
/// it while running caller code, except [`TBlock::with_dst`] and
/// [`TBlock::with_nbrs`], whose closures therefore must not touch the
/// same block: the lock is not re-entrant, so that would deadlock. A
/// debug build panics instead, naming both accessors.
#[derive(Clone)]
pub struct TBlock {
    inner: Arc<Mutex<BlockInner>>,
}

#[cfg(debug_assertions)]
thread_local! {
    /// The blocks (by address) whose `with_dst` / `with_nbrs` closure
    /// is running on this thread, each with the accessor holding it.
    static HELD: std::cell::RefCell<Vec<(usize, &'static str)>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Marks that this thread runs caller code under a block's lock, from
/// creation until drop (a panic in the closure included).
#[cfg(debug_assertions)]
struct Held;

#[cfg(debug_assertions)]
impl Held {
    fn new(blk: &TBlock, accessor: &'static str) -> Held {
        HELD.with(|held| held.borrow_mut().push((blk.addr(), accessor)));
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| {
            held.borrow_mut().pop();
        });
    }
}

impl TBlock {
    /// Creates a standalone block for the given destination
    /// `(node, time)` pairs at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` and `times` differ in length.
    pub fn new(ctx: &TContext, layer: usize, nodes: Vec<NodeId>, times: Vec<Time>) -> TBlock {
        TBlock::linked(Arc::clone(ctx.graph()), ctx.device(), layer, nodes, times, Weak::new())
    }

    fn linked(
        graph: Arc<TemporalGraph>,
        device: Device,
        layer: usize,
        dst_nodes: Vec<NodeId>,
        dst_times: Vec<Time>,
        prev: Weak<Mutex<BlockInner>>,
    ) -> TBlock {
        assert_eq!(dst_nodes.len(), dst_times.len(), "dst nodes/times length mismatch");
        TBlock {
            inner: Arc::new(Mutex::new(BlockInner {
                graph,
                device,
                layer,
                dst_nodes,
                dst_times,
                nbrs: None,
                dstdata: HashMap::new(),
                srcdata: HashMap::new(),
                edata: HashMap::new(),
                hooks: Vec::new(),
                next: None,
                prev,
                staged: None,
                cache: [None, None, None, None],
            })),
        }
    }

    #[cfg(debug_assertions)]
    fn addr(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Takes the block's lock on behalf of `accessor`.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds the lock inside
    /// a `with_dst` / `with_nbrs` closure: the call would never return.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn lock(&self, accessor: &'static str) -> MutexGuard<'_, BlockInner> {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            if let Some((_, holder)) = held.borrow().iter().find(|(blk, _)| *blk == self.addr()) {
                panic!(
                    "TBlock::{accessor} called inside this block's own TBlock::{holder} closure: \
                     the block's lock is not re-entrant"
                );
            }
        });
        self.inner.lock()
    }

    // ---------------------------------------------------------------
    // Destination side
    // ---------------------------------------------------------------

    /// Number of destination pairs.
    pub fn num_dst(&self) -> usize {
        self.lock("num_dst").dst_nodes.len()
    }

    /// The layer index this block was created for (head = 0).
    pub fn layer(&self) -> usize {
        self.lock("layer").layer
    }

    /// Destination node ids (cloned).
    pub fn dst_nodes(&self) -> Vec<NodeId> {
        self.lock("dst_nodes").dst_nodes.clone()
    }

    /// Destination timestamps (cloned).
    pub fn dst_times(&self) -> Vec<Time> {
        self.lock("dst_times").dst_times.clone()
    }

    /// Runs `f` over the destination arrays without cloning. The
    /// block's lock is held while `f` runs.
    pub fn with_dst<R>(&self, f: impl FnOnce(&[NodeId], &[Time]) -> R) -> R {
        let inner = self.lock("with_dst");
        #[cfg(debug_assertions)]
        let _held = Held::new(self, "with_dst");
        f(&inner.dst_nodes, &inner.dst_times)
    }

    /// Replaces the destination pairs (used by `dedup`/`cache`, which
    /// must run before sampling).
    ///
    /// # Panics
    ///
    /// Panics if the neighborhood was already sampled, or on length
    /// mismatch.
    pub fn replace_dst(&self, nodes: Vec<NodeId>, times: Vec<Time>) {
        assert_eq!(nodes.len(), times.len(), "dst nodes/times length mismatch");
        let mut inner = self.lock("replace_dst");
        assert!(
            inner.nbrs.is_none(),
            "cannot replace destinations after sampling; apply dst-filtering \
             operators (dedup/cache) before TSampler::sample"
        );
        inner.dst_nodes = nodes;
        inner.dst_times = times;
        inner.staged = None;
        inner.cache[Part::Dst as usize] = None;
    }

    // ---------------------------------------------------------------
    // Neighborhood (source) side
    // ---------------------------------------------------------------

    /// Whether the neighborhood has been sampled/attached.
    pub fn has_nbrs(&self) -> bool {
        self.lock("has_nbrs").nbrs.is_some()
    }

    /// Attaches a sampled neighborhood.
    ///
    /// # Panics
    ///
    /// Panics if any `dst_index` is out of range for this block's
    /// destinations.
    pub fn set_neighborhood(&self, nbrs: NeighborSample) {
        let mut inner = self.lock("set_neighborhood");
        let n = inner.dst_nodes.len();
        assert!(
            nbrs.dst_index.iter().all(|&d| d < n),
            "neighborhood dst_index out of range"
        );
        inner.nbrs = Some(nbrs);
        inner.staged = None;
        for part in [Part::Src, Part::Edge, Part::Delta] {
            inner.cache[part as usize] = None;
        }
    }

    /// Number of sampled edges (0 before sampling).
    pub fn num_edges(&self) -> usize {
        self.lock("num_edges").nbrs.as_ref().map_or(0, |n| n.len())
    }

    /// One array of the neighborhood, cloned (empty before sampling).
    fn nbr_array<T: Clone>(&self, accessor: &'static str, pick: impl FnOnce(&NeighborSample) -> &Vec<T>) -> Vec<T> {
        self.lock(accessor).nbrs.as_ref().map_or_else(Vec::new, |n| pick(n).clone())
    }

    /// Per-edge destination position — the segment ids for segmented
    /// operators.
    pub fn dst_index(&self) -> Vec<usize> {
        self.nbr_array("dst_index", |n| &n.dst_index)
    }

    /// Sampled neighbor node per edge.
    pub fn src_nodes(&self) -> Vec<NodeId> {
        self.nbr_array("src_nodes", |n| &n.src_nodes)
    }

    /// Timestamp of each sampled edge.
    pub fn src_times(&self) -> Vec<Time> {
        self.nbr_array("src_times", |n| &n.src_times)
    }

    /// Edge id of each sampled edge.
    pub fn eids(&self) -> Vec<tgl_graph::EdgeId> {
        self.nbr_array("eids", |n| &n.eids)
    }

    /// Runs `f` over the attached neighborhood without cloning. The
    /// block's lock is held while `f` runs.
    ///
    /// # Panics
    ///
    /// Panics if no neighborhood is attached.
    pub fn with_nbrs<R>(&self, f: impl FnOnce(&NeighborSample) -> R) -> R {
        let inner = self.lock("with_nbrs");
        #[cfg(debug_assertions)]
        let _held = Held::new(self, "with_nbrs");
        f(inner
            .nbrs
            .as_ref()
            .expect("block has no sampled neighborhood"))
    }

    /// Per-edge time delta `t_dst − t_edge` as `f32` (the input to the
    /// time encoder for neighbor edges).
    pub fn delta_times(&self) -> Vec<f32> {
        self.lock("delta_times").delta_times()
    }

    /// [`TBlock::delta_times`] as an `[E]` tensor on the compute
    /// device. Cached like the feature rows.
    pub fn deltas(&self) -> Tensor {
        self.cached("deltas", Part::Delta)
    }

    /// Unique sampled source nodes (first-appearance order) plus the
    /// per-edge index into that unique list.
    pub fn uniq_src(&self) -> (Vec<NodeId>, Vec<usize>) {
        let inner = self.lock("uniq_src");
        let Some(n) = &inner.nbrs else {
            return (Vec::new(), Vec::new());
        };
        let idx = crate::op::node_index(inner.graph.num_nodes(), &n.src_nodes);
        (idx.nodes, idx.inverse)
    }

    // ---------------------------------------------------------------
    // Chain links
    // ---------------------------------------------------------------

    /// Creates (or returns the existing) successor block whose
    /// destinations are this block's destinations followed by its
    /// sampled neighbor `(node, edge-time)` pairs.
    ///
    /// This layout is what lets [`crate::op::aggregate`] split the
    /// successor's output into this block's `dstdata` (first
    /// `num_dst()` rows) and `srcdata` (remaining `num_edges()` rows).
    ///
    /// # Panics
    ///
    /// Panics if this block has no sampled neighborhood yet.
    pub fn next_block(&self) -> TBlock {
        let mut inner = self.lock("next_block");
        if let Some(next) = &inner.next {
            return next.clone();
        }
        let n = inner
            .nbrs
            .as_ref()
            .expect("sample this block before creating its successor");
        let nodes = [&inner.dst_nodes[..], &n.src_nodes[..]].concat();
        let times = [&inner.dst_times[..], &n.src_times[..]].concat();
        let next = TBlock::linked(
            Arc::clone(&inner.graph),
            inner.device,
            inner.layer + 1,
            nodes,
            times,
            Arc::downgrade(&self.inner),
        );
        inner.next = Some(next.clone());
        next
    }

    /// The successor block, if one was created.
    pub fn next(&self) -> Option<TBlock> {
        self.lock("next").next.clone()
    }

    /// The predecessor block, if this block was created via
    /// [`TBlock::next_block`] and the predecessor is still alive.
    pub fn prev(&self) -> Option<TBlock> {
        self.lock("prev").prev.upgrade().map(|inner| TBlock { inner })
    }

    /// The blocks of the chain from this one to the tail, in order.
    pub fn chain(&self) -> impl Iterator<Item = TBlock> {
        std::iter::successors(Some(self.clone()), TBlock::next)
    }

    /// Walks `next` links to the deepest block in the chain.
    pub fn tail(&self) -> TBlock {
        self.chain().last().expect("a chain has at least its head")
    }

    // ---------------------------------------------------------------
    // Feature access (cached; paper: "stored in the block's cached
    // area so we avoid fetching them a second time")
    // ---------------------------------------------------------------

    /// `part` of the cached area, on the compute device. The first
    /// read fills it: expanded out of the rows [`crate::op::preload`]
    /// staged for this chain when there are any (an on-device gather,
    /// nothing crosses), else loaded over the pageable path.
    fn cached(&self, accessor: &'static str, part: Part) -> Tensor {
        let mut inner = self.lock(accessor);
        if let Some(t) = &inner.cache[part as usize] {
            return t.clone();
        }
        let staged = inner.staged.as_ref().and_then(|(s, i)| s.expand(*i, part));
        let t = staged.unwrap_or_else(|| inner.load(part));
        inner.cache[part as usize] = Some(t.clone());
        t
    }

    /// Node features of the destination pairs, on the compute device.
    pub fn dstfeat(&self) -> Tensor {
        self.cached("dstfeat", Part::Dst)
    }

    /// Node features of the sampled neighbors, on the compute device.
    pub fn srcfeat(&self) -> Tensor {
        self.cached("srcfeat", Part::Src)
    }

    /// Edge features of the sampled edges, on the compute device.
    pub fn efeat(&self) -> Tensor {
        self.cached("efeat", Part::Edge)
    }

    /// `part` of the cached area as a reader can take it in place: the
    /// table [`crate::op::preload`] staged for the chain and the row of
    /// each of the block's slots in it. A block with nothing staged for
    /// the part, or whose cached area already holds it (the eager
    /// staging of the `tgl` framework), gives that tensor and no index.
    fn feat_rows(&self, accessor: &'static str, part: Part) -> Rows {
        let staged = {
            let inner = self.lock(accessor);
            let materialized = inner.cache[part as usize].is_some();
            inner.staged.as_ref().filter(|_| !materialized).and_then(|(s, i)| s.rows(*i, part))
        };
        match staged {
            Some((table, rows)) => (table, Some(rows)),
            None => (self.cached(accessor, part), None),
        }
    }

    /// [`TBlock::dstfeat`] as rows of the staged node table (see
    /// [`TBlock::efeat_rows`]): no `[n_dst, d_node]` copy is made.
    pub fn dstfeat_rows(&self) -> (Tensor, Option<Vec<usize>>) {
        self.feat_rows("dstfeat_rows", Part::Dst)
    }

    /// [`TBlock::srcfeat`] as rows of the staged node table (see
    /// [`TBlock::efeat_rows`]): no `[E, d_node]` copy is made.
    pub fn srcfeat_rows(&self) -> (Tensor, Option<Vec<usize>>) {
        self.feat_rows("srcfeat_rows", Part::Src)
    }

    /// [`TBlock::efeat`] as an affine layer can read it in place
    /// (`tgl_tensor::ops::Part::Rows`): the edge table
    /// [`crate::op::preload`] staged for the chain and the row of each
    /// sampled edge in it, so no `[E, d_edge]` copy is made. A block
    /// with nothing staged for its edges, or whose `efeat()` already
    /// holds the rows (the eager staging of the `tgl` framework), gives
    /// that tensor and no index.
    pub fn efeat_rows(&self) -> (Tensor, Option<Vec<usize>>) {
        self.feat_rows("efeat_rows", Part::Edge)
    }

    /// Attaches the rows staged for the chain this block is the `i`-th
    /// block of (used by [`crate::op::preload`]). They stay until the
    /// block changes shape (`replace_dst`, `set_neighborhood`) or
    /// `flush_cache` drops them.
    pub(crate) fn attach_staged(&self, staged: Arc<Staged>, i: usize) {
        self.lock("attach_staged").staged = Some((staged, i));
    }

    /// Snapshot of the expanded `(dst, src, edge)` feature tensors.
    #[cfg(test)]
    pub(crate) fn feat_caches(&self) -> (Option<Tensor>, Option<Tensor>, Option<Tensor>) {
        let [dst, src, edge, _] = self.lock("feat_caches").cache.clone();
        (dst, src, edge)
    }

    /// Drops the cached area, staged rows included; the tensors reload
    /// gracefully (over the pageable path) on next access.
    pub fn flush_cache(&self) {
        let mut inner = self.lock("flush_cache");
        inner.staged = None;
        inner.cache = [None, None, None, None];
    }

    /// Memory rows for the destination nodes, on the compute device.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no attached memory.
    pub fn mem_data(&self) -> Tensor {
        let inner = self.lock("mem_data");
        let mem = inner.graph.memory();
        mem.rows(&inner.dst_nodes).to(inner.device)
    }

    /// Latest mailbox rows + delivery times for the destination nodes.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no attached mailbox.
    pub fn mail(&self) -> (Tensor, Vec<Time>) {
        let inner = self.lock("mail");
        let mb = inner.graph.mailbox();
        let (mail, times) = mb.latest(&inner.dst_nodes);
        (mail.to(inner.device), times)
    }

    /// The graph this block was created from.
    pub fn graph(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.lock("graph").graph)
    }

    /// The compute device of this block.
    pub fn device(&self) -> Device {
        self.lock("device").device
    }

    // ---------------------------------------------------------------
    // Named tensor data
    // ---------------------------------------------------------------

    /// Attaches a named tensor to the destination side.
    pub fn set_dstdata(&self, key: &str, t: Tensor) {
        self.set_dstdata_rows(key, t, None);
    }

    /// Attaches named destination data as rows of `table` (row `r` is
    /// `table`'s row `rows[r]`; all of `table` when `rows` is `None`),
    /// left where they lie: [`TBlock::dstdata_rows`] hands them on as
    /// they are, [`TBlock::dstdata`] gathers them.
    pub fn set_dstdata_rows(&self, key: &str, table: Tensor, rows: Option<Vec<usize>>) {
        self.lock("set_dstdata_rows").dstdata.insert(key.to_string(), (table, rows));
    }

    /// Retrieves named destination data, gathered into a tensor of its
    /// own if it was attached as rows.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn dstdata(&self, key: &str) -> Tensor {
        materialize(self.dstdata_rows(key))
    }

    /// Retrieves named destination data as its table and the rows of it
    /// (`None`: the whole table), without copying them.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn dstdata_rows(&self, key: &str) -> (Tensor, Option<Vec<usize>>) {
        let inner = self.lock("dstdata_rows");
        inner.dstdata.get(key).cloned().unwrap_or_else(|| panic!("no dstdata[{key:?}] on this block"))
    }

    /// Whether destination data exists for `key`.
    pub fn has_dstdata(&self, key: &str) -> bool {
        self.lock("has_dstdata").dstdata.contains_key(key)
    }

    /// Attaches a named tensor to the source (neighbor-edge) side.
    pub fn set_srcdata(&self, key: &str, t: Tensor) {
        self.set_srcdata_rows(key, t, None);
    }

    /// Attaches named source data as rows of `table`, as
    /// [`TBlock::set_dstdata_rows`] does for the destination side.
    pub fn set_srcdata_rows(&self, key: &str, table: Tensor, rows: Option<Vec<usize>>) {
        self.lock("set_srcdata_rows").srcdata.insert(key.to_string(), (table, rows));
    }

    /// Retrieves named source data, gathered into a tensor of its own
    /// if it was attached as rows.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn srcdata(&self, key: &str) -> Tensor {
        materialize(self.srcdata_rows(key))
    }

    /// Retrieves named source data as its table and the rows of it
    /// (`None`: the whole table), without copying them.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn srcdata_rows(&self, key: &str) -> (Tensor, Option<Vec<usize>>) {
        let inner = self.lock("srcdata_rows");
        inner.srcdata.get(key).cloned().unwrap_or_else(|| panic!("no srcdata[{key:?}] on this block"))
    }

    /// Whether source data exists for `key`.
    pub fn has_srcdata(&self, key: &str) -> bool {
        self.lock("has_srcdata").srcdata.contains_key(key)
    }

    /// Attaches a named per-edge tensor.
    pub fn set_edata(&self, key: &str, t: Tensor) {
        self.lock("set_edata").edata.insert(key.to_string(), t);
    }

    /// Retrieves named per-edge data.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent.
    pub fn edata(&self, key: &str) -> Tensor {
        self.lock("edata")
            .edata
            .get(key)
            .unwrap_or_else(|| panic!("no edata[{key:?}] on this block"))
            .clone()
    }

    // ---------------------------------------------------------------
    // Hooks
    // ---------------------------------------------------------------

    /// Registers a post-processing hook on this block.
    ///
    /// Hooks run (via [`TBlock::run_hooks`], which the `aggregate`
    /// operator calls automatically) in **reverse registration order**:
    /// the operator applied last filtered the destinations last, so its
    /// inversion must run first to restore the intermediate layout.
    pub fn register_hook(&self, hook: BlockHook) {
        self.lock("register_hook").hooks.push(hook);
    }

    /// Number of pending hooks.
    pub fn num_hooks(&self) -> usize {
        self.lock("num_hooks").hooks.len()
    }

    /// Consumes and runs all registered hooks on `output` (reverse
    /// registration order), returning the transformed tensor.
    pub fn run_hooks(&self, output: Tensor) -> Tensor {
        let mut hooks = std::mem::take(&mut self.lock("run_hooks").hooks);
        let mut out = output;
        for hook in hooks.iter_mut().rev() {
            out = (hook.func)(out);
        }
        out
    }
}

/// Named data as a tensor of its own: the table's rows gathered, or the
/// table itself when the data is all of it.
fn materialize((table, rows): Rows) -> Tensor {
    match rows {
        Some(rows) => table.index_select(&rows),
        None => table,
    }
}

impl std::fmt::Debug for TBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock("fmt");
        write!(
            f,
            "TBlock(layer={}, dst={}, edges={}, hooks={}, linked={})",
            inner.layer,
            inner.dst_nodes.len(),
            inner.nbrs.as_ref().map_or(0, |n| n.len()),
            inner.hooks.len(),
            inner.next.is_some() || inner.prev.upgrade().is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TContext;

    fn setup() -> (Arc<TemporalGraph>, TContext) {
        let g = Arc::new(TemporalGraph::from_edges(
            4,
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)],
        ));
        g.set_node_feats(Tensor::from_vec(
            (0..8).map(|v| v as f32).collect(),
            [4, 2],
        ));
        g.set_edge_feats(Tensor::from_vec(vec![10.0, 20.0, 30.0], [3, 1]));
        let ctx = TContext::new(Arc::clone(&g));
        (g, ctx)
    }

    fn sample(blk: &TBlock) {
        let nbrs = tgl_sampler::TemporalSampler::new(2, tgl_sampler::SamplingStrategy::Recent)
            .sample(&blk.graph().tcsr(), &blk.dst_nodes(), &blk.dst_times());
        blk.set_neighborhood(nbrs);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "TBlock::num_dst called inside this block's own TBlock::with_dst closure")]
    fn reentrant_closure_panics_instead_of_deadlocking() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![1, 2], vec![5.0, 5.0]);
        blk.with_dst(|_, _| blk.num_dst());
    }

    #[test]
    fn new_block_has_no_neighborhood() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![1, 2], vec![5.0, 5.0]);
        assert_eq!(blk.num_dst(), 2);
        assert!(!blk.has_nbrs());
        assert_eq!(blk.num_edges(), 0);
        assert_eq!(blk.layer(), 0);
        assert!(blk.prev().is_none());
        assert!(blk.next().is_none());
    }

    #[test]
    fn replace_dst_before_sampling_ok_after_not() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![1, 1, 2], vec![5.0, 5.0, 5.0]);
        blk.replace_dst(vec![1, 2], vec![5.0, 5.0]);
        assert_eq!(blk.num_dst(), 2);
        sample(&blk);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            blk.replace_dst(vec![1], vec![5.0]);
        }));
        assert!(r.is_err(), "replace after sampling must panic");
    }

    #[test]
    fn delta_times_are_dst_minus_edge() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![2], vec![10.0]);
        sample(&blk);
        // node 2 has edges at t=2 (to 1) and t=3 (to 3)
        assert_eq!(blk.delta_times(), vec![8.0, 7.0]);
    }

    #[test]
    fn next_block_stacks_dst_then_src() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![2], vec![10.0]);
        sample(&blk);
        let next = blk.next_block();
        assert_eq!(next.layer(), 1);
        assert_eq!(next.num_dst(), 1 + blk.num_edges());
        assert_eq!(next.dst_nodes()[0], 2);
        assert!(next.prev().is_some());
        assert!(blk.next().is_some());
        // Second call returns the same block.
        let again = blk.next_block();
        assert!(Arc::ptr_eq(&again.inner, &next.inner));
    }

    #[test]
    fn tail_and_chain_len() {
        let (_g, ctx) = setup();
        let head = TBlock::new(&ctx, 0, vec![2], vec![10.0]);
        sample(&head);
        let mid = head.next_block();
        sample(&mid);
        let tail = mid.next_block();
        assert_eq!(head.chain().count(), 3);
        assert!(Arc::ptr_eq(&head.tail().inner, &tail.inner));
    }

    #[test]
    fn feature_access_and_caching() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![3, 0], vec![10.0, 10.0]);
        let f = blk.dstfeat();
        assert_eq!(f.to_vec(), vec![6.0, 7.0, 0.0, 1.0]);
        // Cached: same storage handle on second access.
        let f2 = blk.dstfeat();
        assert_eq!(f2.id(), f.id());
        blk.flush_cache();
        let f3 = blk.dstfeat();
        assert_ne!(f3.id(), f.id());
        assert_eq!(f3.to_vec(), f.to_vec());
    }

    #[test]
    fn src_and_edge_features_follow_sampling() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![2], vec![10.0]);
        sample(&blk);
        assert_eq!(blk.src_nodes(), vec![1, 3]);
        assert_eq!(blk.srcfeat().to_vec(), vec![2.0, 3.0, 6.0, 7.0]);
        assert_eq!(blk.efeat().to_vec(), vec![20.0, 30.0]);
    }

    #[test]
    fn named_data_roundtrip_and_panics() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![0], vec![1.0]);
        blk.set_dstdata("h", Tensor::ones([1, 2]));
        assert!(blk.has_dstdata("h"));
        assert_eq!(blk.dstdata("h").to_vec(), vec![1.0, 1.0]);
        assert!(!blk.has_srcdata("h"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| blk.srcdata("h")));
        assert!(r.is_err());
    }

    #[test]
    fn named_rows_stay_rows_until_a_tensor_is_asked_for() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![0], vec![1.0]);
        let table = Tensor::from_vec((0..6).map(|v| v as f32).collect(), [3, 2]);
        blk.set_srcdata_rows("h", table.clone(), Some(vec![2, 0]));
        let (held, rows) = blk.srcdata_rows("h");
        assert_eq!((held.id(), rows), (table.id(), Some(vec![2, 0])));
        assert_eq!(blk.srcdata("h").to_vec(), vec![4.0, 5.0, 0.0, 1.0]);
        // A whole tensor is its own table, with no index.
        blk.set_dstdata("h", table.clone());
        let (held, rows) = blk.dstdata_rows("h");
        assert_eq!((held.id(), rows), (table.id(), None));
        assert_eq!(blk.dstdata("h").id(), table.id());
    }

    #[test]
    fn hooks_run_in_reverse_order_and_drain() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![0], vec![1.0]);
        // first hook doubles, second adds 1; reverse order => (x+1)*2
        blk.register_hook(BlockHook::new("double", |t: Tensor| t.mul_scalar(2.0)));
        blk.register_hook(BlockHook::new("inc", |t: Tensor| t.add_scalar(1.0)));
        assert_eq!(blk.num_hooks(), 2);
        let out = blk.run_hooks(Tensor::from_vec(vec![3.0], [1]));
        assert_eq!(out.to_vec(), vec![8.0]);
        assert_eq!(blk.num_hooks(), 0, "hooks are consumed");
        // Running again is a no-op.
        let out2 = blk.run_hooks(Tensor::from_vec(vec![3.0], [1]));
        assert_eq!(out2.to_vec(), vec![3.0]);
    }

    #[test]
    fn uniq_src_mapping() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![1, 2], vec![10.0, 10.0]);
        sample(&blk);
        let (uniq, index) = blk.uniq_src();
        // Every edge maps back to its src node through the unique list.
        let src = blk.src_nodes();
        for (e, &u) in index.iter().enumerate() {
            assert_eq!(uniq[u], src[e]);
        }
        let mut sorted = uniq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), uniq.len(), "uniq_src has duplicates");
    }

    #[test]
    fn mem_and_mail_access() {
        let (g, ctx) = setup();
        g.attach_memory(2, Device::Host);
        g.attach_mailbox(1, 3, Device::Host);
        g.memory()
            .store(&[1], &Tensor::from_vec(vec![5.0, 6.0], [1, 2]), &[2.0]);
        g.mailbox()
            .store(&[1], &Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]), &[2.5]);
        let blk = TBlock::new(&ctx, 0, vec![1, 0], vec![9.0, 9.0]);
        assert_eq!(blk.mem_data().to_vec(), vec![5.0, 6.0, 0.0, 0.0]);
        let (mail, times) = blk.mail();
        assert_eq!(mail.to_vec(), vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        assert_eq!(times, vec![2.5, 0.0]);
    }

    #[test]
    fn debug_format() {
        let (_g, ctx) = setup();
        let blk = TBlock::new(&ctx, 0, vec![0], vec![1.0]);
        assert!(format!("{blk:?}").contains("TBlock(layer=0, dst=1"));
    }
}
