//! The TGLite runtime context.

use std::sync::Arc;

use tgl_runtime::sync::Mutex;
use tgl_runtime::IntMap;
use tgl_device::Device;
use tgl_graph::{NodeId, TemporalGraph, Time};

/// "Settings and scratch space used by the TGLite runtime, such as for
/// caching values" (paper Table 2).
///
/// Owns the target compute device and the per-layer embedding cache
/// behind `op::cache`. `op::preload` stages through the tensor pool's
/// recycled buffers and needs no space of its own here.
pub struct TContext {
    graph: Arc<TemporalGraph>,
    device: Device,
    embed_cache: Arc<EmbedCache>,
}

impl std::fmt::Debug for TContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TContext")
            .field("device", &self.device)
            .field("nodes", &self.graph.num_nodes())
            .field("edges", &self.graph.num_edges())
            .finish()
    }
}

impl TContext {
    /// Creates a context computing on the host tier.
    pub fn new(graph: Arc<TemporalGraph>) -> TContext {
        TContext::with_device(graph, Device::Host)
    }

    /// Creates a context computing on `device`.
    pub fn with_device(graph: Arc<TemporalGraph>, device: Device) -> TContext {
        TContext {
            graph,
            device,
            embed_cache: Arc::new(EmbedCache::new(20_000)),
        }
    }

    /// The CTDG this context operates over.
    pub fn graph(&self) -> &Arc<TemporalGraph> {
        &self.graph
    }

    /// The compute device models should place tensors on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The embedding cache used by `op::cache`.
    pub fn embed_cache(&self) -> &EmbedCache {
        &self.embed_cache
    }

    /// Shared handle to the embedding cache (for hooks that outlive
    /// the borrow of the context).
    pub(crate) fn embed_cache_arc(&self) -> Arc<EmbedCache> {
        Arc::clone(&self.embed_cache)
    }

    /// Clears cached embeddings (e.g. between epochs or after
    /// parameters change, which invalidates memoized results).
    pub fn clear_caches(&self) {
        self.embed_cache.clear();
    }
}

/// Key for a memoized embedding: a `(node, time)` pair at a layer.
fn cache_key(layer: usize, node: NodeId, time: Time) -> (u64, u64) {
    (((layer as u64) << 32) | node as u64, time.to_bits())
}

/// Bounded memoization table for computed node-time embeddings
/// (the paper's `cache()` optimization, after TGOpt).
///
/// FIFO-bounded: when full, the oldest insertions are evicted. Keys are
/// exact `(layer, node, time)` triples, so reuse only happens for
/// genuinely repeated computations — semantics are preserved.
///
/// Rows live in one flat ring of `capacity` slots behind a key → slot
/// map: a full ring overwrites its oldest slot in place, so steady
/// state allocates nothing per row. Layers may differ in output width:
/// each layer's width is fixed by its first store after a
/// [`clear`](EmbedCache::clear) and the slot pitch is the widest of
/// them (the ring is re-laid once when a wider layer first stores).
/// [`lookup`](EmbedCache::lookup) and [`store`](EmbedCache::store)
/// take the lock once per block of rows.
pub struct EmbedCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

#[derive(Default)]
struct CacheInner {
    slots: IntMap<(u64, u64), usize>,
    /// Slot → key, in insertion order until the ring wraps.
    keys: Vec<(u64, u64)>,
    /// Slot `i` holds `rows[i * pitch..][..widths[layer of keys[i]]]`.
    rows: Vec<f32>,
    pitch: usize,
    /// Row width per layer, set by the layer's first store.
    widths: IntMap<usize, usize>,
    /// The oldest slot: the next one overwritten once the ring is full.
    oldest: usize,
    hits: u64,
    misses: u64,
}

impl CacheInner {
    /// Re-lays the filled slots at a wider `pitch`, keeping their rows.
    fn widen(&mut self, pitch: usize) {
        let mut rows = vec![0.0; self.keys.len() * pitch];
        if self.pitch > 0 {
            for (new, old) in rows.chunks_exact_mut(pitch).zip(self.rows.chunks_exact(self.pitch)) {
                new[..self.pitch].copy_from_slice(old);
            }
        }
        self.rows = rows;
        self.pitch = pitch;
    }
}

impl EmbedCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> EmbedCache {
        EmbedCache { inner: Mutex::new(CacheInner::default()), capacity }
    }

    /// Looks up a block of `(node, time)` pairs at `layer` under one
    /// lock. Returns, per pair, whether it was cached, and the merged
    /// layout: on the first hit a `[pairs, width]` row-major buffer is
    /// drawn from `device`'s tensor pool and every cached row is copied
    /// to its pair's position, leaving the rows of the misses (stale
    /// pool contents) for the caller to fill. Without a hit the buffer
    /// is empty.
    pub fn lookup(
        &self,
        layer: usize,
        nodes: &[NodeId],
        times: &[Time],
        device: Device,
    ) -> (Vec<bool>, Vec<f32>) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // A layer that never stored has no width and cannot hit.
        let width = inner.widths.get(&layer).copied().unwrap_or(0);
        let pitch = inner.pitch;
        let mut merged = Vec::new();
        let hit: Vec<bool> = nodes
            .iter()
            .zip(times)
            .enumerate()
            .map(|(i, (&node, &t))| {
                let Some(&slot) = inner.slots.get(&cache_key(layer, node, t)) else {
                    return false;
                };
                if merged.is_empty() {
                    merged = tgl_tensor::pool::take_uninit(nodes.len() * width, device);
                }
                merged[i * width..][..width].copy_from_slice(&inner.rows[slot * pitch..][..width]);
                true
            })
            .collect();
        let hits = hit.iter().filter(|&&h| h).count() as u64;
        inner.hits += hits;
        inner.misses += hit.len() as u64 - hits;
        (hit, merged)
    }

    /// Stores one `width`-wide row of `rows` per `(node, time)` pair at
    /// `layer` under one lock, evicting oldest entries beyond capacity.
    /// A pair already cached has its row overwritten in place.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not `nodes.len() * width` long, or `width`
    /// differs from the width of the rows already held for `layer`.
    pub fn store(&self, layer: usize, nodes: &[NodeId], times: &[Time], rows: &[f32], width: usize) {
        assert_eq!(rows.len(), nodes.len() * width, "cache store row count mismatch");
        if nodes.is_empty() || self.capacity == 0 {
            return;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let held = *inner.widths.entry(layer).or_insert(width);
        assert_eq!(width, held, "layer {layer}'s cached row width changed; clear the cache first");
        if width > inner.pitch {
            inner.widen(width);
        }
        let pitch = inner.pitch;
        for ((&node, &t), row) in nodes.iter().zip(times).zip(rows.chunks_exact(width.max(1))) {
            let key = cache_key(layer, node, t);
            let slot = match inner.slots.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = if inner.keys.len() < self.capacity {
                        inner.keys.push(key);
                        inner.rows.resize(inner.keys.len() * pitch, 0.0);
                        inner.keys.len() - 1
                    } else {
                        let slot = inner.oldest;
                        inner.oldest = (slot + 1) % self.capacity;
                        let evicted = std::mem::replace(&mut inner.keys[slot], key);
                        inner.slots.remove(&evicted);
                        slot
                    };
                    inner.slots.insert(key, slot);
                    slot
                }
            };
            inner.rows[slot * pitch..][..width].copy_from_slice(row);
        }
    }

    /// Looks up one embedding row (a convenience over
    /// [`lookup`](EmbedCache::lookup) for inspection and tests).
    pub fn get(&self, layer: usize, node: NodeId, time: Time) -> Option<Vec<f32>> {
        let (hit, row) = self.lookup(layer, &[node], &[time], Device::Host);
        hit[0].then_some(row)
    }

    /// Inserts one embedding row (a convenience over
    /// [`store`](EmbedCache::store)).
    pub fn put(&self, layer: usize, node: NodeId, time: Time, row: &[f32]) {
        self.store(layer, &[node], &[time], row, row.len());
    }

    /// Drops all entries (and resets statistics), keeping the ring's
    /// allocation for the next fill.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.slots.clear();
        inner.keys.clear();
        inner.rows.clear();
        inner.pitch = 0;
        inner.widths.clear();
        inner.oldest = 0;
        inner.hits = 0;
        inner.misses = 0;
    }

    /// `(hits, misses)` since the last clear.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for EmbedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, m) = self.stats();
        write!(f, "EmbedCache(len={}, hits={h}, misses={m})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> TContext {
        TContext::new(Arc::new(TemporalGraph::from_edges(2, vec![(0, 1, 1.0)])))
    }

    #[test]
    fn context_defaults() {
        let c = ctx();
        assert_eq!(c.device(), Device::Host);
        assert_eq!(c.graph().num_edges(), 1);
        assert!(format!("{c:?}").contains("TContext"));
    }

    #[test]
    fn embed_cache_roundtrip_and_stats() {
        let cache = EmbedCache::new(10);
        assert!(cache.get(0, 1, 5.0).is_none());
        cache.put(0, 1, 5.0, &[1.0, 2.0]);
        assert_eq!(cache.get(0, 1, 5.0), Some(vec![1.0, 2.0]));
        // Different layer, node, or time are distinct keys.
        assert!(cache.get(1, 1, 5.0).is_none());
        assert!(cache.get(0, 2, 5.0).is_none());
        assert!(cache.get(0, 1, 6.0).is_none());
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 4);
    }

    #[test]
    fn embed_cache_evicts_fifo() {
        let cache = EmbedCache::new(2);
        cache.put(0, 0, 0.0, &[0.0]);
        cache.put(0, 1, 0.0, &[1.0]);
        cache.put(0, 2, 0.0, &[2.0]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(0, 0, 0.0).is_none(), "oldest entry evicted");
        assert!(cache.get(0, 2, 0.0).is_some());
    }

    #[test]
    fn embed_cache_overwrite_does_not_grow_order() {
        let cache = EmbedCache::new(2);
        cache.put(0, 0, 0.0, &[0.0]);
        cache.put(0, 0, 0.0, &[9.0]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(0, 0, 0.0), Some(vec![9.0]));
    }

    #[test]
    fn wrapped_ring_never_returns_an_evicted_row() {
        // Three laps of a 4-slot ring, interleaved with overwrites of
        // live keys: whatever a lookup returns is the row last stored
        // under that key, and only the 4 newest keys are live.
        let cache = EmbedCache::new(4);
        let row = |key: u32, lap: u32| [key as f32, lap as f32];
        for key in 0..12u32 {
            cache.put(0, key, 1.0, &row(key, 0));
            if key >= 1 {
                cache.put(0, key - 1, 1.0, &row(key - 1, 1));
            }
            assert!(cache.len() <= 4);
            for probe in 0..=key {
                let live = probe + 4 > key;
                let lap = u32::from(probe < key);
                let want = live.then(|| row(probe, lap).to_vec());
                assert_eq!(cache.get(0, probe, 1.0), want, "key {probe} after storing {key}");
            }
        }
        // A block store that laps the ring within one call keeps the tail.
        let nodes: Vec<NodeId> = (100..110).collect();
        let rows: Vec<f32> = nodes.iter().flat_map(|&n| row(n, 7)).collect();
        cache.store(0, &nodes, &[2.0; 10], &rows, 2);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get(0, 105, 2.0), None);
        assert_eq!(cache.get(0, 109, 2.0), Some(row(109, 7).to_vec()));
        assert_eq!(cache.get(0, 11, 1.0), None, "older keys are gone");
    }

    #[test]
    fn layers_of_different_widths_share_the_ring() {
        // Keys are per layer and so are row widths: a wider layer
        // storing after a narrower one re-lays the ring without losing
        // a row, and both keep sharing one FIFO order and one capacity.
        let cache = EmbedCache::new(3);
        cache.put(0, 7, 1.0, &[1.0, 2.0]);
        cache.put(1, 7, 1.0, &[3.0, 4.0, 5.0, 6.0]);
        cache.put(0, 8, 1.0, &[7.0, 8.0]);
        assert_eq!(cache.get(0, 7, 1.0), Some(vec![1.0, 2.0]));
        assert_eq!(cache.get(1, 7, 1.0), Some(vec![3.0, 4.0, 5.0, 6.0]));
        assert_eq!(cache.get(0, 8, 1.0), Some(vec![7.0, 8.0]));
        // The fourth key evicts the oldest of either layer, and a narrow
        // row reusing a wide row's slot reads back at its own width.
        cache.put(1, 9, 1.0, &[9.0; 4]);
        cache.put(0, 9, 1.0, &[10.0, 11.0]);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(0, 7, 1.0), None);
        assert_eq!(cache.get(1, 7, 1.0), None);
        assert_eq!(cache.get(0, 9, 1.0), Some(vec![10.0, 11.0]));
        let (hit, merged) = cache.lookup(1, &[9, 7], &[1.0, 1.0], Device::Host);
        assert_eq!(hit, vec![true, false]);
        assert_eq!(merged[..4], [9.0; 4]);
        // A clear forgets the widths with the rows.
        cache.clear();
        cache.put(1, 7, 1.0, &[1.0]);
        assert_eq!(cache.get(1, 7, 1.0), Some(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "cached row width changed")]
    fn one_layer_has_one_width() {
        let cache = EmbedCache::new(3);
        cache.put(2, 0, 0.0, &[1.0, 2.0]);
        cache.put(2, 1, 0.0, &[1.0]);
    }

    #[test]
    fn embed_cache_block_calls_agree_with_row_calls() {
        // `lookup` writes hits at their pair's row of the merged layout and
        // leaves the rest for the caller; `store` of a block equals the
        // same rows stored one at a time.
        let (block, rowwise) = (EmbedCache::new(8), EmbedCache::new(8));
        let nodes: Vec<NodeId> = vec![3, 9, 4, 9, 11];
        let times = vec![1.0, 2.0, 1.0, 2.5, 7.0];
        let rows: Vec<f32> = (0..15).map(|v| v as f32).collect();
        block.store(1, &nodes, &times, &rows, 3);
        for (i, (&n, &t)) in nodes.iter().zip(&times).enumerate() {
            rowwise.put(1, n, t, &rows[i * 3..][..3]);
        }
        let probe_nodes: Vec<NodeId> = vec![9, 5, 11, 3];
        let probe_times = vec![2.5, 1.0, 7.0, 9.0];
        let (hit, merged) = block.lookup(1, &probe_nodes, &probe_times, Device::Host);
        assert_eq!(hit, vec![true, false, true, false]);
        assert_eq!(merged.len(), 4 * 3);
        assert_eq!(merged[..3], rows[9..12]);
        assert_eq!(merged[6..9], rows[12..15]);
        for (i, (&n, &t)) in probe_nodes.iter().zip(&probe_times).enumerate() {
            assert_eq!(rowwise.get(1, n, t).is_some(), hit[i]);
        }
        assert_eq!(block.stats(), (2, 2));
        let (hit, merged) = block.lookup(0, &probe_nodes, &probe_times, Device::Host);
        assert_eq!(hit, vec![false; 4]);
        assert!(merged.is_empty(), "no hit, no merged layout");
    }

    /// What the cache should hold, kept the plain way: the live keys in
    /// first-store order with their rows, the oldest evicted first.
    #[derive(Default)]
    struct Reference {
        entries: std::collections::VecDeque<((usize, NodeId, u64), Vec<f32>)>,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn store(&mut self, capacity: usize, key: (usize, NodeId, u64), row: &[f32]) {
            match self.entries.iter_mut().find(|(k, _)| *k == key) {
                Some((_, held)) => *held = row.to_vec(),
                None => {
                    if self.entries.len() == capacity {
                        self.entries.pop_front();
                    }
                    self.entries.push_back((key, row.to_vec()));
                }
            }
        }

        fn get(&mut self, key: (usize, NodeId, u64)) -> Option<Vec<f32>> {
            let row = self.entries.iter().find(|(k, _)| *k == key).map(|(_, row)| row.clone());
            *if row.is_some() { &mut self.hits } else { &mut self.misses } += 1;
            row
        }
    }

    #[test]
    fn embed_cache_matches_a_fifo_key_list_on_seeded_sequences() {
        use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
        // Few nodes and times against a small capacity: blocks re-store
        // cached keys and lap the ring. Layer 2 is the widest and first
        // stores a while in, re-laying a ring that already holds rows.
        let width = |layer: usize| [2, 3, 5][layer];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..12usize);
            let (cache, mut want) = (EmbedCache::new(capacity), Reference::default());
            for step in 0..200 {
                let layer = rng.gen_range(0..if step < 60 { 2 } else { 3 });
                let w = width(layer);
                let n = rng.gen_range(0..6usize);
                let nodes: Vec<NodeId> = (0..n).map(|_| rng.gen_range(0..10u32)).collect();
                let times: Vec<Time> = (0..n).map(|_| rng.gen_range(0..3u32) as f64 * 1000.0).collect();
                if rng.gen_bool(0.5) {
                    let rows: Vec<f32> = (0..n * w).map(|i| (step * 100 + i) as f32).collect();
                    cache.store(layer, &nodes, &times, &rows, w);
                    for (i, (&node, &t)) in nodes.iter().zip(&times).enumerate() {
                        want.store(capacity, (layer, node, t.to_bits()), &rows[i * w..][..w]);
                    }
                } else {
                    let (hit, merged) = cache.lookup(layer, &nodes, &times, Device::Host);
                    for (i, (&node, &t)) in nodes.iter().zip(&times).enumerate() {
                        let row = want.get((layer, node, t.to_bits()));
                        assert_eq!(hit[i], row.is_some(), "seed {seed} step {step}: hit of ({layer}, {node}, {t})");
                        if let Some(row) = row {
                            assert_eq!(merged[i * w..][..w], row[..], "seed {seed} step {step}: row of ({layer}, {node}, {t})");
                        }
                    }
                }
                assert_eq!(cache.len(), want.entries.len(), "seed {seed} step {step}");
                assert_eq!(cache.stats(), (want.hits, want.misses), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn clear_caches_resets() {
        let c = ctx();
        c.embed_cache().put(0, 0, 1.0, &[1.0]);
        c.clear_caches();
        assert!(c.embed_cache().is_empty());
        assert_eq!(c.embed_cache().stats(), (0, 0));
    }
}
