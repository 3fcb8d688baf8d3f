//! Log2-bucketed value histograms and gauges.
//!
//! Counters answer "how many"; these answer "how is it distributed" and
//! "how much right now". A [`Histogram`] records `u64` samples (queue
//! occupancy; durations, waits included, are spans bucketed by the
//! aggregate in [`crate::profile`] and only *read* through
//! [`hist_snapshot`]) into 64 power-of-two buckets:
//! bucket `i` holds values in `[2^i, 2^(i+1))`, with 0 folded into
//! bucket 0. Everything is a relaxed atomic, so recording from pool
//! workers is wait-free and a [`HistSnapshot`] taken after a parallel
//! region is **thread-count-invariant**: the same multiset of recorded
//! values produces identical `count`/`sum`/bucket vectors regardless of
//! how the recording work was partitioned (asserted in
//! `parallel_determinism.rs`).
//!
//! Quantiles ([`HistSnapshot::quantile`]) interpolate linearly inside
//! the selected bucket, so estimates are exact at bucket boundaries and
//! off by at most the bucket width (a factor of 2) inside one — plenty
//! for "did p99 move an order of magnitude". The true maximum is
//! tracked exactly.
//!
//! A [`Gauge`] is a last-write-wins `f64` (parameter-update ratio,
//! gradient norm, loss trend): `gauge!("health.grad_norm").set(x)`.
//!
//! Both types share the [`metrics`](crate::metrics) enable gate: when
//! metering is disabled, `record`/`set` are a relaxed load + branch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::enabled;

/// Number of log2 buckets (covers the full `u64` range).
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of a recorded value: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for bucket 0).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_hi(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// A named log2-bucketed histogram. Obtain via [`histogram`] or the
/// `histogram!` macro; instances live for the life of the process.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Histogram {
    fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample (no-op when metering is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.record_always(v);
        }
    }

    /// Records one sample regardless of the enable gate (used by tests
    /// and by drains that must not lose data).
    pub fn record_always(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent copy of the histogram's current state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Zeroes all state (registration persists).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of one histogram: mergeable, diffable, and the
/// unit run reports consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Adds one sample (the span aggregate buckets durations in place).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) with linear interpolation
    /// inside the selected bucket. Returns 0 for an empty snapshot.
    /// The estimate is clamped to the tracked maximum, so `quantile(1.0)`
    /// is exact.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let lo = bucket_lo(i) as f64;
                let hi = (bucket_hi(i).min(self.max.max(1))) as f64;
                // Midpoint rule: the j-th of c samples sits at fraction
                // (j - 0.5)/c of the bucket, so a fully consumed bucket
                // lands inside it, not on its upper edge.
                let frac = ((target - cum as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
                return (lo + frac * (hi - lo).max(0.0)).min(self.max as f64);
            }
            cum = next;
        }
        self.max as f64
    }

    /// Element-wise merge of two snapshots (e.g. per-shard histograms).
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
        }
    }

    /// Samples recorded between `earlier` and `self` (saturating, so a
    /// reset between the two snapshots yields zeros rather than wrap).
    /// `max` is carried from `self`: the true per-interval max is not
    /// recoverable from cumulative state, so the lifetime max is the
    /// honest upper bound.
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(earlier.buckets[i])
            }),
        }
    }
}

/// A named last-write-wins `f64` gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge (no-op when metering is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Shared registry shape for histograms and gauges: a `HashMap` for
/// O(1) name lookup plus a `Vec` preserving registration order.
struct Registry<T: 'static> {
    by_name: HashMap<&'static str, &'static T>,
    in_order: Vec<&'static T>,
}

impl<T> Registry<T> {
    fn new() -> Registry<T> {
        Registry {
            by_name: HashMap::new(),
            in_order: Vec::new(),
        }
    }

    fn get_or_insert(&mut self, name: &'static str, make: impl FnOnce(&'static str) -> T) -> &'static T {
        if let Some(v) = self.by_name.get(name) {
            return v;
        }
        let v: &'static T = Box::leak(Box::new(make(name)));
        self.by_name.insert(name, v);
        self.in_order.push(v);
        v
    }
}

static HISTOGRAMS: std::sync::LazyLock<Mutex<Registry<Histogram>>> =
    std::sync::LazyLock::new(|| Mutex::new(Registry::new()));
static GAUGES: std::sync::LazyLock<Mutex<Registry<Gauge>>> =
    std::sync::LazyLock::new(|| Mutex::new(Registry::new()));

/// Returns the histogram registered under `name`, creating it on first
/// use. Prefer the `histogram!` macro at instrumentation sites.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
    reg.get_or_insert(name, Histogram::new)
}

/// Returns the gauge registered under `name`, creating it on first
/// use. Prefer the `gauge!` macro at instrumentation sites.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    reg.get_or_insert(name, Gauge::new)
}

/// Snapshot of every histogram as `(name, snapshot)`, sorted by name
/// for stable report output: the registered value histograms plus the
/// duration families, which are a view of the span aggregate
/// ([`crate::profile::latency_snapshot`]).
pub fn hist_snapshot() -> Vec<(&'static str, HistSnapshot)> {
    let reg = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
    let mut v: Vec<_> = reg.in_order.iter().map(|h| (h.name, h.snapshot())).collect();
    drop(reg);
    v.extend(crate::profile::latency_snapshot());
    v.sort_unstable_by_key(|&(n, _)| n);
    v
}

/// Snapshot of every registered gauge as `(name, value)`, sorted by
/// name.
pub fn gauge_snapshot() -> Vec<(&'static str, f64)> {
    let reg = GAUGES.lock().unwrap_or_else(|e| e.into_inner());
    let mut v: Vec<_> = reg.in_order.iter().map(|g| (g.name, g.get())).collect();
    v.sort_unstable_by_key(|&(n, _)| n);
    v
}

/// Interns a histogram at the call site, mirroring `counter!`.
///
/// ```
/// tgl_obs::histogram!("example.latency_ns").record(1500);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::hist::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::hist::histogram($name))
    }};
}

/// Interns a gauge at the call site, mirroring `counter!`.
///
/// ```
/// tgl_obs::gauge!("example.level").set(0.5);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::hist::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::hist::gauge($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i).max(1)), i);
            if i < 63 {
                assert_eq!(bucket_index(bucket_hi(i) - 1), i);
                assert_eq!(bucket_index(bucket_hi(i)), i + 1);
            }
        }
    }

    #[test]
    fn records_land_in_their_buckets() {
        let h = histogram("test.hist.buckets");
        h.reset();
        for v in [0u64, 1, 2, 3, 7, 8, 1000] {
            h.record_always(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1021);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 2); // 0, 1
        assert_eq!(s.buckets[1], 2); // 2, 3
        assert_eq!(s.buckets[2], 1); // 7
        assert_eq!(s.buckets[3], 1); // 8
        assert_eq!(s.buckets[9], 1); // 1000
    }

    #[test]
    fn quantiles_on_known_uniform_distribution() {
        let h = histogram("test.hist.quantiles");
        h.reset();
        // 1..=1024 once each: the true q-quantile is ~1024q; log2
        // buckets bound the estimate within a factor of 2.
        for v in 1..=1024u64 {
            h.record_always(v);
        }
        let s = h.snapshot();
        for (q, truth) in [(0.5, 512.0), (0.9, 922.0), (0.99, 1014.0)] {
            let est = s.quantile(q);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: estimate {est} not within 2x of {truth}"
            );
        }
        assert_eq!(s.quantile(1.0), 1024.0, "p100 is the exact max");
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_is_exact_for_single_valued_distributions() {
        let h = histogram("test.hist.constant");
        h.reset();
        for _ in 0..100 {
            h.record_always(4096);
        }
        let s = h.snapshot();
        // All mass in one bucket whose hi is clamped to the max.
        assert_eq!(s.quantile(0.5), 4096.0);
        assert_eq!(s.quantile(0.99), 4096.0);
    }

    #[test]
    fn concurrent_recording_merges_exactly() {
        let h = histogram("test.hist.concurrent");
        h.reset();
        let threads = 8;
        let per = 1000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per {
                        h.record_always(t * per + i + 1);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per);
        // Sum of 1..=8000
        assert_eq!(s.sum, (threads * per) * (threads * per + 1) / 2);
        assert_eq!(s.max, threads * per);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn snapshot_merge_and_diff_are_inverse() {
        let h = histogram("test.hist.diff");
        h.reset();
        h.record_always(10);
        h.record_always(100);
        let early = h.snapshot();
        h.record_always(1000);
        let late = h.snapshot();
        let delta = late.diff(&early);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 1000);
        assert_eq!(early.merge(&delta).count, late.count);
        assert_eq!(early.merge(&delta).sum, late.sum);
        assert_eq!(early.merge(&delta).buckets, late.buckets);
    }

    #[test]
    fn disabled_metering_drops_records() {
        let h = histogram("test.hist.gated");
        h.reset();
        crate::metrics::set_enabled(false);
        h.record(5);
        crate::metrics::set_enabled(true);
        assert_eq!(h.snapshot().count, 0);
        h.record(5);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let g = gauge("test.gauge.basic");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        assert!(std::ptr::eq(g, gauge("test.gauge.basic")));
        assert!(gauge_snapshot()
            .iter()
            .any(|&(n, v)| n == "test.gauge.basic" && v == -2.25));
    }

    #[test]
    fn macros_cache_lookup() {
        let a = histogram!("test.hist.macro");
        let b = histogram!("test.hist.macro");
        assert!(std::ptr::eq(a, b));
        let ga = gauge!("test.gauge.macro");
        let gb = gauge!("test.gauge.macro");
        assert!(std::ptr::eq(ga, gb));
    }

    #[test]
    fn snapshot_listing_is_sorted() {
        histogram("test.hist.zz").record_always(1);
        histogram("test.hist.aa").record_always(1);
        let snap = hist_snapshot();
        assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
