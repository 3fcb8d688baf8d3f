//! Global counter registry.
//!
//! Subsystems meter themselves with named monotonic counters:
//! `tgl_obs::counter!("cache.hits").add(n)`. The macro interns the name
//! in a process-global registry once per call site, so steady-state
//! cost is one relaxed `fetch_add`; counters always count. [`snapshot`]
//! returns every registered counter for run reports; [`reset`] zeroes
//! them between measured runs. The registry
//! type is the one `hist`'s gauges and histograms use too.
//!
//! Naming scheme: `<subsystem>.<quantity>[.<qualifier>]`, all
//! lowercase, e.g. `cache.hits`, `transfer.h2d_bytes`,
//! `pool.busy_ns.t3`. Byte counts end in `_bytes`, nanosecond totals in
//! `_ns`; everything else is an event count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A named monotonic counter. Obtain via [`counter`] or the
/// `counter!` macro; instances live for the life of the process.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The one name registry, shared by counters, gauges and histograms:
/// each name maps to one leaked, process-lifetime entry, and entries
/// come back in name order. Sites cache their lookup (`counter!`,
/// `gauge!`, `histogram!`), so the lock is taken at registration and by
/// readers, never per increment.
pub(crate) struct Registry<T: 'static>(Mutex<BTreeMap<&'static str, &'static T>>);

impl<T> Registry<T> {
    pub(crate) const fn new() -> Registry<T> {
        Registry(Mutex::new(BTreeMap::new()))
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<&'static str, &'static T>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry registered under `name`, made by `make` on first use.
    pub(crate) fn get_or_insert(&self, name: &'static str, make: impl FnOnce(&'static str) -> T) -> &'static T {
        self.map().entry(name).or_insert_with(|| Box::leak(Box::new(make(name))))
    }

    /// The entry registered under `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<&'static T> {
        self.map().get(name).copied()
    }

    /// Every entry, in name order.
    pub(crate) fn entries(&self) -> Vec<&'static T> {
        self.map().values().copied().collect()
    }
}

static COUNTERS: Registry<Counter> = Registry::new();

/// Returns the counter registered under `name`, creating it on first
/// use. Prefer the `counter!` macro at instrumentation sites — it
/// caches this lookup in a per-site `OnceLock`.
pub fn counter(name: &'static str) -> &'static Counter {
    COUNTERS.get_or_insert(name, Counter::new)
}

/// Registers a counter under a runtime-constructed name (e.g.
/// per-worker `pool.busy_ns.t3`), interned through
/// [`intern`](crate::intern::intern): a repeat registration leaks
/// nothing.
pub fn counter_owned(name: String) -> &'static Counter {
    counter(crate::intern::intern(&name))
}

/// Current value of the counter named `name` (0 if never registered).
pub fn get(name: &str) -> u64 {
    COUNTERS.get(name).map_or(0, Counter::get)
}

/// Snapshot of every registered counter as `(name, value)`, sorted by
/// name for stable report output.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    COUNTERS.entries().into_iter().map(|c| (c.name, c.get())).collect()
}

/// Zeroes every registered counter (registrations persist).
pub fn reset() {
    for c in COUNTERS.entries() {
        c.value.store(0, Ordering::Relaxed);
    }
}

/// Interns a counter at the call site: resolves the registry lookup
/// once, then returns the cached `&'static Counter`.
///
/// ```
/// tgl_obs::counter!("example.events").incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registers_and_accumulates() {
        let c = counter("test.metrics.alpha");
        let before = c.get();
        c.add(5);
        c.incr();
        assert_eq!(c.get(), before + 6);
        // Same name resolves to the same instance.
        assert!(std::ptr::eq(c, counter("test.metrics.alpha")));
        assert!(get("test.metrics.alpha") >= 6);
    }

    #[test]
    fn owned_names_are_interned() {
        let a = counter_owned(format!("test.metrics.t{}", 7));
        let b = counter_owned("test.metrics.t7".to_string());
        assert!(std::ptr::eq(a, b));
        a.incr();
        assert!(get("test.metrics.t7") >= 1);
    }

    #[test]
    fn snapshot_is_sorted_and_contains_registered() {
        counter("test.metrics.zz").incr();
        counter("test.metrics.aa").incr();
        let snap = snapshot();
        assert!(snap.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(snap.iter().any(|&(n, _)| n == "test.metrics.zz"));
    }

    #[test]
    fn repeat_registration_never_duplicates() {
        for i in 0..50 {
            counter_owned(format!("test.metrics.dup{}", i % 5)).incr();
        }
        let snap = snapshot();
        for i in 0..5 {
            let name = format!("test.metrics.dup{i}");
            assert_eq!(
                snap.iter().filter(|(n, _)| *n == name).count(),
                1,
                "{name} registered more than once"
            );
            assert_eq!(get(&name), 10);
        }
    }

    #[test]
    fn macro_caches_lookup() {
        let a = counter!("test.metrics.macro");
        let b = counter!("test.metrics.macro");
        a.incr();
        b.incr();
        assert!(get("test.metrics.macro") >= 2);
    }
}
