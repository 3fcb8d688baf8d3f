//! Persistent worker-thread pool with chunked work distribution.
//!
//! The pool is a process-global singleton. A parallel region
//! ([`parallel_for`] / [`parallel_for_chunks`]) splits `0..total` into
//! contiguous chunks, publishes a type-erased pointer to the caller's
//! closure to the workers, and then participates in draining the chunk
//! queue itself before blocking until every chunk has finished. Because
//! the calling frame outlives the region, the closure may borrow local
//! slices — a scope-style API without per-call thread spawns.
//!
//! Chunks are claimed from a shared atomic counter, so distribution is
//! dynamic, but each chunk's *computation* depends only on its index
//! range — never on which thread runs it — which is what makes kernels
//! built on this pool thread-count invariant.
//!
//! Worker count defaults to `TGL_THREADS` (falling back to
//! `available_parallelism`) and can be changed at runtime with
//! [`set_threads`]; extra workers are spawned on demand and idle ones
//! park on a condvar. Nested parallel regions (a kernel invoked from
//! inside a worker) run inline on the worker, so composition cannot
//! deadlock.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Thread count requested by the environment: `TGL_THREADS` when set to
/// a positive integer, otherwise the machine's available parallelism.
fn configured_threads() -> usize {
    std::env::var("TGL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The current parallelism setting (see [`set_threads`]).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The effective thread count parallel regions fan out to.
///
/// Initialized from `TGL_THREADS` / `available_parallelism` on first
/// use; 1 means fully sequential.
pub fn current_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = configured_threads();
            // Racing initializers compute the same value.
            THREADS.store(n, Ordering::Relaxed);
            tgl_obs::gauge!("pool.threads").set(n as f64);
            n
        }
        n => n,
    }
}

/// Overrides the thread count for subsequent parallel regions
/// (clamped to at least 1). Missing workers are spawned on demand;
/// surplus workers stay parked. Used by the determinism suite and the
/// 1-vs-N benchmark sweeps; results do not depend on this setting.
pub fn set_threads(n: usize) {
    let n = n.max(1);
    THREADS.store(n, Ordering::Relaxed);
    // Published as a gauge so the run report carries the parallelism
    // its latencies were measured at.
    tgl_obs::gauge!("pool.threads").set(n as f64);
}

// ---------------------------------------------------------------------
// Job representation
// ---------------------------------------------------------------------

/// One parallel region, shared between the caller and its helpers.
///
/// `data`/`call` form a type-erased `&dyn Fn(Range<usize>)`; the caller
/// guarantees `data` stays valid until `pending` reaches zero (it blocks
/// in [`run_region`] until then).
struct JobCore {
    data: *const (),
    call: unsafe fn(*const (), Range<usize>),
    total: usize,
    chunk: usize,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet completed; the region is done at zero.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload raised by any chunk, rethrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Dispatching thread's innermost open span (`None` when nothing
    /// observes): workers adopt it, so their `pool.job` spans run in
    /// the dispatcher's stage and carry a cross-thread parent edge.
    parent_span: Option<tgl_obs::SpanCtx>,
}

// SAFETY (both): the raw `data` pointer is the only field that is not
// already `Send + Sync`. It points at an `F: Fn + Sync` that is only
// ever called through `&F`, and the dispatching caller keeps it alive
// until `pending` reaches zero, after which no helper touches it.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

unsafe fn call_erased<F: Fn(Range<usize>) + Sync>(data: *const (), r: Range<usize>) {
    (*(data as *const F))(r)
}

thread_local! {
    /// Per-thread busy-time counter, resolved once per thread so a
    /// drain pays one thread-local access instead of a registry lookup.
    static BUSY_NS: &'static tgl_obs::metrics::Counter =
        tgl_obs::metrics::counter_owned(format!("pool.busy_ns.t{}", tgl_obs::thread_id()));
}

/// Claims and executes chunks until the job's counter is exhausted.
fn drain_job(job: &JobCore) {
    let observing = tgl_obs::metrics::enabled() || job.parent_span.is_some();
    let started = observing.then(std::time::Instant::now);
    let _adopt = tgl_obs::adopt(job.parent_span);
    let mut executed: u64 = 0;
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            break;
        }
        executed += 1;
        let start = i * job.chunk;
        let end = (start + job.chunk).min(job.total);
        // SAFETY: `call` is the `call_erased::<F>` paired with `data`
        // when the job was built, and the caller keeps `data` alive
        // until this chunk's `pending` decrement below.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (job.call)(job.data, start..end)
        }));
        if let Err(payload) = result {
            let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
        if job.pending.fetch_sub(1, Ordering::Release) == 1 {
            // Last chunk: wake the caller. Notify under the lock so the
            // wakeup cannot be lost between its check and its wait.
            let _guard = job.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            job.done_cv.notify_all();
        }
    }
    // Record only threads that actually executed work: a helper that
    // lost every claim race produced no busy time and no span.
    if let (Some(started), true) = (started, executed > 0) {
        let busy = started.elapsed();
        tgl_obs::counter!("pool.chunks").add(executed);
        BUSY_NS.with(|c| c.add(busy.as_nanos() as u64));
        tgl_obs::record_timer("pool.job", started, busy);
    }
}

// ---------------------------------------------------------------------
// The pool singleton
// ---------------------------------------------------------------------

struct Pool {
    queue: Mutex<VecDeque<Arc<JobCore>>>,
    available: Condvar,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

thread_local! {
    /// Set while this thread is executing pool work; nested parallel
    /// regions check it and run inline instead of re-entering the pool.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_loop() {
    let pool = pool();
    IN_POOL.with(|f| f.set(true));
    loop {
        let job = {
            let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = pool
                    .available
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        drain_job(&job);
    }
}

/// Ensures at least `n` workers exist (idempotent, cheap when enough
/// are already running).
fn ensure_workers(n: usize) {
    let pool = pool();
    let mut spawned = pool.spawned.lock().unwrap_or_else(|e| e.into_inner());
    while *spawned < n {
        let id = *spawned;
        std::thread::Builder::new()
            .name(format!("tgl-worker-{id}"))
            .spawn(worker_loop)
            .expect("failed to spawn pool worker");
        *spawned += 1;
    }
}

/// Runs the erased closure over `0..total` in `chunk`-sized pieces with
/// up to `par` threads (including the caller), blocking until done.
fn run_region<F: Fn(Range<usize>) + Sync>(total: usize, chunk: usize, par: usize, f: &F) {
    let n_chunks = total.div_ceil(chunk);
    let helpers = (par - 1).min(n_chunks.saturating_sub(1));
    if helpers == 0 {
        // Keep the exact chunked iteration order so results match the
        // parallel path bit-for-bit.
        for i in 0..n_chunks {
            let start = i * chunk;
            f(start..(start + chunk).min(total));
        }
        return;
    }
    ensure_workers(helpers);
    let job = Arc::new(JobCore {
        data: f as *const F as *const (),
        call: call_erased::<F>,
        total,
        chunk,
        n_chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(n_chunks),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
        parent_span: tgl_obs::current(),
    });
    {
        let pool = pool();
        let mut q = pool.queue.lock().unwrap_or_else(|e| e.into_inner());
        for _ in 0..helpers {
            q.push_back(Arc::clone(&job));
        }
        drop(q);
        pool.available.notify_all();
    }
    // The caller participates instead of idling.
    let was_in_pool = IN_POOL.with(|flag| flag.replace(true));
    drain_job(&job);
    IN_POOL.with(|flag| flag.set(was_in_pool));
    // Wait for helpers still finishing their claimed chunks. The time
    // the caller spends blocked here is the pool's tail latency — the
    // cost of a straggler helper — distinct from `pool.busy_ns.*`
    // (work executed) and metered as its own latency family.
    {
        let wait_timer = tgl_obs::timer("pool.wait");
        let mut guard = job.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while job.pending.load(Ordering::Acquire) != 0 {
            guard = job
                .done_cv
                .wait(guard)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(wait_timer);
    }
    let payload = job
        .panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Runs `f` over contiguous sub-ranges covering `0..total`, in parallel
/// when the work is large enough.
///
/// `seq_threshold` is the sequential fast-path cutoff in work items:
/// when `total <= seq_threshold` (or one thread is configured, or the
/// caller is already inside a pool worker) the closure runs inline as a
/// single `f(0..total)` call, paying zero synchronization cost. Above
/// it, the range is split into contiguous chunks sized for the current
/// thread count.
///
/// `f` must produce results that depend only on the range it is given
/// (each output region written by exactly one range) — under that
/// contract, output is identical for every thread count.
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(total: usize, seq_threshold: usize, f: F) {
    if total == 0 {
        return;
    }
    let par = current_threads();
    if par <= 1 || total <= seq_threshold.max(1) || IN_POOL.with(|flag| flag.get()) {
        tgl_obs::counter!("pool.seq_fast_path").incr();
        f(0..total);
        return;
    }
    tgl_obs::counter!("pool.regions").incr();
    // Oversplit 4x for load balance; chunks stay big enough that the
    // per-chunk claim (one fetch_add) is noise.
    let chunk = total.div_ceil(par * 4).max(1);
    run_region(total, chunk, par, &f);
}

/// Runs `f(chunk_index, range)` over `0..total` in *fixed* `chunk`-sized
/// pieces, in parallel when possible — always applying the same
/// chunking, even when it runs sequentially.
///
/// This is the primitive for parallel reductions: accumulate a partial
/// per chunk index, then combine partials in chunk order. Because the
/// chunk boundaries are a function of `(total, chunk)` only, the
/// floating-point rounding of the combined result is identical for
/// every thread count.
pub fn parallel_for_chunks<F: Fn(usize, Range<usize>) + Sync>(
    total: usize,
    chunk: usize,
    f: F,
) {
    if total == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let par = current_threads();
    let wrapped = |r: Range<usize>| f(r.start / chunk, r);
    if par <= 1 || total <= chunk || IN_POOL.with(|flag| flag.get()) {
        tgl_obs::counter!("pool.seq_fast_path").incr();
        let n_chunks = total.div_ceil(chunk);
        for i in 0..n_chunks {
            let start = i * chunk;
            wrapped(start..(start + chunk).min(total));
        }
        return;
    }
    tgl_obs::counter!("pool.regions").incr();
    run_region(total, chunk, par, &wrapped);
}

/// A shareable pointer to a mutable slice for writing *disjoint*
/// regions from parallel chunks.
///
/// Safe Rust cannot hand `&mut` sub-slices of one buffer to a `Fn`
/// closure running on several threads; this wrapper carries the raw
/// parts and re-materializes sub-slices on demand. All methods are
/// `unsafe`: the caller must guarantee that concurrently materialized
/// regions never overlap (the natural property of output-partitioned
/// kernels).
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY (both): an `UnsafeSlice` is a `&mut [T]` split across
// threads, so it may cross threads when `T: Send`; every access is an
// `unsafe` method whose caller promises that concurrently materialized
// regions never overlap.
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps `slice` for the duration of its borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Total length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materializes `&mut self[start..start + len]`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and must not overlap any other
    /// region materialized while this one is alive.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Materializes `&mut self[i]`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and not aliased by any other live region.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that touch the global thread setting.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let mut hits = vec![0u8; 10_000];
        let slice = UnsafeSlice::new(&mut hits);
        parallel_for(10_000, 64, |r| {
            for i in r {
                // SAFETY: `i` is in bounds and each index reaches one
                // chunk only.
                unsafe { *slice.get_mut(i) += 1 };
            }
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn sequential_fast_path_single_call() {
        let calls = AtomicUsize::new(0);
        parallel_for(100, 1000, |r| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(r, 0..100);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fixed_chunks_are_thread_count_invariant() {
        let _guard = serial();
        let run = |threads: usize| {
            let before = current_threads();
            set_threads(threads);
            let mut partials = vec![0.0f64; 100_000usize.div_ceil(1024)];
            let ps = UnsafeSlice::new(&mut partials);
            parallel_for_chunks(100_000, 1024, |ci, r| {
                // SAFETY: one partial per chunk, `ci` in bounds.
                let p = unsafe { ps.get_mut(ci) };
                for i in r {
                    *p += (i as f64).sqrt();
                }
            });
            set_threads(before);
            partials.iter().sum::<f64>()
        };
        let a = run(1);
        let b = run(4);
        let c = run(8);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(b.to_bits(), c.to_bits());
    }

    #[test]
    fn nested_regions_run_inline() {
        let _guard = serial();
        let outer_sum = AtomicU64::new(0);
        set_threads(4);
        parallel_for(64, 1, |r| {
            for _ in r {
                // Nested region: must complete without deadlock.
                let inner = AtomicU64::new(0);
                parallel_for(100, 1, |ir| {
                    inner.fetch_add(ir.len() as u64, Ordering::Relaxed);
                });
                outer_sum.fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        });
        assert_eq!(outer_sum.load(Ordering::Relaxed), 64 * 100);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let _guard = serial();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            parallel_for(1000, 1, |r| {
                if r.contains(&500) {
                    panic!("boom in chunk");
                }
            });
        });
        assert!(result.is_err());
        // Pool still usable afterwards.
        let count = AtomicUsize::new(0);
        parallel_for(1000, 1, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn set_threads_clamps_to_one() {
        let _guard = serial();
        set_threads(0);
        assert_eq!(current_threads(), 1);
        set_threads(3);
        assert_eq!(current_threads(), 3);
    }
}
