//! Persistent worker-thread pool with chunked work distribution.
//!
//! The pool is a process-global singleton. A parallel region
//! ([`parallel_rows`], or [`parallel_for`] without output buffers)
//! splits `0..total` into contiguous chunks, publishes a type-erased
//! pointer to the caller's closure to the workers, and then
//! participates in draining the chunk queue itself before blocking
//! until every chunk has finished. Because the calling frame outlives
//! the region, the closure may borrow local slices — a scope-style API
//! without per-call thread spawns.
//!
//! A region's outputs are handed out, not shared: [`parallel_rows`]
//! cuts each output buffer at the item offsets of every chunk
//! ([`Rows`]: a row per item or an offsets slice, checked before any
//! chunk runs) and gives each chunk its own `&mut` rows. Two chunks
//! cannot write the same element, and callers need no `unsafe`.
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

/// The widest pool a front end accepts (`--threads`, `TGL_THREADS`). A
/// pool `n` wide starts `n - 1` worker threads at its first wide region
/// and a spawn the host refuses aborts the process, so a wider value is
/// a usage error where it is parsed.
pub const MAX_THREADS: usize = 1024;

/// The pool width `TGL_THREADS` asks for: `Ok(None)` when it is unset,
/// `Ok(Some(n))` for a positive integer up to [`MAX_THREADS`], and an
/// error naming the variable for any other value
/// ([`crate::env::positive_up_to`]).
pub fn env_threads() -> Result<Option<usize>, String> {
    crate::env::positive_up_to("TGL_THREADS", MAX_THREADS)
}

/// Thread count requested by the environment: [`env_threads`], or the
/// machine's available parallelism when it is unset. An unusable value
/// is the front end's to reject (`tgl` exits 2 on it); a library caller
/// gets the fallback.
fn configured_threads() -> usize {
    env_threads()
        .ok()
        .flatten()
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
    let started = std::time::Instant::now();
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
    if executed > 0 {
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

/// Runs the erased closure over `0..total` in `chunk`-sized pieces (at
/// least two) with up to `par` threads (including the caller), blocking
/// until done.
fn run_region<F: Fn(Range<usize>) + Sync>(total: usize, chunk: usize, par: usize, f: &F) {
    let n_chunks = total.div_ceil(chunk);
    let helpers = (par - 1).min(n_chunks - 1);
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

/// How [`parallel_rows`] cuts `0..total` into chunks.
#[derive(Clone, Copy, Debug)]
pub enum Chunks {
    /// One inline call `f(0..total)` when `total <= seq_threshold` (or
    /// one thread is configured, or the caller is already inside a pool
    /// worker); above it, about four contiguous chunks per thread.
    Auto(usize),
    /// Chunks of this many items, the last one ragged, at every thread
    /// count — even when they run sequentially. The primitive for
    /// reductions: a partial per chunk, combined in chunk order, rounds
    /// the same for every thread count.
    Fixed(usize),
}

/// The rows of an output buffer that each work item owns, read by the
/// runtime itself: rows of `width` elements, item `i` owning either row
/// `i` ([`Rows::width`]) or rows `offsets[i]..offsets[i + 1]`
/// ([`Rows::offsets`]).
pub struct Rows<'a, T> {
    /// What is left of the buffer after the chunks cut so far.
    rest: &'a mut [T],
    /// Index of `rest[0]` in the whole buffer.
    at: usize,
    /// `None`: item `i` owns row `i`.
    offsets: Option<&'a [usize]>,
    width: usize,
}

impl<'a, T> Rows<'a, T> {
    /// `buf` as rows of `width` elements, one per item.
    pub fn width(buf: &'a mut [T], width: usize) -> Rows<'a, T> {
        Rows { rest: buf, at: 0, offsets: None, width }
    }

    /// `buf` as rows of `width` elements, item `i` owning rows
    /// `offsets[i]..offsets[i + 1]`.
    pub fn offsets(buf: &'a mut [T], offsets: &'a [usize], width: usize) -> Rows<'a, T> {
        Rows { rest: buf, at: 0, offsets: Some(offsets), width }
    }

    /// The first element of item `item`'s rows (saturating, so that an
    /// overflow reads as past the buffer).
    fn start(&self, item: usize) -> usize {
        self.offsets.map_or(item, |o| o[item]).saturating_mul(self.width)
    }
}

/// The output buffers of a [`parallel_rows`] region: a [`Rows`], an
/// `Option` of one (an absent output arrives as `None`), a `Vec` of
/// them, or a tuple of up to four of them, of any element types.
pub trait Outputs {
    /// What one chunk receives: its own `&mut` rows of every buffer.
    type Chunk: Send;

    /// Cuts off the rows of `items`, which start where the previous cut
    /// ended (or at item 0). Panics, in release builds too, unless the
    /// boundaries are monotone and inside the buffer.
    fn cut(&mut self, items: Range<usize>) -> Self::Chunk;
}

impl<'a, T: Send> Outputs for Rows<'a, T> {
    type Chunk = &'a mut [T];

    fn cut(&mut self, items: Range<usize>) -> &'a mut [T] {
        let (lo, hi) = (self.start(items.start), self.start(items.end));
        let len = self.at + self.rest.len();
        assert!(self.at <= lo && lo <= hi, "row offsets of items {items:?} are not monotone");
        assert!(hi <= len, "rows of items {items:?} end at {hi}, past a buffer of {len}");
        let (_, rest) = std::mem::take(&mut self.rest).split_at_mut(lo - self.at);
        let (chunk, rest) = rest.split_at_mut(hi - lo);
        (self.rest, self.at) = (rest, hi);
        chunk
    }
}

impl<O: Outputs> Outputs for Option<O> {
    type Chunk = Option<O::Chunk>;

    fn cut(&mut self, items: Range<usize>) -> Self::Chunk {
        self.as_mut().map(|o| o.cut(items))
    }
}

impl<O: Outputs> Outputs for Vec<O> {
    type Chunk = Vec<O::Chunk>;

    fn cut(&mut self, items: Range<usize>) -> Self::Chunk {
        self.iter_mut().map(|o| o.cut(items.clone())).collect()
    }
}

impl Outputs for () {
    type Chunk = ();

    fn cut(&mut self, _: Range<usize>) {}
}

macro_rules! tuple_outputs {
    ($($o:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($o: Outputs),+> Outputs for ($($o,)+) {
            type Chunk = ($($o::Chunk,)+);

            fn cut(&mut self, items: Range<usize>) -> Self::Chunk {
                let ($($o,)+) = self;
                ($($o.cut(items.clone()),)+)
            }
        }
    };
}

tuple_outputs!(A, B);
tuple_outputs!(A, B, C);
tuple_outputs!(A, B, C, D);

/// Runs `f(items, rows)` over contiguous item ranges covering
/// `0..total`, cut as `chunks` says, in parallel when the work is large
/// enough; `rows` is the chunk's own `&mut` share of every buffer in
/// `outs`.
///
/// Every chunk's rows are cut with `split_at_mut`, and their boundaries
/// checked, before any chunk runs, so no two chunks can reach the same
/// element: a kernel that writes its own rows from inputs that depend
/// only on its item range gives the same output at every thread count.
pub fn parallel_rows<O, F>(total: usize, chunks: Chunks, mut outs: O, f: F)
where
    O: Outputs,
    F: Fn(Range<usize>, O::Chunk) + Sync,
{
    if total == 0 {
        return;
    }
    let par = current_threads();
    let inline = par <= 1 || IN_POOL.with(|flag| flag.get());
    let chunk = match chunks {
        Chunks::Auto(seq_threshold) if inline || total <= seq_threshold.max(1) => total,
        // Oversplit 4x for load balance; chunks stay big enough that
        // the per-chunk claim (one fetch_add) is noise.
        Chunks::Auto(_) => total.div_ceil(par * 4),
        Chunks::Fixed(chunk) => chunk.max(1),
    };
    if chunk >= total {
        tgl_obs::counter!("pool.seq_fast_path").incr();
        return f(0..total, outs.cut(0..total));
    }
    let items = |start: usize| start..(start + chunk).min(total);
    // Each chunk's rows wait in its own slot until the chunk is claimed.
    let slots: Vec<_> = (0..total).step_by(chunk).map(|s| Mutex::new(Some(outs.cut(items(s))))).collect();
    let run = |items: Range<usize>| {
        let rows = slots[items.start / chunk].lock().unwrap_or_else(|e| e.into_inner()).take();
        f(items, rows.expect("a chunk runs once"))
    };
    if inline {
        tgl_obs::counter!("pool.seq_fast_path").incr();
        (0..total).step_by(chunk).for_each(|s| run(items(s)));
        return;
    }
    tgl_obs::counter!("pool.regions").incr();
    run_region(total, chunk, par, &run);
}

/// Runs `f` over contiguous sub-ranges covering `0..total`, in parallel
/// when the work is large enough: [`parallel_rows`] with
/// [`Chunks::Auto`] and no output buffers.
///
/// `seq_threshold` is the sequential fast-path cutoff in work items:
/// when `total <= seq_threshold` the closure runs inline as a single
/// `f(0..total)` call, paying zero synchronization cost. `f` must
/// produce results that depend only on the range it is given.
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(total: usize, seq_threshold: usize, f: F) {
    parallel_rows(total, Chunks::Auto(seq_threshold), (), |items, ()| f(items));
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
        parallel_rows(10_000, Chunks::Auto(64), Rows::width(&mut hits, 1), |_, hits| {
            for h in hits {
                *h += 1;
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
        // Each element holds its chunk's running sum up to it, so any
        // boundary that moved with the thread count would show.
        let run = |threads: usize| {
            let before = current_threads();
            set_threads(threads);
            let mut sums = vec![0.0f64; 100_000];
            parallel_rows(100_000, Chunks::Fixed(1024), Rows::width(&mut sums, 1), |r, out| {
                assert!(r.start % 1024 == 0 && (r.len() == 1024 || r.end == 100_000), "chunk {r:?}");
                let mut acc = 0.0;
                for (o, i) in out.iter_mut().zip(r) {
                    acc += (i as f64).sqrt();
                    *o = acc;
                }
            });
            set_threads(before);
            sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        };
        let a = run(1);
        assert_eq!(a, run(4));
        assert_eq!(a, run(8));
    }

    /// One element of a property-test buffer: how often it was written,
    /// and by which item.
    type Cell = (u32, usize);

    /// Writes `(hits + 1, item)` over each item's rows of a chunk whose
    /// rows start at `rows_of(items.start)`, after checking that the
    /// chunk was handed exactly its own rows.
    fn fill(cells: &mut [Cell], items: Range<usize>, rows_of: impl Fn(usize) -> usize) {
        let base = rows_of(items.start);
        assert_eq!(cells.len(), rows_of(items.end) - base, "items {items:?} got the wrong rows");
        for i in items {
            for c in &mut cells[rows_of(i) - base..rows_of(i + 1) - base] {
                *c = (c.0 + 1, i);
            }
        }
    }

    /// Every row of items `0..total` was written once, by its owner, and
    /// nothing outside them was written.
    fn assert_once(cells: &[Cell], total: usize, rows_of: impl Fn(usize) -> usize) {
        let mut want = vec![(0, 0); cells.len()];
        for i in 0..total {
            want[rows_of(i)..rows_of(i + 1)].fill((1, i));
        }
        assert_eq!(cells, want);
    }

    #[test]
    fn chunks_get_exactly_their_own_rows() {
        use crate::rng::{Rng, SeedableRng, StdRng};
        let _guard = serial();
        let before = current_threads();
        let mut rng = StdRng::seed_from_u64(32);
        for threads in [1, 2, 4] {
            set_threads(threads);
            for _ in 0..60 {
                let total = rng.gen_range(0..300usize);
                let chunks = if rng.gen_range(0..2usize) == 0 {
                    Chunks::Auto(rng.gen_range(0..40usize))
                } else {
                    Chunks::Fixed(rng.gen_range(1..50usize))
                };
                // A fixed width, with slack past the last row.
                let width = rng.gen_range(0..5usize);
                let mut wide = vec![(0, 0); total * width + rng.gen_range(0..3usize)];
                // Ragged offsets (empty items included) not starting at 0,
                // over rows two wide, with slack on both sides.
                let mut offsets = vec![rng.gen_range(0..4usize)];
                for _ in 0..total {
                    offsets.push(offsets.last().unwrap() + rng.gen_range(0..4usize));
                }
                let mut ragged = vec![(0, 0); 2 * offsets[total] + rng.gen_range(0..3usize)];
                let at = |i: usize| offsets[i] * 2;
                // One buffer alone, then both in one region.
                parallel_rows(total, chunks, Rows::width(&mut wide, width), |items, rows| {
                    fill(rows, items, |i| i * width);
                });
                assert_once(&wide, total, |i| i * width);
                let outs = (Rows::width(&mut wide, width), Rows::offsets(&mut ragged, &offsets, 2), None::<Rows<u8>>);
                parallel_rows(total, chunks, outs, |items, (wide, ragged, absent)| {
                    assert!(absent.is_none());
                    fill(wide, items.clone(), |i| i * width);
                    fill(ragged, items, at);
                });
                wide.iter_mut().for_each(|c| c.0 -= (c.0 > 0) as u32);
                assert_once(&wide, total, |i| i * width);
                assert_once(&ragged, total, at);
            }
        }
        set_threads(before);
    }

    #[test]
    fn bad_offsets_panic_before_any_write() {
        let _guard = serial();
        let before = current_threads();
        for threads in [1, 4] {
            set_threads(threads);
            let cases: [(&[usize], &str); 3] =
                [(&[0, 5, 2, 8], "not monotone"), (&[0, 2, 4, 11], "past a buffer"), (&[0, 2], "out of bounds")];
            for (offsets, message) in cases {
                let mut buf = vec![0u32; 10];
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    parallel_rows(3, Chunks::Fixed(1), Rows::offsets(&mut buf, offsets, 1), |_, rows| rows.fill(1));
                }));
                let payload = run.expect_err("bad offsets must panic");
                let text = payload.downcast_ref::<String>().map_or("", |s| s.as_str());
                assert!(text.contains(message), "{offsets:?}: {text}");
                assert!(buf.iter().all(|&x| x == 0), "{offsets:?} wrote before panicking: {buf:?}");
            }
            let mut buf = vec![0u32; 10];
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                parallel_rows(3, Chunks::Auto(0), Rows::width(&mut buf, 4), |_, rows| rows.fill(1));
            }));
            assert!(run.is_err() && buf.iter().all(|&x| x == 0), "a width past the buffer: {buf:?}");
        }
        set_threads(before);
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
