//! The one span log: every finished [`Span`], kept per thread.
//!
//! The span emit (see [`crate::span`]) builds each record once and
//! hands it here. By default a thread keeps its last [`CAPACITY`]
//! spans: the tail that [`recent`] reads for a panic or `--health fail`
//! dump and for a run report's `recent` section. While [`full`] mode is
//! on (`--trace-out`, `--critpath`) nothing finished since it was
//! switched on is dropped, and [`take`] / [`snapshot`] return exactly
//! those spans, for the Chrome trace and the critical-path analyzer
//! ([`crate::critpath`]).
//!
//! A thread's log outlives the thread, so a dump from the panic hook
//! still sees a sampler stage that has unwound and a full-mode [`take`]
//! still sees a pool worker that has exited; a thread started later
//! takes over a log whose thread has exited, which keeps the logs as
//! many as the threads alive at once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub use crate::span::Span;

/// Spans kept per thread outside full mode: several training steps of
/// phase and region traffic, and with ops collected still the last
/// training step before a small test pass.
pub const CAPACITY: usize = 512;

/// Process-wide time origin; all span timestamps are offsets from it
/// so they stay monotonic and shard-order independent.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Offset of `at` from the process trace epoch, in nanoseconds: the
/// time base of every span and health event.
pub(crate) fn offset_ns(at: Instant) -> u64 {
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now)).as_nanos() as u64
}

/// Nanoseconds elapsed since the process trace epoch.
pub(crate) fn now_ns() -> u64 {
    offset_ns(Instant::now())
}

/// Bumped by every [`full`] switch: a log starts a full run at its
/// first span of a new generation, so nothing from before counts.
static GEN: AtomicU64 = AtomicU64::new(1);

/// One thread's spans, oldest first.
#[derive(Default)]
pub(crate) struct Log {
    spans: VecDeque<Span>,
    /// Spans ever written to this log; the back span is number
    /// `written - 1`.
    written: u64,
    /// The generation `from` was set in (0 = none yet).
    gen: u64,
    /// Number of the first span of this log's full run.
    from: u64,
}

impl Log {
    /// The spans of this log's full run in generation `gen`.
    fn full_run(&self, gen: u64) -> impl Iterator<Item = &Span> {
        let len = self.spans.len() as u64;
        let skip = if self.gen == gen { (self.from + len).saturating_sub(self.written) } else { len };
        self.spans.iter().skip(skip as usize)
    }

    /// Drops the oldest spans numbered below `keep_from` while the log
    /// holds more than [`CAPACITY`].
    fn trim(&mut self, keep_from: u64) {
        while self.spans.len() > CAPACITY && self.written - (self.spans.len() as u64) < keep_from {
            self.spans.pop_front();
        }
    }

    /// Back to a tail, freeing what a full run grew the log to.
    fn shrink_to_tail(&mut self) {
        self.trim(u64::MAX);
        self.spans.shrink_to(CAPACITY);
    }
}

type Shared = Arc<Mutex<Log>>;

/// Every log, whether or not its thread is still alive.
pub(crate) static LOGS: Mutex<Vec<Shared>> = Mutex::new(Vec::new());

thread_local! {
    static LOG: Shared = {
        let mut logs = LOGS.lock().unwrap_or_else(PoisonError::into_inner);
        // The registry's handle is the only one left once a log's
        // thread has exited; handles are only cloned under this lock.
        match logs.iter().find(|l| Arc::strong_count(l) == 1) {
            Some(free) => Arc::clone(free),
            None => {
                let log = Shared::default();
                logs.push(Arc::clone(&log));
                log
            }
        }
    };
}

fn lock(log: &Shared) -> MutexGuard<'_, Log> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every log, locked in registry order.
fn each(mut f: impl FnMut(&mut Log)) {
    let logs: Vec<Shared> = LOGS.lock().unwrap_or_else(PoisonError::into_inner).clone();
    for log in &logs {
        f(&mut lock(log));
    }
}

fn sorted(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// Records one finished span on the calling thread; `full` says
/// whether full mode was on when it finished.
pub(crate) fn record(span: Span, full: bool) {
    // A thread past its TLS teardown records nothing.
    let _ = LOG.try_with(|log| {
        let mut log = lock(log);
        log.spans.push_back(span);
        log.written += 1;
        let keep_from = if full {
            let gen = GEN.load(Ordering::Relaxed);
            if log.gen != gen {
                (log.gen, log.from) = (gen, log.written - 1);
            }
            log.from
        } else {
            u64::MAX
        };
        log.trim(keep_from);
    });
}

/// Turns full mode on or off. On, every span finished from now on is
/// kept until [`take`]; off, each log falls back to its tail and
/// [`take`] returns nothing. Switching on pins the trace epoch so the
/// first span does not start at a huge offset.
pub fn full(on: bool) {
    if on {
        now_ns();
    }
    crate::span::set(crate::span::FULL, on);
    GEN.fetch_add(1, Ordering::Relaxed);
    if !on {
        each(Log::shrink_to_tail);
    }
}

/// Whether full mode is on.
pub fn is_full() -> bool {
    crate::span::is(crate::span::FULL)
}

/// Keeps (the default) or stops keeping each thread's tail. Only an
/// overhead measurement's all-off reference turns it off.
pub fn tail(on: bool) {
    crate::span::set(crate::span::TAIL, on);
}

/// The last [`CAPACITY`] spans of every log, sorted by start time
/// (then thread).
pub fn recent() -> Vec<Span> {
    let mut spans = Vec::new();
    each(|log| spans.extend(log.spans.iter().skip(log.spans.len().saturating_sub(CAPACITY)).cloned()));
    sorted(spans)
}

/// Every span finished in full mode since it was switched on or last
/// taken, sorted by start time (then thread). The next take starts
/// after them.
pub fn take() -> Vec<Span> {
    let gen = GEN.load(Ordering::Relaxed);
    let mut spans = Vec::new();
    each(|log| {
        spans.extend(log.full_run(gen).cloned());
        if log.gen == gen {
            log.from = log.written;
            log.shrink_to_tail();
        }
    });
    sorted(spans)
}

/// The same sorted view as [`take`] without draining: the run report's
/// critical-path section reads it while the run still intends to
/// export the Chrome trace.
pub fn snapshot() -> Vec<Span> {
    let gen = GEN.load(Ordering::Relaxed);
    let mut spans = Vec::new();
    each(|log| spans.extend(log.full_run(gen).cloned()));
    sorted(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;
    use std::sync::mpsc;

    fn named(spans: Vec<Span>, prefix: &str) -> Vec<Span> {
        spans.into_iter().filter(|s| s.name.starts_with(prefix)).collect()
    }

    /// The log's contract: a bounded tail by default; in full mode
    /// exactly the spans finished since the switch, from the caller, a
    /// long-lived worker and an exited thread alike, in
    /// `(start_ns, tid)` order.
    #[test]
    fn tail_is_bounded_and_full_mode_keeps_exactly_the_run() {
        let _g = serial();
        full(false);
        for _ in 0..(CAPACITY + 16) {
            drop(crate::span("log-tail-flood"));
        }
        drop(crate::region("log-tail-last"));
        let tail = named(recent(), "log-tail-");
        assert_eq!(tail.len(), CAPACITY, "a thread's tail holds CAPACITY spans");
        assert_eq!(tail.last().unwrap().name, "log-tail-last");

        // A worker that outlives the switch, as a pool worker does: it
        // records before full mode and again under the caller's span.
        let (jobs, inbox) = mpsc::channel::<Option<crate::SpanCtx>>();
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            drop(crate::span("log-run-before-worker"));
            done.send(crate::thread_id()).unwrap();
            for ctx in inbox {
                let _a = crate::adopt(ctx);
                drop(crate::span("log-run-worker"));
                done.send(crate::thread_id()).unwrap();
            }
        });
        let worker_tid = finished.recv().unwrap();
        drop(crate::span("log-run-before-caller"));

        full(true);
        let dispatch = crate::region("log-run-dispatch");
        jobs.send(crate::current()).unwrap();
        finished.recv().unwrap();
        let exited = std::thread::spawn(|| {
            drop(crate::span("log-run-exited"));
            crate::thread_id()
        })
        .join()
        .unwrap();
        drop(dispatch);
        for _ in 0..(2 * CAPACITY) {
            drop(crate::span("log-run-caller"));
        }
        assert_eq!(named(snapshot(), "log-run-").len(), 2 * CAPACITY + 3, "a snapshot does not drain");
        let run = named(take(), "log-run-");
        full(false);
        drop(jobs);
        worker.join().unwrap();

        let count = |name: &str| run.iter().filter(|s| s.name == name).count();
        assert_eq!(count("log-run-caller"), 2 * CAPACITY, "full mode drops nothing");
        assert_eq!((count("log-run-dispatch"), count("log-run-worker"), count("log-run-exited")), (1, 1, 1));
        assert_eq!(run.len(), 2 * CAPACITY + 3, "nothing from before the switch: {:?}", run.iter().map(|s| s.name).collect::<std::collections::BTreeSet<_>>());
        let tid = |name: &str| run.iter().find(|s| s.name == name).unwrap().tid;
        assert_eq!((tid("log-run-worker"), tid("log-run-exited")), (worker_tid, exited));
        assert_ne!(tid("log-run-caller"), worker_tid);
        let parent = run.iter().find(|s| s.name == "log-run-dispatch").unwrap().id;
        assert_ne!(parent, 0, "full mode numbers spans");
        assert_eq!(run.iter().find(|s| s.name == "log-run-worker").unwrap().parent, parent);
        assert!(run.windows(2).all(|w| (w[0].start_ns, w[0].tid) <= (w[1].start_ns, w[1].tid)));
        assert!(named(take(), "log-run-").is_empty(), "taken, and full mode is off");
        assert_eq!(named(recent(), "log-run-caller").len(), CAPACITY, "the caller's log is a tail again");
    }

    #[test]
    fn take_starts_after_the_previous_take() {
        let _g = serial();
        full(true);
        drop(crate::span("log-take-first"));
        assert_eq!(named(take(), "log-take-").len(), 1);
        drop(crate::span("log-take-second"));
        let spans = named(take(), "log-take-");
        full(false);
        assert_eq!(spans.iter().map(|s| s.name).collect::<Vec<_>>(), ["log-take-second"]);
    }
}
