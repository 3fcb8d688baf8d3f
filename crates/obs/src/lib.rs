//! # tgl-obs — observability substrate
//!
//! Std-only (no dependencies, not even on other workspace crates — it
//! sits *below* `tgl-runtime` so even the thread pool can report into
//! it):
//!
//! * [`metrics`] — a global registry of named atomic [`metrics::Counter`]s.
//!   Instrumentation sites use the [`counter!`] macro, which resolves the
//!   registry lookup once per call site and then costs one relaxed
//!   `fetch_add` per increment; counters always count. Counters are
//!   *observational only*: they never influence computation, so the
//!   workspace's bitwise thread-count-invariance contract is unaffected.
//!
//! * [`mod@span`] — the one timing primitive. [`span()`] (a Fig. 7 phase),
//!   [`region`] (a container such as `step`), [`profile::op`] (a tensor
//!   operator with analytic FLOPs / bytes) and [`timer`] (a latency
//!   probe) return the same RAII guard over one thread-local frame
//!   stack; on drop it writes one [`Span`] record — name, kind, stage,
//!   thread, start, duration, id, parent, cost — once, into the
//!   [`log`]. The stage is set at a few stage roots and inherited down
//!   the parent chain, across pool workers and the pipeline channel.
//!
//! * [`profile`] — the one timing store: a bounded aggregate keyed
//!   `(name, phase, stage)` fed while [`collect`] is on. The phase
//!   table ([`phase`]), the op / roofline profile and the duration
//!   histograms are readers of its rows.
//!
//! * [`log`] — the one span log, per thread: each thread's last
//!   [`log::CAPACITY`] spans always (the `recent` section of a run
//!   report and of a panic / health-fail dump), and every span of the
//!   run in full mode (the Chrome trace and the critical path).
//!
//! * [`hist`] — log2-bucketed atomic [`hist::Histogram`]s (value
//!   distributions via the [`histogram!`] macro; the duration families,
//!   the pipeline queue's waits included, are a view of [`profile`])
//!   and last-write-wins [`hist::Gauge`]s
//!   ([`gauge!`]), on the counters' registry. [`intern`] backs
//!   dynamically composed names (`linear.bwd`, shape signatures).
//!
//! * [`health`] — a bounded sink of structured [`health::HealthEvent`]s
//!   (NaN sentinels, divergence warnings) that subsystems record
//!   instead of panicking.
//!
//! * [`critpath`] — critical-path analysis over the full log: per-stage
//!   serial vs overlapped time and the critical path itself (the
//!   acceptance instrument for pipelined training).
//!
//! # Examples
//!
//! ```
//! tgl_obs::collect(true);
//! {
//!     let _g = tgl_obs::span("attention");
//!     // ... work, possibly fanned out to worker threads ...
//! }
//! let report = tgl_obs::phase::take();
//! assert!(report.iter().any(|(name, _)| *name == "attention"));
//! tgl_obs::collect(false);
//!
//! tgl_obs::counter!("demo.hits").add(3);
//! assert!(tgl_obs::metrics::get("demo.hits") >= 3);
//! ```

#![forbid(unsafe_code)]

pub mod critpath;
pub mod health;
pub mod hist;
pub mod intern;
pub mod log;
pub mod metrics;
pub mod phase;
pub mod profile;
pub mod span;

use std::sync::atomic::{AtomicU32, Ordering};

pub use span::{adopt, current, record_timer, Kind, Span, SpanCtx, SpanGuard, Stage};

/// Starts a phase span named `name`: a row of the Fig. 7 phase table
/// and the phase key of every op under it. One relaxed load when the
/// tail, collection and full mode are all off.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span::open(name, Kind::Phase)
}

/// Starts a *container region* (`step`, `forward`, `epoch`, ...): like
/// [`span()`] it is traced and carries a stage, but it is not a phase —
/// the Fig. 7 breakdown and the ops' phase keys stay exactly as the
/// fine-grained phase spans define them.
#[inline]
pub fn region(name: &'static str) -> SpanGuard {
    span::open(name, Kind::Region)
}

/// Starts a latency probe (`gemm`, `pool.wait`, the pipeline queue's
/// waits): counted and bucketed for the duration histograms, while its
/// time stays in the enclosing span's self time. Live only while
/// collecting.
#[inline]
pub fn timer(name: &'static str) -> SpanGuard {
    span::open(name, Kind::Timer)
}

/// Turns collection into the aggregate ([`profile`]) on or off. Ops
/// and timers are live only while it is on.
pub fn collect(on: bool) {
    span::set(span::COLLECT, on);
}

/// Whether the aggregate is collecting.
#[inline]
pub fn collecting() -> bool {
    span::is(span::COLLECT)
}

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// A small dense id for the calling thread (0, 1, 2, … in first-use
/// order), used as the `tid` of trace events and for per-worker
/// counters. Stable for the thread's lifetime.
pub fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that toggle the global enable flags.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn thread_ids_are_distinct_and_stable() {
        let here = thread_id();
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = serial();
        collect(false);
        log::full(false);
        profile::take();
        {
            let _s = span("obs-disabled-probe");
        }
        assert!(!profile::take().iter().any(|r| r.name == "obs-disabled-probe"));
    }

    #[test]
    fn region_traces_but_skips_phase_accumulator() {
        let _g = serial();
        collect(true);
        log::full(true);
        profile::take();
        {
            let _r = region("obs-region-probe");
            let _s = span("obs-inner-probe");
        }
        let phases = phase::take();
        let spans = log::take();
        collect(false);
        log::full(false);
        assert!(
            !phases.iter().any(|(n, _)| *n == "obs-region-probe"),
            "regions must not pollute the Fig-7 phase breakdown"
        );
        assert!(phases.iter().any(|(n, _)| *n == "obs-inner-probe"));
        let outer = spans.iter().find(|s| s.name == "obs-region-probe").unwrap();
        let inner = spans.iter().find(|s| s.name == "obs-inner-probe").unwrap();
        assert_eq!(inner.parent, outer.id);
    }

    #[test]
    fn span_feeds_both_sinks() {
        let _g = serial();
        collect(true);
        log::full(true);
        profile::take();
        {
            let _s = span("obs-both-probe");
        }
        let rows = profile::take();
        let spans = log::take();
        collect(false);
        log::full(false);
        assert!(rows.iter().any(|r| r.name == "obs-both-probe" && r.kind == Kind::Phase));
        assert!(spans.iter().any(|s| s.name == "obs-both-probe"));
    }
}

// The log's two views, one test module each: `flight` for the tail a
// dump reads, `trace` for the full run a trace export reads.
#[cfg(test)]
#[path = "tests/flight.rs"]
mod flight;
#[cfg(test)]
#[path = "tests/trace.rs"]
mod trace;
