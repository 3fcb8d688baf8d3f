//! The opt-in event log: every finished [`Span`].
//!
//! While [`enable`]d, the span emit (see [`crate::span`]) appends each
//! record to one global sink. [`take`] drains it; the harness renders
//! the spans as a Chrome trace (`--trace-out`). The
//! critical-path analyzer ([`crate::critpath`]) reads the same log,
//! using each span's `stage`, `id` and cross-thread `parent`.
//!
//! The log is **off by default**: unlike the aggregate (bounded by the
//! distinct span keys) it grows with every span, so it should only run
//! when a `--trace-out` / `--critpath` style flag asks for it.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use crate::span::Span;

/// The log. One lock: every emit is a single push.
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Process-wide time origin; all span timestamps are offsets from it
/// so they stay monotonic and shard-order independent.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Offset of `at` from the process trace epoch, in nanoseconds — the
/// time base shared by the log and the flight recorder.
pub(crate) fn offset_ns(at: Instant) -> u64 {
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now)).as_nanos() as u64
}

/// Nanoseconds elapsed since the process trace epoch.
pub(crate) fn now_ns() -> u64 {
    offset_ns(Instant::now())
}

/// Turns span logging on or off. Enabling pins the trace epoch so the
/// first span doesn't start at a huge offset.
pub fn enable(on: bool) {
    if on {
        now_ns();
    }
    crate::span::set(crate::span::LOG, on);
}

/// Whether span logging is currently enabled.
pub fn enabled() -> bool {
    crate::span::is(crate::span::LOG)
}

pub(crate) fn push(span: Span) {
    SINK.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

fn sorted(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// Drains the log, returning all spans sorted by start time (then
/// thread id) for stable output.
pub fn take() -> Vec<Span> {
    sorted(std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner())))
}

/// The same sorted view as [`take`] without draining — for the run
/// report's critical-path section while the owning process still
/// intends to export the trace.
pub fn snapshot() -> Vec<Span> {
    sorted(SINK.lock().unwrap_or_else(|e| e.into_inner()).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;
    use std::time::Duration;

    #[test]
    fn spans_record_across_threads_with_distinct_tids() {
        let _g = serial();
        enable(true);
        take();
        {
            let _s = crate::span("trace-test-main");
        }
        std::thread::spawn(|| {
            let _s = crate::span("trace-test-worker");
        })
        .join()
        .unwrap();
        let spans = take();
        enable(false);
        let main = spans.iter().find(|s| s.name == "trace-test-main").unwrap();
        let worker = spans.iter().find(|s| s.name == "trace-test-worker").unwrap();
        assert_ne!(main.tid, worker.tid);
        assert_ne!(main.id, 0);
        assert_ne!(worker.id, 0);
        assert_ne!(main.id, worker.id);
        // Drained: a second take sees nothing from this test.
        assert!(!take().iter().any(|s| s.name.starts_with("trace-test-")));
    }

    #[test]
    fn nested_spans_carry_parent_hints() {
        let _g = serial();
        enable(true);
        take();
        {
            let _outer = crate::span("trace-test-parent");
            let _inner = crate::span("trace-test-child");
        }
        let spans = take();
        enable(false);
        let outer = spans.iter().find(|s| s.name == "trace-test-parent").unwrap();
        let inner = spans.iter().find(|s| s.name == "trace-test-child").unwrap();
        assert_eq!(inner.parent, outer.id, "child must point at its parent");
        assert_eq!(outer.parent, 0, "outermost span has no parent");
    }

    #[test]
    fn adopted_parents_cross_threads() {
        let _g = serial();
        enable(true);
        take();
        let parent_id;
        {
            let _outer = crate::span("trace-test-dispatch");
            let ctx = crate::current();
            parent_id = ctx.expect("a span is open").id;
            assert_ne!(parent_id, 0);
            std::thread::spawn(move || {
                let _adopt = crate::adopt(ctx);
                let _s = crate::span("trace-test-adopted");
            })
            .join()
            .unwrap();
        }
        let spans = take();
        enable(false);
        let adopted = spans.iter().find(|s| s.name == "trace-test-adopted").unwrap();
        assert_eq!(adopted.parent, parent_id);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _g = serial();
        enable(true);
        take();
        {
            let _s = crate::span("trace-test-snap");
        }
        assert!(snapshot().iter().any(|s| s.name == "trace-test-snap"));
        let spans = take();
        enable(false);
        assert!(spans.iter().any(|s| s.name == "trace-test-snap"));
    }

    #[test]
    fn timestamps_are_monotonic_offsets() {
        let _g = serial();
        enable(true);
        take();
        {
            let _a = crate::span("trace-test-order-a");
        }
        std::thread::sleep(Duration::from_millis(1));
        {
            let _b = crate::span("trace-test-order-b");
        }
        let spans = take();
        enable(false);
        let a = spans.iter().find(|s| s.name == "trace-test-order-a").unwrap();
        let b = spans.iter().find(|s| s.name == "trace-test-order-b").unwrap();
        assert!(a.start_ns < b.start_ns);
    }
}
