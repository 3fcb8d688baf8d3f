//! The opt-in event log: every finished [`Span`], with Chrome
//! trace-event export.
//!
//! While [`enable`]d, the span emit (see [`crate::span`]) appends each
//! record to one global sink. [`take`] drains it;
//! [`to_chrome_json`] renders the spans as
//! Chrome trace-event JSON — open the file in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the per-thread timeline. The
//! critical-path analyzer ([`crate::critpath`]) reads the same log,
//! using each span's `stage`, `id` and cross-thread `parent`.
//!
//! The log is **off by default**: unlike the aggregate (bounded by the
//! distinct span keys) it grows with every span, so it should only run
//! when a `--trace-out` / `--critpath` style flag asks for it.

use std::fmt::Write as _;
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

/// Renders spans as Chrome trace-event JSON (complete `"ph":"X"`
/// events, microsecond timestamps as the format requires). An op's
/// event is named `op[shape]`; the category is the span's stage.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Span names are identifiers and shape signatures are digits,
        // `x` and `,` — no quotes or backslashes — so plain
        // interpolation is JSON-safe here.
        let _ = write!(out, "{{\"name\":\"{}", s.name);
        if !s.shape.is_empty() {
            let _ = write!(out, "[{}]", s.shape);
        }
        let _ = write!(
            out,
            "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}",
            s.stage.label(),
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.tid
        );
        if s.id != 0 || s.parent != 0 || s.flops != 0 || s.bytes != 0 {
            let _ = write!(
                out,
                ",\"args\":{{\"flops\":{},\"bytes\":{},\"shape\":\"{}\",\"id\":{},\"parent\":{}}}",
                s.flops, s.bytes, s.shape, s.id, s.parent
            );
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Kind, Stage};
    use crate::tests::serial;
    use std::time::Duration;

    fn sp(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span { name, tid, start_ns, dur_ns, ..Span::default() }
    }

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
    fn chrome_json_shape() {
        let spans = vec![sp("alpha", 0, 1_500, 2_000_123), sp("beta", 3, 10_000, 500)];
        let json = to_chrome_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alpha\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2000.123"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.ends_with("}"));
        assert!(!json.contains("\"args\""));
    }

    #[test]
    fn chrome_json_renders_op_args() {
        let spans = vec![Span {
            kind: Kind::Op,
            stage: Stage::Forward,
            id: 9,
            parent: 7,
            flops: 48,
            bytes: 128,
            shape: "2x3,3x4",
            ..sp("matmul", 1, 1_000, 2_000)
        }];
        let json = to_chrome_json(&spans);
        assert!(json.contains("\"name\":\"matmul[2x3,3x4]\",\"cat\":\"forward\""));
        assert!(json.contains(
            "\"args\":{\"flops\":48,\"bytes\":128,\"shape\":\"2x3,3x4\",\"id\":9,\"parent\":7}"
        ));
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
