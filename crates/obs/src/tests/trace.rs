//! Tests of the span log's full mode: every span since the switch,
//! which the Chrome trace and the critical-path analyzer read.

mod tests {
    use crate::log::{full, snapshot, take};
    use crate::tests::serial;
    use std::time::Duration;

    #[test]
    fn spans_record_across_threads_with_distinct_tids() {
        let _g = serial();
        full(true);
        {
            let _s = crate::span("trace-test-main");
        }
        std::thread::spawn(|| {
            let _s = crate::span("trace-test-worker");
        })
        .join()
        .unwrap();
        let spans = take();
        let main = spans.iter().find(|s| s.name == "trace-test-main").unwrap();
        let worker = spans.iter().find(|s| s.name == "trace-test-worker").unwrap();
        assert_ne!(main.tid, worker.tid);
        assert_ne!(main.id, 0);
        assert_ne!(worker.id, 0);
        assert_ne!(main.id, worker.id);
        // Drained: a second take sees nothing from this test.
        assert!(!take().iter().any(|s| s.name.starts_with("trace-test-")));
        full(false);
    }

    #[test]
    fn nested_spans_carry_parent_hints() {
        let _g = serial();
        full(true);
        {
            let _outer = crate::span("trace-test-parent");
            let _inner = crate::span("trace-test-child");
        }
        let spans = take();
        full(false);
        let outer = spans.iter().find(|s| s.name == "trace-test-parent").unwrap();
        let inner = spans.iter().find(|s| s.name == "trace-test-child").unwrap();
        assert_eq!(inner.parent, outer.id, "child must point at its parent");
        assert_eq!(outer.parent, 0, "outermost span has no parent");
    }

    #[test]
    fn adopted_parents_cross_threads() {
        let _g = serial();
        full(true);
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
        full(false);
        let adopted = spans.iter().find(|s| s.name == "trace-test-adopted").unwrap();
        assert_eq!(adopted.parent, parent_id);
    }

    #[test]
    fn snapshot_does_not_drain() {
        let _g = serial();
        full(true);
        {
            let _s = crate::span("trace-test-snap");
        }
        assert!(snapshot().iter().any(|s| s.name == "trace-test-snap"));
        let spans = take();
        full(false);
        assert!(spans.iter().any(|s| s.name == "trace-test-snap"));
    }

    #[test]
    fn timestamps_are_monotonic_offsets() {
        let _g = serial();
        full(true);
        {
            let _a = crate::span("trace-test-order-a");
        }
        std::thread::sleep(Duration::from_millis(1));
        {
            let _b = crate::span("trace-test-order-b");
        }
        let spans = take();
        full(false);
        let a = spans.iter().find(|s| s.name == "trace-test-order-a").unwrap();
        let b = spans.iter().find(|s| s.name == "trace-test-order-b").unwrap();
        assert!(a.start_ns < b.start_ns);
    }
}
