//! Tests of the span log's tail: the last spans of every thread, which
//! panic and `--health fail` flight dumps and a run report's `recent`
//! section read.

mod tests {
    use crate::log::{recent, tail, Span, CAPACITY, LOGS};
    use crate::tests::serial;

    fn mine(prefix: &str) -> Vec<Span> {
        recent().into_iter().filter(|s| s.name.starts_with(prefix)).collect()
    }

    #[test]
    fn spans_land_in_ring_and_render() {
        let _g = serial();
        {
            let _s = crate::span("flight-land-test").stage(crate::Stage::Forward);
        }
        let spans = mine("flight-land-test");
        let span = spans.last().expect("the span reached the tail");
        assert_eq!((span.kind, span.stage, span.tid), (crate::Kind::Phase, crate::Stage::Forward, crate::thread_id()));
    }

    #[test]
    fn ring_keeps_only_most_recent_events() {
        let _g = serial();
        for _ in 0..(CAPACITY + 16) {
            let _s = crate::span("flight-test-flood");
        }
        {
            let _s = crate::region("flight-test-last");
        }
        let spans = mine("flight-test-");
        assert_eq!(spans.len(), CAPACITY, "a thread's tail holds CAPACITY spans");
        assert_eq!(spans.last().unwrap().name, "flight-test-last");
    }

    /// Health events are not in the log, but they carry the spans'
    /// time base, so a dump orders them among the spans.
    #[test]
    fn health_events_are_recorded() {
        let _g = serial();
        {
            let _s = crate::span("flight-health-test");
        }
        let seq = crate::health::record(crate::health::Level::Warn, "flight.test", "synthetic".into());
        let span = mine("flight-health-test").pop().expect("the span reached the tail");
        let event = crate::health::events().into_iter().find(|e| e.seq == seq).expect("the event was kept");
        assert!(event.t_ns >= span.end_ns(), "event at {} ns, span ended at {} ns", event.t_ns, span.end_ns());
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = serial();
        tail(false);
        {
            let _s = crate::span("flight-off-test");
        }
        tail(true);
        assert!(mine("flight-off-test").is_empty());
    }

    #[test]
    fn a_dead_threads_ring_is_read_and_then_reused() {
        let _g = serial();
        let tid = std::thread::spawn(|| {
            let _s = crate::span("flight-dead-test");
            crate::thread_id()
        })
        .join()
        .unwrap();
        assert!(mine("flight-dead-test").iter().any(|s| s.tid == tid), "a dead thread's spans stay readable");
        let logs = LOGS.lock().unwrap().len();
        std::thread::spawn(|| drop(crate::span("flight-reuse-test"))).join().unwrap();
        assert_eq!(LOGS.lock().unwrap().len(), logs, "a new thread takes over a dead thread's log");
    }
}
