//! Always-on flight recorder: the last [`CAPACITY`] [`Span`] records of
//! every thread.
//!
//! Post-mortems of a panic or a `--health fail` trip normally carry
//! nothing about the last moments of execution — the event log is off
//! by default (it grows without bound) and the aggregate only sums.
//! The flight ring fills that gap with the same record the event log
//! and the aggregate take, kept per thread in a small ring cheap enough
//! to stay on all the time (see the `obs_overhead` bench). [`recent`]
//! merges the rings; the harness writes them as the `recent` section of
//! a run report.
//!
//! On by default; [`enable`]`(false)` (the CLI's `--flight off`) turns
//! it off. A thread's ring outlives the thread, so a dump from the
//! panic hook still sees a sampler stage that has unwound; a thread
//! started later takes over a ring whose thread has exited, which keeps
//! the rings as many as the threads alive at once.

use std::sync::{Arc, Mutex, PoisonError};

use crate::Span;

/// Spans kept per thread: several training steps of phase and region
/// traffic, and with ops collected still the last training step before
/// a small test pass.
pub const CAPACITY: usize = 512;

/// Whether the flight recorder is on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    crate::span::is(crate::span::FLIGHT)
}

/// Turns the recorder on or off.
pub fn enable(on: bool) {
    crate::span::set(crate::span::FLIGHT, on);
}

/// One thread's most recent spans; `next` counts every span written.
#[derive(Default)]
struct Ring {
    spans: Vec<Span>,
    next: usize,
}

type Shared = Arc<Mutex<Ring>>;

/// Every ring, whether or not its thread is still alive.
static RINGS: Mutex<Vec<Shared>> = Mutex::new(Vec::new());

thread_local! {
    static RING: Shared = {
        let mut rings = RINGS.lock().unwrap_or_else(PoisonError::into_inner);
        // The registry's handle is the only one left once a ring's
        // thread has exited; handles are only cloned under this lock.
        match rings.iter().find(|r| Arc::strong_count(r) == 1) {
            Some(free) => Arc::clone(free),
            None => {
                let ring = Shared::default();
                rings.push(Arc::clone(&ring));
                ring
            }
        }
    };
}

/// Records one finished span into the calling thread's ring. Called
/// from the span emit while the recorder is on.
pub(crate) fn record(span: Span) {
    // A thread past its TLS teardown records nothing.
    let _ = RING.try_with(|ring| {
        let mut ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = ring.next % CAPACITY;
        ring.next += 1;
        match ring.spans.get_mut(slot) {
            Some(old) => *old = span,
            None => ring.spans.push(span),
        }
    });
}

/// The spans every ring holds, sorted by start time (then thread).
pub fn recent() -> Vec<Span> {
    let rings: Vec<Shared> = RINGS.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let mut spans: Vec<Span> = rings
        .iter()
        .flat_map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).spans.clone())
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::serial;

    fn mine(prefix: &str) -> Vec<Span> {
        recent().into_iter().filter(|s| s.name.starts_with(prefix)).collect()
    }

    #[test]
    fn spans_land_in_ring_and_render() {
        let _g = serial();
        enable(true);
        {
            let _s = crate::span("flight-land-test").stage(crate::Stage::Forward);
        }
        let spans = mine("flight-land-test");
        let span = spans.last().expect("the span reached the ring");
        assert_eq!((span.kind, span.stage, span.tid), (crate::Kind::Phase, crate::Stage::Forward, crate::thread_id()));
    }

    #[test]
    fn ring_keeps_only_most_recent_events() {
        let _g = serial();
        enable(true);
        for _ in 0..(CAPACITY + 16) {
            let _s = crate::span("flight-test-flood");
        }
        {
            let _s = crate::region("flight-test-last");
        }
        let spans = mine("flight-test-");
        assert_eq!(spans.len(), CAPACITY, "a ring holds CAPACITY spans");
        assert_eq!(spans.last().unwrap().name, "flight-test-last");
    }

    /// Health events are not in the rings, but they carry the spans'
    /// time base, so a dump orders them among the spans.
    #[test]
    fn health_events_are_recorded() {
        let _g = serial();
        enable(true);
        {
            let _s = crate::span("flight-health-test");
        }
        let seq = crate::health::record(crate::health::Level::Warn, "flight.test", "synthetic".into());
        let span = mine("flight-health-test").pop().expect("the span reached the ring");
        let event = crate::health::events().into_iter().find(|e| e.seq == seq).expect("the event was kept");
        assert!(event.t_ns >= span.end_ns(), "event at {} ns, span ended at {} ns", event.t_ns, span.end_ns());
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _g = serial();
        enable(false);
        {
            let _s = crate::span("flight-off-test");
        }
        enable(true);
        assert!(mine("flight-off-test").is_empty());
    }

    #[test]
    fn a_dead_threads_ring_is_read_and_then_reused() {
        let _g = serial();
        enable(true);
        let tid = std::thread::spawn(|| {
            let _s = crate::span("flight-dead-test");
            crate::thread_id()
        })
        .join()
        .unwrap();
        assert!(mine("flight-dead-test").iter().any(|s| s.tid == tid), "a dead thread's spans stay readable");
        let rings = RINGS.lock().unwrap().len();
        std::thread::spawn(|| drop(crate::span("flight-reuse-test"))).join().unwrap();
        assert_eq!(RINGS.lock().unwrap().len(), rings, "a new thread takes over a dead thread's ring");
    }
}
