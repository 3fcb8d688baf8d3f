//! Structured health events.
//!
//! Subsystems report conditions ("loss went NaN at epoch 2 batch 17",
//! "loss trend diverging") as [`HealthEvent`]s instead of panicking:
//! the event is recorded here, surfaced through the `health` section of the
//! run report (a flight dump is one), and the *caller's* policy decides
//! whether the run continues. The sink is bounded ([`MAX_EVENTS`]) so a
//! pathological run cannot grow it without limit; overflow is counted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Severity of a health event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Informational (e.g. "health monitoring enabled").
    Info,
    /// Degraded but running (e.g. a skipped non-finite batch).
    Warn,
    /// The run is considered failing.
    Fail,
}

impl Level {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Fail => "fail",
        }
    }
}

/// One recorded health condition.
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// Severity.
    pub level: Level,
    /// Reporting subsystem (`"trainer.loss"`, `"trainer.grad"`, ...).
    pub source: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Monotonic sequence number (process-wide).
    pub seq: u64,
    /// When it was recorded: offset from the trace epoch in
    /// nanoseconds, the time base of every [`crate::Span`], so a flight
    /// dump orders it among the spans.
    pub t_ns: u64,
}

/// Events kept in memory; older events stay, later ones are dropped
/// (the first occurrences are the diagnostic ones).
pub const MAX_EVENTS: usize = 1024;

static EVENTS: Mutex<Vec<HealthEvent>> = Mutex::new(Vec::new());
static SEQ: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Records a health event; returns its sequence number.
pub fn record(level: Level, source: &'static str, message: String) -> u64 {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut ev = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
    if ev.len() < MAX_EVENTS {
        ev.push(HealthEvent { level, source, message, seq, t_ns: crate::trace::now_ns() });
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
    seq
}

/// A copy of all recorded events, in record order.
pub fn events() -> Vec<HealthEvent> {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Events that did not fit in the bounded sink.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Health state is process-global and other tests in this crate may
    // record events concurrently, so assertions here are monotonic
    // (presence, ordering) rather than exact-count.

    #[test]
    fn events_record_in_order_with_worst_tracking() {
        let a = record(Level::Info, "test.health", "starting".into());
        let b = record(Level::Warn, "test.health", "wobbling".into());
        assert!(b > a);
        let evs = events();
        let mine: Vec<_> = evs.iter().filter(|e| e.source == "test.health").collect();
        assert!(mine.len() >= 2);
        assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(mine.iter().map(|e| e.level).max(), Some(Level::Warn));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Fail);
        assert_eq!(Level::Fail.label(), "fail");
    }
}
