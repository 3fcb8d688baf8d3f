//! Bounded channels for pipelined dataflow stages: std's `sync_channel`.
//! A send blocks while `capacity` items are queued; once every
//! [`Sender`] is gone, [`Receiver::recv`] drains the queue before it
//! fails; a dropped [`Receiver`] fails blocked and later sends.

pub use std::sync::mpsc::{Receiver, SyncSender as Sender};

/// A bounded FIFO channel holding at most `capacity` in-flight items.
///
/// # Panics
///
/// Panics if `capacity` is 0: a rendezvous would serialize the stages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity >= 1, "channel capacity must be at least 1");
    std::sync::mpsc::sync_channel(capacity)
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = super::bounded::<u32>(0);
    }
}
