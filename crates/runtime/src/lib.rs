//! The workspace's parallel compute runtime.
//!
//! Everything in this crate is `std`-only — no external dependencies —
//! so the workspace builds with no network access. Its pieces:
//!
//! * [`pool`]: a persistent worker-thread pool with a chunked
//!   work-distribution API ([`parallel_for`], [`parallel_for_chunks`])
//!   that kernels use to borrow slices scope-style. Thread count comes
//!   from `TGL_THREADS` (or `available_parallelism`), adjustable at
//!   runtime with [`set_threads`]. Work below a per-call element
//!   threshold runs inline on the caller, so small tensors never pay
//!   synchronization costs.
//! * [`rng`]: SplitMix64 / xoshiro256** pseudo-random generators with a
//!   `rand`-like surface ([`rng::StdRng`], [`rng::Rng`],
//!   [`rng::SeedableRng`]) used everywhere the workspace needs seeded
//!   randomness.
//! * [`sync`]: thin wrappers over `std::sync` locks with a
//!   panic-poisoning-free API (`lock()` / `read()` / `write()` return
//!   guards directly).
//! * [`channel`]: bounded MPSC channels with blocking send/recv,
//!   backpressure, and a close/drain protocol — the stage connectors
//!   for the pipelined trainer.
//! * [`hash`]: [`IntMap`], a `HashMap` under an unkeyed integer hasher
//!   for the hot-path maps keyed by ids, slots and timestamp bits.
//!
//! # Determinism contract
//!
//! Parallel kernels built on this pool partition *output* elements into
//! chunks whose computation does not depend on which thread runs them,
//! so results are bitwise identical for any thread count — including 1.
//! Reductions that accumulate across a whole buffer use
//! [`parallel_for_chunks`] with a chunk size that is a function of the
//! input only (never of the thread count) and combine per-chunk partials
//! in chunk order, so their rounding is also thread-count invariant.

pub mod channel;
pub mod hash;
pub mod pool;
pub mod rng;
pub mod sync;

pub use channel::{bounded, Receiver, Sender};
pub use hash::IntMap;
pub use pool::{
    current_threads, parallel_for, parallel_for_chunks, set_threads, UnsafeSlice,
};
pub use rng::{Rng, SeedableRng, SplitMix64, StdRng};
pub use sync::{Mutex, RwLock};
