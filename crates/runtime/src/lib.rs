//! The workspace's parallel compute runtime.
//!
//! Everything in this crate is `std`-only — no external dependencies —
//! so the workspace builds with no network access. Its pieces:
//!
//! * [`pool`]: a persistent worker-thread pool with one chunked
//!   work-distribution entry point, [`parallel_rows`]: each chunk gets
//!   its item range and its own `&mut` rows of every output buffer, cut
//!   at offsets the runtime reads itself ([`Rows`]: a row per item or an
//!   offsets slice) and checks before any chunk runs. [`parallel_for`]
//!   is the same without outputs. Thread count comes from `TGL_THREADS`
//!   (or `available_parallelism`; [`env_threads`] is its one parser),
//!   adjustable at runtime with [`set_threads`]. Work below a per-call
//!   threshold runs inline on the caller, so small tensors never pay
//!   synchronization costs.
//! * [`rng`]: SplitMix64 / xoshiro256** pseudo-random generators with a
//!   `rand`-like surface ([`rng::StdRng`], [`rng::Rng`],
//!   [`rng::SeedableRng`]) used everywhere the workspace needs seeded
//!   randomness.
//! * [`sync`]: thin wrappers over `std::sync` locks with a
//!   panic-poisoning-free API (`lock()` / `read()` / `write()` return
//!   guards directly).
//! * [`channel`]: [`bounded`], std's `sync_channel` behind the one name
//!   the pipelined trainer and the benchmark's channel probe call.
//! * [`clock`]: [`process_cpu_seconds`], the process CPU clock read
//!   through libc's `clock_gettime`.
//! * [`env`]: the one reader of environment knobs (`TGL_THREADS`,
//!   `TGL_SIMD`, the bench sizes): unset is a default, an
//!   unusable value an error naming the variable.
//! * [`hash`]: [`IntMap`], a `HashMap` under an unkeyed integer hasher
//!   for the hot-path maps keyed by ids, slots and timestamp bits.
//!
//! # Determinism contract
//!
//! Parallel kernels built on this pool partition *output* elements into
//! chunks whose computation does not depend on which thread runs them,
//! so results are bitwise identical for any thread count — including 1.
//! The partition is the runtime's, not the kernel's: a chunk can only
//! reach the rows [`parallel_rows`] cut for it. Reductions that
//! accumulate across a whole buffer use [`Chunks::Fixed`], a chunk size
//! that is a function of the input only (never of the thread count),
//! and combine per-chunk partials in chunk order, so their rounding is
//! also thread-count invariant.

pub mod channel;
pub mod clock;
pub mod env;
pub mod hash;
pub mod pool;
pub mod rng;
pub mod sync;

pub use channel::{bounded, Receiver, Sender};
pub use clock::process_cpu_seconds;
pub use hash::IntMap;
pub use pool::{
    current_threads, env_threads, parallel_for, parallel_rows, set_threads, Chunks, Outputs, Rows, MAX_THREADS,
};
pub use rng::{Rng, SeedableRng, SplitMix64, StdRng};
pub use sync::{Mutex, RwLock};
