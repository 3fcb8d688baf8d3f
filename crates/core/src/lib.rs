//! # TGLite (Rust reproduction)
//!
//! A lightweight programming framework for continuous-time Temporal
//! Graph Neural Networks (TGNNs), reproducing *"TGLite: A Lightweight
//! Programming Framework for Continuous-Time Temporal Graph Neural
//! Networks"* (Wang & Mendis, ASPLOS 2024).
//!
//! TGLite supplies a few core data abstractions plus a set of
//! composable operators; tensor math and autograd come from the
//! `tgl-tensor` substrate (standing in for PyTorch).
//!
//! ## Data abstractions (paper Table 2)
//!
//! * [`TContext`] — runtime settings and scratch space (target device,
//!   pinned-memory pool, embedding caches, precomputed time tables).
//! * `TGraph` ([`tgl_graph::TemporalGraph`], re-exported) — the CTDG
//!   container: time-sorted COO, lazy T-CSR, features, memory, mailbox.
//! * [`TBatch`] — a thin view of a contiguous chronological slice of
//!   edges; materializes nothing until asked.
//! * [`TBlock`] — the centerpiece: 1-hop message-flow dependencies
//!   between destination `(node, time)` pairs and temporally sampled
//!   neighbor sources, arranged in a doubly-linked chain for multi-hop
//!   computation, with optional neighborhood and a post-processing
//!   hooks mechanism.
//! * [`TSampler`] — temporal neighborhood sampling as a block operator.
//! * `Memory` / `Mailbox` (re-exported) — node state for memory-based
//!   models.
//!
//! ## Operators (paper Table 1)
//!
//! In [`op`]: [`op::dedup`], [`op::cache`], [`op::preload`],
//! [`op::coalesce`], [`op::edge_softmax`], [`op::edge_reduce`],
//! [`op::src_scatter`], [`op::aggregate`], [`op::propagate`],
//! [`op::precomputed_zeros`], [`op::precomputed_times`].
//!
//! ## Example: 2-layer temporal aggregation skeleton
//!
//! ```
//! use std::sync::Arc;
//! use tglite::{op, TBatch, TBlock, TContext, TSampler};
//! use tglite::tensor::Tensor;
//! use tgl_graph::TemporalGraph;
//! use tgl_sampler::SamplingStrategy;
//!
//! let g = Arc::new(TemporalGraph::from_edges(
//!     4,
//!     vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 2, 4.0)],
//! ));
//! g.set_node_feats(Tensor::ones([4, 8]));
//! let ctx = TContext::new(Arc::clone(&g));
//! let sampler = TSampler::new(2, SamplingStrategy::Recent);
//!
//! let batch = TBatch::new(Arc::clone(&g), 2..4); // last two edges
//! let head = batch.block(&ctx);
//! let mut tail = head.clone();
//! for i in 0..2 {
//!     if i > 0 {
//!         tail = tail.next_block();
//!     }
//!     op::dedup(&tail);
//!     sampler.sample(&tail);
//! }
//! tail.set_dstdata("h", tail.dstfeat());
//! tail.set_srcdata("h", tail.srcfeat());
//! // Mean-aggregate neighbor features layer by layer.
//! let out = op::aggregate(&head, "h", |blk| {
//!     let nbr_mean = op::edge_reduce(blk, &blk.srcdata("h"), op::ReduceOp::Mean);
//!     blk.dstdata("h").add(&nbr_mean)
//! });
//! assert_eq!(out.dim(0), head.num_dst());
//! ```

#![forbid(unsafe_code)]

mod batch;
mod block;
mod ctx;
pub mod nn;
pub mod op;
pub mod plan;
mod sampler;

pub use batch::TBatch;
pub use block::{BlockHook, TBlock};
pub use ctx::TContext;
pub use sampler::TSampler;

/// Tensor substrate (re-export of `tgl-tensor`).
pub mod tensor {
    pub use tgl_tensor::*;
}

/// Observability substrate (re-export of `tgl-obs`): counters, the
/// span primitive (`obs::span`, the timing of a Fig. 7 phase), its
/// aggregate and the span log, and Chrome-trace export.
pub mod obs {
    pub use tgl_obs::*;
}

pub use tgl_graph::{EdgeId, Mailbox, Memory, NodeId, TCsr, Time};

/// The paper's `TGraph`: central container for a CTDG dataset.
pub use tgl_graph::TemporalGraph as TGraph;

pub use tgl_device::Device;

#[cfg(test)]
mod testing {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every test of this crate that crosses the link, so a
    /// transfer-counter delta read under it is the test's own.
    pub(crate) fn link() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
