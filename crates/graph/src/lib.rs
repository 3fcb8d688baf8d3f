//! Temporal graph storage for the TGLite reproduction.
//!
//! A continuous-time dynamic graph (CTDG) is a stream of timestamped
//! edges. Following the paper (§3.4), [`TemporalGraph`] stores edges in
//! time-sorted COO form — "sorting based on timestamp so that the
//! common case of iterating through the edges chronologically will be
//! fast" — and lazily builds a temporal CSR ([`TCsr`]) for fast
//! neighbor lookups during sampling. The graph is also the container
//! for node/edge feature tensors and the [`Memory`]/[`Mailbox`] state
//! used by memory-based TGNN models (TGN, JODIE, APAN); the paper makes
//! these "part of the TGraph interface so that users can access these
//! data in a central place".
//!
//! # Examples
//!
//! ```
//! use tgl_graph::TemporalGraph;
//!
//! // A 3-node graph with 3 chronological interactions.
//! let g = TemporalGraph::from_edges(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]);
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! let csr = g.tcsr();
//! assert_eq!(csr.neighbors(0).count(), 2); // undirected view
//! ```

#![forbid(unsafe_code)]

mod graph;
mod mailbox;
mod memory;
pub mod snapshots;
mod tcsr;

pub use graph::TemporalGraph;
pub use mailbox::Mailbox;
pub use memory::Memory;
pub use tcsr::TCsr;

/// Node identifier.
pub type NodeId = u32;
/// Edge identifier (index into the time-sorted edge arrays).
pub type EdgeId = u32;
/// Edge timestamp. `f64` to cover the paper's datasets (max(t) up to
/// 1.2e9 in WikiTalk, beyond `f32` integer precision).
pub type Time = f64;
