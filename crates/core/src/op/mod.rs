//! TBlock-based operators (paper Table 1).
//!
//! Single-block computation operators: [`edge_attention`],
//! [`edge_softmax`], [`edge_reduce`], [`src_scatter`], [`coalesce`].
//! Multi-block operators: [`aggregate`] (pull-style message passing)
//! and [`propagate`] (push-style).
//! Optimization operators (semantic-preserving): [`dedup`], [`cache`],
//! [`preload`], [`precomputed_zeros`], [`precomputed_times`]; and the
//! node-keyed [`node_index`] for state that does not depend on a row's
//! time.

mod agg;
mod cache;
mod coalesce;
mod dedup;
mod preload;
mod segment;
mod time;

pub use agg::{aggregate, propagate};
pub use cache::cache;
pub use coalesce::{coalesce, CoalesceBy};
pub use dedup::{dedup, node_index, NodeIndex};
pub use preload::preload;
pub(crate) use preload::Staged;
pub use segment::{edge_attention, edge_reduce, edge_softmax, src_scatter, ReduceOp};
pub use time::{precomputed_times, precomputed_zeros};
