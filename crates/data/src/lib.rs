//! Synthetic CTDG datasets for the TGLite reproduction.
//!
//! The paper evaluates on six real datasets (Table 3): Wiki, MOOC,
//! Reddit, LastFM (standard), WikiTalk and GDELT (large-scale). Those
//! datasets are not redistributable here, so this crate provides
//! *seeded synthetic generators* parameterized to match each dataset's
//! statistical shape at a configurable scale:
//!
//! * bipartite interaction structure (users × items) for
//!   Wiki/MOOC/Reddit/LastFM, power-law communication for WikiTalk,
//!   dense event streams for GDELT;
//! * heavy repeat-interaction redundancy (the property the paper's
//!   dedup/cache optimizations exploit) controlled per dataset;
//! * quantized timestamps for GDELT (the property time-precomputation
//!   exploits: few distinct time deltas);
//! * cluster-structured node features plus recency structure so that
//!   temporal models have real signal to learn (AP well above 0.5).
//!
//! See `DESIGN.md` for the substitution rationale.

#![forbid(unsafe_code)]

mod generator;
pub mod json;
mod sampling;
mod specs;
mod split;
pub mod stats;

pub use generator::{generate, DatasetStats};
pub use json::Json;
pub use sampling::NegativeSampler;
pub use specs::{DatasetKind, DatasetSpec};
pub use split::{chronological_split, Split};
pub use stats::{temporal_stats, TemporalStats};
