//! Time-precomputation optimization operators (after TGOpt).
//!
//! "The time-encoder often produces the same time vectors, so those
//! can be precomputed ahead-of-time and reused" (paper §2). What pays
//! on this substrate is skipping the autograd bookkeeping and, for the
//! all-zero deltas of target nodes (Eq. 4), encoding `Φ(0)` once per
//! call instead of once per row. A table of `Φ(Δt)` rows across calls
//! does not: sampled-neighbor deltas are ~98% distinct within a batch
//! and a hash probe per row costs what the fused
//! [`TimeEncode::forward`] kernel costs to recompute it (measured in
//! EXPERIMENTS.md), so [`precomputed_times`] encodes every call's
//! deltas afresh and nothing here can go stale.
//!
//! These operators produce *detached* tensors (no gradient to the
//! encoder parameters), so — like the paper — models enable them only
//! for inference.

use tgl_tensor::{no_grad, Tensor};

use crate::nn::TimeEncode;
use crate::TContext;

/// Time vectors for all-zero deltas: `[n, dim]` rows of `Φ(0)`,
/// encoded once and repeated (paper §3.4: "specialized to the case
/// when a user knows that they have time deltas of zeros" — the
/// self-time-encoding of target nodes, Eq. 4).
pub fn precomputed_zeros(_ctx: &TContext, encoder: &TimeEncode, n: usize) -> Tensor {
    let _g = no_grad();
    encoder.forward(&[0.0]).index_select(&vec![0; n])
}

/// Detached time vectors for arbitrary deltas already on the encoder's
/// device (a block's [`crate::TBlock::deltas`]), one `[dim]` row each.
pub fn precomputed_times(_ctx: &TContext, encoder: &TimeEncode, deltas: &Tensor) -> Tensor {
    let _g = no_grad();
    encoder.encode(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgl_runtime::rng::StdRng;
    use tgl_runtime::rng::SeedableRng;
    use std::sync::Arc;
    use tgl_graph::TemporalGraph;

    fn setup() -> (TContext, TimeEncode) {
        let g = Arc::new(TemporalGraph::from_edges(2, vec![(0, 1, 1.0)]));
        let ctx = TContext::new(g);
        let mut rng = StdRng::seed_from_u64(0);
        (ctx, TimeEncode::new(4, &mut rng))
    }

    #[test]
    fn zeros_matches_direct_encoding() {
        let (ctx, enc) = setup();
        let pre = precomputed_zeros(&ctx, &enc, 3);
        let direct = enc.forward(&[0.0, 0.0, 0.0]);
        assert_eq!(pre.dims(), &[3, 4]);
        assert_eq!(pre.to_vec(), direct.to_vec());
    }

    #[test]
    fn times_match_direct_encoding() {
        let (ctx, enc) = setup();
        let deltas = [1.5f32, 0.0, 1.5, 7.25];
        let pre = precomputed_times(&ctx, &enc, &Tensor::from_vec(deltas.to_vec(), [4]));
        let direct = enc.forward(&deltas);
        assert_eq!(pre.to_vec(), direct.to_vec());
    }

    #[test]
    fn results_are_detached() {
        let (ctx, enc) = setup();
        let pre = precomputed_times(&ctx, &enc, &Tensor::ones([1]));
        assert!(!pre.requires_grad_flag());
        let prez = precomputed_zeros(&ctx, &enc, 1);
        assert!(!prez.requires_grad_flag());
    }

    #[test]
    fn empty_deltas_empty_tensor() {
        let (ctx, enc) = setup();
        let pre = precomputed_times(&ctx, &enc, &Tensor::zeros([0]));
        assert_eq!(pre.dims(), &[0, 4]);
    }
}
