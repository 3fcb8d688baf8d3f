//! The **hooks-mechanism ablation** (paper §5.4): TGAT embeddings with
//! and without the hooks mechanism.
//!
//! Without hooks, instead of `op::dedup` registering an inversion hook
//! that `op::aggregate` runs automatically, the user deduplicates
//! destinations manually, re-implements the multi-hop traversal, and
//! applies the inversions themselves — "what the user implements here
//! is effectively what TGLite provides via the hooks mechanism" (the
//! paper measured 49 extra user lines and no noticeable perf
//! regression). Both paths must produce the same embeddings.

use std::collections::HashMap;
use std::sync::Arc;

use tgl_data::{generate, DatasetKind, DatasetSpec, NegativeSampler, Split};
use tgl_harness::{CpuTimer, ExperimentConfig, Framework, ModelKind, Placement};
use tgl_models::TemporalAttnLayer;
use tgl_sampler::SamplingStrategy;
use tglite::tensor::{no_grad, Tensor};
use tglite::{op, NodeId, TBatch, TBlock, TContext, TSampler, Time};

const N_LAYERS: usize = 2;

/// One way to compute a batch's head embeddings.
type Path = fn(&TContext, &TBatch, &TSampler, &[TemporalAttnLayer]) -> Tensor;

/// With-hooks path: dedup registers hooks, aggregate runs them.
fn hooks_embeddings(ctx: &TContext, batch: &TBatch, sampler: &TSampler, layers: &[TemporalAttnLayer]) -> Tensor {
    let head = batch.block(ctx);
    let mut tail = head.clone();
    for i in 0..N_LAYERS {
        if i > 0 {
            tail = tail.next_block();
        }
        op::dedup(&tail);
        sampler.sample(&tail);
    }
    tail.set_dstdata("h", tail.dstfeat());
    tail.set_srcdata("h", tail.srcfeat());
    op::aggregate(&head, "h", |blk| layers[blk.layer()].forward(ctx, blk, false))
}

/// Manual path: user-level dedup + inversion + traversal (the extra
/// application code the hooks mechanism saves).
fn manual_embeddings(ctx: &TContext, batch: &TBatch, sampler: &TSampler, layers: &[TemporalAttnLayer]) -> Tensor {
    let head = batch.block(ctx);
    let mut chain: Vec<TBlock> = vec![head.clone()];
    let mut inverses: Vec<Option<Vec<usize>>> = Vec::new();
    let mut tail = head.clone();
    for i in 0..N_LAYERS {
        if i > 0 {
            tail = tail.next_block();
            chain.push(tail.clone());
        }
        // Manual dedup: unique (node, time) pairs + inverse index.
        let (uniq_n, uniq_t, inv) = tail.with_dst(|nodes, times| {
            let mut seen: HashMap<(NodeId, u64), usize> = HashMap::new();
            let mut un: Vec<NodeId> = Vec::new();
            let mut ut: Vec<Time> = Vec::new();
            let mut inv = Vec::with_capacity(nodes.len());
            for (&n, &t) in nodes.iter().zip(times) {
                let p = *seen.entry((n, t.to_bits())).or_insert_with(|| {
                    un.push(n);
                    ut.push(t);
                    un.len() - 1
                });
                inv.push(p);
            }
            (un, ut, inv)
        });
        if uniq_n.len() < inv.len() {
            tail.replace_dst(uniq_n, uniq_t);
            inverses.push(Some(inv));
        } else {
            inverses.push(None);
        }
        sampler.sample(&tail);
    }
    tail.set_dstdata("h", tail.dstfeat());
    tail.set_srcdata("h", tail.srcfeat());
    // Manual multi-hop traversal (what aggregate + hooks would do).
    let mut out = None;
    for (blk, inv) in chain.iter().zip(&inverses).rev() {
        let mut o = layers[blk.layer()].forward(ctx, blk, false);
        if let Some(inv) = inv {
            o = o.index_select(inv);
        }
        match blk.prev() {
            Some(prev) => {
                let nd = prev.num_dst();
                prev.set_dstdata("h", o.narrow_rows(0, nd));
                prev.set_srcdata("h", o.narrow_rows(nd, o.dim(0) - nd));
            }
            None => out = Some(o),
        }
    }
    out.expect("head output")
}

/// What the ablation measures.
#[derive(Debug, Clone, Copy)]
pub struct HooksAblation {
    /// Process CPU seconds of the hooks path over every round.
    pub hooks_s: f64,
    /// The same for the manual path.
    pub manual_s: f64,
    /// Largest absolute difference between the two paths' embeddings
    /// over the first round.
    pub max_diff: f32,
}

/// Runs both paths over the Wiki test split at dataset divisor `scale`,
/// `rounds` times, alternating which runs first per batch (and per
/// round) so first-run warm-up biases neither.
pub fn compare(scale: usize, rounds: usize) -> HooksAblation {
    let spec = DatasetSpec::of(DatasetKind::Wiki).scaled_down(scale);
    let (g, _) = generate(&spec);
    let ctx = TContext::new(Arc::clone(&g));
    let split = Split::standard(&g);
    let cfg =
        ExperimentConfig::paper_default(Framework::TgLite, ModelKind::Tgat, DatasetKind::Wiki, Placement::AllOnDevice)
            .model_cfg;
    let mut rng = <tgl_runtime::rng::StdRng as tgl_runtime::rng::SeedableRng>::seed_from_u64(3);
    let layers: Vec<TemporalAttnLayer> = (0..N_LAYERS)
        .map(|i| {
            let dim_in = if i == N_LAYERS - 1 { g.node_feat_dim() } else { cfg.emb_dim };
            TemporalAttnLayer::new(dim_in, g.edge_feat_dim(), cfg.time_dim, cfg.emb_dim, cfg.heads, &mut rng)
        })
        .collect();
    let sampler = TSampler::from_engine(
        tgl_sampler::TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Recent).with_seed(1),
    );
    let mut negs = NegativeSampler::for_spec(&spec, 2);
    let _guard = no_grad();
    let mut out = HooksAblation { hooks_s: 0.0, manual_s: 0.0, max_diff: 0.0 };
    for round in 0..rounds {
        for (bi, r) in Split::batches(&split.test, 200).enumerate() {
            let mut batch = TBatch::new(Arc::clone(&g), r);
            batch.set_negatives(negs.draw(batch.len()));
            let timed = |path: Path, total: &mut f64| {
                let s = CpuTimer::start();
                let e = path(&ctx, &batch, &sampler, &layers);
                *total += s.elapsed_s();
                e
            };
            let (a, b) = if (bi + round) % 2 == 0 {
                let a = timed(hooks_embeddings, &mut out.hooks_s);
                (a, timed(manual_embeddings, &mut out.manual_s))
            } else {
                let b = timed(manual_embeddings, &mut out.manual_s);
                (timed(hooks_embeddings, &mut out.hooks_s), b)
            };
            if round == 0 {
                for (x, y) in a.to_vec().iter().zip(b.to_vec()) {
                    out.max_diff = out.max_diff.max((x - y).abs());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_and_manual_paths_agree() {
        let out = compare(16, 1);
        assert!(out.max_diff < 1e-5, "hooks and manual paths diverged by {}", out.max_diff);
        assert!(out.hooks_s > 0.0 && out.manual_s > 0.0, "{out:?}");
    }
}
