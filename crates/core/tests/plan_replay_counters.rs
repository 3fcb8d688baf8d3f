//! Taking a prepared chain, and reading what was staged for it, must
//! not count the dedup, sampling and staging (feature rows and time
//! deltas over the link) again: they were counted where the chain was
//! built. The counters are process-global, so this check owns its test
//! binary — nothing else can move them between the two snapshots, and
//! one exact comparison is the proof.

use std::sync::Arc;

use tgl_graph::TemporalGraph;
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::Tensor;
use tglite::plan::{build_chain, build_plan, SamplingSpec};
use tglite::{TBatch, TContext};

#[test]
fn apply_is_counter_silent() {
    let g = Arc::new(TemporalGraph::from_edges(
        6,
        vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 2, 4.0), (1, 3, 5.0), (3, 4, 6.0)],
    ));
    g.set_node_feats(Tensor::from_vec((0..12).map(|v| v as f32).collect(), [6, 2]));
    g.set_edge_feats(Tensor::from_vec((0..6).map(|v| v as f32).collect(), [6, 1]));
    // Host-resident features, accelerator compute: staging crosses the link.
    let ctx = TContext::with_device(Arc::clone(&g), tgl_device::Device::Accel);
    let spec = SamplingSpec {
        n_layers: 2,
        dedup: true,
        preload_pinned: true,
        sampler: TemporalSampler::new(3, SamplingStrategy::Recent).with_seed(7),
    };
    let mut batch = TBatch::new(Arc::clone(&g), 0..4);
    batch.set_negatives(vec![4, 5, 4, 5]);
    batch.set_plan(Arc::new(build_plan(&ctx, &batch, &spec)));

    let metered = || -> Vec<(&'static str, u64)> {
        tgl_obs::metrics::snapshot()
            .into_iter()
            .filter(|(name, _)| {
                ["dedup.", "sampler.", "preload.", "transfer."].iter().any(|p| name.starts_with(p))
            })
            .collect()
    };
    let before = metered();
    assert!(before.iter().any(|&(_, v)| v > 0), "building the chain counted: {before:?}");
    assert!(
        before.iter().any(|&(name, v)| name == "transfer.pinned_count" && v == 3),
        "two tables and the deltas cross pinned: {before:?}"
    );
    let head = build_chain(&ctx, &batch, &spec, false);
    // Expanding what was staged crosses nothing either.
    for blk in head.chain() {
        assert_eq!(blk.deltas().to_vec(), blk.delta_times());
        blk.srcfeat();
    }
    assert_eq!(metered(), before, "taking the chain moved a dedup/sampler/preload/transfer counter");
}
